//! Property tests over the evaluation engine: randomly generated safe,
//! stratified programs must (a) agree with the string-path reference
//! evaluator and (b) terminate within the budget.

use nrslb_datalog::eval::DEFAULT_BUDGET;
use nrslb_datalog::{evaluate_strings, CompiledProgram, Database, Program, Val};
use proptest::prelude::*;

/// A random non-recursive-with-negation program over a small EDB
/// vocabulary. Shape: a chain of derived predicates d0..dk where each
/// rule body uses EDB relations `e0`/`e1`, earlier derived predicates
/// positively, and optionally negates a *strictly earlier* derived
/// predicate — always stratifiable and safe by construction.
#[derive(Debug, Clone)]
struct RandomProgram {
    rules: Vec<String>,
}

fn random_program() -> impl Strategy<Value = RandomProgram> {
    // For each derived predicate i in 0..n: pick a body template.
    proptest::collection::vec((0u8..5, any::<bool>(), any::<bool>()), 1..6).prop_map(|specs| {
        let mut rules = Vec::new();
        for (i, (template, negate, extra_edge)) in specs.into_iter().enumerate() {
            let head = format!("d{i}");
            let neg_part = if negate && i > 0 {
                format!(", \\+d{}(X)", i - 1)
            } else {
                String::new()
            };
            let body = match template {
                0 => format!("e0(X, Y){neg_part}"),
                1 => format!("e0(X, Z), e1(Z, Y){neg_part}"),
                2 if i > 0 => format!("d{}(X, Y){}", i - 1, neg_part.replace("(X)", "(Y)")),
                3 => format!("e1(X, Y), X < Y{neg_part}"),
                _ => format!("e0(X, Y), e0(Y, X){neg_part}"),
            };
            // Heads are binary except the negated helper form.
            rules.push(format!("{head}(X, Y) :- {body}."));
            if negate && i > 0 {
                // Define the unary projection used under negation.
                rules.push(format!("d{}(X) :- e0(X, _).", i - 1));
            }
            if extra_edge {
                // A recursive (positive-only) closure over e0.
                rules.push(format!("c{i}(X, Y) :- e0(X, Y)."));
                rules.push(format!("c{i}(X, Z) :- c{i}(X, Y), e0(Y, Z)."));
            }
        }
        RandomProgram { rules }
    })
}

fn edb() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    proptest::collection::vec((0u8..2, 0i64..6, 0i64..6), 0..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compiled_equals_string_reference_on_random_programs(
        program in random_program(),
        facts in edb(),
    ) {
        let src = program.rules.join("\n");
        // Some generated programs may fail safety (e.g. d{i-1}(X,Y) body
        // with unary negation projection conflicts) — skip those; the
        // property targets programs the checker admits.
        let Ok(parsed) = Program::parse(&src) else { return Ok(()) };
        let Ok(compiled) = CompiledProgram::compile(&parsed) else { return Ok(()) };

        let mut db = Database::new();
        for (rel, a, b) in &facts {
            db.add_fact(format!("e{rel}"), vec![Val::int(*a), Val::int(*b)]);
        }
        let reference = evaluate_strings(&parsed, &db, DEFAULT_BUDGET);
        match (compiled.run(db), reference) {
            (Ok(da), Ok(strings)) => {
                let total: usize = strings.predicates().iter().map(|p| strings.tuples(p).len()).sum();
                prop_assert_eq!(da.len(), total);
                for pred in da.predicates() {
                    for tuple in da.tuples(&pred) {
                        prop_assert!(strings.contains(&pred, &tuple), "{}{:?}", pred, tuple);
                    }
                }
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(
                std::mem::discriminant(&ea),
                std::mem::discriminant(&eb)
            ),
            (a, b) => prop_assert!(false, "paths disagree: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn arity_mismatch_is_harmless(facts in edb()) {
        // Facts of mismatched arity in the same relation never panic the
        // join machinery; they simply fail to unify.
        let mut db = Database::new();
        for (rel, a, b) in &facts {
            db.add_fact(format!("e{rel}"), vec![Val::int(*a), Val::int(*b)]);
        }
        db.add_fact("e0", vec![Val::int(0)]); // arity 1 amid arity 2
        db.add_fact("e0", vec![Val::int(0), Val::int(1), Val::int(2)]);
        let program = Program::parse("p(X, Y) :- e0(X, Y).").unwrap();
        let out = CompiledProgram::compile(&program).unwrap().run(db).unwrap();
        for t in out.tuples("p") {
            prop_assert_eq!(t.len(), 2);
        }
    }
}
