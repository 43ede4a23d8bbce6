//! Property test: the interned engine (both eval modes) is
//! tuple-identical to the independent string-path reference evaluator
//! over randomly generated safe, stratified programs — the in-crate
//! half of the `interned-vs-string` differential arm (the sim oracle
//! runs the same comparison over real chains and GCCs).

use nrslb_datalog::eval::DEFAULT_BUDGET;
use nrslb_datalog::{evaluate_strings, CompiledProgram, Database, Program, Val};
use proptest::prelude::*;
use std::sync::Arc;

/// Same program shape as `proptest_engine`: a chain of derived
/// predicates over `e0`/`e1` with optional negation of strictly earlier
/// predicates and positive recursive closures — plus string constants in
/// the EDB, so symbol interning itself is on the tested path.
#[derive(Debug, Clone)]
struct RandomProgram {
    rules: Vec<String>,
}

fn random_program() -> impl Strategy<Value = RandomProgram> {
    proptest::collection::vec((0u8..6, any::<bool>(), any::<bool>()), 1..6).prop_map(|specs| {
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
                4 => format!("e0(X, W), Y = W + 1{neg_part}"),
                _ => format!("e0(X, Y), e0(Y, X){neg_part}"),
            };
            rules.push(format!("{head}(X, Y) :- {body}."));
            if negate && i > 0 {
                rules.push(format!("d{}(X) :- e0(X, _).", i - 1));
            }
            if extra_edge {
                rules.push(format!("c{i}(X, Y) :- e0(X, Y)."));
                rules.push(format!("c{i}(X, Z) :- c{i}(X, Y), e0(Y, Z)."));
            }
        }
        RandomProgram { rules }
    })
}

/// EDB values mix integers and strings (handles intern, ints do not).
fn edb() -> impl Strategy<Value = Vec<(u8, u8, i64)>> {
    proptest::collection::vec((0u8..2, 0u8..5, 0i64..6), 0..20)
}

fn val_of(tag: u8, n: i64) -> Val {
    if tag.is_multiple_of(2) {
        Val::int(n)
    } else {
        Val::str(format!("h{n}"))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn interned_matches_string_reference(
        program in random_program(),
        facts in edb(),
    ) {
        let src = program.rules.join("\n");
        let Ok(parsed) = Program::parse(&src) else { return Ok(()) };
        let Ok(compiled) = CompiledProgram::compile(&parsed) else { return Ok(()) };

        let mut db = Database::new();
        for (rel, tag, n) in &facts {
            db.add_fact(format!("e{rel}"), vec![val_of(*tag, *n), val_of(tag.wrapping_add(1), n + 1)]);
        }

        let reference = evaluate_strings(&parsed, &db, DEFAULT_BUDGET);
        let interned = compiled.evaluate_with(Arc::new(db), DEFAULT_BUDGET);
        match (&reference, &interned) {
            (Ok(strings), Ok((layered, _))) => {
                // Same predicates, same tuples, both directions.
                let mut ipreds = layered.predicates();
                ipreds.retain(|p| !layered.tuples(p).is_empty());
                prop_assert_eq!(&strings.predicates(), &ipreds);
                for pred in strings.predicates() {
                    let mut a = strings.tuples(&pred);
                    let mut b = layered.tuples(&pred);
                    a.sort();
                    b.sort();
                    prop_assert_eq!(a, b, "{}", pred);
                }
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(
                std::mem::discriminant(ea),
                std::mem::discriminant(eb)
            ),
            (a, b) => prop_assert!(false, "paths disagree: {a:?} vs {b:?}"),
        }
    }
}
