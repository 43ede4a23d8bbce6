//! Property tests for the layered execution model: evaluating a
//! compiled program over a base/overlay split of the EDB must produce
//! byte-identical results to the legacy path that owns one flat,
//! cloned database — in both semi-naive and naive modes, for any split
//! of the facts between the two layers.

use nrslb_datalog::eval::DEFAULT_BUDGET;
use nrslb_datalog::{CompiledProgram, Database, LayeredDatabase, Program, Val};
use proptest::prelude::*;
use std::sync::Arc;

/// Same shape as `proptest_engine`'s generator: chains of derived
/// predicates over `e0`/`e1`, negation only of strictly earlier
/// strata, optional positive recursion — always stratifiable.
#[derive(Debug, Clone)]
struct RandomProgram {
    rules: Vec<String>,
}

fn random_program() -> impl Strategy<Value = RandomProgram> {
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

fn edb() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    proptest::collection::vec((0u8..2, 0i64..6, 0i64..6), 0..20)
}

/// A canonical, order-independent rendering of a database: one line
/// per tuple, sorted. Two databases are byte-identical iff these match.
fn canonical(db: &Database) -> Vec<String> {
    let mut lines = Vec::new();
    for pred in db.predicates() {
        for tuple in db.tuples(&pred) {
            lines.push(format!("{pred}{tuple:?}"));
        }
    }
    lines.sort();
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    // For every admitted random program, every eval mode, and every
    // split point of the EDB between the frozen base and the mutable
    // overlay, layered evaluation flattens to exactly the database the
    // legacy clone-and-own path computes.
    #[test]
    fn layered_split_matches_flat_clone_path(
        program in random_program(),
        facts in edb(),
        split in 0usize..21,
    ) {
        let src = program.rules.join("\n");
        let Ok(parsed) = Program::parse(&src) else { return Ok(()) };
        let Ok(compiled) = CompiledProgram::compile(&parsed) else { return Ok(()) };
        let split = split.min(facts.len());

        // Flat contract: run consumes an owned database.
        let mut flat = Database::new();
        for (rel, a, b) in &facts {
            flat.add_fact(format!("e{rel}"), vec![Val::int(*a), Val::int(*b)]);
        }
        let legacy = compiled.run(flat);

        // Layered path: facts split arbitrarily between the shared
        // base and the per-run overlay.
        let mut base = Database::new();
        for (rel, a, b) in &facts[..split] {
            base.add_fact(format!("e{rel}"), vec![Val::int(*a), Val::int(*b)]);
        }
        let base = Arc::new(base);
        let mut layered = LayeredDatabase::new(Arc::clone(&base));
        for (rel, a, b) in &facts[split..] {
            layered.add_fact(format!("e{rel}"), vec![Val::int(*a), Val::int(*b)]);
        }
        let result = compiled.evaluate_layered(&mut layered, DEFAULT_BUDGET);

        match (legacy, result) {
            (Ok(flat_out), Ok(_stats)) => {
                prop_assert_eq!(
                    canonical(&flat_out),
                    canonical(&layered.clone().flatten()),
                    "split {}", split
                );
                // The shared base was never touched.
                prop_assert_eq!(base.len(), split_len(&facts[..split]));
            }
            (Err(ea), Err(eb)) => prop_assert_eq!(
                std::mem::discriminant(&ea),
                std::mem::discriminant(&eb)
            ),
            (a, b) => prop_assert!(false, "paths disagree: {a:?} vs {b:?}"),
        }
    }
}

/// Distinct facts in a slice (the EDB generator may repeat tuples).
fn split_len(facts: &[(u8, i64, i64)]) -> usize {
    let mut set = std::collections::BTreeSet::new();
    for f in facts {
        set.insert(*f);
    }
    set.len()
}
