//! Ablation — design choices called out in DESIGN.md §5:
//!
//! * semi-naive Datalog evaluation on recursive workloads;
//! * GCC evaluation cost as the chain's fact base grows;
//! * compile-once (pre-stratified program, shared fact base) vs
//!   re-checking the program and cloning the fact base on every run.

use criterion::{criterion_group, criterion_main, Criterion};
use nrslb_datalog::{CompiledProgram, Database, Program, Val};
use std::hint::black_box;
use std::sync::Arc;

fn chain_db(n: usize) -> Database {
    let mut db = Database::new();
    for i in 0..n as i64 {
        db.add_fact("edge", vec![Val::int(i), Val::int(i + 1)]);
    }
    db
}

fn bench_semi_naive(c: &mut Criterion) {
    let program =
        Program::parse("reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).").unwrap();
    let compiled = CompiledProgram::compile(&program).unwrap();
    let mut group = c.benchmark_group("ablation_evaluation_mode");
    group.sample_size(20);
    for n in [30usize, 60] {
        let db = chain_db(n);
        group.bench_function(format!("semi_naive_path_{n}"), |b| {
            b.iter(|| black_box(compiled.run(db.clone()).unwrap()))
        });
    }
    group.finish();
}

fn bench_gcc_shapes(c: &mut Criterion) {
    // Listing-1-shaped program over fact bases of growing size
    // (simulating GCC evaluation over longer chains / richer facts).
    let program = Program::parse(
        r#"
        cutoff(1669784400).
        valid(Chain, "TLS") :- leaf(Chain, C), \+EV(C), cutoff(T), notBefore(C, NB), NB < T.
        "#,
    )
    .unwrap();
    let mut group = c.benchmark_group("ablation_gcc_eval");
    group.sample_size(40);
    for n_facts in [20usize, 200, 2000] {
        let mut db = Database::new();
        db.add_fact("leaf", vec![Val::str("chain"), Val::str("cert0")]);
        db.add_fact(
            "notBefore",
            vec![Val::str("cert0"), Val::int(1_600_000_000)],
        );
        // Padding facts (other predicates a conversion produces).
        for i in 0..n_facts as i64 {
            db.add_fact(
                "san",
                vec![Val::str(format!("c{i}")), Val::str("x.example")],
            );
        }
        let compiled = CompiledProgram::compile(&program).unwrap();
        group.bench_function(format!("listing1_{n_facts}_facts"), |b| {
            b.iter(|| black_box(compiled.run(db.clone()).unwrap()))
        });
    }
    group.finish();
}

fn bench_compile_once_vs_per_run(c: &mut Criterion) {
    // What the CompiledProgram split buys: checking + stratification
    // happen once, and evaluation layers over a shared Arc'd base
    // instead of consuming a clone of it.
    let program = Program::parse(
        r#"
        cutoff(1669784400).
        valid(Chain, "TLS") :- leaf(Chain, C), \+EV(C), cutoff(T), notBefore(C, NB), NB < T.
        "#,
    )
    .unwrap();
    let mut db = Database::new();
    db.add_fact("leaf", vec![Val::str("chain"), Val::str("cert0")]);
    db.add_fact(
        "notBefore",
        vec![Val::str("cert0"), Val::int(1_600_000_000)],
    );
    for i in 0..500i64 {
        db.add_fact(
            "san",
            vec![Val::str(format!("c{i}")), Val::str("x.example")],
        );
    }
    let base = Arc::new(db);
    let compiled = CompiledProgram::compile(&program).unwrap();

    let mut group = c.benchmark_group("ablation_exec_model");
    group.sample_size(40);
    group.bench_function("compile_once_shared_base", |b| {
        b.iter(|| black_box(compiled.evaluate(Arc::clone(&base)).unwrap()))
    });
    group.bench_function("recheck_and_clone_per_run", |b| {
        b.iter(|| {
            let compiled = CompiledProgram::compile(&program).unwrap();
            black_box(compiled.run((*base).clone()).unwrap())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_semi_naive,
    bench_gcc_shapes,
    bench_compile_once_vs_per_run
);
criterion_main!(benches);
