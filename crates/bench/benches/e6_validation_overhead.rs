//! E6 (criterion) — GCC execution cost per validation and the overhead
//! of the three deployment modes (paper §3.1).
//!
//! Axes:
//! * number of GCCs attached to the candidate root (0, 1, 4, 8);
//! * deployment mode: user-agent (in-process), platform (Unix-socket
//!   trust daemon), Hammurabi (whole policy as one Datalog program);
//! * execution model: shared frozen fact base (compile-once /
//!   evaluate-many), with and without the verdict cache.

use criterion::{criterion_group, criterion_main, Criterion};
use nrslb_core::daemon::{ephemeral_socket_path, TrustDaemon};
use nrslb_core::{Usage, ValidationMode, ValidationSession, Validator, VerdictCache};
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_x509::testutil::simple_chain;
use std::hint::black_box;
use std::sync::Arc;

fn store_with_gccs(
    n_gccs: usize,
) -> (
    RootStore,
    nrslb_x509::Certificate,
    Vec<nrslb_x509::Certificate>,
    i64,
) {
    let pki = simple_chain("bench.example");
    let mut store = RootStore::new("bench");
    store.add_trusted(pki.root.clone()).unwrap();
    for i in 0..n_gccs {
        let src = format!(
            r#"cutoff{i}(4000000000).
valid(Chain, _) :- leaf(Chain, C), notBefore(C, NB), cutoff{i}(T), NB < T."#
        );
        let gcc = Gcc::parse(
            &format!("bench-gcc-{i}"),
            pki.root.fingerprint(),
            &src,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();
    }
    (store, pki.leaf, vec![pki.intermediate], pki.now)
}

fn bench_gcc_count(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_gcc_count");
    group.sample_size(40);
    for n_gccs in [0usize, 1, 4, 8] {
        let (store, leaf, pool, now) = store_with_gccs(n_gccs);
        let validator = Validator::new(store, ValidationMode::UserAgent);
        group.bench_function(format!("user_agent_{n_gccs}_gccs"), |b| {
            b.iter(|| {
                let out = validator.validate(&leaf, &pool, Usage::Tls, now).unwrap();
                assert!(out.accepted());
                black_box(out)
            })
        });
    }
    group.finish();
}

fn bench_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_deployment_mode");
    group.sample_size(40);
    let (store, leaf, pool, now) = store_with_gccs(2);

    let ua = Validator::new(store.clone(), ValidationMode::UserAgent);
    group.bench_function("user_agent", |b| {
        b.iter(|| black_box(ua.validate(&leaf, &pool, Usage::Tls, now).unwrap()))
    });

    let daemon = TrustDaemon::builder()
        .socket(ephemeral_socket_path("bench"))
        .spawn(store.clone())
        .unwrap();
    let platform = Validator::new(
        store.clone(),
        ValidationMode::Platform(Arc::new(daemon.client())),
    );
    group.bench_function("platform_daemon_ipc", |b| {
        b.iter(|| black_box(platform.validate(&leaf, &pool, Usage::Tls, now).unwrap()))
    });

    let ham = Validator::new(store, ValidationMode::Hammurabi);
    group.bench_function("hammurabi_full_datalog", |b| {
        b.iter(|| black_box(ham.validate(&leaf, &pool, Usage::Tls, now).unwrap()))
    });
    group.finish();
}

fn bench_shared_edb(c: &mut Criterion) {
    // The compile-once / evaluate-many execution model: N GCCs over one
    // 3-cert chain sharing the frozen fact base, including the one-time
    // chain conversion.
    let mut group = c.benchmark_group("e6_shared_edb");
    group.sample_size(40);
    let pki = simple_chain("sharededb.example");
    let chain = vec![pki.leaf, pki.intermediate, pki.root];
    for n_gccs in [1usize, 4, 8, 16] {
        let gccs: Vec<Gcc> = (0..n_gccs)
            .map(|i| {
                let src = format!(
                    r#"cutoff{i}(4000000000).
valid(Chain, _) :- leaf(Chain, C), notBefore(C, NB), cutoff{i}(T), NB < T."#
                );
                Gcc::parse(
                    &format!("shared-bench-{i}"),
                    chain.last().unwrap().fingerprint(),
                    &src,
                    GccMetadata::default(),
                )
                .unwrap()
            })
            .collect();

        group.bench_function(format!("shared_edb_{n_gccs}_gccs"), |b| {
            b.iter(|| {
                let session = ValidationSession::new(&chain);
                let verdicts = session.evaluate_gccs(&gccs, Usage::Tls).unwrap();
                assert!(verdicts.iter().all(|v| v.accepted));
                black_box(verdicts)
            })
        });

        // And the ceiling: a warm verdict cache turns re-validation of
        // a known chain into 2N hash lookups plus the conversion.
        let cache = VerdictCache::new(64);
        ValidationSession::new(&chain)
            .evaluate_gccs_cached(&gccs, Usage::Tls, Some(&cache))
            .unwrap();
        group.bench_function(format!("warm_verdict_cache_{n_gccs}_gccs"), |b| {
            b.iter(|| {
                let session = ValidationSession::new(&chain);
                let verdicts = session
                    .evaluate_gccs_cached(&gccs, Usage::Tls, Some(&cache))
                    .unwrap();
                black_box(verdicts)
            })
        });
    }
    group.finish();
}

fn bench_baseline_no_gcc_machinery(c: &mut Criterion) {
    // The floor: plain X.509 validation with an empty-GCC store, i.e.
    // what a validator without the paper's extension would cost.
    let mut group = c.benchmark_group("e6_baseline");
    group.sample_size(40);
    let (store, leaf, pool, now) = store_with_gccs(0);
    let validator = Validator::new(store, ValidationMode::UserAgent);
    group.bench_function("plain_x509_validation", |b| {
        b.iter(|| black_box(validator.validate(&leaf, &pool, Usage::Tls, now).unwrap()))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_gcc_count,
    bench_modes,
    bench_shared_edb,
    bench_baseline_no_gcc_machinery
);
criterion_main!(benches);
