//! E16 — trust-daemon throughput under concurrency.
//!
//! The platform-execution mode (§3.1) puts the daemon on every TLS
//! handshake on the machine, so daemon requests/sec under concurrent
//! clients *is* the deployability claim. This binary measures the
//! contention-free fast path end to end:
//!
//! 1. **Scaling**: daemon req/s at 1/2/4/8/16 keep-alive clients,
//!    cold (first sight of every chain, full Datalog evaluation) vs
//!    warm (verdict-cache hits, served inline on the reactor's event
//!    loops).
//! 2. **Pipelining**: `OP_EVALUATE_BATCH` vs one request per chain on
//!    the same connection — how much round-trip amortization buys.
//! 3. **Signature memo**: repeated-chain validation with a cold vs warm
//!    HBS verification memo; warm must be ≥ 2× cold, because WOTS+/XMSS
//!    verification (thousands of SHA-256 compressions) dominates a
//!    cold validation.
//!
//! `NRSLB_E16_ASSERT=1` turns the acceptance thresholds into hard
//! failures (the CI smoke). The JSON report lands in `NRSLB_JSON`, or
//! `BENCH_e16.json` when unset, so the perf trajectory is tracked in
//! the repo from this PR on.

use nrslb_bench::{header, scale, Timer};
use nrslb_core::daemon::{ephemeral_socket_path, TrustDaemon};
use nrslb_core::{Usage, ValidationMode, Validator};
use nrslb_obs::Registry;
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_x509::testutil::simple_chain;
use nrslb_x509::Certificate;
use serde::Serialize;
use std::sync::Arc;

const CLIENT_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const WORKERS: usize = 8;
const GCCS_PER_ROOT: usize = 12;
const WARM_PASSES: usize = 6;
const TRIALS: usize = 3;
const BATCH_SIZE: usize = 32;

#[derive(Serialize)]
struct ScalingRow {
    clients: usize,
    cold_rps: f64,
    warm_rps: f64,
}

#[derive(Serialize)]
struct Report {
    cpus: usize,
    workers: usize,
    chains: usize,
    gccs_per_root: usize,
    scaling: Vec<ScalingRow>,
    batch_size: usize,
    single_request_rps: f64,
    batch_rps: f64,
    batch_vs_single: f64,
    sig_memo_cold_ms: f64,
    sig_memo_warm_ms: f64,
    sig_memo_speedup: f64,
}

/// A root store holding every chain's root, each with `GCCS_PER_ROOT`
/// distinct GCCs attached — so one warm request is one DER decode plus
/// `GCCS_PER_ROOT` verdict-cache lookups, the contended part of the
/// fast path.
fn build_workload(n_chains: usize) -> (RootStore, Vec<Vec<Certificate>>, i64) {
    let mut store = RootStore::new("e16");
    let mut chains = Vec::with_capacity(n_chains);
    let mut now = 0i64;
    for c in 0..n_chains {
        let pki = simple_chain(&format!("e16-{c}.example"));
        now = pki.now;
        store.add_trusted(pki.root.clone()).unwrap();
        for g in 0..GCCS_PER_ROOT {
            let src = format!(
                r#"cutoff{g}(4000000000).
valid(Chain, _) :- leaf(Chain, C), notBefore(C, NB), cutoff{g}(T), NB < T."#
            );
            let gcc = Gcc::parse(
                &format!("e16-gcc-{g}"),
                pki.root.fingerprint(),
                &src,
                GccMetadata::default(),
            )
            .unwrap();
            store.attach_gcc(gcc).unwrap();
        }
        chains.push(vec![pki.leaf, pki.intermediate, pki.root]);
    }
    (store, chains, now)
}

/// Drive `clients` keep-alive connections through `passes` full sweeps
/// of the chain set; returns requests/sec.
fn drive(daemon: &TrustDaemon, chains: &[Vec<Certificate>], clients: usize, passes: usize) -> f64 {
    let total = (clients * passes * chains.len()) as f64;
    let t = Timer::start();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let conn = daemon.keep_alive_client();
            scope.spawn(move || {
                for p in 0..passes {
                    // Stagger start offsets so clients collide on
                    // different keys, not in lockstep.
                    for i in 0..chains.len() {
                        let chain = &chains[(c * 7 + p + i) % chains.len()];
                        let verdicts = conn.evaluate(chain, Usage::Tls).unwrap();
                        assert_eq!(verdicts.len(), GCCS_PER_ROOT);
                    }
                }
            });
        }
    });
    total / t.secs()
}

/// One cold pass (chains partitioned across clients, every request a
/// full Datalog evaluation); returns requests/sec.
fn drive_cold(daemon: &TrustDaemon, chains: &[Vec<Certificate>], clients: usize) -> f64 {
    let t = Timer::start();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let conn = daemon.keep_alive_client();
            scope.spawn(move || {
                for chain in chains.iter().skip(c).step_by(clients) {
                    let verdicts = conn.evaluate(chain, Usage::Tls).unwrap();
                    assert_eq!(verdicts.len(), GCCS_PER_ROOT);
                }
            });
        }
    });
    chains.len() as f64 / t.secs()
}

fn spawn(store: &RootStore, tag: &str) -> TrustDaemon {
    TrustDaemon::builder()
        .socket(ephemeral_socket_path(tag))
        .workers(WORKERS)
        .registry(Arc::new(Registry::new()))
        .spawn(store.clone())
        .unwrap()
}

fn main() {
    header(
        "E16",
        "daemon throughput: scaling, pipelining, sig memo",
        "§3.1 platform execution (deployability under concurrency)",
    );
    let assert_mode = std::env::var("NRSLB_E16_ASSERT").is_ok_and(|v| v == "1");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_chains = scale(32);
    let (store, chains, now) = build_workload(n_chains);
    println!(
        "workload: {n_chains} chains x {GCCS_PER_ROOT} GCCs, {WORKERS} workers, {cpus} CPUs, \
         best of {TRIALS} trials"
    );

    // --- Scaling ---
    let mut scaling = Vec::new();
    println!("\n{:>8} {:>12} {:>12}", "clients", "cold r/s", "warm r/s");
    for clients in CLIENT_COUNTS {
        // Cold: fresh daemon, every request misses. One pass is all the
        // cold data there is, so best-of-trials over fresh daemons.
        let mut cold_rps = 0f64;
        for t in 0..TRIALS {
            let daemon = spawn(&store, &format!("e16c{clients}-{t}"));
            cold_rps = cold_rps.max(drive_cold(&daemon, &chains, clients));
        }
        let mut warm_rps = 0f64;
        let daemon = spawn(&store, &format!("e16w{clients}"));
        drive(&daemon, &chains, clients, 1); // fill the caches
        for _ in 0..TRIALS {
            warm_rps = warm_rps.max(drive(&daemon, &chains, clients, WARM_PASSES));
        }
        println!("{clients:>8} {cold_rps:>12.0} {warm_rps:>12.0}");
        scaling.push(ScalingRow {
            clients,
            cold_rps,
            warm_rps,
        });
    }

    // --- Pipelining: batch vs single requests, one client, warm ---
    let daemon = spawn(&store, "e16b");
    drive(&daemon, &chains, 1, 1);
    let conn = daemon.keep_alive_client();
    let mut single_request_rps = 0f64;
    let mut batch_rps = 0f64;
    for _ in 0..TRIALS {
        let t = Timer::start();
        for _ in 0..WARM_PASSES {
            for chain in &chains {
                conn.evaluate(chain, Usage::Tls).unwrap();
            }
        }
        single_request_rps = single_request_rps.max((WARM_PASSES * n_chains) as f64 / t.secs());
        let t = Timer::start();
        for _ in 0..WARM_PASSES {
            for group in chains.chunks(BATCH_SIZE) {
                let items: Vec<(&[Certificate], Usage)> =
                    group.iter().map(|c| (c.as_slice(), Usage::Tls)).collect();
                let batches = conn.evaluate_batch(&items).unwrap();
                assert_eq!(batches.len(), group.len());
            }
        }
        batch_rps = batch_rps.max((WARM_PASSES * n_chains) as f64 / t.secs());
    }
    let batch_vs_single = batch_rps / single_request_rps;
    println!(
        "\npipelining: {single_request_rps:.0} chains/s single, {batch_rps:.0} chains/s batched \
         (x{BATCH_SIZE}) — {batch_vs_single:.2}x"
    );

    // --- Signature memo: repeated-chain validation, cold vs warm ---
    // Pre-warm the per-certificate fingerprint caches with a throwaway
    // validator so the arms isolate the HBS-verification memo alone.
    let throwaway = Validator::new(store.clone(), ValidationMode::UserAgent);
    let validate_all = |v: &Validator| {
        for chain in &chains {
            let out = v
                .validate(&chain[0], &chain[1..2], Usage::Tls, now)
                .unwrap();
            assert!(out.accepted());
        }
    };
    validate_all(&throwaway);
    let mut cold_ms = f64::INFINITY;
    let mut warm_ms = f64::INFINITY;
    for _ in 0..TRIALS {
        let v = Validator::new(store.clone(), ValidationMode::UserAgent);
        let t = Timer::start();
        validate_all(&v); // first sight of every (cert, issuer) edge
        cold_ms = cold_ms.min(t.millis());
        let t = Timer::start();
        validate_all(&v); // pure memo hits
        warm_ms = warm_ms.min(t.millis());
    }
    let sig_memo_speedup = cold_ms / warm_ms;
    println!(
        "sig memo: cold {cold_ms:.2} ms, warm {warm_ms:.2} ms — {sig_memo_speedup:.2}x \
         (target >= 2x)"
    );

    // --- Acceptance gates ---
    let memo_ok = sig_memo_speedup >= 2.0;
    let batch_ok = batch_vs_single >= 1.0;
    println!("gates: memo {sig_memo_speedup:.2}x (floor 2), batch {batch_vs_single:.2}x (floor 1)");
    if assert_mode {
        assert!(
            memo_ok,
            "sig memo warm/cold speedup below 2x: {sig_memo_speedup:.2}"
        );
        assert!(
            batch_ok,
            "batched requests slower than single: {batch_vs_single:.2}"
        );
        println!("E16 asserts: OK");
    }

    let report = Report {
        cpus,
        workers: WORKERS,
        chains: n_chains,
        gccs_per_root: GCCS_PER_ROOT,
        scaling,
        batch_size: BATCH_SIZE,
        single_request_rps,
        batch_rps,
        batch_vs_single,
        sig_memo_cold_ms: cold_ms,
        sig_memo_warm_ms: warm_ms,
        sig_memo_speedup,
    };
    let path = std::env::var("NRSLB_JSON").unwrap_or_else(|_| "BENCH_e16.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).unwrap_or_else(|e| eprintln!("write {path}: {e}"));
    eprintln!("json report written to {path}");
}
