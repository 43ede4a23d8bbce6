//! E17 — allocation budget and throughput of the interned verdict path.
//!
//! The interned-symbol Datalog core exists to make the warm verdict
//! path allocation-free: facts, joins, and derived tuples are `u32`
//! symbol ids in reusable scratch arenas, so a warm cache-miss
//! evaluation should touch the heap zero times. This binary *observes
//! the allocator* (a counting [`std::alloc::GlobalAlloc`] wrapper, see
//! [`nrslb_bench::alloc`]) rather than inferring from timings:
//!
//! 1. **Allocation budget**: bytes and allocations per verdict, cold
//!    (fresh session: fact conversion + first evaluation) vs warm (held
//!    session re-evaluating through its scratch arena) vs the
//!    string-path reference evaluator (the pre-interning ablation).
//! 2. **Interned vs string throughput**: single-threaded verdicts/sec
//!    through the compiled interned engine vs the string reference.
//! 3. **Serving fast path**: bytes per verdict for verdict-cache hits
//!    through [`evaluate_gccs_lazy_into`] with a reused buffer.
//! 4. **Daemon throughput**: warm req/s at 1/2/4/8 keep-alive clients —
//!    the e16 workload rerun on the interned core (parsed-cert cache,
//!    interned facts, shared `Arc<str>` GCC names), compared against
//!    the committed `BENCH_e16.json` baseline when present.
//!
//! `NRSLB_E17_ASSERT=1` turns the warm-path allocation bound into a
//! hard failure (the CI smoke). The JSON report lands in `NRSLB_JSON`,
//! or `BENCH_e17.json` when unset.

use nrslb_bench::alloc::CountingAlloc;
use nrslb_bench::{header, scale, Timer};
use nrslb_core::daemon::{ephemeral_socket_path, TrustDaemon};
use nrslb_core::session::evaluate_gccs_lazy_into;
use nrslb_core::{Usage, ValidationSession, VerdictCache};
use nrslb_obs::Registry;
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_x509::testutil::simple_chain;
use nrslb_x509::Certificate;
use serde::Serialize;
use std::sync::Arc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Same workload shape as E16 so the daemon numbers are comparable:
/// every chain root carries `GCCS_PER_ROOT` distinct GCCs.
const GCCS_PER_ROOT: usize = 12;
const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WORKERS: usize = 8;
const WARM_PASSES: usize = 6;
const TRIALS: usize = 3;
/// Hard ceiling for the CI smoke: the warm cache-miss path must stay
/// under this many bytes of gross allocation per verdict (the design
/// target is zero; the bound leaves room for incidental one-off growth
/// such as a hash table crossing a resize threshold mid-measurement).
const WARM_BYTES_PER_VERDICT_BOUND: f64 = 16.0;

#[derive(Serialize)]
struct AllocRow {
    path: &'static str,
    bytes_per_verdict: f64,
    allocs_per_verdict: f64,
}

#[derive(Serialize)]
struct DaemonRow {
    clients: usize,
    warm_rps: f64,
}

#[derive(Serialize)]
struct Report {
    cpus: usize,
    chains: usize,
    gccs_per_root: usize,
    verdicts_per_pass: usize,
    alloc: Vec<AllocRow>,
    interned_rps: f64,
    string_rps: f64,
    interned_vs_string: f64,
    daemon: Vec<DaemonRow>,
    daemon_warm_rps_at_8: f64,
    e16_baseline_warm_rps_at_8: Option<f64>,
    vs_e16_baseline: Option<f64>,
    warm_bytes_bound: f64,
}

fn build_workload(n_chains: usize) -> (RootStore, Vec<Vec<Certificate>>, Vec<Vec<Gcc>>) {
    let mut store = RootStore::new("e17");
    let mut chains = Vec::with_capacity(n_chains);
    let mut gcc_sets = Vec::with_capacity(n_chains);
    for c in 0..n_chains {
        let pki = simple_chain(&format!("e17-{c}.example"));
        store.add_trusted(pki.root.clone()).unwrap();
        let mut gccs = Vec::with_capacity(GCCS_PER_ROOT);
        for g in 0..GCCS_PER_ROOT {
            let src = format!(
                r#"cutoff{g}(4000000000).
valid(Chain, _) :- leaf(Chain, C), notBefore(C, NB), cutoff{g}(T), NB < T."#
            );
            let gcc = Gcc::parse(
                &format!("e17-gcc-{g}"),
                pki.root.fingerprint(),
                &src,
                GccMetadata::default(),
            )
            .unwrap();
            store.attach_gcc(gcc.clone()).unwrap();
            gccs.push(gcc);
        }
        chains.push(vec![pki.leaf, pki.intermediate, pki.root]);
        gcc_sets.push(gccs);
    }
    (store, chains, gcc_sets)
}

/// Evaluate every GCC of every chain once through held sessions;
/// returns the verdict count (all must accept).
fn sweep(sessions: &[ValidationSession], gcc_sets: &[Vec<Gcc>]) -> usize {
    let mut verdicts = 0;
    for (session, gccs) in sessions.iter().zip(gcc_sets) {
        for gcc in gccs {
            assert!(session.evaluate_gcc(gcc, Usage::Tls).unwrap());
            verdicts += 1;
        }
    }
    verdicts
}

/// The same sweep through the string-path reference evaluator.
fn sweep_string(sessions: &[ValidationSession], gcc_sets: &[Vec<Gcc>]) -> usize {
    let mut verdicts = 0;
    for (session, gccs) in sessions.iter().zip(gcc_sets) {
        for gcc in gccs {
            assert!(session.evaluate_gcc_string(gcc, Usage::Tls).unwrap());
            verdicts += 1;
        }
    }
    verdicts
}

/// Keep-alive clients sweeping the chain set `passes` times; req/s.
fn drive(daemon: &TrustDaemon, chains: &[Vec<Certificate>], clients: usize, passes: usize) -> f64 {
    let total = (clients * passes * chains.len()) as f64;
    let t = Timer::start();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let conn = daemon.keep_alive_client();
            scope.spawn(move || {
                for p in 0..passes {
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

/// Pull `scaling[clients == 8].warm_rps` out of the committed E16
/// artifact. The vendored `serde_json` shim is serialization-only, so
/// this leans on the artifact's stable pretty-printed field order
/// (`clients` precedes `warm_rps` within each scaling row).
fn e16_baseline_at_8() -> Option<f64> {
    let text = std::fs::read_to_string("BENCH_e16.json").ok()?;
    let mut in_row_8 = false;
    for line in text.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"clients\":") {
            in_row_8 = rest.trim().trim_end_matches(',') == "8";
        } else if in_row_8 {
            if let Some(rest) = line.strip_prefix("\"warm_rps\":") {
                return rest.trim().trim_end_matches(',').parse().ok();
            }
        }
    }
    None
}

fn main() {
    header(
        "E17",
        "allocation budget + interned-core throughput",
        "§3.1 platform execution (zero-allocation warm verdict path)",
    );
    let assert_mode = std::env::var("NRSLB_E17_ASSERT").is_ok_and(|v| v == "1");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_chains = scale(32);
    let (store, chains, gcc_sets) = build_workload(n_chains);
    let verdicts_per_pass = n_chains * GCCS_PER_ROOT;
    println!(
        "workload: {n_chains} chains x {GCCS_PER_ROOT} GCCs, {cpus} CPUs, best of {TRIALS} trials"
    );

    // --- 1. Allocation budget (single thread; nothing else running) ---
    // Cold: fresh sessions, first evaluation — fact conversion, scratch
    // growth, symbol interning all land here.
    let before = ALLOC.snapshot();
    let sessions: Vec<ValidationSession> =
        chains.iter().map(|c| ValidationSession::new(c)).collect();
    let cold_verdicts = sweep(&sessions, &gcc_sets);
    let cold = ALLOC.snapshot().since(before);

    // Warm: the same sessions re-evaluating through their scratch
    // arenas. One extra warmup pass first so every arena has reached
    // steady-state capacity.
    sweep(&sessions, &gcc_sets);
    let before = ALLOC.snapshot();
    let t = Timer::start();
    let mut warm_verdicts = 0;
    for _ in 0..WARM_PASSES {
        warm_verdicts += sweep(&sessions, &gcc_sets);
    }
    let interned_secs = t.secs();
    let warm = ALLOC.snapshot().since(before);

    // String ablation: the pre-interning evaluator on the same
    // sessions (naive strings, no scratch reuse). One pass is plenty.
    let before = ALLOC.snapshot();
    let t = Timer::start();
    let string_verdicts = sweep_string(&sessions, &gcc_sets);
    let string_secs = t.secs();
    let string_alloc = ALLOC.snapshot().since(before);

    // Serving fast path: verdict-cache hits into a reused buffer.
    let cache = VerdictCache::new(4096);
    let mut buf = Vec::new();
    for (chain, gccs) in chains.iter().zip(&gcc_sets) {
        evaluate_gccs_lazy_into(chain, gccs, Usage::Tls, &cache, None, &mut buf).unwrap();
    }
    let before = ALLOC.snapshot();
    let mut hit_verdicts = 0;
    for _ in 0..WARM_PASSES {
        for (chain, gccs) in chains.iter().zip(&gcc_sets) {
            evaluate_gccs_lazy_into(chain, gccs, Usage::Tls, &cache, None, &mut buf).unwrap();
            hit_verdicts += buf.len();
        }
    }
    let hits = ALLOC.snapshot().since(before);

    let per = |snap: nrslb_bench::alloc::AllocSnapshot, n: usize| AllocRow {
        path: "",
        bytes_per_verdict: snap.bytes as f64 / n as f64,
        allocs_per_verdict: snap.allocations as f64 / n as f64,
    };
    let mut alloc_rows = vec![
        AllocRow {
            path: "cold (session build + first eval)",
            ..per(cold, cold_verdicts)
        },
        AllocRow {
            path: "warm (scratch-arena re-eval)",
            ..per(warm, warm_verdicts)
        },
        AllocRow {
            path: "warm cache-hit (lazy, reused buffer)",
            ..per(hits, hit_verdicts)
        },
        AllocRow {
            path: "string reference (ablation)",
            ..per(string_alloc, string_verdicts)
        },
    ];
    println!(
        "\n{:>40} {:>16} {:>16}",
        "path", "bytes/verdict", "allocs/verdict"
    );
    for row in &alloc_rows {
        println!(
            "{:>40} {:>16.1} {:>16.3}",
            row.path, row.bytes_per_verdict, row.allocs_per_verdict
        );
    }

    // --- 2. Interned vs string throughput (single thread) ---
    let interned_rps = warm_verdicts as f64 / interned_secs;
    let string_rps = string_verdicts as f64 / string_secs;
    let interned_vs_string = interned_rps / string_rps;
    println!(
        "\nthroughput: interned {interned_rps:.0} verdicts/s, string {string_rps:.0} verdicts/s \
         — {interned_vs_string:.1}x"
    );

    // --- 3. Daemon warm throughput on the interned core ---
    let mut daemon_rows = Vec::new();
    println!("\n{:>8} {:>12}", "clients", "warm r/s");
    for clients in CLIENT_COUNTS {
        // Same daemon configuration as E16's, so the rows compare.
        let daemon = TrustDaemon::builder()
            .socket(ephemeral_socket_path(&format!("e17d{clients}")))
            .workers(WORKERS)
            .registry(Arc::new(Registry::new()))
            .spawn(store.clone())
            .unwrap();
        drive(&daemon, &chains, clients, 1); // fill the caches
        let mut warm_rps = 0f64;
        for _ in 0..TRIALS {
            warm_rps = warm_rps.max(drive(&daemon, &chains, clients, WARM_PASSES));
        }
        println!("{clients:>8} {warm_rps:>12.0}");
        daemon_rows.push(DaemonRow { clients, warm_rps });
    }
    let at8 = daemon_rows
        .iter()
        .find(|r| r.clients == 8)
        .expect("8-client row")
        .warm_rps;
    let baseline = e16_baseline_at_8();
    let vs_baseline = baseline.map(|b| at8 / b);
    match (baseline, vs_baseline) {
        (Some(b), Some(r)) => {
            println!("\ndaemon at 8 clients: {at8:.0} r/s vs e16 baseline {b:.0} r/s — {r:.2}x")
        }
        _ => println!("\ndaemon at 8 clients: {at8:.0} r/s (no BENCH_e16.json baseline found)"),
    }

    // --- Acceptance gate: the warm path is allocation-free ---
    let warm_bytes = alloc_rows[1].bytes_per_verdict;
    println!(
        "gate: warm bytes/verdict {warm_bytes:.2} (bound {WARM_BYTES_PER_VERDICT_BOUND}), \
         cold {:.0}, string {:.0}",
        alloc_rows[0].bytes_per_verdict, alloc_rows[3].bytes_per_verdict
    );
    if assert_mode {
        assert!(
            warm_bytes <= WARM_BYTES_PER_VERDICT_BOUND,
            "warm verdict path allocates: {warm_bytes:.2} bytes/verdict \
             (bound {WARM_BYTES_PER_VERDICT_BOUND})"
        );
        println!("E17 asserts: OK");
    }

    // Short stable labels for the JSON artifact.
    alloc_rows[0].path = "cold";
    alloc_rows[1].path = "warm";
    alloc_rows[2].path = "warm-cache-hit";
    alloc_rows[3].path = "string-reference";
    let report = Report {
        cpus,
        chains: n_chains,
        gccs_per_root: GCCS_PER_ROOT,
        verdicts_per_pass,
        alloc: alloc_rows,
        interned_rps,
        string_rps,
        interned_vs_string,
        daemon: daemon_rows,
        daemon_warm_rps_at_8: at8,
        e16_baseline_warm_rps_at_8: baseline,
        vs_e16_baseline: vs_baseline,
        warm_bytes_bound: WARM_BYTES_PER_VERDICT_BOUND,
    };
    let path = std::env::var("NRSLB_JSON").unwrap_or_else(|_| "BENCH_e17.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).unwrap_or_else(|e| eprintln!("write {path}: {e}"));
    eprintln!("json report written to {path}");
}
