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
//!
//! Daemon throughput on the same workload shape is E16's to measure.
//!
//! `NRSLB_E17_ASSERT=1` turns the warm-path allocation bound into a
//! hard failure (the CI smoke). The JSON report lands in `NRSLB_JSON`,
//! or `BENCH_e17.json` when unset.

use nrslb_bench::alloc::CountingAlloc;
use nrslb_bench::{header, scale, Timer};
use nrslb_core::session::evaluate_gccs_lazy_into;
use nrslb_core::{Usage, ValidationSession, VerdictCache};
use nrslb_rootstore::{Gcc, GccMetadata};
use nrslb_x509::testutil::simple_chain;
use nrslb_x509::Certificate;
use serde::Serialize;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Same workload shape as E16: every chain root carries
/// `GCCS_PER_ROOT` distinct GCCs.
const GCCS_PER_ROOT: usize = 12;
const WARM_PASSES: usize = 6;
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
struct Report {
    cpus: usize,
    chains: usize,
    gccs_per_root: usize,
    verdicts_per_pass: usize,
    alloc: Vec<AllocRow>,
    interned_rps: f64,
    string_rps: f64,
    interned_vs_string: f64,
    warm_bytes_bound: f64,
}

fn build_workload(n_chains: usize) -> (Vec<Vec<Certificate>>, Vec<Vec<Gcc>>) {
    let mut chains = Vec::with_capacity(n_chains);
    let mut gcc_sets = Vec::with_capacity(n_chains);
    for c in 0..n_chains {
        let pki = simple_chain(&format!("e17-{c}.example"));
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
            gccs.push(gcc);
        }
        chains.push(vec![pki.leaf, pki.intermediate, pki.root]);
        gcc_sets.push(gccs);
    }
    (chains, gcc_sets)
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

fn main() {
    header(
        "E17",
        "allocation budget + interned-core throughput",
        "§3.1 platform execution (zero-allocation warm verdict path)",
    );
    let assert_mode = std::env::var("NRSLB_E17_ASSERT").is_ok_and(|v| v == "1");
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let n_chains = scale(32);
    let (chains, gcc_sets) = build_workload(n_chains);
    let verdicts_per_pass = n_chains * GCCS_PER_ROOT;
    println!("workload: {n_chains} chains x {GCCS_PER_ROOT} GCCs, {cpus} CPUs");

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
        warm_bytes_bound: WARM_BYTES_PER_VERDICT_BOUND,
    };
    let path = std::env::var("NRSLB_JSON").unwrap_or_else(|_| "BENCH_e17.json".to_string());
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json).unwrap_or_else(|e| eprintln!("write {path}: {e}"));
    eprintln!("json report written to {path}");
}
