//! E14 — differential validation oracle over the deterministic
//! ecosystem simulation (DESIGN.md "Deterministic simulation +
//! differential harness").
//!
//! Steps a seeded miniature ecosystem (primary + heterogeneous
//! subscribers behind lossy channels) while cross-checking every drawn
//! `(chain, GCC, usage)` sample along independent paths: interned vs
//! string-reference Datalog, cached vs cold sessions, primary vs
//! replica stores.
//! Exits non-zero on any oracle disagreement, printing the failing
//! seed. Seed override: `NRSLB_SIM_SEED` (decimal or `0x…`).

use nrslb_bench::{header, maybe_write_json, scale, Timer};
use nrslb_sim::{run_differential, seed_from_env, DifferentialConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    seed: u64,
    events: u64,
    samples: u64,
    gcc_checks: u64,
    cache_checks: u64,
    store_checks: u64,
    delta_checks: u64,
    excused_divergences: u64,
    disagreements: u64,
    secs: f64,
}

fn main() {
    header(
        "E14",
        "differential oracle: every validation path must agree",
        "DESIGN.md (deterministic simulation harness)",
    );
    let config = DifferentialConfig {
        seed: seed_from_env(0xd1ff),
        min_gcc_checks: 1_000,
        min_delta_checks: 1_000,
        max_events: scale(260) as u64,
        // Ecosystem events (publishes, polls) pay for hash-based
        // signatures; dense sampling reaches the check floor with fewer
        // of them, keeping the CI smoke fast.
        samples_per_event: 6,
        ..DifferentialConfig::default()
    };
    println!("seed: {} (override with NRSLB_SIM_SEED)", config.seed);
    let timer = Timer::start();
    let outcome = run_differential(&config);
    let secs = timer.secs();
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>13}",
        "events",
        "samples",
        "gcc checks",
        "cache checks",
        "store checks",
        "delta checks",
        "excused",
        "disagreements"
    );
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>12} {:>12} {:>9} {:>13}",
        outcome.events,
        outcome.samples,
        outcome.gcc_checks,
        outcome.cache_checks,
        outcome.store_checks,
        outcome.delta_checks,
        outcome.excused_divergences,
        outcome.disagreements.len(),
    );
    println!(
        "\n{} cross-path checks in {:.2}s; replica divergence only where the",
        outcome.gcc_checks + outcome.cache_checks + outcome.store_checks + outcome.delta_checks,
        secs
    );
    println!("engine itself announced staleness or quarantine.");
    maybe_write_json(&Report {
        seed: outcome.seed,
        events: outcome.events,
        samples: outcome.samples,
        gcc_checks: outcome.gcc_checks,
        cache_checks: outcome.cache_checks,
        store_checks: outcome.store_checks,
        delta_checks: outcome.delta_checks,
        excused_divergences: outcome.excused_divergences,
        disagreements: outcome.disagreements.len() as u64,
        secs,
    });
    assert!(
        outcome.gcc_checks >= config.min_gcc_checks,
        "smoke run must reach {} gcc checks, got {}",
        config.min_gcc_checks,
        outcome.gcc_checks
    );
    assert!(
        outcome.delta_checks >= config.min_delta_checks,
        "smoke run must reach {} incremental maintenance checks, got {}",
        config.min_delta_checks,
        outcome.delta_checks
    );
    // Panics with the replayable NRSLB_SIM_SEED line on disagreement.
    outcome.assert_agreement();
}
