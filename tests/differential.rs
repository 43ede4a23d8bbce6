//! End-to-end acceptance of the deterministic simulation + differential
//! harness: a full-size oracle run agrees across ≥1,000 `(chain, GCC,
//! usage)` samples, runs are pure functions of their seed, and a
//! deliberately injected oracle fault (ignoring quarantine evidence) is
//! caught, not silently absorbed.
//!
//! Replay any run exactly: `NRSLB_SIM_SEED=<seed> cargo test -q
//! differential`.

use nrslb::sim::{run_differential, seed_from_env, DifferentialConfig};

fn ci_config() -> DifferentialConfig {
    DifferentialConfig {
        seed: seed_from_env(0xd1ff),
        min_gcc_checks: 1_000,
        report_dir: None,
        ..DifferentialConfig::default()
    }
}

#[test]
fn oracle_agrees_across_a_thousand_samples() {
    let outcome = run_differential(&ci_config());
    assert!(
        outcome.gcc_checks >= 1_000,
        "need >=1000 interned-vs-string checks, got {}",
        outcome.gcc_checks
    );
    assert!(outcome.cache_checks > 0, "cache path never exercised");
    assert!(outcome.store_checks > 0, "store path never exercised");
    assert!(
        outcome.excused_divergences > 0,
        "the fleet includes laggards and a quarantined victim; some \
         excused divergence must occur or the excuse logic is dead code"
    );
    outcome.assert_agreement();
}

#[test]
fn runs_are_a_pure_function_of_the_seed() {
    let a = run_differential(&ci_config());
    let b = run_differential(&ci_config());
    assert_eq!(a.seed, b.seed);
    assert_eq!(a.events, b.events);
    assert_eq!(a.samples, b.samples);
    assert_eq!(a.gcc_checks, b.gcc_checks);
    assert_eq!(a.store_checks, b.store_checks);
    assert_eq!(a.excused_divergences, b.excused_divergences);
    assert_eq!(a.disagreements.len(), b.disagreements.len());
}

#[test]
#[should_panic(expected = "oracle disagreement")]
fn injected_oracle_fault_is_caught() {
    // The deliberate fault: pretend quarantined/stale replicas are in
    // sync. The split-view victim keeps serving its pre-attack store
    // while the primary evolves; the oracle must flag the divergence.
    let outcome = run_differential(&DifferentialConfig {
        ignore_quarantine: true,
        report_dir: None,
        ..ci_config()
    });
    outcome.assert_agreement();
}
