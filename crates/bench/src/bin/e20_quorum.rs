//! E20 — quorum-witnessed feeds (paper §4: the coordinating body as a
//! single point of compromise, replaced by a k-of-n signer set).
//!
//! **Compromised-minority soundness** — the ecosystem simulation runs
//! its 2-of-3 quorum-governed feed through a share rotation and stages
//! at least 200 forged-checkpoint presentations from an attacker
//! holding `k-1` signers; zero may be accepted. On violation the
//! failing `NRSLB_SIM_SEED` is printed for replay.
//!
//! `NRSLB_E20_ASSERT=1` turns the claim into a hard assertion.

use nrslb_bench::{header, maybe_write_json, Timer};
use nrslb_sim::differential::seed_from_env;
use nrslb_sim::ecosystem::{Ecosystem, EcosystemConfig, MinorityAttack, SubscriberSpec};
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    sim_seed: u64,
    forged_attempts: u64,
    forged_accepted: u64,
    secs: f64,
}

fn main() {
    header(
        "E20",
        "quorum-witnessed feeds: compromised-minority soundness",
        "paper §4 (coordinating body as infrastructure); DESIGN.md §5f",
    );
    let assert_mode = std::env::var("NRSLB_E20_ASSERT").is_ok();
    let timer = Timer::start();

    // 100 staged attempts hit a fresh bootstrapping victim AND a pinned
    // fleet member each, i.e. >= 200 forged-checkpoint presentations.
    let sim_seed = seed_from_env(0xe20);
    println!("sim seed: {sim_seed} (override with NRSLB_SIM_SEED)");
    let mut config = EcosystemConfig {
        seed: sim_seed,
        subscribers: vec![
            SubscriberSpec::named("mirror").polling_every(1_800),
            SubscriberSpec::named("laggard").polling_every(14_400),
        ],
        ..EcosystemConfig::default()
    };
    config.minority_attack = Some(MinorityAttack {
        at_secs: config.epoch_secs + 6 * 3_600,
        attempts: 100,
    });
    config.rotate_at_secs = Some(config.epoch_secs + 10 * 3_600);
    let mut eco = Ecosystem::new(&config);
    for _ in 0..600 {
        eco.step();
    }
    println!(
        "minority attack:      {} forged presentations, {} accepted",
        eco.forged_attempts(),
        eco.forged_accepted()
    );
    let secs = timer.secs();

    maybe_write_json(&Report {
        sim_seed,
        forged_attempts: eco.forged_attempts(),
        forged_accepted: eco.forged_accepted(),
        secs,
    });

    if assert_mode {
        assert!(
            eco.minority_attack_done() && eco.forged_attempts() >= 200,
            "minority attack must stage >= 200 presentations, got {} \
             (replay with NRSLB_SIM_SEED={sim_seed})",
            eco.forged_attempts()
        );
        assert!(
            eco.forged_accepted() == 0,
            "a k-1 minority forged an accepted checkpoint ({} of {}); \
             replay with NRSLB_SIM_SEED={sim_seed}; recent trace:\n{}",
            eco.forged_accepted(),
            eco.forged_attempts(),
            eco.recent_trace(10).join("\n")
        );
        println!("assertions passed (NRSLB_E20_ASSERT=1)");
    }
}
