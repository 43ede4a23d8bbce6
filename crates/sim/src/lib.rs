//! # `nrslb-sim` — ecosystem simulation: lag windows and distrust fidelity
//!
//! Two simulations quantify the paper's motivating problems:
//!
//! * [`lag`] — the **staleness** experiment (E5, paper §4): a primary
//!   store evolves over a simulated year (a root distrust with a GCC, a
//!   root addition); derivative stores track it either by *manual
//!   mirroring with lag* (parameterised with the Ma et al. staleness
//!   figures the paper quotes) or by *RSF polling*. The simulation
//!   measures each derivative's **vulnerability window** (days its
//!   clients still accept the distrusted root's post-incident chains) and
//!   **incompatibility window** (days its clients reject the newly added
//!   root's chains).
//! * [`exposure`] — population-weighted **ecosystem exposure**: how many
//!   clients remain attackable N days after an incident, under today's
//!   mix vs the all-RSF counterfactual (E11).
//! * [`faults`] — the **sync-resilience** experiment (E13): a subscriber
//!   syncing through a channel that drops, delays, duplicates, truncates
//!   and bit-flips frames must still converge byte-identically to the
//!   publisher's store, with the retry effort reported.
//! * [`fidelity`] — the **partial-distrust fidelity** experiment (E4,
//!   paper §2.3): over a sized Symantec population, compare the three
//!   derivative strategies (keep / remove / GCC) and report mis-accepted
//!   and wrongly-rejected fractions — the Debian dilemma, quantified.
//!
//! A second family of modules forms the **deterministic simulation
//! harness** (E14): a seed-reproducible miniature ecosystem whose every
//! validation is cross-checked along independent code paths.
//!
//! * [`schedule`] — the virtual clock ([`SimClock`]) and the seeded
//!   discrete-event [`Scheduler`]; ties break by insertion order so a
//!   run is a pure function of its seed.
//! * [`chaingen`] — a deterministic X.509 chain fuzzer: a small PKI
//!   minted from the seed, plus a catalogue of
//!   [`ChainMutation`]s (expiry, wrong EKU, bit flips, dropped or
//!   foreign intermediates, untrusted anchors).
//! * [`ecosystem`] — one primary publishing RSF snapshots/deltas
//!   through per-subscriber `FaultInjector`s to a fleet of heterogeneous
//!   [`Subscriber`](nrslb_rsf::Subscriber)s, with optional split-view
//!   attack injection.
//! * [`differential`] — the oracle: interned-vs-string Datalog,
//!   cached-vs-cold sessions, primary-vs-replica stores; disagreements
//!   dump seed + trace + DER repros and fail the run.

#![warn(missing_docs)]

pub mod chaingen;
pub mod differential;
pub mod ecosystem;
pub mod exposure;
pub mod faults;
pub mod fidelity;
pub mod lag;
pub mod schedule;

pub use chaingen::{ChainGenConfig, ChainGenerator, ChainMutation, SampleChain};
pub use differential::{
    run_differential, seed_from_env, DifferentialConfig, DifferentialOutcome, Disagreement,
};
pub use ecosystem::{EcoEvent, Ecosystem, EcosystemConfig, MinorityAttack, SubscriberSpec};
pub use exposure::{
    counterfactual_all_rsf, default_population, exposure_curve, mean_window, ExposurePoint,
    PopulationMix,
};
pub use faults::{run_fault_simulation, FaultConfig, FaultOutcome};
pub use fidelity::{run_fidelity, FidelityConfig, FidelityOutcome, StrategyOutcome};
pub use lag::{
    ma_et_al_profiles, run_lag_simulation, DerivativeOutcome, DerivativeProfile, LagConfig,
    LagOutcome, UpdatePolicy,
};
pub use schedule::{Scheduler, SimClock};
