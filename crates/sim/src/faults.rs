//! The **sync-resilience** experiment (E13): does an RSF subscriber
//! behind a lossy channel still converge to the publisher's exact
//! store?
//!
//! A primary store evolves (one distrust incident per change); every
//! round the publisher signs a delta and the subscriber runs
//! [`Subscriber::sync_resilient`] through a [`FaultInjector`] that
//! drops, delays, duplicates, truncates and bit-flips frames at a
//! configurable rate. The outcome reports convergence (byte-identical
//! snapshots of truth vs replica), the retry effort the policy spent,
//! and the engine's own [`SyncCounters`] — the experimental backing for
//! DESIGN.md §4's claim that the sync state machine degrades gracefully
//! instead of wedging.

use nrslb_crypto::sha256::sha256;
use nrslb_rootstore::RootStore;
use nrslb_rsf::{
    FaultInjector, FaultPlan, FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig,
    Snapshot, Subscriber, SyncCounters, SyncPolicy,
};

/// Configuration for one resilience run.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Per-frame probability of each fault mode (drop, delay,
    /// duplicate, truncate, bit-flip applied independently).
    pub fault_rate: f64,
    /// Publish/sync rounds to simulate.
    pub rounds: usize,
    /// Store changes (distrust incidents) per round.
    pub changes_per_round: usize,
    /// Retry budget per round.
    pub max_attempts: u32,
    /// Seed for the fault injector and backoff jitter.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            fault_rate: 0.3,
            rounds: 20,
            changes_per_round: 2,
            max_attempts: 8,
            seed: 0xe13,
        }
    }
}

/// What one resilience run produced.
#[derive(Clone, Copy, Debug)]
pub struct FaultOutcome {
    /// The configured per-mode fault probability.
    pub fault_rate: f64,
    /// The seed the run used (jitter; the injector derives from it) —
    /// recorded so a benchmark report is replayable.
    pub seed: u64,
    /// The fault injector's exact plan seed, as reported by the
    /// injector itself.
    pub plan_seed: u64,
    /// Rounds simulated.
    pub rounds: usize,
    /// Rounds where the subscriber reached the publisher's sequence
    /// within the retry budget.
    pub converged_rounds: usize,
    /// Whether the final replica is byte-identical to the truth store
    /// (canonical snapshot encodings compared).
    pub converged: bool,
    /// Sync attempts spent across all rounds.
    pub attempts: u32,
    /// Total backoff the policy scheduled, in milliseconds.
    pub backoff_ms_total: u64,
    /// The subscriber's own counters at the end of the run.
    pub counters: SyncCounters,
}

/// Canonical bytes of a store (sequence/name/timestamp pinned so only
/// the *content* differs).
fn canonical(store: &RootStore) -> Vec<u8> {
    Snapshot::capture("compare", 0, 0, store).encode()
}

/// Run the resilience experiment: evolve a primary store for
/// `config.rounds` rounds and sync a subscriber through a channel with
/// `config.fault_rate` faults after each round.
pub fn run_fault_simulation(config: &FaultConfig) -> FaultOutcome {
    // Each 2-of-3 signer signs the endorsement and one witness per
    // checkpoint: at most the bootstrap one plus one per round.
    let signer_height = (config.rounds as u64 + 2)
        .next_power_of_two()
        .trailing_zeros() as u8;
    let authority =
        QuorumAuthority::from_seed([0xa1; 32], QuorumConfig { k: 2, n: 3 }, signer_height)
            .expect("quorum authority");
    let key = FeedKey::new_quorum([0xa2; 32], 12, &authority).expect("feed key");
    let trust = FeedTrust::quorum(authority.trust());
    let mut truth = RootStore::new("primary");
    let mut publisher =
        FeedPublisher::new_quorum("primary", key, authority, &truth, 0).expect("publisher");
    let mut subscriber = Subscriber::builder("derivative", trust)
        .policy(SyncPolicy {
            max_attempts: config.max_attempts,
            base_backoff_ms: 1,
            max_backoff_ms: 64,
            jitter_seed: config.seed,
            ..SyncPolicy::default()
        })
        .build();
    let mut injector = FaultInjector::new(FaultPlan::lossy(config.fault_rate, config.seed ^ 0x5a));

    let mut converged_rounds = 0usize;
    let mut attempts = 0u32;
    let mut backoff_ms_total = 0u64;
    for round in 0..config.rounds {
        let t = round as i64 * 3_600;
        for change in 0..config.changes_per_round {
            let incident = sha256(format!("incident-{round}-{change}").as_bytes());
            truth.distrust(incident, format!("simulated incident r{round}c{change}"));
        }
        publisher.publish(&truth, t).expect("publish");
        if let Ok(report) = subscriber.sync_resilient(&mut publisher, &mut injector, t) {
            converged_rounds += 1;
            attempts += report.attempts;
            backoff_ms_total += report.backoff_ms_total;
        } else {
            attempts += config.max_attempts;
        }
    }
    // The publisher has stopped evolving, but a subscriber keeps its
    // polling schedule — rounds whose retry budget ran out are repaired
    // by later polls. Bound the tail so a pathological fault rate (1.0)
    // still terminates.
    let mut extra = 0usize;
    while subscriber.sequence() != publisher.sequence() && extra < config.rounds {
        extra += 1;
        let t = (config.rounds + extra) as i64 * 3_600;
        if let Ok(report) = subscriber.sync_resilient(&mut publisher, &mut injector, t) {
            attempts += report.attempts;
            backoff_ms_total += report.backoff_ms_total;
        } else {
            attempts += config.max_attempts;
        }
    }
    FaultOutcome {
        fault_rate: config.fault_rate,
        seed: config.seed,
        plan_seed: injector.plan().seed,
        rounds: config.rounds,
        converged_rounds,
        converged: canonical(&truth) == canonical(subscriber.store()),
        attempts,
        backoff_ms_total,
        counters: subscriber.counters(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_channel_converges_every_round() {
        let out = run_fault_simulation(&FaultConfig {
            fault_rate: 0.0,
            rounds: 5,
            ..Default::default()
        });
        assert!(out.converged);
        assert_eq!(out.converged_rounds, 5);
        assert_eq!(out.counters.retries, 0);
        assert_eq!(out.counters.quarantines, 0);
    }

    #[test]
    fn lossy_channel_converges_with_retries() {
        let out = run_fault_simulation(&FaultConfig::default());
        assert!(out.converged, "30% faults must not prevent convergence");
        assert!(
            out.counters.retries > 0,
            "a 30% fault rate should force at least one retry: {:?}",
            out.counters
        );
        assert!(out.counters.messages_rejected > 0, "{:?}", out.counters);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_fault_simulation(&FaultConfig::default());
        let b = run_fault_simulation(&FaultConfig::default());
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(a.backoff_ms_total, b.backoff_ms_total);
    }
}
