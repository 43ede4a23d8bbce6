//! The differential validation oracle.
//!
//! Drives an [`Ecosystem`] and, between events, draws
//! generated-and-mutated chains and validates each `(chain, GCC,
//! usage)` sample along every independent path the codebase offers:
//!
//! 1. **Interned vs string Datalog** — the compiled interned engine
//!    against the string-path reference evaluator, which shares no
//!    interning, indexing or scratch machinery with it, per GCC per
//!    usage.
//! 2. **Cached vs cold sessions** — [`ValidationSession`] verdicts via
//!    a shared [`VerdictCache`] (including a guaranteed hit on the
//!    second pass) against cache-free evaluation.
//! 3. **Primary vs every subscriber store** — the full [`Validator`]
//!    outcome against the ground-truth store versus each replica,
//!    divergence excused only when the replica is visibly not in sync
//!    (behind, quarantined, or stale at the virtual instant).
//! 4. **In-process vs platform execution** — on a strided subset of
//!    samples, the same validation with GCC evaluation delegated to a
//!    live trust daemon over IPC (keep-alive client, so warm repeats
//!    of a sampled chain cross-check the reactor's fused inline
//!    cache-hit path too); the two deployment modes must agree
//!    outcome-for-outcome.
//! 5. **Incremental vs scratch Datalog maintenance** — after every
//!    ecosystem event, the truth store's fact-level delta is applied
//!    one fact at a time to persistent incrementally-maintained
//!    databases (one per [`MaintenancePolicy`]) via
//!    `CompiledProgram::apply_delta`, and each resulting state must be
//!    byte-identical in canonical form to a from-scratch evaluation of
//!    the same base.
//!
//! Any disagreement is recorded with a minimized repro — the seed, the
//! recent event trace and the DER chain, serialized to
//! `reports/differential-seed<seed>-sample<i>.json` — and
//! [`DifferentialOutcome::assert_agreement`] panics with a
//! `NRSLB_SIM_SEED=<seed>` line so the exact run replays locally.
//!
//! Setting [`DifferentialConfig::ignore_quarantine`] disables the
//! quarantine/staleness excuse; the negative test uses it to prove the
//! oracle actually catches a replica that silently serves a stale view.

use crate::chaingen::SampleChain;
use crate::ecosystem::{Ecosystem, EcosystemConfig};
use nrslb_core::daemon::{ephemeral_socket_path, DaemonClient, TrustDaemon};
use nrslb_core::{ValidationMode, ValidationSession, Validator, VerdictCache};
use nrslb_datalog::{
    delta_fact, CompiledProgram, Database, IncrementalState, LayeredDatabase, MaintenancePolicy,
    Program, Val,
};
use nrslb_rootstore::{RootStore, Usage};
use nrslb_rsf::{Staleness, SyncState};
use serde::Serialize;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// Oracle run configuration.
#[derive(Clone, Debug)]
pub struct DifferentialConfig {
    /// Master seed (also the ecosystem seed). Override from the
    /// environment with [`seed_from_env`].
    pub seed: u64,
    /// Keep stepping until at least this many `(chain, GCC, usage)`
    /// interned-vs-string checks have run.
    pub min_gcc_checks: u64,
    /// Keep stepping until at least this many incremental-vs-scratch
    /// Datalog maintenance checks have run (each applied fact on each
    /// policy arm is one check).
    pub min_delta_checks: u64,
    /// Ecosystem events to execute (more run if `min_gcc_checks` has
    /// not been reached when they are spent).
    pub max_events: u64,
    /// Chains drawn and cross-checked after each event.
    pub samples_per_event: u32,
    /// GCC templates pre-attached to every pool root before the first
    /// publish, so interned-vs-string checks accumulate from the first
    /// sample instead of waiting for evolution to attach coverage.
    pub initial_gccs_per_root: usize,
    /// Deliberate oracle fault: treat quarantined/stale replicas as if
    /// they were in sync, so their divergence becomes a disagreement.
    pub ignore_quarantine: bool,
    /// Where disagreement repros are dumped; `None` disables dumping.
    pub report_dir: Option<PathBuf>,
}

impl Default for DifferentialConfig {
    fn default() -> DifferentialConfig {
        DifferentialConfig {
            seed: 0xd1ff,
            min_gcc_checks: 1_000,
            min_delta_checks: 1_000,
            max_events: 260,
            samples_per_event: 2,
            initial_gccs_per_root: 2,
            ignore_quarantine: false,
            report_dir: Some(PathBuf::from("reports")),
        }
    }
}

/// Read the run seed from `NRSLB_SIM_SEED` (decimal or `0x…` hex),
/// falling back to `default`.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("NRSLB_SIM_SEED") {
        Ok(raw) => {
            let raw = raw.trim();
            let parsed = if let Some(hex) = raw.strip_prefix("0x") {
                u64::from_str_radix(hex, 16).ok()
            } else {
                raw.parse().ok()
            };
            parsed.unwrap_or(default)
        }
        Err(_) => default,
    }
}

/// One recorded oracle disagreement, with everything needed to replay
/// it: the seed, the sample index (the generator is deterministic, so
/// `(seed, sample_index)` regenerates the exact chain), the DER chain
/// itself, and the recent event trace.
#[derive(Clone, Debug, Serialize)]
pub struct Disagreement {
    /// Which two paths disagreed (e.g. `interned-vs-string`).
    pub kind: String,
    /// Human-oriented detail (verdicts on each side).
    pub detail: String,
    /// The usage under test (`TLS` / `S/MIME`).
    pub usage: String,
    /// The mutation the chain generator applied.
    pub mutation: String,
    /// The presented chain, leaf first, hex-encoded DER per cert.
    pub chain_der_hex: Vec<String>,
    /// GCC name, when a specific GCC was implicated.
    pub gcc_name: Option<String>,
    /// GCC source, when a specific GCC was implicated.
    pub gcc_source: Option<String>,
    /// The run seed (replay with `NRSLB_SIM_SEED=<seed>`).
    pub seed: u64,
    /// Index of the offending sample in draw order.
    pub sample_index: u64,
    /// The last few ecosystem events before the disagreement.
    pub recent_trace: Vec<String>,
}

/// Aggregate result of a differential run.
#[derive(Clone, Debug, Serialize)]
pub struct DifferentialOutcome {
    /// The seed the run used.
    pub seed: u64,
    /// Ecosystem events executed.
    pub events: u64,
    /// Chains drawn and cross-checked.
    pub samples: u64,
    /// Interned-vs-string `(chain, GCC, usage)` checks.
    pub gcc_checks: u64,
    /// Cached-vs-cold session comparisons.
    pub cache_checks: u64,
    /// Primary-vs-replica store comparisons.
    pub store_checks: u64,
    /// In-process-vs-daemon deployment-mode comparisons.
    pub daemon_checks: u64,
    /// Incremental-vs-scratch Datalog maintenance checks (per applied
    /// fact, per policy arm).
    pub delta_checks: u64,
    /// Replica divergences excused by visible staleness/quarantine.
    pub excused_divergences: u64,
    /// Oracle disagreements (must be empty on a healthy build).
    pub disagreements: Vec<Disagreement>,
    /// Repro files written for the disagreements.
    pub report_paths: Vec<String>,
}

impl DifferentialOutcome {
    /// Panic with a replayable message unless every path agreed.
    pub fn assert_agreement(&self) {
        if self.disagreements.is_empty() {
            return;
        }
        let first = &self.disagreements[0];
        panic!(
            "oracle disagreement: {} of {} checks diverged; first: [{}] {} \
             (mutation={}, usage={}); replay with NRSLB_SIM_SEED={} ; repros: {:?}",
            self.disagreements.len(),
            self.gcc_checks
                + self.cache_checks
                + self.store_checks
                + self.daemon_checks
                + self.delta_checks,
            first.kind,
            first.detail,
            first.mutation,
            first.usage,
            self.seed,
            self.report_paths,
        );
    }
}

/// Every how many samples the daemon-backed deployment-mode check runs
/// (each truth-store change forces a daemon respawn, so the arm is
/// strided to bound its cost).
const DAEMON_CHECK_STRIDE: u64 = 8;

/// The fixed program maintained incrementally over truth-store facts:
/// a counting-eligible stratum (`governed`), a negation (`bare`), and a
/// recursive stratum (`reach` over the sorted-fingerprint `succ`
/// chain) so root/GCC churn exercises both the counting and the DRed
/// maintenance paths.
const DELTA_PROGRAM: &str = "governed(R) :- root(R), gcc(R, _).\n\
     bare(R) :- root(R), \\+governed(R).\n\
     reach(R) :- governed(R).\n\
     reach(B) :- reach(A), succ(A, B).\n";

/// One EDB fact in the [`DELTA_PROGRAM`] fact space: predicate name
/// plus string arguments, pre-interning.
type StoreFact = (&'static str, Vec<String>);

/// Project the truth store into the EDB fact space of
/// [`DELTA_PROGRAM`]: one `root` fact per trusted fingerprint, one
/// `gcc` fact per attachment, `distrusted` markers, and a `succ` chain
/// over the sorted fingerprints (so adding or removing one root
/// rewires two edges — a genuinely recursive delta).
fn store_facts(store: &RootStore) -> BTreeSet<StoreFact> {
    let mut facts = BTreeSet::new();
    let mut fps: Vec<String> = Vec::new();
    for (fp, _) in store.iter() {
        let hex = fp.to_hex();
        for gcc in store.gccs_for(fp) {
            facts.insert(("gcc", vec![hex.clone(), gcc.source_hash().to_hex()]));
        }
        fps.push(hex.clone());
        facts.insert(("root", vec![hex]));
    }
    fps.sort();
    for pair in fps.windows(2) {
        facts.insert(("succ", vec![pair[0].clone(), pair[1].clone()]));
    }
    for (fp, _) in store.iter_distrusted() {
        facts.insert(("distrusted", vec![fp.to_hex()]));
    }
    facts
}

/// One persistent incrementally-maintained database (satellite arm of
/// the oracle): same program, one of the two maintenance policies.
struct DeltaArm {
    label: &'static str,
    db: LayeredDatabase,
    state: IncrementalState,
}

impl DeltaArm {
    fn new(label: &'static str, policy: MaintenancePolicy) -> DeltaArm {
        DeltaArm {
            label,
            db: LayeredDatabase::new(Arc::new(Database::new())),
            state: IncrementalState::new(policy),
        }
    }
}

struct Oracle<'a> {
    config: &'a DifferentialConfig,
    cache: VerdictCache,
    /// Cached clone of the truth store, refreshed on version change.
    truth: RootStore,
    truth_version: u64,
    /// A live trust daemon serving the truth store at `.0`'s version,
    /// plus a keep-alive client to it; respawned when truth moves.
    daemon: Option<(u64, TrustDaemon, Arc<DaemonClient>)>,
    /// The compiled [`DELTA_PROGRAM`] plus one persistent arm per
    /// maintenance policy, and the fact image the arms were last
    /// brought up to date with.
    delta_program: CompiledProgram,
    delta_arms: Vec<DeltaArm>,
    delta_facts: BTreeSet<StoreFact>,
    outcome: DifferentialOutcome,
}

impl<'a> Oracle<'a> {
    #[allow(clippy::too_many_arguments)]
    fn record(
        &mut self,
        eco: &Ecosystem,
        sample: &SampleChain,
        usage: Usage,
        sample_index: u64,
        kind: &str,
        detail: String,
        gcc: Option<(&str, &str)>,
    ) {
        let disagreement = Disagreement {
            kind: kind.to_string(),
            detail,
            usage: usage.as_datalog().to_string(),
            mutation: sample.mutation.label().to_string(),
            chain_der_hex: sample
                .chain
                .iter()
                .map(|c| nrslb_crypto::hex::encode(c.to_der()))
                .collect(),
            gcc_name: gcc.map(|(n, _)| n.to_string()),
            gcc_source: gcc.map(|(_, s)| s.to_string()),
            seed: self.config.seed,
            sample_index,
            recent_trace: eco.recent_trace(8),
        };
        self.dump(disagreement);
    }

    /// Serialize a disagreement repro to the report directory (when
    /// configured) and append it to the outcome. The file name carries
    /// the seed, the sample (or event) index, and the disagreement
    /// ordinal, so repros never clobber one another.
    fn dump(&mut self, disagreement: Disagreement) {
        if let Some(dir) = &self.config.report_dir {
            if std::fs::create_dir_all(dir).is_ok() {
                let path = dir.join(format!(
                    "differential-seed{}-sample{}-d{}.json",
                    self.config.seed,
                    disagreement.sample_index,
                    self.outcome.disagreements.len(),
                ));
                if let Ok(json) = serde_json::to_string_pretty(&disagreement) {
                    if std::fs::write(&path, json).is_ok() {
                        self.outcome.report_paths.push(path.display().to_string());
                    }
                }
            }
        }
        self.outcome.disagreements.push(disagreement);
    }

    /// Path 5: incremental vs scratch Datalog maintenance. Applies the
    /// truth store's fact-level delta one fact at a time to every
    /// persistent policy arm; after each application the arm's derived
    /// overlay must be byte-identical (canonical form) to a
    /// from-scratch evaluation over the same post-delta base.
    fn check_incremental(&mut self, eco: &Ecosystem) {
        let next = store_facts(eco.truth());
        let mut steps: Vec<(Vec<StoreFact>, Vec<StoreFact>)> = Vec::new();
        for fact in next.difference(&self.delta_facts) {
            steps.push((vec![fact.clone()], Vec::new()));
        }
        for fact in self.delta_facts.difference(&next) {
            steps.push((Vec::new(), vec![fact.clone()]));
        }
        // A trailing no-op step: quiet events must not perturb the
        // maintained state either.
        steps.push((Vec::new(), Vec::new()));

        let to_interned = |facts: &[StoreFact]| {
            facts
                .iter()
                .map(|(pred, args)| {
                    delta_fact(pred, &args.iter().map(Val::str).collect::<Vec<_>>())
                })
                .collect::<Vec<_>>()
        };

        let mut failures: Vec<(String, String)> = Vec::new();
        for arm in &mut self.delta_arms {
            for (added, removed) in &steps {
                self.outcome.delta_checks += 1;
                let applied = self.delta_program.apply_delta(
                    &mut arm.db,
                    &mut arm.state,
                    &to_interned(added),
                    &to_interned(removed),
                );
                if let Err(err) = applied {
                    failures.push((
                        format!("incremental-vs-scratch[{}]", arm.label),
                        format!("apply_delta failed: {err} (step +{added:?} -{removed:?})"),
                    ));
                    continue;
                }
                let scratch = match self.delta_program.evaluate(Arc::new(arm.db.base().clone())) {
                    Ok(scratch) => scratch,
                    Err(err) => {
                        failures.push((
                            format!("incremental-vs-scratch[{}]", arm.label),
                            format!("scratch evaluation failed: {err}"),
                        ));
                        continue;
                    }
                };
                let incremental_text = arm.db.overlay().to_sorted_fact_text();
                let scratch_text = scratch.overlay().to_sorted_fact_text();
                if incremental_text != scratch_text {
                    failures.push((
                        format!("incremental-vs-scratch[{}]", arm.label),
                        format!(
                            "derived state diverged after +{added:?} -{removed:?}\n\
                             incremental:\n{incremental_text}\nscratch:\n{scratch_text}"
                        ),
                    ));
                }
            }
        }
        self.delta_facts = next;

        let event_index = self.outcome.events;
        for (kind, detail) in failures {
            self.dump(Disagreement {
                kind,
                detail,
                usage: "*".to_string(),
                mutation: "ecosystem-delta".to_string(),
                chain_der_hex: Vec::new(),
                gcc_name: None,
                gcc_source: None,
                seed: self.config.seed,
                sample_index: event_index,
                recent_trace: eco.recent_trace(8),
            });
        }
    }

    /// A keep-alive client to a daemon serving the *current* truth
    /// store, respawning the daemon if truth moved since last time.
    fn daemon_client(&mut self) -> Option<Arc<DaemonClient>> {
        if let Some((version, _, client)) = &self.daemon {
            if *version == self.truth_version {
                return Some(Arc::clone(client));
            }
        }
        let daemon = TrustDaemon::builder()
            .socket(ephemeral_socket_path("sim-diff"))
            .workers(2)
            .spawn(self.truth.clone())
            .ok()?;
        let client = Arc::new(daemon.keep_alive_client());
        self.daemon = Some((self.truth_version, daemon, Arc::clone(&client)));
        Some(client)
    }

    fn check_sample(&mut self, eco: &Ecosystem, sample: &SampleChain, sample_index: u64) {
        let now = eco.now_secs();
        if eco.truth().version() != self.truth_version {
            self.truth = eco.truth().clone();
            self.truth_version = self.truth.version();
        }
        let session = ValidationSession::new(&sample.chain);
        let anchor_fp = sample.chain.last().expect("non-empty chain").fingerprint();
        let gccs = self.truth.gccs_for(&anchor_fp).to_vec();

        for usage in Usage::ALL {
            // Path 1: the interned engine against the string-path
            // reference evaluator, per GCC.
            for gcc in &gccs {
                let compiled = session.evaluate_gcc(gcc, usage);
                let string_ref = session.evaluate_gcc_string(gcc, usage);
                self.outcome.gcc_checks += 1;
                match (&compiled, &string_ref) {
                    (Ok(c), Ok(s)) if c == s => {}
                    _ => self.record(
                        eco,
                        sample,
                        usage,
                        sample_index,
                        "interned-vs-string",
                        format!("interned={compiled:?} string={string_ref:?}"),
                        Some((gcc.name(), gcc.source())),
                    ),
                }
            }

            // Path 2: cached vs cold sessions. Two cached passes so the
            // second is guaranteed to serve from the cache.
            if !gccs.is_empty() {
                let warm = session.evaluate_gccs_cached(&gccs, usage, Some(&self.cache));
                let hit = session.evaluate_gccs_cached(&gccs, usage, Some(&self.cache));
                let cold = session.evaluate_gccs(&gccs, usage);
                self.outcome.cache_checks += 1;
                let verdicts = |r: &Result<Vec<nrslb_core::GccVerdict>, _>| -> Option<Vec<bool>> {
                    r.as_ref()
                        .ok()
                        .map(|v| v.iter().map(|g| g.accepted).collect())
                };
                if verdicts(&warm) != verdicts(&cold) || verdicts(&hit) != verdicts(&cold) {
                    self.record(
                        eco,
                        sample,
                        usage,
                        sample_index,
                        "cached-vs-cold",
                        format!("warm={warm:?} hit={hit:?} cold={cold:?}"),
                        None,
                    );
                }
            }

            // Path 3: the full validator against the primary store —
            // with and without a verdict cache — and against every
            // replica store.
            let primary = Validator::new(self.truth.clone(), ValidationMode::UserAgent);
            let accepted = primary
                .validate(sample.leaf(), sample.intermediates(), usage, now)
                .map(|o| o.accepted())
                .unwrap_or(false);
            let cached_validator = Validator::new(self.truth.clone(), ValidationMode::UserAgent)
                .with_verdict_cache(Arc::new(VerdictCache::new(64)));
            let accepted_cached = cached_validator
                .validate(sample.leaf(), sample.intermediates(), usage, now)
                .map(|o| o.accepted())
                .unwrap_or(false);
            self.outcome.store_checks += 1;
            if accepted != accepted_cached {
                self.record(
                    eco,
                    sample,
                    usage,
                    sample_index,
                    "validator-cache",
                    format!("uncached={accepted} cached={accepted_cached}"),
                    None,
                );
            }

            // Path 4: platform execution — the same validation with
            // GCC evaluation delegated to a live trust daemon over
            // IPC. Strided: each truth change forces a respawn.
            if sample_index.is_multiple_of(DAEMON_CHECK_STRIDE) {
                if let Some(client) = self.daemon_client() {
                    let platform =
                        Validator::new(self.truth.clone(), ValidationMode::Platform(client));
                    let accepted_daemon = platform
                        .validate(sample.leaf(), sample.intermediates(), usage, now)
                        .map(|o| o.accepted())
                        .unwrap_or(false);
                    self.outcome.daemon_checks += 1;
                    if accepted_daemon != accepted {
                        self.record(
                            eco,
                            sample,
                            usage,
                            sample_index,
                            "in-process-vs-daemon",
                            format!("user_agent={accepted} daemon={accepted_daemon}"),
                            None,
                        );
                    }
                }
            }

            for i in 0..eco.subscriber_count() {
                let sub = eco.subscriber(i);
                let in_sync = matches!(sub.state(), SyncState::Live)
                    && sub.sequence() == eco.publisher_sequence()
                    && matches!(sub.staleness(now), Staleness::Fresh { .. });
                let replica = Validator::new(sub.store().clone(), ValidationMode::UserAgent);
                let replica_accepted = replica
                    .validate(sample.leaf(), sample.intermediates(), usage, now)
                    .map(|o| o.accepted())
                    .unwrap_or(false);
                self.outcome.store_checks += 1;
                if replica_accepted == accepted {
                    continue;
                }
                if in_sync {
                    self.record(
                        eco,
                        sample,
                        usage,
                        sample_index,
                        "primary-vs-replica",
                        format!(
                            "replica {} accepted={replica_accepted} primary={accepted}",
                            eco.subscriber_spec(i).name
                        ),
                        None,
                    );
                } else if self.config.ignore_quarantine {
                    // The deliberate fault: the excuse is disabled, so
                    // the stale replica's divergence surfaces.
                    self.record(
                        eco,
                        sample,
                        usage,
                        sample_index,
                        "quarantined-replica",
                        format!(
                            "replica {} ({:?}, {:?}) accepted={replica_accepted} \
                             primary={accepted}",
                            eco.subscriber_spec(i).name,
                            sub.state(),
                            sub.staleness(now)
                        ),
                        None,
                    );
                } else {
                    // Visibly behind/quarantined/stale: the divergence
                    // is the *announced* kind, excused by the engine's
                    // own verdict.
                    self.outcome.excused_divergences += 1;
                }
            }
        }
    }
}

/// Run the differential oracle (see module docs) and return the
/// aggregate outcome. Deterministic: same config, same outcome.
pub fn run_differential(config: &DifferentialConfig) -> DifferentialOutcome {
    let mut eco_config = EcosystemConfig::default();
    eco_config.seed = config.seed;
    eco_config.initial_gccs_per_root = config.initial_gccs_per_root;
    // Always stage the split-view attack: the quarantine-excuse logic
    // must be exercised (or, with `ignore_quarantine`, violated) in
    // every run.
    eco_config.split_view_attack_at_secs = Some(eco_config.epoch_secs + 6 * 3_600);
    let mut eco = Ecosystem::new(&eco_config);

    let delta_program = CompiledProgram::compile(
        &Program::parse(DELTA_PROGRAM).expect("delta oracle program parses"),
    )
    .expect("delta oracle program compiles");

    let mut oracle = Oracle {
        config,
        cache: VerdictCache::new(8_192),
        truth: eco.truth().clone(),
        truth_version: eco.truth().version(),
        daemon: None,
        delta_program,
        delta_arms: vec![
            DeltaArm::new("counting", MaintenancePolicy::Auto),
            DeltaArm::new("dred", MaintenancePolicy::ForceDRed),
        ],
        delta_facts: BTreeSet::new(),
        outcome: DifferentialOutcome {
            seed: config.seed,
            events: 0,
            samples: 0,
            gcc_checks: 0,
            cache_checks: 0,
            store_checks: 0,
            daemon_checks: 0,
            delta_checks: 0,
            excused_divergences: 0,
            disagreements: Vec::new(),
            report_paths: Vec::new(),
        },
    };
    // The pre-step truth store is the arms' baseline: its whole fact
    // image arrives as the first (large) delta.
    oracle.check_incremental(&eco);

    // Hard ceiling so a mis-sized config terminates regardless of the
    // min_gcc_checks / min_delta_checks targets.
    let ceiling = config.max_events.saturating_mul(4).max(config.max_events);
    while oracle.outcome.events < config.max_events
        || ((oracle.outcome.gcc_checks < config.min_gcc_checks
            || oracle.outcome.delta_checks < config.min_delta_checks)
            && oracle.outcome.events < ceiling)
    {
        if eco.step().is_none() {
            break;
        }
        oracle.outcome.events += 1;
        oracle.check_incremental(&eco);
        for _ in 0..config.samples_per_event {
            let sample = eco.next_sample();
            let index = oracle.outcome.samples;
            oracle.outcome.samples += 1;
            oracle.check_sample(&eco, &sample, index);
        }
    }
    oracle.outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> DifferentialConfig {
        DifferentialConfig {
            min_gcc_checks: 120,
            min_delta_checks: 120,
            max_events: 60,
            report_dir: None,
            ..DifferentialConfig::default()
        }
    }

    #[test]
    fn healthy_build_has_no_disagreements() {
        let outcome = run_differential(&quick_config());
        assert!(
            outcome.gcc_checks >= 120,
            "got {} checks",
            outcome.gcc_checks
        );
        assert!(outcome.samples > 0);
        assert!(outcome.daemon_checks > 0, "daemon arm never ran");
        assert!(
            outcome.delta_checks >= 120,
            "incremental arm ran only {} checks",
            outcome.delta_checks
        );
        outcome.assert_agreement();
    }

    #[test]
    fn runs_are_deterministic() {
        let a = run_differential(&quick_config());
        let b = run_differential(&quick_config());
        assert_eq!(a.gcc_checks, b.gcc_checks);
        assert_eq!(a.samples, b.samples);
        assert_eq!(a.store_checks, b.store_checks);
        assert_eq!(a.daemon_checks, b.daemon_checks);
        assert_eq!(a.delta_checks, b.delta_checks);
        assert_eq!(a.excused_divergences, b.excused_divergences);
        assert_eq!(a.disagreements.len(), b.disagreements.len());
    }

    #[test]
    #[should_panic(expected = "oracle disagreement")]
    fn ignoring_quarantine_evidence_is_caught() {
        let config = DifferentialConfig {
            ignore_quarantine: true,
            min_gcc_checks: 400,
            min_delta_checks: 120,
            max_events: 320,
            report_dir: None,
            ..DifferentialConfig::default()
        };
        let outcome = run_differential(&config);
        // The quarantined victim keeps serving its pre-attack view
        // while the primary evolves; with the excuse disabled the
        // divergence must surface.
        outcome.assert_agreement();
    }
}
