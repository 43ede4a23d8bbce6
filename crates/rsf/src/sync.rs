//! The resilient subscriber sync engine.
//!
//! `transport` gives a clean-channel state machine; real derivative
//! stores sit behind lossy links, stale publishers and — in the worst
//! case — feeds that rewrite their own history. This module wraps the
//! same verification core in a fault-tolerant engine:
//!
//! * a [`SyncPolicy`] bounds each attempt (timeout, retry budget,
//!   exponential backoff with deterministic jitter, staleness bound);
//! * a state-machine [`Subscriber`] resumes catch-up from its last
//!   applied sequence via `Delta`s, falls back to a full `Snapshot`
//!   only when the delta window is gone, verifies a transparency-log
//!   checkpoint + consistency proof on every reconnect, and
//!   **quarantines** the feed on split-view evidence instead of
//!   applying it;
//! * once quarantined — or once the staleness bound is exceeded — the
//!   subscriber keeps serving its last-good `RootStore`, with an
//!   explicit [`Staleness`] verdict attached ([`Subscriber::serve`]);
//! * plain [`SyncCounters`] record attempts, retries, fallbacks,
//!   quarantines and stale serves for the daemon and benches to scrape.
//!
//! The three historical ingestion paths (`Snapshot::decode`+`apply_to`,
//! `Delta::decode`+`apply_to`, raw `SignedMessage::verify`) collapse
//! into one entry point: [`Subscriber::ingest`], which verifies,
//! decodes ([`FeedUpdate`]) and applies a message in one step and
//! reports what happened as a [`SyncEvent`].

use crate::clock::{Clock, WallClock};
use crate::feed::{Delta, Snapshot};
use crate::quorum::RotationEvent;
use crate::signing::{FeedTrust, MessageKind, SignedMessage};
use crate::taint::TaintSet;
use crate::translog::{verify_extension, Checkpoint};
use crate::transport::{FaultInjector, FeedPublisher, SyncReport};
use crate::RsfError;
use nrslb_crypto::hbs::PublicKey;
use nrslb_crypto::merkle::ConsistencyProof;
use nrslb_obs::{Counter, Gauge, Registry};
use nrslb_rootstore::RootStore;
use rand::prelude::*;
use std::sync::Arc;

/// Retry/backoff/staleness knobs for a [`Subscriber`].
///
/// All timing is caller-driven (the engine is sans-IO); the policy is
/// the single place transports read their budgets from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SyncPolicy {
    /// Per-attempt I/O budget in milliseconds (socket transports use it
    /// for read/write timeouts; the sans-IO core carries it through).
    pub attempt_timeout_ms: u64,
    /// First retry delay; attempt `n` waits `base * 2^n`, capped below.
    pub base_backoff_ms: u64,
    /// Upper bound on a single backoff delay.
    pub max_backoff_ms: u64,
    /// Give up (with [`RsfError::Exhausted`]) after this many attempts.
    pub max_attempts: u32,
    /// Past this many seconds since the last successful sync, served
    /// stores carry a [`Staleness::Exceeded`] verdict.
    pub staleness_bound_secs: i64,
    /// Seed for the deterministic backoff jitter (same seed ⇒ same
    /// delays, so simulations and tests reproduce exactly).
    pub jitter_seed: u64,
}

impl Default for SyncPolicy {
    fn default() -> SyncPolicy {
        SyncPolicy {
            attempt_timeout_ms: 2_000,
            base_backoff_ms: 100,
            max_backoff_ms: 30_000,
            max_attempts: 5,
            staleness_bound_secs: 86_400,
            jitter_seed: 0x5eed,
        }
    }
}

/// Plain counters a daemon or bench can scrape ([`Subscriber::counters`]).
///
/// Since the observability layer landed this is a *snapshot* type: the
/// live values are `nrslb-obs` registry counters
/// ([`Subscriber::instruments`]), and [`Subscriber::counters`] is the
/// compatibility shim that reads them back into this plain struct.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncCounters {
    /// Sync attempts started (each [`Subscriber::poll`] is one).
    pub attempts: u64,
    /// Attempts that failed and were retried by the resilient loop.
    pub retries: u64,
    /// Messages verified and applied (snapshots + deltas).
    pub messages_ingested: u64,
    /// Messages rejected (bad signature, undecodable, replayed).
    pub messages_rejected: u64,
    /// Full-snapshot applications after the delta window was gone.
    pub snapshot_fallbacks: u64,
    /// Split-view quarantines entered.
    pub quarantines: u64,
    /// Serves performed while past the staleness bound.
    pub stale_serves: u64,
    /// Quorum share-rotation events verified and applied.
    pub rotations_applied: u64,
}

/// Registry-backed instruments for one subscriber: the live metric
/// handles behind [`SyncCounters`], labelled with the subscriber's
/// store name so a daemon serving several feeds gets distinct series.
#[derive(Clone, Debug)]
pub struct SyncInstruments {
    /// Sync attempts started ([`SyncCounters::attempts`]).
    pub attempts: Counter,
    /// Retry decisions ([`SyncCounters::retries`]).
    pub retries: Counter,
    /// Messages verified and applied ([`SyncCounters::messages_ingested`]).
    pub messages_ingested: Counter,
    /// Messages rejected ([`SyncCounters::messages_rejected`]).
    pub messages_rejected: Counter,
    /// Full-snapshot fallbacks ([`SyncCounters::snapshot_fallbacks`]).
    pub snapshot_fallbacks: Counter,
    /// Quarantines entered ([`SyncCounters::quarantines`]).
    pub quarantines: Counter,
    /// Serves past the staleness bound ([`SyncCounters::stale_serves`]).
    pub stale_serves: Counter,
    /// Rotation events applied ([`SyncCounters::rotations_applied`]).
    pub rotations_applied: Counter,
    /// Lifecycle state as a gauge: 0 bootstrapping, 1 live, 2 quarantined.
    pub state: Gauge,
    /// Unix seconds of the last successful sync (-1 = never synced).
    pub last_synced_timestamp_secs: Gauge,
    /// Seconds since the last successful sync, refreshed on every
    /// staleness check (-1 = never synced).
    pub staleness_age_secs: Gauge,
}

impl SyncInstruments {
    /// Create (or re-attach to) the subscriber's metric series in
    /// `registry`, labelled `subscriber=name`.
    pub fn new(registry: &Registry, name: &str) -> SyncInstruments {
        let labels: &[(&str, &str)] = &[("subscriber", name)];
        let counter = |metric: &str, help: &str| registry.counter_with(metric, labels, help);
        let instruments = SyncInstruments {
            attempts: counter("nrslb_rsf_sync_attempts_total", "sync attempts started"),
            retries: counter(
                "nrslb_rsf_sync_retries_total",
                "failed attempts retried by the resilient loop",
            ),
            messages_ingested: counter(
                "nrslb_rsf_messages_ingested_total",
                "feed messages verified and applied",
            ),
            messages_rejected: counter(
                "nrslb_rsf_messages_rejected_total",
                "feed messages rejected (bad signature, undecodable, replayed)",
            ),
            snapshot_fallbacks: counter(
                "nrslb_rsf_snapshot_fallbacks_total",
                "full-snapshot applications after the delta window was gone",
            ),
            quarantines: counter(
                "nrslb_rsf_quarantines_total",
                "split-view quarantines entered",
            ),
            stale_serves: counter(
                "nrslb_rsf_stale_serves_total",
                "serves performed past the staleness bound",
            ),
            rotations_applied: counter(
                "nrslb_rsf_rotations_applied_total",
                "quorum share-rotation events verified and applied",
            ),
            state: registry.gauge_with(
                "nrslb_rsf_subscriber_state",
                labels,
                "subscriber lifecycle: 0 bootstrapping, 1 live, 2 quarantined",
            ),
            last_synced_timestamp_secs: registry.gauge_with(
                "nrslb_rsf_last_synced_timestamp_secs",
                labels,
                "unix seconds of the last successful sync (-1 never)",
            ),
            staleness_age_secs: registry.gauge_with(
                "nrslb_rsf_staleness_age_secs",
                labels,
                "seconds since the last successful sync at the latest check (-1 never)",
            ),
        };
        instruments.last_synced_timestamp_secs.set(-1);
        instruments.staleness_age_secs.set(-1);
        instruments
    }

    /// Read the counters back into the plain [`SyncCounters`] shape.
    pub fn snapshot(&self) -> SyncCounters {
        SyncCounters {
            attempts: self.attempts.get(),
            retries: self.retries.get(),
            messages_ingested: self.messages_ingested.get(),
            messages_rejected: self.messages_rejected.get(),
            snapshot_fallbacks: self.snapshot_fallbacks.get(),
            quarantines: self.quarantines.get(),
            stale_serves: self.stale_serves.get(),
            rotations_applied: self.rotations_applied.get(),
        }
    }
}

/// Where a [`Subscriber`] is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncState {
    /// Never completed a sync; the store is empty.
    Bootstrapping,
    /// At least one sync succeeded; the store tracks the feed.
    Live,
    /// Split-view / history-rewrite evidence was observed; no further
    /// updates are applied and the last-good store is served as-is.
    Quarantined {
        /// What evidence triggered the quarantine.
        reason: &'static str,
    },
}

impl SyncState {
    /// The state encoded for the `nrslb_rsf_subscriber_state` gauge.
    fn gauge_value(&self) -> i64 {
        match self {
            SyncState::Bootstrapping => 0,
            SyncState::Live => 1,
            SyncState::Quarantined { .. } => 2,
        }
    }
}

/// Freshness verdict attached to a served store ([`Subscriber::serve`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Staleness {
    /// No sync has ever succeeded; the store is empty.
    NeverSynced,
    /// Inside the policy's staleness bound.
    Fresh {
        /// Seconds since the last successful sync.
        age_secs: i64,
    },
    /// Past the policy's staleness bound: the store is still served
    /// (availability over freshness) but callers are told.
    Exceeded {
        /// Seconds since the last successful sync.
        age_secs: i64,
        /// The policy bound that was exceeded.
        bound_secs: i64,
    },
}

impl Staleness {
    /// True when the staleness bound is exceeded (or never synced).
    pub fn is_exceeded(&self) -> bool {
        !matches!(self, Staleness::Fresh { .. })
    }
}

/// A decoded feed payload: the one shape every ingestion path funnels
/// through. Sealed (`#[non_exhaustive]`) so new message kinds don't
/// break downstream matches.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum FeedUpdate {
    /// A full root-store snapshot.
    Snapshot(Snapshot),
    /// An incremental delta between two sequences.
    Delta(Delta),
}

impl FeedUpdate {
    /// Decode the payload of a signed message into its typed form.
    /// Does **not** verify signatures — [`Subscriber::ingest`] does.
    pub fn decode(message: &SignedMessage) -> Result<FeedUpdate, RsfError> {
        match message.kind {
            MessageKind::Snapshot => Ok(FeedUpdate::Snapshot(Snapshot::decode(&message.payload)?)),
            MessageKind::Delta => Ok(FeedUpdate::Delta(Delta::decode(&message.payload)?)),
        }
    }

    /// The sequence this update brings a subscriber to.
    pub fn sequence(&self) -> u64 {
        match self {
            FeedUpdate::Snapshot(s) => s.sequence,
            FeedUpdate::Delta(d) => d.to_sequence,
        }
    }

    /// When the update was published.
    pub fn published_at(&self) -> i64 {
        match self {
            FeedUpdate::Snapshot(s) => s.published_at,
            FeedUpdate::Delta(d) => d.published_at,
        }
    }
}

/// What [`Subscriber::ingest`] did with a message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncEvent {
    /// A full snapshot replaced the store.
    SnapshotApplied {
        /// Sequence after application.
        sequence: u64,
    },
    /// An incremental delta was applied.
    DeltaApplied {
        /// Sequence after application.
        sequence: u64,
    },
    /// The message was a duplicate of already-applied state (benign —
    /// lossy transports re-deliver).
    AlreadyCurrent {
        /// The subscriber's unchanged sequence.
        sequence: u64,
    },
}

/// Outcome of a [`Subscriber::sync_resilient`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResilientReport {
    /// Aggregate of what was applied across all attempts.
    pub report: SyncReport,
    /// Attempts made (1 = first try succeeded).
    pub attempts: u32,
    /// Total backoff the policy would have slept, in milliseconds
    /// (sans-IO: the caller decides whether to actually sleep).
    pub backoff_ms_total: u64,
}

/// Builder for [`Subscriber`] (and, via [`connect`], the socket-backed
/// `RemoteSubscriber`) — new knobs get a defaulted setter here instead
/// of breaking every positional caller again.
///
/// [`connect`]: SubscriberBuilder::connect
#[derive(Clone, Debug)]
pub struct SubscriberBuilder {
    name: String,
    trust: FeedTrust,
    policy: SyncPolicy,
    clock: Arc<dyn Clock>,
    registry: Option<Arc<Registry>>,
}

impl SubscriberBuilder {
    /// Start a builder with the two essentials: the subscriber's store
    /// name and the pinned coordinator trust.
    pub fn new(name: &str, trust: FeedTrust) -> SubscriberBuilder {
        SubscriberBuilder {
            name: name.to_string(),
            trust,
            policy: SyncPolicy::default(),
            clock: Arc::new(WallClock),
            registry: None,
        }
    }

    /// Replace the whole sync policy.
    pub fn policy(mut self, policy: SyncPolicy) -> SubscriberBuilder {
        self.policy = policy;
        self
    }

    /// Override just the staleness bound (seconds).
    pub fn staleness_bound_secs(mut self, bound: i64) -> SubscriberBuilder {
        self.policy.staleness_bound_secs = bound;
        self
    }

    /// Override just the retry budget.
    pub fn max_attempts(mut self, attempts: u32) -> SubscriberBuilder {
        self.policy.max_attempts = attempts;
        self
    }

    /// Inject a clock. Defaults to [`WallClock`]; tests and the
    /// deterministic simulator pass a
    /// [`VirtualClock`](crate::clock::VirtualClock) so staleness checks
    /// and backoff sleeping run on virtual time.
    pub fn clock(mut self, clock: Arc<dyn Clock>) -> SubscriberBuilder {
        self.clock = clock;
        self
    }

    /// Report sync metrics into a shared observability registry (e.g.
    /// the trust daemon's), labelled with this subscriber's name.
    /// Without one, the subscriber keeps a private registry so
    /// [`Subscriber::counters`] always works.
    pub fn registry(mut self, registry: Arc<Registry>) -> SubscriberBuilder {
        self.registry = Some(registry);
        self
    }

    /// Finish: a fresh subscriber that has never synced.
    pub fn build(self) -> Subscriber {
        let rng = StdRng::seed_from_u64(self.policy.jitter_seed);
        let registry = self
            .registry
            .unwrap_or_else(|| Arc::new(Registry::with_clock(Arc::clone(&self.clock))));
        let instruments = SyncInstruments::new(&registry, &self.name);
        Subscriber {
            store: RootStore::new(&self.name),
            name: self.name,
            trust: self.trust,
            sequence: 0,
            pinned: None,
            policy: self.policy,
            state: SyncState::Bootstrapping,
            instruments,
            registry,
            last_synced_at: None,
            pending_taint: TaintSet::empty(),
            rng,
            clock: self.clock,
        }
    }
}

/// A fault-tolerant feed subscriber: the unified ingestion state
/// machine behind every transport.
pub struct Subscriber {
    name: String,
    trust: FeedTrust,
    store: RootStore,
    sequence: u64,
    /// Pinned transparency-log checkpoint + the feed key it verified
    /// under (set after the first successful poll).
    pinned: Option<(Checkpoint, PublicKey)>,
    policy: SyncPolicy,
    state: SyncState,
    instruments: SyncInstruments,
    registry: Arc<Registry>,
    last_synced_at: Option<i64>,
    /// Taint accumulated by applied updates since the last
    /// [`Subscriber::take_taint`] — what downstream verdict caches must
    /// invalidate before trusting this subscriber's store again.
    pending_taint: TaintSet,
    rng: StdRng,
    clock: Arc<dyn Clock>,
}

impl Subscriber {
    /// Start building a subscriber ([`SubscriberBuilder`]).
    pub fn builder(name: &str, trust: FeedTrust) -> SubscriberBuilder {
        SubscriberBuilder::new(name, trust)
    }

    /// The subscriber's store name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The pinned coordinating-body trust (advanced in place as
    /// rotation events are applied).
    pub fn trust(&self) -> &FeedTrust {
        &self.trust
    }

    /// The current (last-good) store. Prefer [`Subscriber::serve`],
    /// which also reports freshness.
    pub fn store(&self) -> &RootStore {
        &self.store
    }

    /// The last applied sequence (0 = never synced).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Taint accumulated by updates applied since the last
    /// [`Subscriber::take_taint`] (deltas contribute their precise
    /// blast radius, snapshot fallbacks full taint). Empty when every
    /// applied update has been accounted for.
    pub fn pending_taint(&self) -> &TaintSet {
        &self.pending_taint
    }

    /// Drain the accumulated taint, handing it to the verdict-cache
    /// invalidation step. Subsequent updates start a fresh set.
    pub fn take_taint(&mut self) -> TaintSet {
        std::mem::take(&mut self.pending_taint)
    }

    /// Lifecycle state.
    pub fn state(&self) -> SyncState {
        self.state
    }

    /// Scrapeable counters — the compatibility shim over the registry
    /// handles: a point-in-time snapshot of [`Subscriber::instruments`].
    pub fn counters(&self) -> SyncCounters {
        self.instruments.snapshot()
    }

    /// The live registry-backed metric handles.
    pub fn instruments(&self) -> &SyncInstruments {
        &self.instruments
    }

    /// The observability registry this subscriber reports into (shared
    /// if the builder was given one, private otherwise).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The active policy.
    pub fn policy(&self) -> &SyncPolicy {
        &self.policy
    }

    /// The pinned transparency-log checkpoint, if any poll completed.
    pub fn pinned_checkpoint(&self) -> Option<&Checkpoint> {
        self.pinned.as_ref().map(|(c, _)| c)
    }

    /// The injected clock (wall time unless the builder overrode it).
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// [`Subscriber::staleness`] at the injected clock's current time.
    pub fn staleness_now(&self) -> Staleness {
        self.staleness(self.clock.now_secs())
    }

    /// [`Subscriber::serve`] at the injected clock's current time.
    pub fn serve_now(&mut self) -> (&RootStore, Staleness) {
        let now = self.clock.now_secs();
        self.serve(now)
    }

    /// [`Subscriber::sync`] at the injected clock's current time.
    pub fn sync_now(&mut self, publisher: &mut FeedPublisher) -> Result<SyncReport, RsfError> {
        let now = self.clock.now_secs();
        self.sync(publisher, now)
    }

    /// [`Subscriber::sync_resilient`] driven by the injected clock:
    /// `now` is read from the clock and every backoff delay is *slept*
    /// on it (a [`VirtualClock`](crate::clock::VirtualClock) advances
    /// instantly instead of blocking), so retries consume simulated
    /// time exactly like a real polling loop consumes wall time.
    pub fn sync_resilient_now(
        &mut self,
        publisher: &mut FeedPublisher,
        injector: &mut FaultInjector,
    ) -> Result<ResilientReport, RsfError> {
        let now = self.clock.now_secs();
        self.sync_resilient_with(publisher, injector, now, true)
    }

    /// Freshness at `now` (unix seconds), without counting a serve.
    /// Refreshes the `staleness_age_secs` gauge as a side effect.
    pub fn staleness(&self, now: i64) -> Staleness {
        match self.last_synced_at {
            None => Staleness::NeverSynced,
            Some(at) => {
                let age_secs = now.saturating_sub(at);
                self.instruments.staleness_age_secs.set(age_secs);
                if age_secs > self.policy.staleness_bound_secs {
                    Staleness::Exceeded {
                        age_secs,
                        bound_secs: self.policy.staleness_bound_secs,
                    }
                } else {
                    Staleness::Fresh { age_secs }
                }
            }
        }
    }

    /// Serve the last-good store with an explicit freshness verdict.
    ///
    /// Availability over freshness: a quarantined or stale subscriber
    /// still answers — the verdict (and the `stale_serves` counter)
    /// tell the caller it is doing so on old data.
    pub fn serve(&mut self, now: i64) -> (&RootStore, Staleness) {
        let staleness = self.staleness(now);
        if staleness.is_exceeded() {
            self.instruments.stale_serves.inc();
        }
        (&self.store, staleness)
    }

    /// Verify that `checkpoint` extends the pinned history, updating
    /// the quarantine state on split-view evidence.
    ///
    /// [`RsfError::BadSignature`] is transient (retryable transport
    /// damage); [`RsfError::SplitView`] is publisher misbehaviour and
    /// quarantines the feed permanently.
    pub fn verify_checkpoint(
        &mut self,
        checkpoint: &Checkpoint,
        proof: Option<&ConsistencyProof>,
    ) -> Result<(), RsfError> {
        let Some((pinned, key)) = self.pinned.clone() else {
            return Err(RsfError::BadSignature("no pinned feed key"));
        };
        let trust = self.trust.clone();
        self.check_extension(Some(&pinned), checkpoint, proof, &key, &trust)
    }

    fn check_extension(
        &mut self,
        old: Option<&Checkpoint>,
        new: &Checkpoint,
        proof: Option<&ConsistencyProof>,
        key: &PublicKey,
        trust: &FeedTrust,
    ) -> Result<(), RsfError> {
        match verify_extension(old, new, proof, key, trust) {
            Err(RsfError::SplitView(reason)) => {
                self.quarantine(reason);
                Err(RsfError::SplitView(reason))
            }
            other => other,
        }
    }

    /// Count a retry decision made by an outer transport loop (the
    /// socket transport keeps its retry loop outside the sans-IO core).
    pub(crate) fn note_retry(&mut self) {
        self.instruments.retries.inc();
    }

    fn quarantine(&mut self, reason: &'static str) {
        if !matches!(self.state, SyncState::Quarantined { .. }) {
            self.instruments.quarantines.inc();
            self.state = SyncState::Quarantined { reason };
            self.instruments.state.set(self.state.gauge_value());
        }
    }

    fn quarantined_err(&self) -> Option<RsfError> {
        match self.state {
            SyncState::Quarantined { reason } => Some(RsfError::Quarantined(reason)),
            _ => None,
        }
    }

    /// Verify and apply one signed message: the single ingestion entry
    /// point replacing `Snapshot::decode`+`apply_to`,
    /// `Delta::decode`+`apply_to` and raw `SignedMessage::verify`.
    ///
    /// Duplicates are benign ([`SyncEvent::AlreadyCurrent`]); replays
    /// to an *older* snapshot and sequence gaps are errors; nothing is
    /// applied while quarantined.
    pub fn ingest(&mut self, message: &SignedMessage) -> Result<SyncEvent, RsfError> {
        if let Some(err) = self.quarantined_err() {
            return Err(err);
        }
        if let Err(e) = message.verify(&self.trust) {
            self.instruments.messages_rejected.inc();
            return Err(e);
        }
        if let Some((_, key)) = &self.pinned {
            if message.feed_key != *key {
                self.instruments.messages_rejected.inc();
                return Err(RsfError::BadSignature("feed key changed mid-stream"));
            }
        }
        let update = match FeedUpdate::decode(message) {
            Ok(u) => u,
            Err(e) => {
                self.instruments.messages_rejected.inc();
                return Err(e);
            }
        };
        self.apply_update(update)
    }

    /// Apply an already-verified update (shared by [`Subscriber::ingest`]
    /// and [`Subscriber::poll`], which batch-verifies first).
    fn apply_update(&mut self, update: FeedUpdate) -> Result<SyncEvent, RsfError> {
        match update {
            FeedUpdate::Snapshot(snap) => {
                if snap.sequence < self.sequence {
                    self.instruments.messages_rejected.inc();
                    return Err(RsfError::Sequence {
                        expected: self.sequence,
                        got: snap.sequence,
                    });
                }
                if snap.sequence == self.sequence {
                    return Ok(SyncEvent::AlreadyCurrent {
                        sequence: self.sequence,
                    });
                }
                // Catching up via a full snapshot after having state
                // means the delta window was gone: a fallback.
                if self.sequence > 0 {
                    self.instruments.snapshot_fallbacks.inc();
                }
                self.store = snap.materialize(&self.name)?;
                // A snapshot replaces the whole store: full taint,
                // flowing through the same invalidation path a precise
                // delta uses.
                self.pending_taint.merge(&TaintSet::full());
                self.sequence = snap.sequence;
                self.instruments.messages_ingested.inc();
                Ok(SyncEvent::SnapshotApplied {
                    sequence: self.sequence,
                })
            }
            FeedUpdate::Delta(delta) => {
                if delta.to_sequence <= self.sequence {
                    return Ok(SyncEvent::AlreadyCurrent {
                        sequence: self.sequence,
                    });
                }
                if delta.from_sequence != self.sequence {
                    return Err(RsfError::Sequence {
                        expected: self.sequence,
                        got: delta.from_sequence,
                    });
                }
                // Taint is computed against the pre-image store so the
                // replaced entries' old GCCs and keys are captured.
                let taint = TaintSet::of_delta(&delta, &self.store);
                delta.apply(&mut self.store)?;
                self.pending_taint.merge(&taint);
                self.sequence = delta.to_sequence;
                self.instruments.messages_ingested.inc();
                Ok(SyncEvent::DeltaApplied {
                    sequence: self.sequence,
                })
            }
        }
    }

    /// One sync attempt over transported artifacts: verify the
    /// checkpoint against pinned history, verify every message
    /// signature, then apply in order.
    ///
    /// Signature verification happens for the whole batch *before* any
    /// state change — a compromised transport cannot poison the store.
    /// A sequence gap mid-batch aborts the remaining messages but keeps
    /// the progress already applied (the next attempt refetches from
    /// the advanced sequence, so retries converge).
    pub fn poll(
        &mut self,
        messages: Vec<SignedMessage>,
        checkpoint: Checkpoint,
        proof: Option<ConsistencyProof>,
        now: i64,
    ) -> Result<SyncReport, RsfError> {
        self.poll_full(messages, Vec::new(), checkpoint, proof, now)
    }

    /// [`Subscriber::poll`] plus quorum share-rotation events.
    ///
    /// Rotations are validated first against a *speculative* copy of
    /// the pinned trust (each event must be approved by the epoch it
    /// retires; redeliveries of already-applied epochs are benign), so
    /// the messages and checkpoint of this poll verify at the
    /// post-rotation epoch. Nothing — not the trust, not the store — is
    /// committed unless the whole poll verifies.
    pub fn poll_full(
        &mut self,
        messages: Vec<SignedMessage>,
        rotations: Vec<RotationEvent>,
        checkpoint: Checkpoint,
        proof: Option<ConsistencyProof>,
        now: i64,
    ) -> Result<SyncReport, RsfError> {
        self.instruments.attempts.inc();
        if let Some(err) = self.quarantined_err() {
            return Err(err);
        }
        // Advance a speculative trust through the rotation chain.
        let mut trust = self.trust.clone();
        let mut rotations_applied = 0u64;
        for event in &rotations {
            match trust.apply_rotation(event) {
                Ok(true) => rotations_applied += 1,
                Ok(false) => {} // redelivery of an already-applied epoch
                Err(e) => {
                    self.instruments.messages_rejected.inc();
                    return Err(e);
                }
            }
        }
        // Verify everything (coordinating-body endorsement + message
        // signatures) before any state change.
        for message in &messages {
            if let Err(e) = message.verify(&trust) {
                self.instruments.messages_rejected.inc();
                return Err(e);
            }
        }
        // The feed key is pinned from the first *verified* message; the
        // checkpoint must verify under it.
        let feed_key = match (&self.pinned, messages.first()) {
            (Some((_, key)), _) => *key,
            (None, Some(first)) => first.feed_key,
            (None, None) => return Err(RsfError::BadSignature("empty first sync")),
        };
        // Warm-path shortcut: a checkpoint whose content matches the
        // pinned one was already verified when it was pinned — idle
        // re-polls skip the signature and witness work entirely (this
        // is what keeps quorum verification off the warm path, E20).
        let already_pinned = rotations_applied == 0
            && self
                .pinned
                .as_ref()
                .is_some_and(|(c, _)| c.size == checkpoint.size && c.root == checkpoint.root);
        if !already_pinned {
            // Transparency-log step next: a publisher that rewrote
            // history is quarantined before any message is applied.
            // (The pinned checkpoint is only cloned on this cold path;
            // its quorum witness makes the copy multi-KB.)
            let pinned = self.pinned.clone();
            self.check_extension(
                pinned.as_ref().map(|(c, _)| c),
                &checkpoint,
                proof.as_ref(),
                &feed_key,
                &trust,
            )?;
        }
        let mut report = SyncReport {
            sequence: self.sequence,
            ..Default::default()
        };
        for message in &messages {
            report.bytes_transferred += message.encode().len();
            let update = FeedUpdate::decode(message)?;
            match self.apply_update(update)? {
                SyncEvent::SnapshotApplied { .. } => report.snapshot_applied = true,
                SyncEvent::DeltaApplied { .. } => report.deltas_applied += 1,
                SyncEvent::AlreadyCurrent { .. } => {}
            }
        }
        report.sequence = self.sequence;
        self.trust = trust;
        self.instruments.rotations_applied.add(rotations_applied);
        if !already_pinned {
            self.pinned = Some((checkpoint, feed_key));
        }
        self.last_synced_at = Some(now);
        self.state = SyncState::Live;
        self.instruments.state.set(self.state.gauge_value());
        self.instruments.last_synced_timestamp_secs.set(now);
        Ok(report)
    }

    /// The idle fast path: the publisher's checkpoint content is the
    /// pinned one and no rotation is pending, so this poll would change
    /// nothing — refresh the liveness bookkeeping without cloning any
    /// artifact (the quorum witness alone is multi-KB).
    fn poll_warm(&mut self, now: i64) -> Result<SyncReport, RsfError> {
        self.instruments.attempts.inc();
        if let Some(err) = self.quarantined_err() {
            return Err(err);
        }
        self.last_synced_at = Some(now);
        self.state = SyncState::Live;
        self.instruments.state.set(self.state.gauge_value());
        self.instruments.last_synced_timestamp_secs.set(now);
        Ok(SyncReport {
            sequence: self.sequence,
            ..Default::default()
        })
    }

    /// Poll a publisher over a clean in-process channel.
    pub fn sync(
        &mut self,
        publisher: &mut FeedPublisher,
        now: i64,
    ) -> Result<SyncReport, RsfError> {
        if self.pinned.is_some() && self.sequence == publisher.sequence() {
            // Nothing new to fetch. Rotation events are appended in
            // epoch order, so comparing the last one against the
            // pinned epoch tells us whether any ceremony is pending.
            let rotations_pending = publisher
                .rotations()
                .last()
                .is_some_and(|last| last.to_epoch > self.trust.pinned().epoch);
            let warm = !rotations_pending && {
                let checkpoint = publisher.checkpoint_ref()?;
                self.pinned
                    .as_ref()
                    .is_some_and(|(c, _)| c.size == checkpoint.size && c.root == checkpoint.root)
            };
            if warm {
                return self.poll_warm(now);
            }
            let checkpoint = publisher.checkpoint()?;
            let proof = self
                .pinned
                .as_ref()
                .and_then(|(old, _)| publisher.prove_extension(old.size));
            let rotations = publisher.rotations().to_vec();
            return self.poll_full(Vec::new(), rotations, checkpoint, proof, now);
        }
        let rotations = publisher.rotations().to_vec();
        let checkpoint = publisher.checkpoint()?;
        let proof = self
            .pinned
            .as_ref()
            .and_then(|(old, _)| publisher.prove_extension(old.size));
        let messages: Vec<SignedMessage> = publisher
            .fetch(self.sequence)
            .into_iter()
            .cloned()
            .collect();
        self.poll_full(messages, rotations, checkpoint, proof, now)
    }

    /// The backoff delay before retry number `attempt` (0-based), in
    /// milliseconds: exponential with deterministic jitter drawn from
    /// the policy's seeded generator (uniform in `[exp/2, exp]`).
    pub fn backoff_ms(&mut self, attempt: u32) -> u64 {
        let exp = self
            .policy
            .base_backoff_ms
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.policy.max_backoff_ms);
        if exp == 0 {
            return 0;
        }
        self.rng.gen_range(exp / 2..exp + 1)
    }

    /// Sync through a faulty channel, retrying with backoff until the
    /// subscriber has converged to the publisher's sequence or the
    /// policy's retry budget is exhausted.
    ///
    /// Frames the [`FaultInjector`] corrupted beyond decoding are
    /// counted as rejected and skipped; dropped frames surface as a
    /// sequence shortfall that the next attempt repairs. Split-view
    /// evidence aborts immediately (no retry un-quarantines a feed).
    pub fn sync_resilient(
        &mut self,
        publisher: &mut FeedPublisher,
        injector: &mut FaultInjector,
        now: i64,
    ) -> Result<ResilientReport, RsfError> {
        self.sync_resilient_with(publisher, injector, now, false)
    }

    fn sync_resilient_with(
        &mut self,
        publisher: &mut FeedPublisher,
        injector: &mut FaultInjector,
        now: i64,
        sleep_on_clock: bool,
    ) -> Result<ResilientReport, RsfError> {
        let mut total = SyncReport {
            sequence: self.sequence,
            ..Default::default()
        };
        let mut backoff_ms_total = 0u64;
        let mut attempts = 0u32;
        let mut last_err = RsfError::Wire("no attempts made");
        while attempts < self.policy.max_attempts {
            let attempt = attempts;
            attempts += 1;
            let checkpoint = publisher.checkpoint()?;
            let proof = self
                .pinned
                .as_ref()
                .and_then(|(old, _)| publisher.prove_extension(old.size));
            let frames: Vec<Vec<u8>> = publisher
                .fetch(self.sequence)
                .into_iter()
                .map(|m| m.encode())
                .collect();
            let mut messages = Vec::new();
            for frame in injector.transmit(frames) {
                match SignedMessage::decode(&frame) {
                    Ok(m) => messages.push(m),
                    Err(_) => self.instruments.messages_rejected.inc(),
                }
            }
            // Clock-driven runs stamp each attempt at the (possibly
            // advanced-by-backoff) current instant.
            let attempt_now = if sleep_on_clock {
                self.clock.now_secs()
            } else {
                now
            };
            // Rotation events travel outside the fault injector: they
            // are self-authenticating and idempotent, so redelivering
            // the full retained chain every attempt is safe.
            let rotations = publisher.rotations().to_vec();
            let outcome = if messages.is_empty() && self.pinned.is_none() {
                // Everything dropped before the first pin: retry.
                self.instruments.attempts.inc();
                Err(RsfError::BadSignature("empty first sync"))
            } else {
                self.poll_full(messages, rotations, checkpoint, proof, attempt_now)
            };
            match outcome {
                Ok(report) => {
                    total.deltas_applied += report.deltas_applied;
                    total.snapshot_applied |= report.snapshot_applied;
                    total.bytes_transferred += report.bytes_transferred;
                    total.sequence = report.sequence;
                    if self.sequence == publisher.sequence() {
                        return Ok(ResilientReport {
                            report: total,
                            attempts,
                            backoff_ms_total,
                        });
                    }
                    last_err = RsfError::Sequence {
                        expected: publisher.sequence(),
                        got: self.sequence,
                    };
                }
                Err(e @ (RsfError::SplitView(_) | RsfError::Quarantined(_))) => return Err(e),
                Err(e) => last_err = e,
            }
            if attempts < self.policy.max_attempts {
                self.instruments.retries.inc();
                let delay = self.backoff_ms(attempt);
                backoff_ms_total += delay;
                if sleep_on_clock {
                    self.clock.sleep_ms(delay);
                }
            }
        }
        Err(RsfError::Exhausted {
            attempts,
            last: Box::new(last_err),
        })
    }
}
