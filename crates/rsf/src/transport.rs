//! Sans-IO feed distribution: a publisher holding a signed message log
//! and subscribers that poll it.
//!
//! Following the smoltcp school of protocol design, this layer is pure
//! state-machine logic — *when* a subscriber polls (hourly, as the paper
//! proposes for systemd RSF clients; monthly, like a laggy derivative) is
//! the caller's decision, which is exactly the knob the staleness
//! experiment (E5) turns.

use crate::feed::{Delta, Snapshot};
use crate::quorum::{QuorumAuthority, RotationEvent};
use crate::signing::{FeedKey, MessageKind, SignedMessage};
use crate::translog::{Checkpoint, TransparencyLog};
use crate::RsfError;
use nrslb_crypto::merkle::ConsistencyProof;
use nrslb_rootstore::RootStore;
use rand::prelude::*;

/// A primary operator's feed: the current store state plus a log of
/// signed messages subscribers can fetch.
pub struct FeedPublisher {
    name: String,
    key: FeedKey,
    /// State as of the latest published message.
    published_store: RootStore,
    sequence: u64,
    /// Signed deltas, contiguous and ending at `sequence`: `deltas[i]`
    /// runs from `base + i` to `base + i + 1`, where
    /// `base = sequence - deltas.len()`.
    deltas: Vec<SignedMessage>,
    /// The most recent full snapshot (always available for bootstrap).
    snapshot: SignedMessage,
    snapshot_sequence: u64,
    /// Transparency log over every published message (§4 "immutable
    /// logs"); checkpoints are cached so polling does not consume
    /// one-time signatures.
    translog: TransparencyLog,
    cached_checkpoint: Option<Checkpoint>,
    /// The k-of-n coordinating body: it endorsed the feed key and
    /// witnesses every checkpoint.
    authority: QuorumAuthority,
    /// Every rotation ceremony this feed has run, oldest first.
    /// Retained forever and served on every fetch — subscribers apply
    /// them idempotently, so redelivery is free.
    rotations: Vec<RotationEvent>,
}

impl FeedPublisher {
    /// Create a feed publishing `initial` as snapshot sequence 1. The
    /// feed key must already carry a quorum endorsement (see
    /// [`FeedKey::new_quorum`]) and every checkpoint is witnessed by
    /// `authority`.
    pub fn new_quorum(
        name: &str,
        key: FeedKey,
        authority: QuorumAuthority,
        initial: &RootStore,
        now: i64,
    ) -> Result<FeedPublisher, RsfError> {
        let snap = Snapshot::capture(name, 1, now, initial);
        let signed = key.sign(MessageKind::Snapshot, &snap.encode())?;
        let mut translog = TransparencyLog::new();
        translog.append(&signed);
        Ok(FeedPublisher {
            name: name.to_string(),
            key,
            published_store: initial.clone(),
            sequence: 1,
            deltas: Vec::new(),
            snapshot: signed,
            snapshot_sequence: 1,
            translog,
            cached_checkpoint: None,
            authority,
            rotations: Vec::new(),
        })
    }

    /// The feed's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current sequence number.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Publish the difference between the published state and `new`.
    /// No-op (returns `false`) when nothing changed.
    pub fn publish(&mut self, new: &RootStore, now: i64) -> Result<bool, RsfError> {
        let delta = Delta::between(
            &self.published_store,
            new,
            self.sequence,
            self.sequence + 1,
            now,
        );
        if delta.is_empty() {
            return Ok(false);
        }
        let signed = self.key.sign(MessageKind::Delta, &delta.encode())?;
        self.translog.append(&signed);
        self.deltas.push(signed);
        self.sequence += 1;
        self.published_store = new.clone();
        Ok(true)
    }

    /// Publish a fresh full snapshot at the current sequence (bootstrap
    /// aid; also lets the publisher prune old deltas).
    pub fn publish_snapshot(&mut self, now: i64) -> Result<(), RsfError> {
        let snap = Snapshot::capture(&self.name, self.sequence, now, &self.published_store);
        self.snapshot = self.key.sign(MessageKind::Snapshot, &snap.encode())?;
        self.translog.append(&self.snapshot);
        self.snapshot_sequence = self.sequence;
        Ok(())
    }

    /// The current transparency-log checkpoint (signed once per log
    /// growth and cached, so polls do not consume one-time signatures —
    /// neither the feed key's nor the quorum signers').
    pub fn checkpoint(&mut self) -> Result<Checkpoint, RsfError> {
        Ok(self.checkpoint_ref()?.clone())
    }

    /// Whether [`FeedPublisher::checkpoint`] would serve from its
    /// cache — i.e. the transparency log has not grown since the last
    /// signed checkpoint. The distribution node's inline guard uses
    /// this to keep checkpoint signing (one-time hash-based
    /// signatures, milliseconds of work) off the event loop.
    pub fn checkpoint_is_cached(&self) -> bool {
        self.cached_checkpoint
            .as_ref()
            .is_some_and(|c| c.size == self.translog.len())
    }

    /// Borrowed view of the (refreshed-if-stale) cached checkpoint, so
    /// the warm sync path can compare content without cloning the
    /// artifact — a quorum witness carries `k` hash-based signatures
    /// and is multi-KB, which dominates an idle poll if copied.
    pub(crate) fn checkpoint_ref(&mut self) -> Result<&Checkpoint, RsfError> {
        let current = self.translog.len();
        if self
            .cached_checkpoint
            .as_ref()
            .is_none_or(|c| c.size != current)
        {
            self.cached_checkpoint = Some(self.translog.checkpoint(&self.key, &self.authority)?);
        }
        Ok(self.cached_checkpoint.as_ref().expect("just cached"))
    }

    /// Every rotation ceremony this feed has run, oldest first.
    pub fn rotations(&self) -> &[RotationEvent] {
        &self.rotations
    }

    /// Run a share-rotation ceremony:
    /// recover the master from `k` shares, derive the next epoch's
    /// signer set, record the outgoing quorum's approval in the
    /// transparency log, re-endorse the feed key at the new epoch, and
    /// re-baseline with a fresh snapshot so every message served from
    /// here on carries a new-epoch endorsement (laggards hit the
    /// ordinary snapshot-fallback path). The feed sequence does not
    /// advance — rotation changes who vouches, not what is vouched for.
    pub fn rotate(&mut self, now: i64) -> Result<&RotationEvent, RsfError> {
        let event = self.authority.rotate(now)?;
        self.translog.append_rotation(&event);
        self.rotations.push(event);
        self.key.re_endorse(&self.authority)?;
        self.publish_snapshot(now)?;
        self.prune();
        Ok(self.rotations.last().expect("just pushed"))
    }

    /// Consistency proof extending a subscriber's pinned checkpoint.
    pub fn prove_extension(&self, old_size: u64) -> Option<ConsistencyProof> {
        self.translog
            .prove_consistency(old_size, self.translog.len())
    }

    /// The sequence the oldest retained delta starts from (the deltas
    /// are contiguous and end at the current sequence).
    fn delta_base(&self) -> u64 {
        self.sequence - self.deltas.len() as u64
    }

    /// Drop deltas at or below the latest snapshot's sequence.
    pub fn prune(&mut self) {
        let stale = self.snapshot_sequence.saturating_sub(self.delta_base());
        self.deltas.drain(..stale as usize);
    }

    /// What a subscriber at `have_sequence` should fetch: either the
    /// deltas that bring it current, or (after a gap/bootstrap) the
    /// latest snapshot plus subsequent deltas.
    pub fn fetch(&self, have_sequence: u64) -> Vec<&SignedMessage> {
        if have_sequence == self.sequence {
            return Vec::new();
        }
        // The base is at least 1, so a bootstrapping subscriber (at 0)
        // never takes the delta path.
        let base = self.delta_base();
        if (base..self.sequence).contains(&have_sequence) {
            return self.deltas[(have_sequence - base) as usize..]
                .iter()
                .collect();
        }
        // Bootstrap or gap: snapshot, then deltas after it.
        let after_snapshot = self.snapshot_sequence.saturating_sub(base) as usize;
        std::iter::once(&self.snapshot)
            .chain(&self.deltas[after_snapshot..])
            .collect()
    }
}

/// Result of one subscriber poll.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncReport {
    /// Deltas applied.
    pub deltas_applied: usize,
    /// Whether a full snapshot was applied first.
    pub snapshot_applied: bool,
    /// Sequence after syncing.
    pub sequence: u64,
    /// Bytes transferred (payloads + signatures), for the delta-vs-
    /// snapshot bandwidth ablation.
    pub bytes_transferred: usize,
}

/// Per-frame fault probabilities for a simulated lossy channel.
///
/// Each probability is applied independently per frame in
/// [`FaultInjector::transmit`]; all draws come from a deterministic
/// seeded generator, so a `(plan, seed)` pair replays exactly.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is delayed to the *next* transmit call.
    pub delay: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a delivered frame is truncated at a random point.
    pub truncate: f64,
    /// Probability a delivered frame has one random bit flipped.
    pub bit_flip: f64,
    /// Seed for the injector's deterministic generator.
    pub seed: u64,
}

impl FaultPlan {
    /// A perfectly clean channel.
    pub fn none() -> FaultPlan {
        FaultPlan {
            drop: 0.0,
            delay: 0.0,
            duplicate: 0.0,
            truncate: 0.0,
            bit_flip: 0.0,
            seed: 0,
        }
    }

    /// A uniformly lossy channel: every fault mode at probability
    /// `rate` (the "30% of messages are damaged somehow" scenario).
    pub fn lossy(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan {
            drop: rate,
            delay: rate,
            duplicate: rate,
            truncate: rate,
            bit_flip: rate,
            seed,
        }
    }
}

/// Applies a [`FaultPlan`] to frames in flight. Delayed frames are
/// buffered and delivered (ahead of new traffic, i.e. reordered) on
/// the next [`FaultInjector::transmit`] call.
pub struct FaultInjector {
    plan: FaultPlan,
    rng: StdRng,
    delayed: Vec<Vec<u8>>,
}

impl FaultInjector {
    /// An injector executing `plan` with its embedded seed.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            rng: StdRng::seed_from_u64(plan.seed),
            delayed: Vec::new(),
        }
    }

    /// The plan this injector executes (its `seed` is what a bench
    /// must record for an exact replay).
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Frames delayed out of past transmits and not yet delivered.
    pub fn in_flight(&self) -> usize {
        self.delayed.len()
    }

    fn damage(&mut self, frame: &mut Vec<u8>) {
        if !frame.is_empty() && self.rng.gen_bool(self.plan.truncate) {
            let cut = self.rng.gen_range(0..frame.len());
            frame.truncate(cut);
        }
        if !frame.is_empty() && self.rng.gen_bool(self.plan.bit_flip) {
            let byte = self.rng.gen_range(0..frame.len());
            let bit = self.rng.gen_range(0u8..8);
            frame[byte] ^= 1 << bit;
        }
    }

    /// Push `frames` through the faulty channel, returning what the
    /// receiver actually sees (in order: previously delayed traffic,
    /// then the survivors of this batch).
    pub fn transmit(&mut self, frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = std::mem::take(&mut self.delayed);
        for frame in frames {
            if self.rng.gen_bool(self.plan.drop) {
                continue;
            }
            let duplicate = self.rng.gen_bool(self.plan.duplicate);
            let delay = self.rng.gen_bool(self.plan.delay);
            let mut delivered = frame.clone();
            self.damage(&mut delivered);
            if delay {
                self.delayed.push(delivered);
            } else {
                out.push(delivered);
            }
            if duplicate {
                let mut copy = frame;
                self.damage(&mut copy);
                out.push(copy);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::QuorumConfig;
    use crate::signing::FeedTrust;
    use crate::sync::Subscriber;
    use nrslb_crypto::sha256::sha256;
    use nrslb_rootstore::TrustStatus;
    use nrslb_x509::testutil::simple_chain;

    fn authority(seed: u8) -> QuorumAuthority {
        QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 4).unwrap()
    }

    fn setup(initial: &RootStore) -> (FeedPublisher, Subscriber) {
        let authority = authority(1);
        let key = FeedKey::new_quorum([2; 32], 8, &authority).unwrap();
        let trust = FeedTrust::quorum(authority.trust());
        let publisher = FeedPublisher::new_quorum("nss", key, authority, initial, 0).unwrap();
        let subscriber = Subscriber::builder("debian", trust).build();
        (publisher, subscriber)
    }

    /// The decode-based rule [`FeedPublisher::fetch`] replaced, kept as
    /// its reference: it reads each delta's sequence numbers from its
    /// payload instead of from its position.
    fn fetch_by_decoding(p: &FeedPublisher, have_sequence: u64) -> Vec<&SignedMessage> {
        let decode = |m: &SignedMessage| Delta::decode(&m.payload).expect("own log");
        if have_sequence == p.sequence {
            return Vec::new();
        }
        let wanted: Vec<&SignedMessage> = p
            .deltas
            .iter()
            .filter(|m| decode(m).to_sequence > have_sequence)
            .collect();
        let contiguous = wanted
            .first()
            .map(|m| decode(m).from_sequence <= have_sequence);
        if have_sequence > 0 && contiguous == Some(true) {
            wanted
        } else {
            let mut out = vec![&p.snapshot];
            out.extend(
                p.deltas
                    .iter()
                    .filter(|m| decode(m).from_sequence >= p.snapshot_sequence),
            );
            out
        }
    }

    #[test]
    fn fetch_by_position_matches_fetch_by_decoding() {
        let mut store = RootStore::new("nss");
        store
            .add_trusted(simple_chain("feed-pos.example").root)
            .unwrap();
        let (mut publisher, _) = setup(&store);
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for step in 0..60i64 {
            match rng.gen_range(0..6) {
                0 => publisher.publish_snapshot(step).unwrap(),
                1 => publisher.prune(),
                _ => {
                    store.distrust(sha256(step.to_le_bytes()), "incident");
                    assert!(publisher.publish(&store, step).unwrap());
                }
            }
            for have in 0..=publisher.sequence() + 1 {
                let by_position: Vec<*const SignedMessage> = publisher
                    .fetch(have)
                    .into_iter()
                    .map(|m| m as *const _)
                    .collect();
                let by_decoding: Vec<*const SignedMessage> = fetch_by_decoding(&publisher, have)
                    .into_iter()
                    .map(|m| m as *const _)
                    .collect();
                assert_eq!(by_position, by_decoding, "step {step}, have {have}");
            }
        }
    }

    #[test]
    fn bootstrap_sync_applies_snapshot() {
        let a = simple_chain("feed-a.example");
        let mut store = RootStore::new("nss");
        store.add_trusted(a.root.clone()).unwrap();
        let (mut publisher, mut subscriber) = setup(&store);

        let report = subscriber.sync(&mut publisher, 0).unwrap();
        assert!(report.snapshot_applied);
        assert_eq!(report.sequence, 1);
        assert_eq!(
            subscriber.store().status(&a.root.fingerprint()),
            TrustStatus::Trusted
        );
        // A second poll is a no-op.
        let report = subscriber.sync(&mut publisher, 0).unwrap();
        assert_eq!(report.deltas_applied, 0);
        assert!(!report.snapshot_applied);
    }

    #[test]
    fn incremental_deltas() {
        let a = simple_chain("feed-b.example");
        let b = simple_chain("feed-c.example");
        let mut store = RootStore::new("nss");
        store.add_trusted(a.root.clone()).unwrap();
        let (mut publisher, mut subscriber) = setup(&store);
        subscriber.sync(&mut publisher, 0).unwrap();

        // Change 1: add a root.
        store.add_trusted(b.root.clone()).unwrap();
        assert!(publisher.publish(&store, 10).unwrap());
        // Change 2: distrust the first.
        store.distrust(a.root.fingerprint(), "incident");
        assert!(publisher.publish(&store, 20).unwrap());
        // No change: nothing published.
        assert!(!publisher.publish(&store, 30).unwrap());

        let report = subscriber.sync(&mut publisher, 0).unwrap();
        assert_eq!(report.deltas_applied, 2);
        assert!(!report.snapshot_applied);
        assert_eq!(report.sequence, 3);
        assert_eq!(
            subscriber.store().status(&a.root.fingerprint()),
            TrustStatus::Distrusted
        );
        assert_eq!(
            subscriber.store().status(&b.root.fingerprint()),
            TrustStatus::Trusted
        );
    }

    #[test]
    fn gcc_distribution_via_feed() {
        use nrslb_rootstore::{Gcc, GccMetadata};
        let a = simple_chain("feed-gcc.example");
        let mut store = RootStore::new("nss");
        store.add_trusted(a.root.clone()).unwrap();
        let (mut publisher, mut subscriber) = setup(&store);
        subscriber.sync(&mut publisher, 0).unwrap();

        let gcc = Gcc::parse(
            "partial-distrust",
            a.root.fingerprint(),
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata {
                justification: "limit to TLS".into(),
                ..Default::default()
            },
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();
        publisher.publish(&store, 50).unwrap();

        subscriber.sync(&mut publisher, 0).unwrap();
        let gccs = subscriber.store().gccs_for(&a.root.fingerprint());
        assert_eq!(gccs.len(), 1);
        assert_eq!(gccs[0].name(), "partial-distrust");
        assert_eq!(gccs[0].metadata().justification, "limit to TLS");
    }

    #[test]
    fn pruned_log_falls_back_to_snapshot() {
        let a = simple_chain("feed-prune.example");
        let b = simple_chain("feed-prune2.example");
        let mut store = RootStore::new("nss");
        store.add_trusted(a.root.clone()).unwrap();
        let (mut publisher, mut subscriber) = setup(&store);

        store.add_trusted(b.root.clone()).unwrap();
        publisher.publish(&store, 10).unwrap();
        publisher.publish_snapshot(15).unwrap();
        publisher.prune();
        store.distrust(a.root.fingerprint(), "x");
        publisher.publish(&store, 20).unwrap();

        // Subscriber at 0 must bootstrap from the snapshot then apply the
        // newer delta.
        let report = subscriber.sync(&mut publisher, 0).unwrap();
        assert!(report.snapshot_applied);
        assert_eq!(report.deltas_applied, 1);
        assert_eq!(report.sequence, 3);
        assert_eq!(
            subscriber.store().status(&a.root.fingerprint()),
            TrustStatus::Distrusted
        );
    }

    #[test]
    fn forged_message_rejected_without_state_change() {
        let a = simple_chain("feed-forge.example");
        let mut store = RootStore::new("nss");
        store.add_trusted(a.root.clone()).unwrap();
        let (mut publisher, _) = setup(&store);

        // Subscriber trusting a different quorum.
        let other = FeedTrust::quorum(authority(7).trust());
        let mut victim = Subscriber::builder("victim", other).build();
        let err = victim.sync(&mut publisher, 0);
        assert!(matches!(err, Err(RsfError::BadSignature(_))));
        assert_eq!(victim.sequence(), 0);
        assert!(victim.store().is_empty());
    }

    #[test]
    fn bandwidth_reported() {
        let a = simple_chain("feed-bw.example");
        let mut store = RootStore::new("nss");
        store.add_trusted(a.root.clone()).unwrap();
        let (mut publisher, mut subscriber) = setup(&store);
        let report = subscriber.sync(&mut publisher, 0).unwrap();
        assert!(report.bytes_transferred > 1000); // snapshot with one root + sigs
    }
}
