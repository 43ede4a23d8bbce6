//! The miniature ecosystem: one primary, N heterogeneous subscribers,
//! an evolving store, all driven by virtual time.
//!
//! An [`Ecosystem`] wires together a [`SimClock`], a
//! seeded [`Scheduler`], a
//! [`ChainGenerator`]-minted root pool, one
//! [`FeedPublisher`] and a fleet of [`Subscriber`]s — each with its own
//! [`SyncPolicy`], poll cadence and per-channel [`FaultInjector`]. Each
//! [`Ecosystem::step`] pops the next scheduled event, advances the
//! shared clock to its instant and executes it: the primary evolves
//! (distrusts, re-adds, attaches GCC templates) and publishes; a
//! subscriber polls through its lossy channel; or — when configured — a
//! forged split-view is presented to a victim subscriber, which must
//! quarantine. Every action appends one line to an event trace, the
//! raw material for the differential oracle's repro dumps.

use crate::chaingen::{ChainGenConfig, ChainGenerator, SampleChain};
use crate::schedule::{Scheduler, SimClock};
use nrslb_crypto::sha256;
use nrslb_crypto::Digest;
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_rsf::signing::MessageKind;
use nrslb_rsf::{
    Delta, FaultInjector, FaultPlan, FeedKey, FeedPublisher, FeedTrust, QuorumAuthority,
    QuorumConfig, QuorumSignature, Subscriber, SyncPolicy, SyncState, TransparencyLog,
};
use rand::prelude::*;

/// The coordinating body behind the simulated feed: 2 of 3 members
/// endorse the feed key and witness every checkpoint.
const QUORUM: QuorumConfig = QuorumConfig { k: 2, n: 3 };

/// One-time-signature tree height for simulated quorum signer keys:
/// 256 signatures per signer per epoch covers every witnessed
/// checkpoint of a 1,000-event run plus a 100-attempt forgery barrage,
/// while keeping quorum key generation cheap enough for debug-build
/// tests.
const SIM_SIGNER_HEIGHT: u8 = 8;

/// One subscriber's knobs: how often it polls, how lossy its channel
/// is, and how patient its retry/staleness policy is.
#[derive(Clone, Debug)]
pub struct SubscriberSpec {
    /// Store name (also the trace label).
    pub name: String,
    /// Seconds between scheduled polls.
    pub poll_interval_secs: i64,
    /// Per-frame probability of each transport fault mode.
    pub fault_rate: f64,
    /// Retry budget per poll.
    pub max_attempts: u32,
    /// Staleness bound for served stores.
    pub staleness_bound_secs: i64,
}

impl SubscriberSpec {
    /// A sensible default spec under `name`.
    pub fn named(name: &str) -> SubscriberSpec {
        SubscriberSpec {
            name: name.to_string(),
            poll_interval_secs: 3_600,
            fault_rate: 0.0,
            max_attempts: 6,
            staleness_bound_secs: 86_400,
        }
    }

    /// Builder-style: set the poll interval.
    pub fn polling_every(mut self, secs: i64) -> SubscriberSpec {
        self.poll_interval_secs = secs;
        self
    }

    /// Builder-style: set the channel fault rate.
    pub fn with_fault_rate(mut self, rate: f64) -> SubscriberSpec {
        self.fault_rate = rate;
        self
    }

    /// Builder-style: set the staleness bound.
    pub fn with_staleness_bound(mut self, secs: i64) -> SubscriberSpec {
        self.staleness_bound_secs = secs;
        self
    }
}

/// Configuration of a whole simulated ecosystem.
#[derive(Clone, Debug)]
pub struct EcosystemConfig {
    /// Master seed: drives store evolution, channel faults, jitter and
    /// the chain generator (via derived sub-seeds).
    pub seed: u64,
    /// Virtual start time (unix-like seconds).
    pub epoch_secs: i64,
    /// Seconds between primary publish cycles.
    pub publish_interval_secs: i64,
    /// Every Nth publish is a full snapshot followed by delta pruning,
    /// forcing snapshot fallbacks on laggards.
    pub snapshot_every: u64,
    /// Probability a publish cycle distrusts a currently-trusted root.
    pub distrust_probability: f64,
    /// Probability a publish cycle re-adds a distrusted root
    /// (override), modelling derivative churn.
    pub readd_probability: f64,
    /// Probability a publish cycle attaches a fresh GCC template.
    pub gcc_attach_probability: f64,
    /// GCC templates attached to every pool root *before* the first
    /// publish (capped at 4 per root). Zero means all coverage comes
    /// from evolution; the differential bench pre-seeds coverage so its
    /// check floor is reached without waiting for attach events.
    pub initial_gccs_per_root: usize,
    /// The subscriber fleet.
    pub subscribers: Vec<SubscriberSpec>,
    /// When set, a forged split-view is presented to subscriber 0 at
    /// this absolute virtual time (it must quarantine).
    pub split_view_attack_at_secs: Option<i64>,
    /// When set, a share-rotation ceremony runs at this absolute
    /// virtual time and flows through the feed.
    pub rotate_at_secs: Option<i64>,
    /// When set, a compromised minority of `k-1` signers stages forged
    /// checkpoints at this virtual time; every presentation must be
    /// rejected ([`Ecosystem::forged_accepted`]).
    pub minority_attack: Option<MinorityAttack>,
    /// PKI sizing for the chain generator (its seed is overridden with
    /// one derived from `seed`).
    pub chains: ChainGenConfig,
}

/// Parameters of the compromised-minority scenario: an attacker holding
/// `k-1` signers' keys and shares (rebuilt from the deterministic
/// derivation, mirroring how the split-view attack rebuilds the feed
/// key) stages forged checkpoints against both a pinned fleet member
/// and a fresh bootstrapping victim.
#[derive(Clone, Copy, Debug)]
pub struct MinorityAttack {
    /// Absolute virtual time of the attack.
    pub at_secs: i64,
    /// Forged-checkpoint presentations to stage (each counted in
    /// [`Ecosystem::forged_attempts`]).
    pub attempts: u32,
}

impl Default for EcosystemConfig {
    fn default() -> EcosystemConfig {
        EcosystemConfig {
            seed: 0xec0_515,
            epoch_secs: nrslb_x509::testutil::T0,
            publish_interval_secs: 1_800,
            snapshot_every: 5,
            distrust_probability: 0.2,
            readd_probability: 0.15,
            gcc_attach_probability: 0.6,
            initial_gccs_per_root: 0,
            subscribers: vec![
                SubscriberSpec::named("mirror").polling_every(1_800),
                SubscriberSpec::named("laggard")
                    .polling_every(7_200)
                    .with_fault_rate(0.3),
                SubscriberSpec::named("flaky")
                    .polling_every(3_600)
                    .with_fault_rate(0.6)
                    .with_staleness_bound(7_200),
            ],
            split_view_attack_at_secs: None,
            rotate_at_secs: None,
            minority_attack: None,
            chains: ChainGenConfig::default(),
        }
    }
}

/// The scheduled event kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EcoEvent {
    /// A primary publish cycle (evolve + publish).
    Evolve,
    /// Subscriber `i` polls its channel.
    Poll(usize),
    /// The split-view attack against subscriber 0.
    Attack,
    /// A quorum share-rotation ceremony on the primary.
    Rotate,
    /// The compromised-minority forged-checkpoint barrage.
    MinorityAttack,
}

struct SubscriberSlot {
    subscriber: Subscriber,
    injector: FaultInjector,
    spec: SubscriberSpec,
}

/// The wired-up simulation (see module docs).
pub struct Ecosystem {
    config: EcosystemConfig,
    clock: SimClock,
    scheduler: Scheduler<EcoEvent>,
    rng: StdRng,
    truth: RootStore,
    publisher: FeedPublisher,
    feed_seed: [u8; 32],
    quorum_seed: [u8; 32],
    trust: FeedTrust,
    slots: Vec<SubscriberSlot>,
    generator: ChainGenerator,
    /// Ordered pool-root fingerprints — seeded choices must never
    /// iterate the store's hash map.
    pool: Vec<Digest>,
    trace: Vec<String>,
    publishes: u64,
    gccs_attached: u64,
    attack_done: bool,
    forged_attempts: u64,
    forged_accepted: u64,
    minority_attack_done: bool,
}

impl Ecosystem {
    /// Build the PKI, the primary, the fleet, and the initial schedule.
    pub fn new(config: &EcosystemConfig) -> Ecosystem {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let clock = SimClock::starting_at(config.epoch_secs);
        let mut gen_config = config.chains;
        gen_config.seed = config.seed ^ 0xc4a1_97e5;
        let generator = ChainGenerator::new(&gen_config, config.epoch_secs);

        let mut feed_seed = [0u8; 32];
        rng.fill(&mut feed_seed);
        let mut quorum_seed = [0u8; 32];
        rng.fill(&mut quorum_seed);

        let mut truth = RootStore::new("primary");
        let mut pool = Vec::new();
        for root in generator.trusted_roots() {
            pool.push(root.fingerprint());
            truth.add_trusted(root).expect("pool root");
        }
        let mut gccs_attached = 0u64;
        for fp in &pool {
            for _ in 0..config.initial_gccs_per_root.min(4) {
                let gcc = gcc_template(gccs_attached, *fp, config.epoch_secs);
                truth.attach_gcc(gcc).expect("initial GCC");
                gccs_attached += 1;
            }
        }
        let authority = QuorumAuthority::from_seed(quorum_seed, QUORUM, SIM_SIGNER_HEIGHT)
            .expect("quorum authority");
        let trust = FeedTrust::quorum(authority.trust());
        let feed_key = FeedKey::new_quorum(feed_seed, 12, &authority).expect("feed key");
        let publisher =
            FeedPublisher::new_quorum("primary", feed_key, authority, &truth, config.epoch_secs)
                .expect("publisher");

        let mut scheduler = Scheduler::new();
        scheduler.schedule_at_secs(
            config.epoch_secs + config.publish_interval_secs,
            EcoEvent::Evolve,
        );
        let mut slots = Vec::with_capacity(config.subscribers.len());
        for (i, spec) in config.subscribers.iter().enumerate() {
            let subscriber = Subscriber::builder(&spec.name, trust.clone())
                .policy(SyncPolicy {
                    max_attempts: spec.max_attempts,
                    base_backoff_ms: 50,
                    max_backoff_ms: 5_000,
                    staleness_bound_secs: spec.staleness_bound_secs,
                    jitter_seed: config.seed ^ (i as u64),
                    ..SyncPolicy::default()
                })
                .clock(clock.handle())
                .build();
            let injector = FaultInjector::new(FaultPlan::lossy(
                spec.fault_rate,
                config.seed ^ 0x1f1f ^ ((i as u64) << 8),
            ));
            // Stagger first polls by a second each so same-instant ties
            // never depend on fleet ordering quirks.
            scheduler.schedule_at_secs(config.epoch_secs + 1 + i as i64, EcoEvent::Poll(i));
            slots.push(SubscriberSlot {
                subscriber,
                injector,
                spec: spec.clone(),
            });
        }
        if let Some(at) = config.split_view_attack_at_secs {
            scheduler.schedule_at_secs(at, EcoEvent::Attack);
        }
        if let Some(at) = config.rotate_at_secs {
            scheduler.schedule_at_secs(at, EcoEvent::Rotate);
        }
        if let Some(attack) = config.minority_attack {
            scheduler.schedule_at_secs(attack.at_secs, EcoEvent::MinorityAttack);
        }

        Ecosystem {
            config: config.clone(),
            clock,
            scheduler,
            rng,
            truth,
            publisher,
            feed_seed,
            quorum_seed,
            trust,
            slots,
            generator,
            pool,
            trace: Vec::new(),
            publishes: 0,
            gccs_attached,
            attack_done: false,
            forged_attempts: 0,
            forged_accepted: 0,
            minority_attack_done: false,
        }
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Current virtual time in seconds.
    pub fn now_secs(&self) -> i64 {
        self.clock.now_secs()
    }

    /// The primary's (ground-truth) store.
    pub fn truth(&self) -> &RootStore {
        &self.truth
    }

    /// The primary's feed sequence.
    pub fn publisher_sequence(&self) -> u64 {
        self.publisher.sequence()
    }

    /// Number of subscribers in the fleet.
    pub fn subscriber_count(&self) -> usize {
        self.slots.len()
    }

    /// Subscriber `i`'s sync engine (read-only).
    pub fn subscriber(&self, i: usize) -> &Subscriber {
        &self.slots[i].subscriber
    }

    /// Subscriber `i`'s spec.
    pub fn subscriber_spec(&self, i: usize) -> &SubscriberSpec {
        &self.slots[i].spec
    }

    /// GCC templates attached to the truth store so far.
    pub fn gccs_attached(&self) -> u64 {
        self.gccs_attached
    }

    /// True once the configured split-view attack has been delivered.
    pub fn attack_done(&self) -> bool {
        self.attack_done
    }

    /// Forged-checkpoint presentations staged by the compromised
    /// minority so far.
    pub fn forged_attempts(&self) -> u64 {
        self.forged_attempts
    }

    /// Forged-checkpoint presentations a subscriber ACCEPTED — any
    /// non-zero value is a soundness violation of the quorum scheme.
    pub fn forged_accepted(&self) -> u64 {
        self.forged_accepted
    }

    /// True once the configured compromised-minority attack has run.
    pub fn minority_attack_done(&self) -> bool {
        self.minority_attack_done
    }

    /// The full event trace (one line per executed event).
    pub fn trace(&self) -> &[String] {
        &self.trace
    }

    /// The most recent `n` trace lines (for bounded repro dumps).
    pub fn recent_trace(&self, n: usize) -> Vec<String> {
        let start = self.trace.len().saturating_sub(n);
        self.trace[start..].to_vec()
    }

    /// Draw the next sample chain at the current virtual instant.
    pub fn next_sample(&mut self) -> SampleChain {
        let now = self.clock.now_secs();
        self.generator.next_sample(now)
    }

    /// Pop and execute the next scheduled event, advancing the clock to
    /// its instant. Returns the executed event, or `None` if the
    /// schedule ever drained (recurring events make that unreachable in
    /// practice).
    pub fn step(&mut self) -> Option<EcoEvent> {
        let (at_millis, event) = self.scheduler.pop()?;
        self.clock.advance_to_millis(at_millis);
        match event {
            EcoEvent::Evolve => self.evolve(),
            EcoEvent::Poll(i) => self.poll(i),
            EcoEvent::Attack => self.attack_split_view(0),
            EcoEvent::Rotate => self.rotate_quorum(),
            EcoEvent::MinorityAttack => self.attack_minority(),
        }
        Some(event)
    }

    fn evolve(&mut self) {
        let now = self.clock.now_secs();
        let mut actions = Vec::new();
        if self.rng.gen_bool(self.config.distrust_probability) {
            let idx = self.rng.gen_range(0usize..self.pool.len());
            let fp = self.pool[idx];
            if self.truth.record(&fp).is_some() {
                self.truth
                    .distrust(fp, format!("simulated incident at t={now}"));
                actions.push(format!("distrust root#{idx}"));
            }
        }
        if self.rng.gen_bool(self.config.readd_probability) {
            let idx = self.rng.gen_range(0usize..self.pool.len());
            let fp = self.pool[idx];
            if self.truth.record(&fp).is_none() {
                let cert = self
                    .generator
                    .trusted_roots()
                    .into_iter()
                    .find(|c| c.fingerprint() == fp)
                    .expect("pool cert");
                if self.truth.add_trusted_overriding(cert).is_ok() {
                    actions.push(format!("re-add root#{idx}"));
                }
            }
        }
        if self.rng.gen_bool(self.config.gcc_attach_probability) {
            let idx = self.rng.gen_range(0usize..self.pool.len());
            let fp = self.pool[idx];
            if self.truth.record(&fp).is_some() && self.truth.gccs_for(&fp).len() < 4 {
                let gcc = self.next_gcc_template(fp, now);
                let name = gcc.name().to_string();
                if self.truth.attach_gcc(gcc).is_ok() {
                    self.gccs_attached += 1;
                    actions.push(format!("attach {name} to root#{idx}"));
                }
            }
        }
        self.publishes += 1;
        self.publisher.publish(&self.truth, now).expect("publish");
        if self.publishes.is_multiple_of(self.config.snapshot_every) {
            // Re-baseline on a snapshot and drop old deltas so laggards
            // must exercise the snapshot-fallback path.
            self.publisher.publish_snapshot(now).expect("snapshot");
            self.publisher.prune();
            actions.push("snapshot+prune".to_string());
        }
        self.trace.push(format!(
            "t={now} evolve seq={} [{}]",
            self.publisher.sequence(),
            actions.join(", ")
        ));
        self.scheduler
            .schedule_at_secs(now + self.config.publish_interval_secs, EcoEvent::Evolve);
    }

    fn poll(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        let outcome = slot
            .subscriber
            .sync_resilient_now(&mut self.publisher, &mut slot.injector);
        let now = self.clock.now_secs();
        let line = match outcome {
            Ok(r) => format!(
                "t={now} poll {} seq={} attempts={}",
                slot.spec.name, r.report.sequence, r.attempts
            ),
            Err(e) => format!("t={now} poll {} failed: {e}", slot.spec.name),
        };
        self.trace.push(line);
        self.scheduler
            .schedule_at_secs(now + slot.spec.poll_interval_secs, EcoEvent::Poll(i));
    }

    /// Present a forged, history-rewriting feed to subscriber `victim`
    /// — correctly signed and quorum-witnessed over a rebuilt
    /// transparency log. The equivocator is the publisher itself: it
    /// rebuilds its feed key and its whole coordinating body from their
    /// seeds (fresh one-time-signature state), advanced through every
    /// rotation the feed has run. The subscriber must detect the split
    /// view and quarantine.
    fn attack_split_view(&mut self, victim: usize) {
        let now = self.clock.now_secs();
        let pinned_size = match self.slots[victim].subscriber.pinned_checkpoint() {
            Some(c) => c.size,
            None => {
                // Never synced: nothing pinned to fork from yet; retry
                // after the victim's next poll.
                let retry = now + self.slots[victim].spec.poll_interval_secs + 1;
                self.trace
                    .push(format!("t={now} attack deferred (victim unpinned)"));
                self.scheduler.schedule_at_secs(retry, EcoEvent::Attack);
                return;
            }
        };
        let mut authority = QuorumAuthority::from_seed(self.quorum_seed, QUORUM, SIM_SIGNER_HEIGHT)
            .expect("fork authority");
        for event in self.publisher.rotations() {
            authority
                .rotate(event.published_at)
                .expect("replayed rotation");
        }
        let fork_key = FeedKey::new_quorum(self.feed_seed, 12, &authority).expect("fork key");
        let mut forked_log = TransparencyLog::new();
        let mut evil = RootStore::new("primary");
        evil.distrust(sha256::sha256(b"attacker rewrite"), "attacker");
        let filler = Delta::between(&RootStore::new("primary"), &self.truth, 0, 1, now);
        let forged_filler = fork_key
            .sign(MessageKind::Delta, &filler.encode())
            .expect("sign filler");
        for _ in 0..=pinned_size {
            forked_log.append(&forged_filler);
        }
        let slot = &mut self.slots[victim];
        let next = Delta::between(
            slot.subscriber.store(),
            &evil,
            slot.subscriber.sequence(),
            slot.subscriber.sequence() + 1,
            now,
        );
        let forged_next = fork_key
            .sign(MessageKind::Delta, &next.encode())
            .expect("sign forged delta");
        forked_log.append(&forged_next);
        let forged_ckpt = forked_log
            .checkpoint(&fork_key, &authority)
            .expect("forged checkpoint");
        let forged_proof = forked_log.prove_consistency(pinned_size, forked_log.len());
        let result = slot
            .subscriber
            .poll(vec![forged_next], forged_ckpt, forged_proof, now);
        let quarantined = matches!(slot.subscriber.state(), SyncState::Quarantined { .. });
        self.attack_done = true;
        self.trace.push(format!(
            "t={now} attack on {}: poll_err={:?} quarantined={quarantined}",
            slot.spec.name,
            result.err().map(|e| e.to_string())
        ));
    }

    /// Run the scheduled share-rotation ceremony: the quorum recovers
    /// its master from k shares, derives the next signer set, and the
    /// outgoing quorum approves the hand-off through the transparency
    /// log (subscribers pick the event up on their next poll).
    fn rotate_quorum(&mut self) {
        let now = self.clock.now_secs();
        let epoch = match self.publisher.rotate(now) {
            Ok(event) => event.to_epoch,
            Err(e) => {
                self.trace.push(format!("t={now} rotate failed: {e}"));
                return;
            }
        };
        self.trace
            .push(format!("t={now} rotate quorum epoch={epoch}"));
    }

    /// Stage the compromised-minority barrage: an attacker holding
    /// `k-1` signers' keys and the feed seed (rebuilt from the
    /// deterministic derivation, like the split-view fork key) presents
    /// forged checkpoints to a fresh bootstrapping victim and to pinned
    /// fleet member 0. Forgery strategies cycle per attempt:
    /// an honest-but-sub-quorum witness, an empty witness, and a
    /// bitmap padded to `k` with a rogue-key partial. Every
    /// presentation must be rejected with a retryable signature error —
    /// never accepted, and never a quarantine of the honest fleet.
    fn attack_minority(&mut self) {
        let now = self.clock.now_secs();
        let Some(attack) = self.config.minority_attack else {
            return;
        };
        // The compromised minority: fresh one-time-signature state for
        // the k-1 leaked signer keys, at the genesis epoch they were
        // leaked in. Signer keys derive from the master seed alone, so
        // a (k-1)-of-n authority rebuilt from it signs with exactly the
        // leaked members' keys.
        let leaked = QuorumConfig {
            k: QUORUM.k - 1,
            n: QUORUM.n,
        };
        let compromised = QuorumAuthority::from_seed(self.quorum_seed, leaked, SIM_SIGNER_HEIGHT)
            .expect("compromised minority");
        let mut rogue =
            nrslb_crypto::hbs::Keypair::from_seed(*sha256::sha256(b"rogue signer").as_bytes(), 8)
                .expect("rogue signer");
        // The attacker replays the real feed's (public) quorum
        // endorsement, so the checkpoint witness is the only line of
        // defense being exercised.
        let honest_endorsement = self
            .publisher
            .fetch(0)
            .first()
            .expect("published message")
            .endorsement
            .clone();
        let fork_key = FeedKey::new_quorum(self.feed_seed, 12, &compromised).expect("fork key");
        let mut evil = RootStore::new("primary");
        evil.distrust(sha256::sha256(b"minority rewrite"), "attacker");
        let delta = Delta::between(&RootStore::new("primary"), &evil, 0, 1, now);
        let mut forged_msg = fork_key
            .sign(MessageKind::Delta, &delta.encode())
            .expect("sign forged delta");
        forged_msg.endorsement = honest_endorsement;
        let mut forked_log = TransparencyLog::new();
        forked_log.append(&forged_msg);
        let base_ckpt = forked_log
            .checkpoint(&fork_key, &compromised)
            .expect("forged checkpoint");
        let mut rejections: Vec<String> = Vec::new();
        for j in 0..attack.attempts {
            // Vary the witnessed bytes per attempt so every forgery
            // carries fresh partial signatures.
            let mut witnessed = base_ckpt.encode();
            witnessed.extend_from_slice(&j.to_le_bytes());
            let witness = match j % 3 {
                0 => compromised.sign(&witnessed).expect("minority partials"),
                1 => QuorumSignature {
                    epoch: compromised.epoch(),
                    bitmap: 0,
                    partials: Vec::new(),
                },
                _ => {
                    let mut qs = compromised.sign(&witnessed).expect("minority partials");
                    qs.bitmap |= 1 << leaked.k;
                    qs.partials
                        .push(rogue.sign(&witnessed).expect("rogue partial"));
                    qs
                }
            };
            let mut forged_ckpt = base_ckpt.clone();
            forged_ckpt.witness = witness;
            // A fresh bootstrapping victim: nothing pinned yet, so the
            // quorum witness is its only protection.
            let mut fresh = Subscriber::builder("fresh-victim", self.trust.clone())
                .clock(self.clock.handle())
                .build();
            self.forged_attempts += 1;
            match fresh.poll(vec![forged_msg.clone()], forged_ckpt.clone(), None, now) {
                Ok(_) => self.forged_accepted += 1,
                Err(e) => {
                    if rejections.len() < 3 {
                        rejections.push(e.to_string());
                    }
                }
            }
            // The pinned fleet member: must reject retryably, not
            // quarantine (the witness check fires before any
            // split-view history check).
            self.forged_attempts += 1;
            match self.slots[0]
                .subscriber
                .poll(vec![forged_msg.clone()], forged_ckpt, None, now)
            {
                Ok(_) => self.forged_accepted += 1,
                Err(e) => {
                    if rejections.len() < 3 {
                        rejections.push(e.to_string());
                    }
                }
            }
        }
        self.minority_attack_done = true;
        let quarantined = matches!(
            self.slots[0].subscriber.state(),
            SyncState::Quarantined { .. }
        );
        self.trace.push(format!(
            "t={now} minority attack: attempts={} accepted={} fleet_quarantined={quarantined} rejections={:?}",
            self.forged_attempts, self.forged_accepted, rejections
        ));
    }

    /// The next GCC template, parameterized by the current instant so
    /// successive attachments have distinct sources.
    fn next_gcc_template(&mut self, target: Digest, now: i64) -> Gcc {
        gcc_template(self.gccs_attached, target, now)
    }
}

/// The `n`th GCC template in a fixed 4-cycle of behaviourally distinct
/// constraints, targeted at `target` and stamped with `now` so
/// successive attachments have distinct sources.
fn gcc_template(n: u64, target: Digest, now: i64) -> Gcc {
    let (name, source) = match n % 4 {
        0 => (
            format!("cutoff-{n}"),
            format!(
                "cutoff({now}).\nvalid(Chain, _) :- leaf(Chain, C), notBefore(C, NB), cutoff(T), NB < T."
            ),
        ),
        1 => (
            format!("no-ev-tls-{n}"),
            concat!(
                "valid(Chain, \"TLS\") :- leaf(Chain, C), \\+EV(C).\n",
                "valid(Chain, \"S/MIME\") :- leaf(Chain, _)."
            )
            .to_string(),
        ),
        2 => (
            format!("example-tld-{n}"),
            concat!(
                "valid(Chain, \"TLS\") :- leaf(Chain, C), sanTld(C, \"example\").\n",
                "valid(Chain, \"S/MIME\") :- chain(Chain)."
            )
            .to_string(),
        ),
        _ => (
            format!("accept-all-{n}"),
            "valid(Chain, _) :- chain(Chain).".to_string(),
        ),
    };
    Gcc::parse(
        &name,
        target,
        &source,
        GccMetadata {
            justification: format!("simulated constraint {n}"),
            discussion_url: String::new(),
            created_at: now,
        },
    )
    .expect("template GCC parses")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drained(config: &EcosystemConfig, steps: usize) -> (Ecosystem, Vec<String>) {
        let mut eco = Ecosystem::new(config);
        for _ in 0..steps {
            eco.step();
        }
        let trace = eco.trace().to_vec();
        (eco, trace)
    }

    #[test]
    fn same_seed_same_trace() {
        let config = EcosystemConfig::default();
        let (_, a) = drained(&config, 120);
        let (_, b) = drained(&config, 120);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seed_different_trace() {
        let mut other = EcosystemConfig::default();
        other.seed ^= 1;
        let (_, a) = drained(&EcosystemConfig::default(), 120);
        let (_, b) = drained(&other, 120);
        assert_ne!(a, b);
    }

    #[test]
    fn faultless_subscriber_tracks_the_primary() {
        let config = EcosystemConfig {
            subscribers: vec![SubscriberSpec::named("mirror").polling_every(1_800)],
            ..EcosystemConfig::default()
        };
        let mut eco = Ecosystem::new(&config);
        for _ in 0..60 {
            eco.step();
        }
        // The mirror polls as often as the primary publishes, with no
        // channel faults: step to its next poll and it must be current.
        while !matches!(eco.step(), Some(EcoEvent::Poll(0))) {}
        assert_eq!(eco.subscriber(0).sequence(), eco.publisher_sequence());
        assert!(matches!(eco.subscriber(0).state(), SyncState::Live));
        assert!(eco.gccs_attached() > 0, "evolution must attach GCCs");
    }

    fn two_member_config() -> EcosystemConfig {
        EcosystemConfig {
            subscribers: vec![
                SubscriberSpec::named("mirror").polling_every(1_800),
                SubscriberSpec::named("laggard").polling_every(14_400),
            ],
            ..EcosystemConfig::default()
        }
    }

    #[test]
    fn rotation_flows_through_the_fleet() {
        let mut config = two_member_config();
        config.rotate_at_secs = Some(config.epoch_secs + 4 * 3_600);
        let mut eco = Ecosystem::new(&config);
        for _ in 0..200 {
            eco.step();
        }
        assert!(
            eco.trace()
                .iter()
                .any(|l| l.contains("rotate quorum epoch=2")),
            "rotation never ran: {:?}",
            eco.recent_trace(10)
        );
        // Both fleet members keep tracking the primary across the
        // rotation, and their pinned trust advanced to the new epoch.
        while !matches!(eco.step(), Some(EcoEvent::Poll(0))) {}
        assert_eq!(eco.subscriber(0).sequence(), eco.publisher_sequence());
        for i in 0..eco.subscriber_count() {
            assert_eq!(eco.subscriber(i).trust().pinned().epoch, 2);
        }
    }

    #[test]
    fn compromised_minority_never_forges_a_checkpoint() {
        let mut config = two_member_config();
        config.minority_attack = Some(MinorityAttack {
            at_secs: config.epoch_secs + 6 * 3_600,
            attempts: 30,
        });
        let mut eco = Ecosystem::new(&config);
        for _ in 0..400 {
            eco.step();
            if eco.minority_attack_done() {
                break;
            }
        }
        assert!(eco.minority_attack_done(), "minority attack never fired");
        assert_eq!(eco.forged_attempts(), 60);
        assert_eq!(
            eco.forged_accepted(),
            0,
            "a sub-quorum forgery was accepted: {:?}",
            eco.recent_trace(5)
        );
        // The forgeries are retryable signature failures, not split
        // views: the honest fleet keeps converging afterwards.
        assert!(
            !matches!(eco.subscriber(0).state(), SyncState::Quarantined { .. }),
            "honest fleet member quarantined by a rejected forgery"
        );
        while !matches!(eco.step(), Some(EcoEvent::Poll(0))) {}
        assert_eq!(eco.subscriber(0).sequence(), eco.publisher_sequence());
        assert!(matches!(eco.subscriber(0).state(), SyncState::Live));
    }

    #[test]
    fn split_view_attack_quarantines_the_victim() {
        // The victim has applied a share rotation by the time of the
        // attack, so the equivocator must witness at the new epoch.
        let mut config = EcosystemConfig::default();
        config.rotate_at_secs = Some(config.epoch_secs + 4 * 3_600);
        config.split_view_attack_at_secs = Some(config.epoch_secs + 8 * 3_600);
        let mut eco = Ecosystem::new(&config);
        for _ in 0..400 {
            eco.step();
            if eco.attack_done() {
                break;
            }
        }
        assert!(eco.attack_done(), "attack event never fired");
        assert_eq!(eco.subscriber(0).trust().pinned().epoch, 2);
        assert!(
            matches!(eco.subscriber(0).state(), SyncState::Quarantined { .. }),
            "victim must quarantine on a split view, got {:?}",
            eco.subscriber(0).state()
        );
    }
}
