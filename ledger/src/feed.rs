//! The feed side: a quorum-signed publisher behind a reactor-backed
//! distribution node, a socket subscriber polling the node, and the
//! sans-IO subscriber the trust daemon follows.
//!
//! `RemoteSubscriber` exposes no `take_taint`, so the daemon cannot
//! follow the socket subscriber directly; it follows a sans-IO
//! `Subscriber` synced to the node's publisher, and
//! `TrustDaemon::refresh_from_feed` applies that subscriber's taint.
//! Every tick runs publish, remote delta poll, sans-IO ingest and daemon
//! refresh in sequence, so a verdict's propagation delay is their sum
//! plus the wait for the next reply on a flipped chain.

use crate::fixture::{height_for, seed32};
use nrslb_core::TrustDaemon;
use nrslb_rootstore::RootStore;
use nrslb_rsf::{
    FeedDistributionNode, FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig,
    RemoteSubscriber, Subscriber,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The coordinating body: 2 of 3 members witness every checkpoint.
const QUORUM: QuorumConfig = QuorumConfig { k: 2, n: 3 };

/// Seconds since the Unix epoch, the feed's timestamps.
fn unix_now() -> i64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs() as i64)
}

/// Key material for a feed that publishes at most `deltas` deltas.
pub struct FeedKeys {
    authority: QuorumAuthority,
    key: FeedKey,
}

impl FeedKeys {
    /// Hash-based keys are one-time: the feed key signs the snapshot,
    /// each delta and each delta's checkpoint; each witnessing member
    /// signs the endorsement and every checkpoint. A run that publishes
    /// more than it sized for fails on an exhausted key.
    pub fn generate(seed: u64, deltas: u64) -> Result<FeedKeys, String> {
        let authority =
            QuorumAuthority::from_seed(seed32(seed, "quorum", 0), QUORUM, height_for(deltas + 3))
                .map_err(|e| format!("quorum keygen: {e}"))?;
        let key = FeedKey::new_quorum(
            seed32(seed, "feed-key", 0),
            height_for(2 * deltas + 4),
            &authority,
        )
        .map_err(|e| format!("feed keygen: {e}"))?;
        Ok(FeedKeys { authority, key })
    }
}

/// Feed versions as the load threads see them, plus what they observed:
/// `published` moves before a delta is signed, `applied` after the
/// daemon refreshed; a reply is correct for any version in between.
pub struct Versions {
    epoch: Instant,
    published: AtomicU64,
    applied: AtomicU64,
    published_at_ns: Vec<AtomicU64>,
    seen_at_ns: Vec<AtomicU64>,
    /// Per request: the newest applied version it was answered under.
    answered_under: Vec<AtomicU64>,
    rederive_ns: Mutex<Vec<u64>>,
}

impl Versions {
    pub fn new(max_version: u64, requests: usize) -> Versions {
        let slots = || (0..=max_version).map(|_| AtomicU64::new(0)).collect();
        Versions {
            epoch: Instant::now(),
            published: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            published_at_ns: slots(),
            seen_at_ns: slots(),
            answered_under: (0..requests).map(|_| AtomicU64::new(0)).collect(),
            rederive_ns: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn published(&self) -> u64 {
        self.published.load(Ordering::SeqCst)
    }

    pub fn applied(&self) -> u64 {
        self.applied.load(Ordering::SeqCst)
    }

    /// A reply to request `i`, sent at `sent` while version `lo` was
    /// applied and received at `received` while `hi` was published,
    /// carried version `hi`'s verdict for a flipping chain (`flipped`).
    pub fn observe(
        &self,
        i: usize,
        lo: u64,
        hi: u64,
        flipped: bool,
        sent: Instant,
        received: Instant,
    ) {
        if flipped && hi >= 1 && hi - lo <= 1 {
            let at = self.ns(received).max(1);
            let _ = self.seen_at_ns[hi as usize].compare_exchange(
                0,
                at,
                Ordering::SeqCst,
                Ordering::SeqCst,
            );
        }
        // The first reply per chain sent after a refresh re-derives the
        // evicted verdict.
        if lo == hi && lo >= 1 && self.answered_under[i].fetch_max(lo, Ordering::SeqCst) < lo {
            let ns = received.saturating_duration_since(sent).as_nanos() as u64;
            self.rederive_ns.lock().expect("rederive samples").push(ns);
        }
    }

    /// Propagation delay of every detected version from `from` on, and
    /// how many of those versions went undetected.
    pub fn propagation_ns(&self, from: u64) -> (Vec<u64>, u64) {
        let last = self.applied();
        let mut out = Vec::new();
        let mut missed = 0;
        for v in from as usize..=last as usize {
            let seen = self.seen_at_ns[v].load(Ordering::SeqCst);
            let published = self.published_at_ns[v].load(Ordering::SeqCst);
            if seen == 0 {
                missed += 1;
            } else {
                out.push(seen.saturating_sub(published));
            }
        }
        (out, missed)
    }

    pub fn rederive_ns(&self) -> Vec<u64> {
        self.rederive_ns.lock().expect("rederive samples").clone()
    }
}

/// Per-step timings of the ticks and idle polls run so far.
#[derive(Default)]
pub struct FeedTimes {
    pub publish_ns: Vec<u64>,
    pub poll_delta_ns: Vec<u64>,
    pub poll_idle_ns: Vec<u64>,
    pub delta_bytes: Vec<u64>,
    pub ingest_ns: Vec<u64>,
    pub refresh_ns: Vec<u64>,
    pub evicted: Vec<u64>,
}

pub struct FeedRig {
    _node: FeedDistributionNode,
    publisher: Arc<Mutex<FeedPublisher>>,
    remote: RemoteSubscriber,
    follower: Arc<Mutex<Subscriber>>,
    stores: [RootStore; 2],
    version: u64,
    max_version: u64,
    pub times: FeedTimes,
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

impl FeedRig {
    /// Publish `stores[0]` behind a node at `socket`, bootstrap both
    /// subscribers, and attach the sans-IO one to `daemon` (the
    /// bootstrap snapshot taints everything, so this precedes warm-up).
    pub fn start(
        keys: FeedKeys,
        stores: [RootStore; 2],
        daemon: &mut TrustDaemon,
        socket: &Path,
        max_version: u64,
    ) -> Result<FeedRig, String> {
        let trust = FeedTrust::quorum(keys.authority.trust());
        let now = unix_now();
        let publisher =
            FeedPublisher::new_quorum("ledger", keys.key, keys.authority, &stores[0], now)
                .map_err(|e| format!("publisher: {e}"))?;
        let publisher = Arc::new(Mutex::new(publisher));
        let node = FeedDistributionNode::spawn(Arc::clone(&publisher), socket)
            .map_err(|e| format!("feed node: {e}"))?;
        let mut remote = Subscriber::builder("ledger", trust.clone()).connect(socket);
        remote
            .sync_once(now)
            .map_err(|e| format!("remote bootstrap: {e}"))?;
        let follower = Arc::new(Mutex::new(Subscriber::builder("ledger", trust).build()));
        follower
            .lock()
            .expect("follower")
            .sync_now(&mut publisher.lock().expect("publisher"))
            .map_err(|e| format!("follower bootstrap: {e}"))?;
        daemon.attach_feed(Arc::clone(&follower));
        daemon.refresh_from_feed().ok_or("daemon lost its feed")?;
        Ok(FeedRig {
            _node: node,
            publisher,
            remote,
            follower,
            stores,
            version: 0,
            max_version,
            times: FeedTimes::default(),
        })
    }

    /// Publish the next version (toggling the allowlist), poll it over
    /// the node socket, ingest it into the daemon's subscriber and
    /// refresh the daemon. Every step's result is checked.
    pub fn tick(&mut self, daemon: &TrustDaemon, versions: &Versions) -> Result<(), String> {
        let v = self.version + 1;
        if v > self.max_version {
            return Err(format!("feed sized for {} deltas", self.max_version));
        }
        let next = &self.stores[(v % 2) as usize];
        let now = unix_now();
        versions.published_at_ns[v as usize].store(versions.ns(Instant::now()), Ordering::SeqCst);
        versions.published.store(v, Ordering::SeqCst);

        let t = Instant::now();
        {
            let mut publisher = self.publisher.lock().expect("publisher");
            if !publisher
                .publish(next, now)
                .map_err(|e| format!("publish: {e}"))?
            {
                return Err("publish produced an empty delta".into());
            }
            publisher
                .checkpoint()
                .map_err(|e| format!("checkpoint: {e}"))?;
        }
        self.times.publish_ns.push(elapsed_ns(t));

        let t = Instant::now();
        let report = self
            .remote
            .sync_once(now)
            .map_err(|e| format!("remote delta poll: {e}"))?;
        self.times.poll_delta_ns.push(elapsed_ns(t));
        self.times.delta_bytes.push(report.bytes_transferred as u64);
        if report.deltas_applied != 1 || !same_policy(self.remote.store(), next) {
            return Err(format!("remote subscriber did not apply version {v}"));
        }

        let t = Instant::now();
        {
            let mut follower = self.follower.lock().expect("follower");
            let report = follower
                .sync_now(&mut self.publisher.lock().expect("publisher"))
                .map_err(|e| format!("ingest: {e}"))?;
            if report.deltas_applied != 1 || !same_policy(follower.store(), next) {
                return Err(format!("daemon subscriber did not apply version {v}"));
            }
        }
        self.times.ingest_ns.push(elapsed_ns(t));

        let t = Instant::now();
        let evicted = daemon.refresh_from_feed().ok_or("daemon lost its feed")?;
        self.times.refresh_ns.push(elapsed_ns(t));
        self.times.evicted.push(evicted);

        versions.applied.store(v, Ordering::SeqCst);
        self.version = v;
        Ok(())
    }

    /// One remote poll with nothing new to fetch.
    pub fn idle_poll(&mut self) -> Result<(), String> {
        let t = Instant::now();
        let report = self
            .remote
            .sync_once(unix_now())
            .map_err(|e| format!("remote idle poll: {e}"))?;
        self.times.poll_idle_ns.push(elapsed_ns(t));
        if report.deltas_applied != 0 || report.snapshot_applied {
            return Err("idle poll applied an update".into());
        }
        Ok(())
    }
}

/// Do two stores attach the same GCCs (by content) to the same roots?
fn same_policy(a: &RootStore, b: &RootStore) -> bool {
    let policy = |s: &RootStore| {
        let mut out: Vec<_> = s
            .iter()
            .flat_map(|(fp, r)| r.gccs.iter().map(move |g| (*fp, g.source_hash())))
            .collect();
        out.sort();
        out
    };
    policy(a) == policy(b)
}
