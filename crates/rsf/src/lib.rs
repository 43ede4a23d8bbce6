//! # `nrslb-rsf` — Root-Store Feeds
//!
//! The paper's distribution mechanism (§4): a Root-Store Feed is "a
//! sequence of root-store snapshots where, between snapshots, both
//! certificates and GCCs may be added or removed", published by primary
//! root-store operators and polled by derivative stores. This crate
//! implements the full pipeline:
//!
//! * [`wire`] — a deterministic, length-prefixed binary encoding; signed
//!   artifacts must be canonical bytes (JSON is not), see DESIGN.md §3.
//! * [`feed`] — [`feed::Snapshot`] and [`feed::Delta`]: captures of a
//!   [`RootStore`](nrslb_rootstore::RootStore)'s state (trusted roots with
//!   systematic constraints and GCCs, plus the explicitly-distrusted set)
//!   and the differences between two states, with decision justifications.
//! * [`signing`] — feed updates are signed with a dedicated feed key that
//!   is itself endorsed by a coordinating body (the paper suggests ICANN),
//!   so subscribers verify a two-link chain: coordinator → feed key →
//!   message.
//! * [`merge`] — merging a primary feed with a derivative's own feed,
//!   flagging conflicts such as "in the primary's distrusted set but the
//!   derivative's trusted set" (the paper's Amazon Linux example).
//! * [`transport`] — a sans-IO publisher/subscriber pair with injectable
//!   latency and failure, used by `nrslb-sim` for the staleness
//!   experiments (E5).
//! * [`translog`] — the paper's "immutable logs" future-work item: an
//!   append-only Merkle log over feed messages with signed checkpoints,
//!   so subscribers detect history rewrites and split views.

#![warn(missing_docs)]

pub mod clock;
pub mod feed;
pub mod merge;
pub mod quorum;
pub mod signing;
pub mod socket;
pub mod sync;
pub mod taint;
pub mod translog;
pub mod transport;
pub mod wire;

pub use clock::{Clock, VirtualClock, WallClock};
pub use feed::{Delta, GccEntry, RootEntry, Snapshot, SystematicConstraints};
pub use merge::{merge_stores, Conflict, MergeReport};
pub use quorum::{QuorumAuthority, QuorumConfig, QuorumSignature, QuorumTrust, RotationEvent};
pub use signing::{CoordinatorKey, Endorsement, FeedKey, FeedTrust, SignedMessage};
pub use socket::{FeedDistributionNode, RemoteSubscriber};
pub use sync::{
    FeedUpdate, ResilientReport, Staleness, Subscriber, SubscriberBuilder, SyncCounters, SyncEvent,
    SyncInstruments, SyncPolicy, SyncState,
};
pub use taint::TaintSet;
pub use translog::{Checkpoint, TransparencyLog};
pub use transport::{FaultInjector, FaultPlan, FeedPublisher, SyncReport};

use std::fmt;

/// Errors across the feed pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsfError {
    /// A wire-format failure with no artifact context (socket framing,
    /// key-parameter errors and other non-decode plumbing).
    Wire(&'static str),
    /// A decode failure with full context: which artifact was being
    /// decoded, which field, and at what byte offset (see
    /// [`wire::Reader`]).
    Decode {
        /// The artifact being decoded (`"snapshot"`, `"delta"`,
        /// `"checkpoint"`, `"signed-message"`, ...).
        artifact: &'static str,
        /// The field the reader was positioned at (`""` if unlabelled).
        field: &'static str,
        /// Byte offset into the input where the failure occurred.
        offset: usize,
        /// What went wrong (`"truncated"`, `"field too large"`, ...).
        reason: &'static str,
    },
    /// A signature or endorsement failed to verify.
    BadSignature(&'static str),
    /// Split-view / history-rewrite evidence: the publisher presented a
    /// *correctly signed* checkpoint that is inconsistent with the
    /// subscriber's pinned history (rollback, fork at the same size, or
    /// a consistency proof that does not verify). Unlike a transient
    /// [`RsfError::BadSignature`], this is proof of publisher
    /// misbehaviour and quarantines the feed.
    SplitView(&'static str),
    /// The feed is quarantined (prior split-view evidence); the
    /// subscriber refuses to apply updates and keeps serving its
    /// last-good store.
    Quarantined(&'static str),
    /// A message arrived out of order (sequence gap or replay).
    Sequence {
        /// The expected next sequence number.
        expected: u64,
        /// The sequence number that arrived.
        got: u64,
    },
    /// A resilient sync gave up after exhausting its retry budget.
    Exhausted {
        /// Attempts made (== the policy's `max_attempts`).
        attempts: u32,
        /// The error from the final attempt.
        last: Box<RsfError>,
    },
    /// A certificate inside the feed failed to parse.
    X509(nrslb_x509::X509Error),
    /// A GCC inside the feed failed its checks.
    Gcc(nrslb_datalog::DatalogError),
    /// Applying a feed message to a store failed.
    Store(nrslb_rootstore::StoreError),
}

impl fmt::Display for RsfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsfError::Wire(what) => write!(f, "malformed feed message: {what}"),
            RsfError::Decode {
                artifact,
                field,
                offset,
                reason,
            } => {
                write!(f, "malformed {artifact}: {reason}")?;
                if !field.is_empty() {
                    write!(f, " in field `{field}`")?;
                }
                write!(f, " at byte {offset}")
            }
            RsfError::BadSignature(what) => write!(f, "feed signature failure: {what}"),
            RsfError::SplitView(what) => {
                write!(f, "split-view evidence from publisher: {what}")
            }
            RsfError::Quarantined(why) => write!(f, "feed quarantined: {why}"),
            RsfError::Sequence { expected, got } => {
                write!(f, "feed sequence error: expected {expected}, got {got}")
            }
            RsfError::Exhausted { attempts, last } => {
                write!(f, "sync gave up after {attempts} attempts: {last}")
            }
            RsfError::X509(e) => write!(f, "certificate in feed: {e}"),
            RsfError::Gcc(e) => write!(f, "GCC in feed: {e}"),
            RsfError::Store(e) => write!(f, "applying feed: {e}"),
        }
    }
}

impl std::error::Error for RsfError {}

impl From<nrslb_x509::X509Error> for RsfError {
    fn from(e: nrslb_x509::X509Error) -> Self {
        RsfError::X509(e)
    }
}

impl From<nrslb_datalog::DatalogError> for RsfError {
    fn from(e: nrslb_datalog::DatalogError) -> Self {
        RsfError::Gcc(e)
    }
}

impl From<nrslb_rootstore::StoreError> for RsfError {
    fn from(e: nrslb_rootstore::StoreError) -> Self {
        RsfError::Store(e)
    }
}
