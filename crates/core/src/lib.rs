//! # `nrslb-core` — GCC-aware certificate chain validation
//!
//! This crate is the paper's primary contribution, made executable:
//!
//! * [`facts`] — conversion of certificate chains into Datalog statements
//!   (§3: "the chain in question is first converted into a form the GCC
//!   program can read"). Both the *direct* in-memory path and the
//!   *unoptimized* text path (serialize to Datalog source, re-parse) are
//!   implemented; the latter reproduces the paper's ~2.4 ms conversion
//!   measurement (experiment E1).
//! * [`chain`] — candidate-chain construction from a leaf, an intermediate
//!   pool and a root store, with backtracking.
//! * [`validate`] — the validator: standard X.509 path checks (expiry,
//!   signatures, CA bit, path length, name constraints, EKU) plus the
//!   paper's extension — when a candidate root carries GCCs, they are
//!   executed and the chain is rejected unless **all** attached GCCs
//!   accept (§3.1); on rejection the builder *continues* with the next
//!   candidate chain, exactly as the paper prescribes.
//! * [`gcc_eval`] — the GCC execution engine: facts + program →
//!   `valid(Chain, Usage)?`.
//! * [`session`] — compile-once / evaluate-many execution:
//!   [`ValidationSession`] freezes a chain's facts behind an `Arc` so
//!   every GCC (and usage) shares one fact base, and [`VerdictCache`]
//!   memoizes `(chain, GCC, usage)` verdicts in a bounded LRU shared by
//!   the validator and the trust daemon's workers.
//! * [`cache`] — the contention-free hot-path caches: the N-way sharded
//!   [`VerdictCache`] and the [`SigMemo`] that memoizes hash-based
//!   signature verifications per `(cert, issuer)` edge.
//! * [`daemon`] — the *platform execution* deployment mode (§3.1): a
//!   Unix-domain-socket trust daemon evaluating GCCs out of process, with
//!   a length-prefixed binary protocol, batch evaluation
//!   (`OP_EVALUATE_BATCH`) and keep-alive client connections.
//! * [`hammurabi`] — the *complete validation redesign* mode (§3.1): the
//!   entire chain-validation policy expressed as one Datalog program, in
//!   the style of Hammurabi (CCS '22); GCCs are folded into the same
//!   program run.
//!
//! The three modes are selected by [`ValidationMode`]; all three produce
//! identical verdicts on the workspace's test corpora (enforced by
//! integration tests), differing only in *where* policy executes.

#![warn(missing_docs)]

pub mod cache;
pub mod chain;
pub mod daemon;
pub mod facts;
pub mod gcc_eval;
pub mod hammurabi;
pub mod metrics;
pub(crate) mod proto;
pub(crate) mod reactor;
pub mod session;
pub mod validate;

pub use cache::{
    ParsedCertCache, ShardedLru, SigMemo, SigMemoKey, DEFAULT_CACHE_SHARDS,
    DEFAULT_CERT_CACHE_CAPACITY, DEFAULT_SIG_MEMO_CAPACITY,
};
pub use chain::{ChainBuilder, ChainError};
pub use daemon::{ConnectionMode, DaemonBuilder, DaemonClient, TrustDaemon};
pub use facts::{cert_id, chain_facts, chain_facts_unoptimized, chain_id};
pub use gcc_eval::{evaluate_gcc, evaluate_gccs, GccVerdict};
pub use metrics::CoreMetrics;
pub use nrslb_rootstore::Usage;
pub use session::{ValidationSession, VerdictCache, VerdictKey};
pub use validate::{Outcome, RejectReason, ValidationMode, Validator};

use std::fmt;

/// Errors from validation machinery (distinct from a chain being
/// *rejected*, which is a normal [`Outcome`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A GCC failed to evaluate (budget, arithmetic error...).
    Gcc(nrslb_datalog::DatalogError),
    /// Certificate encoding/decoding failed.
    X509(nrslb_x509::X509Error),
    /// The daemon transport failed.
    Daemon(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Gcc(e) => write!(f, "GCC evaluation error: {e}"),
            CoreError::X509(e) => write!(f, "certificate error: {e}"),
            CoreError::Daemon(e) => write!(f, "trust daemon error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {}

impl From<nrslb_datalog::DatalogError> for CoreError {
    fn from(e: nrslb_datalog::DatalogError) -> Self {
        CoreError::Gcc(e)
    }
}

impl From<nrslb_x509::X509Error> for CoreError {
    fn from(e: nrslb_x509::X509Error) -> Self {
        CoreError::X509(e)
    }
}
