//! The GCC-aware certificate validator.
//!
//! Implements the paper's modified chain-validation algorithm (§3.1):
//! candidate chains are built structurally, then checked in order; when a
//! candidate root carries GCCs, the GCCs execute and a `false` result
//! rejects *that candidate* — the validator then continues with the next
//! candidate chain rather than failing outright.

use crate::cache::{SigMemo, DEFAULT_SIG_MEMO_CAPACITY};
use crate::chain::ChainBuilder;
use crate::gcc_eval::GccVerdict;
use crate::session::{
    chain_content_key, evaluate_gccs_lazy, evaluate_gccs_lazy_keyed, ValidationSession,
    VerdictCache, VerdictKey, DEFAULT_VERDICT_CACHE_CAPACITY,
};
use crate::{hammurabi, CoreError};
use nrslb_revocation::RevocationChecker;
use nrslb_rootstore::{RootStore, Usage};
use nrslb_x509::name::DotSemantics;
use nrslb_x509::{oids, Certificate};
use parking_lot::RwLock;
use std::sync::Arc;

/// Where policy (GCC) evaluation happens — the three deployment options
/// of §3.1.
#[derive(Clone, Default)]
pub enum ValidationMode {
    /// *User-agent execution*: conversion and GCC evaluation in-process.
    #[default]
    UserAgent,
    /// *Platform execution*: GCCs are evaluated by an external oracle
    /// (normally a [`crate::daemon::DaemonClient`] speaking to the trust
    /// daemon over a Unix socket).
    Platform(Arc<dyn GccOracle>),
    /// *Complete validation redesign*: the whole per-chain policy
    /// (standard checks + GCCs) runs as a single Datalog program, in the
    /// style of Hammurabi.
    Hammurabi,
}

impl std::fmt::Debug for ValidationMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationMode::UserAgent => write!(f, "UserAgent"),
            ValidationMode::Platform(_) => write!(f, "Platform(<oracle>)"),
            ValidationMode::Hammurabi => write!(f, "Hammurabi"),
        }
    }
}

/// Anything that can answer "do the GCCs attached to this chain's root
/// accept the chain for this usage?" — the IPC boundary of the platform
/// deployment mode.
pub trait GccOracle: Send + Sync {
    /// Evaluate all GCCs for the chain's root; `Ok(verdicts)` with every
    /// verdict accepting means the chain may proceed.
    fn evaluate(&self, chain: &[Certificate], usage: Usage) -> Result<Vec<GccVerdict>, CoreError>;
}

/// Why a candidate chain was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// No structurally possible chain reached a trusted root.
    NoCandidateChains,
    /// Certificate at `index` (0 = leaf) was expired at validation time.
    Expired {
        /// Position in the chain, leaf = 0.
        index: usize,
    },
    /// Certificate at `index` is not yet valid.
    NotYetValid {
        /// Position in the chain, leaf = 0.
        index: usize,
    },
    /// Signature of certificate at `index` did not verify under its issuer.
    BadSignature {
        /// Position in the chain, leaf = 0.
        index: usize,
    },
    /// Certificate at `index` must be a CA but is not.
    NotCa {
        /// Position in the chain, leaf = 0.
        index: usize,
    },
    /// BasicConstraints path length of the CA at `index` was exceeded.
    PathLenExceeded {
        /// Position in the chain, leaf = 0.
        index: usize,
    },
    /// A name constraint of the CA at `index` excludes a leaf SAN.
    NameConstraintViolation {
        /// Position of the constraining CA.
        index: usize,
        /// The offending DNS name.
        name: String,
    },
    /// The leaf's ExtendedKeyUsage does not permit the requested usage.
    WrongEku,
    /// The store's systematic date/usage constraint rejects the leaf
    /// (NSS-style `tls_distrust_after` / `smime_distrust_after`).
    UsageDateConstraint,
    /// The leaf does not match the requested hostname.
    HostnameMismatch,
    /// Certificate at `index` is revoked (OneCRL/CRLite-style check).
    Revoked {
        /// Position in the chain, leaf = 0.
        index: usize,
    },
    /// A GCC attached to the candidate root returned false.
    GccRejected {
        /// Name of the rejecting GCC.
        gcc_name: String,
    },
    /// The Hammurabi policy program rejected the chain.
    PolicyRejected,
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::NoCandidateChains => write!(f, "no chain to a trusted root"),
            RejectReason::Expired { index } => write!(f, "certificate {index} expired"),
            RejectReason::NotYetValid { index } => write!(f, "certificate {index} not yet valid"),
            RejectReason::BadSignature { index } => write!(f, "certificate {index} bad signature"),
            RejectReason::NotCa { index } => write!(f, "certificate {index} is not a CA"),
            RejectReason::PathLenExceeded { index } => {
                write!(f, "path length of CA {index} exceeded")
            }
            RejectReason::NameConstraintViolation { index, name } => {
                write!(f, "CA {index} name constraints exclude {name}")
            }
            RejectReason::WrongEku => write!(f, "leaf EKU does not permit usage"),
            RejectReason::UsageDateConstraint => {
                write!(f, "systematic date/usage constraint rejects leaf")
            }
            RejectReason::HostnameMismatch => write!(f, "hostname mismatch"),
            RejectReason::Revoked { index } => write!(f, "certificate {index} is revoked"),
            RejectReason::GccRejected { gcc_name } => write!(f, "GCC {gcc_name} rejected chain"),
            RejectReason::PolicyRejected => write!(f, "policy program rejected chain"),
        }
    }
}

/// One candidate chain the validator tried.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// The candidate chain, leaf first.
    pub chain: Vec<Certificate>,
    /// `Ok(())` if accepted; otherwise why it was rejected.
    pub result: Result<(), RejectReason>,
    /// Per-GCC verdicts, when GCC evaluation ran for this candidate.
    pub gcc_verdicts: Vec<GccVerdict>,
}

/// The accepted chain and its trust attributes.
#[derive(Clone, Debug)]
pub struct AcceptedChain {
    /// The validated chain, leaf first, root last.
    pub chain: Vec<Certificate>,
    /// Whether EV treatment is granted (leaf asserts EV *and* the store
    /// allows EV for the root — Firefox's per-root EV bit).
    pub ev_granted: bool,
}

/// The overall result of a validation.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The accepted chain, if any candidate passed.
    pub accepted_chain: Option<AcceptedChain>,
    /// Every candidate examined, in order, with its result.
    pub attempts: Vec<Attempt>,
}

impl Outcome {
    /// Did validation succeed?
    pub fn accepted(&self) -> bool {
        self.accepted_chain.is_some()
    }

    /// The reason of the *last* rejection (the conventionally reported
    /// error), or `NoCandidateChains` when nothing was tried.
    pub fn final_reason(&self) -> Option<&RejectReason> {
        if self.accepted() {
            return None;
        }
        self.attempts
            .last()
            .and_then(|a| a.result.as_ref().err())
            .or(Some(&RejectReason::NoCandidateChains))
    }
}

/// Configuration for a [`Validator`].
#[derive(Clone, Copy, Debug)]
pub struct ValidatorConfig {
    /// Maximum chain depth explored.
    pub max_depth: usize,
    /// Leading-dot semantics for name constraints (the Firefox/OpenSSL
    /// discrepancy the paper cites; an ablation knob).
    pub dot_semantics: DotSemantics,
    /// Require the leaf's EKU (when present) to include the usage.
    pub enforce_eku: bool,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        ValidatorConfig {
            max_depth: crate::chain::DEFAULT_MAX_DEPTH,
            dot_semantics: DotSemantics::Rfc5280,
            enforce_eku: true,
        }
    }
}

/// A GCC-aware chain validator bound to a root store.
pub struct Validator {
    store: RootStore,
    mode: ValidationMode,
    config: ValidatorConfig,
    revocation: Option<Arc<dyn RevocationChecker>>,
    verdict_cache: Option<Arc<VerdictCache>>,
    sig_memo: Arc<SigMemo>,
    metrics: Option<crate::metrics::CoreMetrics>,
    eval_metrics: Option<nrslb_datalog::EvalMetrics>,
}

impl Validator {
    /// Create a validator over `store` using `mode`.
    pub fn new(store: RootStore, mode: ValidationMode) -> Validator {
        Validator {
            store,
            mode,
            config: ValidatorConfig::default(),
            revocation: None,
            verdict_cache: None,
            sig_memo: Arc::new(SigMemo::default()),
            metrics: None,
            eval_metrics: None,
        }
    }

    /// Report outcome counts (`nrslb_validations_total{outcome=...}`),
    /// end-to-end latency (`nrslb_validation_latency_us`), the
    /// signature memo's hit/miss counters and — in `UserAgent` mode —
    /// per-GCC Datalog engine statistics into `registry`.
    ///
    /// Replaces the validator's signature memo with a
    /// registry-instrumented one, so apply [`Validator::with_sig_memo`]
    /// *after* this to share a caller-owned memo instead.
    pub fn with_registry(mut self, registry: &nrslb_obs::Registry) -> Validator {
        self.metrics = Some(crate::metrics::CoreMetrics::new(registry));
        self.eval_metrics = Some(nrslb_datalog::EvalMetrics::new(registry));
        self.sig_memo = Arc::new(SigMemo::with_registry(DEFAULT_SIG_MEMO_CAPACITY, registry));
        self
    }

    /// Reuse GCC verdicts across validations through `cache` (in
    /// `UserAgent` mode; `Platform` oracles carry their own cache).
    pub fn with_verdict_cache(mut self, cache: Arc<VerdictCache>) -> Validator {
        self.verdict_cache = Some(cache);
        self
    }

    /// Apply a feed update's blast radius to the verdict cache: evict
    /// exactly the cached verdicts whose taint tags the set names (a
    /// full taint — snapshot fallback — clears everything, an empty
    /// taint evicts nothing). Returns how many verdicts were evicted;
    /// 0 when no cache is attached. This is the ingest-side hook of
    /// delta → taint → selective invalidation: pass
    /// [`nrslb_rsf::Subscriber::take_taint`] here after syncing.
    pub fn invalidate_tainted(&self, taint: &nrslb_rsf::TaintSet) -> u64 {
        self.verdict_cache
            .as_deref()
            .map(|c| c.invalidate_taint(taint))
            .unwrap_or(0)
    }

    /// Share a signature-verification memo with other validators.
    /// Every validator owns a private memo by default; sharing one
    /// means a `(cert, issuer)` edge verified by any of them is a memo
    /// hit for all.
    pub fn with_sig_memo(mut self, memo: Arc<SigMemo>) -> Validator {
        self.sig_memo = memo;
        self
    }

    /// The validator's signature-verification memo (for inspection /
    /// sharing).
    pub fn sig_memo(&self) -> &Arc<SigMemo> {
        &self.sig_memo
    }

    /// Consult `checker` during validation; revoked certificates reject
    /// the candidate chain (OneCRL / CRLSet / CRLite, paper §2.2, §4).
    pub fn with_revocation(mut self, checker: Arc<dyn RevocationChecker>) -> Validator {
        self.revocation = Some(checker);
        self
    }

    /// Override configuration.
    pub fn with_config(mut self, config: ValidatorConfig) -> Validator {
        self.config = config;
        self
    }

    /// The underlying store.
    pub fn store(&self) -> &RootStore {
        &self.store
    }

    /// Swap in a different root store, keeping mode, cache and config.
    ///
    /// This is the differential-testing hook: the same validator
    /// revalidates one chain against many stores (a primary and each
    /// subscriber replica) without rebuilding the oracle plumbing. The
    /// verdict cache can stay — verdict keys are content-addressed by
    /// (chain, GCC source, usage), so a replica whose GCCs differ from
    /// the primary's misses instead of aliasing.
    pub fn set_store(&mut self, store: RootStore) {
        self.store = store;
    }

    /// Validate `leaf` (with an intermediate pool) for `usage` at time
    /// `now`, without a hostname check.
    pub fn validate(
        &self,
        leaf: &Certificate,
        intermediates: &[Certificate],
        usage: Usage,
        now: i64,
    ) -> Result<Outcome, CoreError> {
        self.validate_inner(leaf, intermediates, usage, now, None)
    }

    /// Validate for a specific hostname (TLS server identity).
    pub fn validate_for_host(
        &self,
        leaf: &Certificate,
        intermediates: &[Certificate],
        hostname: &str,
        now: i64,
    ) -> Result<Outcome, CoreError> {
        self.validate_inner(leaf, intermediates, Usage::Tls, now, Some(hostname))
    }

    fn validate_inner(
        &self,
        leaf: &Certificate,
        intermediates: &[Certificate],
        usage: Usage,
        now: i64,
        hostname: Option<&str>,
    ) -> Result<Outcome, CoreError> {
        let _span = self.metrics.as_ref().map(|m| m.span());
        let outcome = self.validate_uninstrumented(leaf, intermediates, usage, now, hostname);
        if let Some(metrics) = &self.metrics {
            match &outcome {
                Ok(out) => metrics.record(out),
                Err(_) => metrics.errors.inc(),
            }
        }
        outcome
    }

    fn validate_uninstrumented(
        &self,
        leaf: &Certificate,
        intermediates: &[Certificate],
        usage: Usage,
        now: i64,
        hostname: Option<&str>,
    ) -> Result<Outcome, CoreError> {
        let builder =
            ChainBuilder::new(&self.store, intermediates).with_max_depth(self.config.max_depth);
        let candidates = builder.candidate_chains(leaf);
        let mut attempts = Vec::new();
        for chain in candidates {
            let attempt = self.try_candidate(&chain, usage, now, hostname)?;
            let ok = attempt.result.is_ok();
            attempts.push(attempt);
            if ok {
                let root_fp = chain.last().expect("chain non-empty").fingerprint();
                let ev_allowed = self
                    .store
                    .record(&root_fp)
                    .map(|r| r.ev_allowed)
                    .unwrap_or(false);
                return Ok(Outcome {
                    accepted_chain: Some(AcceptedChain {
                        ev_granted: leaf.is_ev() && ev_allowed,
                        chain,
                    }),
                    attempts,
                });
            }
        }
        Ok(Outcome {
            accepted_chain: None,
            attempts,
        })
    }

    fn try_candidate(
        &self,
        chain: &[Certificate],
        usage: Usage,
        now: i64,
        hostname: Option<&str>,
    ) -> Result<Attempt, CoreError> {
        let mut attempt = Attempt {
            chain: chain.to_vec(),
            result: Ok(()),
            gcc_verdicts: Vec::new(),
        };
        let reject = |attempt: &mut Attempt, reason: RejectReason| {
            attempt.result = Err(reason);
        };

        match self.mode {
            ValidationMode::Hammurabi => {
                // Signatures are verified natively through the memo
                // (crypto stays outside the logic program) and enter it
                // as `sigOk` facts; everything else, including GCCs,
                // runs in one Datalog evaluation.
                let mut sig_ok = Vec::with_capacity(chain.len());
                for (i, cert) in chain.iter().enumerate() {
                    let issuer = chain.get(i + 1).unwrap_or(cert);
                    let ok = self.sig_memo.verify_signed_by(cert, issuer);
                    if !ok {
                        reject(&mut attempt, RejectReason::BadSignature { index: i });
                        return Ok(attempt);
                    }
                    sig_ok.push(ok);
                }
                let verdict = hammurabi::evaluate_with_signatures(
                    chain,
                    &sig_ok,
                    usage,
                    now,
                    hostname,
                    &self.store,
                    self.config,
                    self.revocation.as_deref(),
                )?;
                if let Err(reason) = verdict {
                    reject(&mut attempt, reason);
                }
                return Ok(attempt);
            }
            ValidationMode::UserAgent | ValidationMode::Platform(_) => {}
        }

        // --- Standard X.509 path checks (native path) ---
        let leaf = &chain[0];
        for (i, cert) in chain.iter().enumerate() {
            if now < cert.validity().not_before {
                reject(&mut attempt, RejectReason::NotYetValid { index: i });
                return Ok(attempt);
            }
            if now > cert.validity().not_after {
                reject(&mut attempt, RejectReason::Expired { index: i });
                return Ok(attempt);
            }
        }
        for (i, cert) in chain.iter().enumerate() {
            let issuer = chain.get(i + 1).unwrap_or(cert); // root self-signed
                                                           // The memo answers repeated (cert, issuer) edges — the
                                                           // common case when one intermediate signs many leaves, or
                                                           // one chain is re-validated — without re-running the
                                                           // hash-based verification.
            if !self.sig_memo.verify_signed_by(cert, issuer) {
                reject(&mut attempt, RejectReason::BadSignature { index: i });
                return Ok(attempt);
            }
        }
        if let Some(revocation) = &self.revocation {
            for (i, cert) in chain.iter().enumerate() {
                if revocation.is_revoked(cert) {
                    reject(&mut attempt, RejectReason::Revoked { index: i });
                    return Ok(attempt);
                }
            }
        }
        for (i, cert) in chain.iter().enumerate().skip(1) {
            if !cert.is_ca() {
                reject(&mut attempt, RejectReason::NotCa { index: i });
                return Ok(attempt);
            }
            // pathLen: number of CA certs strictly between this CA and
            // the leaf is i - 1.
            if let Some(limit) = cert.path_len() {
                if (i - 1) as u32 > limit {
                    reject(&mut attempt, RejectReason::PathLenExceeded { index: i });
                    return Ok(attempt);
                }
            }
            // Name constraints apply to all descendant leaf names.
            if let Some(nc) = &cert.extensions().name_constraints {
                for san in leaf.dns_names() {
                    if !nc.allows(san, self.config.dot_semantics) {
                        reject(
                            &mut attempt,
                            RejectReason::NameConstraintViolation {
                                index: i,
                                name: san.clone(),
                            },
                        );
                        return Ok(attempt);
                    }
                }
            }
        }
        // Leaf EKU vs usage.
        if self.config.enforce_eku {
            if let Some(eku) = &leaf.extensions().extended_key_usage {
                let needed = match usage {
                    Usage::Tls => oids::kp_server_auth(),
                    Usage::SMime => oids::kp_email_protection(),
                };
                if !eku.contains(&needed) {
                    reject(&mut attempt, RejectReason::WrongEku);
                    return Ok(attempt);
                }
            }
        }
        // Hostname.
        if let Some(host) = hostname {
            if !leaf.matches_hostname(host) {
                reject(&mut attempt, RejectReason::HostnameMismatch);
                return Ok(attempt);
            }
        }
        // Systematic store constraints (NSS date/usage pairs).
        let root_fp = chain.last().expect("chain non-empty").fingerprint();
        if !self
            .store
            .usage_permitted(&root_fp, usage, leaf.validity().not_before)
        {
            reject(&mut attempt, RejectReason::UsageDateConstraint);
            return Ok(attempt);
        }

        // --- GCC execution (§3.1) ---
        let verdicts = match &self.mode {
            ValidationMode::UserAgent => {
                let gccs = self.store.gccs_for(&root_fp);
                if gccs.is_empty() {
                    Vec::new()
                } else if let Some(cache) = self.verdict_cache.as_deref() {
                    // Lazy fast path: the fact conversion only happens
                    // if some verdict misses the cache — a fully warm
                    // chain touches no Datalog at all.
                    evaluate_gccs_lazy(chain, gccs, usage, cache, self.eval_metrics.as_ref())?
                } else {
                    // One conversion per candidate; every GCC shares the
                    // frozen fact base.
                    let session = ValidationSession::new(chain);
                    session.evaluate_gccs_observed(gccs, usage, None, self.eval_metrics.as_ref())?
                }
            }
            ValidationMode::Platform(oracle) => oracle.evaluate(chain, usage)?,
            ValidationMode::Hammurabi => unreachable!("handled above"),
        };
        if let Some(bad) = verdicts.iter().find(|v| !v.accepted) {
            let name = bad.gcc_name.to_string();
            attempt.gcc_verdicts = verdicts;
            reject(&mut attempt, RejectReason::GccRejected { gcc_name: name });
            return Ok(attempt);
        }
        attempt.gcc_verdicts = verdicts;
        Ok(attempt)
    }
}

/// The in-process oracle: evaluates GCCs from its own copy of the store,
/// memoizing verdicts in a bounded LRU cache. Wrapped by the trust
/// daemon (all worker threads share one oracle, hence one cache); also
/// usable directly for tests.
pub struct InProcessOracle {
    /// The current store snapshot, swappable through `&self` so a
    /// long-running daemon can absorb feed updates while worker threads
    /// keep evaluating: readers clone the `Arc` under a briefly-held
    /// read lock and evaluate against their own handle. A racing
    /// evaluation may insert a verdict computed against the *old*
    /// snapshot after [`InProcessOracle::absorb_update`] invalidated —
    /// that is benign, because verdict keys are content-addressed by
    /// (chain, GCC source hash, usage): an entry for a replaced GCC or
    /// removed root is simply never looked up again.
    store: RwLock<Arc<RootStore>>,
    cache: VerdictCache,
    eval_metrics: Option<nrslb_datalog::EvalMetrics>,
}

impl InProcessOracle {
    /// Create an oracle over a store snapshot with the default cache
    /// capacity.
    pub fn new(store: RootStore) -> InProcessOracle {
        InProcessOracle::with_cache_capacity(store, DEFAULT_VERDICT_CACHE_CAPACITY)
    }

    /// Create an oracle with an explicit verdict-cache capacity.
    pub fn with_cache_capacity(store: RootStore, capacity: usize) -> InProcessOracle {
        InProcessOracle {
            store: RwLock::new(Arc::new(store)),
            cache: VerdictCache::new(capacity),
            eval_metrics: None,
        }
    }

    /// Create an oracle reporting into `registry`: the verdict cache
    /// mirrors its statistics there, and every cache-missing GCC
    /// evaluation records into the `nrslb_datalog_*` families (the
    /// trust daemon builds its shared oracle this way).
    pub fn with_registry(store: RootStore, registry: &nrslb_obs::Registry) -> InProcessOracle {
        InProcessOracle::configured(store, DEFAULT_VERDICT_CACHE_CAPACITY, Some(registry))
    }

    /// Create an oracle with an explicit verdict-cache capacity,
    /// optionally reporting into a registry.
    pub fn configured(
        store: RootStore,
        capacity: usize,
        registry: Option<&nrslb_obs::Registry>,
    ) -> InProcessOracle {
        let (cache, eval_metrics) = match registry {
            Some(r) => (
                VerdictCache::with_registry(capacity, r),
                Some(nrslb_datalog::EvalMetrics::new(r)),
            ),
            None => (VerdictCache::new(capacity), None),
        };
        InProcessOracle {
            store: RwLock::new(Arc::new(store)),
            cache,
            eval_metrics,
        }
    }

    /// The oracle's verdict cache (for inspection / metrics).
    pub fn cache(&self) -> &VerdictCache {
        &self.cache
    }

    /// A handle to the oracle's current store snapshot. The handle
    /// stays valid (and internally consistent) even if a concurrent
    /// [`InProcessOracle::absorb_update`] swaps in a newer snapshot.
    pub fn store(&self) -> Arc<RootStore> {
        Arc::clone(&self.store.read())
    }

    /// Evict exactly the cached verdicts a feed update tainted; see
    /// [`VerdictCache::invalidate_taint`]. Returns the eviction count.
    pub fn invalidate_tainted(&self, taint: &nrslb_rsf::TaintSet) -> u64 {
        self.cache.invalidate_taint(taint)
    }

    /// Absorb a synced subscriber state: replace the store snapshot and
    /// invalidate only the tainted verdicts — the core of the
    /// delta → taint → selective invalidation → re-derivation flow.
    /// Untainted verdicts survive and keep serving warm. Returns the
    /// eviction count. Takes `&self`, so a daemon sharing the oracle
    /// across worker threads can refresh it live (see
    /// [`crate::daemon::TrustDaemon::refresh_from_feed`]).
    pub fn absorb_update(&self, store: RootStore, taint: &nrslb_rsf::TaintSet) -> u64 {
        *self.store.write() = Arc::new(store);
        self.cache.invalidate_taint(taint)
    }

    /// [`GccOracle::evaluate`], but only if this exact chain is
    /// answered entirely from the verdict cache — the reactor's fused
    /// inline cost guard *and* execution in one pass (DESIGN.md §5g).
    ///
    /// The store lookup and [`chain_content_key`] are computed once;
    /// each verdict is first checked with a *non-perturbing*
    /// [`VerdictCache::peek`]. Any miss returns `None` having caused
    /// no observable effect — no hit/miss counted, no recency moved —
    /// and the caller hands the request to a worker, which starts from
    /// scratch. On a full hit the same keys are committed through
    /// [`evaluate_gccs_lazy_keyed`] (counting gets, identical to the
    /// worker path), reusing the chain key so the SHA-256 pass is not
    /// paid twice. A concurrent eviction between probe and commit
    /// merely makes the commit derive that verdict on the loop thread,
    /// exactly as a worker would.
    pub fn evaluate_warm(
        &self,
        chain: &[Certificate],
        usage: Usage,
    ) -> Option<Result<Vec<GccVerdict>, CoreError>> {
        let Some(root) = chain.last() else {
            return Some(Ok(Vec::new())); // no verdicts to derive
        };
        let store = self.store();
        let gccs = store.gccs_for(&root.fingerprint());
        if gccs.is_empty() {
            return Some(Ok(Vec::new())); // vacuous accept: no GCCs to run
        }
        let chain_key = chain_content_key(chain);
        let all_cached = gccs.iter().all(|gcc| {
            self.cache
                .peek(&VerdictKey {
                    chain: chain_key,
                    gcc: gcc.source_hash(),
                    usage,
                })
                .is_some()
        });
        if !all_cached {
            return None;
        }
        let mut verdicts = Vec::with_capacity(gccs.len());
        Some(
            evaluate_gccs_lazy_keyed(
                chain,
                gccs,
                usage,
                &self.cache,
                self.eval_metrics.as_ref(),
                chain_key,
                &mut verdicts,
            )
            .map(|()| verdicts),
        )
    }
}

impl GccOracle for InProcessOracle {
    fn evaluate(&self, chain: &[Certificate], usage: Usage) -> Result<Vec<GccVerdict>, CoreError> {
        let Some(root) = chain.last() else {
            return Ok(Vec::new());
        };
        let store = self.store();
        let gccs = store.gccs_for(&root.fingerprint());
        if gccs.is_empty() {
            return Ok(Vec::new());
        }
        // Lazy fast path: warm chains never build a fact base, so
        // concurrent daemon workers serving a hot chain only touch the
        // sharded cache.
        evaluate_gccs_lazy(chain, gccs, usage, &self.cache, self.eval_metrics.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrslb_rootstore::{Gcc, GccMetadata};
    use nrslb_x509::builder::{CaKey, CertificateBuilder};
    use nrslb_x509::extensions::NameConstraints;
    use nrslb_x509::testutil::{simple_chain, SimplePki, T0, YEAR};
    use nrslb_x509::DistinguishedName;

    fn store_for(pki: &SimplePki) -> RootStore {
        let mut store = RootStore::new("test");
        store.add_trusted(pki.root.clone()).unwrap();
        store
    }

    #[test]
    fn accepts_valid_chain() {
        let pki = simple_chain("ok.example");
        let v = Validator::new(store_for(&pki), ValidationMode::UserAgent);
        let out = v
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                pki.now,
            )
            .unwrap();
        assert!(out.accepted());
        let acc = out.accepted_chain.unwrap();
        assert_eq!(acc.chain.len(), 3);
        assert!(!acc.ev_granted); // leaf is not EV
    }

    #[test]
    fn repeated_validations_hit_the_signature_memo() {
        let pki = simple_chain("memo.example");
        let v = Validator::new(store_for(&pki), ValidationMode::UserAgent);
        let validate = || {
            let out = v
                .validate(
                    &pki.leaf,
                    std::slice::from_ref(&pki.intermediate),
                    Usage::Tls,
                    pki.now,
                )
                .unwrap();
            assert!(out.accepted());
        };
        validate();
        // First validation pays for each chain edge once: leaf <-
        // intermediate, intermediate <- root, root self-signature.
        let cold_misses = v.sig_memo().misses();
        assert!(cold_misses >= 3, "{cold_misses}");
        // Every subsequent validation of the same chain is all memo
        // hits — zero new hash-based signature verifications.
        for _ in 0..3 {
            validate();
        }
        assert_eq!(v.sig_memo().misses(), cold_misses);
        assert!(v.sig_memo().hits() >= 3 * 3);
    }

    #[test]
    fn rejects_expired_leaf() {
        let pki = simple_chain("expired.example");
        let v = Validator::new(store_for(&pki), ValidationMode::UserAgent);
        let late = pki.now + 2 * YEAR;
        let out = v
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                late,
            )
            .unwrap();
        assert!(!out.accepted());
        assert_eq!(
            out.final_reason(),
            Some(&RejectReason::Expired { index: 0 })
        );
    }

    #[test]
    fn rejects_not_yet_valid() {
        let pki = simple_chain("early.example");
        let v = Validator::new(store_for(&pki), ValidationMode::UserAgent);
        let out = v
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                pki.now - YEAR,
            )
            .unwrap();
        assert_eq!(
            out.final_reason(),
            Some(&RejectReason::NotYetValid { index: 0 })
        );
    }

    #[test]
    fn rejects_forged_signature() {
        let pki = simple_chain("forged.example");
        // A leaf naming the intermediate as issuer but signed by an
        // unrelated key carrying the intermediate's name.
        let fake_issuer_key =
            CaKey::from_seed(pki.intermediate_key.name().clone(), [0x67; 32], 4).unwrap();
        let forged = CertificateBuilder::new()
            .subject(DistinguishedName::common_name("victim.example"))
            .dns_names(&["victim.example"])
            .validity_window(T0 - YEAR, T0 + YEAR)
            .build_signed_by(&fake_issuer_key)
            .unwrap();
        for mode in [ValidationMode::UserAgent, ValidationMode::Hammurabi] {
            let v = Validator::new(store_for(&pki), mode.clone());
            let out = v
                .validate(
                    &forged,
                    std::slice::from_ref(&pki.intermediate),
                    Usage::Tls,
                    pki.now,
                )
                .unwrap();
            assert!(!out.accepted(), "{mode:?}");
            assert_eq!(
                out.final_reason(),
                Some(&RejectReason::BadSignature { index: 0 }),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn rejects_non_ca_intermediate() {
        // The leaf's issuer is another *leaf* (no CA bit).
        let root_key = CaKey::generate_for_tests("NonCA Root", 0x68);
        let root = CertificateBuilder::new()
            .validity_window(0, 4_000_000_000)
            .ca(None)
            .build_self_signed(&root_key)
            .unwrap();
        let middle_key = CaKey::generate_for_tests("Sneaky Leaf", 0x69);
        let middle = CertificateBuilder::new()
            .subject(middle_key.name().clone())
            .subject_key(middle_key.public())
            .validity_window(0, 4_000_000_000)
            // no basic constraints: not a CA
            .build_signed_by(&root_key)
            .unwrap();
        let leaf = CertificateBuilder::new()
            .subject(DistinguishedName::common_name("victim.example"))
            .validity_window(0, 4_000_000_000)
            .build_signed_by(&middle_key)
            .unwrap();
        let mut store = RootStore::new("test");
        store.add_trusted(root).unwrap();
        let v = Validator::new(store, ValidationMode::UserAgent);
        let out = v.validate(&leaf, &[middle], Usage::Tls, 1000).unwrap();
        assert_eq!(out.final_reason(), Some(&RejectReason::NotCa { index: 1 }));
    }

    #[test]
    fn enforces_path_length() {
        // Root(pathLen=0) -> int -> leaf is fine; root -> int1 -> int2 ->
        // leaf violates int1's pathLen=0... Here: intermediate has
        // pathLen 0 (from testutil) and we add another intermediate below.
        let pki = simple_chain("pathlen.example");
        let sub_key = CaKey::generate_for_tests("Sub CA", 0x6a);
        let sub = CertificateBuilder::new()
            .subject(sub_key.name().clone())
            .subject_key(sub_key.public())
            .validity_window(pki.now - YEAR, pki.now + YEAR)
            .ca(None)
            .build_signed_by(&pki.intermediate_key)
            .unwrap();
        let leaf = CertificateBuilder::new()
            .subject(DistinguishedName::common_name("deep.example"))
            .dns_names(&["deep.example"])
            .validity_window(pki.now - YEAR / 2, pki.now + YEAR / 2)
            .build_signed_by(&sub_key)
            .unwrap();
        let v = Validator::new(store_for(&pki), ValidationMode::UserAgent);
        let out = v
            .validate(&leaf, &[pki.intermediate.clone(), sub], Usage::Tls, pki.now)
            .unwrap();
        // Chain: leaf(0), sub(1), intermediate(2), root(3). The
        // intermediate at index 2 has pathLen 0 but 1 CA below it.
        assert_eq!(
            out.final_reason(),
            Some(&RejectReason::PathLenExceeded { index: 2 })
        );
    }

    #[test]
    fn enforces_name_constraints() {
        // ANSSI-style: root constrained to .fr (via a name-constrained
        // intermediate) must not validate google.com.
        let root_key = CaKey::generate_for_tests("NC Root", 0x6b);
        let root = CertificateBuilder::new()
            .validity_window(0, 4_000_000_000)
            .ca(None)
            .build_self_signed(&root_key)
            .unwrap();
        let int_key = CaKey::generate_for_tests("NC Int", 0x6c);
        let int = CertificateBuilder::new()
            .subject(int_key.name().clone())
            .subject_key(int_key.public())
            .validity_window(0, 4_000_000_000)
            .ca(None)
            .name_constraints(NameConstraints::permit(&["gouv.fr", "fr"]))
            .build_signed_by(&root_key)
            .unwrap();
        let good = CertificateBuilder::new()
            .subject(DistinguishedName::common_name("impots.gouv.fr"))
            .dns_names(&["impots.gouv.fr"])
            .validity_window(0, 4_000_000_000)
            .build_signed_by(&int_key)
            .unwrap();
        let evil = CertificateBuilder::new()
            .subject(DistinguishedName::common_name("google.com"))
            .dns_names(&["google.com"])
            .validity_window(0, 4_000_000_000)
            .build_signed_by(&int_key)
            .unwrap();
        let mut store = RootStore::new("test");
        store.add_trusted(root).unwrap();
        let v = Validator::new(store, ValidationMode::UserAgent);
        let pool = [int];
        assert!(v
            .validate(&good, &pool, Usage::Tls, 1000)
            .unwrap()
            .accepted());
        let out = v.validate(&evil, &pool, Usage::Tls, 1000).unwrap();
        assert_eq!(
            out.final_reason(),
            Some(&RejectReason::NameConstraintViolation {
                index: 1,
                name: "google.com".into()
            })
        );
    }

    #[test]
    fn enforces_eku() {
        let pki = simple_chain("eku.example");
        let v = Validator::new(store_for(&pki), ValidationMode::UserAgent);
        // testutil leaves have serverAuth EKU only.
        let out = v
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::SMime,
                pki.now,
            )
            .unwrap();
        assert_eq!(out.final_reason(), Some(&RejectReason::WrongEku));
    }

    #[test]
    fn hostname_checks() {
        let pki = simple_chain("www.host.example");
        let v = Validator::new(store_for(&pki), ValidationMode::UserAgent);
        let pool = [pki.intermediate.clone()];
        assert!(v
            .validate_for_host(&pki.leaf, &pool, "www.host.example", pki.now)
            .unwrap()
            .accepted());
        let out = v
            .validate_for_host(&pki.leaf, &pool, "evil.example", pki.now)
            .unwrap();
        assert_eq!(out.final_reason(), Some(&RejectReason::HostnameMismatch));
    }

    #[test]
    fn systematic_date_constraint() {
        let pki = simple_chain("sysdate.example");
        let mut store = store_for(&pki);
        // Distrust TLS leaves issued after a date *before* this leaf's
        // notBefore.
        store
            .record_mut(&pki.root.fingerprint())
            .unwrap()
            .tls_distrust_after = Some(pki.leaf.validity().not_before - 1);
        let v = Validator::new(store, ValidationMode::UserAgent);
        let out = v
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                pki.now,
            )
            .unwrap();
        assert_eq!(out.final_reason(), Some(&RejectReason::UsageDateConstraint));
    }

    #[test]
    fn gcc_rejection_and_continue_building() {
        let pki = simple_chain("gccflow.example");
        let mut store = store_for(&pki);
        // A GCC that rejects everything for TLS.
        let gcc = Gcc::parse(
            "deny-all",
            pki.root.fingerprint(),
            r#"valid(Chain, "never") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();
        let v = Validator::new(store, ValidationMode::UserAgent);
        let out = v
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                pki.now,
            )
            .unwrap();
        assert!(!out.accepted());
        assert_eq!(
            out.final_reason(),
            Some(&RejectReason::GccRejected {
                gcc_name: "deny-all".into()
            })
        );
        assert_eq!(out.attempts.len(), 1);
        assert_eq!(out.attempts[0].gcc_verdicts.len(), 1);
    }

    #[test]
    fn gcc_rejecting_one_root_falls_through_to_another() {
        // Two trusted roots can anchor the chain; a GCC kills the first
        // candidate, validation proceeds with the second ("continue
        // building", §3.1).
        let pki = simple_chain("fallback.example");
        let alt_root_key = CaKey::from_seed(pki.root_key.name().clone(), [0x55; 32], 6).unwrap();
        let alt_root = CertificateBuilder::new()
            .validity_window(pki.now - YEAR, pki.now + YEAR)
            .ca(None)
            .build_self_signed(&alt_root_key)
            .unwrap();
        // Cross-sign the intermediate under the alt root.
        let cross_int = CertificateBuilder::new()
            .subject(pki.intermediate_key.name().clone())
            .subject_key(pki.intermediate_key.public())
            .validity_window(pki.now - YEAR, pki.now + YEAR)
            .ca(Some(0))
            .build_signed_by(&alt_root_key)
            .unwrap();

        let mut store = RootStore::new("test");
        store.add_trusted(pki.root.clone()).unwrap();
        store.add_trusted(alt_root.clone()).unwrap();
        let deny = Gcc::parse(
            "deny-all",
            pki.root.fingerprint(),
            r#"valid(Chain, "never") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(deny).unwrap();

        let v = Validator::new(store, ValidationMode::UserAgent);
        let pool = [pki.intermediate.clone(), cross_int];
        let out = v.validate(&pki.leaf, &pool, Usage::Tls, pki.now).unwrap();
        assert!(
            out.accepted(),
            "{:?}",
            out.attempts.iter().map(|a| &a.result).collect::<Vec<_>>()
        );
        // The accepted chain anchors at the alternative root.
        let accepted_root = out
            .accepted_chain
            .as_ref()
            .unwrap()
            .chain
            .last()
            .unwrap()
            .clone();
        assert_eq!(accepted_root.fingerprint(), alt_root.fingerprint());
        // And at least one earlier attempt was GCC-rejected.
        assert!(out
            .attempts
            .iter()
            .any(|a| matches!(a.result, Err(RejectReason::GccRejected { .. }))));
    }

    #[test]
    fn ev_granted_only_when_store_allows() {
        let root_key = CaKey::generate_for_tests("EV Root", 0x6d);
        let root = CertificateBuilder::new()
            .validity_window(0, 4_000_000_000)
            .ca(None)
            .build_self_signed(&root_key)
            .unwrap();
        let leaf = CertificateBuilder::new()
            .subject(DistinguishedName::common_name("ev.example"))
            .dns_names(&["ev.example"])
            .validity_window(0, 4_000_000_000)
            .ev()
            .build_signed_by(&root_key)
            .unwrap();
        let mut store = RootStore::new("test");
        store.add_trusted(root.clone()).unwrap();
        let v = Validator::new(store.clone(), ValidationMode::UserAgent);
        let out = v.validate(&leaf, &[], Usage::Tls, 1000).unwrap();
        assert!(out.accepted_chain.as_ref().unwrap().ev_granted);

        // TurkTrust-style response: disallow EV for this root.
        store.record_mut(&root.fingerprint()).unwrap().ev_allowed = false;
        let v = Validator::new(store, ValidationMode::UserAgent);
        let out = v.validate(&leaf, &[], Usage::Tls, 1000).unwrap();
        assert!(out.accepted(), "chain still accepted");
        assert!(!out.accepted_chain.as_ref().unwrap().ev_granted);
    }

    #[test]
    fn platform_oracle_matches_user_agent() {
        let pki = simple_chain("oracle.example");
        let mut store = store_for(&pki);
        let gcc = Gcc::parse(
            "tls-only",
            pki.root.fingerprint(),
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();

        let ua = Validator::new(store.clone(), ValidationMode::UserAgent);
        let oracle = Arc::new(InProcessOracle::new(store.clone()));
        let platform = Validator::new(store, ValidationMode::Platform(oracle));
        let pool = [pki.intermediate.clone()];
        for usage in Usage::ALL {
            let a = ua.validate(&pki.leaf, &pool, usage, pki.now).unwrap();
            let b = platform.validate(&pki.leaf, &pool, usage, pki.now).unwrap();
            assert_eq!(a.accepted(), b.accepted(), "{usage}");
        }
    }

    #[test]
    fn verdict_cache_reuses_gcc_results_across_validations() {
        let pki = simple_chain("cache.example");
        let mut store = store_for(&pki);
        let gcc = Gcc::parse(
            "tls-only",
            pki.root.fingerprint(),
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();
        let cache = Arc::new(VerdictCache::new(64));
        let v =
            Validator::new(store, ValidationMode::UserAgent).with_verdict_cache(Arc::clone(&cache));
        let pool = [pki.intermediate.clone()];
        let first = v.validate(&pki.leaf, &pool, Usage::Tls, pki.now).unwrap();
        assert!(first.accepted());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = v.validate(&pki.leaf, &pool, Usage::Tls, pki.now).unwrap();
        assert!(second.accepted());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(
            first.attempts[0].gcc_verdicts,
            second.attempts[0].gcc_verdicts
        );
    }

    #[test]
    fn unknown_root_no_candidates() {
        let pki = simple_chain("unknown.example");
        let v = Validator::new(RootStore::new("empty"), ValidationMode::UserAgent);
        let out = v
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                pki.now,
            )
            .unwrap();
        assert!(!out.accepted());
        assert_eq!(out.final_reason(), Some(&RejectReason::NoCandidateChains));
        assert!(out.attempts.is_empty());
    }
}
