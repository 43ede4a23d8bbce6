//! Shared validation sessions: the fact side of compile-once /
//! evaluate-many GCC execution.
//!
//! A [`ValidationSession`] converts a candidate chain into its Datalog
//! fact representation exactly once and freezes it behind an
//! `Arc<Database>`. Every GCC evaluated against the chain — and every
//! usage it is evaluated for — reads through that shared base, so the
//! per-GCC cost is one small overlay of derived tuples instead of a
//! full clone of the fact base. The session also owns a reusable
//! [`EvalScratch`]: overlay relations, binding slots, semi-naive delta
//! sets and the pending queue are cleared capacity-retained between
//! evaluations, so a warm cache-miss evaluation performs zero
//! steady-state heap allocations.
//!
//! On top of that sits the [`VerdictCache`] (see [`crate::cache`]), a
//! bounded sharded LRU keyed by `(chain, GCC source hash, usage)`.
//! Because GCCs are pure logic programs over the chain's facts, a
//! verdict is fully determined by that triple; the trust daemon shares
//! one cache across all client connections, so repeated validations of
//! the same chain (common when many processes talk to one platform
//! daemon) skip evaluation entirely. [`evaluate_gccs_lazy`] goes one
//! step further: it computes only the chain's content key up front and
//! defers fact conversion until the first cache miss, so a fully warm
//! chain costs a few hashes and cache probes — no Datalog at all.

use crate::facts::{chain_facts, chain_id, fact_syms};
use crate::gcc_eval::GccVerdict;
use crate::CoreError;
use nrslb_crypto::sha256::{Digest, Sha256};
use nrslb_datalog::eval::DEFAULT_BUDGET;
use nrslb_datalog::intern::{IVal, Sym};
use nrslb_datalog::{Database, EvalScratch, Val};
use nrslb_rootstore::{Gcc, Usage};
use nrslb_x509::Certificate;
use std::sync::{Arc, Mutex};

pub use crate::cache::{VerdictCache, VerdictKey, DEFAULT_VERDICT_CACHE_CAPACITY};

/// Content identity of a chain: SHA-256 over the certificate
/// fingerprints in order. This is the verdict-cache key component —
/// unlike [`chain_id`], which is only unique *within* one validation,
/// it distinguishes chains sharing a leaf. Computable without building
/// any facts (and without allocating: the digest is streamed), which is
/// what makes the lazy fast path possible.
pub fn chain_content_key(chain: &[Certificate]) -> Digest {
    let mut hasher = Sha256::new();
    for cert in chain {
        hasher.update(cert.fingerprint().0);
    }
    hasher.finalize()
}

/// A candidate chain converted to facts once, shared by every GCC (and
/// usage) evaluated against it.
#[derive(Debug)]
pub struct ValidationSession {
    facts: Arc<Database>,
    handle: String,
    handle_sym: Sym,
    chain_key: Digest,
    /// Reusable evaluation buffers; fresh per clone (scratch state is
    /// transient, never part of the session's identity).
    scratch: Mutex<EvalScratch>,
}

impl Clone for ValidationSession {
    fn clone(&self) -> ValidationSession {
        ValidationSession {
            facts: Arc::clone(&self.facts),
            handle: self.handle.clone(),
            handle_sym: self.handle_sym,
            chain_key: self.chain_key,
            scratch: Mutex::new(EvalScratch::new()),
        }
    }
}

impl ValidationSession {
    /// Convert `chain` (leaf first) into a frozen, shareable fact base.
    pub fn new(chain: &[Certificate]) -> ValidationSession {
        let handle = chain_id(chain);
        let handle_sym = nrslb_datalog::intern(&handle);
        ValidationSession {
            facts: Arc::new(chain_facts(chain)),
            handle,
            handle_sym,
            chain_key: chain_content_key(chain),
            scratch: Mutex::new(EvalScratch::new()),
        }
    }

    /// The frozen fact base (the EDB every evaluation layers over).
    pub fn facts(&self) -> &Arc<Database> {
        &self.facts
    }

    /// The chain's Datalog handle (first argument of `valid/2`).
    pub fn chain_handle(&self) -> &str {
        &self.handle
    }

    /// The chain's content identity ([`chain_content_key`]).
    pub fn chain_key(&self) -> Digest {
        self.chain_key
    }

    fn scratch(&self) -> std::sync::MutexGuard<'_, EvalScratch> {
        self.scratch.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Did the last run derive `valid(handle, usage)`? Probes the
    /// scratch overlay with pre-interned symbols — no allocation, no
    /// string hashing.
    fn verdict(&self, scratch: &EvalScratch, usage: Usage) -> bool {
        let syms = fact_syms();
        let query = [IVal::Sym(self.handle_sym), IVal::Sym(syms.usage(usage))];
        scratch.overlay().icontains(syms.valid, &query)
    }

    /// Evaluate one GCC against the shared fact base. The base is not
    /// cloned; the GCC's derived tuples land in the session's reusable
    /// scratch overlay (cleared capacity-retained, not reallocated).
    pub fn evaluate_gcc(&self, gcc: &Gcc, usage: Usage) -> Result<bool, CoreError> {
        let mut scratch = self.scratch();
        gcc.compiled()
            .evaluate_reusing(&self.facts, &mut scratch, DEFAULT_BUDGET)?;
        Ok(self.verdict(&scratch, usage))
    }

    /// [`ValidationSession::evaluate_gcc`] with the engine reporting
    /// into `metrics` (evaluation count, derivations, rounds, latency).
    pub fn evaluate_gcc_metered(
        &self,
        gcc: &Gcc,
        usage: Usage,
        metrics: &nrslb_datalog::EvalMetrics,
    ) -> Result<bool, CoreError> {
        let mut scratch = self.scratch();
        gcc.compiled().evaluate_reusing_metered(
            &self.facts,
            &mut scratch,
            DEFAULT_BUDGET,
            metrics,
        )?;
        Ok(self.verdict(&scratch, usage))
    }

    /// Evaluate one GCC on the **string-path reference evaluator**
    /// ([`nrslb_datalog::evaluate_strings`]), which shares no execution
    /// machinery with the interned engine at all — relations keyed by
    /// strings, tuples of owned [`Val`]s, naive iteration.
    ///
    /// This is the `interned-vs-string` differential arm: agreement
    /// here checks the entire interning layer (symbol table, `ITuple`
    /// storage, compiled IR) against the pre-interning execution model.
    pub fn evaluate_gcc_string(&self, gcc: &Gcc, usage: Usage) -> Result<bool, CoreError> {
        let out =
            nrslb_datalog::evaluate_strings(gcc.compiled().program(), &self.facts, DEFAULT_BUDGET)?;
        Ok(out.contains(
            "valid",
            &[Val::str(&*self.handle), Val::str(usage.as_datalog())],
        ))
    }

    /// Evaluate every GCC in order, consulting (and filling) `cache`.
    pub fn evaluate_gccs_cached(
        &self,
        gccs: &[Gcc],
        usage: Usage,
        cache: Option<&VerdictCache>,
    ) -> Result<Vec<GccVerdict>, CoreError> {
        self.evaluate_gccs_observed(gccs, usage, cache, None)
    }

    /// [`ValidationSession::evaluate_gccs_cached`] with the Datalog
    /// engine optionally reporting into `metrics`. Cache hits skip
    /// evaluation entirely, so they record nothing there — the cache's
    /// own instruments count them.
    pub fn evaluate_gccs_observed(
        &self,
        gccs: &[Gcc],
        usage: Usage,
        cache: Option<&VerdictCache>,
        metrics: Option<&nrslb_datalog::EvalMetrics>,
    ) -> Result<Vec<GccVerdict>, CoreError> {
        let mut verdicts = Vec::with_capacity(gccs.len());
        for gcc in gccs {
            let key = VerdictKey {
                chain: self.chain_key,
                gcc: gcc.source_hash(),
                usage,
            };
            let accepted = match cache.and_then(|c| c.get(&key)) {
                Some(cached) => cached,
                None => {
                    let computed = match metrics {
                        Some(m) => self.evaluate_gcc_metered(gcc, usage, m)?,
                        None => self.evaluate_gcc(gcc, usage)?,
                    };
                    if let Some(c) = cache {
                        // The session no longer holds the chain, so the
                        // entry's taint is the policy's attachment
                        // point (plus key.gcc, added implicitly).
                        c.insert_tainted(key, computed, &[gcc.target()]);
                    }
                    computed
                }
            };
            verdicts.push(GccVerdict {
                gcc_name: Arc::clone(gcc.name_shared()),
                accepted,
            });
        }
        Ok(verdicts)
    }

    /// Evaluate every GCC in order without a cache.
    pub fn evaluate_gccs(&self, gccs: &[Gcc], usage: Usage) -> Result<Vec<GccVerdict>, CoreError> {
        self.evaluate_gccs_cached(gccs, usage, None)
    }
}

/// Evaluate every GCC against `chain`, building the
/// [`ValidationSession`] (the Datalog fact conversion) only if some
/// verdict actually misses the cache.
///
/// This is the serving fast path: for a fully warm chain the cost is
/// one [`chain_content_key`] (a few SHA-256 blocks over already-cached
/// fingerprints) plus one sharded cache probe per GCC. Verdicts and
/// hit/miss accounting are identical to building a session eagerly and
/// calling [`ValidationSession::evaluate_gccs_observed`] — each key is
/// probed exactly once either way.
pub fn evaluate_gccs_lazy(
    chain: &[Certificate],
    gccs: &[Gcc],
    usage: Usage,
    cache: &VerdictCache,
    metrics: Option<&nrslb_datalog::EvalMetrics>,
) -> Result<Vec<GccVerdict>, CoreError> {
    let mut verdicts = Vec::with_capacity(gccs.len());
    evaluate_gccs_lazy_into(chain, gccs, usage, cache, metrics, &mut verdicts)?;
    Ok(verdicts)
}

/// [`evaluate_gccs_lazy`] writing into a caller-provided buffer
/// (cleared first), so a serving loop can reuse one verdict `Vec`
/// across requests instead of allocating per call.
pub fn evaluate_gccs_lazy_into(
    chain: &[Certificate],
    gccs: &[Gcc],
    usage: Usage,
    cache: &VerdictCache,
    metrics: Option<&nrslb_datalog::EvalMetrics>,
    verdicts: &mut Vec<GccVerdict>,
) -> Result<(), CoreError> {
    let chain_key = chain_content_key(chain);
    evaluate_gccs_lazy_keyed(chain, gccs, usage, cache, metrics, chain_key, verdicts)
}

/// [`evaluate_gccs_lazy_into`] with a precomputed
/// [`chain_content_key`], for callers (the reactor's fused inline
/// probe) that already derived the key while checking cache residency
/// and must not pay the SHA-256 pass twice.
pub fn evaluate_gccs_lazy_keyed(
    chain: &[Certificate],
    gccs: &[Gcc],
    usage: Usage,
    cache: &VerdictCache,
    metrics: Option<&nrslb_datalog::EvalMetrics>,
    chain_key: Digest,
    verdicts: &mut Vec<GccVerdict>,
) -> Result<(), CoreError> {
    verdicts.clear();
    let mut session: Option<ValidationSession> = None;
    // Taint identities of this chain, computed once on the first miss
    // (cold path only): the root's fingerprint plus every issuer SPKI,
    // so a feed delta touching any of them evicts exactly these
    // verdicts.
    let mut chain_taints: Option<Vec<Digest>> = None;
    for gcc in gccs {
        let key = VerdictKey {
            chain: chain_key,
            gcc: gcc.source_hash(),
            usage,
        };
        let accepted = match cache.get(&key) {
            Some(cached) => cached,
            None => {
                let session = session.get_or_insert_with(|| ValidationSession::new(chain));
                let computed = match metrics {
                    Some(m) => session.evaluate_gcc_metered(gcc, usage, m)?,
                    None => session.evaluate_gcc(gcc, usage)?,
                };
                let base = chain_taints.get_or_insert_with(|| {
                    let mut tags: Vec<Digest> = Vec::with_capacity(chain.len() + 1);
                    if let Some(root) = chain.last() {
                        tags.push(root.fingerprint());
                    }
                    for issuer in chain.iter().skip(1) {
                        tags.push(issuer.public_key().fingerprint());
                    }
                    tags
                });
                let mut tags = base.clone();
                tags.push(gcc.target());
                cache.insert_tainted(key, computed, &tags);
                computed
            }
        };
        verdicts.push(GccVerdict {
            gcc_name: Arc::clone(gcc.name_shared()),
            accepted,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrslb_crypto::sha256::sha256;
    use nrslb_rootstore::GccMetadata;
    use nrslb_x509::testutil::simple_chain;

    fn chain() -> Vec<Certificate> {
        let pki = simple_chain("session.example");
        vec![pki.leaf, pki.intermediate, pki.root]
    }

    fn gcc(name: &str, src: &str) -> Gcc {
        Gcc::parse(name, Digest::ZERO, src, GccMetadata::default()).unwrap()
    }

    #[test]
    fn content_key_streams_to_the_same_digest() {
        let chain = chain();
        let mut concat = Vec::new();
        for cert in &chain {
            concat.extend_from_slice(&cert.fingerprint().0);
        }
        assert_eq!(chain_content_key(&chain), sha256(&concat));
    }

    #[test]
    fn session_shares_one_fact_base_across_gccs() {
        let chain = chain();
        let session = ValidationSession::new(&chain);
        let gccs = [
            gcc("a", r#"valid(Chain, "TLS") :- leaf(Chain, _)."#),
            gcc("b", r#"valid(Chain, "TLS") :- leaf(Chain, C), EV(C)."#),
            gcc("c", r#"valid(Chain, U) :- chain(Chain), usage_never(U)."#),
        ];
        let before = Arc::strong_count(session.facts());
        let verdicts = session.evaluate_gccs(&gccs, Usage::Tls).unwrap();
        assert_eq!(
            verdicts.iter().map(|v| v.accepted).collect::<Vec<_>>(),
            [true, false, false]
        );
        // Nothing held onto the base: evaluation borrowed it per GCC.
        assert_eq!(Arc::strong_count(session.facts()), before);
    }

    #[test]
    fn string_reference_agrees_with_interned_paths() {
        let chain = chain();
        let session = ValidationSession::new(&chain);
        let gccs = [
            gcc("accept", r#"valid(Chain, "TLS") :- leaf(Chain, _)."#),
            gcc("reject", r#"valid(Chain, "TLS") :- leaf(Chain, C), EV(C)."#),
            gcc(
                "lifetime",
                r#"valid(Chain, "TLS") :- leaf(Chain, C), notBefore(C, NB),
                   notAfter(C, NA), L = NA - NB, L < 100000000."#,
            ),
        ];
        for g in &gccs {
            for usage in Usage::ALL {
                let interned = session.evaluate_gcc(g, usage).unwrap();
                assert_eq!(interned, session.evaluate_gcc_string(g, usage).unwrap());
            }
        }
    }

    #[test]
    fn chain_key_distinguishes_chains_with_same_leaf_count() {
        let a = ValidationSession::new(&chain());
        let pki = simple_chain("other-session.example");
        let b = ValidationSession::new(&[pki.leaf, pki.intermediate, pki.root]);
        assert_ne!(a.chain_key(), b.chain_key());
    }

    #[test]
    fn cached_evaluation_skips_the_engine() {
        let chain = chain();
        let session = ValidationSession::new(&chain);
        let cache = VerdictCache::new(8);
        let gccs = [gcc("tls", r#"valid(Chain, "TLS") :- leaf(Chain, _)."#)];
        let first = session
            .evaluate_gccs_cached(&gccs, Usage::Tls, Some(&cache))
            .unwrap();
        assert!(first[0].accepted);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        let second = session
            .evaluate_gccs_cached(&gccs, Usage::Tls, Some(&cache))
            .unwrap();
        assert_eq!(first[0], second[0]);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different usage is a different key.
        session
            .evaluate_gccs_cached(&gccs, Usage::SMime, Some(&cache))
            .unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn cache_key_separates_gccs_on_one_chain() {
        let chain = chain();
        let session = ValidationSession::new(&chain);
        let cache = VerdictCache::new(8);
        let accept = gcc("accept", r#"valid(Chain, "TLS") :- leaf(Chain, _)."#);
        let reject = gcc("reject", r#"valid(Chain, "TLS") :- leaf(Chain, C), EV(C)."#);
        let verdicts = session
            .evaluate_gccs_cached(&[accept, reject], Usage::Tls, Some(&cache))
            .unwrap();
        assert!(verdicts[0].accepted);
        assert!(!verdicts[1].accepted);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lazy_evaluation_matches_eager_and_skips_fact_conversion_when_warm() {
        let chain = chain();
        let cache = VerdictCache::new(8);
        let gccs = [
            gcc("accept", r#"valid(Chain, "TLS") :- leaf(Chain, _)."#),
            gcc("reject", r#"valid(Chain, "TLS") :- leaf(Chain, C), EV(C)."#),
        ];
        let cold = evaluate_gccs_lazy(&chain, &gccs, Usage::Tls, &cache, None).unwrap();
        assert_eq!(
            cold.iter().map(|v| v.accepted).collect::<Vec<_>>(),
            [true, false]
        );
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // Warm pass: every verdict answered from the cache; the eager
        // path agrees verdict-for-verdict. The `_into` form reuses the
        // caller's buffer.
        let mut warm = Vec::new();
        evaluate_gccs_lazy_into(&chain, &gccs, Usage::Tls, &cache, None, &mut warm).unwrap();
        assert_eq!(warm, cold);
        assert_eq!((cache.hits(), cache.misses()), (2, 2));
        let eager = ValidationSession::new(&chain)
            .evaluate_gccs_cached(&gccs, Usage::Tls, Some(&cache))
            .unwrap();
        assert_eq!(eager, cold);
    }
}
