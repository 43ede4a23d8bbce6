//! Contention-free caches for the validation fast path.
//!
//! The trust daemon's workers — and every co-resident validator — share
//! two memoization structures on the hot path:
//!
//! * the [`VerdictCache`], a bounded LRU of GCC verdicts keyed by
//!   `(chain, GCC source, usage)`, and
//! * the [`SigMemo`], a bounded memo of hash-based-signature
//!   verification results keyed by `(certificate fingerprint, issuer
//!   SPKI digest)` — the dominant per-chain cost (a WOTS+/XMSS
//!   verification is thousands of SHA-256 compressions), paid once per
//!   `(cert, issuer)` edge instead of once per validation.
//!
//! Both are built on one N-way sharded LRU: keys hash to a shard, each
//! shard owns a private `parking_lot` lock, and aggregate statistics are
//! lock-free atomics. Under concurrent load no two operations on
//! different shards ever contend, so throughput scales with worker
//! count instead of serializing on one lock (the pre-sharding design).
//!
//! ## Semantics vs a single-lock LRU
//!
//! A sharded cache with `S` shards and capacity `C` behaves exactly
//! like `S` independent single-lock LRUs of capacity `⌈C/S⌉` each:
//! lookups, stored values, and hit/miss accounting are identical to the
//! single-lock design, but recency (and therefore *which* entry is
//! evicted under pressure) is tracked per shard, not globally. With
//! `shards = 1` the cache *is* the old single-lock design — that
//! configuration is kept as the benchmark ablation and as the oracle
//! for the equivalence proptest (`tests/verdict_cache.rs`).

use nrslb_crypto::sha256::Digest;
use nrslb_rootstore::Usage;
use nrslb_rsf::TaintSet;
use nrslb_x509::Certificate;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default shard count for the hot-path caches. Eight shards keep the
/// collision probability for the daemon's default eight workers low
/// (two workers contend only when their keys land in the same shard)
/// without fragmenting small caches into uselessly tiny LRUs.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// Default capacity of the signature-verification memo: one entry per
/// distinct `(certificate, issuer)` edge, 8192 edges ≈ every chain a
/// busy daemon sees between root-store updates.
pub const DEFAULT_SIG_MEMO_CAPACITY: usize = 8192;

/// One shard: a bounded LRU guarded by its own lock.
struct Shard<K, V> {
    inner: Mutex<ShardInner<K, V>>,
}

struct ShardInner<K, V> {
    map: HashMap<K, (V, u64)>,
    /// Recency order: stamp -> key, oldest first.
    order: BTreeMap<u64, K>,
    clock: u64,
}

impl<K, V> Shard<K, V> {
    fn new() -> Shard<K, V> {
        Shard {
            inner: Mutex::new(ShardInner {
                map: HashMap::new(),
                order: BTreeMap::new(),
                clock: 0,
            }),
        }
    }
}

/// An N-way sharded, bounded, thread-safe LRU map.
///
/// Keys hash to a shard; every operation locks exactly one shard. The
/// aggregate statistics (`hits`, `misses`, `evictions`, `len`) are
/// relaxed atomics updated inside the shard's critical section, so
/// totals are exact once writers quiesce.
pub struct ShardedLru<K, V> {
    shards: Vec<Shard<K, V>>,
    shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    entries: AtomicU64,
}

impl<K: Hash + Eq + Copy, V: Clone> ShardedLru<K, V> {
    /// A map of at least `capacity` total entries split across `shards`
    /// shards (each shard holds `⌈capacity/shards⌉`, at least 1).
    pub fn new(capacity: usize, shards: usize) -> ShardedLru<K, V> {
        let shards = shards.max(1);
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedLru {
            shards: (0..shards).map(|_| Shard::new()).collect(),
            shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total capacity (shard capacity × shard count; the requested
    /// capacity rounded up to a multiple of the shard count).
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// The shard index `key` maps to.
    pub fn shard_of(&self, key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Look up `key`, marking it most-recently-used in its shard.
    /// Returns the shard index alongside the value so callers can
    /// attribute per-shard metrics without re-hashing.
    pub fn get_indexed(&self, key: &K) -> (usize, Option<V>) {
        let idx = self.shard_of(key);
        let mut inner = self.shards[idx].inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let ShardInner { map, order, .. } = &mut *inner;
        let out = match map.get_mut(key) {
            Some((value, stamp)) => {
                order.remove(stamp);
                *stamp = clock;
                order.insert(clock, *key);
                let value = value.clone();
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(value)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        };
        (idx, out)
    }

    /// Look up `key`, marking it most-recently-used in its shard.
    pub fn get(&self, key: &K) -> Option<V> {
        self.get_indexed(key).1
    }

    /// Look up `key` *without* counting a hit or miss and without
    /// touching the shard's recency order. This is the probe for the
    /// reactor's inline cost guard: deciding *where* to execute a
    /// request must not perturb the statistics or eviction behavior
    /// the execution itself will produce, or the two dispatch paths
    /// would stop being observationally identical.
    pub fn peek(&self, key: &K) -> Option<V> {
        let idx = self.shard_of(key);
        let inner = self.shards[idx].inner.lock();
        inner.map.get(key).map(|(value, _)| value.clone())
    }

    /// Insert (or refresh) `key`, evicting the shard's least-recently-
    /// used entry when the shard is full. Returns the shard index and
    /// how many entries were evicted.
    pub fn insert_indexed(&self, key: K, value: V) -> (usize, u64) {
        let (idx, evicted) = self.insert_evicting(key, value);
        (idx, evicted.len() as u64)
    }

    /// [`ShardedLru::insert_indexed`], additionally returning the keys
    /// the LRU policy pushed out — callers maintaining side indexes
    /// (e.g. the verdict cache's taint index) must learn which entries
    /// silently disappeared.
    pub fn insert_evicting(&self, key: K, value: V) -> (usize, Vec<K>) {
        let idx = self.shard_of(&key);
        let mut inner = self.shards[idx].inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        let ShardInner { map, order, .. } = &mut *inner;
        if let Some((stored, stamp)) = map.get_mut(&key) {
            *stored = value;
            order.remove(stamp);
            *stamp = clock;
            order.insert(clock, key);
            return (idx, Vec::new());
        }
        let mut evicted = Vec::new();
        while map.len() >= self.shard_capacity {
            let Some((_, oldest)) = order.pop_first() else {
                break;
            };
            map.remove(&oldest);
            evicted.push(oldest);
        }
        map.insert(key, (value, clock));
        order.insert(clock, key);
        if !evicted.is_empty() {
            self.evictions
                .fetch_add(evicted.len() as u64, Ordering::Relaxed);
            self.entries
                .fetch_sub(evicted.len() as u64, Ordering::Relaxed);
        }
        self.entries.fetch_add(1, Ordering::Relaxed);
        (idx, evicted)
    }

    /// Insert (or refresh) `key`; see [`ShardedLru::insert_indexed`].
    pub fn insert(&self, key: K, value: V) {
        self.insert_indexed(key, value);
    }

    /// Remove `key` from its shard; returns whether it was present.
    /// Targeted invalidation, not an LRU eviction — it does not count
    /// toward [`ShardedLru::evictions`].
    pub fn remove(&self, key: &K) -> bool {
        let idx = self.shard_of(key);
        let mut inner = self.shards[idx].inner.lock();
        let ShardInner { map, order, .. } = &mut *inner;
        match map.remove(key) {
            Some((_, stamp)) => {
                order.remove(&stamp);
                self.entries.fetch_sub(1, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }

    /// Drop every entry in every shard (retaining allocations); returns
    /// how many entries were removed. Like [`ShardedLru::remove`], this
    /// is invalidation, not LRU eviction.
    pub fn clear(&self) -> u64 {
        let mut removed = 0u64;
        for shard in &self.shards {
            let mut inner = shard.inner.lock();
            removed += inner.map.len() as u64;
            inner.map.clear();
            inner.order.clear();
        }
        self.entries.fetch_sub(removed, Ordering::Relaxed);
        removed
    }

    /// Number of stored entries across all shards.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the map so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the per-shard LRU policy so far.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

/// What determines a GCC verdict: the chain's content identity, the
/// GCC's content identity, and the requested usage. GCCs are pure
/// functions of these three.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct VerdictKey {
    /// [`crate::ValidationSession::chain_key`] of the chain.
    pub chain: Digest,
    /// [`nrslb_rootstore::Gcc::source_hash`] of the constraint.
    pub gcc: Digest,
    /// The requested usage.
    pub usage: Usage,
}

/// Default capacity of the trust daemon's verdict cache.
pub const DEFAULT_VERDICT_CACHE_CAPACITY: usize = 4096;

/// Registry handles mirroring the cache's statistics, present when the
/// cache was built via [`VerdictCache::with_registry`].
struct CacheInstruments {
    hits: nrslb_obs::Counter,
    misses: nrslb_obs::Counter,
    evictions: nrslb_obs::Counter,
    invalidations: nrslb_obs::Counter,
    entries: nrslb_obs::Gauge,
    /// Per-shard hit/miss counters, indexed by shard.
    shard_hits: Vec<nrslb_obs::Counter>,
    shard_misses: Vec<nrslb_obs::Counter>,
}

/// Bidirectional index between cached verdict keys and the taint
/// digests they depend on, enabling
/// [`VerdictCache::invalidate_taint`] to evict exactly the verdicts a
/// feed delta touched instead of clearing wholesale.
#[derive(Default)]
struct TaintIndex {
    by_digest: HashMap<Digest, std::collections::HashSet<VerdictKey>>,
    by_key: HashMap<VerdictKey, Vec<Digest>>,
}

impl TaintIndex {
    /// Register `key` under `tags`, replacing any previous
    /// registration (re-inserted verdicts may carry different taints).
    fn register(&mut self, key: VerdictKey, tags: &[Digest]) {
        self.unregister(&key);
        let mut stored: Vec<Digest> = Vec::with_capacity(tags.len());
        for tag in tags {
            if stored.contains(tag) {
                continue;
            }
            stored.push(*tag);
            self.by_digest.entry(*tag).or_default().insert(key);
        }
        self.by_key.insert(key, stored);
    }

    /// Forget `key` entirely (evicted or invalidated).
    fn unregister(&mut self, key: &VerdictKey) {
        let Some(tags) = self.by_key.remove(key) else {
            return;
        };
        for tag in tags {
            if let Some(set) = self.by_digest.get_mut(&tag) {
                set.remove(key);
                if set.is_empty() {
                    self.by_digest.remove(&tag);
                }
            }
        }
    }

    /// All keys registered under `digest`, detached from that digest's
    /// bucket (the caller unregisters each key it actually evicts).
    fn take_keys(&mut self, digest: &Digest) -> Vec<VerdictKey> {
        self.by_digest
            .remove(digest)
            .map(|set| set.into_iter().collect())
            .unwrap_or_default()
    }

    fn clear(&mut self) {
        self.by_digest.clear();
        self.by_key.clear();
    }
}

/// A bounded, thread-safe, N-way sharded LRU cache of GCC verdicts.
///
/// Shared (via `Arc`) between the validator, the in-process oracle and
/// every trust-daemon worker. Each lookup or insert locks only the
/// shard its key hashes to, so concurrent workers touching different
/// chains never contend; see the module docs for the exact semantics
/// relative to a single global LRU.
pub struct VerdictCache {
    lru: ShardedLru<VerdictKey, bool>,
    /// Taint digests ↔ keys; locked before any shard lock (insert and
    /// invalidate both follow index → shard order, so the two locks
    /// never interleave in opposite orders).
    taint: Mutex<TaintIndex>,
    instruments: Option<CacheInstruments>,
}

impl std::fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "VerdictCache({}/{} entries, {} shards, {} hits, {} misses)",
            self.len(),
            self.capacity(),
            self.shard_count(),
            self.hits(),
            self.misses()
        )
    }
}

impl VerdictCache {
    /// A cache of at least `capacity` entries split across
    /// [`DEFAULT_CACHE_SHARDS`] shards.
    pub fn new(capacity: usize) -> VerdictCache {
        VerdictCache::with_shards(capacity, DEFAULT_CACHE_SHARDS)
    }

    /// A cache with an explicit shard count (at least 1). `shards = 1`
    /// is a single-lock LRU — the model the equivalence tests check the
    /// sharded layout against.
    pub fn with_shards(capacity: usize, shards: usize) -> VerdictCache {
        VerdictCache {
            lru: ShardedLru::new(capacity, shards),
            taint: Mutex::new(TaintIndex::default()),
            instruments: None,
        }
    }

    /// A cache that also mirrors its statistics into `registry` as
    /// `nrslb_verdict_cache_{hits,misses,evictions}_total` counters, an
    /// `nrslb_verdict_cache_entries` gauge, and per-shard
    /// `nrslb_verdict_cache_shard_{hits,misses}_total{shard="i"}`
    /// counters.
    pub fn with_registry(capacity: usize, registry: &nrslb_obs::Registry) -> VerdictCache {
        VerdictCache::with_shards_and_registry(capacity, DEFAULT_CACHE_SHARDS, registry)
    }

    /// [`VerdictCache::with_registry`] with an explicit shard count.
    pub fn with_shards_and_registry(
        capacity: usize,
        shards: usize,
        registry: &nrslb_obs::Registry,
    ) -> VerdictCache {
        let mut cache = VerdictCache::with_shards(capacity, shards);
        let per_shard = |name: &str, help: &str| {
            (0..cache.lru.shard_count())
                .map(|i| registry.counter_with(name, &[("shard", &i.to_string())], help))
                .collect()
        };
        cache.instruments = Some(CacheInstruments {
            hits: registry.counter(
                "nrslb_verdict_cache_hits_total",
                "verdict-cache lookups answered from the cache",
            ),
            misses: registry.counter(
                "nrslb_verdict_cache_misses_total",
                "verdict-cache lookups that missed",
            ),
            evictions: registry.counter(
                "nrslb_verdict_cache_evictions_total",
                "verdicts evicted by the LRU policy",
            ),
            invalidations: registry.counter(
                "nrslb_verdict_cache_invalidations_total",
                "verdicts evicted by taint-targeted invalidation",
            ),
            entries: registry.gauge("nrslb_verdict_cache_entries", "verdicts currently cached"),
            shard_hits: per_shard(
                "nrslb_verdict_cache_shard_hits_total",
                "verdict-cache hits by shard",
            ),
            shard_misses: per_shard(
                "nrslb_verdict_cache_shard_misses_total",
                "verdict-cache misses by shard",
            ),
        });
        cache
    }

    /// Look up a verdict, marking the entry most-recently-used within
    /// its shard.
    pub fn get(&self, key: &VerdictKey) -> Option<bool> {
        let (shard, value) = self.lru.get_indexed(key);
        if let Some(i) = &self.instruments {
            match value {
                Some(_) => {
                    i.hits.inc();
                    i.shard_hits[shard].inc();
                }
                None => {
                    i.misses.inc();
                    i.shard_misses[shard].inc();
                }
            }
        }
        value
    }

    /// Look up a verdict *without* counting a hit or miss, touching
    /// recency, or ticking the registry mirrors — see
    /// [`ShardedLru::peek`]. Used by the inline cost guard to ask
    /// "would this request hit?" before choosing a dispatch path.
    pub fn peek(&self, key: &VerdictKey) -> Option<bool> {
        self.lru.peek(key)
    }

    /// Insert (or refresh) a verdict, evicting the shard's least-
    /// recently-used entry when the shard is full. The entry is
    /// implicitly tainted by its GCC source hash (`key.gcc`); use
    /// [`VerdictCache::insert_tainted`] to attach the chain's root and
    /// issuer identities too.
    pub fn insert(&self, key: VerdictKey, value: bool) {
        self.insert_tainted(key, value, &[]);
    }

    /// Insert (or refresh) a verdict tagged with the extra taint
    /// digests it depends on — typically the chain's root fingerprint
    /// and issuer SPKI fingerprints. `key.gcc` is always added, so
    /// every entry is at minimum invalidatable by its policy source. A
    /// later [`VerdictCache::invalidate_taint`] whose set names any of
    /// these digests evicts exactly this entry (and its fellows).
    pub fn insert_tainted(&self, key: VerdictKey, value: bool, taints: &[Digest]) {
        let mut index = self.taint.lock();
        let (_, evicted_keys) = self.lru.insert_evicting(key, value);
        for k in &evicted_keys {
            index.unregister(k);
        }
        let mut tags: Vec<Digest> = Vec::with_capacity(taints.len() + 1);
        tags.push(key.gcc);
        tags.extend_from_slice(taints);
        index.register(key, &tags);
        drop(index);
        if let Some(i) = &self.instruments {
            if !evicted_keys.is_empty() {
                i.evictions.add(evicted_keys.len() as u64);
            }
            i.entries.set(self.lru.len() as i64);
        }
    }

    /// Evict every cached verdict whose taint tags intersect `taint` —
    /// the single invalidation path for both feed-ingest flavors:
    /// precise deltas name the touched roots/GCCs/SPKIs and evict only
    /// their dependents; a snapshot fallback arrives as
    /// [`TaintSet::full`] and clears everything. An empty taint evicts
    /// nothing. Returns how many verdicts were evicted.
    pub fn invalidate_taint(&self, taint: &TaintSet) -> u64 {
        if taint.is_empty() {
            return 0;
        }
        let mut index = self.taint.lock();
        let removed = if taint.is_full() {
            index.clear();
            self.lru.clear()
        } else {
            let mut removed = 0u64;
            for digest in taint.digests() {
                for key in index.take_keys(&digest) {
                    if self.lru.remove(&key) {
                        removed += 1;
                    }
                    index.unregister(&key);
                }
            }
            removed
        };
        drop(index);
        if let Some(i) = &self.instruments {
            if removed > 0 {
                i.invalidations.add(removed);
            }
            i.entries.set(self.lru.len() as i64);
        }
        removed
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Maximum number of entries (the requested capacity rounded up to
    /// a multiple of the shard count).
    pub fn capacity(&self) -> usize {
        self.lru.capacity()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.lru.shard_count()
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.lru.hits()
    }

    /// Lookups that missed so far.
    pub fn misses(&self) -> u64 {
        self.lru.misses()
    }

    /// Verdicts evicted by the LRU policy so far.
    pub fn evictions(&self) -> u64 {
        self.lru.evictions()
    }
}

/// Key of one memoized signature verification: the signed certificate's
/// content identity and the verifying key's identity.
///
/// The certificate fingerprint covers the full DER — TBS *and*
/// signature bits — and the issuer component is the SPKI digest
/// ([`nrslb_crypto::hbs::PublicKey::fingerprint`], which hashes the
/// height-prefixed key serialization, a different domain than
/// certificate fingerprints). The pair therefore fully determines the
/// `(message, signature, key)` triple handed to `hbs::verify`, so a
/// memoized result can never alias a different verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SigMemoKey {
    /// Fingerprint of the signed certificate (hash of its full DER).
    pub cert: Digest,
    /// Digest of the issuer's SubjectPublicKeyInfo.
    pub issuer_spki: Digest,
}

/// A bounded memo of hash-based-signature verification results.
///
/// WOTS+/XMSS verification is the dominant cost of a cold chain
/// (thousands of SHA-256 compressions per signature); verification is a
/// pure function of `(cert DER, issuer key)`, so the result is safe to
/// reuse across validations, sessions, and daemon clients. Negative
/// results are memoized too — a forged signature stays forged.
pub struct SigMemo {
    lru: ShardedLru<SigMemoKey, bool>,
    instruments: Option<MemoInstruments>,
}

struct MemoInstruments {
    hits: nrslb_obs::Counter,
    misses: nrslb_obs::Counter,
}

impl std::fmt::Debug for SigMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SigMemo({}/{} entries, {} hits, {} misses)",
            self.lru.len(),
            self.lru.capacity(),
            self.hits(),
            self.misses()
        )
    }
}

impl Default for SigMemo {
    fn default() -> SigMemo {
        SigMemo::new(DEFAULT_SIG_MEMO_CAPACITY)
    }
}

impl SigMemo {
    /// A memo of at least `capacity` entries, sharded like the verdict
    /// cache.
    pub fn new(capacity: usize) -> SigMemo {
        SigMemo {
            lru: ShardedLru::new(capacity, DEFAULT_CACHE_SHARDS),
            instruments: None,
        }
    }

    /// A memo that also mirrors its statistics into `registry` as
    /// `nrslb_sig_memo_{hits,misses}_total`.
    pub fn with_registry(capacity: usize, registry: &nrslb_obs::Registry) -> SigMemo {
        let mut memo = SigMemo::new(capacity);
        memo.instruments = Some(MemoInstruments {
            hits: registry.counter(
                "nrslb_sig_memo_hits_total",
                "signature verifications answered from the memo",
            ),
            misses: registry.counter(
                "nrslb_sig_memo_misses_total",
                "signature verifications computed and memoized",
            ),
        });
        memo
    }

    /// Was `cert` signed by `issuer`? Answers from the memo when the
    /// `(cert, issuer key)` edge was verified before; otherwise runs
    /// the full hash-based verification and memoizes the result.
    pub fn verify_signed_by(&self, cert: &Certificate, issuer: &Certificate) -> bool {
        let key = SigMemoKey {
            cert: cert.fingerprint(),
            issuer_spki: issuer.public_key().fingerprint(),
        };
        if let Some(cached) = self.lru.get(&key) {
            if let Some(i) = &self.instruments {
                i.hits.inc();
            }
            return cached;
        }
        let valid = cert.verify_signed_by(issuer).is_ok();
        self.lru.insert(key, valid);
        if let Some(i) = &self.instruments {
            i.misses.inc();
        }
        valid
    }

    /// Verifications answered from the memo so far.
    pub fn hits(&self) -> u64 {
        self.lru.hits()
    }

    /// Verifications computed (and memoized) so far.
    pub fn misses(&self) -> u64 {
        self.lru.misses()
    }

    /// Number of memoized `(cert, issuer)` edges.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

/// Default capacity of the daemon's parsed-certificate cache: one entry
/// per distinct certificate DER, sized to cover every cert a busy
/// daemon sees between root-store updates (leaves churn; issuers
/// repeat).
pub const DEFAULT_CERT_CACHE_CAPACITY: usize = 8192;

/// A bounded memo of parsed certificates, keyed by a fast
/// non-cryptographic hash of the raw DER and verified by byte equality.
///
/// Parsing is a pure function of the DER bytes, so repeat wire bytes —
/// the steady state of a busy daemon — can skip the parser entirely.
/// The lookup is deliberately *not* keyed by SHA-256: hashing a
/// multi-kilobyte hash-based-signature certificate cryptographically
/// costs more than the rest of a warm request combined. Instead the key
/// is a 64-bit FxHash of the DER, and a probe only counts as a hit when
/// the cached certificate's DER is byte-identical to the probe bytes —
/// correctness never rests on the weak hash, a collision merely
/// degrades to a fresh parse. A hit returns a handle (an `Arc` clone)
/// whose fingerprint, hex form, and interned symbol were memoized by
/// earlier requests, so the warm path recomputes none of them.
pub struct ParsedCertCache {
    lru: ShardedLru<u64, Certificate>,
}

impl std::fmt::Debug for ParsedCertCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ParsedCertCache({}/{} entries, {} hits, {} misses)",
            self.lru.len(),
            self.lru.capacity(),
            self.hits(),
            self.misses()
        )
    }
}

impl Default for ParsedCertCache {
    fn default() -> ParsedCertCache {
        ParsedCertCache::new(DEFAULT_CERT_CACHE_CAPACITY)
    }
}

impl ParsedCertCache {
    /// A cache of at least `capacity` parsed certificates, sharded like
    /// the verdict cache.
    pub fn new(capacity: usize) -> ParsedCertCache {
        ParsedCertCache {
            lru: ShardedLru::new(capacity, DEFAULT_CACHE_SHARDS),
        }
    }

    /// The cache's lookup key for `der`: a 64-bit FxHash of the bytes.
    /// Exposed so a probe ([`ParsedCertCache::peek_keyed`]) and its
    /// later commit ([`ParsedCertCache::parse_keyed`]) can share one
    /// hash pass — hashing the DER is the dominant cost of a warm
    /// lookup, and the reactor's inline path must not pay it twice.
    pub fn key_of(der: &[u8]) -> u64 {
        let mut h = nrslb_datalog::intern::FxHasher::default();
        std::hash::Hasher::write(&mut h, der);
        std::hash::Hasher::finish(&h)
    }

    /// Parse `der`, answering from the cache when these exact bytes
    /// were parsed before (verified by byte comparison, so an FxHash
    /// collision can never alias two certificates).
    pub fn parse(&self, der: &[u8]) -> Result<Certificate, nrslb_x509::X509Error> {
        self.parse_keyed(ParsedCertCache::key_of(der), der)
    }

    /// [`ParsedCertCache::parse`] with a precomputed
    /// [`ParsedCertCache::key_of`] key, for callers that already hashed
    /// `der` during a probe.
    pub fn parse_keyed(&self, key: u64, der: &[u8]) -> Result<Certificate, nrslb_x509::X509Error> {
        if let Some(cert) = self.lru.get(&key) {
            if cert.to_der() == der {
                return Ok(cert);
            }
        }
        let cert = Certificate::from_der(der)?;
        self.lru.insert(key, cert.clone());
        Ok(cert)
    }

    /// Return the cached parse of exactly these DER bytes, if present,
    /// *without* counting a hit or miss or touching recency — see
    /// [`ShardedLru::peek`]. A `None` says nothing about parseability,
    /// only that the inline probe cannot prove the parse is free.
    pub fn peek(&self, der: &[u8]) -> Option<Certificate> {
        self.peek_keyed(ParsedCertCache::key_of(der), der)
    }

    /// [`ParsedCertCache::peek`] with a precomputed
    /// [`ParsedCertCache::key_of`] key.
    pub fn peek_keyed(&self, key: u64, der: &[u8]) -> Option<Certificate> {
        let cert = self.lru.peek(&key)?;
        (cert.to_der() == der).then_some(cert)
    }

    /// Parses answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.lru.hits()
    }

    /// Parses computed (and cached) so far.
    pub fn misses(&self) -> u64 {
        self.lru.misses()
    }

    /// Number of cached certificates.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrslb_x509::testutil::simple_chain;

    fn key(n: u8) -> VerdictKey {
        VerdictKey {
            chain: Digest([n; 32]),
            gcc: Digest([n.wrapping_add(1); 32]),
            usage: Usage::Tls,
        }
    }

    #[test]
    fn sharded_capacity_rounds_up() {
        let cache = VerdictCache::with_shards(10, 8);
        assert_eq!(cache.capacity(), 16); // ceil(10/8) = 2 per shard
        assert_eq!(cache.shard_count(), 8);
        let single = VerdictCache::with_shards(10, 1);
        assert_eq!(single.capacity(), 10);
    }

    #[test]
    fn sharded_round_trip_and_stats() {
        let cache = VerdictCache::new(64);
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), true);
        cache.insert(key(2), false);
        assert_eq!(cache.get(&key(1)), Some(true));
        assert_eq!(cache.get(&key(2)), Some(false));
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn single_shard_evicts_global_lru() {
        let cache = VerdictCache::with_shards(2, 1);
        cache.insert(key(1), true);
        cache.insert(key(2), true);
        // Touch 1 so 2 becomes the LRU entry.
        assert_eq!(cache.get(&key(1)), Some(true));
        cache.insert(key(3), true);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.get(&key(2)), None, "LRU entry evicted");
        assert_eq!(cache.get(&key(1)), Some(true));
        assert_eq!(cache.get(&key(3)), Some(true));
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn per_shard_metrics_cover_every_lookup() {
        let registry = nrslb_obs::Registry::new();
        let cache = VerdictCache::with_shards_and_registry(64, 4, &registry);
        for n in 0..16u8 {
            assert_eq!(cache.get(&key(n)), None);
            cache.insert(key(n), true);
            assert_eq!(cache.get(&key(n)), Some(true));
        }
        let text = registry.render_text();
        assert!(text.contains("nrslb_verdict_cache_hits_total 16"), "{text}");
        assert!(
            text.contains("nrslb_verdict_cache_misses_total 16"),
            "{text}"
        );
        // Per-shard series sum to the aggregate.
        let sum_series = |name: &str| -> u64 {
            text.lines()
                .filter(|l| l.starts_with(&format!("{name}{{")))
                .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
                .sum()
        };
        assert_eq!(sum_series("nrslb_verdict_cache_shard_hits_total"), 16);
        assert_eq!(sum_series("nrslb_verdict_cache_shard_misses_total"), 16);
    }

    #[test]
    fn memo_pays_verification_once_per_edge() {
        let pki = simple_chain("memo.example");
        let memo = SigMemo::new(16);
        assert!(memo.verify_signed_by(&pki.leaf, &pki.intermediate));
        assert!(memo.verify_signed_by(&pki.leaf, &pki.intermediate));
        assert!(memo.verify_signed_by(&pki.intermediate, &pki.root));
        assert_eq!(memo.hits(), 1);
        assert_eq!(memo.misses(), 2);
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn memo_caches_negative_results() {
        let pki = simple_chain("memo-neg.example");
        let memo = SigMemo::new(16);
        assert!(!memo.verify_signed_by(&pki.leaf, &pki.root), "wrong issuer");
        assert!(!memo.verify_signed_by(&pki.leaf, &pki.root));
        assert_eq!((memo.hits(), memo.misses()), (1, 1));
        // The correct edge is a different key and still verifies.
        assert!(memo.verify_signed_by(&pki.leaf, &pki.intermediate));
    }

    #[test]
    fn parsed_cert_cache_parses_once_per_der() {
        let pki = simple_chain("certcache.example");
        let der = pki.leaf.to_der().to_vec();
        let cache = ParsedCertCache::new(16);
        let a = cache.parse(&der).unwrap();
        let b = cache.parse(&der).unwrap();
        assert_eq!(a.fingerprint(), pki.leaf.fingerprint());
        assert_eq!(b.fingerprint(), pki.leaf.fingerprint());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        // A different certificate is a separate entry.
        let other = cache.parse(pki.intermediate.to_der()).unwrap();
        assert_eq!(other.fingerprint(), pki.intermediate.fingerprint());
        assert_eq!(cache.len(), 2);
        // Garbage DER is not cached.
        assert!(cache.parse(b"not-a-cert").is_err());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn memo_distinguishes_issuer_keys() {
        let a = simple_chain("memo-a.example");
        let b = simple_chain("memo-b.example");
        let memo = SigMemo::new(16);
        assert!(memo.verify_signed_by(&a.leaf, &a.intermediate));
        // Same leaf, different issuer key: separate entry, fresh verify.
        assert!(!memo.verify_signed_by(&a.leaf, &b.intermediate));
        assert_eq!(memo.misses(), 2);
    }
}
