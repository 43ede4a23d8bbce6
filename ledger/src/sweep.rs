//! The per-layer sweep of the traced run: on a seeded sample of the
//! workload's own requests, time each layer's public entry point from
//! outside, one span per call batch, and check that the stages add up
//! to the in-process verdict they make up.
//!
//! Sub-microsecond calls are timed in batches (one clock read per batch,
//! not per call); calls of tens of microseconds and up are timed one by
//! one.

use crate::fixture::{Fixture, Rng};
use crate::load::median;
use crate::trace::Spans;
use nrslb_core::hammurabi;
use nrslb_core::session::{
    chain_content_key, evaluate_gccs_lazy_keyed, DEFAULT_VERDICT_CACHE_CAPACITY,
};
use nrslb_core::validate::{GccOracle, InProcessOracle, ValidatorConfig};
use nrslb_core::{
    ChainBuilder, DaemonClient, ParsedCertCache, SigMemo, TrustDaemon, Usage, ValidationSession,
    VerdictCache, VerdictKey,
};
use nrslb_crypto::sha256::{sha256, Digest};
use nrslb_rsf::TaintSet;
use nrslb_x509::Certificate;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Requests sampled per traced run.
const SAMPLE: usize = 32;

pub struct Sweep {
    /// Per-layer metrics: name, value, unit.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Median over the sample of (stage sum / in-process verdict).
    pub stage_sum_ratio: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// One sampled request's stages, in nanoseconds per call.
struct Timer<'a> {
    spans: &'a mut Spans,
    rid: u64,
    children: Vec<u64>,
}

impl Timer<'_> {
    /// Time `calls` runs of `f`, each doing `ops` operations; returns
    /// nanoseconds per operation.
    fn batch(&mut self, name: &'static str, calls: u32, ops: usize, mut f: impl FnMut()) -> f64 {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let end = Instant::now();
        self.children
            .push(self.spans.record(name, self.rid, 0, start, end));
        (end - start).as_nanos() as f64 / (f64::from(calls) * ops.max(1) as f64)
    }

    /// Record one individually timed call.
    fn span(&mut self, name: &'static str, start: Instant, end: Instant) -> f64 {
        self.children
            .push(self.spans.record(name, self.rid, 0, start, end));
        (end - start).as_nanos() as f64
    }
}

/// Sweep `fx` at feed version `version` (the store the daemon serves).
/// `hit_path` selects which in-process verdict the workload's requests
/// take at the daemon: `evaluate_warm` (cache hit) or `evaluate` on a
/// miss.
pub fn run(
    fx: &Fixture,
    version: u64,
    daemon: &TrustDaemon,
    hit_path: bool,
    seed: u64,
    spans: &mut Spans,
) -> Sweep {
    let store = &fx.stores[(version % 2) as usize];
    let warm_oracle = InProcessOracle::new(store.clone());
    let miss_oracle = InProcessOracle::new(store.clone());
    let cert_cache = ParsedCertCache::default();
    let verdicts = VerdictCache::new(DEFAULT_VERDICT_CACHE_CAPACITY);
    let memo = SigMemo::default();
    let client = DaemonClient::keep_alive(daemon.socket_path());
    let mut rng = Rng::new(seed, "sweep");
    let mut stages: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut fresh_key = 0u64;

    for rid in 0..SAMPLE as u64 {
        let i = rng.below(fx.requests.len() as u64) as usize;
        let r = &fx.requests[i];
        let chain = &r.chain;
        let root_fp = chain.last().expect("chain has a root").fingerprint();
        let gccs = store.gccs_for(&root_fp);
        let n_gccs = gccs.len();
        let ders: Vec<&[u8]> = chain.iter().map(|c| c.to_der()).collect();
        let request_start = Instant::now();
        let mut t = Timer {
            spans: &mut *spans,
            rid,
            children: Vec::new(),
        };
        let mut put = |name: &'static str, ns: f64| stages.entry(name).or_default().push(ns);

        for der in &ders {
            let _ = cert_cache.parse(der);
        }
        let lookup = t.batch("certcache.lookup", 64, ders.len(), || {
            for der in &ders {
                let _ = black_box(cert_cache.parse_keyed(ParsedCertCache::key_of(der), der));
            }
        });
        let parse = t.batch("x509.parse", 4, ders.len(), || {
            for der in &ders {
                let _ = black_box(Certificate::from_der(der));
            }
        });
        let chainkey = t.batch("chainkey", 256, 1, || {
            black_box(chain_content_key(chain));
        });
        let store_lookup = t.batch("rootstore.lookup", 256, 1, || {
            black_box(warm_oracle.store().gccs_for(&root_fp).len());
        });

        let key_of = |gcc_hash: Digest| VerdictKey {
            chain: chain_content_key(chain),
            gcc: gcc_hash,
            usage: r.usage,
        };
        let keys: Vec<VerdictKey> = gccs.iter().map(|g| key_of(g.source_hash())).collect();
        for key in &keys {
            verdicts.insert(*key, true);
        }
        let peek = t.batch("verdictcache.peek", 256, n_gccs, || {
            for key in &keys {
                black_box(verdicts.peek(key));
            }
        });
        let probe = t.batch("verdictcache.probe", 256, n_gccs, || {
            for key in &keys {
                black_box(verdicts.get(key));
            }
        });
        // The warm path's committing step: counting probes plus the
        // verdict list they answer.
        let chain_key = chain_content_key(chain);
        let mut answer = Vec::with_capacity(n_gccs);
        let commit = t.batch("session.lazy_keyed", 256, 1, || {
            let _ = black_box(evaluate_gccs_lazy_keyed(
                chain,
                gccs,
                r.usage,
                &verdicts,
                None,
                chain_key,
                &mut answer,
            ));
        });
        // A miss inserts a fresh key tagged with the chain's taint
        // identities; fresh synthetic keys keep every insert a new one.
        let fresh: Vec<VerdictKey> = (0..64 * n_gccs)
            .map(|_| {
                fresh_key += 1;
                key_of(sha256(fresh_key.to_le_bytes()))
            })
            .collect();
        let mut fresh_iter = fresh.iter();
        let insert = t.batch("verdictcache.insert", 64, n_gccs, || {
            for gcc in gccs {
                let mut tags: Vec<Digest> = Vec::with_capacity(chain.len() + 1);
                tags.push(root_fp);
                for issuer in chain.iter().skip(1) {
                    tags.push(issuer.public_key().fingerprint());
                }
                tags.push(gcc.target());
                let key = *fresh_iter.next().expect("one fresh key per insert");
                verdicts.insert_tainted(key, true, &tags);
            }
        });

        // Fact conversion and evaluation exactly as a cold miss runs
        // them: a fresh session, then every GCC on its fresh scratch.
        let (mut convert, mut eval) = (0.0, 0.0);
        for _ in 0..8 {
            let t0 = Instant::now();
            let session = ValidationSession::new(chain);
            let t1 = Instant::now();
            for gcc in gccs {
                let _ = black_box(session.evaluate_gcc(gcc, r.usage));
            }
            let t2 = Instant::now();
            convert += t.span("facts.convert", t0, t1) / 8.0;
            eval += t.span("datalog.eval", t1, t2) / 8.0;
        }

        let _ = warm_oracle.evaluate(chain, r.usage);
        let warm = t.batch("oracle.evaluate_warm", 256, 1, || {
            black_box(warm_oracle.evaluate_warm(chain, r.usage));
        });
        let mut miss = 0.0;
        for _ in 0..8 {
            miss_oracle.invalidate_tainted(&TaintSet::full());
            let t0 = Instant::now();
            let _ = black_box(miss_oracle.evaluate(chain, r.usage));
            miss += t.span("oracle.evaluate_miss", t0, Instant::now()) / 8.0;
        }

        let build = t.batch("chain.build", 16, 1, || {
            black_box(
                ChainBuilder::new(store, &r.pool)
                    .candidate_chains(&chain[0])
                    .len(),
            );
        });
        let edges: Vec<(&Certificate, &Certificate)> = (0..chain.len())
            .map(|k| (&chain[k], chain.get(k + 1).unwrap_or(&chain[k])))
            .collect();
        for (cert, issuer) in &edges {
            memo.verify_signed_by(cert, issuer);
        }
        let sigmemo = t.batch("sigmemo.verify", 64, edges.len(), || {
            for (cert, issuer) in &edges {
                black_box(memo.verify_signed_by(cert, issuer));
            }
        });
        let hbs = t.batch("hbs.verify", 2, 1, || {
            black_box(chain[0].verify_signed_by(&chain[1]).is_ok());
        });
        let host = (r.usage == Usage::Tls).then_some(r.host.as_str());
        let hammurabi_eval = t.batch("hammurabi.eval", 4, 1, || {
            let _ = black_box(hammurabi::evaluate_chain(
                chain,
                r.usage,
                r.at,
                host,
                store,
                ValidatorConfig::default(),
                None,
            ));
        });

        // One unloaded keep-alive connection; on the miss path the
        // daemon's verdict cache is emptied before each request.
        if hit_path {
            let _ = client.evaluate(chain, r.usage);
        }
        let mut trips = Vec::new();
        for _ in 0..16 {
            if !hit_path {
                daemon.oracle().invalidate_tainted(&TaintSet::full());
            }
            let t0 = Instant::now();
            let reply = client.evaluate(chain, r.usage);
            let t1 = Instant::now();
            attempted += 1;
            if !reply.is_ok_and(|v| fx.matches(i, version, &v)) {
                failed += 1;
            }
            trips.push(t.span("daemon.roundtrip", t0, t1));
        }
        let roundtrip = median(&trips);

        let g = n_gccs as f64;
        let warm_sum = chainkey + store_lookup + g * peek + commit;
        let miss_sum = chainkey + store_lookup + g * (probe + insert) + convert + eval;
        let (path_sum, oracle) = if hit_path {
            (warm_sum, warm)
        } else {
            (miss_sum, miss)
        };
        let facts_share = if hit_path {
            0.0
        } else {
            (convert + eval) / miss_sum
        };
        let request = t
            .spans
            .record("request", rid, 0, request_start, Instant::now());
        for child in t.children {
            spans.set_parent(child, request);
        }

        put("certcache.lookup_ns", lookup);
        put("x509.parse_us", parse / 1e3);
        put("chainkey.ns", chainkey);
        put("rootstore.lookup_ns", store_lookup);
        put("verdictcache.peek_ns", peek);
        put("verdictcache.probe_ns", probe);
        put("session.lazy_keyed_ns", commit);
        put("verdictcache.insert_ns", insert);
        put("facts.convert_us", convert / 1e3);
        put("datalog.eval_us", eval / 1e3);
        put("oracle.evaluate_us", oracle / 1e3);
        put("chain.build_us", build / 1e3);
        put("sigmemo.verify_ns", sigmemo);
        put("hbs.verify_us", hbs / 1e3);
        put("hammurabi.eval_us", hammurabi_eval / 1e3);
        put("daemon.roundtrip_us", roundtrip / 1e3);
        put(
            "ipc.overhead_us",
            (roundtrip - (lookup * ders.len() as f64 + path_sum)) / 1e3,
        );
        put("trace.stage_sum_ratio", path_sum / oracle);
        put("trace.facts_datalog_share", facts_share);
    }

    let unit = |name: &str| {
        if name.ends_with("_ns") || name == "chainkey.ns" {
            "ns"
        } else if name.ends_with("_us") {
            "us"
        } else {
            "ratio"
        }
    };
    let mut metrics: Vec<(&'static str, f64, &'static str)> = stages
        .iter()
        .map(|(name, values)| (*name, median(values), unit(name)))
        .collect();
    let memo_total = (memo.hits() + memo.misses()).max(1) as f64;
    metrics.push((
        "sigmemo.hit_ratio",
        memo.hits() as f64 / memo_total,
        "ratio",
    ));
    Sweep {
        stage_sum_ratio: median(&stages["trace.stage_sum_ratio"]),
        metrics,
        attempted,
        failed,
    }
}
