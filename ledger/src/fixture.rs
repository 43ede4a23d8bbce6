//! Seeded fixtures built from the paper's seven incident scenarios.
//!
//! Each incident in `nrslb-incidents` contributes its GCC (Listings 1
//! and 2, TLD scoping, allowlists, cutoffs) and its labelled chains
//! (legitimate ones that must stay accepted, attack ones that must be
//! rejected). The ledger does not reuse the scenarios' keys: for every
//! run seed it mints a fresh root and fresh intermediates per incident,
//! retargets the incident's GCC at them (rewriting the allowlisted
//! intermediate hashes), and issues leaves shaped like the scenario's
//! templates — same TLD, same side of every cutoff, same EV bit, same
//! validation time. So every seed yields different bytes with the same
//! accept/reject structure, and the servers only ever see generated
//! bytes.
//!
//! Expected verdicts come from independent references: the string
//! evaluator (`ValidationSession::evaluate_gcc_string`) for daemon
//! replies, and a `UserAgent`-mode validator for Hammurabi outcomes.

use crate::Workload;
use nrslb_core::{GccVerdict, Usage, ValidationMode, ValidationSession, Validator};
use nrslb_crypto::sha256::sha256_concat;
use nrslb_incidents::catalog::symantec;
use nrslb_incidents::{all_incidents, IncidentScenario, TestChain};
use nrslb_rootstore::{Gcc, RootStore};
use nrslb_x509::builder::CaKey;
use nrslb_x509::extensions::{ExtendedKeyUsage, KeyUsage};
use nrslb_x509::{Certificate, CertificateBuilder, DistinguishedName};
use std::collections::HashMap;
use std::sync::Arc;

/// The scenario whose root the feed workloads toggle: its Listing 2
/// allowlist is withdrawn and restored, flipping the verdict of every
/// chain through the exempt intermediate.
const TOGGLED_INCIDENT: &str = "symantec";

/// Extra weight of the toggled incident's templates when leaves are
/// dealt out, so flipping chains are a visible share of small working
/// sets.
const TOGGLED_WEIGHT: usize = 3;

/// Every certificate the ledger mints is valid over this window.
const NOT_AFTER: i64 = 4_000_000_000;

/// Leaves are backdated by up to this many seconds; every template sits
/// further than this from the cutoff it tests, so no leaf changes side.
const MAX_JITTER: i64 = 400_000;

/// GCC verdicts for one chain: `(name, accepted)` in attachment order.
pub type Verdicts = Vec<(Arc<str>, bool)>;

/// One request of a workload's working set.
pub struct Request {
    /// Leaf, intermediate, root.
    pub chain: Vec<Certificate>,
    /// The incident's intermediates, offered to chain building.
    pub pool: Vec<Certificate>,
    /// The leaf's DNS name (the Hammurabi hostname check).
    pub host: String,
    /// Validation time of the template it was shaped after.
    pub at: i64,
    /// Requested usage.
    pub usage: Usage,
    /// Anchored at the toggled root, so feed deltas evict its verdicts.
    pub toggled: bool,
}

/// A workload's generated inputs and their expected results.
pub struct Fixture {
    /// Feed version 0 (every incident GCC as published) and version 1
    /// (the toggled root's allowlist withdrawn). Version `v` of the feed
    /// serves `stores[v % 2]`.
    pub stores: [RootStore; 2],
    /// The working set, in the order workloads cycle through it.
    pub requests: Vec<Request>,
    /// `expected[i][v % 2]`: reference verdicts of request `i` under
    /// feed version `v`.
    pub expected: Vec<[Verdicts; 2]>,
    /// Reference outcome of each request under full validation
    /// (Hammurabi workload only; empty otherwise).
    pub accepts: Vec<bool>,
    /// Requests whose verdict differs between the two feed versions.
    pub flips: Vec<usize>,
}

impl Fixture {
    /// Does `reply` carry exactly the reference verdicts of request `i`
    /// under feed version `v`?
    pub fn matches(&self, i: usize, v: u64, reply: &[GccVerdict]) -> bool {
        let want = &self.expected[i][(v % 2) as usize];
        reply.len() == want.len()
            && reply
                .iter()
                .zip(want)
                .all(|(got, (name, accepted))| got.accepted == *accepted && *got.gcc_name == **name)
    }
}

/// A 32-byte key seed derived from the run seed and a label.
pub fn seed32(seed: u64, label: &str, index: u64) -> [u8; 32] {
    *sha256_concat(&[
        b"nrslb-ledger",
        &seed.to_le_bytes(),
        label.as_bytes(),
        &index.to_le_bytes(),
    ])
    .as_bytes()
}

/// SplitMix64: a small deterministic generator for seeded choices.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, label: &str) -> Rng {
        let digest = seed32(seed, label, 0);
        Rng(u64::from_le_bytes(digest[..8].try_into().expect("8 bytes")))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The smallest hash-based key height with at least `signatures`
/// one-time keys.
pub fn height_for(signatures: u64) -> u8 {
    let mut h = 1u8;
    while (1u64 << h) < signatures {
        h += 1;
    }
    h
}

/// Run `f` over `items` on `threads` threads, preserving order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("fixture worker panicked"))
            .collect()
    })
}

/// One minted CA: its key and the certificates naming it (variant 0 is
/// the one allowlists refer to; further variants are reissues of the
/// same key under another serial, as after a cross-sign).
struct MintedCa {
    key: CaKey,
    certs: Vec<Certificate>,
}

/// A scenario template: one labelled chain of an incident.
struct Template {
    incident: usize,
    chain: TestChain,
    /// Index of its intermediate among the incident's intermediates.
    intermediate: usize,
}

/// What the ledger mints for one incident.
struct Incident {
    id: &'static str,
    scenario: IncidentScenario,
    /// The scenario's distinct intermediates, in first-use order.
    intermediates: Vec<Certificate>,
}

/// Build the fixture of `workload` for `seed` on `threads` threads.
pub fn build(workload: Workload, seed: u64, threads: usize) -> Result<Fixture, String> {
    let specs = all_incidents();
    let scenarios = par_map(&specs, threads, |spec| (spec.build)());
    let incidents: Vec<Incident> = specs
        .iter()
        .zip(scenarios)
        .map(|(spec, scenario)| {
            let mut intermediates: Vec<Certificate> = Vec::new();
            for t in scenario.legitimate.iter().chain(&scenario.attacks) {
                for int in &t.intermediates {
                    if !intermediates
                        .iter()
                        .any(|c| c.fingerprint() == int.fingerprint())
                    {
                        intermediates.push(int.clone());
                    }
                }
            }
            Incident {
                id: spec.id,
                scenario,
                intermediates,
            }
        })
        .collect();
    let toggled = incidents
        .iter()
        .position(|i| i.id == TOGGLED_INCIDENT)
        .ok_or("toggled incident missing from the catalog")?;

    // Deal the leaves over the templates, weighted toward the toggled
    // incident.
    let mut templates = Vec::new();
    for (k, inc) in incidents.iter().enumerate() {
        for t in inc.scenario.legitimate.iter().chain(&inc.scenario.attacks) {
            let first = t
                .intermediates
                .first()
                .ok_or("template without intermediate")?;
            let intermediate = inc
                .intermediates
                .iter()
                .position(|c| c.fingerprint() == first.fingerprint())
                .expect("collected above");
            let weight = if k == toggled { TOGGLED_WEIGHT } else { 1 };
            for _ in 0..weight {
                templates.push(Template {
                    incident: k,
                    chain: t.clone(),
                    intermediate,
                });
            }
        }
    }
    let leaves = workload.leaves();
    let variants = workload.variants();
    let leaf_template: Vec<usize> = (0..leaves).map(|i| i % templates.len()).collect();

    // Key heights sized to the signatures each key makes.
    let mut signed_by: HashMap<(usize, usize), u64> = HashMap::new();
    for &t in &leaf_template {
        let tpl = &templates[t];
        *signed_by
            .entry((tpl.incident, tpl.intermediate))
            .or_default() += 1;
    }
    struct KeyJob {
        incident: usize,
        /// `None` for the root, else the intermediate index.
        intermediate: Option<usize>,
        name: DistinguishedName,
        height: u8,
    }
    let mut jobs = Vec::new();
    for (k, inc) in incidents.iter().enumerate() {
        let root_sigs = 1 + (inc.intermediates.len() * variants) as u64;
        jobs.push(KeyJob {
            incident: k,
            intermediate: None,
            name: inc.scenario.affected_root.subject().clone(),
            height: height_for(root_sigs),
        });
        for (j, int) in inc.intermediates.iter().enumerate() {
            let sigs = signed_by.get(&(k, j)).copied().unwrap_or(0).max(1);
            jobs.push(KeyJob {
                incident: k,
                intermediate: Some(j),
                name: int.subject().clone(),
                height: height_for(sigs),
            });
        }
    }
    // Keygen dominates set-up; spread it by total work, not job count.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(jobs[i].height));
    let mut lanes: Vec<Vec<usize>> = vec![Vec::new(); threads.max(1)];
    let mut load = vec![0u64; lanes.len()];
    for i in order {
        let lane = (0..lanes.len()).min_by_key(|&l| load[l]).expect("a lane");
        load[lane] += 1u64 << jobs[i].height;
        lanes[lane].push(i);
    }
    let keys: Vec<(usize, Result<CaKey, String>)> = par_map(&lanes, threads, |lane| {
        lane.iter()
            .map(|&i| {
                let job = &jobs[i];
                let label = match job.intermediate {
                    None => "root".to_string(),
                    Some(j) => format!("intermediate-{j}"),
                };
                let key = CaKey::from_seed(
                    job.name.clone(),
                    seed32(seed, &label, job.incident as u64),
                    job.height,
                )
                .map_err(|e| format!("keygen: {e}"));
                (i, key)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut keys_by_job: Vec<Option<CaKey>> = (0..jobs.len()).map(|_| None).collect();
    for (i, key) in keys {
        keys_by_job[i] = Some(key?);
    }

    // Roots, then every intermediate variant under its root, in a fixed
    // order (one-time signatures make signing order part of the bytes).
    let mut serial = Rng::new(seed, "serials");
    let mut roots: Vec<MintedCa> = Vec::new();
    let mut ints: Vec<Vec<MintedCa>> = Vec::new();
    let mut job_iter = keys_by_job.into_iter();
    for inc in &incidents {
        let root_key = job_iter.next().flatten().expect("root key job");
        let root = CertificateBuilder::new()
            .serial(serial.next() as i128)
            .validity_window(0, NOT_AFTER)
            .ca(None)
            .key_usage(KeyUsage::KEY_CERT_SIGN.union(KeyUsage::CRL_SIGN))
            .build_self_signed(&root_key)
            .map_err(|e| format!("root: {e}"))?;
        let mut minted = Vec::new();
        for _ in &inc.intermediates {
            let key = job_iter.next().flatten().expect("intermediate key job");
            let certs = (0..variants)
                .map(|_| {
                    CertificateBuilder::new()
                        .serial(serial.next() as i128)
                        .subject(key.name().clone())
                        .subject_key(key.public())
                        .validity_window(0, NOT_AFTER)
                        .ca(Some(0))
                        .key_usage(KeyUsage::KEY_CERT_SIGN.union(KeyUsage::CRL_SIGN))
                        .build_signed_by(&root_key)
                        .map_err(|e| format!("intermediate: {e}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            minted.push(MintedCa { key, certs });
        }
        roots.push(MintedCa {
            key: root_key,
            certs: vec![root],
        });
        ints.push(minted);
    }

    // Leaves, one thread per disjoint set of issuing keys so each key
    // signs in a fixed order.
    let mut rng = Rng::new(seed, "leaves");
    let specs: Vec<(usize, String, i64, i128)> = leaf_template
        .iter()
        .map(|&t| {
            let tpl = &templates[t];
            let base = tpl
                .chain
                .leaf
                .dns_names()
                .first()
                .cloned()
                .unwrap_or_default();
            let host = format!("h{:x}.{base}", rng.next() & 0xff_ffff);
            let nb = tpl.chain.leaf.validity().not_before - rng.below(MAX_JITTER as u64) as i64;
            (t, host, nb, rng.next() as i128)
        })
        .collect();
    let lanes: Vec<usize> = (0..threads.max(1)).collect();
    let issued: Vec<(usize, Result<Certificate, String>)> = par_map(&lanes, threads, |&lane| {
        specs
            .iter()
            .enumerate()
            .filter(|(_, (t, ..))| {
                let tpl = &templates[*t];
                (tpl.incident * 8 + tpl.intermediate) % lanes.len() == lane
            })
            .map(|(i, (t, host, nb, serial))| {
                let tpl = &templates[*t];
                let issuer = &ints[tpl.incident][tpl.intermediate].key;
                let mut b = CertificateBuilder::new()
                    .serial(*serial)
                    .subject(DistinguishedName::common_name(host))
                    .dns_names(&[host.as_str()])
                    .validity_window(*nb, tpl.chain.leaf.validity().not_after)
                    .key_usage(KeyUsage::DIGITAL_SIGNATURE)
                    .extended_key_usage(ExtendedKeyUsage::server_auth());
                if tpl.chain.leaf.is_ev() {
                    b = b.ev();
                }
                (
                    i,
                    b.build_signed_by(issuer).map_err(|e| format!("leaf: {e}")),
                )
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut leaf_certs: Vec<Option<Certificate>> = vec![None; leaves];
    for (i, leaf) in issued {
        leaf_certs[i] = Some(leaf?);
    }

    // Stores: each incident root with its record flags and retargeted
    // GCCs; version 1 withdraws the toggled root's allowlist.
    let mut store = RootStore::new("ledger");
    let mut toggled_gcc: Option<Gcc> = None;
    for (k, inc) in incidents.iter().enumerate() {
        let root = &roots[k].certs[0];
        let old_fp = inc.scenario.affected_root.fingerprint();
        store
            .add_trusted(root.clone())
            .map_err(|e| format!("store: {e}"))?;
        let old = inc
            .scenario
            .store
            .record(&old_fp)
            .ok_or("scenario root missing")?;
        let record = store.record_mut(&root.fingerprint()).expect("just added");
        record.ev_allowed = old.ev_allowed;
        record.tls_distrust_after = old.tls_distrust_after;
        record.smime_distrust_after = old.smime_distrust_after;
        for gcc in inc.scenario.store.gccs_for(&old_fp) {
            let mut source = gcc.source().to_string();
            for (j, int) in inc.intermediates.iter().enumerate() {
                source = source.replace(
                    int.fingerprint().to_hex().as_str(),
                    ints[k][j].certs[0].fingerprint().to_hex().as_str(),
                );
            }
            let retargeted = Gcc::parse(
                gcc.name(),
                root.fingerprint(),
                &source,
                gcc.metadata().clone(),
            )
            .map_err(|e| format!("GCC {}: {e}", gcc.name()))?;
            if k == toggled {
                toggled_gcc = Some(retargeted.clone());
            }
            store
                .attach_gcc(retargeted)
                .map_err(|e| format!("store: {e}"))?;
        }
    }
    let toggled_gcc = toggled_gcc.ok_or("toggled incident carries no GCC")?;
    let mut withdrawn = store.clone();
    let toggled_root = roots[toggled].certs[0].fingerprint();
    withdrawn.detach_gcc(&toggled_root, &toggled_gcc.source_hash());
    let revoked = Gcc::parse(
        toggled_gcc.name(),
        toggled_root,
        &symantec::listing_2_source(&"0".repeat(64)),
        toggled_gcc.metadata().clone(),
    )
    .map_err(|e| format!("withdrawn GCC: {e}"))?;
    withdrawn
        .attach_gcc(revoked)
        .map_err(|e| format!("store: {e}"))?;

    // The working set: every leaf under every variant of its issuer.
    let mut requests = Vec::with_capacity(leaves * variants);
    for (i, leaf) in leaf_certs.into_iter().enumerate() {
        let leaf = leaf.expect("every leaf issued");
        let tpl = &templates[leaf_template[i]];
        let k = tpl.incident;
        let pool: Vec<Certificate> = ints[k].iter().map(|c| c.certs[0].clone()).collect();
        for m in 0..variants {
            let chain = vec![
                leaf.clone(),
                ints[k][tpl.intermediate].certs[m].clone(),
                roots[k].certs[0].clone(),
            ];
            requests.push(Request {
                host: leaf.dns_names().first().cloned().unwrap_or_default(),
                chain,
                pool: pool.clone(),
                at: tpl.chain.at,
                usage: tpl.chain.usage,
                toggled: k == toggled,
            });
        }
    }
    // Daemon workloads also ask for S/MIME on a quarter of the chains,
    // so Listing 1's S/MIME rule is exercised too.
    if workload != Workload::Hammurabi {
        for (i, r) in requests.iter_mut().enumerate() {
            if i % 4 == 3 {
                r.usage = Usage::SMime;
            }
        }
    }
    Rng::new(seed, "order").shuffle(&mut requests);

    let stores = [store, withdrawn];
    let expected = par_map(&requests, threads, |r| reference_verdicts(r, &stores))
        .into_iter()
        .collect::<Result<Vec<_>, String>>()?;
    let accepts = if workload == Workload::Hammurabi {
        let ua = Validator::new(stores[0].clone(), ValidationMode::UserAgent);
        requests
            .iter()
            .map(|r| {
                ua.validate_for_host(&r.chain[0], &r.pool, &r.host, r.at)
                    .map(|o| o.accepted())
                    .map_err(|e| format!("reference validation: {e}"))
            })
            .collect::<Result<Vec<_>, String>>()?
    } else {
        Vec::new()
    };
    let flips: Vec<usize> = (0..requests.len())
        .filter(|&i| expected[i][0] != expected[i][1])
        .collect();

    // An "accept everything" server must fail: the working set mixes
    // accepted and rejected chains, and some chains flip with the feed.
    let accepted = |v: &Verdicts| v.iter().all(|(_, a)| *a);
    let n_accepted = expected.iter().filter(|e| accepted(&e[0])).count();
    if n_accepted == 0 || n_accepted == requests.len() {
        return Err(format!(
            "fixture does not mix verdicts ({n_accepted} of {} accepted)",
            requests.len()
        ));
    }
    if flips.is_empty() {
        return Err("no chain flips between feed versions".into());
    }
    Ok(Fixture {
        stores,
        requests,
        expected,
        accepts,
        flips,
    })
}

/// Reference verdicts of one request under both feed versions, from the
/// string evaluator (no code shared with the interned engine).
fn reference_verdicts(r: &Request, stores: &[RootStore; 2]) -> Result<[Verdicts; 2], String> {
    let session = ValidationSession::new(&r.chain);
    let root = r.chain.last().expect("chain has a root").fingerprint();
    let eval = |store: &RootStore| -> Result<Verdicts, String> {
        store
            .gccs_for(&root)
            .iter()
            .map(|gcc| {
                session
                    .evaluate_gcc_string(gcc, r.usage)
                    .map(|ok| (Arc::clone(gcc.name_shared()), ok))
                    .map_err(|e| format!("reference evaluation: {e}"))
            })
            .collect()
    };
    let v0 = eval(&stores[0])?;
    let v1 = if r.toggled {
        eval(&stores[1])?
    } else {
        v0.clone()
    };
    Ok([v0, v1])
}
