//! The *complete validation redesign* deployment mode (§3.1): the entire
//! per-chain validation policy — expiry, CA bits, path lengths, name
//! constraints, EKU, hostname, systematic store constraints **and** all
//! attached GCCs — expressed as one stratified Datalog program and
//! evaluated in a single run, in the style of Hammurabi (Larisch et al.,
//! CCS '22).
//!
//! Cryptographic signature verification stays outside the logic program
//! (as in Hammurabi itself); its results are injected as `sigOk/1` facts.
//! String matching (wildcards, name-constraint subtrees) is likewise
//! precomputed into auxiliary relations (`subtreeMatch/2`, `hostOk/1`),
//! because pure Datalog has no string primitives.
//!
//! The full program is a pure function of the GCC sources attached to the
//! chain's root, so it is compiled once per GCC set and kept in a bounded
//! process-wide cache keyed by those sources' hashes (DESIGN.md §5h).

use crate::cache::{ShardedLru, DEFAULT_CACHE_SHARDS};
use crate::facts::{add_chain_facts, cert_id, chain_id};
use crate::validate::{RejectReason, ValidatorConfig};
use crate::CoreError;
use nrslb_crypto::sha256::{Digest, Sha256};
use nrslb_datalog::{CompiledProgram, Database, Program, Val};
use nrslb_rootstore::{Gcc, RootStore, Usage};
use nrslb_x509::name::in_subtree;
use nrslb_x509::Certificate;
use std::sync::{Arc, OnceLock};

/// The validation policy, as Datalog source. Public so documentation and
/// examples can show the complete program.
pub const POLICY: &str = r#"
% ---- temporal validity ----
expired(C) :- now(T), notAfter(C, NA), NA < T.
notYetValid(C) :- now(T), notBefore(C, NB), T < NB.
timeBad(Chain) :- chainIndex(Chain, _, C), expired(C).
timeBad(Chain) :- chainIndex(Chain, _, C), notYetValid(C).

% ---- signatures (verified natively, injected as sigOk facts) ----
sigBad(Chain) :- chainIndex(Chain, _, C), \+sigOk(C).

% ---- revocation (OneCRL/CRLite results injected as revoked facts) ----
revBad(Chain) :- chainIndex(Chain, _, C), revoked(C).

% ---- CA bit: everything above the leaf must be a CA ----
caBad(Chain) :- chainIndex(Chain, I, C), I > 0, \+isCA(C).

% ---- path length: CA at index I has I-1 CAs below it ----
pathLenBad(Chain) :- chainIndex(Chain, I, C), I > 0, pathLen(C, L), M = I - 1, L < M.

% ---- name constraints over leaf SANs ----
constrained(CA) :- permittedSubtree(CA, _).
permittedOk(CA, Name) :- permittedSubtree(CA, Base), subtreeMatch(Base, Name).
ncBad(Chain) :- chainIndex(Chain, I, CA), I > 0, constrained(CA),
                leaf(Chain, L), san(L, Name), \+permittedOk(CA, Name).
ncBad(Chain) :- chainIndex(Chain, I, CA), I > 0, excludedSubtree(CA, Base),
                leaf(Chain, L), san(L, Name), subtreeMatch(Base, Name).

% ---- extended key usage of the leaf ----
ekuFor("TLS", "id-kp-serverAuth").
ekuFor("S/MIME", "id-kp-emailProtection").
ekuRestricted(C) :- extendedKeyUsage(C, _).
ekuOk(Chain) :- leaf(Chain, L), \+ekuRestricted(L).
ekuOk(Chain) :- leaf(Chain, L), queryUsage(U), ekuFor(U, P), extendedKeyUsage(L, P).
ekuBad(Chain) :- chain(Chain), \+ekuOk(Chain).

% ---- hostname (matching precomputed into hostOk facts) ----
hostBad(Chain) :- hostRequested(1), leaf(Chain, L), \+hostOk(L).

% ---- systematic store constraints (NSS date/usage pairs) ----
usageDateBad(Chain) :- root(Chain, R), queryUsage("TLS"), tlsDistrustAfter(R, T),
                       leaf(Chain, L), notBefore(L, NB), NB >= T.
usageDateBad(Chain) :- root(Chain, R), queryUsage("S/MIME"), smimeDistrustAfter(R, T),
                       leaf(Chain, L), notBefore(L, NB), NB >= T.

% ---- verdict ----
chainBad(Chain) :- timeBad(Chain).
chainBad(Chain) :- sigBad(Chain).
chainBad(Chain) :- revBad(Chain).
chainBad(Chain) :- caBad(Chain).
chainBad(Chain) :- pathLenBad(Chain).
chainBad(Chain) :- ncBad(Chain).
chainBad(Chain) :- ekuBad(Chain).
chainBad(Chain) :- hostBad(Chain).
chainBad(Chain) :- usageDateBad(Chain).
policyOk(Chain) :- chain(Chain), \+chainBad(Chain).
"#;

/// Rename every *derived* predicate of `program` by appending `suffix`,
/// leaving EDB (fact-base) predicates untouched. Used to merge several
/// GCCs into one policy run without their `valid/2` (or helper) rules
/// colliding.
pub fn namespace_program(program: &Program, suffix: &str) -> Program {
    use nrslb_datalog::ast::{BodyItem, Literal};
    let derived = program.derived_predicates();
    let rename = |lit: &Literal| -> Literal {
        if derived.contains(&lit.pred) {
            Literal {
                pred: Arc::from(format!("{}{}", lit.pred, suffix).as_str()),
                args: lit.args.clone(),
            }
        } else {
            lit.clone()
        }
    };
    let rules = program
        .rules
        .iter()
        .map(|rule| nrslb_datalog::Rule {
            head: rename(&rule.head),
            body: rule
                .body
                .iter()
                .map(|item| match item {
                    BodyItem::Pos(l) => BodyItem::Pos(rename(l)),
                    BodyItem::Neg(l) => BodyItem::Neg(rename(l)),
                    other => other.clone(),
                })
                .collect(),
        })
        .collect();
    Program { rules }
}

/// How many compiled programs the process keeps: one per distinct GCC
/// set. Incident GCCs are shared across roots by retargeting, so a real
/// store holds few distinct sets; a miss only costs one compile.
const PROGRAM_CACHE_CAPACITY: usize = 128;

/// Compiled full programs keyed by [`gcc_set_key`]. The key is the whole
/// input of [`full_program`], so an entry can never go stale: a store
/// swap or feed delta that changes a root's GCCs changes its key.
fn program_cache() -> &'static ShardedLru<Digest, Arc<CompiledProgram>> {
    static CACHE: OnceLock<ShardedLru<Digest, Arc<CompiledProgram>>> = OnceLock::new();
    CACHE.get_or_init(|| ShardedLru::new(PROGRAM_CACHE_CAPACITY, DEFAULT_CACHE_SHARDS))
}

/// SHA-256 over the GCCs' source hashes, in attachment order (the order
/// fixes the `__g{i}` namespaces).
fn gcc_set_key(gccs: &[Gcc]) -> Digest {
    let mut h = Sha256::new();
    for gcc in gccs {
        h.update(gcc.source_hash());
    }
    h.finalize()
}

/// Build the complete program for a GCC set: the base [`POLICY`], plus
/// each GCC namespaced apart and wired into `chainBad` via `gccBad`.
fn full_program(gccs: &[Gcc]) -> Program {
    let mut program = Program::parse(POLICY).expect("base policy parses");
    for (i, gcc) in gccs.iter().enumerate() {
        let suffix = format!("__g{i}");
        let renamed = namespace_program(gcc.program(), &suffix);
        program.rules.extend(renamed.rules);
        let wire = format!(
            "gccBad(Chain) :- chain(Chain), queryUsage(U), \\+valid{suffix}(Chain, U).\n\
             chainBad(Chain) :- gccBad(Chain)."
        );
        let wire = Program::parse(&wire).expect("wire rules parse");
        program.rules.extend(wire.rules);
    }
    program
}

/// The compiled full program for `gccs`, from the cache or compiled now.
/// A compile error (a GCC that reads the policy's own predicates can
/// close a negative cycle through `gccBad`) is returned, not cached.
fn compiled_program(gccs: &[Gcc]) -> Result<Arc<CompiledProgram>, CoreError> {
    let key = gcc_set_key(gccs);
    if let Some(compiled) = program_cache().get(&key) {
        return Ok(compiled);
    }
    let compiled = Arc::new(CompiledProgram::compile(&full_program(gccs))?);
    program_cache().insert(key, Arc::clone(&compiled));
    Ok(compiled)
}

/// Inject the per-validation facts the policy needs beyond the chain
/// conversion: time, usage, signature results, subtree matches, hostname
/// match and systematic constraints.
#[allow(clippy::too_many_arguments)]
fn add_policy_facts(
    db: &mut Database,
    chain: &[Certificate],
    sig_ok: &[bool],
    usage: Usage,
    now: i64,
    hostname: Option<&str>,
    store: &RootStore,
    config: ValidatorConfig,
    revocation: Option<&dyn nrslb_revocation::RevocationChecker>,
) {
    db.add_fact("now", vec![Val::int(now)]);
    db.add_fact("queryUsage", vec![Val::str(usage.as_datalog())]);
    // Signature results (crypto outside the program).
    for (cert, &ok) in chain.iter().zip(sig_ok) {
        if ok {
            db.add_fact("sigOk", vec![Val::str(cert_id(cert))]);
        }
    }
    // Revocation results (computed natively, injected as facts).
    if let Some(checker) = revocation {
        for cert in chain {
            if checker.is_revoked(cert) {
                db.add_fact("revoked", vec![Val::str(cert_id(cert))]);
            }
        }
    }
    // Subtree matches for every (constraint base, leaf SAN) pair.
    let leaf = &chain[0];
    for cert in chain.iter().skip(1) {
        if let Some(nc) = &cert.extensions().name_constraints {
            for base in nc.permitted.iter().chain(&nc.excluded) {
                for san in leaf.dns_names() {
                    if in_subtree(san, base, config.dot_semantics) {
                        db.add_fact("subtreeMatch", vec![Val::str(base), Val::str(san)]);
                    }
                }
            }
        }
    }
    // Hostname.
    if let Some(host) = hostname {
        db.add_fact("hostRequested", vec![Val::int(1)]);
        if leaf.matches_hostname(host) {
            db.add_fact("hostOk", vec![Val::str(cert_id(leaf))]);
        }
    }
    // Systematic constraints for the chain's root.
    if let Some(root) = chain.last() {
        if let Some(rec) = store.record(&root.fingerprint()) {
            let rid = Val::str(cert_id(root));
            if let Some(t) = rec.tls_distrust_after {
                db.add_fact("tlsDistrustAfter", vec![rid.clone(), Val::int(t)]);
            }
            if let Some(t) = rec.smime_distrust_after {
                db.add_fact("smimeDistrustAfter", vec![rid, Val::int(t)]);
            }
        }
    }
    // EKU enforcement knob: when disabled, suppress by marking every leaf
    // usage as satisfied (inject the relevant fact).
    if !config.enforce_eku {
        let lid = Val::str(cert_id(leaf));
        db.add_fact(
            "extendedKeyUsage",
            vec![lid.clone(), Val::str("id-kp-serverAuth")],
        );
        db.add_fact(
            "extendedKeyUsage",
            vec![lid, Val::str("id-kp-emailProtection")],
        );
    }
}

/// Evaluate the full policy program for one candidate chain.
///
/// Every link's signature is verified here, natively, and the results
/// enter the program as `sigOk` facts. Returns `Ok(Ok(()))` on
/// acceptance, `Ok(Err(reason))` on rejection, `Err` only on engine
/// failure.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_chain(
    chain: &[Certificate],
    usage: Usage,
    now: i64,
    hostname: Option<&str>,
    store: &RootStore,
    config: ValidatorConfig,
    revocation: Option<&dyn nrslb_revocation::RevocationChecker>,
) -> Result<Result<(), RejectReason>, CoreError> {
    let sig_ok: Vec<bool> = chain
        .iter()
        .enumerate()
        .map(|(i, cert)| {
            let issuer = chain.get(i + 1).unwrap_or(cert);
            cert.verify_signed_by(issuer).is_ok()
        })
        .collect();
    evaluate_with_signatures(
        chain, &sig_ok, usage, now, hostname, store, config, revocation,
    )
}

/// [`evaluate_chain`] with the signature results supplied by the caller:
/// `sig_ok[i]` says whether `chain[i]` verifies under `chain[i + 1]` (the
/// root under itself). The validator passes its signature memo's answers
/// here, so no link is verified twice.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate_with_signatures(
    chain: &[Certificate],
    sig_ok: &[bool],
    usage: Usage,
    now: i64,
    hostname: Option<&str>,
    store: &RootStore,
    config: ValidatorConfig,
    revocation: Option<&dyn nrslb_revocation::RevocationChecker>,
) -> Result<Result<(), RejectReason>, CoreError> {
    debug_assert_eq!(sig_ok.len(), chain.len(), "one signature result per link");
    let root_fp = chain.last().expect("chain non-empty").fingerprint();
    let gccs = store.gccs_for(&root_fp);
    let program = compiled_program(gccs)?;
    let mut db = Database::new();
    add_chain_facts(chain, &mut db);
    add_policy_facts(
        &mut db, chain, sig_ok, usage, now, hostname, store, config, revocation,
    );
    let out = program.evaluate(Arc::new(db))?;

    let cid = Val::str(chain_id(chain));
    if out.contains("policyOk", std::slice::from_ref(&cid)) {
        return Ok(Ok(()));
    }
    // Extract a specific reason for parity with the native validator.
    // Per-cert temporal reasons.
    for (i, cert) in chain.iter().enumerate() {
        let h = Val::str(cert_id(cert));
        if out.contains("notYetValid", std::slice::from_ref(&h)) {
            return Ok(Err(RejectReason::NotYetValid { index: i }));
        }
        if out.contains("expired", &[h]) {
            return Ok(Err(RejectReason::Expired { index: i }));
        }
    }
    if out.contains("sigBad", std::slice::from_ref(&cid)) {
        for (i, cert) in chain.iter().enumerate() {
            if !out.contains("sigOk", &[Val::str(cert_id(cert))]) {
                return Ok(Err(RejectReason::BadSignature { index: i }));
            }
        }
    }
    if out.contains("revBad", std::slice::from_ref(&cid)) {
        for (i, cert) in chain.iter().enumerate() {
            if out.contains("revoked", &[Val::str(cert_id(cert))]) {
                return Ok(Err(RejectReason::Revoked { index: i }));
            }
        }
    }
    if out.contains("caBad", std::slice::from_ref(&cid)) {
        for (i, cert) in chain.iter().enumerate().skip(1) {
            if !cert.is_ca() {
                return Ok(Err(RejectReason::NotCa { index: i }));
            }
        }
    }
    if out.contains("pathLenBad", std::slice::from_ref(&cid)) {
        for (i, cert) in chain.iter().enumerate().skip(1) {
            if let Some(l) = cert.path_len() {
                if (i - 1) as u32 > l {
                    return Ok(Err(RejectReason::PathLenExceeded { index: i }));
                }
            }
        }
    }
    if out.contains("ncBad", std::slice::from_ref(&cid)) {
        // Find the first violating (CA, SAN) pair the way the native
        // validator reports it.
        let leaf = &chain[0];
        for (i, cert) in chain.iter().enumerate().skip(1) {
            if let Some(nc) = &cert.extensions().name_constraints {
                for san in leaf.dns_names() {
                    if !nc.allows(san, config.dot_semantics) {
                        return Ok(Err(RejectReason::NameConstraintViolation {
                            index: i,
                            name: san.clone(),
                        }));
                    }
                }
            }
        }
    }
    if out.contains("ekuBad", std::slice::from_ref(&cid)) {
        return Ok(Err(RejectReason::WrongEku));
    }
    if out.contains("hostBad", std::slice::from_ref(&cid)) {
        return Ok(Err(RejectReason::HostnameMismatch));
    }
    if out.contains("usageDateBad", std::slice::from_ref(&cid)) {
        return Ok(Err(RejectReason::UsageDateConstraint));
    }
    if out.contains("gccBad", std::slice::from_ref(&cid)) {
        // Identify which GCC rejected (re-query the namespaced valids).
        for (i, gcc) in gccs.iter().enumerate() {
            let pred = format!("valid__g{i}");
            if !out.contains(&pred, &[cid.clone(), Val::str(usage.as_datalog())]) {
                return Ok(Err(RejectReason::GccRejected {
                    gcc_name: gcc.name().to_string(),
                }));
            }
        }
        return Ok(Err(RejectReason::PolicyRejected));
    }
    Ok(Err(RejectReason::PolicyRejected))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{ValidationMode, Validator};
    use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
    use nrslb_x509::builder::{CaKey, CertificateBuilder};
    use nrslb_x509::extensions::ExtendedKeyUsage;
    use nrslb_x509::testutil::{simple_chain, SimplePki, T0, YEAR};
    use nrslb_x509::DistinguishedName;

    fn gcc_rejected(outcome: &crate::Outcome) -> Option<&str> {
        match outcome.final_reason() {
            Some(RejectReason::GccRejected { gcc_name }) => Some(gcc_name),
            _ => None,
        }
    }

    #[test]
    fn base_policy_parses_and_stratifies() {
        let program = Program::parse(POLICY).unwrap();
        CompiledProgram::compile(&program).unwrap();
    }

    #[test]
    fn accepts_good_chain() {
        let pki = simple_chain("ham.example");
        let mut store = RootStore::new("test");
        store.add_trusted(pki.root.clone()).unwrap();
        let chain = vec![pki.leaf, pki.intermediate, pki.root];
        let verdict = evaluate_chain(
            &chain,
            Usage::Tls,
            pki.now,
            None,
            &store,
            ValidatorConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(verdict, Ok(()));
    }

    #[test]
    fn rejects_expired_with_reason() {
        let pki = simple_chain("hamexp.example");
        let mut store = RootStore::new("test");
        store.add_trusted(pki.root.clone()).unwrap();
        let chain = vec![pki.leaf, pki.intermediate, pki.root];
        let verdict = evaluate_chain(
            &chain,
            Usage::Tls,
            pki.now + 2 * YEAR,
            None,
            &store,
            ValidatorConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(verdict, Err(RejectReason::Expired { index: 0 }));
    }

    #[test]
    fn hammurabi_mode_agrees_with_user_agent_mode() {
        let pki = simple_chain("hamparity.example");
        let mut store = RootStore::new("test");
        store.add_trusted(pki.root.clone()).unwrap();
        let gcc = Gcc::parse(
            "smime-block",
            pki.root.fingerprint(),
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();

        let ua = Validator::new(store.clone(), ValidationMode::UserAgent);
        let ham = Validator::new(store, ValidationMode::Hammurabi);
        let pool = [pki.intermediate.clone()];
        for usage in Usage::ALL {
            for t in [pki.now, pki.now + 2 * YEAR, pki.now - 2 * YEAR] {
                let a = ua.validate(&pki.leaf, &pool, usage, t).unwrap();
                let b = ham.validate(&pki.leaf, &pool, usage, t).unwrap();
                assert_eq!(a.accepted(), b.accepted(), "usage={usage} t={t}");
            }
        }
    }

    #[test]
    fn multiple_gccs_all_must_accept() {
        let pki = simple_chain("hammulti.example");
        let mut store = RootStore::new("test");
        store.add_trusted(pki.root.clone()).unwrap();
        let accept_all = Gcc::parse(
            "accept",
            pki.root.fingerprint(),
            "valid(Chain, U) :- chainIndex(Chain, _, _), queryUsage(U).",
            GccMetadata::default(),
        )
        .unwrap();
        // Uses an `exempt` helper that must not collide with other GCCs.
        let deny_tls = Gcc::parse(
            "deny-tls",
            pki.root.fingerprint(),
            r#"
            exempt("nobody").
            valid(Chain, "S/MIME") :- leaf(Chain, _).
            valid(Chain, "TLS") :- root(Chain, R), hash(R, H), exempt(H).
            "#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(accept_all).unwrap();
        store.attach_gcc(deny_tls).unwrap();

        let ham = Validator::new(store, ValidationMode::Hammurabi);
        let pool = [pki.intermediate.clone()];
        let tls = ham.validate(&pki.leaf, &pool, Usage::Tls, pki.now).unwrap();
        assert!(!tls.accepted());
        assert!(matches!(
            tls.final_reason(),
            Some(RejectReason::GccRejected { gcc_name }) if gcc_name == "deny-tls"
        ));
    }

    #[test]
    fn namespacing_keeps_edb_predicates() {
        let p = Program::parse(
            "helper(X) :- leaf(C, X).
             valid(C, U) :- helper(X), leaf(C, X), queryUsage(U).",
        )
        .unwrap();
        let n = namespace_program(&p, "__g0");
        let text = n.to_string();
        assert!(text.contains("helper__g0"));
        assert!(text.contains("valid__g0"));
        assert!(text.contains("leaf(C, X)")); // EDB untouched
        assert!(!text.contains("leaf__g0"));
    }

    #[test]
    fn evaluate_chain_rejects_forged_link() {
        let pki = simple_chain("hamforged.example");
        let mut store = RootStore::new("test");
        store.add_trusted(pki.root.clone()).unwrap();
        // Names the intermediate as issuer, signed by another key.
        let impostor =
            CaKey::from_seed(pki.intermediate_key.name().clone(), [0x67; 32], 4).unwrap();
        let forged = CertificateBuilder::new()
            .subject(DistinguishedName::common_name("hamforged.example"))
            .dns_names(&["hamforged.example"])
            .validity_window(T0 - YEAR, T0 + YEAR)
            .build_signed_by(&impostor)
            .unwrap();
        let chain = vec![forged, pki.intermediate, pki.root];
        let verdict = evaluate_chain(
            &chain,
            Usage::Tls,
            pki.now,
            None,
            &store,
            ValidatorConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(verdict, Err(RejectReason::BadSignature { index: 0 }));
    }

    #[test]
    fn program_follows_the_stores_gcc_content_not_the_root() {
        let pki = simple_chain("hamswap.example");
        let store_with = |name: &str, source: &str| {
            let mut store = RootStore::new("test");
            store.add_trusted(pki.root.clone()).unwrap();
            let gcc = Gcc::parse(name, pki.root.fingerprint(), source, GccMetadata::default());
            store.attach_gcc(gcc.unwrap()).unwrap();
            store
        };
        let accept = store_with("accept", "valid(Chain, U) :- chain(Chain), queryUsage(U).");
        let deny = store_with("deny-tls", r#"valid(Chain, "S/MIME") :- chain(Chain)."#);
        let pool = [pki.intermediate.clone()];
        let mut ham = Validator::new(accept.clone(), ValidationMode::Hammurabi);
        for (store, accepted, reason) in [
            (accept.clone(), true, None),
            (deny, false, Some("deny-tls")),
            (accept, true, None),
        ] {
            // Same root every time: only the attached GCC changes.
            ham.set_store(store);
            let out = ham.validate(&pki.leaf, &pool, Usage::Tls, pki.now).unwrap();
            assert_eq!(out.accepted(), accepted);
            assert_eq!(gcc_rejected(&out), reason);
        }
    }

    #[test]
    fn roots_with_identical_gcc_sources_keep_their_own_names() {
        let a = simple_chain("hamtwin-a.example");
        let b = simple_chain("hamtwin-b.example");
        let source = r#"valid(Chain, "TLS") :- leaf(Chain, L), san(L, "hamtwin-a.example")."#;
        let mut store = RootStore::new("test");
        for (pki, name) in [(&a, "twin-a"), (&b, "twin-b")] {
            store.add_trusted(pki.root.clone()).unwrap();
            let gcc = Gcc::parse(name, pki.root.fingerprint(), source, GccMetadata::default());
            store.attach_gcc(gcc.unwrap()).unwrap();
        }
        let ham = Validator::new(store, ValidationMode::Hammurabi);
        let check = |pki: &SimplePki, leaf: &Certificate, reason: Option<&str>| {
            let pool = [pki.intermediate.clone()];
            let out = ham.validate(leaf, &pool, Usage::Tls, pki.now).unwrap();
            assert_eq!(out.accepted(), reason.is_none());
            assert_eq!(gcc_rejected(&out), reason);
        };
        check(&a, &a.leaf, None);
        let other_a = CertificateBuilder::new()
            .subject(DistinguishedName::common_name("other-a.example"))
            .dns_names(&["other-a.example"])
            .validity_window(T0 - YEAR, T0 + YEAR)
            .extended_key_usage(ExtendedKeyUsage::server_auth())
            .build_signed_by(&a.intermediate_key)
            .unwrap();
        check(&a, &other_a, Some("twin-a"));
        check(&b, &b.leaf, Some("twin-b"));
    }

    #[test]
    fn unstratifiable_merged_program_is_an_error_every_time() {
        let pki = simple_chain("hamcycle.example");
        let mut store = RootStore::new("test");
        store.add_trusted(pki.root.clone()).unwrap();
        // Fine on its own, but reading the policy's `chainBad` closes a
        // negative cycle through the `gccBad` wiring.
        let source = "valid(Chain, U) :- chainBad(Chain), queryUsage(U).";
        let gcc = Gcc::parse(
            "cycle",
            pki.root.fingerprint(),
            source,
            GccMetadata::default(),
        );
        store.attach_gcc(gcc.unwrap()).unwrap();
        let ham = Validator::new(store, ValidationMode::Hammurabi);
        let pool = [pki.intermediate.clone()];
        for _ in 0..2 {
            assert!(ham.validate(&pki.leaf, &pool, Usage::Tls, pki.now).is_err());
        }
    }
}
