//! Conversion of certificate chains into Datalog fact bases.
//!
//! The fact schema follows the predicates used in the paper's listings,
//! so Listings 1–3 run verbatim against converted chains:
//!
//! | predicate | meaning |
//! |---|---|
//! | `chain(Chain)` | the chain handle |
//! | `leaf(Chain, Cert)` | `Cert` is the chain's leaf |
//! | `root(Chain, Cert)` | `Cert` is the chain's root |
//! | `intermediate(Chain, Cert)` | `Cert` is an intermediate |
//! | `chainIndex(Chain, I, Cert)` | position `I` (0 = leaf) |
//! | `signs(Issuer, Subject)` | adjacency: `Issuer` signed `Subject` |
//! | `hash(Cert, Hex)` | SHA-256 fingerprint, lowercase hex |
//! | `notBefore(Cert, T)` / `notAfter(Cert, T)` | validity (Unix secs) |
//! | `subject(Cert, S)` / `issuer(Cert, S)` | display-form names |
//! | `serial(Cert, S)` | decimal string (serials exceed i64) |
//! | `EV(Cert)` | asserts the CA/B EV policy |
//! | `isCA(Cert)` / `pathLen(Cert, N)` | BasicConstraints |
//! | `san(Cert, Name)` | one fact per SAN DNS name |
//! | `sanTld(Cert, Tld)` | the TLD of each SAN (precomputed; see §5.2) |
//! | `keyUsage(Cert, U)` | one fact per named KeyUsage bit |
//! | `extendedKeyUsage(Cert, P)` | one per EKU purpose (`"id-kp-serverAuth"`...) |
//! | `permittedSubtree(Cert, D)` / `excludedSubtree(Cert, D)` | name constraints |
//!
//! Certificate handles are the fingerprint hex itself, which is why
//! Listing 2's `hash(Int, H), exempt(H)` works unchanged.
//!
//! Facts are emitted **pre-interned**: schema predicates are interned
//! once per process (`fact_syms`), and each certificate's handle
//! symbol is interned once per certificate and cached on the
//! certificate itself ([`cert_sym`]), so converting a chain hashes
//! small `u32` ids instead of rebuilding and re-hashing hex strings.

use nrslb_datalog::intern::{ITuple, IVal, Sym};
use nrslb_datalog::{intern, Database, Program};
use nrslb_der::Oid;
use nrslb_rootstore::Usage;
use nrslb_x509::Certificate;
use std::sync::{Arc, OnceLock};

/// Pre-interned symbols for every schema predicate (plus the `valid`
/// verdict predicate and the usage constants), resolved once per
/// process.
pub(crate) struct FactSyms {
    pub(crate) chain: Sym,
    pub(crate) leaf: Sym,
    pub(crate) root: Sym,
    pub(crate) intermediate: Sym,
    pub(crate) chain_index: Sym,
    pub(crate) signs: Sym,
    pub(crate) hash: Sym,
    pub(crate) not_before: Sym,
    pub(crate) not_after: Sym,
    pub(crate) subject: Sym,
    pub(crate) issuer: Sym,
    pub(crate) serial: Sym,
    pub(crate) ev: Sym,
    pub(crate) is_ca: Sym,
    pub(crate) path_len: Sym,
    pub(crate) san: Sym,
    pub(crate) san_tld: Sym,
    pub(crate) key_usage: Sym,
    pub(crate) extended_key_usage: Sym,
    pub(crate) permitted_subtree: Sym,
    pub(crate) excluded_subtree: Sym,
    pub(crate) valid: Sym,
    tls: Sym,
    smime: Sym,
}

impl FactSyms {
    /// The interned symbol for a usage's Datalog constant.
    pub(crate) fn usage(&self, usage: Usage) -> Sym {
        match usage {
            Usage::Tls => self.tls,
            Usage::SMime => self.smime,
        }
    }
}

/// The process-wide schema symbols.
pub(crate) fn fact_syms() -> &'static FactSyms {
    static SYMS: OnceLock<FactSyms> = OnceLock::new();
    SYMS.get_or_init(|| FactSyms {
        chain: intern("chain"),
        leaf: intern("leaf"),
        root: intern("root"),
        intermediate: intern("intermediate"),
        chain_index: intern("chainIndex"),
        signs: intern("signs"),
        hash: intern("hash"),
        not_before: intern("notBefore"),
        not_after: intern("notAfter"),
        subject: intern("subject"),
        issuer: intern("issuer"),
        serial: intern("serial"),
        ev: intern("EV"),
        is_ca: intern("isCA"),
        path_len: intern("pathLen"),
        san: intern("san"),
        san_tld: intern("sanTld"),
        key_usage: intern("keyUsage"),
        extended_key_usage: intern("extendedKeyUsage"),
        permitted_subtree: intern("permittedSubtree"),
        excluded_subtree: intern("excludedSubtree"),
        valid: intern("valid"),
        tls: intern(Usage::Tls.as_datalog()),
        smime: intern(Usage::SMime.as_datalog()),
    })
}

/// The Datalog handle for a certificate: its SHA-256 fingerprint in hex.
///
/// The hex is rendered at most once per certificate and shared by every
/// clone (see [`Certificate::fingerprint_hex`]); this returns a refcount
/// bump, not a fresh `String`.
pub fn cert_id(cert: &Certificate) -> Arc<str> {
    Arc::clone(cert.fingerprint_hex())
}

/// The certificate's handle as an interned symbol.
///
/// The symbol id is cached on the certificate itself after the first
/// call, so re-emitting facts for a previously seen certificate skips
/// the global symbol-table lookup entirely.
pub fn cert_sym(cert: &Certificate) -> Sym {
    match cert.symbol_token() {
        Some(token) => Sym::from_raw(token),
        None => {
            let sym = intern(cert.fingerprint_hex());
            Sym::from_raw(cert.set_symbol_token(sym.to_raw()))
        }
    }
}

/// The Datalog handle for a chain: `chain:` + the leaf's short hash.
///
/// One validation converts one chain, so the handle only needs to be
/// stable and distinct from certificate handles.
pub fn chain_id(chain: &[Certificate]) -> String {
    match chain.first() {
        Some(leaf) => format!("chain:{}", leaf.fingerprint().short()),
        None => "chain:empty".to_string(),
    }
}

fn eku_name(oid: &Oid) -> String {
    use nrslb_x509::oids;
    if *oid == oids::kp_server_auth() {
        "id-kp-serverAuth".to_string()
    } else if *oid == oids::kp_client_auth() {
        "id-kp-clientAuth".to_string()
    } else if *oid == oids::kp_email_protection() {
        "id-kp-emailProtection".to_string()
    } else {
        oid.to_string()
    }
}

fn istr(s: &str) -> IVal {
    IVal::Sym(intern(s))
}

fn fact1(db: &mut Database, pred: Sym, a: IVal) {
    db.add_ifact(pred, ITuple::from_slice(&[a]));
}

fn fact2(db: &mut Database, pred: Sym, a: IVal, b: IVal) {
    db.add_ifact(pred, ITuple::from_slice(&[a, b]));
}

fn fact3(db: &mut Database, pred: Sym, a: IVal, b: IVal, c: IVal) {
    db.add_ifact(pred, ITuple::from_slice(&[a, b, c]));
}

/// Append the facts for one certificate (independent of chain position).
pub fn cert_facts(cert: &Certificate, db: &mut Database) {
    let syms = fact_syms();
    let id = IVal::Sym(cert_sym(cert));
    // The handle *is* the hex digest, so `hash` relates it to itself.
    fact2(db, syms.hash, id, id);
    fact2(
        db,
        syms.not_before,
        id,
        IVal::Int(cert.validity().not_before),
    );
    fact2(db, syms.not_after, id, IVal::Int(cert.validity().not_after));
    fact2(db, syms.subject, id, istr(&cert.subject().to_string()));
    fact2(db, syms.issuer, id, istr(&cert.issuer().to_string()));
    fact2(db, syms.serial, id, istr(&cert.serial().to_string()));
    if cert.is_ev() {
        fact1(db, syms.ev, id);
    }
    if cert.is_ca() {
        fact1(db, syms.is_ca, id);
    }
    if let Some(n) = cert.path_len() {
        fact2(db, syms.path_len, id, IVal::Int(n as i64));
    }
    for san in cert.dns_names() {
        fact2(db, syms.san, id, istr(san));
        // TLD extraction is a string operation Datalog cannot do itself;
        // providing it as a relation lets pre-emptive GCCs (§5.2)
        // constrain issuance scope by TLD.
        if let Some(tld) = nrslb_x509::name::tld(san) {
            fact2(db, syms.san_tld, id, istr(&tld));
        }
    }
    if let Some(ku) = cert.extensions().key_usage {
        for name in ku.names() {
            fact2(db, syms.key_usage, id, istr(name));
        }
    }
    if let Some(eku) = &cert.extensions().extended_key_usage {
        for oid in &eku.0 {
            fact2(db, syms.extended_key_usage, id, istr(&eku_name(oid)));
        }
    }
    if let Some(nc) = &cert.extensions().name_constraints {
        for base in &nc.permitted {
            fact2(db, syms.permitted_subtree, id, istr(base));
        }
        for base in &nc.excluded {
            fact2(db, syms.excluded_subtree, id, istr(base));
        }
    }
}

/// Convert a complete chain (leaf first, root last) into a fact database.
///
/// This is the **direct** path: facts are constructed in memory, already
/// interned.
pub fn chain_facts(chain: &[Certificate]) -> Database {
    let mut db = Database::new();
    add_chain_facts(chain, &mut db);
    db
}

/// Append chain facts to an existing database (used by the Hammurabi mode
/// which layers policy facts on top).
pub fn add_chain_facts(chain: &[Certificate], db: &mut Database) {
    let syms = fact_syms();
    let cid = istr(&chain_id(chain));
    fact1(db, syms.chain, cid);
    for (i, cert) in chain.iter().enumerate() {
        cert_facts(cert, db);
        let id = IVal::Sym(cert_sym(cert));
        fact3(db, syms.chain_index, cid, IVal::Int(i as i64), id);
        if i == 0 {
            fact2(db, syms.leaf, cid, id);
        }
        if i == chain.len() - 1 {
            fact2(db, syms.root, cid, id);
        }
        if i != 0 && i != chain.len() - 1 {
            fact2(db, syms.intermediate, cid, id);
        }
        if i + 1 < chain.len() {
            let issuer_id = IVal::Sym(cert_sym(&chain[i + 1]));
            fact2(db, syms.signs, issuer_id, id);
        }
    }
}

/// Convert a chain via the **unoptimized** path the paper measured:
/// build facts, serialize them to Datalog text, then re-parse the text
/// into a program whose facts seed evaluation.
///
/// Returns the parsed program (facts only). Benchmark E1 compares this
/// against [`chain_facts`].
pub fn chain_facts_unoptimized(
    chain: &[Certificate],
) -> Result<Program, nrslb_datalog::DatalogError> {
    let db = chain_facts(chain);
    let text = db.to_fact_text();
    Program::parse(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrslb_datalog::{CompiledProgram, Val};
    use nrslb_x509::testutil::simple_chain;

    fn test_chain() -> Vec<Certificate> {
        let pki = simple_chain("facts.example");
        vec![pki.leaf, pki.intermediate, pki.root]
    }

    #[test]
    fn structural_facts() {
        let chain = test_chain();
        let db = chain_facts(&chain);
        let cid = Val::str(chain_id(&chain));
        let leaf = Val::Str(cert_id(&chain[0]));
        let mid = Val::Str(cert_id(&chain[1]));
        let root = Val::Str(cert_id(&chain[2]));

        assert!(db.contains("chain", std::slice::from_ref(&cid)));
        assert!(db.contains("leaf", &[cid.clone(), leaf.clone()]));
        assert!(db.contains("root", &[cid.clone(), root.clone()]));
        assert!(db.contains("intermediate", &[cid.clone(), mid.clone()]));
        assert!(db.contains("signs", &[mid.clone(), leaf.clone()]));
        assert!(db.contains("signs", &[root.clone(), mid.clone()]));
        assert!(!db.contains("signs", &[root, leaf]));
    }

    #[test]
    fn field_facts() {
        let chain = test_chain();
        let db = chain_facts(&chain);
        let leaf = &chain[0];
        let id = Val::Str(cert_id(leaf));
        assert!(db.contains(
            "notBefore",
            &[id.clone(), Val::int(leaf.validity().not_before)]
        ));
        assert!(db.contains("san", &[id.clone(), Val::str("facts.example")]));
        assert!(db.contains(
            "extendedKeyUsage",
            &[id.clone(), Val::str("id-kp-serverAuth")]
        ));
        assert!(db.contains("keyUsage", &[id.clone(), Val::str("digitalSignature")]));
        assert!(!db.contains("isCA", std::slice::from_ref(&id)));
        assert!(!db.contains("EV", &[id]));

        let mid = Val::Str(cert_id(&chain[1]));
        assert!(db.contains("isCA", std::slice::from_ref(&mid)));
        assert!(db.contains("pathLen", &[mid, Val::int(0)]));
    }

    #[test]
    fn hash_fact_is_own_handle() {
        // Listing 2 relies on hash(Cert, H) where H is the full hex digest.
        let chain = test_chain();
        let db = chain_facts(&chain);
        let id = cert_id(&chain[1]);
        assert!(db.contains("hash", &[Val::str(&id), Val::str(&id)]));
        assert_eq!(id.len(), 64);
    }

    #[test]
    fn cert_sym_is_stable_and_matches_handle() {
        let chain = test_chain();
        let leaf = &chain[0];
        let sym = cert_sym(leaf);
        assert_eq!(cert_sym(leaf), sym, "token cached on the certificate");
        assert_eq!(cert_sym(&leaf.clone()), sym, "shared through the Arc");
        assert_eq!(&*sym.resolve(), &*cert_id(leaf));
    }

    #[test]
    fn unoptimized_path_equals_direct_path() {
        let chain = test_chain();
        let direct = chain_facts(&chain);
        let program = chain_facts_unoptimized(&chain).unwrap();
        // Run the fact-only program to materialize its database.
        let reparsed = CompiledProgram::compile(&program)
            .unwrap()
            .run(Database::new())
            .unwrap();
        assert_eq!(reparsed.len(), direct.len());
        for pred in direct.predicates() {
            for tuple in direct.tuples(&pred) {
                assert!(reparsed.contains(&pred, &tuple), "{pred}{tuple:?}");
            }
        }
    }

    #[test]
    fn listing_1_runs_on_converted_chain() {
        let chain = test_chain();
        let db = chain_facts(&chain);
        let program = Program::parse(
            r#"
            nov30th2022(1669784400).
            valid(Chain, "TLS") :-
              leaf(Chain, Cert), \+EV(Cert), nov30th2022(T), notBefore(Cert, NB), NB < T.
            "#,
        )
        .unwrap();
        let out = CompiledProgram::compile(&program).unwrap().run(db).unwrap();
        // testutil leaves are issued ~2022-01 (not_before = T0 - YEAR/2),
        // which is before Nov 30 2022, and are not EV.
        assert!(out.contains("valid", &[Val::str(chain_id(&chain)), Val::str("TLS")]));
    }

    #[test]
    fn two_cert_chain_has_no_intermediates() {
        let pki = simple_chain("short.example");
        let chain = vec![pki.leaf, pki.root];
        let db = chain_facts(&chain);
        assert!(db.tuples("intermediate").is_empty());
        assert_eq!(db.tuples("signs").len(), 1);
    }
}
