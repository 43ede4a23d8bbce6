//! Integration: the full paper pipeline across crates — primary store
//! with GCCs → signed root-store feed → derivative store → GCC-aware
//! validation in all three deployment modes.

use nrslb::core::daemon::{ephemeral_socket_path, TrustDaemon};
use nrslb::core::{Usage, ValidationMode, Validator};
use nrslb::incidents::catalog::{symantec, JUNE_1ST_2016};
use nrslb::incidents::pki::{intermediate_ca, leaf, root_ca, NOW_2017};
use nrslb::rootstore::{Gcc, GccMetadata, RootStore};
use nrslb::rsf::{FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig, Subscriber};
use std::sync::Arc;

/// A 2-of-3 quorum-governed feed of `primary` and a derivative `name`
/// pinning the quorum. Each signer signs the endorsement and one
/// checkpoint witness per sync; these tests sync once.
fn quorum_feed(seed: u8, primary: &RootStore, name: &str) -> (FeedPublisher, Subscriber) {
    let authority = QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 2).unwrap();
    let derivative = Subscriber::builder(name, FeedTrust::quorum(authority.trust())).build();
    let feed_key = FeedKey::new_quorum([seed + 1; 32], 4, &authority).unwrap();
    let publisher = FeedPublisher::new_quorum("nss", feed_key, authority, primary, 0).unwrap();
    (publisher, derivative)
}

/// The headline flow: a primary expresses partial distrust as a GCC,
/// distributes it over a signed feed, and a derivative's validator
/// enforces it — no hard-coded browser logic anywhere.
#[test]
fn partial_distrust_travels_from_primary_to_derivative_clients() {
    // -- Primary side: Symantec-style incident response --
    let root = root_ca("E2E Symantec Root", 0x70);
    let normal_int = intermediate_ca("E2E Symantec Issuing", 0x71, &root);
    let exempt_int = intermediate_ca("E2E Apple IST", 0x72, &root);

    let mut primary = RootStore::new("nss");
    primary.add_trusted(root.cert.clone()).unwrap();
    let gcc = Gcc::parse(
        "symantec-partial-distrust",
        root.cert.fingerprint(),
        &symantec::listing_2_source(&exempt_int.cert.fingerprint().to_hex()),
        GccMetadata {
            justification: "gradual Symantec distrust".into(),
            discussion_url: "https://wiki.mozilla.org/CA/Symantec_Issues".into(),
            created_at: NOW_2017,
        },
    )
    .unwrap();
    primary.attach_gcc(gcc).unwrap();

    // -- Distribution: signed feed, hourly-poll derivative --
    let (mut publisher, mut derivative) = quorum_feed(0x73, &primary, "debian");
    let report = derivative.sync(&mut publisher, 0).unwrap();
    assert!(report.snapshot_applied);

    // The GCC arrived intact.
    let received = derivative.store().gccs_for(&root.cert.fingerprint());
    assert_eq!(received.len(), 1);
    assert_eq!(received[0].name(), "symantec-partial-distrust");

    // -- Client side: validate chains with the derivative's store --
    let old_leaf = leaf(
        "old.example",
        &normal_int,
        JUNE_1ST_2016 - 1_000_000,
        4_000_000_000,
    );
    let new_leaf = leaf("new.example", &normal_int, NOW_2017, 4_000_000_000);
    let apple_leaf = leaf("apple.example", &exempt_int, NOW_2017, 4_000_000_000);
    let at = NOW_2017 + 10_000_000;

    let validator = Validator::new(derivative.store().clone(), ValidationMode::UserAgent);
    let ok = |leaf: &nrslb::x509::Certificate, int: &nrslb::x509::Certificate| {
        validator
            .validate(leaf, std::slice::from_ref(int), Usage::Tls, at)
            .unwrap()
            .accepted()
    };
    assert!(ok(&old_leaf, &normal_int.cert), "pre-2016 leaf stays valid");
    assert!(!ok(&new_leaf, &normal_int.cert), "new leaf is rejected");
    assert!(
        ok(&apple_leaf, &exempt_int.cert),
        "exempt intermediate passes"
    );
}

/// The three deployment modes (§3.1) must agree on accept/reject across
/// a matrix of chains, usages and times.
#[test]
fn deployment_modes_agree() {
    let scenario = symantec::scenario();
    let store = scenario.store.clone();

    let ua = Validator::new(store.clone(), ValidationMode::UserAgent);
    let daemon = TrustDaemon::builder()
        .socket(ephemeral_socket_path("e2e"))
        .spawn(store.clone())
        .unwrap();
    let platform = Validator::new(
        store.clone(),
        ValidationMode::Platform(Arc::new(daemon.client())),
    );
    let hammurabi = Validator::new(store, ValidationMode::Hammurabi);

    let cases = scenario.legitimate.iter().chain(&scenario.attacks);
    for case in cases {
        for usage in [Usage::Tls, Usage::SMime] {
            for dt in [0i64, 400_000_000] {
                let at = case.at + dt;
                let a = ua
                    .validate(&case.leaf, &case.intermediates, usage, at)
                    .unwrap()
                    .accepted();
                let b = platform
                    .validate(&case.leaf, &case.intermediates, usage, at)
                    .unwrap()
                    .accepted();
                let c = hammurabi
                    .validate(&case.leaf, &case.intermediates, usage, at)
                    .unwrap()
                    .accepted();
                assert_eq!(
                    a, b,
                    "{}: user-agent vs platform ({usage}, {at})",
                    case.label
                );
                assert_eq!(
                    a, c,
                    "{}: user-agent vs hammurabi ({usage}, {at})",
                    case.label
                );
            }
        }
    }
}

/// Every incident's GCC behaves identically under all three modes.
#[test]
fn incident_catalog_cross_mode_parity() {
    for spec in nrslb::incidents::all_incidents() {
        let scenario = (spec.build)();
        let ua = Validator::new(scenario.store.clone(), ValidationMode::UserAgent);
        let ham = Validator::new(scenario.store.clone(), ValidationMode::Hammurabi);
        for case in scenario.legitimate.iter().chain(&scenario.attacks) {
            let a = ua
                .validate(&case.leaf, &case.intermediates, case.usage, case.at)
                .unwrap()
                .accepted();
            let b = ham
                .validate(&case.leaf, &case.intermediates, case.usage, case.at)
                .unwrap()
                .accepted();
            assert_eq!(a, b, "{}: {}", spec.id, case.label);
        }
    }
}

/// Systematic constraints compiled to GCCs (paper §3: "Mozilla could
/// write a similar GCC for every root in NSS") enforce the same policy
/// as the built-in store fields.
#[test]
fn systematic_constraints_equal_their_gcc_compilation() {
    let root = root_ca("E2E Sys Root", 0x76);
    let int = intermediate_ca("E2E Sys Int", 0x77, &root);
    let cutoff = 1_600_000_000i64;

    // Store A: native systematic constraint fields.
    let mut native = RootStore::new("native");
    native.add_trusted(root.cert.clone()).unwrap();
    native
        .record_mut(&root.cert.fingerprint())
        .unwrap()
        .tls_distrust_after = Some(cutoff);

    // Store B: the compiled GCC instead.
    let mut compiled = RootStore::new("compiled");
    compiled.add_trusted(root.cert.clone()).unwrap();
    let gcc = native
        .record(&root.cert.fingerprint())
        .unwrap()
        .systematic_gcc()
        .expect("record is constrained");
    compiled.attach_gcc(gcc).unwrap();

    let va = Validator::new(native, ValidationMode::UserAgent);
    let vb = Validator::new(compiled, ValidationMode::UserAgent);
    for nb in [cutoff - 5_000_000, cutoff + 5_000_000] {
        let l = leaf("sys.example", &int, nb, 4_000_000_000);
        let at = cutoff + 10_000_000;
        let a = va
            .validate(&l, std::slice::from_ref(&int.cert), Usage::Tls, at)
            .unwrap()
            .accepted();
        let b = vb
            .validate(&l, std::slice::from_ref(&int.cert), Usage::Tls, at)
            .unwrap()
            .accepted();
        assert_eq!(a, b, "notBefore {nb}");
        assert_eq!(a, nb < cutoff);
    }
}

/// Feeds carry certificates as DER: a derivative materializes
/// byte-identical certificates (fingerprints survive the round trip,
/// which matters because GCCs attach by fingerprint).
#[test]
fn feed_roundtrip_preserves_fingerprints() {
    let pki = nrslb::x509::testutil::simple_chain("fingerprint.example");
    let mut primary = RootStore::new("nss");
    primary.add_trusted(pki.root.clone()).unwrap();

    let (mut publisher, mut sub) = quorum_feed(0x78, &primary, "sub");
    sub.sync(&mut publisher, 0).unwrap();
    let rec = sub.store().record(&pki.root.fingerprint()).unwrap();
    assert_eq!(rec.cert.to_der(), pki.root.to_der());
}
