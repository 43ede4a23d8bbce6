//! Edge-case coverage for the validator that unit tests don't reach:
//! failures at every chain position, the leading-dot semantics knob,
//! concurrent daemon clients, and feed-driven policy retraction.

use nrslb::core::daemon::{ephemeral_socket_path, TrustDaemon};
use nrslb::core::validate::ValidatorConfig;
use nrslb::core::{RejectReason, Usage, ValidationMode, Validator};
use nrslb::rootstore::{Gcc, GccMetadata, RootStore};
use nrslb::rsf::{FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig, Subscriber};
use nrslb::x509::builder::{CaKey, CertificateBuilder};
use nrslb::x509::extensions::NameConstraints;
use nrslb::x509::name::DotSemantics;
use nrslb::x509::DistinguishedName;
use std::sync::Arc;

#[test]
fn expiry_reported_at_each_chain_position() {
    // Build a chain where each certificate has a distinct expiry, then
    // validate at times where exactly one has lapsed.
    let root_key = CaKey::generate_for_tests("Edge Root", 0xb0);
    let int_key = CaKey::generate_for_tests("Edge Int", 0xb1);
    // The validator reports the first expired certificate scanning from
    // the leaf, so expiries are staggered root-first: root at 2 000,
    // intermediate at 2 500, leaf at 3 000.
    let root = CertificateBuilder::new()
        .validity_window(0, 2_000)
        .ca(None)
        .build_self_signed(&root_key)
        .unwrap();
    let int = CertificateBuilder::new()
        .subject(int_key.name().clone())
        .subject_key(int_key.public())
        .validity_window(0, 2_500)
        .ca(Some(0))
        .build_signed_by(&root_key)
        .unwrap();
    let leaf = CertificateBuilder::new()
        .subject(DistinguishedName::common_name("edge.example"))
        .dns_names(&["edge.example"])
        .validity_window(0, 3_000)
        .build_signed_by(&int_key)
        .unwrap();
    let mut store = RootStore::new("edges");
    store.add_trusted(root).unwrap();
    let v = Validator::new(store, ValidationMode::UserAgent);

    let pool = [int];
    let at = |t: i64| v.validate(&leaf, &pool, Usage::Tls, t).unwrap();
    assert!(at(1_000).accepted());
    assert_eq!(
        at(2_200).final_reason(),
        Some(&RejectReason::Expired { index: 2 })
    );
    assert_eq!(
        at(2_600).final_reason(),
        Some(&RejectReason::Expired { index: 1 })
    );
    assert_eq!(
        at(3_500).final_reason(),
        Some(&RejectReason::Expired { index: 0 })
    );
}

#[test]
fn dot_semantics_knob_changes_verdicts() {
    // A name-constrained intermediate with a dotted base: under RFC 5280
    // semantics the apex name matches; under the stricter reading only
    // proper subdomains do — the exact Firefox/OpenSSL discrepancy the
    // paper cites (§5.1).
    let root_key = CaKey::generate_for_tests("Dot Root", 0xb2);
    let int_key = CaKey::generate_for_tests("Dot Int", 0xb3);
    let root = CertificateBuilder::new()
        .validity_window(0, 4_000_000_000)
        .ca(None)
        .build_self_signed(&root_key)
        .unwrap();
    let int = CertificateBuilder::new()
        .subject(int_key.name().clone())
        .subject_key(int_key.public())
        .validity_window(0, 4_000_000_000)
        .ca(Some(0))
        .name_constraints(NameConstraints::permit(&[".corp.example"]))
        .build_signed_by(&root_key)
        .unwrap();
    let apex = CertificateBuilder::new()
        .subject(DistinguishedName::common_name("corp.example"))
        .dns_names(&["corp.example"])
        .validity_window(0, 4_000_000_000)
        .build_signed_by(&int_key)
        .unwrap();
    let sub = CertificateBuilder::new()
        .subject(DistinguishedName::common_name("www.corp.example"))
        .dns_names(&["www.corp.example"])
        .validity_window(0, 4_000_000_000)
        .build_signed_by(&int_key)
        .unwrap();
    let mut store = RootStore::new("dots");
    store.add_trusted(root).unwrap();
    let pool = [int];

    for (semantics, apex_ok) in [
        (DotSemantics::Rfc5280, true),
        (DotSemantics::RequireSubdomain, false),
    ] {
        let v =
            Validator::new(store.clone(), ValidationMode::UserAgent).with_config(ValidatorConfig {
                dot_semantics: semantics,
                ..Default::default()
            });
        assert_eq!(
            v.validate(&apex, &pool, Usage::Tls, 1_000)
                .unwrap()
                .accepted(),
            apex_ok,
            "{semantics:?} apex"
        );
        assert!(
            v.validate(&sub, &pool, Usage::Tls, 1_000)
                .unwrap()
                .accepted(),
            "{semantics:?} subdomain always allowed"
        );
    }
}

#[test]
fn daemon_serves_concurrent_clients() {
    let pki = nrslb::x509::testutil::simple_chain("concurrent.example");
    let mut store = RootStore::new("platform");
    store.add_trusted(pki.root.clone()).unwrap();
    store
        .attach_gcc(
            Gcc::parse(
                "tls-only",
                pki.root.fingerprint(),
                r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
                GccMetadata::default(),
            )
            .unwrap(),
        )
        .unwrap();
    let daemon = TrustDaemon::builder()
        .socket(ephemeral_socket_path("concurrent"))
        .spawn(store.clone())
        .unwrap();

    let mut handles = Vec::new();
    for t in 0..8 {
        let client = daemon.client();
        let store = store.clone();
        let leaf = pki.leaf.clone();
        let int = pki.intermediate.clone();
        let now = pki.now;
        handles.push(std::thread::spawn(move || {
            let validator = Validator::new(store, ValidationMode::Platform(Arc::new(client)));
            for i in 0..5 {
                let tls = validator
                    .validate(&leaf, std::slice::from_ref(&int), Usage::Tls, now)
                    .unwrap();
                assert!(tls.accepted(), "thread {t} iter {i}");
                let smime = validator
                    .validate(&leaf, std::slice::from_ref(&int), Usage::SMime, now)
                    .unwrap();
                assert!(!smime.accepted(), "thread {t} iter {i} smime");
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread");
    }
}

/// A 2-of-3 quorum-governed feed of `primary` and a derivative pinning
/// the quorum. Each signer signs the endorsement and one checkpoint
/// witness per published change the derivative syncs: two here.
fn quorum_feed(seed: u8, primary: &RootStore) -> (FeedPublisher, Subscriber) {
    let authority = QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 2).unwrap();
    let derivative =
        Subscriber::builder("derivative", FeedTrust::quorum(authority.trust())).build();
    let key = FeedKey::new_quorum([seed + 1; 32], 8, &authority).unwrap();
    let publisher = FeedPublisher::new_quorum("nss", key, authority, primary, 0).unwrap();
    (publisher, derivative)
}

#[test]
fn feed_retracts_gcc_and_derivative_follows() {
    let pki = nrslb::x509::testutil::simple_chain("retract.example");
    let mut primary = RootStore::new("nss");
    primary.add_trusted(pki.root.clone()).unwrap();
    let gcc = Gcc::parse(
        "temporary-block",
        pki.root.fingerprint(),
        r#"valid(Chain, "never") :- leaf(Chain, _)."#,
        GccMetadata::default(),
    )
    .unwrap();
    primary.attach_gcc(gcc.clone()).unwrap();

    let (mut publisher, mut derivative) = quorum_feed(0xb4, &primary);
    derivative.sync(&mut publisher, 0).unwrap();
    // Derivative clients reject everything under the root.
    let check = |store: &RootStore| {
        Validator::new(store.clone(), ValidationMode::UserAgent)
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                pki.now,
            )
            .unwrap()
            .accepted()
    };
    assert!(!check(derivative.store()));

    // The primary retracts the GCC (incident resolved); the derivative
    // picks it up on the next poll and clients recover.
    primary.detach_gcc(&pki.root.fingerprint(), &gcc.source_hash());
    publisher.publish(&primary, 100).unwrap();
    let report = derivative.sync(&mut publisher, 0).unwrap();
    assert_eq!(report.deltas_applied, 1);
    assert!(derivative
        .store()
        .gccs_for(&pki.root.fingerprint())
        .is_empty());
    assert!(check(derivative.store()));
}

#[test]
fn systematic_constraint_change_propagates() {
    let pki = nrslb::x509::testutil::simple_chain("sysprop.example");
    let mut primary = RootStore::new("nss");
    primary.add_trusted(pki.root.clone()).unwrap();

    let (mut publisher, mut derivative) = quorum_feed(0xb6, &primary);
    derivative.sync(&mut publisher, 0).unwrap();
    assert!(
        derivative
            .store()
            .record(&pki.root.fingerprint())
            .unwrap()
            .ev_allowed
    );

    // NSS flips the EV bit and sets a TLS cutoff.
    {
        let rec = primary.record_mut(&pki.root.fingerprint()).unwrap();
        rec.ev_allowed = false;
        rec.tls_distrust_after = Some(42);
    }
    publisher.publish(&primary, 100).unwrap();
    derivative.sync(&mut publisher, 0).unwrap();
    let rec = derivative.store().record(&pki.root.fingerprint()).unwrap();
    assert!(!rec.ev_allowed);
    assert_eq!(rec.tls_distrust_after, Some(42));
}
