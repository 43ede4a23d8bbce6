//! Taint propagation through subscriber ingest: a delta contributes its
//! precise blast radius (roots, GCC source hashes, issuer SPKIs — old
//! and new state both), a snapshot contributes full taint, and both
//! flow through the same accumulator drained by `take_taint`.

use nrslb_crypto::sha256::sha256;
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_rsf::signing::MessageKind;
use nrslb_rsf::{
    Delta, FeedKey, FeedTrust, QuorumAuthority, QuorumConfig, Snapshot, Subscriber, SyncEvent,
};
use nrslb_x509::testutil::simple_chain;

const GCC_SRC: &str = "valid(Chain, _) :- leaf(Chain, _).";

/// The 2-of-3 coordinating body; it only endorses the feed key here.
fn authority() -> QuorumAuthority {
    QuorumAuthority::from_seed([0x5a; 32], QuorumConfig { k: 2, n: 3 }, 2).expect("quorum")
}

fn trust() -> FeedTrust {
    FeedTrust::quorum(authority().trust())
}

#[test]
fn taint_flows_precisely_for_deltas_and_fully_for_snapshots() {
    let key = FeedKey::new_quorum([0x5b; 32], 10, &authority()).expect("feed key");
    let mut subscriber = Subscriber::builder("derivative", trust()).build();
    assert!(
        subscriber.pending_taint().is_empty(),
        "fresh subscriber has no taint"
    );

    // --- Bootstrap snapshot: everything is (vacuously) tainted. ---
    let root_a = simple_chain("taint-a.example").root;
    let mut truth = RootStore::new("primary");
    truth.add_trusted(root_a.clone()).unwrap();
    let gcc_a = Gcc::parse(
        "a-policy",
        root_a.fingerprint(),
        GCC_SRC,
        GccMetadata::default(),
    )
    .expect("gcc");
    truth.attach_gcc(gcc_a).unwrap();

    let snap = Snapshot::capture("primary", 1, 10, &truth);
    let msg = key.sign(MessageKind::Snapshot, &snap.encode()).unwrap();
    let event = subscriber.ingest(&msg).expect("bootstrap snapshot");
    assert!(matches!(event, SyncEvent::SnapshotApplied { sequence: 1 }));
    assert!(subscriber.pending_taint().is_full());

    // Draining resets the accumulator.
    assert!(subscriber.take_taint().is_full());
    assert!(subscriber.pending_taint().is_empty());

    // --- Delta: add root B (with a GCC), distrust root A. The taint
    // must name both roots, both GCC attachments (B's new one AND A's
    // pre-existing one, read from the pre-image store), and both
    // issuer SPKIs — and nothing suggests full invalidation. ---
    let root_b = simple_chain("taint-b.example").root;
    let mut next = truth.clone();
    next.add_trusted(root_b.clone()).unwrap();
    let gcc_b = Gcc::parse(
        "b-policy",
        root_b.fingerprint(),
        GCC_SRC,
        GccMetadata::default(),
    )
    .expect("gcc");
    next.attach_gcc(gcc_b).unwrap();
    next.distrust(root_a.fingerprint(), "taint test incident");

    let delta = Delta::between(&truth, &next, 1, 2, 20);
    let msg = key.sign(MessageKind::Delta, &delta.encode()).unwrap();
    let event = subscriber.ingest(&msg).expect("delta");
    assert!(matches!(event, SyncEvent::DeltaApplied { sequence: 2 }));

    let taint = subscriber.take_taint();
    assert!(!taint.is_full(), "a delta must not escalate to full taint");
    assert!(
        taint.roots().contains(&root_b.fingerprint()),
        "upserted root tainted"
    );
    assert!(
        taint.roots().contains(&root_a.fingerprint()),
        "distrusted root tainted"
    );
    assert!(
        taint.gcc_sources().contains(&sha256(GCC_SRC.as_bytes())),
        "GCC source hashes tainted"
    );
    assert!(
        taint
            .issuer_spkis()
            .contains(&root_b.public_key().fingerprint()),
        "new root's SPKI tainted"
    );
    assert!(
        taint
            .issuer_spkis()
            .contains(&root_a.public_key().fingerprint()),
        "old record's SPKI tainted via the pre-image store"
    );
    let unrelated = simple_chain("taint-unrelated.example").root;
    assert!(
        !taint.contains(&unrelated.fingerprint()),
        "untouched identities stay clean"
    );

    // --- Replayed (already-current) messages add no taint. ---
    let replay = key.sign(MessageKind::Delta, &delta.encode()).unwrap();
    assert!(matches!(
        subscriber.ingest(&replay).expect("replay is benign"),
        SyncEvent::AlreadyCurrent { .. }
    ));
    assert!(subscriber.pending_taint().is_empty());

    // --- Snapshot fallback after having state: full taint again,
    // through the same accumulator (shared invalidation path). ---
    let snap = Snapshot::capture("primary", 5, 30, &next);
    let msg = key.sign(MessageKind::Snapshot, &snap.encode()).unwrap();
    subscriber.ingest(&msg).expect("fallback snapshot");
    assert!(subscriber.pending_taint().is_full());
    assert_eq!(subscriber.counters().snapshot_fallbacks, 1);
}
