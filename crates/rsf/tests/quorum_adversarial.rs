//! Adversarial acceptance tests for the k-of-n quorum layer: a
//! checkpoint backed by fewer than `k` partial signatures is rejected,
//! a forged partial (rogue key or signer substitution) is rejected, and
//! a partial minted before a share rotation is rejected once the
//! rotation has flowed through the transparency log — all as
//! *retryable* signature failures that never quarantine the honest
//! subscriber.

use nrslb_crypto::hbs::Keypair;
use nrslb_crypto::sha256::sha256;
use nrslb_rootstore::RootStore;
use nrslb_rsf::wire::Writer;
use nrslb_rsf::{
    Checkpoint, FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig, QuorumSignature,
    RsfError, SignedMessage, Subscriber, SyncState,
};
use nrslb_x509::testutil::simple_chain;

const QUORUM_SEED: [u8; 32] = [0x9a; 32];
const CONFIG: QuorumConfig = QuorumConfig { k: 2, n: 3 };

fn authority() -> QuorumAuthority {
    QuorumAuthority::from_seed(QUORUM_SEED, CONFIG, 6).expect("authority")
}

/// A quorum-governed publisher over a one-root truth store, plus a
/// subscriber already synced against it.
fn synced_pair() -> (RootStore, FeedPublisher, Subscriber) {
    let authority = authority();
    let trust = FeedTrust::quorum(authority.trust());
    let key = FeedKey::new_quorum([0x9b; 32], 10, &authority).expect("feed key");
    let mut truth = RootStore::new("primary");
    truth
        .add_trusted(simple_chain("quorum-seed.example").root)
        .unwrap();
    let mut publisher =
        FeedPublisher::new_quorum("primary", key, authority, &truth, 0).expect("publisher");
    let mut subscriber = Subscriber::builder("derivative", trust).build();
    subscriber.sync(&mut publisher, 10).expect("honest sync");
    assert_eq!(subscriber.sequence(), publisher.sequence());
    (truth, publisher, subscriber)
}

fn expect_bad_signature(result: Result<impl std::fmt::Debug, RsfError>, needle: &str) {
    match result {
        Err(RsfError::BadSignature(s)) => {
            assert_eq!(s, needle, "wrong rejection: got {s:?}, want {needle:?}")
        }
        other => panic!("expected BadSignature({needle:?}), got {other:?}"),
    }
}

#[test]
fn sub_quorum_checkpoint_rejected() {
    let (mut truth, mut publisher, mut subscriber) = synced_pair();
    // Grow the feed so the forged checkpoint is not the one already
    // pinned (idle re-polls skip verification by design).
    truth.distrust(sha256(b"incident"), "incident");
    publisher.publish(&truth, 20).expect("publish");
    let messages: Vec<_> = publisher
        .fetch(subscriber.sequence())
        .into_iter()
        .cloned()
        .collect();
    let mut forged = publisher.checkpoint().expect("checkpoint");
    // The compromised minority re-witnesses the checkpoint with k-1
    // partials (signer state rebuilt from the leaked derivation).
    let minority = authority();
    let witness = minority
        .sign_with(&[0], &forged.encode())
        .expect("minority witness");
    forged.witness = witness;
    expect_bad_signature(
        subscriber.poll(messages.clone(), forged, None, 20),
        "sub-quorum signature",
    );
    assert!(
        !matches!(subscriber.state(), SyncState::Quarantined { .. }),
        "sub-quorum forgery must be retryable, not a quarantine"
    );
    // The honest feed still syncs afterwards.
    subscriber.sync(&mut publisher, 30).expect("recovery sync");
    assert_eq!(subscriber.sequence(), publisher.sequence());
}

#[test]
fn unwitnessed_checkpoint_rejected_on_quorum_feed() {
    let (mut truth, mut publisher, mut subscriber) = synced_pair();
    truth.distrust(sha256(b"incident"), "incident");
    publisher.publish(&truth, 20).expect("publish");
    let messages: Vec<_> = publisher
        .fetch(subscriber.sequence())
        .into_iter()
        .cloned()
        .collect();
    // An empty witness: no signer claimed, at the current epoch.
    let mut forged = publisher.checkpoint().expect("checkpoint");
    forged.witness = QuorumSignature {
        epoch: forged.witness.epoch,
        bitmap: 0,
        partials: Vec::new(),
    };
    expect_bad_signature(
        subscriber.poll(messages, forged, None, 20),
        "sub-quorum signature",
    );
    assert!(!matches!(subscriber.state(), SyncState::Quarantined { .. }));
}

#[test]
fn forged_partial_rejected() {
    let authority = authority();
    let trust = authority.trust();
    let message = b"checkpoint bytes under attack";

    // Rogue-key forgery: a full-size bitmap where one partial comes
    // from a key the attacker generated.
    let mut rogue_key = Keypair::from_seed(*sha256(b"rogue").as_bytes(), 6).expect("rogue key");
    let mut forged = authority.sign_with(&[0], message).expect("partial");
    forged.bitmap |= 1 << 1;
    forged
        .partials
        .push(rogue_key.sign(message).expect("rogue partial"));
    expect_bad_signature(trust.verify(message, &forged), "invalid quorum partial");

    // Signer substitution: signer 2's honest partial presented under
    // signer 1's identity (the epoch/id binding must catch it).
    let mut swapped = authority.sign_with(&[0, 1], message).expect("quorum");
    swapped.partials[1] = authority.partial(2, message).expect("partial 2");
    expect_bad_signature(trust.verify(message, &swapped), "invalid quorum partial");

    // Structural forgeries around the bitmap.
    let mut unknown = authority.sign_with(&[0, 1], message).expect("quorum");
    unknown.bitmap |= 1 << CONFIG.n;
    expect_bad_signature(trust.verify(message, &unknown), "unknown quorum signer id");

    let mut miscounted = authority.sign_with(&[0, 1], message).expect("quorum");
    miscounted.partials.pop();
    expect_bad_signature(
        trust.verify(message, &miscounted),
        "quorum partial count mismatch",
    );
}

#[test]
fn pre_rotation_witness_rejected_after_rotation() {
    let (mut truth, mut publisher, mut subscriber) = synced_pair();
    // Capture an honestly-witnessed epoch-1 checkpoint, then rotate.
    let stale = publisher.checkpoint().expect("epoch-1 checkpoint");
    let event = publisher.rotate(100).expect("rotation").clone();
    assert_eq!(event.to_epoch, 2);
    // The rotation flows through the feed: the next sync applies it.
    subscriber.sync(&mut publisher, 110).expect("sync");
    assert_eq!(subscriber.counters().rotations_applied, 1);
    assert_eq!(subscriber.trust().pinned().epoch, 2);
    // Replaying the retired epoch's witness is a signature failure,
    // not a split view — even though the stale checkpoint also rolls
    // the log back.
    expect_bad_signature(
        subscriber.poll(Vec::new(), stale, None, 120),
        "quorum epoch mismatch",
    );
    assert!(!matches!(subscriber.state(), SyncState::Quarantined { .. }));
    // And the post-rotation feed keeps working.
    truth.distrust(sha256(b"post-rotation incident"), "incident");
    publisher.publish(&truth, 130).expect("publish");
    subscriber
        .sync(&mut publisher, 140)
        .expect("post-rotation sync");
    assert_eq!(subscriber.sequence(), publisher.sequence());
}

#[test]
fn rotation_event_is_idempotent_and_tamper_evident() {
    let authority = authority();
    let mut trust = authority.trust();
    let mut ceremony = QuorumAuthority::from_seed(QUORUM_SEED, CONFIG, 6).expect("authority");
    let event = ceremony.rotate(50).expect("rotation");

    assert!(trust.apply_rotation(&event).expect("first application"));
    assert_eq!(trust.epoch, 2);
    // Redelivery (every fetch serves the full rotation history) is
    // benign.
    assert!(!trust.apply_rotation(&event).expect("redelivery"));
    assert_eq!(trust.epoch, 2);

    // A tampered incoming signer set breaks the outgoing quorum's
    // approval.
    let fresh = authority.trust();
    let mut tampered = event.clone();
    tampered.new_signers.swap(0, 1);
    let mut victim = fresh.clone();
    assert!(victim.apply_rotation(&tampered).is_err());

    // Skipping an epoch is rejected.
    let mut skipped = event.clone();
    skipped.from_epoch = 2;
    skipped.to_epoch = 3;
    let mut victim = fresh.clone();
    victim.epoch = 2;
    assert!(victim.apply_rotation(&skipped).is_err());
}

/// Asserts `result` is the decoder's bad-magic error for `artifact`.
fn expect_bad_magic<T: std::fmt::Debug>(result: Result<T, RsfError>, artifact: &str) {
    match result {
        Err(RsfError::Decode {
            artifact: a,
            field: "magic",
            reason,
            ..
        }) if a == artifact => assert_eq!(reason, format!("bad {artifact} magic")),
        other => panic!("expected a bad {artifact} magic error, got {other:?}"),
    }
}

/// The single-signer frames the feed no longer speaks: a message
/// endorsed by one coordinator signature (`RSF1-SIGNED`) and an
/// unwitnessed checkpoint (`RSF1-CKPT`), built here in their old
/// layout from otherwise genuine parts. Both fail to decode at the
/// magic, before any field is trusted.
#[test]
fn legacy_single_signer_frames_fail_to_decode() {
    let (_, mut publisher, _) = synced_pair();
    let message = publisher.fetch(0)[0].clone();
    let lone_endorsement = &message.endorsement.partials[0];
    let mut w = Writer::new();
    w.put_str("RSF1-SIGNED")
        .put_u8(message.kind as u8)
        .put_bytes(&message.payload)
        .put_bytes(&message.feed_key.to_bytes())
        .put_bytes(&lone_endorsement.to_bytes())
        .put_bytes(&message.signature.to_bytes());
    expect_bad_magic(SignedMessage::decode(&w.finish()), "signed-message");

    let checkpoint = publisher.checkpoint().expect("checkpoint");
    let mut w = Writer::new();
    w.put_str("RSF1-CKPT")
        .put_u64(checkpoint.size)
        .put_bytes(checkpoint.root.as_bytes())
        .put_bytes(&checkpoint.signature.to_bytes());
    expect_bad_magic(Checkpoint::decode(&w.finish()), "checkpoint");
}
