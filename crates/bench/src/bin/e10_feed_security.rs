//! E10 — RSF security (paper §4 "Security" + the "immutable logs"
//! future-work item, implemented in `nrslb-rsf::translog`).
//!
//! Three adversaries against the feed channel:
//!
//! 1. **forger** — signs messages with a key a rogue quorum endorsed:
//!    rejected by the quorum-endorsement link;
//! 2. **tamperer** — flips bytes in transit: rejected by the message
//!    signature (measured: fraction of 1 000 mutations accepted);
//! 3. **equivocator** — serves a rewritten history, signed and
//!    quorum-witnessed: rejected by the transparency-log consistency
//!    proof at the *next poll* (measured: polls until detection).

use nrslb_bench::{header, maybe_write_json};
use nrslb_rootstore::RootStore;
use nrslb_rsf::signing::MessageKind;
use nrslb_rsf::translog::verify_extension;
use nrslb_rsf::{
    FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig, SignedMessage, Subscriber,
    TransparencyLog,
};
use nrslb_x509::testutil::simple_chain;
use serde::Serialize;

#[derive(Serialize)]
struct Report {
    forged_messages_accepted: usize,
    tampered_mutations_tried: usize,
    tampered_mutations_accepted: usize,
    equivocation_detected_within_polls: u32,
}

/// A 2-of-3 coordinating body. Its signers sign one endorsement and at
/// most one checkpoint witness here, within a height-2 key's four.
fn quorum_authority(seed: u8) -> QuorumAuthority {
    QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 2).unwrap()
}

fn main() {
    header(
        "E10",
        "feed-channel security: forgery, tampering, equivocation",
        "paper §4 (RSFs as critical infrastructure; immutable logs)",
    );
    let authority = quorum_authority(0xe1);
    let trust = FeedTrust::quorum(authority.trust());
    let key = FeedKey::new_quorum([0xe2; 32], 10, &authority).unwrap();

    let pki = simple_chain("e10.example");
    let mut store = RootStore::new("nss");
    store.add_trusted(pki.root.clone()).unwrap();
    let mut publisher = FeedPublisher::new_quorum("nss", key, authority, &store, 0).unwrap();
    let mut subscriber = Subscriber::builder("derivative", trust.clone()).build();
    subscriber.sync(&mut publisher, 0).unwrap();

    // 1. Forgery.
    let rogue_key = FeedKey::new_quorum([0xe4; 32], 6, &quorum_authority(0xe3)).unwrap();
    let forged = rogue_key
        .sign(MessageKind::Snapshot, b"malicious snapshot")
        .unwrap();
    let forged_accepted = usize::from(forged.verify(&trust).is_ok());
    println!("forged messages accepted:        {forged_accepted}/1");

    // 2. Tampering: mutate a legitimate signed message 1000 ways.
    store.distrust(pki.root.fingerprint(), "incident");
    publisher.publish(&store, 100).unwrap();
    let legit = publisher.fetch(1)[0].encode();
    let mut state = 0xe10u64;
    let mut tried = 0usize;
    let mut accepted = 0usize;
    for _ in 0..1_000 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut mutated = legit.clone();
        let idx = (state >> 20) as usize % mutated.len();
        let bit = 1u8 << ((state >> 9) % 8);
        mutated[idx] ^= bit;
        tried += 1;
        if let Ok(msg) = SignedMessage::decode(&mutated) {
            if msg.verify(&trust).is_ok() && msg.encode() != legit {
                accepted += 1;
            }
        }
    }
    println!("tampered mutations accepted:     {accepted}/{tried}");

    // 3. Equivocation: the publisher serves the subscriber a rewritten
    // log. Simulated directly against the checkpoint API: the subscriber
    // pinned the honest checkpoint; the equivocator — the publisher,
    // holding the same feed key and quorum material — presents a forked,
    // fully witnessed history of greater size with a "valid-looking"
    // proof.
    let honest_checkpoint = subscriber.pinned_checkpoint().unwrap().clone();
    let fork_authority = quorum_authority(0xe1);
    let fork_key = FeedKey::new_quorum([0xe2; 32], 10, &fork_authority).unwrap();
    let mut forked = TransparencyLog::new();
    for i in 0..3 {
        let m = fork_key
            .sign(MessageKind::Delta, format!("rewritten {i}").as_bytes())
            .unwrap();
        forked.append(&m);
    }
    let fork_checkpoint = forked.checkpoint(&fork_key, &fork_authority).unwrap();
    let fork_proof = forked.prove_consistency(honest_checkpoint.size, fork_checkpoint.size);
    let mut detected_at = 0u32;
    for poll in 1..=3u32 {
        let result = verify_extension(
            Some(&honest_checkpoint),
            &fork_checkpoint,
            fork_proof.as_ref(),
            &fork_key.public(),
            &trust,
        );
        if result.is_err() {
            detected_at = poll;
            break;
        }
    }
    println!("equivocation detected at poll:   {detected_at} (1 = first poll after fork)");

    assert_eq!(forged_accepted, 0);
    assert_eq!(accepted, 0);
    assert_eq!(detected_at, 1);
    println!("\nall three adversaries defeated: the feed channel needs no");
    println!("transport security beyond the signatures + transparency log.");
    maybe_write_json(&Report {
        forged_messages_accepted: forged_accepted,
        tampered_mutations_tried: tried,
        tampered_mutations_accepted: accepted,
        equivocation_detected_within_polls: detected_at,
    });
}
