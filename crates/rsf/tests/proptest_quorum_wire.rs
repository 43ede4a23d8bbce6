//! Property-based tests for the quorum wire encodings: every
//! `QuorumSignature` and `RotationEvent` round-trips byte-identically,
//! and no truncation or bit-flip ever panics or silently decodes back
//! to the original artifact. The quorum-endorsed (`RSF2-SIGNED`)
//! message frame and the witnessed (`RSF2-CKPT`) checkpoint frame get
//! the same treatment.

use nrslb_rsf::signing::MessageKind;
use nrslb_rsf::wire::Writer;
use nrslb_rsf::{
    Checkpoint, FeedKey, FeedTrust, QuorumAuthority, QuorumConfig, QuorumSignature, RotationEvent,
    RsfError, SignedMessage, TransparencyLog,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Hash-based keypairs are expensive; one shared authority (and one
/// rotation ceremony's worth of events) feeds every strategy.
fn authority() -> &'static QuorumAuthority {
    static AUTH: OnceLock<QuorumAuthority> = OnceLock::new();
    AUTH.get_or_init(|| {
        QuorumAuthority::from_seed([0xa5; 32], QuorumConfig { k: 2, n: 4 }, 8).unwrap()
    })
}

fn rotation_event() -> &'static RotationEvent {
    static EVENT: OnceLock<RotationEvent> = OnceLock::new();
    EVENT.get_or_init(|| {
        let mut ceremony =
            QuorumAuthority::from_seed([0xa5; 32], QuorumConfig { k: 2, n: 4 }, 8).unwrap();
        ceremony.rotate(1_234_567).unwrap()
    })
}

fn quorum_feed_key() -> &'static FeedKey {
    static KEY: OnceLock<FeedKey> = OnceLock::new();
    KEY.get_or_init(|| FeedKey::new_quorum([0xa6; 32], 10, authority()).unwrap())
}

fn flip_bit(bytes: &mut [u8], pos: usize, bit: u8) {
    let byte = pos % bytes.len();
    bytes[byte] ^= 1 << (bit % 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn quorum_signature_roundtrip_and_mutations(
        message in proptest::collection::vec(any::<u8>(), 0..64),
        cut_frac in 0usize..1000,
        flip_pos in any::<usize>(),
        flip_bit_n in any::<u8>(),
    ) {
        let sig = authority().sign(&message).unwrap();
        let bytes = sig.encode();
        let back = QuorumSignature::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.encode(), bytes.clone());
        // Every strict prefix is an error, never a panic.
        let cut = cut_frac * bytes.len() / 1000;
        prop_assert!(QuorumSignature::decode(&bytes[..cut]).is_err());
        // A bit-flip either fails to decode or decodes to a different
        // artifact — and a different artifact never verifies.
        let mut flipped = bytes.clone();
        flip_bit(&mut flipped, flip_pos, flip_bit_n);
        if let Ok(mutated) = QuorumSignature::decode(&flipped) {
            prop_assert_ne!(mutated.encode(), bytes);
            prop_assert!(authority().trust().verify(&message, &mutated).is_err());
        }
    }

    #[test]
    fn rotation_event_roundtrip_and_mutations(
        cut_frac in 0usize..1000,
        flip_pos in any::<usize>(),
        flip_bit_n in any::<u8>(),
    ) {
        let bytes = rotation_event().encode();
        let back = RotationEvent::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.encode(), bytes.clone());
        let cut = cut_frac * bytes.len() / 1000;
        prop_assert!(RotationEvent::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        flip_bit(&mut flipped, flip_pos, flip_bit_n);
        if let Ok(mutated) = RotationEvent::decode(&flipped) {
            prop_assert_ne!(mutated.encode(), bytes.clone());
            // A mutated ceremony must not advance a pinned trust.
            let mut trust = authority().trust();
            if let Ok(applied) = trust.apply_rotation(&mutated) {
                // Only an epoch-field mutation can make application a
                // no-op; genuine application of a damaged event is
                // forbidden.
                prop_assert!(!applied, "tampered rotation event applied");
            }
        }
    }

    #[test]
    fn quorum_endorsed_message_roundtrip_and_mutations(
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        cut_frac in 0usize..1000,
        flip_pos in any::<usize>(),
        flip_bit_n in any::<u8>(),
    ) {
        let trust = FeedTrust::quorum(authority().trust());
        let signed = quorum_feed_key().sign(MessageKind::Delta, &payload).unwrap();
        let bytes = signed.encode();
        // Sanity: the RSF2-SIGNED frame decodes and verifies.
        SignedMessage::decode(&bytes).unwrap().verify(&trust).unwrap();
        let cut = cut_frac * bytes.len() / 1000;
        prop_assert!(SignedMessage::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        flip_bit(&mut flipped, flip_pos, flip_bit_n);
        if let Ok(mutated) = SignedMessage::decode(&flipped) {
            prop_assert!(mutated.verify(&trust).is_err());
        }
    }

    #[test]
    fn witnessed_checkpoint_roundtrip_and_mutations(
        payloads in proptest::collection::vec(any::<u64>(), 1..5),
        cut_frac in 0usize..1000,
        flip_pos in any::<usize>(),
        flip_bit_n in any::<u8>(),
    ) {
        let key = quorum_feed_key();
        let mut log = TransparencyLog::new();
        for p in &payloads {
            let m = key.sign(MessageKind::Delta, &p.to_le_bytes()).unwrap();
            log.append(&m);
        }
        let ckpt = log.checkpoint(key, authority()).unwrap();
        let bytes = ckpt.encode();
        let back = Checkpoint::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.encode(), bytes.clone());
        let cut = cut_frac * bytes.len() / 1000;
        prop_assert!(Checkpoint::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        flip_bit(&mut flipped, flip_pos, flip_bit_n);
        if let Ok(mutated) = Checkpoint::decode(&flipped) {
            prop_assert_ne!(mutated.encode(), bytes);
        }
    }
}

/// Garbage that is not even a frame: wrong magic, empty input, random
/// noise — typed errors, never panics.
#[test]
fn garbage_inputs_are_typed_errors() {
    assert!(QuorumSignature::decode(&[]).is_err());
    assert!(RotationEvent::decode(&[]).is_err());
    assert!(QuorumSignature::decode(b"RSF1-ROT\x00\x00").is_err());
    assert!(RotationEvent::decode(b"RSF1-QSIG\x00\x00").is_err());
    let noise: Vec<u8> = (0..257u16)
        .map(|i| (i.wrapping_mul(83) >> 2) as u8)
        .collect();
    assert!(QuorumSignature::decode(&noise).is_err());
    assert!(RotationEvent::decode(&noise).is_err());
}

/// A witnessed (`RSF2-CKPT`) frame cut off before its witness field is
/// a truncated frame, not an unwitnessed checkpoint.
#[test]
fn checkpoint_without_its_witness_fails_to_decode() {
    let key = quorum_feed_key();
    let mut log = TransparencyLog::new();
    log.append(&key.sign(MessageKind::Delta, b"m").unwrap());
    let ckpt = log.checkpoint(key, authority()).unwrap();
    let mut w = Writer::new();
    w.put_str("RSF2-CKPT")
        .put_u64(ckpt.size)
        .put_bytes(ckpt.root.as_bytes())
        .put_bytes(&ckpt.signature.to_bytes());
    let cut = w.finish();
    assert!(ckpt.encode().starts_with(&cut), "the cut is a prefix");
    match Checkpoint::decode(&cut) {
        Err(RsfError::Decode {
            artifact: "checkpoint",
            field: "witness",
            ..
        }) => {}
        other => panic!("expected a decode error at the witness, got {other:?}"),
    }
}
