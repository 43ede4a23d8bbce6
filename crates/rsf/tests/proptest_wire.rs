//! Property-based tests for the feed wire encodings: every
//! `Snapshot`/`Delta`/`Checkpoint` round-trips byte-identically, and no
//! truncation or bit-flip ever panics or silently decodes back to the
//! original artifact.

use nrslb_crypto::sha256::sha256;
use nrslb_rootstore::RootStore;
use nrslb_rsf::signing::MessageKind;
use nrslb_rsf::{
    Checkpoint, Delta, FeedKey, FeedTrust, QuorumAuthority, QuorumConfig, SignedMessage, Snapshot,
    TransparencyLog,
};
use nrslb_x509::testutil::simple_chain;
use nrslb_x509::Certificate;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Real certificates are expensive to mint; build a small pool once and
/// let the strategies pick subsets.
fn cert_pool() -> &'static Vec<Certificate> {
    static POOL: OnceLock<Vec<Certificate>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..3)
            .map(|i| simple_chain(&format!("prop-wire-{i}.example")).root)
            .collect()
    })
}

/// A 2-of-3 quorum and the feed key it endorsed, built once. Each
/// signer signs the endorsement and one witness per checkpoint case:
/// 33 signatures, within a height-6 key's 64.
struct Feed {
    authority: QuorumAuthority,
    key: FeedKey,
}

fn feed() -> &'static Feed {
    static FEED: OnceLock<Feed> = OnceLock::new();
    FEED.get_or_init(|| {
        let authority =
            QuorumAuthority::from_seed([0x51; 32], QuorumConfig { k: 2, n: 3 }, 6).unwrap();
        let key = FeedKey::new_quorum([0x52; 32], 10, &authority).unwrap();
        Feed { authority, key }
    })
}

#[derive(Debug, Clone)]
struct StoreSpec {
    trusted: Vec<bool>,   // which pool certs to trust
    distrusted: Vec<u64>, // synthetic incident fingerprints
}

fn store_spec() -> impl Strategy<Value = StoreSpec> {
    (
        proptest::collection::vec(any::<bool>(), 3..4),
        proptest::collection::vec(any::<u64>(), 0..4),
    )
        .prop_map(|(trusted, distrusted)| StoreSpec {
            trusted,
            distrusted,
        })
}

fn build_store(spec: &StoreSpec) -> RootStore {
    let mut store = RootStore::new("prop");
    for (i, yes) in spec.trusted.iter().enumerate() {
        if *yes {
            store.add_trusted(cert_pool()[i].clone()).unwrap();
        }
    }
    for d in &spec.distrusted {
        store.distrust(sha256(d.to_le_bytes()), format!("incident {d}"));
    }
    store
}

fn flip_bit(bytes: &mut [u8], pos: usize, bit: u8) {
    let byte = pos % bytes.len();
    bytes[byte] ^= 1 << (bit % 8);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_roundtrip_and_mutations(
        spec in store_spec(),
        sequence in any::<u64>(),
        published_at in any::<i64>(),
        cut_frac in 0usize..1000,
        flip_pos in any::<usize>(),
        flip_bit_n in any::<u8>(),
    ) {
        let store = build_store(&spec);
        let snap = Snapshot::capture("prop-feed", sequence, published_at, &store);
        let bytes = snap.encode();
        // Canonical round trip.
        let back = Snapshot::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.encode(), bytes.clone());
        // Every strict prefix is an error, never a panic.
        let cut = cut_frac * bytes.len() / 1000;
        prop_assert!(Snapshot::decode(&bytes[..cut]).is_err());
        // A bit-flip either fails to decode or decodes to a *different*
        // artifact (no silent success).
        let mut flipped = bytes.clone();
        flip_bit(&mut flipped, flip_pos, flip_bit_n);
        if let Ok(mutated) = Snapshot::decode(&flipped) {
            prop_assert_ne!(mutated.encode(), bytes);
        }
    }

    #[test]
    fn delta_roundtrip_and_mutations(
        before in store_spec(),
        after in store_spec(),
        from in 0u64..1_000_000,
        published_at in any::<i64>(),
        cut_frac in 0usize..1000,
        flip_pos in any::<usize>(),
        flip_bit_n in any::<u8>(),
    ) {
        let a = build_store(&before);
        let b = build_store(&after);
        let delta = Delta::between(&a, &b, from, from + 1, published_at);
        let bytes = delta.encode();
        let back = Delta::decode(&bytes).expect("own encoding decodes");
        prop_assert_eq!(back.encode(), bytes.clone());
        let cut = cut_frac * bytes.len() / 1000;
        prop_assert!(Delta::decode(&bytes[..cut]).is_err());
        let mut flipped = bytes.clone();
        flip_bit(&mut flipped, flip_pos, flip_bit_n);
        if let Ok(mutated) = Delta::decode(&flipped) {
            prop_assert_ne!(mutated.encode(), bytes);
        }
    }

    #[test]
    fn checkpoint_roundtrip_and_mutations(
        payloads in proptest::collection::vec(any::<u64>(), 1..5),
        cut_frac in 0usize..1000,
        flip_pos in any::<usize>(),
        flip_bit_n in any::<u8>(),
    ) {
        let feed = feed();
        let mut log = TransparencyLog::new();
        for p in &payloads {
            let m = feed.key.sign(MessageKind::Delta, &p.to_le_bytes()).unwrap();
            log.append(&m);
        }
        let ckpt = log.checkpoint(&feed.key, &feed.authority).unwrap();
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

    #[test]
    fn mutated_signed_message_never_verifies(
        spec in store_spec(),
        cut_frac in 0usize..1000,
        flip_pos in any::<usize>(),
        flip_bit_n in any::<u8>(),
    ) {
        let feed = feed();
        let trust = FeedTrust::quorum(feed.authority.trust());
        let store = build_store(&spec);
        let snap = Snapshot::capture("prop-feed", 1, 0, &store);
        let signed = feed.key.sign(MessageKind::Snapshot, &snap.encode()).unwrap();
        let bytes = signed.encode();
        // Sanity: the unmutated message decodes and verifies.
        SignedMessage::decode(&bytes).unwrap().verify(&trust).unwrap();
        // Truncations never decode.
        let cut = cut_frac * bytes.len() / 1000;
        prop_assert!(SignedMessage::decode(&bytes[..cut]).is_err());
        // Bit-flips either fail to decode or fail to verify — a
        // damaged frame can never be accepted, whether the flip lands
        // in the payload, the feed signature or the quorum endorsement.
        let mut flipped = bytes.clone();
        flip_bit(&mut flipped, flip_pos, flip_bit_n);
        if let Ok(mutated) = SignedMessage::decode(&flipped) {
            prop_assert!(mutated.verify(&trust).is_err());
        }
    }
}
