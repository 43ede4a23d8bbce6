//! Adversarial robustness: every byte surface an attacker controls —
//! feed messages, checkpoints, certificates, handshake messages — is
//! mutated exhaustively-ish (seeded PRNG) and must neither panic nor
//! verify.

use nrslb::rootstore::RootStore;
use nrslb::rsf::{Checkpoint, FeedKey, FeedTrust, QuorumAuthority, QuorumConfig, SignedMessage};
use nrslb::x509::testutil::simple_chain;

/// Small deterministic PRNG so failures are reproducible.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }
}

fn mutate(bytes: &[u8], rng: &mut Lcg) -> Vec<u8> {
    let mut out = bytes.to_vec();
    match rng.next() % 4 {
        0 => {
            // Flip one byte.
            let i = (rng.next() as usize) % out.len();
            out[i] ^= 1 + (rng.next() % 255) as u8;
        }
        1 => {
            // Truncate.
            let keep = (rng.next() as usize) % out.len();
            out.truncate(keep);
        }
        2 => {
            // Append garbage.
            for _ in 0..(rng.next() % 8 + 1) {
                out.push((rng.next() & 0xff) as u8);
            }
        }
        _ => {
            // Swap two regions.
            let i = (rng.next() as usize) % out.len();
            let j = (rng.next() as usize) % out.len();
            out.swap(i, j);
        }
    }
    out
}

/// A 2-of-3 quorum; its signers sign one endorsement and at most one
/// checkpoint witness here.
fn authority(seed: u8) -> QuorumAuthority {
    QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 2).unwrap()
}

#[test]
fn mutated_feed_messages_never_verify() {
    let authority = authority(1);
    let key = FeedKey::new_quorum([2; 32], 8, &authority).unwrap();
    let trust = FeedTrust::quorum(authority.trust());
    let pki = simple_chain("adv.example");
    let mut store = RootStore::new("nss");
    store.add_trusted(pki.root.clone()).unwrap();
    let snap = nrslb::rsf::Snapshot::capture("nss", 1, 0, &store);
    let message = key
        .sign(nrslb::rsf::signing::MessageKind::Snapshot, &snap.encode())
        .unwrap();
    let bytes = message.encode();

    let mut rng = Lcg(0xfeed);
    let mut decoded_ok = 0usize;
    for _ in 0..2_000 {
        let mutated = mutate(&bytes, &mut rng);
        if mutated == bytes {
            continue;
        }
        if let Ok(parsed) = SignedMessage::decode(&mutated) {
            decoded_ok += 1;
            // A structurally-valid mutation must still fail one of the
            // two signature links (the quorum endorsement or the feed
            // signature) or decode to different payload bytes covered
            // by the signature; acceptance would be a forgery.
            if parsed.verify(&trust).is_ok() {
                // Only acceptable if the mutation reconstructed the
                // exact original message.
                assert_eq!(parsed.encode(), bytes, "mutated message verified!");
            }
        }
    }
    // Sanity: the harness actually exercised the decode path.
    assert!(decoded_ok < 2_000);
}

#[test]
fn mutated_checkpoints_never_verify() {
    let authority = authority(3);
    let key = FeedKey::new_quorum([4; 32], 8, &authority).unwrap();
    let trust = FeedTrust::quorum(authority.trust());
    let mut log = nrslb::rsf::TransparencyLog::new();
    let msg = key
        .sign(nrslb::rsf::signing::MessageKind::Delta, b"payload")
        .unwrap();
    log.append(&msg);
    let checkpoint = log.checkpoint(&key, &authority).unwrap();
    let bytes = checkpoint.encode();

    let mut rng = Lcg(0xc4ec);
    for _ in 0..2_000 {
        let mutated = mutate(&bytes, &mut rng);
        if mutated == bytes {
            continue;
        }
        if let Ok(parsed) = Checkpoint::decode(&mutated) {
            if parsed.verify(&key.public(), &trust).is_ok() {
                assert_eq!(parsed.encode(), bytes, "mutated checkpoint verified!");
            }
        }
    }
}

#[test]
fn mutated_certificates_never_validate() {
    use nrslb::core::{Usage, ValidationMode, Validator};
    let pki = simple_chain("advcert.example");
    let mut store = RootStore::new("client");
    store.add_trusted(pki.root.clone()).unwrap();
    let validator = Validator::new(store, ValidationMode::UserAgent);
    let bytes = pki.leaf.to_der().to_vec();

    let mut rng = Lcg(0xce57);
    let mut parsed_ok = 0usize;
    for _ in 0..2_000 {
        let mutated = mutate(&bytes, &mut rng);
        if mutated == bytes {
            continue;
        }
        let Ok(cert) = nrslb::x509::Certificate::from_der(&mutated) else {
            continue;
        };
        parsed_ok += 1;
        // Any surviving parse must fail validation (the TBS no longer
        // matches the signature, or the structure changed).
        let outcome = validator
            .validate(
                &cert,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                pki.now,
            )
            .unwrap();
        assert!(
            !outcome.accepted(),
            "mutated certificate accepted: {cert:?}"
        );
    }
    let _ = parsed_ok; // structural mutations rarely parse; that's fine
}

#[test]
fn mutated_handshake_flights_never_complete() {
    use nrslb::core::ValidationMode;
    use nrslb::tls::{Client, ClientConfig, Message, Server, ServerIdentity};
    use nrslb::x509::builder::CaKey;

    let ca = CaKey::generate_for_tests("Adv TLS Root", 0xad);
    let (identity, root) = ServerIdentity::issue_under_test_root("adv-tls.example", &ca);
    let mut store = RootStore::new("client");
    store.add_trusted(root).unwrap();
    let mut server = Server::new(identity);

    // A pristine flight, serialized.
    let mut probe = Client::new(
        ClientConfig::new(store.clone(), ValidationMode::UserAgent, 1_000),
        "adv-tls.example",
        [0x11; 32],
    );
    let hello = probe.start();
    let flight = server.respond(&hello, [0x22; 32]).unwrap();
    let bytes = Message::ServerFlight(Box::new(flight)).to_bytes();

    let mut rng = Lcg(0x715);
    for _ in 0..500 {
        let mutated = mutate(&bytes, &mut rng);
        if mutated == bytes {
            continue;
        }
        let Ok(Message::ServerFlight(flight)) = Message::from_bytes(&mutated) else {
            continue;
        };
        // Fresh client per attempt (state machines are single-shot).
        let mut client = Client::new(
            ClientConfig::new(store.clone(), ValidationMode::UserAgent, 1_000),
            "adv-tls.example",
            [0x11; 32],
        );
        let _ = client.start();
        assert!(
            client.process_server_flight(&flight).is_err(),
            "mutated flight accepted"
        );
    }
}
