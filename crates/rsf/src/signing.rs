//! Feed signing: "RSF updates \[should\] be signed with a separate key that
//! should itself be signed by a coordinating body like ICANN" (§4).
//!
//! Two-link verification chain: subscribers pin the **coordinating
//! body** ([`FeedTrust`]), a k-of-n signer set
//! ([`crate::quorum::QuorumTrust`]); each `RSF2-SIGNED` message carries
//! the feed's public key, the body's [`QuorumSignature`] endorsing that
//! key, and the feed's signature over the payload. No single leaked
//! member key can endorse a rogue feed key (DESIGN.md §5f).

use crate::quorum::{QuorumAuthority, QuorumSignature, QuorumTrust, RotationEvent};
use crate::wire::{Reader, Writer};
use crate::RsfError;
use nrslb_crypto::hbs::{self, Keypair, PublicKey, Signature};
use std::sync::Mutex;

/// Domain-separation prefixes so an endorsement can never be confused
/// with a message signature.
const ENDORSE_TAG: &[u8] = b"nrslb-rsf-endorse-v1:";
const MESSAGE_TAG: &[u8] = b"nrslb-rsf-message-v1:";

fn endorse_bytes(feed_key: &PublicKey) -> Vec<u8> {
    let mut out = ENDORSE_TAG.to_vec();
    out.extend_from_slice(&feed_key.to_bytes());
    out
}

fn message_bytes(kind: MessageKind, payload: &[u8]) -> Vec<u8> {
    let mut out = MESSAGE_TAG.to_vec();
    out.push(kind as u8);
    out.extend_from_slice(payload);
    out
}

/// A feed operator's signing key plus the quorum's endorsement of it.
pub struct FeedKey {
    keypair: Mutex<Keypair>,
    public: PublicKey,
    endorsement: Mutex<QuorumSignature>,
}

impl FeedKey {
    /// Create a feed key endorsed by a k-of-n quorum.
    pub fn new_quorum(
        seed: [u8; 32],
        height: u8,
        authority: &QuorumAuthority,
    ) -> Result<FeedKey, RsfError> {
        let keypair =
            Keypair::from_seed(seed, height).map_err(|_| RsfError::Wire("bad key params"))?;
        let public = keypair.public();
        let endorsement = authority.sign(&endorse_bytes(&public))?;
        Ok(FeedKey {
            keypair: Mutex::new(keypair),
            public,
            endorsement: Mutex::new(endorsement),
        })
    }

    /// Refresh the endorsement after a quorum rotation: messages signed
    /// from here on carry a new-epoch endorsement.
    pub fn re_endorse(&self, authority: &QuorumAuthority) -> Result<(), RsfError> {
        *self.endorsement.lock().unwrap() = authority.sign(&endorse_bytes(&self.public))?;
        Ok(())
    }

    /// The feed's public key.
    pub fn public(&self) -> PublicKey {
        self.public
    }

    /// Sign raw bytes with the feed key (used by the transparency log's
    /// checkpoints, which carry their own domain separation).
    pub fn sign_raw(&self, message: &[u8]) -> Result<Signature, RsfError> {
        self.keypair
            .lock()
            .unwrap()
            .sign(message)
            .map_err(|_| RsfError::BadSignature("feed key exhausted"))
    }

    /// Sign a feed message.
    pub fn sign(&self, kind: MessageKind, payload: &[u8]) -> Result<SignedMessage, RsfError> {
        let signature = self.sign_raw(&message_bytes(kind, payload))?;
        Ok(SignedMessage {
            kind,
            payload: payload.to_vec(),
            feed_key: self.public,
            endorsement: self.endorsement.lock().unwrap().clone(),
            signature,
        })
    }
}

/// What a subscriber pins: the k-of-n coordinating body behind the
/// feed, advanced in place by [`FeedTrust::apply_rotation`].
#[derive(Clone, Debug)]
pub struct FeedTrust {
    quorum: QuorumTrust,
}

impl FeedTrust {
    /// Pin a k-of-n quorum.
    pub fn quorum(trust: QuorumTrust) -> FeedTrust {
        FeedTrust { quorum: trust }
    }

    /// The pinned signer set, at its current epoch.
    pub fn pinned(&self) -> &QuorumTrust {
        &self.quorum
    }

    /// Verify the quorum's endorsement of `feed_key`.
    pub fn verify_endorsement(
        &self,
        feed_key: &PublicKey,
        endorsement: &QuorumSignature,
    ) -> Result<(), RsfError> {
        self.quorum
            .verify(&endorse_bytes(feed_key), endorsement)
            .map_err(|_| RsfError::BadSignature("feed key endorsement"))
    }

    /// Apply a quorum rotation event. Returns whether the trust
    /// actually advanced.
    pub fn apply_rotation(&mut self, event: &RotationEvent) -> Result<bool, RsfError> {
        self.quorum.apply_rotation(event)
    }
}

/// The kind of payload inside a signed message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum MessageKind {
    /// A full [`crate::feed::Snapshot`].
    Snapshot = 1,
    /// A [`crate::feed::Delta`].
    Delta = 2,
}

impl MessageKind {
    fn from_u8(b: u8) -> Option<MessageKind> {
        match b {
            1 => Some(MessageKind::Snapshot),
            2 => Some(MessageKind::Delta),
            _ => None,
        }
    }
}

/// A signed feed message: payload + feed key + endorsement + signature.
#[derive(Clone, Debug)]
pub struct SignedMessage {
    /// Payload kind.
    pub kind: MessageKind,
    /// Canonical payload bytes ([`crate::feed::Snapshot::encode`] or
    /// [`crate::feed::Delta::encode`]).
    pub payload: Vec<u8>,
    /// The feed's public key.
    pub feed_key: PublicKey,
    /// The coordinating body's quorum endorsement of `feed_key`.
    pub endorsement: QuorumSignature,
    /// Feed signature over the payload.
    pub signature: Signature,
}

impl SignedMessage {
    /// Verify the two-link chain under the pinned coordinating body.
    pub fn verify(&self, trust: &FeedTrust) -> Result<(), RsfError> {
        trust.verify_endorsement(&self.feed_key, &self.endorsement)?;
        hbs::verify(
            &self.feed_key,
            &message_bytes(self.kind, &self.payload),
            &self.signature,
        )
        .map_err(|_| RsfError::BadSignature("message signature"))?;
        Ok(())
    }

    /// Serialize the whole signed message (the `RSF2-SIGNED` transport
    /// frame).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("RSF2-SIGNED");
        w.put_u8(self.kind as u8);
        w.put_bytes(&self.payload);
        w.put_bytes(&self.feed_key.to_bytes());
        w.put_bytes(&self.endorsement.encode());
        w.put_bytes(&self.signature.to_bytes());
        w.finish()
    }

    /// Parse a signed message (verification is separate).
    pub fn decode(bytes: &[u8]) -> Result<SignedMessage, RsfError> {
        let mut r = Reader::for_artifact(bytes, "signed-message");
        if r.field("magic").get_str()? != "RSF2-SIGNED" {
            return Err(r.error("bad signed-message magic"));
        }
        let kind = MessageKind::from_u8(r.field("kind").get_u8()?)
            .ok_or_else(|| r.error("bad message kind"))?;
        let payload = r.field("payload").get_bytes()?.to_vec();
        let feed_key = PublicKey::from_bytes(r.field("feed key").get_bytes()?)
            .map_err(|_| r.error("bad feed key"))?;
        let endorsement = QuorumSignature::decode(r.field("endorsement").get_bytes()?)?;
        let signature = Signature::from_bytes(r.field("signature").get_bytes()?)
            .map_err(|_| r.error("bad signature"))?;
        r.expect_end()?;
        Ok(SignedMessage {
            kind,
            payload,
            feed_key,
            endorsement,
            signature,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::QuorumConfig;

    fn authority(seed: u8) -> QuorumAuthority {
        QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 2).unwrap()
    }

    fn setup() -> (FeedKey, FeedTrust) {
        let authority = authority(1);
        let feed = FeedKey::new_quorum([2; 32], 6, &authority).unwrap();
        (feed, FeedTrust::quorum(authority.trust()))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let (feed, trust) = setup();
        let msg = feed.sign(MessageKind::Snapshot, b"payload").unwrap();
        msg.verify(&trust).unwrap();
        let decoded = SignedMessage::decode(&msg.encode()).unwrap();
        decoded.verify(&trust).unwrap();
        assert_eq!(decoded.payload, b"payload");
        assert_eq!(decoded.kind, MessageKind::Snapshot);
    }

    #[test]
    fn tampered_payload_rejected() {
        let (feed, trust) = setup();
        let mut msg = feed.sign(MessageKind::Delta, b"original").unwrap();
        msg.payload = b"tampered".to_vec();
        assert!(matches!(
            msg.verify(&trust),
            Err(RsfError::BadSignature("message signature"))
        ));
    }

    #[test]
    fn kind_confusion_rejected() {
        // A snapshot signature must not validate as a delta (domain sep).
        let (feed, trust) = setup();
        let mut msg = feed.sign(MessageKind::Snapshot, b"payload").unwrap();
        msg.kind = MessageKind::Delta;
        assert!(msg.verify(&trust).is_err());
    }

    #[test]
    fn unendorsed_feed_key_rejected() {
        let (_feed, trust) = setup();
        // A rogue feed endorsed by a *different* quorum.
        let rogue_feed = FeedKey::new_quorum([10; 32], 4, &authority(9)).unwrap();
        let msg = rogue_feed.sign(MessageKind::Snapshot, b"evil").unwrap();
        assert!(matches!(
            msg.verify(&trust),
            Err(RsfError::BadSignature("feed key endorsement"))
        ));
    }

    #[test]
    fn endorsement_swap_rejected() {
        // Signature by feed B, endorsement of feed A: must fail.
        let authority = authority(1);
        let feed_a = FeedKey::new_quorum([2; 32], 4, &authority).unwrap();
        let feed_b = FeedKey::new_quorum([3; 32], 4, &authority).unwrap();
        let trust = FeedTrust::quorum(authority.trust());
        let msg_a = feed_a.sign(MessageKind::Snapshot, b"x").unwrap();
        let msg_b = feed_b.sign(MessageKind::Snapshot, b"x").unwrap();
        let mut frankenstein = msg_b.clone();
        frankenstein.endorsement = msg_a.endorsement.clone();
        frankenstein.feed_key = msg_a.feed_key;
        // Now the endorsement verifies (it's A's) but the message
        // signature is B's -> fails under A's key.
        assert!(frankenstein.verify(&trust).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(SignedMessage::decode(b"").is_err());
        assert!(SignedMessage::decode(b"RSFX").is_err());
        let (feed, _t) = setup();
        let mut bytes = feed.sign(MessageKind::Snapshot, b"p").unwrap().encode();
        bytes.truncate(bytes.len() - 3);
        assert!(SignedMessage::decode(&bytes).is_err());
    }
}
