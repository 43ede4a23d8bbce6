//! An append-only transparency log over feed messages.
//!
//! The paper leaves "the potential use of immutable logs" for RSF
//! security as future work (§4); this module implements the natural
//! design: every signed feed message is appended to a Merkle log; the
//! publisher signs *checkpoints* (size, root), and subscribers verify a
//! consistency proof between their previous checkpoint and the new one
//! on every poll. A publisher that rewrites or forks its history —
//! serving different views to different subscribers — cannot produce a
//! valid consistency proof, so equivocation is detected at the next
//! poll rather than never.

use crate::quorum::{QuorumAuthority, QuorumSignature, RotationEvent};
use crate::signing::{FeedKey, FeedTrust, SignedMessage};
use crate::wire::{Reader, Writer};
use crate::RsfError;
use nrslb_crypto::hbs::{self, PublicKey, Signature};
use nrslb_crypto::merkle::{verify_consistency, ConsistencyProof, MerkleTree};
use nrslb_crypto::sha256::Digest;

const CHECKPOINT_TAG: &[u8] = b"nrslb-rsf-checkpoint-v1:";

fn checkpoint_bytes(size: u64, root: &Digest) -> Vec<u8> {
    let mut out = CHECKPOINT_TAG.to_vec();
    out.extend_from_slice(&size.to_be_bytes());
    out.extend_from_slice(root.as_bytes());
    out
}

/// A signed commitment to the log's first `size` messages.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Number of committed feed messages.
    pub size: u64,
    /// Merkle root over their encodings.
    pub root: Digest,
    /// Feed-key signature over `(size, root)`.
    pub signature: Signature,
    /// The quorum's co-signature ("witness") over the same bytes. A
    /// checkpoint whose witness carries fewer than `k` valid partials
    /// is rejected outright, so a compromised feed key alone cannot
    /// commit a forged history.
    pub witness: QuorumSignature,
}

impl Checkpoint {
    /// Verify under the pinned coordinating body: the feed-key
    /// signature, then a valid k-of-n witness at the current epoch.
    pub fn verify(&self, feed_key: &PublicKey, trust: &FeedTrust) -> Result<(), RsfError> {
        let signed = checkpoint_bytes(self.size, &self.root);
        hbs::verify(feed_key, &signed, &self.signature)
            .map_err(|_| RsfError::BadSignature("checkpoint signature"))?;
        trust.pinned().verify(&signed, &self.witness)
    }

    /// Serialize (the `RSF2-CKPT` frame, for storage or transports).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("RSF2-CKPT");
        w.put_u64(self.size);
        w.put_bytes(self.root.as_bytes());
        w.put_bytes(&self.signature.to_bytes());
        w.put_bytes(&self.witness.encode());
        w.finish()
    }

    /// Parse a serialized checkpoint.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, RsfError> {
        let mut r = Reader::for_artifact(bytes, "checkpoint");
        if r.field("magic").get_str()? != "RSF2-CKPT" {
            return Err(r.error("bad checkpoint magic"));
        }
        let size = r.field("size").get_u64()?;
        let root_bytes: [u8; 32] = r
            .field("root")
            .get_bytes()?
            .try_into()
            .map_err(|_| r.error("bad checkpoint root"))?;
        let signature = Signature::from_bytes(r.field("signature").get_bytes()?)
            .map_err(|_| r.error("bad checkpoint signature"))?;
        let witness = QuorumSignature::decode(r.field("witness").get_bytes()?)?;
        r.expect_end()?;
        Ok(Checkpoint {
            size,
            root: Digest(root_bytes),
            signature,
            witness,
        })
    }
}

/// The publisher-side log.
#[derive(Default)]
pub struct TransparencyLog {
    tree: MerkleTree,
}

impl TransparencyLog {
    /// An empty log.
    pub fn new() -> TransparencyLog {
        TransparencyLog::default()
    }

    /// Number of logged messages.
    pub fn len(&self) -> u64 {
        self.tree.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Append a published message.
    pub fn append(&mut self, message: &SignedMessage) -> u64 {
        self.tree.push(&message.encode())
    }

    /// Append a share-rotation event, making the ceremony auditable
    /// like any other feed mutation: the event's canonical encoding
    /// becomes a Merkle leaf, so it is covered by every later
    /// checkpoint and by history-consistency proofs.
    pub fn append_rotation(&mut self, event: &RotationEvent) -> u64 {
        self.tree.push(&event.encode())
    }

    /// Sign the current head with the feed key and have the quorum
    /// witness it. The root is computed on the parallel Merkle path
    /// (bit-identical to the sequential one); publish-time checkpoints
    /// hash the whole log, which for a busy feed is the dominant
    /// publishing cost.
    pub fn checkpoint(
        &self,
        key: &FeedKey,
        authority: &QuorumAuthority,
    ) -> Result<Checkpoint, RsfError> {
        let size = self.tree.len();
        let root = self.tree.root_parallel();
        let signed = checkpoint_bytes(size, &root);
        Ok(Checkpoint {
            size,
            root,
            signature: key.sign_raw(&signed)?,
            witness: authority.sign(&signed)?,
        })
    }

    /// Consistency proof between two checkpoint sizes.
    pub fn prove_consistency(&self, old: u64, new: u64) -> Option<ConsistencyProof> {
        self.tree.prove_consistency(old, new)
    }
}

/// Subscriber-side verification: the new checkpoint is signed and
/// quorum-witnessed under the pinned trust, and extends the old one.
///
/// `old` of `None` means this is the subscriber's first poll; only the
/// signature and witness are checked and the checkpoint is pinned.
///
/// Failures split into two classes: [`RsfError::BadSignature`] (the
/// checkpoint is not even validly signed and witnessed — possibly
/// transport corruption, worth a retry) and [`RsfError::SplitView`]
/// (the checkpoint is *correctly signed* but inconsistent with the
/// pinned history — rollback, fork at the same size, or an unprovable
/// extension). Split-view evidence is proof of publisher misbehaviour
/// and should quarantine the feed, which is exactly what
/// [`crate::sync::Subscriber`] does.
pub fn verify_extension(
    old: Option<&Checkpoint>,
    new: &Checkpoint,
    proof: Option<&ConsistencyProof>,
    feed_key: &PublicKey,
    trust: &FeedTrust,
) -> Result<(), RsfError> {
    new.verify(feed_key, trust)?;
    let Some(old) = old else { return Ok(()) };
    if new.size < old.size {
        return Err(RsfError::SplitView("checkpoint rollback"));
    }
    if new.size == old.size {
        return if new.root == old.root {
            Ok(())
        } else {
            Err(RsfError::SplitView("checkpoint fork at same size"))
        };
    }
    if old.size == 0 {
        return Ok(()); // nothing to be consistent with
    }
    let proof = proof.ok_or(RsfError::SplitView("missing consistency proof"))?;
    if proof.old_size != old.size || proof.new_size != new.size {
        return Err(RsfError::SplitView("consistency proof size mismatch"));
    }
    verify_consistency(proof, &old.root, &new.root)
        .map_err(|_| RsfError::SplitView("feed history rewritten"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::QuorumConfig;
    use crate::signing::MessageKind;

    /// A quorum, the feed key it endorses, and the trust pinning it.
    struct Feed {
        authority: QuorumAuthority,
        key: FeedKey,
        trust: FeedTrust,
    }

    fn feed(seed: u8) -> Feed {
        let authority =
            QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 3).unwrap();
        let key = FeedKey::new_quorum([seed + 1; 32], 8, &authority).unwrap();
        let trust = FeedTrust::quorum(authority.trust());
        Feed {
            authority,
            key,
            trust,
        }
    }

    impl Feed {
        fn msg(&self, payload: &[u8]) -> SignedMessage {
            self.key.sign(MessageKind::Delta, payload).unwrap()
        }

        fn log(&self, payloads: &[&[u8]]) -> TransparencyLog {
            let mut log = TransparencyLog::new();
            for p in payloads {
                log.append(&self.msg(p));
            }
            log
        }

        fn checkpoint(&self, log: &TransparencyLog) -> Checkpoint {
            log.checkpoint(&self.key, &self.authority).unwrap()
        }

        fn extends(
            &self,
            old: Option<&Checkpoint>,
            new: &Checkpoint,
            proof: Option<&ConsistencyProof>,
        ) -> Result<(), RsfError> {
            verify_extension(old, new, proof, &self.key.public(), &self.trust)
        }
    }

    #[test]
    fn honest_history_verifies() {
        let f = feed(1);
        let mut log = f.log(&[b"m1", b"m2"]);
        let ckpt1 = f.checkpoint(&log);
        f.extends(None, &ckpt1, None).unwrap();

        log.append(&f.msg(b"m3"));
        let ckpt2 = f.checkpoint(&log);
        let proof = log.prove_consistency(ckpt1.size, ckpt2.size).unwrap();
        f.extends(Some(&ckpt1), &ckpt2, Some(&proof)).unwrap();
    }

    #[test]
    fn rewritten_history_detected() {
        let f = feed(1);
        let ckpt1 = f.checkpoint(&f.log(&[b"m1", b"m2"]));
        // The publisher "rewrites" history: a fresh log with different
        // contents, grown past the old size.
        let forked = f.log(&[b"evil1", b"evil2", b"evil3"]);
        let ckpt2 = f.checkpoint(&forked);
        let proof = forked.prove_consistency(ckpt1.size, ckpt2.size).unwrap();
        assert!(matches!(
            f.extends(Some(&ckpt1), &ckpt2, Some(&proof)),
            Err(RsfError::SplitView("feed history rewritten"))
        ));
    }

    #[test]
    fn rollback_detected() {
        let f = feed(1);
        let ckpt_big = f.checkpoint(&f.log(&[b"m1", b"m2"]));
        let ckpt_small = f.checkpoint(&f.log(&[b"m1"]));
        assert!(matches!(
            f.extends(Some(&ckpt_big), &ckpt_small, None),
            Err(RsfError::SplitView("checkpoint rollback"))
        ));
    }

    #[test]
    fn fork_at_same_size_detected() {
        let f = feed(1);
        let ca = f.checkpoint(&f.log(&[b"m1"]));
        let cb = f.checkpoint(&f.log(&[b"other"]));
        assert!(matches!(
            f.extends(Some(&ca), &cb, None),
            Err(RsfError::SplitView("checkpoint fork at same size"))
        ));
    }

    #[test]
    fn checkpoint_encoding_roundtrip() {
        let f = feed(1);
        let ckpt = f.checkpoint(&f.log(&[b"m1"]));
        let back = Checkpoint::decode(&ckpt.encode()).unwrap();
        assert_eq!(back.encode(), ckpt.encode());
        back.verify(&f.key.public(), &f.trust).unwrap();
        assert!(Checkpoint::decode(b"garbage").is_err());
    }

    #[test]
    fn forged_checkpoint_rejected() {
        let f = feed(1);
        let rogue = feed(9);
        let log = f.log(&[b"m1"]);
        // Signed by a rogue feed key: the feed-key check fails.
        let ckpt = rogue.checkpoint(&log);
        assert!(matches!(
            ckpt.verify(&f.key.public(), &f.trust),
            Err(RsfError::BadSignature("checkpoint signature"))
        ));
        // Signed by the real feed key but witnessed by a rogue quorum.
        let mut ckpt = f.checkpoint(&log);
        ckpt.witness = rogue.checkpoint(&log).witness;
        assert!(matches!(
            ckpt.verify(&f.key.public(), &f.trust),
            Err(RsfError::BadSignature("invalid quorum partial"))
        ));
    }
}
