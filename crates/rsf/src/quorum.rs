//! k-of-n threshold signing for the coordinating body.
//!
//! The paper endorses feed keys through "a coordinating body like
//! ICANN" (§4). A single signing key would make that body a single
//! point of compromise: whoever exfiltrates it forges the feed for
//! every derivative store. The body is therefore a quorum, and it is
//! the feed's only trust scheme:
//!
//! * The body's **master secret** is Shamir-split
//!   ([`nrslb_crypto::shamir`]) into `n` shares with threshold `k`;
//!   each member holds one share ([`QuorumAuthority::share`]).
//! * Per-epoch **signer keys** are derived from the master secret, one
//!   hash-based keypair per member. Subscribers pin the signer set and
//!   the threshold ([`QuorumTrust`]).
//! * A [`QuorumSignature`] is a signer-id bitmap plus one partial
//!   signature per set bit; verification demands at least `k` valid
//!   partials from *distinct, pinned* signers at the *current* epoch —
//!   `k-1` colluding members cannot produce one.
//! * **Share rotation** is a real ceremony: `k` shares recover the
//!   master, the next epoch's secret and signer keys are derived, and
//!   the outgoing quorum signs a [`RotationEvent`] that is appended to
//!   the transparency log like any other feed mutation. After a
//!   rotation is applied, partial signatures minted under the retired
//!   epoch are rejected (the epoch is bound into every signed byte).
//! * Every feed message carries a quorum endorsement of the feed key
//!   ([`crate::signing`]) and every checkpoint a quorum witness
//!   ([`crate::translog`]); see DESIGN.md §5f.

use crate::wire::{Reader, Writer};
use crate::RsfError;
use nrslb_crypto::hbs::{self, Keypair, PublicKey, Signature};
use nrslb_crypto::hmac::prf;
use nrslb_crypto::shamir::{self, Share};
use std::sync::Mutex;

/// Domain-separation prefix for quorum partial signatures. The epoch
/// and signer id are bound in, so a partial can be replayed neither
/// across epochs nor across bitmap positions.
const QUORUM_TAG: &[u8] = b"nrslb-rsf-quorum-v1:";
/// Domain-separation prefix for rotation events.
const ROTATE_TAG: &[u8] = b"nrslb-rsf-rotate-v1:";

/// Largest supported quorum (the signer-id bitmap is a `u32`).
pub const MAX_SIGNERS: u8 = 32;

/// What one partial signature actually signs.
fn partial_bytes(epoch: u32, id: u8, message: &[u8]) -> Vec<u8> {
    let mut out = QUORUM_TAG.to_vec();
    out.extend_from_slice(&epoch.to_le_bytes());
    out.push(id);
    out.extend_from_slice(message);
    out
}

/// The canonical bytes the outgoing quorum signs to approve a rotation.
fn rotation_bytes(
    from_epoch: u32,
    to_epoch: u32,
    published_at: i64,
    new_signers: &[PublicKey],
) -> Vec<u8> {
    let mut out = ROTATE_TAG.to_vec();
    out.extend_from_slice(&from_epoch.to_le_bytes());
    out.extend_from_slice(&to_epoch.to_le_bytes());
    out.extend_from_slice(&published_at.to_le_bytes());
    out.push(new_signers.len() as u8);
    for pk in new_signers {
        out.extend_from_slice(&pk.to_bytes());
    }
    out
}

/// Quorum shape: `k` of `n` members must co-sign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QuorumConfig {
    /// Threshold: minimum distinct valid partial signatures.
    pub k: u8,
    /// Member count.
    pub n: u8,
}

impl QuorumConfig {
    /// Validate `1 <= k <= n <= 32`.
    pub fn validate(&self) -> Result<(), RsfError> {
        if self.k == 0 || self.k > self.n || self.n > MAX_SIGNERS {
            return Err(RsfError::Wire("bad quorum parameters"));
        }
        Ok(())
    }
}

/// A threshold signature: which members signed (bitmap, bit `i` =
/// member `i`) and their partial signatures in ascending-id order.
#[derive(Clone, Debug)]
pub struct QuorumSignature {
    /// The signer-set epoch the partials were minted under.
    pub epoch: u32,
    /// Bit `i` set ⇔ member `i` contributed a partial.
    pub bitmap: u32,
    /// One partial per set bit, ascending by member id.
    pub partials: Vec<Signature>,
}

impl QuorumSignature {
    /// How many members claim to have signed.
    pub fn signer_count(&self) -> u32 {
        self.bitmap.count_ones()
    }

    /// Serialize (wire format `RSF1-QSIG`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("RSF1-QSIG");
        w.put_u32(self.epoch);
        w.put_u32(self.bitmap);
        w.put_u32(self.partials.len() as u32);
        for p in &self.partials {
            w.put_bytes(&p.to_bytes());
        }
        w.finish()
    }

    /// Append to an existing writer (for embedding in larger frames).
    pub(crate) fn encode_into(&self, w: &mut Writer) {
        w.put_bytes(&self.encode());
    }

    /// Parse from an embedded field of a larger frame.
    pub(crate) fn decode_from(r: &mut Reader<'_>) -> Result<QuorumSignature, RsfError> {
        QuorumSignature::decode(r.get_bytes()?)
    }

    /// Parse a serialized quorum signature.
    pub fn decode(bytes: &[u8]) -> Result<QuorumSignature, RsfError> {
        let mut r = Reader::for_artifact(bytes, "quorum-signature");
        if r.field("magic").get_str()? != "RSF1-QSIG" {
            return Err(r.error("bad quorum-signature magic"));
        }
        let epoch = r.field("epoch").get_u32()?;
        let bitmap = r.field("bitmap").get_u32()?;
        let count = r.field("partial count").get_u32()?;
        if count > MAX_SIGNERS as u32 {
            return Err(r.error("oversized partial count"));
        }
        let mut partials = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let sig = Signature::from_bytes(r.field("partial").get_bytes()?)
                .map_err(|_| r.error("bad partial signature"))?;
            partials.push(sig);
        }
        r.expect_end()?;
        Ok(QuorumSignature {
            epoch,
            bitmap,
            partials,
        })
    }
}

/// What a subscriber pins for a quorum-governed feed: the threshold,
/// the epoch, and the current signer set. Advanced in place by
/// [`QuorumTrust::apply_rotation`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuorumTrust {
    /// Quorum shape.
    pub config: QuorumConfig,
    /// Current signer-set epoch (starts at 1).
    pub epoch: u32,
    /// The `n` pinned member public keys, by id.
    pub signers: Vec<PublicKey>,
}

impl QuorumTrust {
    /// Verify a quorum signature over `message`: correct epoch, at
    /// least `k` partials, every claimed signer pinned and distinct,
    /// every partial valid. Anything less is rejected.
    pub fn verify(&self, message: &[u8], sig: &QuorumSignature) -> Result<(), RsfError> {
        if sig.epoch != self.epoch {
            return Err(RsfError::BadSignature("quorum epoch mismatch"));
        }
        let n = self.config.n as u32;
        if n < 32 && sig.bitmap >> n != 0 {
            return Err(RsfError::BadSignature("unknown quorum signer id"));
        }
        let claimed = sig.signer_count();
        if claimed < self.config.k as u32 {
            return Err(RsfError::BadSignature("sub-quorum signature"));
        }
        if sig.partials.len() as u32 != claimed {
            return Err(RsfError::BadSignature("quorum partial count mismatch"));
        }
        let mut partial = sig.partials.iter();
        for id in 0..self.config.n {
            if sig.bitmap & (1 << id) == 0 {
                continue;
            }
            let p = partial.next().expect("count checked above");
            hbs::verify(
                &self.signers[id as usize],
                &partial_bytes(self.epoch, id, message),
                p,
            )
            .map_err(|_| RsfError::BadSignature("invalid quorum partial"))?;
        }
        Ok(())
    }

    /// Apply a rotation event: verify the outgoing quorum approved it,
    /// then advance to the new signer set. Idempotent for events at or
    /// below the current epoch (`Ok(false)`); an epoch gap is an error.
    pub fn apply_rotation(&mut self, event: &RotationEvent) -> Result<bool, RsfError> {
        if event.to_epoch <= self.epoch {
            return Ok(false); // already applied (benign redelivery)
        }
        event.verify(self)?;
        self.epoch = event.to_epoch;
        self.signers = event.new_signers.clone();
        Ok(true)
    }
}

/// A share-rotation ceremony's public record: the outgoing epoch's
/// quorum approves the incoming signer set. Appended to the
/// transparency log so rotations are auditable like any feed mutation.
#[derive(Clone, Debug)]
pub struct RotationEvent {
    /// The retiring epoch.
    pub from_epoch: u32,
    /// The incoming epoch (`from_epoch + 1`).
    pub to_epoch: u32,
    /// When the ceremony was published (unix-like seconds).
    pub published_at: i64,
    /// The incoming signer set, by id.
    pub new_signers: Vec<PublicKey>,
    /// The *outgoing* quorum's approval over the canonical rotation
    /// bytes — a sub-quorum minority cannot rotate keys out from under
    /// honest members.
    pub approval: QuorumSignature,
}

impl RotationEvent {
    /// Verify the approval under the (pre-rotation) pinned trust.
    pub fn verify(&self, old_trust: &QuorumTrust) -> Result<(), RsfError> {
        if self.from_epoch != old_trust.epoch {
            return Err(RsfError::BadSignature("rotation from wrong epoch"));
        }
        if self.to_epoch != self.from_epoch + 1 {
            return Err(RsfError::BadSignature("rotation epoch gap"));
        }
        if self.new_signers.len() != old_trust.config.n as usize {
            return Err(RsfError::BadSignature("rotation signer count"));
        }
        old_trust.verify(
            &rotation_bytes(
                self.from_epoch,
                self.to_epoch,
                self.published_at,
                &self.new_signers,
            ),
            &self.approval,
        )
    }

    /// Serialize (wire format `RSF1-ROT`).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("RSF1-ROT");
        w.put_u32(self.from_epoch);
        w.put_u32(self.to_epoch);
        w.put_i64(self.published_at);
        w.put_u32(self.new_signers.len() as u32);
        for pk in &self.new_signers {
            w.put_bytes(&pk.to_bytes());
        }
        self.approval.encode_into(&mut w);
        w.finish()
    }

    /// Parse a serialized rotation event.
    pub fn decode(bytes: &[u8]) -> Result<RotationEvent, RsfError> {
        let mut r = Reader::for_artifact(bytes, "rotation-event");
        if r.field("magic").get_str()? != "RSF1-ROT" {
            return Err(r.error("bad rotation magic"));
        }
        let from_epoch = r.field("from epoch").get_u32()?;
        let to_epoch = r.field("to epoch").get_u32()?;
        let published_at = r.field("published at").get_i64()?;
        let count = r.field("signer count").get_u32()?;
        if count > MAX_SIGNERS as u32 {
            return Err(r.error("oversized signer count"));
        }
        let mut new_signers = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let pk = PublicKey::from_bytes(r.field("signer key").get_bytes()?)
                .map_err(|_| r.error("bad signer key"))?;
            new_signers.push(pk);
        }
        let approval = QuorumSignature::decode_from(r.field("approval"))?;
        r.expect_end()?;
        Ok(RotationEvent {
            from_epoch,
            to_epoch,
            published_at,
            new_signers,
            approval,
        })
    }
}

/// The whole coordinating body, simulated in one place: the master
/// secret, its Shamir shares, and the derived per-member signer keys.
///
/// Real deployments would distribute [`QuorumAuthority::share`]s to
/// `n` organizations and run ceremonies over them; here the authority
/// is the stand-in that the publisher, the simulator and the tests
/// drive. The derivation chain is deterministic from `(seed, config,
/// height)`, which is exactly what lets the ecosystem simulation model
/// a compromised minority: an attacker holding `k-1` shares and the
/// matching signer keys, but *not* the quorum.
pub struct QuorumAuthority {
    config: QuorumConfig,
    epoch: u32,
    height: u8,
    shares: Vec<Share>,
    signers: Vec<Mutex<Keypair>>,
    publics: Vec<PublicKey>,
}

impl QuorumAuthority {
    /// Deterministic authority at epoch 1 from a master seed.
    pub fn from_seed(
        seed: [u8; 32],
        config: QuorumConfig,
        height: u8,
    ) -> Result<QuorumAuthority, RsfError> {
        QuorumAuthority::at_epoch(seed, config, height, 1)
    }

    /// Rebuild the authority from at least `k` member shares (the
    /// recovery ceremony). Fails with the shamir layer's typed errors
    /// (too few, duplicate, corrupt) mapped onto [`RsfError::Wire`].
    pub fn from_shares(
        shares: &[Share],
        config: QuorumConfig,
        height: u8,
        epoch: u32,
    ) -> Result<QuorumAuthority, RsfError> {
        config.validate()?;
        let master: [u8; 32] = shamir::recover(shares, config.k)
            .map_err(shamir_err)?
            .try_into()
            .map_err(|_| RsfError::Wire("master secret must be 32 bytes"))?;
        QuorumAuthority::at_epoch(master, config, height, epoch)
    }

    fn at_epoch(
        master: [u8; 32],
        config: QuorumConfig,
        height: u8,
        epoch: u32,
    ) -> Result<QuorumAuthority, RsfError> {
        config.validate()?;
        // Deterministic coefficient stream for the split, so the same
        // (seed, epoch) ceremony always issues the same shares.
        let mut counter = 0u32;
        let fill = |buf: &mut [u8]| {
            let mut off = 0;
            while off < buf.len() {
                let block = prf(
                    &master,
                    &[
                        b"quorum-coeffs",
                        &epoch.to_le_bytes(),
                        &counter.to_le_bytes(),
                    ],
                );
                let take = (buf.len() - off).min(32);
                buf[off..off + take].copy_from_slice(&block.as_bytes()[..take]);
                off += take;
                counter += 1;
            }
        };
        let shares = shamir::split(&master, config.k, config.n, fill).map_err(shamir_err)?;
        let mut signers = Vec::with_capacity(config.n as usize);
        let mut publics = Vec::with_capacity(config.n as usize);
        for id in 0..config.n {
            let seed: [u8; 32] =
                *prf(&master, &[b"quorum-signer", &epoch.to_le_bytes(), &[id]]).as_bytes();
            let keypair =
                Keypair::from_seed(seed, height).map_err(|_| RsfError::Wire("bad key params"))?;
            publics.push(keypair.public());
            signers.push(Mutex::new(keypair));
        }
        Ok(QuorumAuthority {
            config,
            epoch,
            height,
            shares,
            signers,
            publics,
        })
    }

    /// The quorum shape.
    pub fn config(&self) -> QuorumConfig {
        self.config
    }

    /// The current signer-set epoch.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Member `id`'s Shamir share of the master secret (share
    /// issuance: what each of the `n` organizations would hold).
    pub fn share(&self, id: u8) -> Option<Share> {
        self.shares.get(id as usize).cloned()
    }

    /// Member `id`'s public key at the current epoch.
    pub fn signer_public(&self, id: u8) -> Option<PublicKey> {
        self.publics.get(id as usize).copied()
    }

    /// What subscribers pin.
    pub fn trust(&self) -> QuorumTrust {
        QuorumTrust {
            config: self.config,
            epoch: self.epoch,
            signers: self.publics.clone(),
        }
    }

    /// One member's raw partial signature over `message` (exposed so
    /// the adversarial tests and the compromised-minority simulation
    /// can assemble arbitrary — including malformed — quorum
    /// signatures).
    pub fn partial(&self, id: u8, message: &[u8]) -> Result<Signature, RsfError> {
        let keypair = self
            .signers
            .get(id as usize)
            .ok_or(RsfError::Wire("unknown signer id"))?;
        keypair
            .lock()
            .unwrap()
            .sign(&partial_bytes(self.epoch, id, message))
            .map_err(|_| RsfError::BadSignature("quorum signer exhausted"))
    }

    /// Assemble a quorum signature from exactly the given member ids
    /// (ascending order enforced here; no threshold check — the
    /// *verifier* enforces `k`, which is what the adversarial suite
    /// leans on).
    pub fn sign_with(&self, ids: &[u8], message: &[u8]) -> Result<QuorumSignature, RsfError> {
        let mut bitmap = 0u32;
        let mut sorted = ids.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut partials = Vec::with_capacity(sorted.len());
        for id in sorted {
            if id >= self.config.n {
                return Err(RsfError::Wire("unknown signer id"));
            }
            bitmap |= 1 << id;
            partials.push(self.partial(id, message)?);
        }
        Ok(QuorumSignature {
            epoch: self.epoch,
            bitmap,
            partials,
        })
    }

    /// A full honest signature: the first `k` members co-sign.
    pub fn sign(&self, message: &[u8]) -> Result<QuorumSignature, RsfError> {
        let ids: Vec<u8> = (0..self.config.k).collect();
        self.sign_with(&ids, message)
    }

    /// Run a rotation ceremony: recover the master from `k` shares
    /// (the real Shamir path, not a cached copy), derive the next
    /// epoch's secret and signer set, and have the *outgoing* quorum
    /// approve the event. The authority advances; the returned event
    /// is what flows through the feed and its transparency log.
    pub fn rotate(&mut self, published_at: i64) -> Result<RotationEvent, RsfError> {
        // Ceremony step 1: k members present their shares.
        let ceremony: Vec<Share> = self.shares[..self.config.k as usize].to_vec();
        let recovered: [u8; 32] = shamir::recover(&ceremony, self.config.k)
            .map_err(shamir_err)?
            .try_into()
            .expect("master is 32 bytes");
        // Step 2: derive the next epoch's master and signer set.
        let to_epoch = self.epoch + 1;
        let next_master: [u8; 32] =
            *prf(&recovered, &[b"quorum-rotate", &to_epoch.to_le_bytes()]).as_bytes();
        let next = QuorumAuthority::at_epoch(next_master, self.config, self.height, to_epoch)?;
        // Step 3: the outgoing quorum approves the incoming set.
        let approval = self.sign(&rotation_bytes(
            self.epoch,
            to_epoch,
            published_at,
            &next.publics,
        ))?;
        let event = RotationEvent {
            from_epoch: self.epoch,
            to_epoch,
            published_at,
            new_signers: next.publics.clone(),
            approval,
        };
        *self = next;
        Ok(event)
    }
}

fn shamir_err(e: shamir::ShamirError) -> RsfError {
    use shamir::ShamirError::*;
    RsfError::Wire(match e {
        BadParameters { .. } => "bad quorum parameters",
        TooFewShares { .. } => "threshold not met",
        DuplicateShare(_) => "duplicate share",
        CorruptShare(_) => "corrupt share",
        LengthMismatch => "share length mismatch",
        BadIndex => "bad share index",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn authority() -> QuorumAuthority {
        QuorumAuthority::from_seed([7; 32], QuorumConfig { k: 3, n: 5 }, 6).unwrap()
    }

    #[test]
    fn honest_quorum_verifies() {
        let auth = authority();
        let trust = auth.trust();
        let sig = auth.sign(b"endorse this").unwrap();
        trust.verify(b"endorse this", &sig).unwrap();
        // A different message fails.
        assert!(trust.verify(b"endorse that", &sig).is_err());
    }

    #[test]
    fn sub_quorum_rejected() {
        let auth = authority();
        let trust = auth.trust();
        let sig = auth.sign_with(&[0, 1], b"m").unwrap();
        assert!(matches!(
            trust.verify(b"m", &sig),
            Err(RsfError::BadSignature("sub-quorum signature"))
        ));
    }

    #[test]
    fn share_recovery_roundtrip() {
        let auth = authority();
        let shares = vec![
            auth.share(4).unwrap(),
            auth.share(0).unwrap(),
            auth.share(2).unwrap(),
        ];
        let rebuilt =
            QuorumAuthority::from_shares(&shares, auth.config(), 6, auth.epoch()).unwrap();
        assert_eq!(rebuilt.trust(), auth.trust());
        // k-1 shares cannot rebuild.
        let err = QuorumAuthority::from_shares(&shares[..2], auth.config(), 6, auth.epoch());
        assert!(matches!(err, Err(RsfError::Wire("threshold not met"))));
    }

    #[test]
    fn rotation_advances_trust_and_retires_old_partials() {
        let mut auth = authority();
        let mut trust = auth.trust();
        let stale = auth.sign(b"m").unwrap();
        let event = auth.rotate(1000).unwrap();
        assert!(trust.apply_rotation(&event).unwrap());
        assert_eq!(trust, auth.trust());
        // Old-epoch signature no longer verifies.
        assert!(matches!(
            trust.verify(b"m", &stale),
            Err(RsfError::BadSignature("quorum epoch mismatch"))
        ));
        // Fresh signature does.
        let fresh = auth.sign(b"m").unwrap();
        trust.verify(b"m", &fresh).unwrap();
        // Re-applying the same event is a benign no-op.
        assert!(!trust.apply_rotation(&event).unwrap());
    }

    #[test]
    fn wire_roundtrips() {
        let mut auth = authority();
        let sig = auth.sign(b"m").unwrap();
        let back = QuorumSignature::decode(&sig.encode()).unwrap();
        assert_eq!(back.encode(), sig.encode());
        let event = auth.rotate(42).unwrap();
        let back = RotationEvent::decode(&event.encode()).unwrap();
        assert_eq!(back.encode(), event.encode());
        assert!(QuorumSignature::decode(b"garbage").is_err());
        assert!(RotationEvent::decode(b"garbage").is_err());
    }
}
