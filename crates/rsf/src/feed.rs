//! Feed content: snapshots of a root store and deltas between them.

use crate::wire::{Reader, Writer};
use crate::RsfError;
use nrslb_crypto::sha256::Digest;
use nrslb_rootstore::{Gcc, GccMetadata, RootStore, TrustRecord};
use nrslb_x509::Certificate;
use std::collections::BTreeMap;

/// NSS-style systematic constraints carried per root.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SystematicConstraints {
    /// Last leaf notBefore accepted for TLS.
    pub tls_distrust_after: Option<i64>,
    /// Last leaf notBefore accepted for S/MIME.
    pub smime_distrust_after: Option<i64>,
    /// May the root anchor EV certificates?
    pub ev_allowed: bool,
}

impl SystematicConstraints {
    fn of(record: &TrustRecord) -> SystematicConstraints {
        SystematicConstraints {
            tls_distrust_after: record.tls_distrust_after,
            smime_distrust_after: record.smime_distrust_after,
            ev_allowed: record.ev_allowed,
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.put_opt_i64(self.tls_distrust_after);
        w.put_opt_i64(self.smime_distrust_after);
        w.put_u8(u8::from(self.ev_allowed));
    }

    fn decode(r: &mut Reader<'_>) -> Result<SystematicConstraints, RsfError> {
        Ok(SystematicConstraints {
            tls_distrust_after: r.get_opt_i64()?,
            smime_distrust_after: r.get_opt_i64()?,
            ev_allowed: r.get_u8()? != 0,
        })
    }
}

/// A GCC as it travels in a feed: source text plus metadata. Parsing and
/// checking happen on receipt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GccEntry {
    /// Display name.
    pub name: String,
    /// Datalog source.
    pub source: String,
    /// Justification summary.
    pub justification: String,
    /// Public-discussion link.
    pub discussion_url: String,
    /// Authoring timestamp.
    pub created_at: i64,
}

impl GccEntry {
    /// Capture a stored GCC.
    pub fn of(gcc: &Gcc) -> GccEntry {
        GccEntry {
            name: gcc.name().to_string(),
            source: gcc.source().to_string(),
            justification: gcc.metadata().justification.clone(),
            discussion_url: gcc.metadata().discussion_url.clone(),
            created_at: gcc.metadata().created_at,
        }
    }

    /// Parse and check into a [`Gcc`] targeted at `target`.
    pub fn to_gcc(&self, target: Digest) -> Result<Gcc, RsfError> {
        Ok(Gcc::parse(
            &self.name,
            target,
            &self.source,
            GccMetadata {
                justification: self.justification.clone(),
                discussion_url: self.discussion_url.clone(),
                created_at: self.created_at,
            },
        )?)
    }

    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        w.put_str(&self.source);
        w.put_str(&self.justification);
        w.put_str(&self.discussion_url);
        w.put_i64(self.created_at);
    }

    fn decode(r: &mut Reader<'_>) -> Result<GccEntry, RsfError> {
        Ok(GccEntry {
            name: r.field("gcc name").get_str()?.to_string(),
            source: r.field("gcc source").get_str()?.to_string(),
            justification: r.field("gcc justification").get_str()?.to_string(),
            discussion_url: r.field("gcc discussion url").get_str()?.to_string(),
            created_at: r.field("gcc created-at").get_i64()?,
        })
    }
}

/// One trusted root in a snapshot: certificate, systematic constraints
/// and attached GCCs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootEntry {
    /// The root certificate (DER travels on the wire).
    pub cert: Certificate,
    /// Systematic constraints.
    pub constraints: SystematicConstraints,
    /// Attached GCCs, sorted by source hash for canonical encoding.
    pub gccs: Vec<GccEntry>,
}

impl RootEntry {
    /// Capture a store record.
    pub fn of(record: &TrustRecord) -> RootEntry {
        let mut gccs: Vec<GccEntry> = record.gccs.iter().map(GccEntry::of).collect();
        gccs.sort_by(|a, b| a.source.cmp(&b.source));
        RootEntry {
            cert: record.cert.clone(),
            constraints: SystematicConstraints::of(record),
            gccs,
        }
    }

    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self.cert.to_der());
        self.constraints.encode(w);
        w.put_u32(self.gccs.len() as u32);
        for gcc in &self.gccs {
            gcc.encode(w);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<RootEntry, RsfError> {
        let cert = Certificate::from_der(r.field("root certificate").get_bytes()?)?;
        let constraints = SystematicConstraints::decode(r.field("systematic constraints"))?;
        let n = r.field("gcc count").get_u32()?;
        if n > 1024 {
            return Err(r.error("too many GCCs"));
        }
        let mut gccs = Vec::with_capacity(n as usize);
        for _ in 0..n {
            gccs.push(GccEntry::decode(r)?);
        }
        Ok(RootEntry {
            cert,
            constraints,
            gccs,
        })
    }

    /// Install this entry into a store (idempotent).
    pub fn install(&self, store: &mut RootStore) -> Result<(), RsfError> {
        store.add_trusted_overriding(self.cert.clone())?;
        let fp = self.cert.fingerprint();
        {
            let rec = store.record_mut(&fp).expect("just added");
            rec.tls_distrust_after = self.constraints.tls_distrust_after;
            rec.smime_distrust_after = self.constraints.smime_distrust_after;
            rec.ev_allowed = self.constraints.ev_allowed;
            rec.gccs.clear();
        }
        for entry in &self.gccs {
            let gcc = entry.to_gcc(fp)?;
            store.attach_gcc(gcc).expect("root present");
        }
        Ok(())
    }
}

/// A complete capture of a root store's state at a point in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The feed's name (e.g. `"nss"`).
    pub feed: String,
    /// Monotonic sequence number within the feed.
    pub sequence: u64,
    /// Publication time (Unix seconds).
    pub published_at: i64,
    /// Trusted roots, sorted by fingerprint.
    pub trusted: Vec<RootEntry>,
    /// Explicitly distrusted fingerprints with justifications, sorted.
    pub distrusted: Vec<(Digest, String)>,
    /// Free-form annotations (links to discussions etc.).
    pub annotations: Vec<String>,
}

impl Snapshot {
    /// Capture `store` as a snapshot.
    pub fn capture(feed: &str, sequence: u64, published_at: i64, store: &RootStore) -> Snapshot {
        let mut trusted: Vec<RootEntry> = store.iter().map(|(_, rec)| RootEntry::of(rec)).collect();
        trusted.sort_by_key(|e| e.cert.fingerprint());
        let mut distrusted: Vec<(Digest, String)> = store
            .iter_distrusted()
            .map(|(d, j)| (*d, j.to_string()))
            .collect();
        distrusted.sort_by_key(|(d, _)| *d);
        Snapshot {
            feed: feed.to_string(),
            sequence,
            published_at,
            trusted,
            distrusted,
            annotations: Vec::new(),
        }
    }

    /// Materialize the snapshot as a fresh store named `store_name`.
    pub fn materialize(&self, store_name: &str) -> Result<RootStore, RsfError> {
        let mut store = RootStore::new(store_name);
        for (fp, justification) in &self.distrusted {
            store.distrust(*fp, justification.clone());
        }
        for entry in &self.trusted {
            entry.install(&mut store)?;
        }
        Ok(store)
    }

    /// Canonical encoding (what gets signed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("RSF1-SNAP");
        w.put_str(&self.feed);
        w.put_u64(self.sequence);
        w.put_i64(self.published_at);
        w.put_u32(self.trusted.len() as u32);
        for entry in &self.trusted {
            entry.encode(&mut w);
        }
        w.put_u32(self.distrusted.len() as u32);
        for (fp, justification) in &self.distrusted {
            w.put_bytes(fp.as_bytes());
            w.put_str(justification);
        }
        w.put_u32(self.annotations.len() as u32);
        for a in &self.annotations {
            w.put_str(a);
        }
        w.finish()
    }

    /// Decode a canonical snapshot.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, RsfError> {
        let mut r = Reader::for_artifact(bytes, "snapshot");
        if r.field("magic").get_str()? != "RSF1-SNAP" {
            return Err(r.error("bad snapshot magic"));
        }
        let feed = r.field("feed name").get_str()?.to_string();
        let sequence = r.field("sequence").get_u64()?;
        let published_at = r.field("published-at").get_i64()?;
        let n = r.field("trusted count").get_u32()?;
        if n > 100_000 {
            return Err(r.error("too many roots"));
        }
        let mut trusted = Vec::with_capacity(n as usize);
        for _ in 0..n {
            trusted.push(RootEntry::decode(r.field("trusted entry"))?);
        }
        let n = r.field("distrusted count").get_u32()?;
        if n > 100_000 {
            return Err(r.error("too many distrusted roots"));
        }
        let mut distrusted = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let fp = digest_from(&mut r, "distrusted fingerprint")?;
            distrusted.push((fp, r.field("distrust justification").get_str()?.to_string()));
        }
        let n = r.field("annotation count").get_u32()?;
        if n > 100_000 {
            return Err(r.error("too many annotations"));
        }
        let mut annotations = Vec::with_capacity(n as usize);
        for _ in 0..n {
            annotations.push(r.field("annotation").get_str()?.to_string());
        }
        r.expect_end()?;
        Ok(Snapshot {
            feed,
            sequence,
            published_at,
            trusted,
            distrusted,
            annotations,
        })
    }
}

fn digest_from(r: &mut Reader<'_>, field: &'static str) -> Result<Digest, RsfError> {
    let bytes = r.field(field).get_bytes()?;
    let arr: [u8; 32] = bytes.try_into().map_err(|_| r.error("bad digest length"))?;
    Ok(Digest(arr))
}

/// The difference between two snapshots: what a derivative must apply to
/// move from `from_sequence` to `to_sequence`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Delta {
    /// Sequence this delta applies on top of.
    pub from_sequence: u64,
    /// Sequence after applying.
    pub to_sequence: u64,
    /// Publication time.
    pub published_at: i64,
    /// Roots added (or whose record changed — re-sent whole).
    pub upserted: Vec<RootEntry>,
    /// Roots removed *without* distrust (become Unknown).
    pub removed: Vec<Digest>,
    /// Roots explicitly distrusted, with justification.
    pub distrusted: Vec<(Digest, String)>,
}

impl Delta {
    /// Compute the delta between two stores (old → new).
    pub fn between(
        old: &RootStore,
        new: &RootStore,
        from_sequence: u64,
        to_sequence: u64,
        published_at: i64,
    ) -> Delta {
        let old_map: BTreeMap<Digest, RootEntry> = old
            .iter()
            .map(|(fp, rec)| (*fp, RootEntry::of(rec)))
            .collect();
        let new_map: BTreeMap<Digest, RootEntry> = new
            .iter()
            .map(|(fp, rec)| (*fp, RootEntry::of(rec)))
            .collect();
        let old_distrusted: BTreeMap<Digest, String> = old
            .iter_distrusted()
            .map(|(d, j)| (*d, j.to_string()))
            .collect();

        let mut upserted = Vec::new();
        for (fp, entry) in &new_map {
            if old_map.get(fp) != Some(entry) {
                upserted.push(entry.clone());
            }
        }
        let mut removed = Vec::new();
        let mut distrusted: Vec<(Digest, String)> = Vec::new();
        for (fp, justification) in new.iter_distrusted() {
            if !old_distrusted.contains_key(fp) {
                distrusted.push((*fp, justification.to_string()));
            }
        }
        for fp in old_map.keys() {
            if !new_map.contains_key(fp) && !distrusted.iter().any(|(d, _)| d == fp) {
                removed.push(*fp);
            }
        }
        Delta {
            from_sequence,
            to_sequence,
            published_at,
            upserted,
            removed,
            distrusted,
        }
    }

    /// Is there anything in this delta?
    pub fn is_empty(&self) -> bool {
        self.upserted.is_empty() && self.removed.is_empty() && self.distrusted.is_empty()
    }

    /// Apply to a store in place.
    pub fn apply(&self, store: &mut RootStore) -> Result<(), RsfError> {
        for fp in &self.removed {
            store.remove(fp);
        }
        for (fp, justification) in &self.distrusted {
            store.distrust(*fp, justification.clone());
        }
        for entry in &self.upserted {
            entry.install(store)?;
        }
        Ok(())
    }

    /// Canonical encoding (what gets signed).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_str("RSF1-DELTA");
        w.put_u64(self.from_sequence);
        w.put_u64(self.to_sequence);
        w.put_i64(self.published_at);
        w.put_u32(self.upserted.len() as u32);
        for entry in &self.upserted {
            entry.encode(&mut w);
        }
        w.put_u32(self.removed.len() as u32);
        for fp in &self.removed {
            w.put_bytes(fp.as_bytes());
        }
        w.put_u32(self.distrusted.len() as u32);
        for (fp, justification) in &self.distrusted {
            w.put_bytes(fp.as_bytes());
            w.put_str(justification);
        }
        w.finish()
    }

    /// Decode a canonical delta.
    pub fn decode(bytes: &[u8]) -> Result<Delta, RsfError> {
        let mut r = Reader::for_artifact(bytes, "delta");
        if r.field("magic").get_str()? != "RSF1-DELTA" {
            return Err(r.error("bad delta magic"));
        }
        let from_sequence = r.field("from-sequence").get_u64()?;
        let to_sequence = r.field("to-sequence").get_u64()?;
        let published_at = r.field("published-at").get_i64()?;
        let n = r.field("upsert count").get_u32()?;
        if n > 100_000 {
            return Err(r.error("too many upserts"));
        }
        let mut upserted = Vec::with_capacity(n as usize);
        for _ in 0..n {
            upserted.push(RootEntry::decode(r.field("upserted entry"))?);
        }
        let n = r.field("removal count").get_u32()?;
        if n > 100_000 {
            return Err(r.error("too many removals"));
        }
        let mut removed = Vec::with_capacity(n as usize);
        for _ in 0..n {
            removed.push(digest_from(&mut r, "removed fingerprint")?);
        }
        let n = r.field("distrust count").get_u32()?;
        if n > 100_000 {
            return Err(r.error("too many distrusts"));
        }
        let mut distrusted = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let fp = digest_from(&mut r, "distrusted fingerprint")?;
            distrusted.push((fp, r.field("distrust justification").get_str()?.to_string()));
        }
        r.expect_end()?;
        Ok(Delta {
            from_sequence,
            to_sequence,
            published_at,
            upserted,
            removed,
            distrusted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nrslb_rootstore::GccMetadata;
    use nrslb_x509::testutil::simple_chain;

    fn store_with_policy(tag: &str) -> RootStore {
        let pki = simple_chain(tag);
        let mut store = RootStore::new("primary");
        store.add_trusted(pki.root.clone()).unwrap();
        let fp = pki.root.fingerprint();
        {
            let rec = store.record_mut(&fp).unwrap();
            rec.tls_distrust_after = Some(1_669_784_400);
            rec.ev_allowed = false;
        }
        let gcc = Gcc::parse(
            "policy",
            fp,
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata {
                justification: "test".into(),
                discussion_url: "https://bugzilla.example/1".into(),
                created_at: 1_600_000_000,
            },
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();
        store.distrust(Digest([0xaa; 32]), "compromised");
        store
    }

    #[test]
    fn snapshot_roundtrip_preserves_everything() {
        let store = store_with_policy("snap.example");
        let snap = Snapshot::capture("nss", 7, 1_700_000_000, &store);
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);

        // Materializing reproduces the policy.
        let rebuilt = snap.materialize("derivative").unwrap();
        assert_eq!(rebuilt.len(), store.len());
        let fp = store.iter().next().unwrap().0;
        let rec = rebuilt.record(fp).unwrap();
        assert_eq!(rec.tls_distrust_after, Some(1_669_784_400));
        assert!(!rec.ev_allowed);
        assert_eq!(rec.gccs.len(), 1);
        assert_eq!(rec.gccs[0].name(), "policy");
        assert_eq!(
            rebuilt.status(&Digest([0xaa; 32])),
            nrslb_rootstore::TrustStatus::Distrusted
        );
    }

    #[test]
    fn snapshot_encoding_is_deterministic() {
        let store = store_with_policy("determ.example");
        let a = Snapshot::capture("nss", 1, 42, &store).encode();
        let b = Snapshot::capture("nss", 1, 42, &store.clone()).encode();
        assert_eq!(a, b);
    }

    #[test]
    fn delta_between_stores() {
        let old = store_with_policy("delta.example");
        let mut new = old.clone();
        // Change: distrust the existing root, add a new one.
        let old_fp = *old.iter().next().unwrap().0;
        new.distrust(old_fp, "incident response");
        let pki2 = simple_chain("delta2.example");
        new.add_trusted(pki2.root.clone()).unwrap();

        let delta = Delta::between(&old, &new, 1, 2, 100);
        assert_eq!(delta.upserted.len(), 1);
        assert_eq!(delta.distrusted.len(), 1);
        assert_eq!(delta.distrusted[0].0, old_fp);
        assert!(delta.removed.is_empty());

        // Applying the delta to the old store yields the new state.
        let mut applied = old.clone();
        delta.apply(&mut applied).unwrap();
        assert_eq!(
            applied.status(&old_fp),
            nrslb_rootstore::TrustStatus::Distrusted
        );
        assert_eq!(
            applied.status(&pki2.root.fingerprint()),
            nrslb_rootstore::TrustStatus::Trusted
        );
    }

    #[test]
    fn delta_detects_constraint_changes() {
        let old = store_with_policy("deltacon.example");
        let mut new = old.clone();
        let fp = *old.iter().next().unwrap().0;
        new.record_mut(&fp).unwrap().smime_distrust_after = Some(123);
        let delta = Delta::between(&old, &new, 1, 2, 100);
        assert_eq!(delta.upserted.len(), 1); // record re-sent
        let mut applied = old.clone();
        delta.apply(&mut applied).unwrap();
        assert_eq!(applied.record(&fp).unwrap().smime_distrust_after, Some(123));
    }

    #[test]
    fn empty_delta() {
        let store = store_with_policy("empty.example");
        let delta = Delta::between(&store, &store, 1, 2, 0);
        assert!(delta.is_empty());
        let bytes = delta.encode();
        assert_eq!(Delta::decode(&bytes).unwrap(), delta);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Snapshot::decode(b"nonsense").is_err());
        assert!(Delta::decode(b"").is_err());
        let snap = Snapshot::capture("x", 0, 0, &RootStore::new("s"));
        let mut bytes = snap.encode();
        bytes.push(0);
        assert!(Snapshot::decode(&bytes).is_err()); // trailing
    }

    #[test]
    fn feed_gcc_with_bad_program_rejected_on_receipt() {
        let pki = simple_chain("badgcc.example");
        let entry = RootEntry {
            cert: pki.root.clone(),
            constraints: SystematicConstraints {
                ev_allowed: true,
                ..Default::default()
            },
            gccs: vec![GccEntry {
                name: "evil".into(),
                source: "valid(C, U) :- leaf(C, X), \\+mystery(Y).".into(), // unsafe
                justification: String::new(),
                discussion_url: String::new(),
                created_at: 0,
            }],
        };
        let mut store = RootStore::new("victim");
        assert!(matches!(entry.install(&mut store), Err(RsfError::Gcc(_))));
    }
}

#[cfg(test)]
mod canonical_tests {
    use super::*;
    use nrslb_rootstore::{Gcc, GccMetadata};
    use nrslb_x509::testutil::simple_chain;

    /// Signing requires canonical bytes: stores with identical content
    /// reached through different operation orders must encode to
    /// identical snapshots.
    #[test]
    fn snapshot_encoding_is_order_independent() {
        let a = simple_chain("canon-a.example");
        let b = simple_chain("canon-b.example");
        let gcc1 = Gcc::parse(
            "g1",
            a.root.fingerprint(),
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        let gcc2 = Gcc::parse(
            "g2",
            a.root.fingerprint(),
            r#"valid(Chain, "S/MIME") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();

        // Store 1: a then b; gcc1 then gcc2.
        let mut s1 = RootStore::new("nss");
        s1.add_trusted(a.root.clone()).unwrap();
        s1.add_trusted(b.root.clone()).unwrap();
        s1.attach_gcc(gcc1.clone()).unwrap();
        s1.attach_gcc(gcc2.clone()).unwrap();
        s1.distrust(Digest([1; 32]), "x");
        s1.distrust(Digest([2; 32]), "y");

        // Store 2: reversed orders everywhere.
        let mut s2 = RootStore::new("nss");
        s2.distrust(Digest([2; 32]), "y");
        s2.distrust(Digest([1; 32]), "x");
        s2.add_trusted(b.root.clone()).unwrap();
        s2.add_trusted(a.root.clone()).unwrap();
        s2.attach_gcc(gcc2).unwrap();
        s2.attach_gcc(gcc1).unwrap();

        let snap1 = Snapshot::capture("nss", 1, 0, &s1);
        let snap2 = Snapshot::capture("nss", 1, 0, &s2);
        assert_eq!(snap1.encode(), snap2.encode());
    }

    /// A snapshot materialized into a store and re-captured encodes to
    /// the same bytes (capture/apply are inverses on canonical content).
    #[test]
    fn capture_apply_capture_is_stable() {
        let pki = simple_chain("canon-c.example");
        let mut store = RootStore::new("nss");
        store.add_trusted(pki.root.clone()).unwrap();
        store
            .record_mut(&pki.root.fingerprint())
            .unwrap()
            .ev_allowed = false;
        store
            .attach_gcc(
                Gcc::parse(
                    "g",
                    pki.root.fingerprint(),
                    "valid(Chain, _) :- leaf(Chain, _).",
                    GccMetadata {
                        justification: "j".into(),
                        discussion_url: "u".into(),
                        created_at: 7,
                    },
                )
                .unwrap(),
            )
            .unwrap();
        let snap = Snapshot::capture("nss", 3, 9, &store);
        let rebuilt = snap.materialize("other-name").unwrap();
        let snap2 = Snapshot::capture("nss", 3, 9, &rebuilt);
        assert_eq!(snap.encode(), snap2.encode());
    }
}
