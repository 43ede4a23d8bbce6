//! Workspace-level property-based tests (proptest) on the core data
//! structures and invariants.

use nrslb::crypto::merkle::{leaf_hash, verify_inclusion, MerkleTree};
use nrslb::crypto::{hex, sha256};
use nrslb::datalog::{CompiledProgram, Database, Program, Val};
use nrslb::der::{decode, encode, Oid, Value};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// DER
// ---------------------------------------------------------------------

/// Strategy for arbitrary DER value trees of bounded depth.
fn der_value(depth: u32) -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<bool>().prop_map(Value::Boolean),
        any::<i64>().prop_map(|i| Value::Integer(i as i128)),
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Value::OctetString),
        Just(Value::Null),
        proptest::collection::vec(0u64..10_000, 2..6).prop_map(|mut arcs| {
            // First two arcs are range-limited by X.690.
            arcs[0] %= 3;
            if arcs[0] < 2 {
                arcs[1] %= 40;
            }
            Value::Oid(Oid(arcs))
        }),
        "[a-zA-Z0-9 .-]{0,24}".prop_map(Value::PrintableString),
        "[ -~]{0,24}".prop_map(Value::Ia5String),
        any::<String>().prop_map(Value::Utf8String),
        // Timestamps within GeneralizedTime's year range.
        (-60_000_000_000i64..250_000_000_000).prop_map(Value::GeneralizedTime),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..32))
            .prop_map(|(n, bytes)| Value::ContextPrimitive(n % 31, bytes)),
    ];
    leaf.prop_recursive(depth, 64, 6, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..6).prop_map(Value::Sequence),
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Set),
            (any::<u8>(), proptest::collection::vec(inner, 0..4))
                .prop_map(|(n, items)| Value::ContextConstructed(n % 31, items)),
        ]
    })
}

proptest! {
    #[test]
    fn der_roundtrip(value in der_value(3)) {
        let bytes = encode(&value);
        let back = decode(&bytes).expect("encoder output always decodes");
        prop_assert_eq!(back, value);
    }

    #[test]
    fn der_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode(&bytes);
    }

    #[test]
    fn der_encoding_is_canonical(value in der_value(3)) {
        // decode(encode(v)) re-encodes to identical bytes.
        let bytes = encode(&value);
        let back = decode(&bytes).unwrap();
        prop_assert_eq!(encode(&back), bytes);
    }
}

// ---------------------------------------------------------------------
// Crypto
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn sha256_incremental_equals_oneshot(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        split in 0usize..512,
    ) {
        let split = split.min(data.len());
        let mut h = nrslb::crypto::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    #[test]
    fn hex_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    #[test]
    fn merkle_inclusion_all_leaves(entries in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..16), 1..24)) {
        let mut tree = MerkleTree::new();
        for e in &entries {
            tree.push(e);
        }
        let n = entries.len() as u64;
        let root = tree.root();
        for (i, e) in entries.iter().enumerate() {
            let proof = tree.prove_inclusion(i as u64, n).unwrap();
            prop_assert!(verify_inclusion(&leaf_hash(e), &proof, &root).is_ok());
        }
    }

    #[test]
    fn merkle_proofs_reject_cross_leaf(
        entries in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..8), 2..12),
        a in 0usize..12, b in 0usize..12,
    ) {
        let a = a % entries.len();
        let b = b % entries.len();
        prop_assume!(a != b && entries[a] != entries[b]);
        let mut tree = MerkleTree::new();
        for e in &entries {
            tree.push(e);
        }
        let root = tree.root();
        let proof = tree.prove_inclusion(a as u64, entries.len() as u64).unwrap();
        prop_assert!(verify_inclusion(&leaf_hash(&entries[b]), &proof, &root).is_err());
    }
}

// ---------------------------------------------------------------------
// Hash-based signatures
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn hbs_sign_verify_and_tamper(seed in any::<[u8; 32]>(), msg in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut kp = nrslb::crypto::Keypair::from_seed(seed, 2).unwrap();
        let pk = kp.public();
        let sig = kp.sign(&msg).unwrap();
        prop_assert!(nrslb::crypto::hbs::verify(&pk, &msg, &sig).is_ok());
        // Any single-bit flip in the message must invalidate.
        let mut tampered = msg.clone();
        if tampered.is_empty() {
            tampered.push(1);
        } else {
            tampered[0] ^= 1;
        }
        prop_assert!(nrslb::crypto::hbs::verify(&pk, &tampered, &sig).is_err());
    }
}

// ---------------------------------------------------------------------
// Datalog
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn datalog_fact_text_roundtrip(
        facts in proptest::collection::vec(
            ("[a-z][a-zA-Z0-9]{0,8}", proptest::collection::vec(
                prop_oneof![
                    any::<i64>().prop_map(Val::Int),
                    "[ -~]{0,16}".prop_map(Val::str),
                ], 1..4)),
            0..20),
    ) {
        let mut db = Database::new();
        for (pred, tuple) in &facts {
            db.add_fact(pred.as_str(), tuple.clone());
        }
        let text = db.to_fact_text();
        let program = Program::parse(&text).expect("fact text parses");
        let rebuilt = CompiledProgram::compile(&program)
            .unwrap()
            .run(Database::new())
            .unwrap();
        prop_assert_eq!(rebuilt.len(), db.len());
        for (pred, tuple) in &facts {
            prop_assert!(rebuilt.contains(pred, tuple));
        }
    }

    #[test]
    fn datalog_parser_never_panics(src in "[ -~\\n]{0,200}") {
        let _ = Program::parse(&src);
    }

    #[test]
    fn transitive_closure_matches_reference(
        edges in proptest::collection::vec((0u8..12, 0u8..12), 0..30),
    ) {
        // Reference: Floyd-Warshall over the same edges.
        let mut reach = [[false; 12]; 12];
        for &(a, b) in &edges {
            reach[a as usize][b as usize] = true;
        }
        for k in 0..12 {
            for i in 0..12 {
                for j in 0..12 {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        let mut db = Database::new();
        for &(a, b) in &edges {
            db.add_fact("edge", vec![Val::int(a as i64), Val::int(b as i64)]);
        }
        let program = Program::parse(
            "reach(X,Y) :- edge(X,Y). reach(X,Z) :- reach(X,Y), edge(Y,Z).",
        ).unwrap();
        let out = CompiledProgram::compile(&program).unwrap().run(db).unwrap();
        for i in 0..12i64 {
            for j in 0..12i64 {
                prop_assert_eq!(
                    out.contains("reach", &[Val::int(i), Val::int(j)]),
                    reach[i as usize][j as usize],
                    "reach({}, {})", i, j
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// DNS name matching
// ---------------------------------------------------------------------

proptest! {
    #[test]
    fn subtree_membership_is_suffix_consistent(
        labels in proptest::collection::vec("[a-z]{1,5}", 1..5),
        extra in proptest::collection::vec("[a-z]{1,5}", 0..3),
    ) {
        use nrslb::x509::name::{in_subtree, DotSemantics};
        let base = labels.join(".");
        let name = if extra.is_empty() {
            base.clone()
        } else {
            format!("{}.{}", extra.join("."), base)
        };
        // Any name formed by prepending labels to the base is in the
        // RFC 5280 subtree.
        prop_assert!(in_subtree(&name, &base, DotSemantics::Rfc5280));
        // A name with a mutated last label is not.
        let mut outside_labels = labels.clone();
        let last = outside_labels.last_mut().unwrap();
        *last = format!("{last}x");
        let outside = outside_labels.join(".");
        prop_assert!(!in_subtree(&outside, &base, DotSemantics::Rfc5280));
    }
}
