//! Golden transcript of the feed distribution node's wire protocol.
//! A publisher built from fixed seeds and fixed timestamps backs the
//! node, so every signature it produces — and so every reply — is the
//! same from run to run. Scripted requests (valid polls whole and
//! dribbled in partial chunks, mid-stream garbage, oversized lengths,
//! truncated frames) run against the fresh feed and again after a
//! published delta, and each outcome is compared with the one checked
//! in at `tests/golden/feed_transcript.txt`: a reply, recorded by its
//! length and SHA-256 because signed replies run to several KB, or the
//! node hanging up (`EOF`). A subscriber then converges over the
//! socket, and its store and pinned checkpoint are pinned the same way.
//!
//! When a deliberate wire change alters the transcript, the failure
//! prints the observed one in the golden file's format.

use nrslb_crypto::sha256::sha256;
use nrslb_rootstore::RootStore;
use nrslb_rsf::{
    CoordinatorKey, FeedDistributionNode, FeedKey, FeedPublisher, FeedTrust, Snapshot, Subscriber,
};
use nrslb_x509::testutil::simple_chain;
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/feed_transcript.txt");

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "nrslb-transcript-{tag}-{}.sock",
        std::process::id()
    ))
}

/// The seeded publisher and the store it was built from.
fn publisher() -> (Arc<Mutex<FeedPublisher>>, RootStore) {
    let pki = simple_chain("parity.example");
    let mut store = RootStore::new("nss");
    store.add_trusted(pki.root.clone()).unwrap();
    let coordinator = CoordinatorKey::from_seed([7; 32], 4).unwrap();
    let key = FeedKey::new([8; 32], 8, &coordinator).unwrap();
    let publisher = FeedPublisher::new("nss", key, &store, 0).unwrap();
    (Arc::new(Mutex::new(publisher)), store)
}

fn trust() -> FeedTrust {
    FeedTrust::single(CoordinatorKey::from_seed([7; 32], 4).unwrap().public())
}

/// Distrust the store's one root and publish the delta at t=100.
fn publish_delta(publisher: &Mutex<FeedPublisher>, store: &mut RootStore) {
    let fp = *store.iter().next().unwrap().0;
    store.distrust(fp, "incident");
    publisher.lock().unwrap().publish(store, 100).unwrap();
}

fn encode_request(have_sequence: u64, have_checkpoint: u64) -> Vec<u8> {
    let mut req = Vec::with_capacity(24);
    req.extend_from_slice(b"RSFQ");
    req.extend_from_slice(&16u32.to_le_bytes());
    req.extend_from_slice(&have_sequence.to_le_bytes());
    req.extend_from_slice(&have_checkpoint.to_le_bytes());
    req
}

/// A reply frame as `len=N sha256=HEX`, or `EOF` for a hang-up. A
/// reset counts as a hang-up: a node that closes with unread bytes in
/// its receive buffer sends RST rather than FIN, and which one the
/// client sees is kernel timing, not protocol behaviour.
fn read_outcome(stream: &mut UnixStream) -> String {
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut head = [0u8; 8];
    let mut have = 0;
    while have < head.len() {
        match stream.read(&mut head[have..]) {
            Ok(0) => return "EOF".to_string(),
            Ok(n) => have += n,
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted
                ) =>
            {
                return "EOF".to_string()
            }
            Err(e) => panic!("reply header read failed: {e}"),
        }
    }
    assert_eq!(&head[..4], b"RSFR", "reply magic");
    let len = u32::from_le_bytes(head[4..].try_into().unwrap()) as usize;
    let mut body = vec![0u8; len];
    stream.read_exact(&mut body).expect("reply body");
    let mut frame = head.to_vec();
    frame.extend_from_slice(&body);
    format!("len={} sha256={}", frame.len(), sha256(&frame).to_hex())
}

fn send_request(
    stream: &mut UnixStream,
    bytes: &[u8],
    chunked: bool,
    truncate: bool,
) -> std::io::Result<()> {
    if chunked {
        for chunk in bytes.chunks(3) {
            stream.write_all(chunk)?;
            std::thread::yield_now();
        }
    } else {
        stream.write_all(bytes)?;
    }
    if truncate {
        stream.shutdown(Shutdown::Write)?;
    }
    Ok(())
}

/// One fresh-connection exchange. A node that rejects early may close
/// (or reset) while the request is still being written; that is itself
/// the hang-up outcome.
fn exchange(path: &Path, bytes: &[u8], chunked: bool, truncate: bool) -> String {
    let mut stream = UnixStream::connect(path).expect("connect");
    if send_request(&mut stream, bytes, chunked, truncate).is_err() {
        return "EOF".to_string();
    }
    read_outcome(&mut stream)
}

/// `(label, bytes, chunked, truncate)`: every shape of traffic the
/// node must answer the same way on every run.
fn script() -> Vec<(&'static str, Vec<u8>, bool, bool)> {
    vec![
        ("bootstrap", encode_request(0, 0), false, false),
        ("bootstrap-dribbled", encode_request(0, 0), true, false),
        ("ahead-of-feed", encode_request(7, 0), false, false),
        ("pinned-checkpoint", encode_request(0, 1), false, false),
        (
            "bad-magic",
            b"XXXX\x10\x00\x00\x00aaaaaaaaaaaaaaaa".to_vec(),
            false,
            true,
        ),
        (
            "bad-body-length",
            b"RSFQ\x08\x00\x00\x00aaaaaaaa".to_vec(),
            false,
            true,
        ),
        (
            "oversized-length",
            b"RSFQ\xff\xff\xff\xffaaaaaaaa".to_vec(),
            false,
            true,
        ),
        ("truncated-header", b"RS".to_vec(), false, true),
        (
            "truncated-body",
            encode_request(0, 0)[..12].to_vec(),
            false,
            true,
        ),
        ("header-only", b"RSFQ\x10\x00\x00\x00".to_vec(), false, true),
    ]
}

fn run_phase(node: &FeedDistributionNode, phase: &str, out: &mut String) {
    for (label, bytes, chunked, truncate) in script() {
        let outcome = exchange(node.socket_path(), &bytes, chunked, truncate);
        out.push_str(&format!("{phase}/{label}: {outcome}\n"));
    }
    // The same polls again, pipelined one after another on a single
    // kept-alive connection (close-provoking steps would end it).
    let mut stream = UnixStream::connect(node.socket_path()).unwrap();
    for (label, bytes, chunked, truncate) in script() {
        if truncate {
            continue;
        }
        send_request(&mut stream, &bytes, chunked, false).unwrap();
        let outcome = read_outcome(&mut stream);
        out.push_str(&format!("{phase}/keep-alive/{label}: {outcome}\n"));
    }
}

fn canonical(store: &RootStore) -> Vec<u8> {
    Snapshot::capture("cmp", 0, 0, store).encode()
}

fn check(observed: &str, golden: &[&str]) {
    assert!(
        observed.lines().eq(golden.iter().copied()),
        "observed transcript:\n{observed}"
    );
}

fn golden(prefix: &str) -> Vec<&'static str> {
    GOLDEN.lines().filter(|l| l.starts_with(prefix)).collect()
}

#[test]
fn node_replies_match_the_golden_transcript() {
    let (publisher, mut store) = publisher();
    let node = FeedDistributionNode::spawn_with(Arc::clone(&publisher), socket_path("node"), 2, 2)
        .unwrap();
    let mut observed = String::new();
    // Phase 1: the fresh feed (snapshot-only history).
    run_phase(&node, "fresh", &mut observed);
    // Phase 2: post-delta history (messages, proofs over a grown log).
    publish_delta(&publisher, &mut store);
    run_phase(&node, "delta", &mut observed);
    let fresh: Vec<&str> = observed
        .lines()
        .filter(|l| l.starts_with("fresh/"))
        .collect();
    let delta: Vec<&str> = observed
        .lines()
        .filter(|l| l.starts_with("delta/"))
        .collect();
    assert_ne!(
        fresh[0].split(": ").nth(1),
        delta[0].split(": ").nth(1),
        "the delta must change the bootstrap reply"
    );
    let mut golden_lines = golden("fresh/");
    golden_lines.extend(golden("delta/"));
    check(&observed, &golden_lines);
}

/// A real subscriber synced over the socket converges on the
/// publisher's store and checkpoint — and on the pinned transcript.
#[test]
fn subscriber_converges_over_the_socket() {
    let (publisher, mut store) = publisher();
    let node = FeedDistributionNode::spawn_with(Arc::clone(&publisher), socket_path("conv"), 2, 2)
        .unwrap();
    let mut subscriber = Subscriber::builder("remote", trust()).connect(node.socket_path());
    assert!(subscriber.sync(0).unwrap().report.snapshot_applied);
    publish_delta(&publisher, &mut store);
    assert_eq!(subscriber.sync(10).unwrap().report.deltas_applied, 1);

    let pinned = subscriber
        .subscriber()
        .pinned_checkpoint()
        .expect("checkpoint pinned")
        .encode();
    assert_eq!(canonical(subscriber.store()), canonical(&store));
    assert_eq!(
        pinned,
        publisher.lock().unwrap().checkpoint().unwrap().encode()
    );

    let observed = format!(
        "converge/sequence: {}\nconverge/store: sha256={}\nconverge/checkpoint: sha256={}\n",
        subscriber.sequence(),
        sha256(canonical(subscriber.store())).to_hex(),
        sha256(&pinned).to_hex(),
    );
    check(&observed, &golden("converge/"));
}
