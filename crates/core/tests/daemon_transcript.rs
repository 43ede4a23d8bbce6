//! Golden transcript of the trust daemon's wire protocol. Scripted raw
//! frames go over real sockets — no client-library smoothing — and
//! every outcome is compared with the literal reply bytes checked in at
//! `tests/golden/daemon_transcript.txt`: whole and dribbled requests,
//! pipelined bursts, a recoverable malformed frame mid-stream, fatal
//! frames, oversize length fields, and truncated headers and bodies.
//! A hang-up is an expected outcome too (`EOF`).
//!
//! The store, chain and GCC are deterministic (`simple_chain` derives
//! every key from the host name), so the transcript is stable across
//! runs. When a deliberate protocol change alters it, the failure
//! prints the observed transcript in the golden file's format.

use nrslb_core::daemon::{ephemeral_socket_path, TrustDaemon};
use nrslb_crypto::hex;
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_x509::testutil::simple_chain;
use nrslb_x509::Certificate;
use std::io::{ErrorKind, Read, Write};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::time::Duration;

const GOLDEN: &str = include_str!("golden/daemon_transcript.txt");

const OP_EVALUATE: u8 = 1;
const OP_METRICS: u8 = 2;
const OP_EVALUATE_BATCH: u8 = 3;
const STATUS_OK: u8 = 0;
const TLS: u8 = 0;
const SMIME: u8 = 1;

fn tls_gated_store() -> (RootStore, Vec<Certificate>) {
    let pki = simple_chain("transcript.example");
    let mut store = RootStore::new("transcript");
    store.add_trusted(pki.root.clone()).unwrap();
    let gcc = Gcc::parse(
        "tls-only",
        pki.root.fingerprint(),
        r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
        GccMetadata::default(),
    )
    .unwrap();
    store.attach_gcc(gcc).unwrap();
    (store, vec![pki.leaf, pki.intermediate, pki.root])
}

fn spawn(store: RootStore, tag: &str) -> TrustDaemon {
    TrustDaemon::builder()
        .socket(ephemeral_socket_path(tag))
        .workers(2)
        .event_loops(2)
        .spawn(store)
        .unwrap()
}

/// Raw `evaluate` body with an arbitrary usage byte (valid or not).
fn evaluate_body(raw_usage: u8, ders: &[&[u8]]) -> Vec<u8> {
    let mut body = vec![raw_usage];
    body.extend_from_slice(&(ders.len() as u32).to_le_bytes());
    for der in ders {
        body.extend_from_slice(&(der.len() as u32).to_le_bytes());
        body.extend_from_slice(der);
    }
    body
}

fn evaluate(raw_usage: u8, ders: &[&[u8]]) -> Vec<u8> {
    [vec![OP_EVALUATE], evaluate_body(raw_usage, ders)].concat()
}

fn batch(items: &[(u8, &[&[u8]])]) -> Vec<u8> {
    let mut frame = vec![OP_EVALUATE_BATCH];
    frame.extend_from_slice(&(items.len() as u32).to_le_bytes());
    for (raw_usage, ders) in items {
        frame.extend_from_slice(&evaluate_body(*raw_usage, ders));
    }
    frame
}

/// How a step's frames reach the socket.
#[derive(Clone, Copy)]
enum Delivery {
    /// Each frame in one write.
    Whole,
    /// 3-byte writes with yields in between, so the daemon sees
    /// partial frames.
    Dribble,
    /// Every frame of the step in one write (a pipelined burst).
    Burst,
    /// One write, then a half-close: the request ends mid-frame.
    Truncated,
}

type Step = (&'static str, Delivery, Vec<Vec<u8>>);

/// Every scripted session: each runs on its own connection, and its
/// last step also records whether the daemon hung up (`EOF`) or kept
/// serving (`OPEN`).
fn sessions(chain: &[Certificate]) -> Vec<(&'static str, Vec<Step>)> {
    use Delivery::*;
    let ders: Vec<&[u8]> = chain.iter().map(|c| c.to_der()).collect();
    let ders = ders.as_slice();
    let tls = evaluate(TLS, ders);
    let smime = evaluate(SMIME, ders);
    let bad_usage = evaluate(9, ders);
    let header = |op: u8, counts: &[u32]| {
        let mut frame = vec![op];
        if op == OP_EVALUATE {
            frame.push(TLS);
        }
        for n in counts {
            frame.extend_from_slice(&n.to_le_bytes());
        }
        frame
    };
    vec![
        (
            "keepalive",
            vec![
                ("tls", Whole, vec![tls.clone()]),
                ("smime", Whole, vec![smime.clone()]),
                // Delimitable but invalid: an error reply, and the
                // connection keeps serving.
                ("bad-usage", Whole, vec![bad_usage.clone()]),
                ("tls-after-error", Whole, vec![tls.clone()]),
                // Duplicate items exercise the batch dedup path.
                (
                    "batch-with-duplicates",
                    Whole,
                    vec![batch(&[(TLS, ders), (TLS, ders), (SMIME, ders)])],
                ),
                // One bad item fails the whole (fully consumed) frame.
                (
                    "batch-bad-item",
                    Whole,
                    vec![batch(&[(TLS, ders), (7, ders)])],
                ),
                ("empty-batch", Whole, vec![batch(&[])]),
                // A frame that delimits but holds no certificate fails
                // at execution time; the connection survives.
                ("bad-der", Whole, vec![evaluate(TLS, &[&[1, 2, 3]])]),
                ("smime-again", Whole, vec![smime.clone()]),
            ],
        ),
        (
            "dribbled",
            vec![
                ("tls", Dribble, vec![tls.clone()]),
                ("bad-usage", Dribble, vec![bad_usage.clone()]),
                ("smime", Dribble, vec![smime.clone()]),
            ],
        ),
        (
            "pipelined",
            vec![(
                "burst",
                Burst,
                vec![tls.clone(), smime, bad_usage, tls.clone()],
            )],
        ),
        (
            "fatal-opcode",
            vec![
                ("tls", Whole, vec![tls.clone()]),
                ("opcode-77", Whole, vec![vec![77]]),
            ],
        ),
        (
            "fatal-chain-length",
            vec![("65-certs", Whole, vec![header(OP_EVALUATE, &[65])])],
        ),
        (
            "fatal-cert-length",
            vec![("u32-max", Whole, vec![header(OP_EVALUATE, &[1, u32::MAX])])],
        ),
        (
            "fatal-batch-length",
            vec![("257-items", Whole, vec![header(OP_EVALUATE_BATCH, &[257])])],
        ),
        (
            "truncated-header",
            vec![("usage-only", Truncated, vec![vec![OP_EVALUATE, TLS]])],
        ),
        (
            "truncated-body",
            vec![("half-frame", Truncated, vec![tls[..tls.len() / 2].to_vec()])],
        ),
    ]
}

/// Append exactly `n` bytes from the stream to `reply`; `None` if the
/// daemon hung up first.
fn take(stream: &mut UnixStream, n: usize, reply: &mut Vec<u8>) -> Option<()> {
    let start = reply.len();
    reply.resize(start + n, 0);
    match stream.read_exact(&mut reply[start..]) {
        Ok(()) => Some(()),
        Err(e)
            if matches!(
                e.kind(),
                ErrorKind::UnexpectedEof | ErrorKind::ConnectionReset
            ) =>
        {
            None
        }
        Err(e) => panic!("reply read failed: {e}"),
    }
}

fn take_u32(stream: &mut UnixStream, reply: &mut Vec<u8>) -> Option<u32> {
    take(stream, 4, reply)?;
    Some(u32::from_le_bytes(
        reply[reply.len() - 4..].try_into().unwrap(),
    ))
}

fn take_verdicts(stream: &mut UnixStream, reply: &mut Vec<u8>) -> Option<()> {
    for _ in 0..take_u32(stream, reply)? {
        take(stream, 1, reply)?;
        let len = take_u32(stream, reply)?;
        take(stream, len as usize, reply)?;
    }
    Some(())
}

/// Read one reply frame using only the framing rules (`opcode` picks
/// the ok-payload shape); `None` when the daemon hung up first.
fn read_reply(stream: &mut UnixStream, opcode: u8) -> Option<Vec<u8>> {
    let mut reply = Vec::new();
    take(stream, 1, &mut reply)?;
    match (reply[0], opcode) {
        (STATUS_OK, OP_EVALUATE) => take_verdicts(stream, &mut reply)?,
        (STATUS_OK, OP_EVALUATE_BATCH) => {
            for _ in 0..take_u32(stream, &mut reply)? {
                take_verdicts(stream, &mut reply)?;
            }
        }
        // Errors, and metrics, are one length-prefixed block.
        _ => {
            let len = take_u32(stream, &mut reply)?;
            take(stream, len as usize, &mut reply)?;
        }
    }
    Some(reply)
}

/// `EOF` if the daemon closed the connection, `OPEN` if it is still
/// waiting for the next request.
fn probe_close(stream: &mut UnixStream) -> &'static str {
    let timeout = Some(Duration::from_millis(300));
    stream.set_read_timeout(timeout).unwrap();
    match stream.read(&mut [0u8; 1]) {
        Ok(0) => "EOF",
        Ok(_) => panic!("unsolicited bytes after the replies"),
        Err(e) if e.kind() == ErrorKind::ConnectionReset => "EOF",
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => "OPEN",
        Err(e) => panic!("close probe failed: {e}"),
    }
}

fn send(stream: &mut UnixStream, send: Delivery, frames: &[Vec<u8>]) -> std::io::Result<()> {
    match send {
        Delivery::Dribble => {
            for chunk in frames.concat().chunks(3) {
                stream.write_all(chunk)?;
                std::thread::yield_now();
            }
        }
        Delivery::Burst | Delivery::Truncated => stream.write_all(&frames.concat())?,
        Delivery::Whole => {
            for frame in frames {
                stream.write_all(frame)?;
            }
        }
    }
    if matches!(send, Delivery::Truncated) {
        stream.shutdown(Shutdown::Write)?;
    }
    Ok(())
}

/// Run one session on a fresh connection; one transcript line per step.
fn run_session(daemon: &TrustDaemon, name: &str, steps: &[Step], out: &mut String) {
    let mut stream = UnixStream::connect(daemon.socket_path()).unwrap();
    for (i, (label, how, frames)) in steps.iter().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut tokens = Vec::new();
        let mut closed = send(&mut stream, *how, frames).is_err();
        for frame in frames {
            if closed {
                break;
            }
            match read_reply(&mut stream, frame[0]) {
                Some(reply) => tokens.push(hex::encode(&reply)),
                None => closed = true,
            }
        }
        if closed {
            tokens.push("EOF".to_string());
        } else if i + 1 == steps.len() {
            tokens.push(probe_close(&mut stream).to_string());
        }
        out.push_str(&format!("{name}/{label}: {}\n", tokens.join(" ")));
    }
}

fn observed_transcript(daemon: &TrustDaemon, chain: &[Certificate]) -> String {
    let mut out = String::new();
    for (name, steps) in sessions(chain) {
        run_session(daemon, name, &steps, &mut out);
    }
    out
}

#[test]
fn daemon_replies_match_the_golden_transcript() {
    let (store, chain) = tls_gated_store();
    let daemon = spawn(store, "transcript");
    let observed = observed_transcript(&daemon, &chain);
    let golden: Vec<&str> = GOLDEN.lines().filter(|l| !l.starts_with('#')).collect();
    assert!(
        observed.lines().eq(golden),
        "observed transcript:\n{observed}"
    );
}

/// Replaying the transcript on the same daemon, now with warm caches
/// (so warm requests ride the inline path), yields the same bytes.
#[test]
fn warm_replay_matches_the_cold_transcript() {
    let (store, chain) = tls_gated_store();
    let daemon = spawn(store, "transcript-warm");
    let cold = observed_transcript(&daemon, &chain);
    assert_eq!(observed_transcript(&daemon, &chain), cold);
}

/// Metrics payloads vary from run to run, so they are not in the
/// transcript: the opcode must answer a well-formed exposition that
/// counted the malformed frame (the scrape counts itself too).
#[test]
fn metrics_opcode_counts_the_malformed_frame() {
    let (store, chain) = tls_gated_store();
    let daemon = spawn(store, "transcript-metrics");
    let (_, keepalive) = sessions(&chain).swap_remove(0);
    // tls, smime, bad-usage, tls-after-error
    run_session(&daemon, "keepalive", &keepalive[..4], &mut String::new());
    let mut stream = UnixStream::connect(daemon.socket_path()).unwrap();
    stream.write_all(&[OP_METRICS]).unwrap();
    let reply = read_reply(&mut stream, OP_METRICS).unwrap();
    assert_eq!(reply[0], STATUS_OK);
    let text = String::from_utf8(reply[5..].to_vec()).unwrap();
    for series in [
        "nrslb_daemon_requests_total 5",
        "nrslb_daemon_request_errors_total 1",
        "nrslb_reactor_connections{loop=\"0\"}",
    ] {
        assert!(text.contains(series), "{series} missing from {text}");
    }
}
