//! Reactor torture: 512 concurrent keep-alive clients hammering one
//! reactor daemon with deliberately hostile I/O — every frame written
//! in randomized partial chunks, every reply read in randomized partial
//! chunks — interleaved with recoverable malformed frames. The
//! invariants are exact: every request gets exactly one byte-correct
//! reply, the request/error counters land on the precise totals, and
//! every per-loop connection gauge returns to zero after the clients
//! hang up.

use nrslb_core::daemon::{ephemeral_socket_path, TrustDaemon};
use nrslb_rootstore::{Gcc, GccMetadata, RootStore};
use nrslb_x509::testutil::simple_chain;
use rand::prelude::*;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

const CLIENTS: usize = 512;
const GOOD_PER_CLIENT: usize = 4;

const OP_EVALUATE: u8 = 1;
const STATUS_OK: u8 = 0;
const STATUS_ERR: u8 = 1;

/// Write `bytes` in random-sized slices, occasionally yielding so the
/// reactor observes genuinely partial frames.
fn chunked_write(stream: &mut UnixStream, bytes: &[u8], rng: &mut StdRng) {
    let mut off = 0;
    while off < bytes.len() {
        let n = rng.gen_range(1usize..65).min(bytes.len() - off);
        stream.write_all(&bytes[off..off + n]).unwrap();
        off += n;
        if rng.gen_range(0u32..16) == 0 {
            std::thread::yield_now();
        }
    }
    stream.flush().unwrap();
}

/// Read exactly `n` bytes, but pull them off the socket in random-sized
/// slices so the client, too, drains replies partially.
fn chunked_read(stream: &mut UnixStream, n: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut out = vec![0u8; n];
    let mut have = 0;
    while have < n {
        let want = rng.gen_range(1usize..49).min(n - have);
        let got = stream.read(&mut out[have..have + want]).unwrap();
        assert!(got > 0, "daemon closed the connection mid-reply");
        have += got;
    }
    out
}

/// Read one reply frame (status + payload) with chunked reads. Only the
/// two shapes this test provokes are supported: an evaluate verdict
/// list and an error string.
fn read_reply(stream: &mut UnixStream, rng: &mut StdRng) -> Vec<u8> {
    let mut reply = chunked_read(stream, 1, rng);
    match reply[0] {
        STATUS_ERR => {
            let len_bytes = chunked_read(stream, 4, rng);
            let len = u32::from_le_bytes(len_bytes.clone().try_into().unwrap()) as usize;
            reply.extend_from_slice(&len_bytes);
            reply.extend_from_slice(&chunked_read(stream, len, rng));
        }
        STATUS_OK => {
            let n_bytes = chunked_read(stream, 4, rng);
            let n = u32::from_le_bytes(n_bytes.clone().try_into().unwrap());
            reply.extend_from_slice(&n_bytes);
            for _ in 0..n {
                let head = chunked_read(stream, 5, rng);
                let len = u32::from_le_bytes(head[1..5].try_into().unwrap()) as usize;
                reply.extend_from_slice(&head);
                reply.extend_from_slice(&chunked_read(stream, len, rng));
            }
        }
        other => panic!("bad status byte {other}"),
    }
    reply
}

fn evaluate_frame(raw_usage: u8, ders: &[Vec<u8>]) -> Vec<u8> {
    let mut frame = vec![OP_EVALUATE, raw_usage];
    frame.extend_from_slice(&(ders.len() as u32).to_le_bytes());
    for der in ders {
        frame.extend_from_slice(&(der.len() as u32).to_le_bytes());
        frame.extend_from_slice(der);
    }
    frame
}

fn gauge_sum(metrics: &str, name: &str) -> i64 {
    metrics
        .lines()
        .filter(|l| l.starts_with(name) && !l.starts_with('#'))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<i64>().ok())
        .sum()
}

#[test]
fn five_hundred_twelve_keep_alive_clients_with_partial_io() {
    let pki = simple_chain("torture.example");
    let mut store = RootStore::new("torture");
    store.add_trusted(pki.root.clone()).unwrap();
    store
        .attach_gcc(
            Gcc::parse(
                "tls-only",
                pki.root.fingerprint(),
                r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
                GccMetadata::default(),
            )
            .unwrap(),
        )
        .unwrap();

    let daemon = TrustDaemon::builder()
        .socket(ephemeral_socket_path("torture"))
        .event_loops(2)
        .workers(2)
        .spawn(store)
        .unwrap();

    let ders: Vec<Vec<u8>> = [&pki.leaf, &pki.intermediate, &pki.root]
        .iter()
        .map(|c| c.to_der().to_vec())
        .collect();
    let good = evaluate_frame(0, &ders);
    let bad = evaluate_frame(9, &ders);

    // Reference replies, captured once over a plain connection.
    let mut probe = UnixStream::connect(daemon.socket_path()).unwrap();
    let mut probe_rng = StdRng::seed_from_u64(0);
    probe.write_all(&good).unwrap();
    let expect_good = read_reply(&mut probe, &mut probe_rng);
    assert_eq!(expect_good[0], STATUS_OK);
    probe.write_all(&bad).unwrap();
    let expect_bad = read_reply(&mut probe, &mut probe_rng);
    assert_eq!(expect_bad[0], STATUS_ERR);
    drop(probe);

    let socket = daemon.socket_path().to_path_buf();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|i| {
            let socket = socket.clone();
            let good = good.clone();
            let bad = bad.clone();
            let expect_good = expect_good.clone();
            let expect_bad = expect_bad.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xBAD5EED ^ i as u64);
                let mut stream = UnixStream::connect(&socket).unwrap();
                // Slot one recoverable-malformed frame in among the
                // good ones at a random position; every client keeps
                // its connection alive across all of them.
                let mut plan = vec![true; GOOD_PER_CLIENT];
                plan.insert(rng.gen_range(0usize..plan.len() + 1), false);
                for ok in plan {
                    let (frame, expect) = if ok {
                        (&good, &expect_good)
                    } else {
                        (&bad, &expect_bad)
                    };
                    chunked_write(&mut stream, frame, &mut rng);
                    let reply = read_reply(&mut stream, &mut rng);
                    assert_eq!(&reply, expect, "client {i}: wrong reply");
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    // Exactly one reply per request, and the daemon counted each one:
    // 512×4 good + 512 malformed + the 2 probe requests.
    let expected_total = (CLIENTS * (GOOD_PER_CLIENT + 1) + 2) as i64;
    let expected_errors = (CLIENTS + 1) as i64;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let text = daemon.render_metrics();
        let total = gauge_sum(&text, "nrslb_daemon_requests_total");
        let errors = gauge_sum(&text, "nrslb_daemon_request_errors_total");
        let open = gauge_sum(&text, "nrslb_reactor_connections{");
        assert_eq!(total, expected_total, "requests_total must be exact");
        assert_eq!(
            errors, expected_errors,
            "request_errors_total must be exact"
        );
        // Connection teardown is asynchronous (the loops still have to
        // see EOF), so only the gauge gets a grace period.
        if open == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connections gauge stuck at {open}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Raise this process's soft `RLIMIT_NOFILE` to its hard limit (no
/// libc crate in the offline workspace) and return the soft limit now
/// in force.
fn raise_nofile_limit() -> u64 {
    #[repr(C)]
    struct Rlimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable Rlimit; the call fills it.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    if lim.cur < lim.max {
        let want = Rlimit {
            cur: lim.max,
            max: lim.max,
        };
        // SAFETY: `want` is a valid Rlimit; failure leaves limits as-is.
        if unsafe { setrlimit(RLIMIT_NOFILE, &want) } == 0 {
            lim.cur = lim.max;
        }
    }
    lim.cur
}

/// Liveness at 1,024 concurrent keep-alive connections, all driven
/// from this one thread: every connection is open at once, and each
/// completes one byte-correct round trip.
#[test]
fn thousand_connections_each_complete_a_round_trip_from_one_thread() {
    const CONNECTIONS: usize = 1024;
    // Client and daemon ends of every connection live in this process.
    let limit = raise_nofile_limit();
    assert!(
        limit >= (2 * CONNECTIONS + 256) as u64,
        "RLIMIT_NOFILE {limit} cannot hold {CONNECTIONS} connections"
    );
    let pki = simple_chain("liveness.example");
    let mut store = RootStore::new("liveness");
    store.add_trusted(pki.root.clone()).unwrap();
    store
        .attach_gcc(
            Gcc::parse(
                "tls-only",
                pki.root.fingerprint(),
                r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
                GccMetadata::default(),
            )
            .unwrap(),
        )
        .unwrap();
    let daemon = TrustDaemon::builder()
        .socket(ephemeral_socket_path("liveness"))
        .event_loops(2)
        .workers(2)
        .spawn(store)
        .unwrap();
    let ders: Vec<Vec<u8>> = [&pki.leaf, &pki.intermediate, &pki.root]
        .iter()
        .map(|c| c.to_der().to_vec())
        .collect();
    let request = evaluate_frame(0, &ders);
    // accepted, one verdict, "tls-only"
    let mut expected = vec![STATUS_OK, 1, 0, 0, 0, 1, 8, 0, 0, 0];
    expected.extend_from_slice(b"tls-only");

    let mut streams: Vec<UnixStream> = (0..CONNECTIONS)
        .map(|_| UnixStream::connect(daemon.socket_path()).unwrap())
        .collect();
    for stream in &mut streams {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(&request).unwrap();
    }
    for (i, stream) in streams.iter_mut().enumerate() {
        let mut reply = vec![0u8; expected.len()];
        stream.read_exact(&mut reply).unwrap();
        assert_eq!(reply, expected, "connection {i}: wrong reply");
    }

    let total = gauge_sum(&daemon.render_metrics(), "nrslb_daemon_requests_total");
    assert_eq!(total, CONNECTIONS as i64);
}
