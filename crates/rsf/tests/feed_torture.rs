//! Distribution-node torture: 512 concurrent keep-alive subscriber
//! connections hammering one [`FeedDistributionNode`] with hostile I/O
//! — every request written in randomized partial chunks, every reply
//! drained in randomized partial chunks — while all 512 connections are
//! provably resident at once. The invariants are exact: every poll gets
//! one well-formed RSFR reply, the per-loop connection gauges account
//! for every resident connection, idle re-polls land on the inline
//! path, and every gauge returns to zero after the subscribers hang up.

use nrslb_rootstore::RootStore;
use nrslb_rsf::{CoordinatorKey, FeedDistributionNode, FeedKey, FeedPublisher};
use nrslb_x509::testutil::simple_chain;
use rand::prelude::*;
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

const CLIENTS: usize = 512;
const POLLS_PER_CLIENT: usize = 4;
const LOOPS: usize = 2;
const WORKERS: usize = 2;

fn socket_path() -> PathBuf {
    std::env::temp_dir().join(format!("nrslb-feed-torture-{}.sock", std::process::id()))
}

fn chunked_write(stream: &mut UnixStream, bytes: &[u8], rng: &mut StdRng) {
    let mut off = 0;
    while off < bytes.len() {
        let n = rng.gen_range(1usize..9).min(bytes.len() - off);
        stream.write_all(&bytes[off..off + n]).unwrap();
        off += n;
        if rng.gen_range(0u32..8) == 0 {
            std::thread::yield_now();
        }
    }
    stream.flush().unwrap();
}

fn chunked_read(stream: &mut UnixStream, n: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut out = vec![0u8; n];
    let mut have = 0;
    while have < n {
        let want = rng.gen_range(1usize..49).min(n - have);
        let got = stream.read(&mut out[have..have + want]).unwrap();
        assert!(got > 0, "node closed the connection mid-reply");
        have += got;
    }
    out
}

fn encode_request(have_sequence: u64, have_checkpoint: u64) -> Vec<u8> {
    let mut req = Vec::with_capacity(24);
    req.extend_from_slice(b"RSFQ");
    req.extend_from_slice(&16u32.to_le_bytes());
    req.extend_from_slice(&have_sequence.to_le_bytes());
    req.extend_from_slice(&have_checkpoint.to_le_bytes());
    req
}

/// Read one RSFR frame with chunked reads and sanity-check its shape.
fn read_reply(stream: &mut UnixStream, rng: &mut StdRng) -> Vec<u8> {
    let head = chunked_read(stream, 8, rng);
    assert_eq!(&head[..4], b"RSFR", "reply magic");
    let len = u32::from_le_bytes(head[4..8].try_into().unwrap()) as usize;
    chunked_read(stream, len, rng)
}

/// Connect with a short retry loop: 512 threads connecting at once can
/// transiently outrun the listener backlog.
fn connect(path: &PathBuf) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => panic!("connect failed past deadline: {e}"),
        }
    }
}

/// Sum a per-loop series across the node's event loops.
fn loop_sum(node: &FeedDistributionNode, name: &str, gauge: bool) -> i64 {
    (0..LOOPS)
        .map(|i| {
            let label = i.to_string();
            let labels = [("loop", label.as_str())];
            if gauge {
                node.registry().gauge_with(name, &labels, "").get()
            } else {
                node.registry().counter_with(name, &labels, "").get() as i64
            }
        })
        .sum()
}

#[test]
fn feed_node_torture_512_keep_alive_subscribers() {
    let pki = simple_chain("feed-torture.example");
    let mut store = RootStore::new("nss");
    store.add_trusted(pki.root.clone()).unwrap();
    let coordinator = CoordinatorKey::from_seed([5; 32], 4).unwrap();
    let key = FeedKey::new([6; 32], 10, &coordinator).unwrap();
    let publisher = FeedPublisher::new("nss", key, &store, 0).unwrap();
    let publisher = Arc::new(Mutex::new(publisher));

    let path = socket_path();
    let node =
        FeedDistributionNode::spawn_with(Arc::clone(&publisher), &path, LOOPS, WORKERS).unwrap();

    // Sign the checkpoint once up front so the torture's idle re-polls
    // qualify for inline service, and record where "current" is.
    let (sequence, checkpoint_size) = {
        let mut publisher = publisher.lock().unwrap();
        let checkpoint = publisher.checkpoint().unwrap();
        (publisher.sequence(), checkpoint.size)
    };

    // All clients finish their polls, then rendezvous while still
    // connected (so residency is observable), then hang up together.
    let resident = Arc::new(Barrier::new(CLIENTS + 1));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let path = path.clone();
            let resident = Arc::clone(&resident);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xfeed + c as u64);
                let mut stream = connect(&path);
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .unwrap();
                // Bootstrap poll: the full snapshot response.
                chunked_write(&mut stream, &encode_request(0, 0), &mut rng);
                let bootstrap = read_reply(&mut stream, &mut rng);
                // Idle re-polls on the same connection: small replies.
                let idle_request = encode_request(sequence, checkpoint_size);
                let mut idle_len = None;
                for _ in 0..POLLS_PER_CLIENT {
                    chunked_write(&mut stream, &idle_request, &mut rng);
                    let reply = read_reply(&mut stream, &mut rng);
                    assert!(
                        reply.len() < bootstrap.len(),
                        "idle reply must not carry the snapshot"
                    );
                    // Idle state is constant, so replies are identical.
                    match &idle_len {
                        None => idle_len = Some(reply),
                        Some(first) => assert_eq!(first, &reply, "idle replies diverged"),
                    }
                }
                resident.wait();
                drop(stream);
            })
        })
        .collect();

    // Every connection is parked at the barrier still open: the
    // per-loop gauges must account for all of them.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let connections = loop_sum(&node, "nrslb_reactor_connections", true);
        if connections == CLIENTS as i64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauges never accounted for all residents: {connections}/{CLIENTS}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Idle re-polls are the inline path's case: with the checkpoint
    // cached and every subscriber current, the cost guard should have
    // admitted (nearly all of) them onto the event loops.
    let inline = loop_sum(&node, "nrslb_reactor_inline_total", false);
    assert!(
        inline > 0,
        "no idle re-poll was served inline out of {}",
        CLIENTS * POLLS_PER_CLIENT
    );

    resident.wait();
    for h in handles {
        h.join().unwrap();
    }

    // Hang-ups drain: every per-loop connection gauge returns to zero.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let connections = loop_sum(&node, "nrslb_reactor_connections", true);
        if connections == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connection gauges stuck at {connections} after disconnect"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    drop(node);
    assert!(!path.exists(), "socket removed on drop");
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

/// Liveness at 1,024 concurrent keep-alive subscriber connections, all
/// driven from this one thread: every connection is open at once, and
/// each completes one correct idle re-poll.
#[test]
fn thousand_subscribers_each_complete_a_round_trip_from_one_thread() {
    const CONNECTIONS: usize = 1024;
    // Client and node ends of every connection live in this process.
    let limit = raise_nofile_limit();
    assert!(
        limit >= (2 * CONNECTIONS + 256) as u64,
        "RLIMIT_NOFILE {limit} cannot hold {CONNECTIONS} connections"
    );
    let pki = simple_chain("feed-liveness.example");
    let mut store = RootStore::new("nss");
    store.add_trusted(pki.root.clone()).unwrap();
    let coordinator = CoordinatorKey::from_seed([3; 32], 4).unwrap();
    let key = FeedKey::new([4; 32], 6, &coordinator).unwrap();
    let publisher = Arc::new(Mutex::new(
        FeedPublisher::new("nss", key, &store, 0).unwrap(),
    ));
    let path =
        std::env::temp_dir().join(format!("nrslb-feed-liveness-{}.sock", std::process::id()));
    let _node =
        FeedDistributionNode::spawn_with(Arc::clone(&publisher), &path, LOOPS, WORKERS).unwrap();
    let request = {
        let mut publisher = publisher.lock().unwrap();
        let checkpoint = publisher.checkpoint().unwrap();
        encode_request(publisher.sequence(), checkpoint.size)
    };

    // The reference idle reply, over one plain connection.
    let mut rng = StdRng::seed_from_u64(0x11fe);
    let mut probe = connect(&path);
    probe.write_all(&request).unwrap();
    let expected = read_reply(&mut probe, &mut rng);
    drop(probe);

    let mut streams: Vec<UnixStream> = (0..CONNECTIONS).map(|_| connect(&path)).collect();
    for stream in &mut streams {
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(&request).unwrap();
    }
    for (i, stream) in streams.iter_mut().enumerate() {
        let reply = read_reply(stream, &mut rng);
        assert_eq!(reply, expected, "connection {i}: wrong idle reply");
    }
}
