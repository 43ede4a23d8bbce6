//! The accept thread under fd exhaustion. With a connection waiting in
//! the listen backlog and no descriptor left for `accept` to return,
//! every `accept` fails at once; the thread must back off instead of
//! spinning a core, and must pick the connection up once descriptors
//! free. This lowers the process's `RLIMIT_NOFILE`, so it runs in its
//! own test binary.

use nrslb_obs::Registry;
use nrslb_reactor::{Frame, ReactorHandle, Service};
use std::fs::File;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One-byte requests, answered with the byte plus one.
struct Increment;

impl Service for Increment {
    type Request = u8;

    fn parse(&self, buf: &[u8]) -> Frame<u8> {
        match buf.first() {
            Some(&b) => Frame::Request {
                request: b,
                consumed: 1,
            },
            None => Frame::Incomplete,
        }
    }

    fn max_buffered(&self) -> usize {
        16
    }

    fn overflow_reply(&self) -> Vec<u8> {
        Vec::new()
    }

    fn execute(&self, request: &u8) -> Vec<u8> {
        vec![request.wrapping_add(1)]
    }
}

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

const RLIMIT_NOFILE: i32 = 7;
const RUSAGE_SELF: i32 = 0;

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn nofile_limit() -> Rlimit {
    let mut lim = Rlimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable Rlimit; the call fills it.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim
}

fn set_soft_nofile(cur: u64, max: u64) {
    let lim = Rlimit { cur, max };
    // SAFETY: `lim` is a valid Rlimit.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &lim) }, 0);
}

/// User plus system CPU time this process has used so far.
fn cpu_time() -> Duration {
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable rusage; the call fills it.
    assert_eq!(unsafe { getrusage(RUSAGE_SELF, &mut usage) }, 0);
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&usage.utime) + micros(&usage.stime))
}

#[test]
fn accept_backs_off_while_fds_are_exhausted() {
    let path =
        std::env::temp_dir().join(format!("nrslb-accept-backoff-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let registry = Registry::new();
    let mut engine = ReactorHandle::spawn(
        listener,
        1,
        1,
        Arc::new(Increment),
        &registry,
        Arc::clone(&stop),
    )
    .unwrap();

    // Lower the soft limit to a little above what is open now, then
    // fill every remaining slot.
    let original = nofile_limit();
    let open = std::fs::read_dir("/proc/self/fd").unwrap().count() as u64;
    set_soft_nofile(open + 32, original.max);
    let mut hogs = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hogs.push(file);
    }
    // Free exactly one slot: the client's end of the connection. The
    // server end then has no descriptor to land in, so the connection
    // waits in the backlog and every accept fails with EMFILE.
    hogs.pop();
    let mut client = UnixStream::connect(&path).unwrap();
    assert!(File::open("/dev/null").is_err(), "fds must stay exhausted");

    let wall = Instant::now();
    let cpu = cpu_time();
    std::thread::sleep(Duration::from_millis(300));
    let cpu_used = cpu_time() - cpu;
    let wall_used = wall.elapsed();
    assert!(
        cpu_used * 5 < wall_used,
        "accept loop spun: {cpu_used:?} CPU in {wall_used:?} wall"
    );

    // Free the descriptors: the pending client is accepted and served.
    drop(hogs);
    set_soft_nofile(original.cur, original.max);
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    client.write_all(&[41]).unwrap();
    let mut reply = [0u8; 1];
    client.read_exact(&mut reply).unwrap();
    assert_eq!(reply, [42]);

    drop(client);
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    let _ = UnixStream::connect(&path);
    engine.shutdown();
    let _ = std::fs::remove_file(&path);
}
