//! The remote subscriber sizes a reply body by the bytes that arrive,
//! not by the length the peer announces. A fake node announces a
//! maximal frame, sends eight bytes and hangs up: the poll must fail as
//! truncated, and no single allocation made during it may exceed 1 MiB.
//! The allocator hook is process-wide, so this runs in its own binary.

use nrslb_rsf::{CoordinatorKey, FeedTrust, Subscriber};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Records the largest single allocation made while armed.
struct LargestAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if ARMED.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to the system allocator unchanged; the
// hook only reads the requested size.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: LargestAlloc = LargestAlloc;

/// The largest length a reply frame may announce.
const ANNOUNCED: u32 = 256 * 1024 * 1024;

#[test]
fn announced_length_does_not_size_the_read() {
    let path = std::env::temp_dir().join(format!("nrslb-frame-alloc-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let listener = UnixListener::bind(&path).unwrap();
    let fake_node = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut request = [0u8; 24];
        stream.read_exact(&mut request).unwrap();
        assert_eq!(&request[..4], b"RSFQ");
        let mut reply = b"RSFR".to_vec();
        reply.extend_from_slice(&ANNOUNCED.to_le_bytes());
        reply.extend_from_slice(&[0u8; 8]);
        stream.write_all(&reply).unwrap();
        // Dropping the stream hangs up 8 bytes into the body.
    });

    let trust = FeedTrust::single(CoordinatorKey::from_seed([1; 32], 4).unwrap().public());
    let mut subscriber = Subscriber::builder("victim", trust).connect(&path);
    LARGEST.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let result = subscriber.sync_once(0);
    ARMED.store(false, Ordering::Relaxed);
    fake_node.join().unwrap();
    let _ = std::fs::remove_file(&path);

    assert!(result.is_err(), "a truncated reply must fail the poll");
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= 1024 * 1024,
        "a {ANNOUNCED}-byte announcement drove a {largest}-byte allocation"
    );
}
