//! Tracing for the per-layer run: in-memory spans written out at exit,
//! and a counting global allocator that only counts while enabled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Passes every call to the system allocator; while `set_counting(true)`
/// it also counts allocations and bytes requested (process-wide).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// Bytes requested from the allocator while counting was on.
pub fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::SeqCst)
}

/// One timed interval: a layer call (or batch of calls) made on behalf
/// of request `rid`, under span `parent` (0 = none).
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub rid: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory for the whole run.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a span; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        rid: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            rid,
            name,
            start_ns,
            end_ns,
        });
        id
    }

    /// Re-parent `child` under `parent` (a request span closed after its
    /// children).
    pub fn set_parent(&mut self, child: u64, parent: u64) {
        self.spans[(child - 1) as usize].parent = parent;
    }

    pub fn extend(&mut self, spans: Vec<Span>) {
        for mut s in spans {
            s.id = self.spans.len() as u64 + 1;
            self.spans.push(s);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                r#"{{"id":{},"parent":{},"rid":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, s.parent, s.rid, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
