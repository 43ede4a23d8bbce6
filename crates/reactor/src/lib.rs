//! A reusable readiness-reactor engine for Unix-socket request/reply
//! protocols.
//!
//! PR 7 built this engine inside `nrslb-core` for the trust daemon;
//! this crate is the same loop/slab/state-machine core factored out so
//! any framed protocol can ride it — the daemon protocol
//! (`nrslb-core`'s `proto`) and the feed distribution node
//! (`nrslb-rsf`'s `FeedDistributionNode`) are the two instances. A
//! protocol plugs in through the [`Service`] trait: it delimits frames
//! out of a byte buffer, executes requests, and optionally claims a
//! request for *inline* execution on the event loop itself.
//!
//! A small fixed set of event-loop threads each own one
//! [`polling::Poller`] (the vendored epoll/kqueue-style readiness shim)
//! and a slab of non-blocking connections; the accept thread deals new
//! connections round-robin across loops. Request execution normally
//! never runs on a loop: complete frames are handed to a fixed worker
//! pool over an MPMC channel, and workers push finished responses back
//! through a per-loop completion queue plus
//! [`polling::Poller::notify`]. Because a loop thread only ever parses
//! buffers and moves bytes, one loop multiplexes thousands of
//! keep-alive connections — concurrency is no longer capped at the
//! worker count the way a thread-per-connection engine is.
//!
//! ## Inline execution
//!
//! The loop→worker handoff costs two thread wake-ups per request. For
//! requests whose execution is known to be cheap — a daemon request
//! whose whole chain and every verdict are already cached, a feed
//! re-poll with nothing new to send — that handoff is pure overhead
//! and dominates the warm path. [`Service::try_execute_inline`] fuses
//! the cost guard with the execution: in one pass the service probes
//! whatever would make the request expensive and, if everything is
//! provably cheap, finishes it on the spot — the loop writes the
//! returned reply itself, skipping the worker pool and both wake-ups,
//! and the probe's intermediate work (hash keys, cache lookups) is
//! never recomputed. A `None` (anything the service cannot prove
//! cheap) takes the worker path as before. A per-wake budget
//! (`INLINE_BURST`) bounds how long one chatty connection can hold
//! the loop before its requests are pushed to workers anyway, so
//! inline execution cannot starve the other connections on the loop.
//!
//! Connections that just served inline are additionally re-armed with
//! *level-triggered* readable interest ([`polling::Poller::modify_level`])
//! instead of the default oneshot mode: as long as their requests keep
//! hitting the inline path, no re-arm syscall is ever issued, cutting
//! the warm per-request syscall budget to wait + read + write — the
//! same as a blocking thread's read + write once the wait is amortized
//! across ready connections. The first request that must ride the
//! worker pool explicitly disarms the connection (one extra `modify`),
//! restoring the oneshot discipline that keeps at most one request in
//! flight per connection.
//!
//! ## Per-connection state machine
//!
//! ```text
//!          readable                 frame complete            worker done
//! Reading ----------> (buffer) --------------------> Executing ----------+
//!    ^      |                                                            |
//!    |      | inline hit: execute + reply on the loop, stay Reading      |
//!    |      +---------------------------------------------------------+  |
//!    |        response fully written                response spilled  |  |
//!    +<------------------------------- Writing <----------------------+--+
//!                                        ^  | partial write: stay, armed writable
//!                                        +--+
//! ```
//!
//! * **Reading** — readable interest armed; bytes accumulate in `rbuf`
//!   until [`Service::parse`] delimits a frame.
//! * **Executing** — interest *disarmed*: while a request is in flight
//!   the loop neither reads nor parses further frames from that
//!   connection. This is the backpressure policy — one request in
//!   flight per connection, pipelined bytes wait in `rbuf`, and a peer
//!   that floods frames fills its own socket buffer, not server
//!   memory.
//! * **Writing** — the response did not fit the socket buffer; the
//!   remainder lives in `wbuf` with writable interest armed, and the
//!   per-loop `nrslb_reactor_backpressure_total` counter ticks.
//!
//! Workers attempt the response write themselves (the socket is
//! non-blocking and the loop has the connection disarmed during
//! Executing, so the worker owns the only pending I/O); on the warm
//! worker path the whole request is served with a single loop wake-up
//! for the read and no loop involvement in the write.
//!
//! ## Observability
//!
//! Per-loop series, labelled `loop="N"`: `nrslb_reactor_connections`
//! (registered connections), `nrslb_reactor_ready_events` (histogram of
//! ready events per poller wake), `nrslb_reactor_backpressure_total`
//! (responses that spilled to the loop's write path), and
//! `nrslb_reactor_inline_total` (requests served inline on the loop).

#![warn(missing_docs)]

use nrslb_obs::{Counter, Gauge, Histogram, Registry};
use polling::{Event, Poller};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a loop sleeps in `wait` with nothing ready; bounds shutdown
/// latency if a notify is ever lost.
const WAIT_TIMEOUT: Duration = Duration::from_millis(500);

/// How long the accept thread pauses after a failed `accept` (fd
/// exhaustion) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// Most inline requests one poller wake may serve per connection
/// before the loop falls back to the worker pool; bounds how long a
/// pipelining peer can monopolize its event loop.
const INLINE_BURST: usize = 32;

/// One step of frame delimitation, returned by [`Service::parse`].
pub enum Frame<R> {
    /// No complete frame yet; keep buffering.
    Incomplete,
    /// A well-formed request was delimited; `consumed` bytes leave the
    /// buffer and the request executes (inline or on a worker).
    Request {
        /// The decoded request.
        request: R,
        /// Bytes the frame occupied in the buffer.
        consumed: usize,
    },
    /// A malformed-but-delimitable frame: `consumed` bytes leave the
    /// buffer, `reply` is written, and the connection keeps serving
    /// (the stream is still in sync).
    Reply {
        /// The canned response (an error reply) to write.
        reply: Vec<u8>,
        /// Bytes the bad frame occupied in the buffer.
        consumed: usize,
    },
    /// The stream can no longer be delimited: `reply` is written (it
    /// may be empty for close-without-answer protocols) and the
    /// connection closes.
    Fatal {
        /// Final bytes to write before closing; empty closes silently.
        reply: Vec<u8>,
    },
}

/// A per-connection protocol served by the reactor.
///
/// One service instance is shared by every loop and worker thread, so
/// implementations hold their execution context (caches, oracles,
/// instruments) behind `Arc`s and stay `Sync`. Malformed-frame
/// accounting belongs to the service: the engine never counts
/// requests, it only moves bytes.
pub trait Service: Send + Sync + 'static {
    /// The decoded request type carried from parse to execute.
    type Request: Send + 'static;

    /// Try to delimit one frame from the front of `buf`.
    fn parse(&self, buf: &[u8]) -> Frame<Self::Request>;

    /// Bytes a connection may buffer without completing a frame before
    /// the engine answers with [`Service::overflow_reply`] and closes.
    fn max_buffered(&self) -> usize;

    /// The reply for a connection that exceeded
    /// [`Service::max_buffered`] (written, then the connection
    /// closes). May be empty to close silently.
    fn overflow_reply(&self) -> Vec<u8>;

    /// Execute a request and encode its response. Runs on a worker
    /// thread for every request [`Service::try_execute_inline`] did not
    /// claim.
    fn execute(&self, request: &Self::Request) -> Vec<u8>;

    /// Attempt to execute `request` inline on the event loop, returning
    /// the encoded response on success. This is a *cost guard fused
    /// with the execution*: the service probes whatever would make
    /// execution expensive (cold caches, work to derive, a contended
    /// lock) and either finishes the request in one pass — reusing the
    /// probe's intermediate artifacts (hash keys, lookups) rather than
    /// recomputing them — or returns `None` having caused **no
    /// observable effect**, in which case the engine dispatches the
    /// request to the worker pool and [`Service::execute`] runs from
    /// scratch. Only claim provably-cheap requests: the loop serves no
    /// other connection while this runs. The default claims nothing.
    fn try_execute_inline(&self, _request: &Self::Request) -> Option<Vec<u8>> {
        None
    }
}

/// A worker-finished response headed back to its owning loop.
struct Completion {
    key: usize,
    gen: u64,
    /// Bytes the worker could not push into the socket buffer (empty on
    /// the fast path).
    unwritten: Vec<u8>,
    /// The worker's write hit a hard transport error; close.
    close: bool,
}

/// One execution dispatched off a loop.
struct Job<S: Service> {
    shared: Arc<LoopShared>,
    key: usize,
    gen: u64,
    stream: Arc<UnixStream>,
    request: S::Request,
    /// The connection had no pipelined bytes buffered at dispatch, so
    /// after a fully-written response the worker may re-arm readable
    /// interest itself instead of round-tripping a completion through
    /// the loop (strict request/reply traffic never wakes the loop
    /// twice per request).
    fast_rearm: bool,
}

/// The cross-thread face of one event loop: where the accept thread
/// injects connections and workers deliver completions.
struct LoopShared {
    poller: Poller,
    injected: Mutex<Vec<UnixStream>>,
    completions: Mutex<Vec<Completion>>,
}

impl LoopShared {
    fn inject(&self, stream: UnixStream) {
        self.injected.lock().expect("injected lock").push(stream);
        let _ = self.poller.notify();
    }

    fn complete(&self, completion: Completion) {
        self.completions
            .lock()
            .expect("completions lock")
            .push(completion);
        let _ = self.poller.notify();
    }
}

/// Per-loop instruments (see module docs).
struct LoopInstruments {
    connections: Gauge,
    ready_events: Histogram,
    backpressure: Counter,
    inline_served: Counter,
}

impl LoopInstruments {
    fn new(registry: &Registry, loop_id: usize) -> LoopInstruments {
        let label = loop_id.to_string();
        let labels: &[(&str, &str)] = &[("loop", &label)];
        LoopInstruments {
            connections: registry.gauge_with(
                "nrslb_reactor_connections",
                labels,
                "connections registered with this event loop",
            ),
            ready_events: registry.histogram_with(
                "nrslb_reactor_ready_events",
                labels,
                "ready events delivered per poller wake",
            ),
            backpressure: registry.counter_with(
                "nrslb_reactor_backpressure_total",
                labels,
                "responses that overflowed the socket buffer into the loop's write path",
            ),
            inline_served: registry.counter_with(
                "nrslb_reactor_inline_total",
                labels,
                "requests served inline on the event loop (cost-guard hits)",
            ),
        }
    }
}

/// A running reactor engine; [`ReactorHandle::shutdown`] tears it down.
pub struct ReactorHandle {
    accept: Option<JoinHandle<()>>,
    loops: Vec<(Arc<LoopShared>, JoinHandle<()>)>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Spawn `n_loops` event loops and `n_workers` execution workers
    /// serving `listener` with `service`. Per-loop instruments register
    /// in `registry`. `stop` is shared with the owning server; setting
    /// it (plus a wake-up connect for the accept thread) initiates
    /// shutdown.
    pub fn spawn<S: Service>(
        listener: UnixListener,
        n_loops: usize,
        n_workers: usize,
        service: Arc<S>,
        registry: &Registry,
        stop: Arc<AtomicBool>,
    ) -> std::io::Result<ReactorHandle> {
        let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job<S>>();
        let workers = (0..n_workers.max(1))
            .map(|_| {
                let job_rx = job_rx.clone();
                let service = Arc::clone(&service);
                std::thread::spawn(move || {
                    // recv fails once every loop (the senders) is gone
                    // and the queue has drained.
                    while let Ok(job) = job_rx.recv() {
                        serve_job(job, &*service);
                    }
                })
            })
            .collect();
        drop(job_rx);

        let mut loops = Vec::with_capacity(n_loops.max(1));
        for loop_id in 0..n_loops.max(1) {
            let shared = Arc::new(LoopShared {
                poller: Poller::new()?,
                injected: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
            });
            let instruments = LoopInstruments::new(registry, loop_id);
            let thread = {
                let shared = Arc::clone(&shared);
                let service = Arc::clone(&service);
                let job_tx = job_tx.clone();
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    EventLoop {
                        shared,
                        service,
                        job_tx,
                        instruments,
                        slots: Vec::new(),
                        free: Vec::new(),
                        scratch: vec![0u8; 64 * 1024],
                    }
                    .run(&stop)
                })
            };
            loops.push((shared, thread));
        }
        drop(job_tx);

        let accept_loops: Vec<Arc<LoopShared>> = loops.iter().map(|(s, _)| Arc::clone(s)).collect();
        let accept_stop = Arc::clone(&stop);
        let accept = std::thread::spawn(move || {
            let mut next = 0usize;
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else {
                    // With no fds left, accept fails at once for as long
                    // as a connection waits in the backlog; pausing keeps
                    // the loop from spinning a core until one frees up.
                    std::thread::sleep(ACCEPT_BACKOFF);
                    continue;
                };
                accept_loops[next].inject(stream);
                next = (next + 1) % accept_loops.len();
            }
        });

        Ok(ReactorHandle {
            accept: Some(accept),
            loops,
            workers,
        })
    }

    /// Join every thread. The caller has already set the shared stop
    /// flag and poked the listener awake.
    pub fn shutdown(&mut self) {
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        // Wake the loops so they observe the stop flag; joining them
        // drops the last job senders, which in turn drains the workers.
        for (shared, _) in &self.loops {
            let _ = shared.poller.notify();
        }
        for (_, thread) in self.loops.drain(..) {
            let _ = thread.join();
        }
        for t in self.workers.drain(..) {
            let _ = t.join();
        }
    }
}

/// Execute one job and write its response directly; whatever does not
/// fit the socket buffer rides the completion back to the loop.
fn serve_job<S: Service>(job: Job<S>, service: &S) {
    let bytes = service.execute(&job.request);
    let (unwritten, close) = write_nonblocking(&job.stream, bytes, 0);
    if job.fast_rearm && !close && unwritten.is_empty() {
        // Fast path: the response is fully on the wire and no buffered
        // frames are waiting, so the loop has nothing to do until the
        // peer sends again — arm readable interest directly. The loop
        // reinterprets a readable event on an Executing connection as
        // exactly this signal. (Level-triggered interest also covers a
        // request that raced in while we were writing.)
        if job
            .shared
            .poller
            .modify(&*job.stream, Event::readable(job.key))
            .is_ok()
        {
            return;
        }
        // The loop deleted the fd under us (shutdown); fall through so
        // the slot is reclaimed rather than leaked.
    }
    job.shared.complete(Completion {
        key: job.key,
        gen: job.gen,
        unwritten,
        close,
    });
}

/// Push as much of `bytes[offset..]` as the socket accepts right now.
/// Returns the unwritten tail (empty when done) and whether a hard
/// error demands closing the connection.
fn write_nonblocking(stream: &UnixStream, bytes: Vec<u8>, mut offset: usize) -> (Vec<u8>, bool) {
    let mut stream = stream;
    while offset < bytes.len() {
        match stream.write(&bytes[offset..]) {
            Ok(0) => return (Vec::new(), true),
            Ok(n) => offset += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                return (bytes[offset..].to_vec(), false)
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return (Vec::new(), true),
        }
    }
    (Vec::new(), false)
}

/// Connection lifecycle (see the module-level state diagram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    Reading,
    Executing,
    Writing,
}

struct Conn {
    stream: Arc<UnixStream>,
    state: ConnState,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// The peer's write half is closed; close once in-flight work and
    /// buffered responses drain.
    peer_closed: bool,
    /// Close as soon as `wbuf` drains (fatal protocol violation).
    close_after_write: bool,
    /// Readable interest is currently armed *level-triggered* (the
    /// inline-hot mode): deliveries do not disarm it, so Reading needs
    /// no re-arm syscall. Any transition out of plain Reading — a
    /// worker dispatch, a spill to Writing — must clear this by
    /// explicitly re-pointing the interest.
    read_level: bool,
}

struct Slot {
    gen: u64,
    conn: Option<Conn>,
}

struct EventLoop<S: Service> {
    shared: Arc<LoopShared>,
    service: Arc<S>,
    job_tx: crossbeam::channel::Sender<Job<S>>,
    instruments: LoopInstruments,
    slots: Vec<Slot>,
    free: Vec<usize>,
    scratch: Vec<u8>,
}

impl<S: Service> EventLoop<S> {
    fn run(mut self, stop: &AtomicBool) {
        let mut events = Vec::new();
        loop {
            let _ = self.shared.poller.wait(&mut events, Some(WAIT_TIMEOUT));
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if !events.is_empty() {
                self.instruments.ready_events.observe(events.len() as u64);
            }
            self.adopt_injected();
            self.drain_completions();
            for event in &events {
                self.handle_event(*event);
            }
        }
        // Drop connections; the gauge must read zero after shutdown.
        for slot in &mut self.slots {
            if slot.conn.take().is_some() {
                self.instruments.connections.sub(1);
            }
        }
    }

    fn adopt_injected(&mut self) {
        let streams: Vec<UnixStream> =
            std::mem::take(&mut *self.shared.injected.lock().expect("injected lock"));
        for stream in streams {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let key = match self.free.pop() {
                Some(key) => key,
                None => {
                    self.slots.push(Slot { gen: 0, conn: None });
                    self.slots.len() - 1
                }
            };
            let stream = Arc::new(stream);
            if self
                .shared
                .poller
                .add(&*stream, Event::readable(key))
                .is_err()
            {
                self.free.push(key);
                continue;
            }
            self.slots[key].conn = Some(Conn {
                stream,
                state: ConnState::Reading,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                peer_closed: false,
                close_after_write: false,
                read_level: false,
            });
            self.instruments.connections.add(1);
        }
    }

    fn drain_completions(&mut self) {
        let completions: Vec<Completion> =
            std::mem::take(&mut *self.shared.completions.lock().expect("completions lock"));
        for comp in completions {
            let Some(slot) = self.slots.get_mut(comp.key) else {
                continue;
            };
            // A stale completion for a slot that was closed and reused.
            if slot.gen != comp.gen {
                continue;
            }
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            debug_assert_eq!(conn.state, ConnState::Executing);
            if comp.close {
                self.close(comp.key);
                continue;
            }
            if comp.unwritten.is_empty() {
                conn.state = ConnState::Reading;
                // Pipelined frames may already be buffered; serve them
                // before going back to sleep.
                self.advance(comp.key);
            } else {
                conn.wbuf = comp.unwritten;
                conn.state = ConnState::Writing;
                self.instruments.backpressure.inc();
                self.rearm(comp.key);
            }
        }
    }

    fn handle_event(&mut self, event: Event) {
        let Some(state) = self
            .slots
            .get(event.key)
            .and_then(|s| s.conn.as_ref())
            .map(|c| c.state)
        else {
            return;
        };
        match state {
            ConnState::Reading if event.readable => self.on_readable(event.key),
            // Interest is disarmed for the whole of Executing, so a
            // readable event here can only be the worker's fast-path
            // re-arm: the response is fully written and the connection
            // is back to request/reply duty.
            ConnState::Executing if event.readable => {
                if let Some(conn) = self.slots[event.key].conn.as_mut() {
                    conn.state = ConnState::Reading;
                }
                self.on_readable(event.key);
            }
            ConnState::Writing if event.writable => self.on_writable(event.key),
            // Events for a disarmed or mismatched state are stale
            // oneshot deliveries; the state machine re-arms what it
            // actually wants.
            _ => {}
        }
    }

    fn on_readable(&mut self, key: usize) {
        let conn = match self.slots[key].conn.as_mut() {
            Some(c) => c,
            None => return,
        };
        loop {
            match (&*conn.stream).read(&mut self.scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&self.scratch[..n]);
                    // A short read means the kernel buffer is drained;
                    // skip the WouldBlock confirmation syscall. (If
                    // more raced in, level-triggered readable interest
                    // re-delivers once the state machine re-arms.)
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(key);
                    return;
                }
            }
        }
        self.advance(key);
    }

    /// Drive the state machine from Reading: delimit frames out of
    /// `rbuf`, dispatch or answer them, then re-arm interest to match
    /// the resulting state.
    fn advance(&mut self, key: usize) {
        let mut inline_budget = INLINE_BURST;
        let mut served_inline = false;
        loop {
            let conn = match self.slots[key].conn.as_mut() {
                Some(c) if c.state == ConnState::Reading => c,
                _ => return,
            };
            match self.service.parse(&conn.rbuf) {
                Frame::Incomplete => {
                    if conn.peer_closed {
                        // Clean EOF between frames, or mid-frame
                        // abandonment; nothing more will arrive.
                        self.close(key);
                    } else if conn.rbuf.len() > self.service.max_buffered() {
                        let reply = self.service.overflow_reply();
                        self.send_reply(key, reply, true);
                    } else if served_inline {
                        // An inline-hot connection: arm level-triggered
                        // readable interest so its next requests are
                        // delivered with no re-arm syscall at all.
                        self.arm_level_read(key);
                    } else if !conn.read_level {
                        self.rearm(key);
                    }
                    // else: level interest is still armed; nothing to do.
                    return;
                }
                Frame::Request { request, consumed } => {
                    conn.rbuf.drain(..consumed);
                    if inline_budget > 0 {
                        if let Some(reply) = self.service.try_execute_inline(&request) {
                            // The fused guard+execute served this
                            // request without leaving the loop (no
                            // worker handoff, no extra wake-ups).
                            inline_budget -= 1;
                            served_inline = true;
                            self.instruments.inline_served.inc();
                            self.send_reply(key, reply, false);
                            // send_reply may have moved us to
                            // Writing/closed; the loop head re-checks.
                            continue;
                        }
                    }
                    // Level-armed connections must be explicitly
                    // disarmed for Executing: a level delivery during
                    // the in-flight request would be reinterpreted as
                    // the worker's fast-path re-arm and break the
                    // one-request-per-connection backpressure.
                    if conn.read_level {
                        conn.read_level = false;
                        if self
                            .shared
                            .poller
                            .modify(&*conn.stream, Event::none(key))
                            .is_err()
                        {
                            self.close(key);
                            return;
                        }
                    }
                    let gen = self.slots[key].gen;
                    let conn = self.slots[key].conn.as_mut().unwrap();
                    conn.state = ConnState::Executing;
                    let fast_rearm = conn.rbuf.is_empty() && !conn.peer_closed;
                    let job = Job {
                        shared: Arc::clone(&self.shared),
                        key,
                        gen,
                        stream: Arc::clone(&conn.stream),
                        request,
                        fast_rearm,
                    };
                    // No re-arm syscall on the oneshot path: every way
                    // into a dispatch has just consumed a oneshot
                    // delivery, so the fd is already disarmed — exactly
                    // what Executing wants.
                    if self.job_tx.send(job).is_err() {
                        // Workers are gone (shutdown); drop the conn.
                        self.close(key);
                    }
                    return;
                }
                Frame::Reply { reply, consumed } => {
                    conn.rbuf.drain(..consumed);
                    // The frame was fully consumed, so the stream is
                    // still in sync: answer and keep serving.
                    self.send_reply(key, reply, false);
                    // send_reply may have moved us to Writing/closed;
                    // the loop head re-checks state.
                }
                Frame::Fatal { reply } => {
                    self.send_reply(key, reply, true);
                    return;
                }
            }
        }
    }

    /// Write `bytes` from the loop (error replies and inline responses
    /// — worker responses are written by workers). Spills to Writing
    /// on a full socket buffer. An empty `bytes` with `close_after`
    /// closes without writing anything.
    fn send_reply(&mut self, key: usize, bytes: Vec<u8>, close_after: bool) {
        let conn = match self.slots[key].conn.as_mut() {
            Some(c) => c,
            None => return,
        };
        let (unwritten, broken) = write_nonblocking(&conn.stream, bytes, 0);
        if broken {
            self.close(key);
            return;
        }
        if unwritten.is_empty() {
            if close_after {
                self.close(key);
            }
            // else: state stays Reading; caller's loop continues.
            return;
        }
        conn.wbuf = unwritten;
        conn.state = ConnState::Writing;
        conn.close_after_write = close_after;
        self.instruments.backpressure.inc();
        self.rearm(key);
    }

    fn on_writable(&mut self, key: usize) {
        let conn = match self.slots[key].conn.as_mut() {
            Some(c) => c,
            None => return,
        };
        let wbuf = std::mem::take(&mut conn.wbuf);
        let (unwritten, broken) = write_nonblocking(&conn.stream, wbuf, 0);
        if broken {
            self.close(key);
            return;
        }
        if unwritten.is_empty() {
            if conn.close_after_write {
                self.close(key);
                return;
            }
            conn.state = ConnState::Reading;
            self.advance(key);
        } else {
            conn.wbuf = unwritten;
            self.rearm(key);
        }
    }

    /// Point the oneshot interest at what the current state needs next.
    fn rearm(&mut self, key: usize) {
        let Some(conn) = self.slots[key].conn.as_mut() else {
            return;
        };
        conn.read_level = false;
        let interest = match conn.state {
            ConnState::Reading => Event::readable(key),
            ConnState::Executing => Event::none(key),
            ConnState::Writing => Event::writable(key),
        };
        if self.shared.poller.modify(&*conn.stream, interest).is_err() {
            self.close(key);
        }
    }

    /// Arm persistent (level-triggered) readable interest for an
    /// inline-hot Reading connection; a no-op if already armed that way.
    fn arm_level_read(&mut self, key: usize) {
        let Some(conn) = self.slots[key].conn.as_mut() else {
            return;
        };
        if conn.read_level {
            return;
        }
        if self
            .shared
            .poller
            .modify_level(&*conn.stream, Event::readable(key))
            .is_err()
        {
            self.close(key);
            return;
        }
        let conn = self.slots[key].conn.as_mut().unwrap();
        conn.read_level = true;
    }

    fn close(&mut self, key: usize) {
        let Some(slot) = self.slots.get_mut(key) else {
            return;
        };
        let Some(conn) = slot.conn.take() else {
            return;
        };
        let _ = self.shared.poller.delete(&*conn.stream);
        slot.gen += 1;
        self.free.push(key);
        self.instruments.connections.sub(1);
        // The stream's fd closes when the last Arc (possibly held by an
        // in-flight worker job) drops; the bumped generation discards
        // that job's completion.
    }
}
