//! Feed distribution over a real transport: a Unix-domain-socket feed
//! server and a matching remote subscriber.
//!
//! The sans-IO [`crate::transport`] layer stays the source of truth;
//! this module is the thin framing that carries its artifacts across a
//! socket, standing in for the HTTPS endpoint the paper proposes
//! ("RSFs can be distributed using conventional protocols", §4). The
//! wire protocol is a simple request/response exchange:
//!
//! ```text
//! request  := "RSFQ" u64 have_sequence u64 have_checkpoint_size
//! response := "RSFR"
//!             u32 n_messages (u32 len, bytes signed-message)*
//!             u32 len, bytes checkpoint
//!             u8 has_proof [u64 old u64 new u32 n (32-byte digest)*]
//!             u32 n_rotations (u32 len, bytes rotation-event)*
//! ```
//!
//! [`FeedDistributionNode`] serves it: a reactor-backed node (the same
//! [`nrslb_reactor`] engine the trust daemon runs on) that holds
//! thousands of keep-alive subscriber connections on a few event
//! loops, serving idle re-polls inline on the loop and everything else
//! on a small worker pool. A malformed request (bad magic, a body that
//! is not exactly two `u64`s) is answered by closing the connection.
//!
//! Everything security-relevant (signatures, endorsements, sequence
//! continuity, checkpoint consistency) is verified by the subscriber —
//! the socket is untrusted, exactly like the HTTPS CDN would be.

use crate::quorum::RotationEvent;
use crate::signing::SignedMessage;
use crate::sync::{ResilientReport, Staleness, Subscriber, SubscriberBuilder, SyncCounters};
use crate::translog::Checkpoint;
use crate::transport::{FeedPublisher, SyncReport};
use crate::wire::{Reader, Writer};
use crate::RsfError;
use nrslb_crypto::merkle::ConsistencyProof;
use nrslb_crypto::sha256::Digest;
use nrslb_obs::Registry;
use nrslb_reactor::{Frame, ReactorHandle, Service};
use std::io::{Read, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Hard cap on any frame body, either direction.
const MAX_FRAME_BYTES: u32 = 256 * 1024 * 1024;

/// A request body is exactly two `u64`s.
const FEED_REQUEST_BODY_LEN: usize = 16;

/// Bytes reserved up front for a reply body. Larger bodies grow as
/// their bytes arrive, so the peer's length field alone never sizes an
/// allocation.
const BODY_RESERVE: usize = 64 * 1024;

fn io_err(e: std::io::Error) -> RsfError {
    let _ = e;
    RsfError::Wire("socket i/o failure")
}

fn read_frame(stream: &mut UnixStream, magic: &[u8; 4]) -> Result<Vec<u8>, RsfError> {
    let mut head = [0u8; 8];
    stream.read_exact(&mut head).map_err(io_err)?;
    if &head[..4] != magic {
        return Err(RsfError::Wire("bad frame magic"));
    }
    let len = u32::from_le_bytes(head[4..].try_into().unwrap());
    if len > MAX_FRAME_BYTES {
        return Err(RsfError::Wire("frame too large"));
    }
    let mut body = Vec::with_capacity((len as usize).min(BODY_RESERVE));
    Read::take(&mut *stream, u64::from(len))
        .read_to_end(&mut body)
        .map_err(io_err)?;
    if body.len() != len as usize {
        return Err(RsfError::Wire("truncated frame"));
    }
    Ok(body)
}

fn write_frame(stream: &mut UnixStream, magic: &[u8; 4], body: &[u8]) -> Result<(), RsfError> {
    stream.write_all(magic).map_err(io_err)?;
    stream
        .write_all(&(body.len() as u32).to_le_bytes())
        .map_err(io_err)?;
    stream.write_all(body).map_err(io_err)?;
    stream.flush().map_err(io_err)
}

fn encode_proof(w: &mut Writer, proof: &ConsistencyProof) {
    w.put_u64(proof.old_size);
    w.put_u64(proof.new_size);
    w.put_u32(proof.path.len() as u32);
    for d in &proof.path {
        w.put_bytes(d.as_bytes());
    }
}

fn decode_proof(r: &mut Reader<'_>) -> Result<ConsistencyProof, RsfError> {
    let old_size = r.get_u64()?;
    let new_size = r.get_u64()?;
    let n = r.get_u32()?;
    if n > 1024 {
        return Err(RsfError::Wire("oversized proof"));
    }
    let mut path = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let arr: [u8; 32] = r
            .get_bytes()?
            .try_into()
            .map_err(|_| RsfError::Wire("bad proof digest"))?;
        path.push(Digest(arr));
    }
    Ok(ConsistencyProof {
        old_size,
        new_size,
        path,
    })
}

/// One decoded feed poll: where the subscriber claims to be.
#[derive(Debug, Clone, Copy)]
struct FeedRequest {
    have_sequence: u64,
    have_checkpoint: u64,
}

fn decode_request(body: &[u8]) -> Result<FeedRequest, RsfError> {
    let mut r = Reader::new(body);
    let have_sequence = r.get_u64()?;
    let have_checkpoint = r.get_u64()?;
    r.expect_end()?;
    Ok(FeedRequest {
        have_sequence,
        have_checkpoint,
    })
}

/// Build the RSFR response body for a subscriber at
/// `request.have_sequence` holding a pinned checkpoint of
/// `request.have_checkpoint` leaves.
fn build_response_body(
    publisher: &Mutex<FeedPublisher>,
    request: FeedRequest,
) -> Result<Vec<u8>, RsfError> {
    let mut publisher = publisher.lock().expect("publisher mutex");
    build_response_with(&mut publisher, request)
}

/// [`build_response_body`] against an already-acquired publisher — the
/// node's fused inline path holds the `try_lock` guard it probed with,
/// so locking again here would deadlock (std mutexes are not
/// reentrant) and re-probing would waste the acquisition.
fn build_response_with(
    publisher: &mut FeedPublisher,
    request: FeedRequest,
) -> Result<Vec<u8>, RsfError> {
    let checkpoint = publisher.checkpoint()?;
    let proof = if request.have_checkpoint > 0 {
        publisher.prove_extension(request.have_checkpoint)
    } else {
        None
    };
    let messages: Vec<Vec<u8>> = publisher
        .fetch(request.have_sequence)
        .into_iter()
        .map(|m| m.encode())
        .collect();
    let rotations: Vec<Vec<u8>> = publisher.rotations().iter().map(|e| e.encode()).collect();

    let mut w = Writer::new();
    w.put_u32(messages.len() as u32);
    for m in &messages {
        w.put_bytes(m);
    }
    w.put_bytes(&checkpoint.encode());
    match proof {
        Some(p) => {
            w.put_u8(1);
            encode_proof(&mut w, &p);
        }
        None => {
            w.put_u8(0);
        }
    }
    w.put_u32(rotations.len() as u32);
    for ev in &rotations {
        w.put_bytes(ev);
    }
    Ok(w.finish())
}

/// The feed wire protocol as a reactor [`Service`]: framing and
/// request decoding for [`Frame`], execution through the shared
/// [`build_response_body`], and an inline guard that keeps idle
/// re-polls off the worker pool.
struct FeedService {
    publisher: Arc<Mutex<FeedPublisher>>,
}

impl Service for FeedService {
    type Request = FeedRequest;

    fn parse(&self, buf: &[u8]) -> Frame<FeedRequest> {
        if buf.len() < 8 {
            return Frame::Incomplete;
        }
        if &buf[..4] != b"RSFQ" {
            // A bad frame is answered by hanging up; an empty Fatal
            // reply is the engine's spelling of a silent close.
            return Frame::Fatal { reply: Vec::new() };
        }
        let len = u32::from_le_bytes(buf[4..8].try_into().unwrap()) as usize;
        // A valid request body is exactly two u64s, so any other
        // length is rejected at the header, without buffering up to
        // the frame cap first.
        if len != FEED_REQUEST_BODY_LEN {
            return Frame::Fatal { reply: Vec::new() };
        }
        let total = 8 + len;
        if buf.len() < total {
            return Frame::Incomplete;
        }
        match decode_request(&buf[8..total]) {
            Ok(request) => Frame::Request {
                request,
                consumed: total,
            },
            Err(_) => Frame::Fatal { reply: Vec::new() },
        }
    }

    fn max_buffered(&self) -> usize {
        // Requests are 24 bytes and parse bounds any incomplete frame
        // to that, so this is pipelining headroom, not a protocol cap.
        4096
    }

    fn overflow_reply(&self) -> Vec<u8> {
        Vec::new()
    }

    fn execute(&self, request: &FeedRequest) -> Vec<u8> {
        match build_response_body(&self.publisher, *request) {
            Ok(body) => rsfr_frame(&body),
            // The engine has no close-from-execute channel, so a
            // publisher failure leaves the node silent and the
            // subscriber's attempt timeout classifies the connection
            // as damaged.
            Err(_) => Vec::new(),
        }
    }

    fn try_execute_inline(&self, request: &FeedRequest) -> Option<Vec<u8>> {
        // Idle re-polls only: the subscriber is current (no messages
        // to encode) and the cached checkpoint is fresh (no hash-based
        // signing), so the reply is a few hundred bytes of copies —
        // cheaper than the loop→worker→loop handoff. The guard and the
        // execution share one lock acquisition: try_lock keeps the
        // event loop from ever blocking behind a publish, and the held
        // guard builds the reply, so a publish can no longer land
        // between probe and execute.
        let mut publisher = self.publisher.try_lock().ok()?;
        if request.have_sequence < publisher.sequence() || !publisher.checkpoint_is_cached() {
            return None; // real delta or stale checkpoint: worker
        }
        match build_response_with(&mut publisher, *request) {
            Ok(body) => Some(rsfr_frame(&body)),
            // Same silent close execute() answers failures with.
            Err(_) => Some(Vec::new()),
        }
    }
}

/// Wrap a response body in the `RSFR` length-prefixed frame — the one
/// encoding shared by the worker and inline reply paths.
fn rsfr_frame(body: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + body.len());
    frame.extend_from_slice(b"RSFR");
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    frame
}

/// A reactor-backed feed distribution node, built on the same
/// [`nrslb_reactor`] engine as the trust daemon.
///
/// Subscriber connections are keep-alive — a derivative store connects
/// once and re-polls on the same stream for its whole lifetime — so a
/// node holds its entire subscriber population (E21 drives it past
/// 5 000 concurrent connections) on a few event loops plus a small
/// worker pool. Idle re-polls, the steady state of a healthy feed
/// (nothing new since the last poll), are served inline on the event
/// loop under a cost guard: the publisher lock is free, the subscriber
/// is current, and the signed checkpoint is cached, so the reply is
/// cheap copies with no signing and no handoff.
pub struct FeedDistributionNode {
    path: PathBuf,
    publisher: Arc<Mutex<FeedPublisher>>,
    registry: Arc<Registry>,
    stop: Arc<AtomicBool>,
    engine: Option<ReactorHandle>,
}

impl FeedDistributionNode {
    /// Bind and serve with default sizing: event loops scaled to the
    /// machine (half the cores, clamped to 1..=4) and two workers —
    /// execution is serialized on the publisher mutex, so extra
    /// workers only overlap socket writes.
    pub fn spawn(
        publisher: Arc<Mutex<FeedPublisher>>,
        socket_path: impl AsRef<Path>,
    ) -> std::io::Result<FeedDistributionNode> {
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        FeedDistributionNode::spawn_with(publisher, socket_path, (cores / 2).clamp(1, 4), 2)
    }

    /// Bind and serve with explicit event-loop and worker counts (both
    /// floored at 1).
    pub fn spawn_with(
        publisher: Arc<Mutex<FeedPublisher>>,
        socket_path: impl AsRef<Path>,
        event_loops: usize,
        workers: usize,
    ) -> std::io::Result<FeedDistributionNode> {
        let path = socket_path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = Arc::new(Registry::new());
        let service = Arc::new(FeedService {
            publisher: Arc::clone(&publisher),
        });
        let engine = ReactorHandle::spawn(
            listener,
            event_loops.max(1),
            workers.max(1),
            service,
            &registry,
            Arc::clone(&stop),
        )?;
        Ok(FeedDistributionNode {
            path,
            publisher,
            registry,
            stop,
            engine: Some(engine),
        })
    }

    /// The socket path.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// The shared publisher handle (for publishing updates).
    pub fn publisher(&self) -> Arc<Mutex<FeedPublisher>> {
        self.publisher.clone()
    }

    /// The node's metrics registry: the engine's per-loop series
    /// (`nrslb_reactor_connections`, `nrslb_reactor_ready_events`,
    /// `nrslb_reactor_backpressure_total`, `nrslb_reactor_inline_total`)
    /// labelled `loop="N"`.
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Render the node's metrics in text exposition format.
    pub fn render_metrics(&self) -> String {
        self.registry.render_text()
    }
}

impl Drop for FeedDistributionNode {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread so it observes the stop flag; the
        // engine's shutdown then wakes and joins loops and workers.
        let _ = UnixStream::connect(&self.path);
        if let Some(mut engine) = self.engine.take() {
            engine.shutdown();
        }
        let _ = std::fs::remove_file(&self.path);
    }
}

impl SubscriberBuilder {
    /// Finish as a socket-backed subscriber polling the feed served at
    /// `socket` — the remote counterpart of
    /// [`SubscriberBuilder::build`].
    pub fn connect(self, socket: impl AsRef<Path>) -> RemoteSubscriber {
        RemoteSubscriber {
            inner: self.build(),
            socket: socket.as_ref().to_path_buf(),
            stream: None,
        }
    }
}

/// A subscriber that polls a [`FeedDistributionNode`] over the socket.
///
/// Wraps the sans-IO [`Subscriber`]'s *state* but performs its own
/// verification of the transported artifacts, since it cannot hold a
/// reference to the remote publisher. The engine's [`crate::sync::SyncPolicy`]
/// governs the socket too: `attempt_timeout_ms` becomes the stream's
/// read/write timeout and [`RemoteSubscriber::sync`] retries transient
/// failures with the policy's (real, slept) backoff.
///
/// Connections are kept alive across polls: the stream from a
/// successful exchange is cached and reused, and a failure on a reused
/// stream (a restarted node closed it) falls back to exactly one fresh
/// connection before erroring.
pub struct RemoteSubscriber {
    inner: Subscriber,
    socket: PathBuf,
    stream: Option<UnixStream>,
}

impl RemoteSubscriber {
    /// The local store replica.
    pub fn store(&self) -> &nrslb_rootstore::RootStore {
        self.inner.store()
    }

    /// Last applied sequence.
    pub fn sequence(&self) -> u64 {
        self.inner.sequence()
    }

    /// The wrapped sync engine (state, staleness, quarantine).
    pub fn subscriber(&self) -> &Subscriber {
        &self.inner
    }

    /// Scrapeable sync counters.
    pub fn counters(&self) -> SyncCounters {
        self.inner.counters()
    }

    /// Serve the last-good store with a freshness verdict.
    pub fn serve(&mut self, now: i64) -> (&nrslb_rootstore::RootStore, Staleness) {
        self.inner.serve(now)
    }

    /// One request/response exchange, reusing the kept-alive stream
    /// when there is one. A failure on a reused stream is
    /// indistinguishable from the node having hung up between polls (a
    /// restart closes every stream), so it falls through to one fresh
    /// connection rather than surfacing an error.
    fn exchange(&mut self, request: &[u8], timeout: Duration) -> Result<Vec<u8>, RsfError> {
        if let Some(mut stream) = self.stream.take() {
            if let Ok(body) = roundtrip(&mut stream, request) {
                self.stream = Some(stream);
                return Ok(body);
            }
        }
        let mut stream = UnixStream::connect(&self.socket).map_err(io_err)?;
        stream.set_read_timeout(Some(timeout)).map_err(io_err)?;
        stream.set_write_timeout(Some(timeout)).map_err(io_err)?;
        let body = roundtrip(&mut stream, request)?;
        self.stream = Some(stream);
        Ok(body)
    }

    /// Poll the server once (no retries).
    pub fn sync_once(&mut self, now: i64) -> Result<SyncReport, RsfError> {
        let timeout = Duration::from_millis(self.inner.policy().attempt_timeout_ms);
        let mut req = Writer::new();
        req.put_u64(self.inner.sequence());
        req.put_u64(self.inner.pinned_checkpoint().map(|c| c.size).unwrap_or(0));
        let body = self.exchange(&req.finish(), timeout)?;

        let mut r = Reader::for_artifact(&body, "feed response");
        let n = r.field("message count").get_u32()?;
        if n > 100_000 {
            return Err(r.error("too many messages"));
        }
        let mut messages = Vec::with_capacity(n as usize);
        for _ in 0..n {
            messages.push(SignedMessage::decode(r.field("message").get_bytes()?)?);
        }
        let checkpoint = Checkpoint::decode(r.field("checkpoint").get_bytes()?)?;
        let proof = match r.field("proof tag").get_u8()? {
            0 => None,
            1 => Some(decode_proof(&mut r)?),
            _ => return Err(r.error("bad proof tag")),
        };
        let n_rotations = r.field("rotation count").get_u32()?;
        if n_rotations > 10_000 {
            return Err(r.error("too many rotations"));
        }
        let mut rotations = Vec::with_capacity(n_rotations as usize);
        for _ in 0..n_rotations {
            rotations.push(RotationEvent::decode(r.field("rotation").get_bytes()?)?);
        }
        r.expect_end()?;
        self.inner
            .poll_full(messages, rotations, checkpoint, proof, now)
    }

    /// Poll the server once at the injected clock's current time.
    pub fn sync_once_now(&mut self) -> Result<SyncReport, RsfError> {
        let now = self.inner.clock().now_secs();
        self.sync_once(now)
    }

    /// [`RemoteSubscriber::sync`] at the injected clock's current time.
    pub fn sync_now(&mut self) -> Result<ResilientReport, RsfError> {
        let now = self.inner.clock().now_secs();
        self.sync(now)
    }

    /// Poll the server, retrying transient failures (connection
    /// refused, timeouts, damaged frames) with the policy's
    /// exponential backoff — slept on the subscriber's injected clock,
    /// so tests with a [`crate::clock::VirtualClock`] retry instantly
    /// while production wall clocks really wait. Split-view evidence
    /// aborts immediately.
    pub fn sync(&mut self, now: i64) -> Result<ResilientReport, RsfError> {
        let max_attempts = self.inner.policy().max_attempts;
        let mut backoff_ms_total = 0u64;
        let mut attempts = 0u32;
        let mut last_err = RsfError::Wire("no attempts made");
        while attempts < max_attempts {
            let attempt = attempts;
            attempts += 1;
            match self.sync_once(now) {
                Ok(report) => {
                    return Ok(ResilientReport {
                        report,
                        attempts,
                        backoff_ms_total,
                    })
                }
                Err(e @ (RsfError::SplitView(_) | RsfError::Quarantined(_))) => return Err(e),
                Err(e) => last_err = e,
            }
            if attempts < max_attempts {
                self.inner.note_retry();
                let backoff = self.inner.backoff_ms(attempt);
                backoff_ms_total += backoff;
                let clock = Arc::clone(self.inner.clock());
                clock.sleep_ms(backoff);
            }
        }
        Err(RsfError::Exhausted {
            attempts,
            last: Box::new(last_err),
        })
    }
}

fn roundtrip(stream: &mut UnixStream, request: &[u8]) -> Result<Vec<u8>, RsfError> {
    write_frame(stream, b"RSFQ", request)?;
    read_frame(stream, b"RSFR")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::Clock;
    use crate::quorum::{QuorumAuthority, QuorumConfig};
    use crate::signing::{FeedKey, FeedTrust};
    use nrslb_rootstore::{RootStore, TrustStatus};
    use nrslb_x509::testutil::simple_chain;

    fn socket_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("nrslb-rsf-{tag}-{}.sock", std::process::id()))
    }

    fn authority(seed: u8) -> QuorumAuthority {
        QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 4).unwrap()
    }

    fn fresh_publisher(tag: &str) -> (Arc<Mutex<FeedPublisher>>, FeedTrust, RootStore) {
        let authority = authority(1);
        let key = FeedKey::new_quorum([2; 32], 8, &authority).unwrap();
        let trust = FeedTrust::quorum(authority.trust());
        let pki = simple_chain(&format!("sock-{tag}.example"));
        let mut store = RootStore::new("nss");
        store.add_trusted(pki.root.clone()).unwrap();
        let publisher = FeedPublisher::new_quorum("nss", key, authority, &store, 0).unwrap();
        (Arc::new(Mutex::new(publisher)), trust, store)
    }

    fn setup_node(tag: &str) -> (FeedDistributionNode, RemoteSubscriber, RootStore) {
        let (publisher, trust, store) = fresh_publisher(tag);
        let node = FeedDistributionNode::spawn_with(publisher, socket_path(tag), 2, 2).unwrap();
        let subscriber = Subscriber::builder("remote", trust).connect(node.socket_path());
        (node, subscriber, store)
    }

    /// The end-to-end flow against the reactor-backed node, over a
    /// single kept-alive connection.
    #[test]
    fn node_bootstrap_and_incremental_sync() {
        let (node, mut subscriber, mut store) = setup_node("node-inc");
        let report = subscriber.sync(0).unwrap();
        assert!(report.report.snapshot_applied);
        assert_eq!(subscriber.store().len(), 1);
        assert!(
            subscriber.stream.is_some(),
            "keep-alive stream cached after a successful poll"
        );

        let fp = *store.iter().next().unwrap().0;
        store.distrust(fp, "incident");
        node.publisher()
            .lock()
            .unwrap()
            .publish(&store, 100)
            .unwrap();
        let report = subscriber.sync(10).unwrap();
        assert_eq!(report.report.deltas_applied, 1);
        assert_eq!(subscriber.store().status(&fp), TrustStatus::Distrusted);

        // Idle re-polls ride the cached stream and qualify for inline
        // service: the subscriber is current and the checkpoint was
        // signed (and cached) answering the previous poll.
        for now in [20, 30, 40] {
            let report = subscriber.sync(now).unwrap();
            assert_eq!(report.report.deltas_applied, 0);
            assert!(!report.report.snapshot_applied);
        }
        let inline: u64 = (0..8)
            .map(|i| {
                node.registry()
                    .counter_with(
                        "nrslb_reactor_inline_total",
                        &[("loop", &i.to_string())],
                        "requests served inline on the event loop (cost-guard hits)",
                    )
                    .get()
            })
            .sum();
        assert!(inline >= 3, "idle re-polls served inline, got {inline}");
    }

    /// A node restart closes every kept-alive stream: the next poll's
    /// reuse fails, the one fallback connection reaches the new node,
    /// and the poll still succeeds.
    #[test]
    fn keep_alive_reconnects_after_node_restart() {
        let (publisher, trust, _store) = fresh_publisher("ka-restart");
        let path = socket_path("ka-restart");
        let node = FeedDistributionNode::spawn_with(Arc::clone(&publisher), &path, 1, 1).unwrap();
        let mut subscriber = Subscriber::builder("remote", trust).connect(&path);
        assert!(subscriber.sync(0).unwrap().report.snapshot_applied);
        drop(node);
        let _node = FeedDistributionNode::spawn_with(publisher, &path, 1, 1).unwrap();
        for now in [10, 20] {
            let report = subscriber.sync_once(now).unwrap();
            assert_eq!(report.deltas_applied, 0);
        }
    }

    #[test]
    fn wrong_coordinator_rejected_over_node() {
        let (node, _subscriber, _store) = setup_node("node-forge");
        let other = FeedTrust::quorum(authority(9).trust());
        // A virtual clock turns the retry backoff into instant,
        // deterministic time-advancement: no real sleeping in the test.
        let clock = crate::clock::VirtualClock::shared(0);
        let mut victim = Subscriber::builder("victim", other)
            .policy(crate::sync::SyncPolicy {
                base_backoff_ms: 1_000,
                max_backoff_ms: 2_000,
                max_attempts: 3,
                ..Default::default()
            })
            .clock(clock.clone())
            .connect(node.socket_path());
        let err = victim.sync_now();
        assert!(matches!(err, Err(RsfError::Exhausted { .. })));
        assert!(victim.store().is_empty());
        assert!(
            clock.now_millis() >= 1_000,
            "backoff must have been slept on the virtual clock"
        );
    }

    #[test]
    fn node_socket_cleanup_on_drop() {
        let (node, mut subscriber, _store) = setup_node("node-cleanup");
        // Drop with a live kept-alive connection: the engine must
        // still unwind (close the connection, join loops and workers).
        assert!(subscriber.sync(0).is_ok());
        let path = node.socket_path().to_path_buf();
        assert!(path.exists());
        drop(node);
        assert!(!path.exists());
    }

    /// A connection that never completes a request must not wedge the
    /// node's Drop.
    #[test]
    fn node_drop_with_stalled_connection_is_prompt() {
        let (publisher, _trust, _store) = fresh_publisher("stall");
        let node = FeedDistributionNode::spawn_with(publisher, socket_path("stall"), 1, 1).unwrap();
        // Half a request header, then silence.
        let mut stalled = UnixStream::connect(node.socket_path()).unwrap();
        stalled.write_all(b"RSF").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let start = std::time::Instant::now();
        drop(node);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "drop must unwind promptly, took {:?}",
            start.elapsed()
        );
        drop(stalled);
    }
}
