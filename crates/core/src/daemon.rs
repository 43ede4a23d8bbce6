//! The *platform execution* deployment mode (§3.1): a system trust
//! daemon — the moral equivalent of macOS's `trustd` — that owns the
//! platform root store and evaluates GCCs on behalf of TLS user-agents.
//!
//! The daemon listens on a Unix-domain socket. A user-agent mid-chain-
//! construction sends the candidate chain plus the requested usage; the
//! daemon converts the chain to Datalog statements, executes all GCCs
//! attached to the candidate root, and returns the per-GCC verdicts. The
//! user-agent proceeds with chain construction, "building a new chain if
//! the daemon responded false".
//!
//! ## Engine
//!
//! Daemons are spawned through [`DaemonBuilder`] and serve connections
//! on a readiness reactor (`crate::reactor`): a few event-loop threads
//! multiplex *all* connections over non-blocking sockets, and complete
//! frames are dispatched to a worker pool for Datalog evaluation (or
//! answered inline on the loop when every verdict is already cached).
//! Concurrency is bounded by memory, not worker count — thousands of
//! keep-alive user-agents can stay connected while eight workers
//! evaluate. Every connection shares one [`InProcessOracle`] (and thus
//! one GCC [`crate::VerdictCache`]), so a verdict computed for one
//! client is a cache hit for every other.
//!
//! ## Wire protocol
//!
//! Little-endian, length-prefixed. Connections are **keep-alive**: a
//! client sends any number of requests on one connection and the daemon
//! answers each in order, so user-agents amortize socket setup across a
//! page load ([`DaemonClient::keep_alive`]). `OP_EVALUATE_BATCH` goes
//! further and packs many chains into one round-trip with a single
//! response frame:
//!
//! ```text
//! evaluate := u8 usage(0=TLS,1=S/MIME) u32 n_certs (u32 len, bytes der)*
//! request  := u8 opcode(1=evaluate)  evaluate
//!           | u8 opcode(2=metrics)
//!           | u8 opcode(3=evaluate-batch) u32 n_items  evaluate*
//! verdicts := u32 n_verdicts (u8 accepted, u32 len, bytes name)*
//! response := u8 status(0=ok,1=error)
//!             ok(evaluate):       verdicts
//!             ok(metrics):        u32 len, bytes exposition-text
//!             ok(evaluate-batch): u32 n_items  verdicts*
//!             error:              u32 len, bytes message
//! ```
//!
//! A malformed-but-delimitable frame (e.g. a bad usage byte) is
//! answered with a structured error frame and the connection **stays
//! open** — the bad frame was consumed whole, so the stream is still in
//! sync. Only undelimitable garbage (unknown opcode, a length field
//! past its cap) closes the connection, after a final error frame.
//!
//! ## Observability
//!
//! Every daemon owns (or is handed, [`DaemonBuilder::registry`]) an
//! [`nrslb_obs::Registry`]. The shared oracle's verdict cache mirrors
//! its hit/miss/eviction statistics into it, each request is timed into
//! `nrslb_daemon_request_latency_us`, and the reactor engine adds
//! per-loop gauges/counters (see `crate::reactor`). The `metrics`
//! opcode returns [`Registry::render_text`] — Prometheus text
//! exposition over the same socket, so operators scrape the daemon
//! without a second listener.

use crate::cache::ParsedCertCache;
use crate::gcc_eval::GccVerdict;
use crate::proto::{
    self, MAX_BATCH, MAX_LEN, OP_EVALUATE, OP_EVALUATE_BATCH, OP_METRICS, STATUS_ERR, STATUS_OK,
};
use crate::reactor::{DaemonService, ReactorHandle};
use crate::validate::{GccOracle, InProcessOracle};
use crate::CoreError;
use nrslb_obs::{Counter, Histogram, Registry, Span};
use nrslb_rootstore::{RootStore, Usage};
use nrslb_rsf::{Staleness, Subscriber, SyncCounters};
use nrslb_x509::Certificate;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

fn read_u8(r: &mut impl Read) -> std::io::Result<u8> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b)?;
    Ok(b[0])
}

fn read_u32(r: &mut impl Read) -> std::io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_block(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let len = read_u32(r)?;
    if len > MAX_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "length field exceeds limit",
        ));
    }
    let mut buf = vec![0u8; len as usize];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Default number of evaluation worker threads.
pub const DEFAULT_WORKERS: usize = 8;

/// Per-daemon instrument handles, shared by every engine thread. The
/// registry rides along so the `metrics` opcode can render it from any
/// thread.
#[derive(Clone)]
pub(crate) struct DaemonInstruments {
    pub(crate) registry: Arc<Registry>,
    /// Requests served, by opcode outcome.
    pub(crate) requests: Counter,
    /// Requests answered with an error status.
    pub(crate) request_errors: Counter,
    /// Per-request service time in microseconds.
    pub(crate) latency_us: Histogram,
    /// Chains per `OP_EVALUATE_BATCH` request.
    pub(crate) batch_size: Histogram,
}

impl DaemonInstruments {
    fn new(registry: Arc<Registry>) -> DaemonInstruments {
        DaemonInstruments {
            requests: registry.counter("nrslb_daemon_requests_total", "requests served"),
            request_errors: registry.counter(
                "nrslb_daemon_request_errors_total",
                "requests answered with an error status",
            ),
            latency_us: registry.histogram(
                "nrslb_daemon_request_latency_us",
                "per-request service time in microseconds",
            ),
            batch_size: registry.histogram(
                "nrslb_daemon_batch_size",
                "chains per evaluate-batch request",
            ),
            registry,
        }
    }

    pub(crate) fn span(&self) -> Span {
        Span::enter(self.latency_us.clone(), Arc::clone(self.registry.clock()))
    }
}

/// Everything a serving thread needs to execute requests: the shared
/// oracle, the shared parsed-certificate cache, and the instruments.
pub(crate) struct ExecCtx {
    pub(crate) oracle: Arc<InProcessOracle>,
    pub(crate) certs: Arc<ParsedCertCache>,
    pub(crate) instruments: DaemonInstruments,
}

/// How many event loops the reactor runs by default: half the
/// available cores, clamped to `1..=4` — loops only parse and move
/// bytes, so a few go a long way.
fn default_event_loops() -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2);
    (cores / 2).clamp(1, 4)
}

/// Builder for a [`TrustDaemon`]: socket path (required), worker
/// count, event-loop count, verdict-cache capacity, and metric
/// registry.
///
/// ```no_run
/// use nrslb_core::daemon::TrustDaemon;
/// # let store = nrslb_rootstore::RootStore::new("platform");
/// let daemon = TrustDaemon::builder()
///     .socket("/run/nrslb/trustd.sock")
///     .workers(8)
///     .spawn(store)
///     .unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct DaemonBuilder {
    socket: Option<PathBuf>,
    workers: usize,
    event_loops: usize,
    cache_capacity: usize,
    registry: Option<Arc<Registry>>,
}

impl Default for DaemonBuilder {
    fn default() -> DaemonBuilder {
        DaemonBuilder {
            socket: None,
            workers: DEFAULT_WORKERS,
            event_loops: default_event_loops(),
            cache_capacity: crate::cache::DEFAULT_VERDICT_CACHE_CAPACITY,
            registry: None,
        }
    }
}

impl DaemonBuilder {
    /// The Unix socket path to bind (required; a stale socket file from
    /// a previous run is removed first).
    pub fn socket(mut self, path: impl AsRef<Path>) -> DaemonBuilder {
        self.socket = Some(path.as_ref().to_path_buf());
        self
    }

    /// Evaluation worker threads (at least 1; default
    /// [`DEFAULT_WORKERS`]).
    pub fn workers(mut self, workers: usize) -> DaemonBuilder {
        self.workers = workers;
        self
    }

    /// Event-loop threads (at least 1; default scales with core count).
    pub fn event_loops(mut self, event_loops: usize) -> DaemonBuilder {
        self.event_loops = event_loops;
        self
    }

    /// Capacity of the shared verdict cache.
    pub fn cache_capacity(mut self, capacity: usize) -> DaemonBuilder {
        self.cache_capacity = capacity;
        self
    }

    /// Report into a caller-provided registry — so the daemon's metrics
    /// share one exposition with a co-resident validator's or
    /// subscriber's. Defaults to a fresh private registry.
    pub fn registry(mut self, registry: Arc<Registry>) -> DaemonBuilder {
        self.registry = Some(registry);
        self
    }

    /// Bind the socket and start serving GCC evaluations for `store`.
    ///
    /// Fails with [`std::io::ErrorKind::InvalidInput`] if no socket
    /// path was set, or with the bind error otherwise.
    pub fn spawn(self, store: RootStore) -> std::io::Result<TrustDaemon> {
        let path = self.socket.ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "DaemonBuilder::socket is required",
            )
        })?;
        // Remove a stale socket from a previous run.
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path)?;
        let stop = Arc::new(AtomicBool::new(false));
        let registry = self.registry.unwrap_or_else(|| Arc::new(Registry::new()));
        let oracle = Arc::new(InProcessOracle::configured(
            store,
            self.cache_capacity,
            Some(&registry),
        ));
        let cert_cache = Arc::new(ParsedCertCache::default());
        let instruments = DaemonInstruments::new(Arc::clone(&registry));
        let ctx = ExecCtx {
            oracle: Arc::clone(&oracle),
            certs: Arc::clone(&cert_cache),
            instruments: instruments.clone(),
        };
        let engine = ReactorHandle::spawn(
            listener,
            self.event_loops.max(1),
            self.workers.max(1),
            Arc::new(DaemonService::new(ctx)),
            &registry,
            Arc::clone(&stop),
        )?;
        Ok(TrustDaemon {
            path,
            stop,
            oracle,
            cert_cache,
            instruments,
            engine,
            feed: None,
        })
    }
}

/// A running trust daemon; dropping the handle shuts it down.
pub struct TrustDaemon {
    path: PathBuf,
    stop: Arc<AtomicBool>,
    oracle: Arc<InProcessOracle>,
    cert_cache: Arc<ParsedCertCache>,
    instruments: DaemonInstruments,
    engine: ReactorHandle,
    /// The RSF subscriber keeping the platform store current, when the
    /// operator wired one up ([`TrustDaemon::attach_feed`]). The daemon
    /// surfaces its sync health ([`TrustDaemon::sync_counters`],
    /// [`TrustDaemon::feed_staleness`]) the way it surfaces the verdict
    /// cache.
    feed: Option<Arc<Mutex<Subscriber>>>,
}

impl TrustDaemon {
    /// Configure a daemon: socket path, workers, event loops, cache
    /// capacity, registry. See [`DaemonBuilder`].
    pub fn builder() -> DaemonBuilder {
        DaemonBuilder::default()
    }

    /// The socket path clients should connect to.
    pub fn socket_path(&self) -> &Path {
        &self.path
    }

    /// The shared oracle (exposes the verdict cache for metrics).
    pub fn oracle(&self) -> &InProcessOracle {
        &self.oracle
    }

    /// The shared parsed-certificate cache (DER bytes → handle),
    /// exposed so operators and tests can read its hit/miss counters.
    pub fn cert_cache(&self) -> &ParsedCertCache {
        &self.cert_cache
    }

    /// The daemon's metric registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.instruments.registry
    }

    /// The registry rendered as Prometheus text exposition — the same
    /// payload the `metrics` opcode returns over the socket.
    pub fn render_metrics(&self) -> String {
        self.instruments.registry.render_text()
    }

    /// Wire up the RSF subscriber that keeps the platform store
    /// current; the daemon then exposes its sync health as metrics.
    pub fn attach_feed(&mut self, feed: Arc<Mutex<Subscriber>>) {
        self.feed = Some(feed);
    }

    /// The attached subscriber's sync counters (attempts, retries,
    /// fallbacks, quarantines, stale serves), if a feed is attached.
    pub fn sync_counters(&self) -> Option<SyncCounters> {
        self.feed
            .as_ref()
            .map(|f| f.lock().expect("feed mutex").counters())
    }

    /// The attached subscriber's freshness at `now`, if a feed is
    /// attached.
    pub fn feed_staleness(&self, now: i64) -> Option<Staleness> {
        self.feed
            .as_ref()
            .map(|f| f.lock().expect("feed mutex").staleness(now))
    }

    /// Propagate the attached feed's applied updates into the serving
    /// path: drain the subscriber's accumulated [`nrslb_rsf::TaintSet`]
    /// (precise per-delta blast radius; full on snapshot fallback),
    /// swap the oracle onto the subscriber's current store, and evict
    /// exactly the tainted verdicts — so a long-running daemon
    /// invalidates by taint instead of absorbing updates wholesale.
    ///
    /// Call after the feed's polling loop applies updates. Returns the
    /// number of verdicts evicted, `Some(0)` without touching the
    /// store when the feed had nothing new, and `None` when no feed is
    /// attached. In-flight requests keep the store snapshot they
    /// started with ([`InProcessOracle::store`] hands out `Arc`s).
    pub fn refresh_from_feed(&self) -> Option<u64> {
        let feed = self.feed.as_ref()?;
        let mut feed = feed.lock().expect("feed mutex");
        let taint = feed.take_taint();
        if taint.is_empty() {
            return Some(0);
        }
        let store = feed.store().clone();
        drop(feed);
        Some(self.oracle.absorb_update(store, &taint))
    }

    /// Create a connect-per-request client for this daemon.
    pub fn client(&self) -> DaemonClient {
        DaemonClient::new(&self.path)
    }

    /// Create a keep-alive client for this daemon (one connection,
    /// many requests, batch support).
    pub fn keep_alive_client(&self) -> DaemonClient {
        DaemonClient::keep_alive(&self.path)
    }
}

impl Drop for TrustDaemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept loop.
        let _ = UnixStream::connect(&self.path);
        self.engine.shutdown();
        let _ = std::fs::remove_file(&self.path);
    }
}

/// How a [`DaemonClient`] manages its socket.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConnectionMode {
    /// A fresh `connect(2)` per request: trivially robust to daemon
    /// restarts, no state to invalidate. The default.
    #[default]
    PerRequest,
    /// One cached connection reused across requests — the
    /// throughput-oriented mode, avoiding the per-request connect
    /// round-trip that dominates warm-cache latency. Transport errors
    /// (broken pipe after a daemon restart, short reads) drop the
    /// cached stream and retry once on a fresh connection; evaluation
    /// requests are idempotent, so the retry is safe.
    KeepAlive,
}

/// Client side of the trust-daemon protocol. Implements [`GccOracle`],
/// so a [`crate::Validator`] in `Platform` mode can delegate GCC
/// evaluation to the daemon transparently.
///
/// The [`ConnectionMode`] picks the transport strategy; request and
/// response semantics are identical in both. Protocol errors (the
/// daemon answered `STATUS_ERR`) are final in either mode and — under
/// [`ConnectionMode::KeepAlive`] — keep the connection open, since the
/// response frame was fully consumed.
///
/// `Clone` copies the path and mode but **not** the cached connection;
/// each clone dials its own.
#[derive(Debug)]
pub struct DaemonClient {
    path: PathBuf,
    mode: ConnectionMode,
    stream: Mutex<Option<UnixStream>>,
}

impl Clone for DaemonClient {
    fn clone(&self) -> DaemonClient {
        DaemonClient {
            path: self.path.clone(),
            mode: self.mode,
            stream: Mutex::new(None),
        }
    }
}

impl DaemonClient {
    /// Connect-per-request client for the daemon at `socket_path`.
    pub fn new(socket_path: impl AsRef<Path>) -> DaemonClient {
        DaemonClient::with_mode(socket_path, ConnectionMode::PerRequest)
    }

    /// Keep-alive client for the daemon at `socket_path`. No connection
    /// is opened until the first request.
    pub fn keep_alive(socket_path: impl AsRef<Path>) -> DaemonClient {
        DaemonClient::with_mode(socket_path, ConnectionMode::KeepAlive)
    }

    /// Client with an explicit [`ConnectionMode`].
    pub fn with_mode(socket_path: impl AsRef<Path>, mode: ConnectionMode) -> DaemonClient {
        DaemonClient {
            path: socket_path.as_ref().to_path_buf(),
            mode,
            stream: Mutex::new(None),
        }
    }

    /// This client's [`ConnectionMode`].
    pub fn mode(&self) -> ConnectionMode {
        self.mode
    }

    /// Run one request/response exchange. `parse` layers transport
    /// errors (outer `io::Result` — the connection state is unknown)
    /// over protocol errors (inner — the response frame was fully
    /// consumed). Under [`ConnectionMode::KeepAlive`] a transport
    /// failure drops the cached stream and retries once on a fresh
    /// connection.
    fn exchange<T>(
        &self,
        request: &[u8],
        parse: impl Fn(&mut UnixStream) -> std::io::Result<Result<T, CoreError>>,
    ) -> Result<T, CoreError> {
        let io_err = |e: std::io::Error| CoreError::Daemon(e.to_string());
        match self.mode {
            ConnectionMode::PerRequest => {
                let mut stream = UnixStream::connect(&self.path).map_err(io_err)?;
                stream.write_all(request).map_err(io_err)?;
                stream.flush().map_err(io_err)?;
                parse(&mut stream).map_err(io_err)?
            }
            ConnectionMode::KeepAlive => {
                let mut guard = self.stream.lock().expect("daemon client poisoned");
                let mut reconnected = guard.is_none();
                loop {
                    if guard.is_none() {
                        *guard = Some(UnixStream::connect(&self.path).map_err(io_err)?);
                    }
                    let stream = guard.as_mut().expect("stream just ensured");
                    let attempt = (|| {
                        stream.write_all(request)?;
                        stream.flush()?;
                        parse(stream)
                    })();
                    match attempt {
                        Ok(result) => return result,
                        Err(e) => {
                            // Transport failure: the stream is in an
                            // unknown state. Drop it; retry once on a
                            // fresh connection.
                            *guard = None;
                            if reconnected {
                                return Err(io_err(e));
                            }
                            reconnected = true;
                        }
                    }
                }
            }
        }
    }

    /// Evaluate one chain against the GCCs attached to its root.
    pub fn evaluate(
        &self,
        chain: &[Certificate],
        usage: Usage,
    ) -> Result<Vec<GccVerdict>, CoreError> {
        let mut req = vec![OP_EVALUATE];
        encode_evaluate_body(&mut req, chain, usage);
        self.exchange(&req, |stream| match read_u8(stream)? {
            STATUS_OK => read_verdict_list(stream),
            STATUS_ERR => Ok(Err(read_error_reply(stream)?)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status byte {other}"),
            )),
        })
    }

    /// Evaluate many chains in one request frame (`OP_EVALUATE_BATCH`):
    /// a single write, a single response read, one round trip. Verdict
    /// lists come back in submission order. The whole batch shares one
    /// response frame, so failures are all-or-nothing: any chain that
    /// fails to evaluate fails the batch.
    pub fn evaluate_batch(
        &self,
        items: &[(&[Certificate], Usage)],
    ) -> Result<Vec<Vec<GccVerdict>>, CoreError> {
        if items.len() as u32 > MAX_BATCH {
            return Err(CoreError::Daemon(format!(
                "batch of {} exceeds limit {MAX_BATCH}",
                items.len()
            )));
        }
        let mut req = vec![OP_EVALUATE_BATCH];
        req.extend_from_slice(&(items.len() as u32).to_le_bytes());
        for (chain, usage) in items {
            encode_evaluate_body(&mut req, chain, *usage);
        }
        let expected = items.len();
        self.exchange(&req, move |stream| match read_u8(stream)? {
            STATUS_OK => {
                let n = read_u32(stream)? as usize;
                if n != expected {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("batch answered {n} items, expected {expected}"),
                    ));
                }
                let mut batches = Vec::with_capacity(n);
                for _ in 0..n {
                    match read_verdict_list(stream)? {
                        Ok(verdicts) => batches.push(verdicts),
                        Err(e) => return Ok(Err(e)),
                    }
                }
                Ok(Ok(batches))
            }
            STATUS_ERR => Ok(Err(read_error_reply(stream)?)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status byte {other}"),
            )),
        })
    }

    /// Scrape the daemon: fetch its registry rendered as Prometheus
    /// text exposition (the `metrics` opcode).
    pub fn metrics_text(&self) -> Result<String, CoreError> {
        self.exchange(&[OP_METRICS], |stream| match read_u8(stream)? {
            STATUS_OK => {
                let body = read_block(stream)?;
                Ok(String::from_utf8(body)
                    .map_err(|_| CoreError::Daemon("non-utf8 metrics payload".into())))
            }
            STATUS_ERR => Ok(Err(read_error_reply(stream)?)),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status byte {other}"),
            )),
        })
    }
}

impl GccOracle for DaemonClient {
    fn evaluate(&self, chain: &[Certificate], usage: Usage) -> Result<Vec<GccVerdict>, CoreError> {
        DaemonClient::evaluate(self, chain, usage)
    }
}

/// Append one `evaluate` body (usage byte, cert count, DER blocks) to a
/// request buffer. Shared by the single-shot and batch encoders.
fn encode_evaluate_body(req: &mut Vec<u8>, chain: &[Certificate], usage: Usage) {
    req.push(proto::usage_to_byte(usage));
    req.extend_from_slice(&(chain.len() as u32).to_le_bytes());
    for cert in chain {
        let der = cert.to_der();
        req.extend_from_slice(&(der.len() as u32).to_le_bytes());
        req.extend_from_slice(der);
    }
}

/// Read one verdict list off the wire.
///
/// The outer `io::Result` is a *transport* failure (short read, broken
/// pipe) — the connection state is unknown and a keep-alive client must
/// drop the stream. The inner `Result` is a *protocol* failure (the
/// daemon reported an error, or sent malformed-but-framed data); the
/// response frame was fully consumed, so the connection stays usable.
fn read_verdict_list(
    stream: &mut UnixStream,
) -> std::io::Result<Result<Vec<GccVerdict>, CoreError>> {
    let n = read_u32(stream)?;
    if n > 1024 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "verdict count exceeds limit",
        ));
    }
    let mut verdicts = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let accepted = read_u8(stream)? != 0;
        let name = read_block(stream)?;
        let gcc_name: std::sync::Arc<str> = match std::str::from_utf8(&name) {
            Ok(name) => std::sync::Arc::from(name),
            Err(_) => return Ok(Err(CoreError::Daemon("non-utf8 GCC name".into()))),
        };
        verdicts.push(GccVerdict { gcc_name, accepted });
    }
    Ok(Ok(verdicts))
}

/// Read a `STATUS_ERR` payload (the frame is fully drained, so a
/// keep-alive connection remains usable afterwards).
fn read_error_reply(stream: &mut UnixStream) -> std::io::Result<CoreError> {
    let msg = read_block(stream)?;
    Ok(CoreError::Daemon(
        String::from_utf8_lossy(&msg).into_owned(),
    ))
}

/// A unique socket path in the system temp directory (test/example aid).
pub fn ephemeral_socket_path(tag: &str) -> PathBuf {
    use std::sync::atomic::AtomicU64;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "nrslb-trustd-{}-{}-{}.sock",
        tag,
        std::process::id(),
        n
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::{ValidationMode, Validator};
    use nrslb_rootstore::{Gcc, GccMetadata};
    use nrslb_rsf::{FeedKey, FeedPublisher, FeedTrust, QuorumAuthority, QuorumConfig};
    use nrslb_x509::testutil::simple_chain;

    fn spawn_default(store: RootStore, tag: &str) -> TrustDaemon {
        TrustDaemon::builder()
            .socket(ephemeral_socket_path(tag))
            .spawn(store)
            .unwrap()
    }

    /// A 2-of-3 quorum-governed publisher of `store` and the trust
    /// pinning it. Each signer signs the endorsement and one witness
    /// per checkpoint; no test here checkpoints more than twice.
    fn quorum_feed(seed: u8, store: &RootStore) -> (FeedPublisher, FeedTrust) {
        let authority =
            QuorumAuthority::from_seed([seed; 32], QuorumConfig { k: 2, n: 3 }, 2).unwrap();
        let trust = FeedTrust::quorum(authority.trust());
        let key = FeedKey::new_quorum([seed + 1; 32], 6, &authority).unwrap();
        let publisher = FeedPublisher::new_quorum("platform", key, authority, store, 0).unwrap();
        (publisher, trust)
    }

    #[test]
    fn daemon_evaluates_gccs() {
        let pki = simple_chain("daemon.example");
        let mut store = RootStore::new("platform");
        store.add_trusted(pki.root.clone()).unwrap();
        let gcc = Gcc::parse(
            "tls-only",
            pki.root.fingerprint(),
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();

        let daemon = spawn_default(store, "eval");
        let client = daemon.client();
        let chain = vec![pki.leaf, pki.intermediate, pki.root];
        let verdicts = client.evaluate(&chain, Usage::Tls).unwrap();
        assert_eq!(verdicts.len(), 1);
        assert!(verdicts[0].accepted);
        let verdicts = client.evaluate(&chain, Usage::SMime).unwrap();
        assert!(!verdicts[0].accepted);
    }

    #[test]
    fn validator_platform_mode_uses_daemon() {
        let pki = simple_chain("daemonmode.example");
        let mut store = RootStore::new("platform");
        store.add_trusted(pki.root.clone()).unwrap();
        let gcc = Gcc::parse(
            "deny-all",
            pki.root.fingerprint(),
            r#"valid(Chain, "never") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();

        let daemon = spawn_default(store.clone(), "mode");
        let validator = Validator::new(store, ValidationMode::Platform(Arc::new(daemon.client())));
        let out = validator
            .validate(
                &pki.leaf,
                std::slice::from_ref(&pki.intermediate),
                Usage::Tls,
                pki.now,
            )
            .unwrap();
        assert!(!out.accepted());
        assert!(matches!(
            out.final_reason(),
            Some(crate::validate::RejectReason::GccRejected { .. })
        ));
    }

    #[test]
    fn daemon_with_no_gccs_accepts_vacuously() {
        let pki = simple_chain("daemonempty.example");
        let mut store = RootStore::new("platform");
        store.add_trusted(pki.root.clone()).unwrap();
        let daemon = spawn_default(store, "empty");
        let chain = vec![pki.leaf, pki.intermediate, pki.root];
        let verdicts = daemon.client().evaluate(&chain, Usage::Tls).unwrap();
        assert!(verdicts.is_empty());
    }

    #[test]
    fn concurrent_clients_get_complete_correct_verdicts() {
        // 10 threads hammer one daemon (8 workers) with interleaved
        // requests for two different chains and both usages; every
        // response must be the complete, correct verdict set for that
        // exact (chain, usage) — no cross-talk, no partial replies.
        let pki_a = simple_chain("concurrent-a.example");
        let pki_b = simple_chain("concurrent-b.example");
        let mut store = RootStore::new("platform");
        for pki in [&pki_a, &pki_b] {
            store.add_trusted(pki.root.clone()).unwrap();
            let tls_only = Gcc::parse(
                "tls-only",
                pki.root.fingerprint(),
                r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
                GccMetadata::default(),
            )
            .unwrap();
            let any_usage = Gcc::parse(
                "any-usage",
                pki.root.fingerprint(),
                "valid(Chain, _) :- leaf(Chain, _).",
                GccMetadata::default(),
            )
            .unwrap();
            store.attach_gcc(tls_only).unwrap();
            store.attach_gcc(any_usage).unwrap();
        }

        let daemon = TrustDaemon::builder()
            .socket(ephemeral_socket_path("concurrent"))
            .workers(8)
            .spawn(store)
            .unwrap();
        let chain_a = vec![pki_a.leaf, pki_a.intermediate, pki_a.root];
        let chain_b = vec![pki_b.leaf, pki_b.intermediate, pki_b.root];

        let check = |client: &DaemonClient, chain: &[Certificate], usage: Usage| {
            let verdicts = client.evaluate(chain, usage).unwrap();
            let by_name: Vec<(&str, bool)> = verdicts
                .iter()
                .map(|v| (&*v.gcc_name, v.accepted))
                .collect();
            assert_eq!(
                by_name,
                [("tls-only", usage == Usage::Tls), ("any-usage", true)],
                "usage {usage}"
            );
        };

        std::thread::scope(|scope| {
            for t in 0..10usize {
                let client = daemon.client();
                let chain_a = &chain_a;
                let chain_b = &chain_b;
                scope.spawn(move || {
                    for i in 0..20usize {
                        let chain = if (t + i) % 2 == 0 { chain_a } else { chain_b };
                        let usage = if i % 2 == 0 { Usage::Tls } else { Usage::SMime };
                        check(&client, chain, usage);
                    }
                });
            }
        });
        // 2 chains x 2 usages x 2 GCCs = 8 distinct verdict keys. Misses
        // beyond 8 only happen when workers race on a cold key, which is
        // bounded by the worker count per key.
        let cache = daemon.oracle().cache();
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.hits() + cache.misses(), 10 * 20 * 2);
        assert!(cache.hits() >= 10 * 20 * 2 - 8 * 8, "{cache:?}");
    }

    #[test]
    fn daemon_scrapes_feed_sync_counters() {
        let pki = simple_chain("daemonfeed.example");
        let mut store = RootStore::new("platform");
        store.add_trusted(pki.root.clone()).unwrap();
        let (mut publisher, trust) = quorum_feed(21, &store);
        let feed = Arc::new(Mutex::new(Subscriber::builder("platform", trust).build()));

        let mut daemon = spawn_default(store, "feed");
        assert!(daemon.sync_counters().is_none(), "no feed attached yet");
        daemon.attach_feed(feed.clone());
        assert_eq!(daemon.sync_counters(), Some(SyncCounters::default()));
        assert_eq!(daemon.feed_staleness(0), Some(Staleness::NeverSynced));

        feed.lock().unwrap().sync(&mut publisher, 100).unwrap();
        let counters = daemon.sync_counters().unwrap();
        assert_eq!(counters.attempts, 1);
        assert_eq!(counters.messages_ingested, 1);
        assert_eq!(counters.quarantines, 0);
        assert_eq!(
            daemon.feed_staleness(150),
            Some(Staleness::Fresh { age_secs: 50 })
        );
        assert!(matches!(
            daemon.feed_staleness(100 + 90_000),
            Some(Staleness::Exceeded { .. })
        ));
    }

    /// A long-running daemon propagates feed deltas into its verdict
    /// cache by precise taint ([`TrustDaemon::refresh_from_feed`])
    /// instead of absorbing updates wholesale.
    #[test]
    fn daemon_refresh_from_feed_invalidates_by_taint() {
        let pki_a = simple_chain("refresh-a.example");
        let pki_b = simple_chain("refresh-b.example");
        let mut store = RootStore::new("platform");
        // Distinct GCC sources per root so taint stays per-root precise.
        for (pki, tag) in [(&pki_a, "a"), (&pki_b, "b")] {
            store.add_trusted(pki.root.clone()).unwrap();
            let src = format!("valid(Chain, _) :- leaf(Chain, _).\nowner(\"{tag}\").");
            let gcc = Gcc::parse(
                "refresh-policy",
                pki.root.fingerprint(),
                &src,
                GccMetadata::default(),
            )
            .unwrap();
            store.attach_gcc(gcc).unwrap();
        }

        let (mut publisher, trust) = quorum_feed(41, &store);
        let feed = Arc::new(Mutex::new(Subscriber::builder("platform", trust).build()));

        let mut daemon = spawn_default(store.clone(), "refresh");
        assert!(daemon.refresh_from_feed().is_none(), "no feed attached");
        daemon.attach_feed(feed.clone());

        // Bootstrap (snapshot → full taint): nothing cached yet, so
        // the refresh swaps the store and evicts nothing.
        feed.lock().unwrap().sync(&mut publisher, 10).unwrap();
        assert_eq!(daemon.refresh_from_feed(), Some(0));

        // Warm both chains through the socket.
        let client = daemon.client();
        let chain_a = vec![
            pki_a.leaf.clone(),
            pki_a.intermediate.clone(),
            pki_a.root.clone(),
        ];
        let chain_b = vec![pki_b.leaf, pki_b.intermediate, pki_b.root];
        for chain in [&chain_a, &chain_b] {
            assert!(client.evaluate(chain, Usage::Tls).unwrap()[0].accepted);
            assert!(client.evaluate(chain, Usage::Tls).unwrap()[0].accepted);
        }
        assert_eq!(daemon.oracle().cache().len(), 2);

        // Idle poll applied nothing: refresh is a no-op.
        feed.lock().unwrap().sync(&mut publisher, 20).unwrap();
        assert_eq!(daemon.refresh_from_feed(), Some(0));
        assert_eq!(daemon.oracle().cache().len(), 2);

        // Revise root A's GCC upstream; the delta's precise taint
        // evicts exactly A's verdict.
        let mut next = store.clone();
        let old_a = next.gccs_for(&pki_a.root.fingerprint())[0].clone();
        next.detach_gcc(&pki_a.root.fingerprint(), &old_a.source_hash());
        let revised = Gcc::parse(
            "refresh-policy",
            pki_a.root.fingerprint(),
            "valid(Chain, _) :- leaf(Chain, _).\nowner(\"a\").\nrevision(\"2\").",
            GccMetadata::default(),
        )
        .unwrap();
        next.attach_gcc(revised).unwrap();
        publisher.publish(&next, 30).unwrap();
        feed.lock().unwrap().sync(&mut publisher, 30).unwrap();
        assert_eq!(
            daemon.refresh_from_feed(),
            Some(1),
            "exactly root A's verdict evicted"
        );
        assert_eq!(daemon.oracle().cache().len(), 1);

        // B still serves warm; A re-derives against the refreshed store.
        let hits = daemon.oracle().cache().hits();
        let misses = daemon.oracle().cache().misses();
        assert!(client.evaluate(&chain_b, Usage::Tls).unwrap()[0].accepted);
        assert_eq!(daemon.oracle().cache().hits(), hits + 1);
        assert!(client.evaluate(&chain_a, Usage::Tls).unwrap()[0].accepted);
        assert_eq!(daemon.oracle().cache().misses(), misses + 1);
    }

    #[test]
    fn scraped_metrics_cover_cache_validation_and_feed() {
        use crate::validate::{ValidationMode, Validator};

        let pki = simple_chain("scrape.example");
        let mut store = RootStore::new("platform");
        store.add_trusted(pki.root.clone()).unwrap();
        let gcc = Gcc::parse(
            "tls-only",
            pki.root.fingerprint(),
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();

        // One registry shared by the daemon (cache + request metrics),
        // a Platform-mode validator (outcome + latency metrics), and
        // the RSF subscriber (sync + state metrics) — the acceptance
        // shape for the observability PR.
        let registry = Arc::new(Registry::new());
        let daemon = TrustDaemon::builder()
            .socket(ephemeral_socket_path("scrape"))
            .workers(4)
            .registry(Arc::clone(&registry))
            .spawn(store.clone())
            .unwrap();
        let (mut publisher, trust) = quorum_feed(31, &store);
        let feed = Arc::new(Mutex::new(
            Subscriber::builder("platform", trust)
                .registry(Arc::clone(&registry))
                .build(),
        ));
        feed.lock().unwrap().sync(&mut publisher, 100).unwrap();

        let validator = Validator::new(store, ValidationMode::Platform(Arc::new(daemon.client())))
            .with_registry(&registry);
        for _ in 0..2 {
            let out = validator
                .validate(
                    &pki.leaf,
                    std::slice::from_ref(&pki.intermediate),
                    Usage::Tls,
                    pki.now,
                )
                .unwrap();
            assert!(out.accepted());
        }

        let text = daemon.client().metrics_text().unwrap();
        // The scrape request is itself timed, so the scraped text and a
        // later local render differ only in the request-latency series.
        assert!(daemon
            .render_metrics()
            .contains("nrslb_daemon_requests_total 3"));
        // Cache hit/miss: two identical validations = one miss, one hit.
        assert!(
            text.contains("nrslb_verdict_cache_misses_total 1"),
            "{text}"
        );
        assert!(text.contains("nrslb_verdict_cache_hits_total 1"), "{text}");
        // Validation outcomes and latency quantiles.
        assert!(
            text.contains("nrslb_validations_total{outcome=\"accepted\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("nrslb_validation_latency_us{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(
            text.contains("nrslb_validation_latency_us_count 2"),
            "{text}"
        );
        // Daemon request metrics (2 evaluate calls; the metrics scrape
        // itself raced this render, so only a lower bound is stable).
        assert!(text.contains("nrslb_daemon_requests_total"), "{text}");
        assert!(
            text.contains("nrslb_daemon_request_latency_us{quantile=\"0.5\"}"),
            "{text}"
        );
        // Subscriber state: 1 = live after the successful sync.
        assert!(
            text.contains("nrslb_rsf_subscriber_state{subscriber=\"platform\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("nrslb_rsf_sync_attempts_total{subscriber=\"platform\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("nrslb_rsf_last_synced_timestamp_secs{subscriber=\"platform\"} 100"),
            "{text}"
        );
    }

    #[test]
    fn client_error_on_missing_daemon() {
        let client = DaemonClient::new("/nonexistent/nrslb.sock");
        let pki = simple_chain("noclient.example");
        let err = client.evaluate(&[pki.leaf], Usage::Tls);
        assert!(matches!(err, Err(CoreError::Daemon(_))));
    }

    #[test]
    fn builder_requires_a_socket_path() {
        let store = RootStore::new("platform");
        let err = TrustDaemon::builder().spawn(store).err().unwrap();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn daemon_shuts_down_cleanly() {
        let pki = simple_chain("shutdown.example");
        let mut store = RootStore::new("platform");
        store.add_trusted(pki.root.clone()).unwrap();
        let path = ephemeral_socket_path("shutdown");
        {
            let _daemon = TrustDaemon::builder().socket(&path).spawn(store).unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists(), "socket removed on drop");
    }

    /// Store fixture with one TLS-gated GCC attached to the chain root.
    fn tls_gated_store(pki: &nrslb_x509::testutil::SimplePki) -> RootStore {
        let mut store = RootStore::new("platform");
        store.add_trusted(pki.root.clone()).unwrap();
        let gcc = Gcc::parse(
            "tls-only",
            pki.root.fingerprint(),
            r#"valid(Chain, "TLS") :- leaf(Chain, _)."#,
            GccMetadata::default(),
        )
        .unwrap();
        store.attach_gcc(gcc).unwrap();
        store
    }

    #[test]
    fn batch_evaluates_many_chains_in_one_round_trip() {
        let pki = simple_chain("batch.example");
        let store = tls_gated_store(&pki);
        let registry = Arc::new(Registry::new());
        let daemon = TrustDaemon::builder()
            .socket(ephemeral_socket_path("batch"))
            .workers(2)
            .registry(Arc::clone(&registry))
            .spawn(store)
            .unwrap();
        let chain = vec![pki.leaf, pki.intermediate, pki.root];
        let conn = daemon.keep_alive_client();

        // Mixed usages in one frame; verdicts must come back in
        // submission order with per-item correctness.
        let items: Vec<(&[Certificate], Usage)> = vec![
            (&chain, Usage::Tls),
            (&chain, Usage::SMime),
            (&chain, Usage::Tls),
        ];
        let batches = conn.evaluate_batch(&items).unwrap();
        assert_eq!(batches.len(), 3);
        for (i, (_, usage)) in items.iter().enumerate() {
            assert_eq!(batches[i].len(), 1, "item {i}");
            assert_eq!(&*batches[i][0].gcc_name, "tls-only");
            assert_eq!(batches[i][0].accepted, *usage == Usage::Tls, "item {i}");
        }

        // An empty batch is a valid (if pointless) request.
        assert!(conn.evaluate_batch(&[]).unwrap().is_empty());

        // The client rejects oversized batches before touching the wire.
        let oversized: Vec<(&[Certificate], Usage)> = (0..=MAX_BATCH as usize)
            .map(|_| (&chain[..], Usage::Tls))
            .collect();
        assert!(matches!(
            conn.evaluate_batch(&oversized),
            Err(CoreError::Daemon(_))
        ));

        // Batch sizes were observed: two batch requests (3 chains, 0).
        let text = daemon.render_metrics();
        assert!(text.contains("nrslb_daemon_batch_size_count 2"), "{text}");
    }

    #[test]
    fn cert_cache_parses_each_der_once_across_requests() {
        let pki = simple_chain("certcache-daemon.example");
        let store = tls_gated_store(&pki);
        let daemon = spawn_default(store, "certcache");
        let chain = vec![pki.leaf, pki.intermediate, pki.root];
        let conn = daemon.keep_alive_client();

        assert!(conn.evaluate(&chain, Usage::Tls).unwrap()[0].accepted);
        // First request: three certs, all parse-cache misses.
        assert_eq!(daemon.cert_cache().misses(), 3);
        assert_eq!(daemon.cert_cache().hits(), 0);

        // Repeats of the same wire bytes never touch the DER parser.
        for _ in 0..2 {
            assert!(conn.evaluate(&chain, Usage::Tls).unwrap()[0].accepted);
        }
        assert_eq!(daemon.cert_cache().misses(), 3);
        assert_eq!(daemon.cert_cache().hits(), 6);
    }

    #[test]
    fn batch_dedups_repeated_chains_by_content() {
        let pki = simple_chain("batchdedup.example");
        let store = tls_gated_store(&pki);
        let daemon = spawn_default(store, "batchdedup");
        let chain = vec![pki.leaf, pki.intermediate, pki.root];
        let conn = daemon.keep_alive_client();

        // Four copies of the same (chain, usage) plus one distinct
        // usage: two distinct evaluations, five verdict lists.
        let items: Vec<(&[Certificate], Usage)> = vec![
            (&chain, Usage::Tls),
            (&chain, Usage::Tls),
            (&chain, Usage::SMime),
            (&chain, Usage::Tls),
            (&chain, Usage::Tls),
        ];
        let batches = conn.evaluate_batch(&items).unwrap();
        assert_eq!(batches.len(), 5);
        for (i, (_, usage)) in items.iter().enumerate() {
            assert_eq!(batches[i][0].accepted, *usage == Usage::Tls, "item {i}");
        }
        // The duplicates were answered by cloning, not re-evaluation:
        // the verdict cache saw exactly the two distinct items (both
        // misses, no hits — dedup short-circuits before the oracle).
        assert_eq!(daemon.oracle().cache().misses(), 2);
        assert_eq!(daemon.oracle().cache().hits(), 0);
    }

    #[test]
    fn keep_alive_connection_reuses_socket_and_reconnects_after_restart() {
        let pki = simple_chain("keepalive.example");
        let store = tls_gated_store(&pki);
        let path = ephemeral_socket_path("keepalive");
        let chain = vec![pki.leaf, pki.intermediate, pki.root];

        let daemon = TrustDaemon::builder()
            .socket(&path)
            .spawn(store.clone())
            .unwrap();
        let conn = daemon.keep_alive_client();
        assert_eq!(conn.mode(), ConnectionMode::KeepAlive);
        // Two sequential evaluations ride the same connection.
        for _ in 0..2 {
            let verdicts = conn.evaluate(&chain, Usage::Tls).unwrap();
            assert!(verdicts[0].accepted);
        }
        assert!(daemon
            .render_metrics()
            .contains("nrslb_daemon_requests_total 2"));

        // Restart the daemon at the same path: the cached stream is now
        // stale, and the next request must transparently reconnect.
        drop(daemon);
        let daemon = TrustDaemon::builder().socket(&path).spawn(store).unwrap();
        let verdicts = conn.evaluate(&chain, Usage::SMime).unwrap();
        assert!(!verdicts[0].accepted);
        drop(daemon);

        // With no daemon at all, the reconnect attempt surfaces a final
        // error rather than hanging.
        assert!(matches!(
            conn.evaluate(&chain, Usage::Tls),
            Err(CoreError::Daemon(_))
        ));
    }
}
