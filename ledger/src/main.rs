//! Verdict cost ledger: what one GCC verdict costs in each of the
//! paper's §3.1 deployment modes, and how fast a root-store feed carries
//! a distrust decision to a daemon (§4).
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload daemon_hit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One run: set up three times (seeded fixtures from the seven incident
//! GCCs, a trust daemon and a quorum-signed feed, all with shipped
//! defaults but the socket path; warm-up) and report the median set-up
//! time; measure capacity in a closed loop; offer the workload's fixed
//! rate open-loop; toggle the feed and time each verdict flip. Every
//! reply is checked against reference verdicts. The last line of
//! standard output is one JSON object; `--trace 1` reports the per-layer
//! metrics instead of the end-to-end ones and writes its spans to
//! `.ledger_run/spans-<workload>.jsonl`.
//!
//! Measurement caveats, deliberately not fixed in the program:
//! `nrslb_daemon_request_latency_us` is not used for attribution (on the
//! inline path its span opens after `evaluate_warm`, leaving out the
//! verdict-cache work), and the daemon follows a sans-IO subscriber
//! because `RemoteSubscriber` exposes no `take_taint` (see `feed`).

mod feed;
mod fixture;
mod load;
mod sweep;
mod trace;

use feed::{FeedKeys, FeedRig, Versions};
use fixture::Fixture;
use load::{closed_loop, median, open_loop, percentile};
use nrslb_core::{DaemonClient, TrustDaemon, ValidationMode, Validator};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Shares of `--seconds`: closed-loop capacity, open-loop latency, and
/// the quiet propagation phase.
const CAPACITY_SHARE: f64 = 0.5;
const OPEN_SHARE: f64 = 0.3;
const PROPAGATION_SHARE: f64 = 0.2;
/// Feed deltas per second while `feed_churn` serves traffic (during the
/// capacity and open-loop phases).
const CHURN_HZ: f64 = 2.0;
/// Feed deltas spread evenly over the quiet propagation phase.
const PROPAGATION_DELTAS: u64 = 100;
/// Remote idle polls between deltas.
const IDLE_POLL: Duration = Duration::from_millis(10);
/// Where sockets and spans go, inside the checkout.
const RUN_DIR: &str = ".ledger_run";

/// The four workloads. Their open-loop offered rates are fixed here,
/// never derived per run, so two commits see the same load: 10–25% of
/// the closed-loop capacity measured when the benchmark was added, on a quiet 2-vCPU
/// VM, low enough that the host's CPU steal does not saturate them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// ~64 chains: every request is a cert-cache and verdict-cache hit,
    /// served inline on the event loop.
    DaemonHit,
    /// 8192 (chain, GCC) verdicts, twice the verdict cache, cycled so
    /// the LRU never hits; the certificates still fit the cert cache.
    DaemonMiss,
    /// `DaemonHit` traffic while the feed toggles a root's GCC.
    FeedChurn,
    /// In-process `ValidationMode::Hammurabi` validation of the
    /// incident chains (leaf, pool, hostname, time).
    Hammurabi,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        Some(match name {
            "daemon_hit" => Workload::DaemonHit,
            "daemon_miss" => Workload::DaemonMiss,
            "feed_churn" => Workload::FeedChurn,
            "hammurabi" => Workload::Hammurabi,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::DaemonHit => "daemon_hit",
            Workload::DaemonMiss => "daemon_miss",
            Workload::FeedChurn => "feed_churn",
            Workload::Hammurabi => "hammurabi",
        }
    }

    /// Leaves minted for the working set.
    pub fn leaves(self) -> usize {
        match self {
            Workload::DaemonMiss => 1024,
            _ => 64,
        }
    }

    /// Reissued variants of every intermediate; each leaf is requested
    /// under each, multiplying verdict keys but not certificates.
    pub fn variants(self) -> usize {
        match self {
            Workload::DaemonMiss => 8,
            _ => 1,
        }
    }

    /// The fixed open-loop offered rate, requests per second.
    fn offered_rps(self) -> f64 {
        match self {
            Workload::DaemonHit => 5_000.0,
            Workload::FeedChurn => 4_000.0,
            Workload::DaemonMiss => 2_000.0,
            Workload::Hammurabi => 400.0,
        }
    }

    /// Do this workload's daemon requests hit the verdict cache?
    fn hit_path(self) -> bool {
        matches!(self, Workload::DaemonHit | Workload::FeedChurn)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Phase lengths and the feed's delta budget for one run.
struct Plan {
    capacity: Duration,
    open: Duration,
    propagation: Duration,
    deltas: u64,
    threads: usize,
}

impl Plan {
    fn new(workload: Workload, seconds: f64) -> Plan {
        let secs = |share: f64| Duration::from_secs_f64(seconds * share);
        let churn = if workload == Workload::FeedChurn {
            (seconds * (CAPACITY_SHARE + OPEN_SHARE) * CHURN_HZ).ceil() as u64
        } else {
            0
        };
        Plan {
            capacity: secs(CAPACITY_SHARE),
            open: secs(OPEN_SHARE),
            propagation: secs(PROPAGATION_SHARE),
            deltas: churn + PROPAGATION_DELTAS + 1,
            threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
        }
    }
}

/// Everything the load threads share (read-only while they run).
struct Shared {
    workload: Workload,
    fx: Fixture,
    flips: Vec<bool>,
    daemon: TrustDaemon,
    clients: Vec<DaemonClient>,
    validator: Option<Validator>,
    versions: Versions,
    /// Requests issued by earlier phases: each phase numbers its own
    /// requests from 0, and continuing from here keeps one global cyclic
    /// order across phases.
    issued: AtomicU64,
}

impl Shared {
    fn new(
        workload: Workload,
        fx: Fixture,
        daemon: TrustDaemon,
        threads: usize,
        deltas: u64,
    ) -> Shared {
        let validator = (workload == Workload::Hammurabi)
            .then(|| Validator::new(fx.stores[0].clone(), ValidationMode::Hammurabi));
        let mut flips = vec![false; fx.requests.len()];
        for &i in &fx.flips {
            flips[i] = true;
        }
        Shared {
            workload,
            clients: (0..threads).map(|_| daemon.keep_alive_client()).collect(),
            versions: Versions::new(deltas, fx.requests.len()),
            issued: AtomicU64::new(0),
            validator,
            flips,
            daemon,
            fx,
        }
    }

    /// One checked pass over the working set on `threads` threads;
    /// returns how many requests failed.
    fn checked_pass(&self, threads: usize) -> u64 {
        let n = self.fx.requests.len() as u64;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|j| {
                    scope.spawn(move || {
                        (j as u64..n)
                            .step_by(threads)
                            .filter(|&seq| !self.exec(j, seq))
                            .count() as u64
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("pass thread"))
                .sum()
        })
    }

    /// Perform and check the `seq`-th request of the current phase on
    /// connection `thread`.
    fn exec(&self, thread: usize, seq: u64) -> bool {
        let seq = self.issued.load(Ordering::Relaxed) + seq;
        let i = (seq % self.fx.requests.len() as u64) as usize;
        match &self.validator {
            Some(v) => self.validate(v, i),
            None => self.evaluate(thread, i),
        }
    }

    fn validate(&self, validator: &Validator, i: usize) -> bool {
        let r = &self.fx.requests[i];
        validator
            .validate_for_host(&r.chain[0], &r.pool, &r.host, r.at)
            .is_ok_and(|o| o.accepted() == self.fx.accepts[i])
    }

    /// Ask the daemon for request `i`'s verdicts. A reply is correct for
    /// any feed version between the one applied when it was sent and
    /// the one published when it arrived.
    fn evaluate(&self, thread: usize, i: usize) -> bool {
        let r = &self.fx.requests[i];
        let lo = self.versions.applied();
        let sent = Instant::now();
        let reply = self.clients[thread].evaluate(&r.chain, r.usage);
        let received = Instant::now();
        let hi = self.versions.published();
        let Ok(reply) = reply else {
            return false;
        };
        let ok = (lo..=hi.min(lo + 1)).any(|v| self.fx.matches(i, v, &reply));
        if ok && r.toggled {
            let flipped = self.flips[i] && self.fx.matches(i, hi, &reply);
            self.versions.observe(i, lo, hi, flipped, sent, received);
        }
        ok
    }
}

struct Bench {
    shared: Shared,
    feed: FeedRig,
}

/// Requests checked and failed, across every phase.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

fn setup(
    args: &Args,
    plan: &Plan,
    dir: &Path,
    rep: usize,
    tally: &mut Tally,
) -> Result<Bench, String> {
    let (fx, keys) = std::thread::scope(|scope| {
        let keys = scope.spawn(|| FeedKeys::generate(args.seed, plan.deltas));
        let fx = fixture::build(args.workload, args.seed, plan.threads);
        (fx, keys.join().expect("feed keygen panicked"))
    });
    let (fx, keys) = (fx?, keys?);
    let mut daemon = TrustDaemon::builder()
        .socket(dir.join(format!("daemon{rep}.sock")))
        .spawn(fx.stores[0].clone())
        .map_err(|e| format!("daemon: {e}"))?;
    let feed = FeedRig::start(
        keys,
        fx.stores.clone(),
        &mut daemon,
        &dir.join(format!("feed{rep}.sock")),
        plan.deltas,
    )?;
    let shared = Shared::new(args.workload, fx, daemon, plan.threads, plan.deltas);
    // Warm-up: one checked pass over the working set.
    let failed = shared.checked_pass(plan.threads);
    tally.add(shared.fx.requests.len() as u64, failed);
    Ok(Bench { shared, feed })
}

/// Prometheus text exposition: the sum of every series of `family`.
fn family_sum(text: &str, family: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let rest = l.strip_prefix(family)?;
            if !(rest.starts_with('{') || rest.starts_with(' ')) {
                return None;
            }
            l.rsplit(' ').next()?.parse::<f64>().ok()
        })
        .sum()
}

/// Daemon counters, read at the start and end of the measured phases.
struct Counters {
    requests: f64,
    inline: f64,
    ready_events: f64,
    backpressure: f64,
    evaluations: f64,
    rounds: f64,
    tuples: f64,
    cert_hits: u64,
    cert_misses: u64,
    verdict_hits: u64,
    verdict_misses: u64,
    memo_hits: u64,
    memo_misses: u64,
}

impl Counters {
    fn read(shared: &Shared) -> Counters {
        let text = shared.daemon.render_metrics();
        let sum = |name| family_sum(&text, name);
        let cache = shared.daemon.oracle().cache();
        let memo = shared.validator.as_ref().map(|v| v.sig_memo());
        Counters {
            requests: sum("nrslb_daemon_requests_total"),
            inline: sum("nrslb_reactor_inline_total"),
            ready_events: sum("nrslb_reactor_ready_events_sum"),
            backpressure: sum("nrslb_reactor_backpressure_total"),
            evaluations: sum("nrslb_datalog_evaluations_total"),
            rounds: sum("nrslb_datalog_eval_rounds_sum"),
            tuples: sum("nrslb_datalog_tuples_derived_total"),
            cert_hits: shared.daemon.cert_cache().hits(),
            cert_misses: shared.daemon.cert_cache().misses(),
            verdict_hits: cache.hits(),
            verdict_misses: cache.misses(),
            memo_hits: memo.map_or(0, |m| m.hits()),
            memo_misses: memo.map_or(0, |m| m.misses()),
        }
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median_u64(values: &[u64]) -> f64 {
    median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Run the feed at `hz` until `until` (or `stop`), idle-polling the node
/// between deltas.
fn churn(
    feed: &mut FeedRig,
    shared: &Shared,
    hz: f64,
    until: Instant,
    stop: &AtomicBool,
) -> Result<(), String> {
    load::lower_timer_slack();
    let start = Instant::now();
    for k in 1u64.. {
        let due = start + Duration::from_secs_f64(k as f64 / hz);
        if due >= until {
            break;
        }
        while Instant::now() + IDLE_POLL < due {
            if stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            std::thread::sleep(IDLE_POLL);
            feed.idle_poll()?;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        feed.tick(&shared.daemon, &shared.versions)?;
    }
    Ok(())
}

/// The quiet propagation phase: toggle the feed at a fixed pace and
/// after each delta ask the daemon for one flipping chain. Returns the
/// first version it published and the process CPU seconds per delta.
fn propagation_phase(
    bench: &mut Bench,
    run: Duration,
    tally: &mut Tally,
) -> Result<(u64, f64), String> {
    let Bench { shared, feed } = bench;
    let flips = &shared.fx.flips;
    let first = shared.versions.applied() + 1;
    let cpu = load::cpu_seconds();
    let start = Instant::now();
    for k in 0..PROPAGATION_DELTAS {
        let due = start + run.mul_f64(k as f64 / PROPAGATION_DELTAS as f64);
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        feed.tick(&shared.daemon, &shared.versions)?;
        let i = flips[k as usize % flips.len()];
        tally.add(1, u64::from(!shared.evaluate(0, i)));
        feed.idle_poll()?;
    }
    Ok((
        first,
        (load::cpu_seconds() - cpu) / PROPAGATION_DELTAS as f64,
    ))
}

/// Metrics of one run, in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

fn run(args: &Args, dir: &Path) -> Result<(Tally, Metrics), String> {
    let plan = Plan::new(args.workload, args.seconds);
    let mut tally = Tally::default();
    let mut setup_secs = Vec::new();
    let mut bench = None;
    for rep in 0..SETUP_REPEATS {
        drop(bench.take());
        let t = Instant::now();
        bench = Some(setup(args, &plan, dir, rep, &mut tally)?);
        setup_secs.push(t.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("set up at least once");
    let epoch = Instant::now();
    let mut spans = trace::Spans::new(epoch);
    let mut layers: Metrics = Vec::new();
    let before = Counters::read(&bench.shared);

    // Capacity (closed loop) and latency (open loop); feed_churn toggles
    // the feed throughout both.
    let churning = args.workload == Workload::FeedChurn;
    let stop = AtomicBool::new(false);
    let measured_from = Instant::now();
    let steal_before = load::steal_ticks();
    let (capacity, open, traced) = {
        let Bench { shared, feed } = &mut bench;
        let shared = &*shared;
        let exec = |j: usize, seq: u64| shared.exec(j, seq);
        std::thread::scope(|scope| {
            let feed_thread = churning.then(|| {
                let until = Instant::now() + plan.capacity + plan.open;
                let stop = &stop;
                scope.spawn(move || churn(feed, shared, CHURN_HZ, until, stop))
            });
            let (capacity, traced) = if args.trace {
                let half = plan.capacity / 2;
                let plain = closed_loop(plan.threads, half, &exec);
                shared.issued.fetch_add(plain.issued, Ordering::Relaxed);
                let bytes = trace::bytes_allocated();
                trace::set_counting(true);
                // One span list per load thread, so recording never
                // contends.
                let recorded: Vec<std::sync::Mutex<Vec<trace::Span>>> =
                    (0..plan.threads).map(|_| Default::default()).collect();
                let traced_exec = |j: usize, seq: u64| {
                    let start = Instant::now();
                    let ok = shared.exec(j, seq);
                    let end = Instant::now();
                    recorded[j].lock().expect("spans").push(trace::Span {
                        id: 0,
                        parent: 0,
                        rid: seq,
                        name: "capacity.request",
                        start_ns: start.saturating_duration_since(epoch).as_nanos() as u64,
                        end_ns: end.saturating_duration_since(epoch).as_nanos() as u64,
                    });
                    ok
                };
                let with_spans = closed_loop(plan.threads, half, &traced_exec);
                shared
                    .issued
                    .fetch_add(with_spans.issued, Ordering::Relaxed);
                trace::set_counting(false);
                let allocated = trace::bytes_allocated() - bytes;
                let recorded: Vec<trace::Span> = recorded
                    .into_iter()
                    .flat_map(|r| r.into_inner().expect("spans"))
                    .collect();
                (plain, Some((with_spans, allocated, recorded)))
            } else {
                let capacity = closed_loop(plan.threads, plan.capacity, &exec);
                shared.issued.fetch_add(capacity.issued, Ordering::Relaxed);
                (capacity, None)
            };
            let open = open_loop(plan.threads, args.workload.offered_rps(), plan.open, &exec);
            stop.store(true, Ordering::SeqCst);
            let fed = feed_thread.map_or(Ok(()), |h| h.join().expect("feed thread panicked"));
            fed.map(|()| (capacity, open, traced))
        })?
    };
    tally.add(capacity.ok + capacity.failed, capacity.failed);
    tally.add(open.attempted, open.failed);
    if let Some((with_spans, allocated, recorded)) = traced {
        tally.add(with_spans.ok + with_spans.failed, with_spans.failed);
        layers.push((
            "trace.capacity_ratio",
            ratio(with_spans.rps(), capacity.rps()),
            "ratio",
        ));
        layers.push((
            "alloc.bytes_per_req",
            ratio(allocated as f64, with_spans.ok as f64),
            "bytes",
        ));
        spans.extend(recorded);
    }

    let (quiet_from, propagation_cpu) =
        propagation_phase(&mut bench, plan.propagation, &mut tally)?;
    let after = Counters::read(&bench.shared);
    // Share of this VM's CPU time the host took while we measured.
    let steal_pct = load::steal_ticks().saturating_sub(steal_before) as f64
        / (measured_from.elapsed().as_secs_f64() * load::CLOCK_TICKS * plan.threads as f64)
        * 100.0;
    let shared = &bench.shared;
    let feed = &bench.feed;
    tally.add(
        (feed.times.publish_ns.len() + feed.times.poll_idle_ns.len()) as u64,
        0,
    );

    // Every check that is not a reply.
    let (propagation, undetected) = shared.versions.propagation_ns(1);
    let (quiet, _) = shared.versions.propagation_ns(quiet_from);
    tally.check(undetected == 0, || {
        format!("{undetected} feed versions never reached a reply")
    });
    tally.check(open.latency_ns.len() >= 1000, || {
        format!("only {} open-loop samples for a p99", open.latency_ns.len())
    });
    // Verdict keys are content-addressed by GCC source, so the toggled
    // root can hold cached verdicts under both of its GCC versions.
    let toggled_keys = 2 * shared.fx.requests.iter().filter(|r| r.toggled).count() as u64;
    let max_evicted = feed.times.evicted.iter().copied().max().unwrap_or(0);
    tally.check(max_evicted <= toggled_keys, || {
        format!("a delta evicted {max_evicted} verdicts; the toggled root can cache {toggled_keys}")
    });

    let latency = |q: f64| open.windowed_quantile(&open.latency_ns, q, plan.open) / 1e3;
    let late_p99 = open.windowed_quantile(&open.late_ns, 0.99, plan.open) / 1e3;
    let p50 = latency(0.50);
    eprintln!("ledger: host steal {steal_pct:.1}% of CPU time while measuring");
    if open.backlog * 100 > open.attempted || late_p99 > p50 {
        eprintln!(
            "ledger: run invalid: the generator fell behind (backlog {}, late p99 {late_p99:.1} us, p50 {p50:.1} us)",
            open.backlog
        );
    }

    // The bounded end-to-end metrics are CPU costs: on a small shared VM
    // the host steals a varying share of wall-clock time, so wall-clock
    // latency and throughput are reported per layer, next to the steal.
    if !args.trace {
        let metrics = vec![
            ("verdict_cpu_us", capacity.cpu_per_reply() * 1e6, "us"),
            ("propagation_cpu_ms", propagation_cpu * 1e3, "ms"),
            ("setup_s", median(&setup_secs), "s"),
            ("peak_rss_mb", peak_rss_mib(), "MiB"),
        ];
        return Ok((tally, metrics));
    }
    layers.extend([
        ("verdict_p50_us", p50, "us"),
        ("verdict_p90_us", latency(0.90), "us"),
        ("verdict_p99_us", latency(0.99), "us"),
        ("capacity_rps", capacity.rps(), "1/s"),
        (
            "propagation_p50_ms",
            percentile(&quiet, 0.50) as f64 / 1e6,
            "ms",
        ),
        (
            "propagation_p90_ms",
            percentile(&propagation, 0.90) as f64 / 1e6,
            "ms",
        ),
        ("host.steal_pct", steal_pct, "%"),
    ]);

    // Per-layer: counters over the measured phases, feed steps, sweep.
    let requests = after.requests - before.requests;
    let evals = after.evaluations - before.evaluations;
    let cert_total =
        (after.cert_hits + after.cert_misses - before.cert_hits - before.cert_misses) as f64;
    let verdict_total = (after.verdict_hits + after.verdict_misses
        - before.verdict_hits
        - before.verdict_misses) as f64;
    let t = &feed.times;
    layers.extend([
        ("loadgen.late_p99_us", late_p99, "us"),
        ("loadgen.backlog", open.backlog as f64, "count"),
        (
            "reactor.inline_ratio",
            ratio(after.inline - before.inline, requests),
            "ratio",
        ),
        (
            "reactor.ready_events_per_req",
            ratio(after.ready_events - before.ready_events, requests),
            "ratio",
        ),
        (
            "reactor.backpressure_total",
            after.backpressure - before.backpressure,
            "count",
        ),
        (
            "certcache.hit_ratio",
            ratio((after.cert_hits - before.cert_hits) as f64, cert_total),
            "ratio",
        ),
        (
            "verdictcache.hit_ratio",
            ratio(
                (after.verdict_hits - before.verdict_hits) as f64,
                verdict_total,
            ),
            "ratio",
        ),
        (
            "datalog.rounds_per_eval",
            ratio(after.rounds - before.rounds, evals),
            "ratio",
        ),
        (
            "datalog.tuples_per_eval",
            ratio(after.tuples - before.tuples, evals),
            "ratio",
        ),
        ("feed.publish_ms", median_u64(&t.publish_ns) / 1e6, "ms"),
        (
            "feed.poll_delta_ms",
            median_u64(&t.poll_delta_ns) / 1e6,
            "ms",
        ),
        ("feed.poll_idle_us", median_u64(&t.poll_idle_ns) / 1e3, "us"),
        ("feed.delta_bytes", median_u64(&t.delta_bytes), "bytes"),
        ("feed.ingest_ms", median_u64(&t.ingest_ns) / 1e6, "ms"),
        ("daemon.refresh_us", median_u64(&t.refresh_ns) / 1e3, "us"),
        (
            "verdictcache.evicted_per_delta",
            ratio(t.evicted.iter().sum::<u64>() as f64, t.evicted.len() as f64),
            "count",
        ),
        (
            "feed.rederive_us",
            median_u64(&shared.versions.rederive_ns()) / 1e3,
            "us",
        ),
    ]);
    let sweep = sweep::run(
        &shared.fx,
        shared.versions.applied(),
        &shared.daemon,
        args.workload.hit_path(),
        args.seed,
        &mut spans,
    );
    tally.add(sweep.attempted, sweep.failed);
    for (name, value, unit) in sweep.metrics {
        if name == "sigmemo.hit_ratio" && shared.validator.is_some() {
            let hits = (after.memo_hits - before.memo_hits) as f64;
            let total = (after.memo_hits + after.memo_misses
                - before.memo_hits
                - before.memo_misses) as f64;
            layers.push((name, ratio(hits, total), unit));
        } else {
            layers.push((name, value, unit));
        }
    }
    layers.push(("trace.spans", spans.len() as f64 + 1.0, "count"));
    let path = Path::new(RUN_DIR).join(format!("spans-{}.jsonl", args.workload.name()));
    spans
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    // Shape checks: the stages make up the in-process verdict, and the
    // daemon workloads stress the layers they were built for.
    let find = |name: &str| layers.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let (hit_ratio, inline) = (find("verdictcache.hit_ratio"), find("reactor.inline_ratio"));
    match shared.workload {
        Workload::DaemonHit | Workload::DaemonMiss => {
            let r = sweep.stage_sum_ratio;
            tally.check((r - 1.0).abs() <= 0.10, || {
                format!("stages sum to {r:.3} of the in-process verdict")
            });
            if shared.workload == Workload::DaemonHit {
                tally.check(hit_ratio >= 0.95 && inline >= 0.9, || {
                    format!(
                        "daemon_hit: verdict hit ratio {hit_ratio:.3}, inline ratio {inline:.3}"
                    )
                });
            } else {
                tally.check(hit_ratio <= 0.05 && inline <= 0.05, || {
                    format!(
                        "daemon_miss: verdict hit ratio {hit_ratio:.3}, inline ratio {inline:.3}"
                    )
                });
            }
        }
        Workload::FeedChurn => {
            tally.check(find("verdictcache.evicted_per_delta") > 0.0, || {
                "feed_churn: deltas evicted nothing".into()
            });
        }
        Workload::Hammurabi => {}
    }
    Ok((tally, layers))
}

/// Format a result line: every value with all its digits.
fn result_json(tally: &Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { f64::MAX };
            format!(r#""{name}": {{"value": {value:?}, "unit": "{unit}"}}"#)
        })
        .collect();
    format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        tally.failed == 0 && tally.problems.is_empty(),
        tally.attempted.max(1),
        tally.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    load::lower_timer_slack();
    let dir = PathBuf::from(RUN_DIR).join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("ledger: creating {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    match outcome {
        Ok((tally, metrics)) => {
            for problem in &tally.problems {
                eprintln!("ledger: check failed: {problem}");
            }
            for (name, value, unit) in &metrics {
                eprintln!("  {name:32} {value:>14.3} {unit}");
            }
            println!("{}", result_json(&tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flip one reference verdict: the same daemon replies must now fail
    /// exactly that request, and the result line must say `correct: false`.
    #[test]
    fn a_corrupted_reference_verdict_fails_the_run() {
        let dir = PathBuf::from(RUN_DIR).join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("run dir");
        let mut fx = fixture::build(Workload::DaemonHit, 7, 2).expect("fixture");
        let daemon = TrustDaemon::builder()
            .socket(dir.join("daemon.sock"))
            .spawn(fx.stores[0].clone())
            .expect("daemon");
        let victim = 3;
        for version in &mut fx.expected[victim] {
            version[0].1 = !version[0].1;
        }
        let shared = Shared::new(Workload::DaemonHit, fx, daemon, 2, 0);
        let mut tally = Tally::default();
        let failed = shared.checked_pass(2);
        tally.add(shared.fx.requests.len() as u64, failed);
        assert_eq!(failed, 1, "only the corrupted request fails");
        assert!(!shared.exec(0, victim as u64));
        assert!(shared.exec(0, victim as u64 + 1));
        assert!(result_json(&tally, &Vec::new()).starts_with(r#"{"correct": false"#));
        drop(shared);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
