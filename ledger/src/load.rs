//! Load generation: an open loop at a fixed offered rate and a closed
//! loop for capacity, both over a fixed number of threads.
//!
//! Requests are numbered by one global sequence, and request `seq`
//! always targets working-set entry `seq % len`, so a working set larger
//! than a cache is cycled in one global order that never revisits a key
//! before every other key has been asked for.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The last stretch before a due time is spun, not slept: with timer
/// slack lowered (`lower_timer_slack`) a sleep overshoots by a few
/// microseconds, so this keeps sends on schedule at little CPU cost.
const SPIN: Duration = Duration::from_micros(20);

/// Lower this thread's timer slack to 1 µs (Linux default: 50 µs), so
/// short sleeps in the pacing loop wake close to their deadline. Other
/// platforms keep their default.
pub fn lower_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        const PR_SET_TIMERSLACK: i32 = 29;
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        // SAFETY: PR_SET_TIMERSLACK takes the slack in nanoseconds as its
        // only argument and touches no memory of ours; a failure leaves
        // the default slack in place.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
        }
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// What an open-loop phase measured.
#[derive(Default)]
pub struct OpenLoop {
    /// Per request, from its scheduled send time to its checked reply;
    /// a failed request is recorded as `u64::MAX` (it misses every
    /// latency limit).
    pub latency_ns: Vec<u64>,
    /// Per request, its scheduled send time from the phase start.
    pub due_ns: Vec<u64>,
    /// Per request, how late the generator sent it.
    pub late_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Requests due before the phase ended but sent after it.
    pub backlog: u64,
}

/// Offer `rate` requests per second for `run`, spread over `threads`
/// threads (thread `j` sends every `threads`-th request). `exec(thread,
/// seq)` performs and checks request `seq`.
pub fn open_loop(
    threads: usize,
    rate: f64,
    run: Duration,
    exec: &(dyn Fn(usize, u64) -> bool + Sync),
) -> OpenLoop {
    let start = Instant::now() + Duration::from_millis(1);
    let end = start + run;
    let interval_ns = 1e9 / rate;
    let parts: Vec<OpenLoop> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|j| {
                scope.spawn(move || {
                    lower_timer_slack();
                    let mut out = OpenLoop::default();
                    let mut seq = j as u64;
                    loop {
                        let due = start + Duration::from_nanos((seq as f64 * interval_ns) as u64);
                        if due >= end {
                            break;
                        }
                        wait_until(due);
                        let sent = Instant::now();
                        let ok = exec(j, seq);
                        let done = Instant::now();
                        out.attempted += 1;
                        out.due_ns.push((due - start).as_nanos() as u64);
                        out.late_ns.push((sent - due).as_nanos() as u64);
                        if ok {
                            out.latency_ns.push((done - due).as_nanos() as u64);
                        } else {
                            out.failed += 1;
                            out.latency_ns.push(u64::MAX);
                        }
                        if sent > end {
                            out.backlog += 1;
                        }
                        seq += threads as u64;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut total = OpenLoop::default();
    for part in parts {
        total.latency_ns.extend(part.latency_ns);
        total.due_ns.extend(part.due_ns);
        total.late_ns.extend(part.late_ns);
        total.attempted += part.attempted;
        total.failed += part.failed;
        total.backlog += part.backlog;
    }
    total
}

impl OpenLoop {
    /// The `q`-quantile of a per-request `sample` (latency or lateness)
    /// in every window of the phase (by schedule), and the median of
    /// those. A host stall of a few milliseconds delays every request due
    /// while it lasts; it moves the window it falls in, not the median
    /// window. Windows last whole seconds, so each holds the same number
    /// of feed deltas on `feed_churn`, and are merged until each keeps
    /// ten samples beyond its quantile.
    pub fn windowed_quantile(&self, sample: &[u64], q: f64, phase: Duration) -> f64 {
        let needed = (10.0 / (1.0 - q)).ceil() as usize;
        let windows = (phase.as_secs_f64().round() as usize)
            .min(self.due_ns.len() / needed)
            .max(1);
        let width = phase.as_nanos() as f64 / windows as f64;
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); windows];
        for (due, value) in self.due_ns.iter().zip(sample) {
            let w = ((*due as f64 / width) as usize).min(windows - 1);
            buckets[w].push(*value);
        }
        let per_window: Vec<f64> = buckets
            .iter()
            .filter(|b| !b.is_empty())
            .map(|b| percentile(b, q) as f64)
            .collect();
        median(&per_window)
    }
}

/// Clock ticks per second of `/proc/stat` (`USER_HZ`, 100 on Linux).
pub const CLOCK_TICKS: f64 = 100.0;

/// Ticks the hypervisor has taken from this VM's CPUs since boot (the
/// `steal` column of `/proc/stat`; 0 where unavailable).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// CPU time (user + system, every thread) this process has used, in
/// seconds. Time the hypervisor steals from the VM is not counted, so
/// CPU cost per verdict stays comparable when wall-clock time does not.
pub fn cpu_seconds() -> f64 {
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
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (two
    // timevals then fourteen longs on 64-bit Linux); getrusage only
    // fills it.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return 0.0;
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    secs(&usage.utime) + secs(&usage.stime)
}

/// Closed-loop phases are counted in this many equal time windows.
const CAPACITY_WINDOWS: usize = 10;

/// What a closed-loop phase measured.
pub struct ClosedLoop {
    pub ok: u64,
    pub failed: u64,
    /// Sequence numbers handed out (every one was executed).
    pub issued: u64,
    /// Correct replies completed in each of `CAPACITY_WINDOWS` windows.
    window_rps: Vec<f64>,
    window_cpu: Vec<f64>,
}

impl ClosedLoop {
    /// Correct replies per wall-clock second in the median window
    /// (robust to a host stall the way `OpenLoop::windowed_quantile`
    /// is).
    pub fn rps(&self) -> f64 {
        median(&self.window_rps)
    }

    /// Process CPU seconds per correct reply in the median window.
    pub fn cpu_per_reply(&self) -> f64 {
        median(&self.window_cpu)
    }
}

/// Each of `threads` threads sends its next request as soon as the
/// previous one is answered, for `run`, split into `CAPACITY_WINDOWS`
/// back-to-back windows that each read the process CPU clock.
pub fn closed_loop(
    threads: usize,
    run: Duration,
    exec: &(dyn Fn(usize, u64) -> bool + Sync),
) -> ClosedLoop {
    let next = AtomicU64::new(0);
    let mut out = ClosedLoop {
        ok: 0,
        failed: 0,
        issued: 0,
        window_rps: Vec::new(),
        window_cpu: Vec::new(),
    };
    for _ in 0..CAPACITY_WINDOWS {
        let cpu = cpu_seconds();
        let start = Instant::now();
        let end = start + run / CAPACITY_WINDOWS as u32;
        let counts: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|j| {
                    let next = &next;
                    scope.spawn(move || {
                        let (mut ok, mut failed) = (0u64, 0u64);
                        while Instant::now() < end {
                            if exec(j, next.fetch_add(1, Ordering::Relaxed)) {
                                ok += 1;
                            } else {
                                failed += 1;
                            }
                        }
                        (ok, failed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load thread panicked"))
                .collect()
        });
        let secs = start.elapsed().as_secs_f64();
        let cpu = cpu_seconds() - cpu;
        let ok: u64 = counts.iter().map(|c| c.0).sum();
        out.ok += ok;
        out.failed += counts.iter().map(|c| c.1).sum::<u64>();
        out.window_rps.push(ok as f64 / secs);
        out.window_cpu.push(cpu / ok.max(1) as f64);
    }
    out.issued = next.load(Ordering::Relaxed);
    out
}

/// Nearest-rank percentile of an unsorted sample (`q` in 0..=1).
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a float sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}
