//! Measurement plumbing shared by every workload: order statistics,
//! in-memory spans, a counting allocator, and process-wide counters read
//! from the kernel (`getrusage`, `/proc`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Nearest-rank percentile (`q` in `[0, 1]`) of an unsorted sample; 0 for
/// an empty one.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of an unsorted sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `f` `n` times and returns the median wall time of one call, µs.
pub fn median_call_us(n: usize, mut f: impl FnMut()) -> f64 {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        f();
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&v)
}

/// Deterministic xorshift64 generator: every input a workload makes comes
/// from one of these, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed` and `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut s = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if s == 0 {
            s = 0x2545_F491_4F6C_DD1D;
        }
        let mut r = Rng(s);
        r.next();
        r
    }

    /// Next raw value.
    pub fn next(&mut self) -> u64 {
        let s = &mut self.0;
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[-1, 1)`, as f32.
    pub fn unit_f32(&mut self) -> f32 {
        (self.below(1 << 20) as f32 / (1 << 19) as f32) - 1.0
    }
}

/// One timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer metric the span feeds, e.g. `api.launch_call_us`.
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Recording thread (client index).
    pub tid: u32,
    /// The workload op the call belongs to; spans of one op share it.
    pub op: u64,
}

/// Spans kept in memory by one thread; disabled recorders cost one branch.
pub struct Spans {
    on: bool,
    epoch: Instant,
    tid: u32,
    /// Current op id, stamped on every span.
    pub op: u64,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder for thread `tid`; `on == false` records nothing.
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Self {
        Self {
            on,
            epoch,
            tid,
            op: 0,
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    /// Times `f` as a span named `name` (when recording).
    #[inline]
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: t.duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.duration_since(t).as_nanos() as u64,
            tid: self.tid,
            op: self.op,
        });
        out
    }

    /// Median duration of the spans named `name`, µs (0 if none).
    pub fn median_us(spans: &[Span], name: &str) -> f64 {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e3)
            .collect();
        median(&v)
    }
}

/// Writes spans as Chrome trace-event JSON (loads in Perfetto).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}{sep}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.op
        )?;
    }
    writeln!(w, "]}}")?;
    w.flush()
}

/// The benchmark binary's global allocator: the system allocator, plus an
/// allocation counter that only ticks while [`CountingAlloc::enable`]d
/// (traced runs), so untraced runs pay one relaxed load per allocation.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// One counter per cache line, so threads allocating at once rarely share
/// a line.
#[repr(align(64))]
struct Shard(AtomicU64);

const SHARDS: usize = 16;
static ALLOCS: [Shard; SHARDS] = [const { Shard(AtomicU64::new(0)) }; SHARDS];
static NEXT_SHARD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static MY_SHARD: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

impl CountingAlloc {
    /// Starts or stops counting.
    pub fn enable(on: bool) {
        COUNTING.store(on, Ordering::Relaxed);
    }

    /// Allocations counted so far.
    pub fn count() -> u64 {
        ALLOCS.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
    }

    fn tick() {
        if !COUNTING.load(Ordering::Relaxed) {
            return;
        }
        let shard = MY_SHARD
            .try_with(|c| {
                if c.get() == usize::MAX {
                    c.set(NEXT_SHARD.fetch_add(1, Ordering::Relaxed) as usize % SHARDS);
                }
                c.get()
            })
            .unwrap_or(0);
        ALLOCS[shard].0.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::tick();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::tick();
        System.realloc(ptr, layout, new_size)
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// `getrusage(RUSAGE_SELF)`; all zeros if the call fails.
fn rusage() -> Rusage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a properly laid out, writable `struct rusage` and
    // RUSAGE_SELF (0) is always valid; on failure it stays zeroed.
    if unsafe { getrusage(0, &mut ru) } != 0 {
        ru = Rusage::default();
    }
    ru
}

/// Process-wide counters, read at the start and end of a measured loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounters {
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
    /// Allocations seen by [`CountingAlloc`].
    pub allocs: u64,
    /// Bytes passed to `write(2)`-family calls (`/proc/self/io` wchar).
    pub wchar: u64,
}

/// Pids handed out between two reads of `ns_last_pid`, across at most one
/// wrap past `pid_max` (pids restart above 300 after a wrap).
pub fn pid_delta(before: u64, after: u64) -> u64 {
    if after >= before {
        after - before
    } else {
        (pid_max() - before) + after.saturating_sub(300)
    }
}

fn last_pid() -> u64 {
    std::fs::read_to_string("/proc/sys/kernel/ns_last_pid")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// Largest pid before the kernel wraps (`/proc/sys/kernel/pid_max`).
fn pid_max() -> u64 {
    std::fs::read_to_string("/proc/sys/kernel/pid_max")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(4_194_304)
}

impl ProcCounters {
    /// Reads every counter now.
    pub fn now() -> Self {
        let ru = rusage();
        let wchar = std::fs::read_to_string("/proc/self/io")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("wchar:").map(|v| v.trim().parse().ok()))
                    .flatten()
            })
            .unwrap_or(0);
        Self {
            ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
            allocs: CountingAlloc::count(),
            wchar,
        }
    }

    /// Counter deltas from `self` to `later`.
    pub fn delta(&self, later: &Self) -> ProcDelta {
        ProcDelta {
            ctx_switches: later.ctx_switches.saturating_sub(self.ctx_switches),
            allocs: later.allocs.saturating_sub(self.allocs),
            wchar: later.wchar.saturating_sub(self.wchar),
        }
    }
}

/// Differences of [`ProcCounters`] over a measured loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcDelta {
    pub ctx_switches: u64,
    pub allocs: u64,
    pub wchar: u64,
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| {
                    l.strip_prefix("VmHWM:")
                        .map(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
                })
                .flatten()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Live progress counters the client threads bump and the window sampler
/// reads.
#[derive(Default)]
pub struct Progress {
    pub attempted: AtomicU64,
    pub work: AtomicU64,
    pub stop: AtomicBool,
}

impl Progress {
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// Process and host state at a window boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mark {
    /// Seconds since the phase began.
    pub t_s: f64,
    pub cpu_us: f64,
    /// Host-wide CPU time stolen by the hypervisor, USER_HZ ticks.
    pub steal: u64,
    pub attempted: u64,
    pub work: u64,
    /// `ns_last_pid`.
    pub last_pid: u64,
}

/// Host-wide steal ticks (`/proc/stat`, 8th field of the `cpu` line).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// User + system CPU time of every thread of the process, live or
/// exited, µs.
fn cpu_us_now() -> f64 {
    let ru = rusage();
    (ru.utime.sec + ru.stime.sec) as f64 * 1e6 + (ru.utime.usec + ru.stime.usec) as f64
}

/// Length of one measurement window, s.
pub const WINDOW_S: f64 = 0.25;

/// Samples `progress` at every window boundary from `t0` for `seconds`,
/// then raises `progress.stop`. Runs on the calling thread, which sleeps
/// in between.
pub fn sample_windows(t0: Instant, seconds: f64, progress: &Progress) -> Vec<Mark> {
    let mark = || Mark {
        t_s: t0.elapsed().as_secs_f64(),
        cpu_us: cpu_us_now(),
        steal: steal_ticks(),
        attempted: progress.attempted.load(Ordering::Relaxed),
        work: progress.work.load(Ordering::Relaxed),
        last_pid: last_pid(),
    };
    let n = (seconds / WINDOW_S).round().max(1.0) as usize;
    let mut marks = Vec::with_capacity(n + 1);
    marks.push(mark());
    for k in 1..=n {
        let due = t0 + std::time::Duration::from_secs_f64(k as f64 * seconds / n as f64);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        marks.push(mark());
    }
    progress.stop.store(true, Ordering::Relaxed);
    marks
}
