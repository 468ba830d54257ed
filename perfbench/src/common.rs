//! What every workload produces, how it becomes metrics, and the analysis
//! of a recorded placement log shared by the daemon workloads.

use crate::measure::{
    self, median, percentile, ratio, sample_windows, Mark, ProcCounters, ProcDelta, Progress, Span,
};
use slate_core::arbiter::{Command, Event};
use slate_core::placement::replay::PlacementLog;
use slate_core::placement::PlacementLayer;
use std::collections::BTreeMap;
use std::time::Instant;

/// A workload: set up (timed, repeated), then run once and torn down.
pub trait Setup: Sized {
    /// Builds the workload's inputs from `seed` and starts what it runs
    /// against. `traced` turns arbiter recording on.
    fn setup(seed: u64, traced: bool) -> Self;
    /// Tears a set-up down without measuring it.
    fn discard(self);
    /// Measures for `seconds`, checks every output, tears down. With
    /// `traced`, records spans and fills [`Phase::layers`].
    fn run(self, seconds: f64, traced: bool) -> Phase;
}

/// One measured phase of a workload.
#[derive(Default)]
pub struct Phase {
    /// Every latency op (launch round trip, decode request, session,
    /// simulated run): completion time, s since the phase began, and
    /// latency, µs.
    pub samples: Vec<(f64, f64)>,
    /// Window boundaries the sampler recorded.
    pub marks: Vec<Mark>,
    /// Which windows end-to-end metrics come from, and how.
    pub windows: Windows,
    /// The workload's latency limit for `slo_frac`, µs.
    pub slo_limit_us: f64,
    /// Ops attempted, and how many failed or produced a wrong output.
    pub attempted: u64,
    pub failed: u64,
    /// Process counters over the whole measured loop.
    pub proc: ProcDelta,
    /// Seconds the measured loop ran.
    pub elapsed_s: f64,
    /// Peak RSS at the end of the phase, MB.
    pub peak_rss_mb: f64,
    /// Open-loop generator lateness samples, µs, and the bound past which
    /// the run is invalid (`None` for closed loops).
    pub gen_late_us: Vec<f64>,
    pub gen_late_bound_us: Option<f64>,
    /// Every check that failed, described.
    pub errors: Vec<String>,
    /// Spans of a traced phase.
    pub spans: Vec<Span>,
    /// Per-layer values the workload measured itself (traced phases).
    pub layers: Vec<(&'static str, f64)>,
}

/// One reported metric, with the unit and direction `BENCHMARK.json`
/// declares for it.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(serde::Deserialize)]
struct Decl {
    name: String,
    unit: String,
    better: String,
}

#[derive(serde::Deserialize)]
struct Declared {
    end_to_end: Vec<Decl>,
    per_layer: Vec<Decl>,
}

/// The metrics `BENCHMARK.json` at the repository root declares, read
/// when the benchmark is built. A unit ending in `.exact` marks a count
/// that repeated exactly across two traced runs with one seed.
fn declared() -> &'static Declared {
    static DECLARED: std::sync::OnceLock<Declared> = std::sync::OnceLock::new();
    DECLARED.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json declares end_to_end and per_layer metrics")
    })
}

/// `values` as metrics, in the order `decls` lists them; a declared
/// metric without a value reads `missing`.
fn report(
    decls: &'static [Decl],
    values: &BTreeMap<&str, f64>,
    missing: Option<f64>,
) -> Vec<Metric> {
    for name in values.keys() {
        assert!(
            decls.iter().any(|d| d.name == *name),
            "metric {name} is not declared in BENCHMARK.json"
        );
    }
    decls
        .iter()
        .map(|d| {
            let v = values
                .get(d.name.as_str())
                .copied()
                .or(missing)
                .unwrap_or_else(|| panic!("no value for declared metric {}", d.name));
            Metric {
                name: &d.name,
                value: if v.is_finite() { v } else { 0.0 },
                unit: &d.unit,
                better: &d.better,
            }
        })
        .collect()
}

/// Which of a phase's 0.25 s windows its end-to-end metrics come from.
/// The windows are cut into groups of consecutive ones, and the one whose
/// CPU time the hypervisor stole least is taken from each group (the
/// earliest on a tie). On a shared host steal arrives in bursts that can
/// cover whole windows, while the work itself runs in every window, so
/// what it costs shows in the quiet ones too; one window per group keeps
/// the selection spread evenly over the whole run, so a cost that grows
/// as the run goes on is measured at every stage of it.
#[derive(Default, Clone, Copy, PartialEq)]
pub enum Windows {
    /// One window of every four, each summarised on its own (p50, op
    /// rate, CPU per op) and the median window reported, so short spells
    /// of a faster host move the result little either; the tail is
    /// pooled. For closed loops whose cost per op is steady.
    #[default]
    MedianOfQuietQuarter,
    /// One window of every two, pooled. For an open loop, whose windows
    /// hold too few requests to summarise alone, and for work whose cost
    /// drifts with the work done.
    PooledQuietHalf,
}

/// What the selected windows of a phase measured.
struct Quiet {
    /// Latencies of every op completed in them, pooled.
    lat_us: Vec<f64>,
    /// Median over the windows of each window's p50, op rate and CPU per
    /// op — or, for a pooled phase, the pooled values.
    p50_us: f64,
    rate: f64,
    cpu_us_per_op: f64,
    /// Ops attempted in them.
    attempted: f64,
}

impl Phase {
    /// Summarises the windows [`Phase::windows`] selects.
    fn quiet(&self) -> Quiet {
        let pooled = self.windows == Windows::PooledQuietHalf;
        let steal = |i: usize| self.marks[i + 1].steal - self.marks[i].steal;
        let n = self.marks.len().saturating_sub(1);
        let group = if pooled { 2 } else { 4 };
        let idx: Vec<usize> = (0..n)
            .step_by(group)
            .map(|g| {
                (g..(g + group).min(n))
                    .min_by_key(|&i| steal(i))
                    .expect("a group holds a window")
            })
            .collect();
        let (mut lat_us, mut p50s, mut rates, mut cpus) = (vec![], vec![], vec![], vec![]);
        let (mut secs, mut work, mut cpu, mut attempted) = (0.0, 0.0, 0.0, 0.0);
        for &i in &idx {
            let (a, b) = (self.marks[i], self.marks[i + 1]);
            let win: Vec<f64> = self
                .samples
                .iter()
                .filter(|(t, _)| *t >= a.t_s && *t < b.t_s)
                .map(|&(_, l)| l)
                .collect();
            let ops = (b.attempted - a.attempted) as f64;
            p50s.push(percentile(&win, 0.5));
            rates.push((b.work - a.work) as f64 / (b.t_s - a.t_s));
            cpus.push(ratio(b.cpu_us - a.cpu_us, ops));
            lat_us.extend(win);
            secs += b.t_s - a.t_s;
            work += (b.work - a.work) as f64;
            cpu += b.cpu_us - a.cpu_us;
            attempted += ops;
        }
        let (p50_us, rate, cpu_us_per_op) = if pooled {
            (
                percentile(&lat_us, 0.5),
                ratio(work, secs),
                ratio(cpu, attempted),
            )
        } else {
            (median(&p50s), median(&rates), median(&cpus))
        };
        Quiet {
            lat_us,
            p50_us,
            rate,
            cpu_us_per_op,
            attempted,
        }
    }

    /// OS threads created per op: the median over windows of pids handed
    /// out per op, which ignores windows where some other process in the
    /// pid namespace happened to spawn.
    pub fn threads_per_op(&self) -> f64 {
        let per: Vec<f64> = self
            .marks
            .windows(2)
            .filter(|w| w[1].attempted > w[0].attempted)
            .map(|w| {
                let pids = crate::measure::pid_delta(w[0].last_pid, w[1].last_pid);
                pids as f64 / (w[1].attempted - w[0].attempted) as f64
            })
            .collect();
        crate::measure::median(&per)
    }

    /// Median latency op, µs, as `p50_us` reports it.
    pub fn p50_us(&self) -> f64 {
        self.quiet().p50_us
    }

    /// 99th-percentile latency op over the same windows, µs.
    pub fn p99_us(&self) -> f64 {
        percentile(&self.quiet().lat_us, 0.99)
    }

    /// Describes a generator that fell behind its bound, if it did.
    pub fn gen_late_violation(&self) -> Option<String> {
        let bound = self.gen_late_bound_us?;
        let p99 = percentile(&self.gen_late_us, 0.99);
        (p99 > bound).then(|| {
            format!("open-loop generator p99 lateness {p99:.0} µs exceeds its {bound:.0} µs bound")
        })
    }

    /// The end-to-end metrics of an untraced phase.
    pub fn end_to_end(&self, setup_s: f64) -> Vec<Metric> {
        let q = self.quiet();
        let ok_in_limit = q.lat_us.iter().filter(|&&l| l <= self.slo_limit_us).count() as f64;
        // A failed op counts as a miss; failures are spread over the
        // quiet windows in proportion to the ops they hold.
        let failed_here = ratio(self.failed as f64 * q.attempted, self.attempted as f64);
        let values = BTreeMap::from([
            ("setup_s", setup_s),
            ("p50_us", q.p50_us),
            ("p95_us", percentile(&q.lat_us, 0.95)),
            ("throughput_per_s", q.rate),
            (
                "slo_frac",
                ratio(ok_in_limit, q.lat_us.len() as f64 + failed_here),
            ),
            ("cpu_us_per_op", q.cpu_us_per_op),
            ("peak_rss_mb", self.peak_rss_mb),
        ]);
        report(&declared().end_to_end, &values, None)
    }
}

/// What one client thread measured.
#[derive(Default)]
pub struct ClientOut {
    /// (completion time since the phase began, s; latency, µs).
    pub samples: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
    pub gen_late_us: Vec<f64>,
}

/// Runs one client per element of `clients` on its own thread while this
/// thread samples every window; clients loop until `Progress::stopped`.
/// Returns the clients' results, with the phase's windows, elapsed time
/// and process counters filled in.
pub fn drive<C: Send, R: Send>(
    seconds: f64,
    clients: Vec<C>,
    f: impl Fn(C, &Progress, Instant) -> R + Sync,
) -> (Vec<R>, Phase) {
    let progress = Progress::default();
    let c0 = ProcCounters::now();
    let t0 = Instant::now();
    let (results, marks) = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|c| {
                let (f, progress) = (&f, &progress);
                s.spawn(move || f(c, progress, t0))
            })
            .collect();
        let marks = sample_windows(t0, seconds, &progress);
        let results: Vec<R> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, marks)
    });
    let mut phase = Phase {
        elapsed_s: t0.elapsed().as_secs_f64(),
        marks,
        ..Phase::default()
    };
    phase.proc = c0.delta(&ProcCounters::now());
    (results, phase)
}

impl Phase {
    /// Folds one client's results in.
    pub fn absorb(&mut self, c: ClientOut) {
        self.samples.extend(c.samples);
        self.attempted += c.attempted;
        self.failed += c.failed;
        self.errors.extend(c.errors);
        self.spans.extend(c.spans);
        self.gen_late_us.extend(c.gen_late_us);
    }
}

/// Per-layer values of one traced run.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Values a traced phase measured: its own per-layer numbers, the
    /// medians of its API spans, and its process counters.
    pub fn from_phase(p: &Phase) -> Self {
        let mut l = Layers::default();
        for name in [
            "api.launch_call_us",
            "api.sync_call_us",
            "api.connect_us",
            "api.disconnect_us",
            "api.memcpy_us",
        ] {
            if p.spans.iter().any(|s| s.name == name) {
                l.set(name, measure::Spans::median_us(&p.spans, name));
            }
        }
        l.set(
            "proc.allocs_per_op",
            ratio(p.proc.allocs as f64, p.attempted as f64),
        );
        l.set(
            "proc.ctx_switches_per_op",
            ratio(p.proc.ctx_switches as f64, p.attempted as f64),
        );
        l.set("bench.gen_late_p99_us", percentile(&p.gen_late_us, 0.99));
        for &(name, v) in &p.layers {
            l.set(name, v);
        }
        l
    }

    /// Records a value.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    /// Every per-layer metric `BENCHMARK.json` declares, in its order; a
    /// layer the workload bypassed reads 0.
    pub fn into_metrics(self) -> Vec<Metric> {
        report(&declared().per_layer, &self.0, Some(0.0))
    }
}

/// Counts taken from a recorded placement log, excluding the batches the
/// daemon's 1 ms heartbeat feeds (a lone `DeadlineTick`), whose number
/// depends on wall time rather than on the work, and the shutdown drain.
/// Unless `sessions` is set, batches without a launch event (session
/// open/close, mallocs) are excluded too, so counts are per launch.
#[derive(Debug, Default, Clone, Copy)]
pub struct LogCounts {
    pub batches: u64,
    pub events: u64,
    pub commands: u64,
    pub resizes: u64,
    pub preempts: u64,
    pub evicts: u64,
    pub rejects: u64,
    pub requests: u64,
    /// Every event, heartbeat ticks included (the replay's work).
    pub all_events: u64,
}

impl LogCounts {
    pub fn of(log: &PlacementLog, sessions: bool) -> Self {
        let mut c = LogCounts::default();
        for b in &log.batches {
            c.all_events += b.events.len() as u64;
            let tick_only = b.events.iter().all(|e| matches!(e, Event::DeadlineTick));
            let launch = b.events.iter().any(|e| {
                matches!(
                    e,
                    Event::LaunchRequested { .. }
                        | Event::KernelReady { .. }
                        | Event::KernelFinished { .. }
                )
            });
            let drain = b.events.iter().any(|e| matches!(e, Event::DrainBegan));
            let skip = drain || !(sessions || launch);
            if (tick_only && b.routed.is_empty()) || skip {
                continue;
            }
            c.batches += 1;
            c.events += b.events.len() as u64;
            c.commands += b.routed.len() as u64;
            for e in &b.events {
                if matches!(
                    e,
                    Event::SessionOpened { .. } | Event::LaunchRequested { .. }
                ) {
                    c.requests += 1;
                }
            }
            for r in &b.routed {
                match r.command {
                    Command::Resize { .. } => c.resizes += 1,
                    Command::Preempt { .. } => c.preempts += 1,
                    Command::Evict { .. } => c.evicts += 1,
                    Command::RejectOverloaded { .. } => c.rejects += 1,
                    _ => {}
                }
            }
        }
        c
    }
}

/// Per-layer values a daemon workload's recorded log yields. `ops` is
/// every op the traced daemon served over its lifetime (warm-up included,
/// since the log covers it), `decodes` the latency-critical ones; with
/// `sessions`, an op is a whole session rather than a launch.
pub fn daemon_log_layers(
    log: &PlacementLog,
    ops: u64,
    decodes: u64,
    sessions: bool,
) -> Vec<(&'static str, f64)> {
    let c = LogCounts::of(log, sessions);
    let ops_f = ops as f64;
    // Construction timed apart from the replay it is part of.
    let construct_us = measure::median_call_us(50, || {
        std::hint::black_box(PlacementLayer::new(log.devices.clone(), log.config.clone()));
    });
    let t = Instant::now();
    let replayed = slate_core::placement::replay::replay(log);
    let replay_us = t.elapsed().as_secs_f64() * 1e6;
    std::hint::black_box(replayed);
    let log_bytes = serde_json::to_string(log).map(|s| s.len()).unwrap_or(0);
    vec![
        ("feed.batches_per_op", ratio(c.batches as f64, ops_f)),
        ("arbiter.events_per_op", ratio(c.events as f64, ops_f)),
        ("arbiter.commands_per_op", ratio(c.commands as f64, ops_f)),
        ("arbiter.construct_us", construct_us),
        (
            "arbiter.feed_ns_per_event",
            ratio(
                (replay_us - construct_us).max(0.0) * 1e3,
                c.all_events as f64,
            ),
        ),
        (
            "arbiter.preemptions_per_decode",
            ratio(c.preempts as f64, decodes as f64),
        ),
        ("arbiter.resizes_per_op", ratio(c.resizes as f64, ops_f)),
        (
            "dispatch.relaunches_per_op",
            ratio((c.resizes + c.preempts + c.evicts) as f64, ops_f),
        ),
        (
            "admission.shed_frac",
            ratio(c.rejects as f64, c.requests as f64),
        ),
        ("trace.log_bytes_per_op", ratio(log_bytes as f64, ops_f)),
    ]
}
