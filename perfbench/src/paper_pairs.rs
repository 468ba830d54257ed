//! `paper-pairs`: no daemon. Fig. 7's 15 pairings under the CUDA, MPS and
//! Slate runtimes, plus the mixed-SLO LLM trace with preemption on, on the
//! simulated Titan Xp, repeated. One op is one simulated run.

use crate::common::{drive, ClientOut, Phase, Setup};
use crate::measure::{median, peak_rss_mb, ratio, Rng, Spans};
use slate_baselines::{CudaRuntime, MpsRuntime, Runtime};
use slate_core::arbiter::{ArbiterCore, Command, EventLog};
use slate_core::{SlateOptions, SlateRuntime};
use slate_gpu_sim::device::DeviceConfig;
use slate_harness::{fig7, llm};
use slate_kernels::workload::{llm_trace, AppSpec, Benchmark, LlmTraceCfg};
use std::sync::atomic::Ordering::Relaxed;
use std::time::Instant;

/// Simulated-run latency limit for `slo_frac`, µs of host time.
const SLO_US: f64 = 20_000.0;

/// One pairing, with what each runtime must reproduce.
struct Pair {
    label: String,
    apps: [AppSpec; 2],
    solos: [f64; 2],
    /// Fig. 7's ANTT under CUDA, MPS and Slate.
    want: [f64; 3],
}

pub struct PaperPairs {
    cfg: DeviceConfig,
    /// Pairings in a seeded order.
    pairs: Vec<Pair>,
    /// The seeded mixed-SLO trace and its decode p99 (logical µs).
    llm_apps: Vec<AppSpec>,
    llm_p99_us: u64,
    /// Shape checks that failed during set-up.
    errors: Vec<String>,
}

impl Setup for PaperPairs {
    fn setup(seed: u64, _traced: bool) -> Self {
        let cfg = DeviceConfig::titan_xp();
        let mut errors = Vec::new();
        let (pairings, report) = fig7::run(&cfg, 1);
        if !report.all_pass() {
            errors.push(format!("fig7 shape checks failed:\n{}", report.to_text()));
        }
        let (llm_res, llm_report) = llm::run_seeded(&cfg, 1, seed);
        if !llm_report.all_pass() {
            errors.push(format!(
                "llm shape checks failed:\n{}",
                llm_report.to_text()
            ));
        }
        let cuda = CudaRuntime::new(cfg.clone());
        let solo: Vec<f64> = Benchmark::ALL
            .iter()
            .map(|b| cuda.solo_time(&b.app()))
            .collect();
        let solo_of = |b: Benchmark| solo[Benchmark::ALL.iter().position(|&x| x == b).unwrap()];
        let mut pairs: Vec<Pair> = pairings
            .iter()
            .map(|p| {
                let (a, b) = p.pair;
                Pair {
                    label: format!("{}-{}", a.abbrev(), b.abbrev()),
                    apps: [a.app(), b.app()],
                    solos: [solo_of(a), solo_of(b)],
                    want: p.antt,
                }
            })
            .collect();
        // Seeded Fisher-Yates: the order varies, the work does not.
        let mut rng = Rng::new(seed, 7);
        for i in (1..pairs.len()).rev() {
            pairs.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let llm_apps = llm_trace(&LlmTraceCfg::paper(seed));
        PaperPairs {
            cfg,
            pairs,
            llm_apps,
            llm_p99_us: llm_res.decode_on.p99_us,
            errors,
        }
    }

    fn discard(self) {}

    fn run(self, seconds: f64, traced: bool) -> Phase {
        let cfg = self.cfg.clone();
        let cuda = CudaRuntime::new(cfg.clone());
        let mps = MpsRuntime::new(cfg.clone());
        let slate = SlateRuntime::new(cfg.clone());
        let slate_llm = SlateRuntime::with_options(
            cfg.clone(),
            SlateOptions {
                preempt_bound_s: Some(llm::PREEMPT_BOUND_US as f64 / 1e6),
                ..SlateOptions::default()
            },
        );
        let me = &self;
        let (mut outs, mut p) = drive(seconds, vec![()], |(), progress, t0| {
            let mut c = ClientOut::default();
            let mut spans = Spans::new(traced, t0, 0);
            // Slate logs of the first pass, for the per-layer analysis.
            let mut logs: Vec<EventLog> = Vec::new();
            let mut antt_sum = 0.0;
            let timed = |c: &mut ClientOut,
                         spans: &mut Spans,
                         name,
                         f: &mut dyn FnMut() -> Result<(), String>| {
                spans.op = c.attempted;
                c.attempted += 1;
                progress.attempted.fetch_add(1, Relaxed);
                let t = Instant::now();
                let res = spans.time(name, &mut *f);
                let lat = t.elapsed().as_secs_f64() * 1e6;
                match res {
                    Ok(()) => {
                        c.samples.push((t0.elapsed().as_secs_f64(), lat));
                        progress.work.fetch_add(1, Relaxed);
                    }
                    Err(e) => {
                        c.failed += 1;
                        c.errors.push(e);
                    }
                }
            };
            let mut pass = 0u64;
            while !progress.stopped() {
                for pair in &me.pairs {
                    for (k, name) in [
                        "baselines.cuda_run",
                        "baselines.mps_run",
                        "runtime.slate_run",
                    ]
                    .into_iter()
                    .enumerate()
                    {
                        timed(&mut c, &mut spans, name, &mut || {
                            let out = match k {
                                0 => cuda.run(&pair.apps),
                                1 => mps.run(&pair.apps),
                                _ if traced && pass == 0 => {
                                    let (out, log) = slate.run_recorded(&pair.apps);
                                    logs.push(log);
                                    out
                                }
                                _ => slate.run(&pair.apps),
                            };
                            let antt = out.antt(&pair.solos);
                            if k == 2 && pass == 0 {
                                antt_sum += antt;
                            }
                            if antt == pair.want[k] {
                                Ok(())
                            } else {
                                Err(format!(
                                    "{} under {name}: ANTT {antt} differs from Fig. 7's {}",
                                    pair.label, pair.want[k]
                                ))
                            }
                        });
                    }
                }
                timed(&mut c, &mut spans, "runtime.slate_llm_run", &mut || {
                    let (_, log) = slate_llm.run_recorded(&me.llm_apps);
                    let p99 = llm::LatencyStats::of(llm::decode_latencies(&log)).p99_us;
                    if traced && pass == 0 {
                        logs.push(log);
                    }
                    if p99 == me.llm_p99_us {
                        Ok(())
                    } else {
                        Err(format!(
                            "LLM trace decode p99 {p99} µs differs from the experiment's {}",
                            me.llm_p99_us
                        ))
                    }
                });
                pass += 1;
            }
            c.spans = spans.spans;
            (c, logs, antt_sum / me.pairs.len() as f64)
        });
        let (c, logs, antt) = outs.pop().expect("one client");
        p.absorb(c);
        p.errors.extend(self.errors);
        p.slo_limit_us = SLO_US;
        p.peak_rss_mb = peak_rss_mb();
        if traced {
            p.layers.extend(sim_layers(&cfg, &logs, &p.spans));
            p.layers.push(("sim.antt", antt));
            p.layers.push(("sim.decode_p99_us", self.llm_p99_us as f64));
        }
        p
    }
}

/// Per-layer values from one pass's recorded Slate logs (the 15 pairings
/// and the LLM trace) and the spans around every run.
fn sim_layers(
    cfg: &DeviceConfig,
    logs: &[EventLog],
    spans: &[crate::measure::Span],
) -> Vec<(&'static str, f64)> {
    let runs = logs.len() as f64;
    let (mut batches, mut events, mut commands) = (0u64, 0u64, 0u64);
    let (mut resizes, mut preempts, mut evicts) = (0u64, 0u64, 0u64);
    for log in logs {
        for b in &log.batches {
            batches += 1;
            events += b.events.len() as u64;
            commands += b.commands.len() as u64;
            for cmd in &b.commands {
                match cmd {
                    Command::Resize { .. } => resizes += 1,
                    Command::Preempt { .. } => preempts += 1,
                    Command::Evict { .. } => evicts += 1,
                    _ => {}
                }
            }
        }
    }
    let decodes = logs
        .last()
        .map(|l| llm::decode_latencies(l).len() as f64)
        .unwrap_or(0.0);
    let construct_us = crate::measure::median_call_us(50, || {
        std::hint::black_box(ArbiterCore::new(
            cfg.clone(),
            logs.first().map(|l| l.config.clone()).unwrap_or_default(),
        ));
    });
    let t = Instant::now();
    for log in logs {
        std::hint::black_box(slate_core::arbiter::replay::replay(log));
    }
    let replay_us = t.elapsed().as_secs_f64() * 1e6;
    let feed_ns = ratio(
        (replay_us - construct_us * runs).max(0.0) * 1e3,
        events as f64,
    );
    let run_ns = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64)
            .collect()
    };
    let slate_ns: f64 = run_ns("runtime.slate_run").iter().sum::<f64>()
        + run_ns("runtime.slate_llm_run").iter().sum::<f64>();
    let slate_runs =
        (run_ns("runtime.slate_run").len() + run_ns("runtime.slate_llm_run").len()) as f64;
    let log_bytes: usize = logs
        .iter()
        .map(|l| serde_json::to_string(l).map(|s| s.len()).unwrap_or(0))
        .sum();
    let ms = |name| median(&run_ns(name)) / 1e6;
    vec![
        ("sim.events_per_run", ratio(events as f64, runs)),
        (
            "sim.host_ns_per_event",
            ratio(slate_ns, ratio(events as f64, runs) * slate_runs),
        ),
        ("runtime.slate_run_ms", ms("runtime.slate_run")),
        ("baselines.mps_run_ms", ms("baselines.mps_run")),
        ("baselines.cuda_run_ms", ms("baselines.cuda_run")),
        (
            "runtime.arbiter_ns_per_event",
            ratio(replay_us * 1e3, events as f64),
        ),
        ("arbiter.construct_us", construct_us),
        ("arbiter.feed_ns_per_event", feed_ns),
        ("feed.batches_per_op", ratio(batches as f64, runs)),
        ("arbiter.events_per_op", ratio(events as f64, runs)),
        ("arbiter.commands_per_op", ratio(commands as f64, runs)),
        ("arbiter.resizes_per_op", ratio(resizes as f64, runs)),
        (
            "dispatch.relaunches_per_op",
            ratio((resizes + preempts + evicts) as f64, runs),
        ),
        (
            "arbiter.preemptions_per_decode",
            ratio(preempts as f64, decodes),
        ),
        ("trace.log_bytes_per_op", ratio(log_bytes as f64, runs)),
    ]
}
