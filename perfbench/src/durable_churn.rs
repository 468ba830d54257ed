//! `durable-churn`: closed loop, one client, a two-device daemon with a
//! write-ahead log and admission limits. One op is a whole session:
//! connect, two mallocs, an upload, a launch carrying CUDA source,
//! synchronize, a checked readback, two frees and disconnect.

use crate::common::{daemon_log_layers, drive, ClientOut, Phase, Setup, Windows};
use crate::kernels::{Axpb, AXPB_BLOCK, AXPB_SOURCE};
use crate::measure::{peak_rss_mb, ratio, Rng, Spans};
use slate_core::api::SlateClient;
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::{AdmissionLimits, DurabilityOptions, SlateError};
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::kernel::GpuKernel;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client threads. One: with two, round-robin placement puts their
/// concurrent sessions on the same device or on different ones depending
/// on the order their connects happen to interleave, which drifts within
/// a run and makes the session latency bimodal.
const CLIENTS: u32 = 1;
/// The user names sessions cycle through (the injector caches per user).
const USERS: [&str; 4] = ["ada", "grace", "edsger", "barbara"];
/// Floats each session uploads and reads back.
const N: usize = 4096;
/// Sessions run during set-up, one per user.
const WARMUP: u64 = USERS.len() as u64;
/// Session latency limit for `slo_frac`, µs: between the sessions a WAL
/// snapshot holds up (p95 ≈ 9–11 ms in a 20 s run on a 2-vCPU host) and
/// the rest (p80 ≈ 1 ms), so `slo_frac` is the share no snapshot delayed.
const SLO_US: f64 = 3_000.0;

pub struct DurableChurn {
    seed: u64,
    daemon: Arc<SlateDaemon>,
    dir: PathBuf,
    /// Warm-up sessions that failed or read back wrong data.
    errors: Vec<String>,
}

/// A fresh WAL directory inside the checkout for every set-up.
fn wal_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = PathBuf::from(".bench_out").join(format!(
        "wal-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create WAL directory");
    dir
}

/// Index of the newest snapshot in `dir` (snapshots are `snap-K.json`).
fn newest_snapshot(dir: &PathBuf) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(|e| {
                let name = e.ok()?.file_name().into_string().ok()?;
                name.strip_prefix("snap-")?
                    .strip_suffix(".json")?
                    .parse::<u64>()
                    .ok()
            })
            .max()
            .unwrap_or(0)
        })
        .unwrap_or(0)
}

/// One session's inputs.
struct Job {
    user: &'static str,
    x: Vec<f32>,
    a: f32,
    b: f32,
}

impl Job {
    fn new(rng: &mut Rng, user: &'static str) -> Self {
        Job {
            user,
            x: (0..N).map(|_| rng.unit_f32()).collect(),
            a: rng.unit_f32(),
            b: rng.unit_f32(),
        }
    }
}

/// Runs one whole session; returns the readback.
fn session(
    daemon: &Arc<SlateDaemon>,
    job: &Job,
    spans: &mut Spans,
) -> Result<Vec<f32>, SlateError> {
    let conn = spans.time("api.connect_us", || daemon.connect(job.user))?;
    let client = SlateClient::new(conn);
    let x = client.malloc(N as u64 * 4)?;
    let out = client.malloc(N as u64 * 4)?;
    spans.time("api.memcpy_us", || client.upload_f32(x, &job.x))?;
    let (a, b) = (job.a, job.b);
    spans.time("api.launch_call_us", || {
        client.launch_with(
            vec![x, out],
            4,
            Some(AXPB_SOURCE.to_string()),
            move |bufs| {
                Arc::new(Axpb {
                    n: N,
                    a,
                    b,
                    x: bufs[0].clone(),
                    out: bufs[1].clone(),
                }) as Arc<dyn GpuKernel>
            },
        )
    })?;
    spans.time("api.sync_call_us", || client.synchronize())?;
    let got = spans.time("api.memcpy_us", || client.download_f32(out, N))?;
    client.free(x)?;
    client.free(out)?;
    spans.time("api.disconnect_us", || client.disconnect())?;
    Ok(got)
}

fn correct(job: &Job, got: &[f32]) -> bool {
    got.len() == N && job.x.iter().zip(got).all(|(x, g)| job.a * x + job.b == *g)
}

impl Setup for DurableChurn {
    fn setup(seed: u64, traced: bool) -> Self {
        let dir = wal_dir();
        let device = DeviceConfig::titan_xp();
        let daemon = SlateDaemon::start_with_options(
            device.clone(),
            1 << 30,
            DaemonOptions {
                devices: vec![device.clone(), device],
                durability: Some(DurabilityOptions::new(&dir)),
                admission: AdmissionLimits {
                    max_sessions: Some(8),
                    max_pending_per_session: Some(4),
                    max_pending_global: Some(16),
                    mem_watermark: Some(0.9),
                },
                record_arbiter: traced,
                ..DaemonOptions::default()
            },
        );
        let mut rng = Rng::new(seed, 9);
        let mut spans = Spans::new(false, Instant::now(), 0);
        let mut errors = Vec::new();
        for user in USERS {
            let job = Job::new(&mut rng, user);
            match session(&daemon, &job, &mut spans) {
                Ok(got) if correct(&job, &got) => {}
                Ok(_) => errors.push(format!("warm-up session of {user}: wrong readback")),
                Err(e) => errors.push(format!("warm-up session of {user}: {e}")),
            }
        }
        DurableChurn {
            seed,
            daemon,
            dir,
            errors,
        }
    }

    fn discard(self) {
        self.daemon.shutdown(Duration::from_secs(10));
        self.daemon.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    fn run(self, seconds: f64, traced: bool) -> Phase {
        let DurableChurn {
            seed,
            daemon,
            dir,
            errors,
        } = self;
        let snaps_before = newest_snapshot(&dir);
        let (outs, mut p) = drive(seconds, (0..CLIENTS).collect(), |k, progress, t0| {
            let mut c = ClientOut::default();
            let mut spans = Spans::new(traced, t0, k);
            let mut rng = Rng::new(seed, 10 + k as u64);
            while !progress.stopped() {
                let job = Job::new(
                    &mut rng,
                    USERS[(c.attempted as usize + k as usize) % USERS.len()],
                );
                spans.op = c.attempted;
                c.attempted += 1;
                progress.attempted.fetch_add(1, Relaxed);
                let t = Instant::now();
                let res = session(&daemon, &job, &mut spans);
                let lat = t.elapsed().as_secs_f64() * 1e6;
                match res {
                    Ok(got) if correct(&job, &got) => {
                        c.samples.push((t0.elapsed().as_secs_f64(), lat));
                        progress.work.fetch_add(1, Relaxed);
                    }
                    Ok(_) => {
                        c.failed += 1;
                        c.errors
                            .push(format!("session {k}/{}: wrong readback", c.attempted - 1));
                    }
                    Err(e) => {
                        c.failed += 1;
                        c.errors
                            .push(format!("session {k}/{}: {e}", c.attempted - 1));
                    }
                }
            }
            c.spans = spans.spans;
            c
        });
        for c in outs {
            p.absorb(c);
        }
        // The warm-up sessions are ops too, checked like the rest.
        p.attempted += WARMUP;
        p.failed += errors.len() as u64;
        p.errors.extend(errors);
        p.slo_limit_us = SLO_US;
        p.windows = Windows::PooledQuietHalf;
        if daemon.live_allocations() != 0 {
            p.errors
                .push(format!("{} allocations leaked", daemon.live_allocations()));
        }
        daemon.shutdown(Duration::from_secs(10));
        p.peak_rss_mb = peak_rss_mb();
        if traced {
            let (hits, misses) = daemon.injection_stats();
            let ops = (p.attempted - WARMUP) as f64;
            p.layers.extend([
                ("workers.threads_per_launch", p.threads_per_op()),
                (
                    "workers.blocks_per_s",
                    ratio(
                        (p.samples.len() * N.div_ceil(AXPB_BLOCK)) as f64,
                        p.elapsed_s,
                    ),
                ),
                (
                    "placement.migrations",
                    daemon.placement_stats().migrations_completed as f64,
                ),
                (
                    "injector.hit_ratio",
                    ratio(hits as f64, (hits + misses) as f64),
                ),
                (
                    "durability.wal_bytes_per_op",
                    ratio(p.proc.wchar as f64, ops),
                ),
                (
                    "durability.snapshots_per_op",
                    ratio((newest_snapshot(&dir) - snaps_before) as f64, ops),
                ),
                ("durability.io_errors", daemon.wal_io_errors() as f64),
            ]);
            if let Some(log) = daemon.placement_log() {
                p.layers
                    .extend(daemon_log_layers(&log, p.attempted, 0, true));
            }
        }
        daemon.join();
        let _ = std::fs::remove_dir_all(&dir);
        p
    }
}
