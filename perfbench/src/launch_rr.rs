//! `launch-rr`: closed loop, one client, a default single-device
//! in-memory daemon; each op is a 4-block `launch_with` + `synchronize`.

use crate::common::{daemon_log_layers, drive, ClientOut, Phase, Setup};
use crate::kernels::{Tiny, TINY_BLOCKS};
use crate::measure::{peak_rss_mb, ratio, Rng, Spans};
use slate_core::api::SlateClient;
use slate_core::channel::SlatePtr;
use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_gpu_sim::device::DeviceConfig;
use slate_kernels::kernel::GpuKernel;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Launches made during set-up (the first one profiles the kernel).
const WARMUP: u64 = 16;

/// Round-trip latency limit for `slo_frac`, µs: between the p95 and the
/// p99 of this workload's round trip on a 2-vCPU host (≈400 and ≈550 µs).
const SLO_US: f64 = 450.0;

pub struct LaunchRr {
    seed: u64,
    daemon: Arc<SlateDaemon>,
    client: SlateClient,
    counters: SlatePtr,
    /// Sum of the warm-up launches' deltas.
    warm_sum: u64,
}

fn launch(client: &SlateClient, ptr: SlatePtr, delta: u32) -> Result<(), slate_core::SlateError> {
    client.launch_with(vec![ptr], 1, None, move |b| {
        Arc::new(Tiny {
            counters: b[0].clone(),
            delta,
        }) as Arc<dyn GpuKernel>
    })
}

fn teardown(daemon: &Arc<SlateDaemon>, client: SlateClient) -> Option<String> {
    let out = client
        .disconnect()
        .err()
        .map(|e| format!("disconnect: {e}"));
    daemon.shutdown(Duration::from_secs(10));
    out
}

impl Setup for LaunchRr {
    fn setup(seed: u64, traced: bool) -> Self {
        let daemon = SlateDaemon::start_with_options(
            DeviceConfig::titan_xp(),
            1 << 30,
            DaemonOptions {
                record_arbiter: traced,
                ..DaemonOptions::default()
            },
        );
        let client = SlateClient::new(daemon.connect("rr-client").expect("connect"));
        let counters = client.malloc(2 * TINY_BLOCKS as u64 * 4).expect("malloc");
        client
            .upload_f32(counters, &[0.0; 2 * TINY_BLOCKS as usize])
            .expect("zero counters");
        let mut rng = Rng::new(seed, 2);
        let mut warm_sum = 0;
        for _ in 0..WARMUP {
            let delta = 1 + rng.below(3) as u32;
            launch(&client, counters, delta).expect("warm-up launch");
            client.synchronize().expect("warm-up sync");
            warm_sum += delta as u64;
        }
        LaunchRr {
            seed,
            daemon,
            client,
            counters,
            warm_sum,
        }
    }

    fn discard(self) {
        teardown(&self.daemon, self.client);
        self.daemon.join();
    }

    fn run(self, seconds: f64, traced: bool) -> Phase {
        let LaunchRr {
            seed,
            daemon,
            client,
            counters,
            warm_sum,
        } = self;
        let (mut out, mut p) = drive(seconds, vec![client], |client, progress, t0| {
            let mut c = ClientOut {
                samples: Vec::with_capacity(1 << 16),
                ..ClientOut::default()
            };
            let mut spans = Spans::new(traced, t0, 0);
            let mut rng = Rng::new(seed, 1);
            let (mut ok, mut sum) = (0u64, 0u64);
            while !progress.stopped() {
                let delta = 1 + rng.below(3) as u32;
                spans.op = c.attempted;
                c.attempted += 1;
                progress.attempted.fetch_add(1, Relaxed);
                let t = Instant::now();
                let res = spans
                    .time("api.launch_call_us", || launch(&client, counters, delta))
                    .and_then(|()| spans.time("api.sync_call_us", || client.synchronize()));
                let lat = t.elapsed().as_secs_f64() * 1e6;
                match res {
                    Ok(()) => {
                        c.samples.push((t0.elapsed().as_secs_f64(), lat));
                        progress.work.fetch_add(1, Relaxed);
                        ok += 1;
                        sum += delta as u64;
                    }
                    Err(e) => {
                        c.failed += 1;
                        c.errors
                            .push(format!("launch-rr op {}: {e}", c.attempted - 1));
                    }
                }
            }
            c.spans = spans.spans;
            (c, client, ok, sum)
        });
        let (c, client, ok, sum) = out.pop().expect("one client");
        p.absorb(c);
        p.slo_limit_us = SLO_US;

        // The counters must equal the launches made and the seeded deltas.
        match client.memcpy_d2h(counters, 0, 2 * TINY_BLOCKS as usize * 4) {
            Ok(raw) => {
                let words: Vec<u64> = raw
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]) as u64)
                    .collect();
                let (want_n, want_sum) = (WARMUP + ok, warm_sum + sum);
                // Launches whose blocks did not all land, at least one.
                let mut lost = 0;
                for b in 0..TINY_BLOCKS as usize {
                    if words[b] != want_n || words[TINY_BLOCKS as usize + b] != want_sum {
                        p.errors.push(format!(
                            "launch-rr block {b}: counter {} (want {want_n}), sum {} (want {want_sum})",
                            words[b],
                            words[TINY_BLOCKS as usize + b]
                        ));
                        lost = lost.max(want_n.abs_diff(words[b]).max(1));
                    }
                }
                p.failed += lost.min(ok);
            }
            Err(e) => {
                p.errors.push(format!("launch-rr readback: {e}"));
                p.failed += 1;
            }
        }
        p.errors.extend(teardown(&daemon, client));
        p.peak_rss_mb = peak_rss_mb();
        if traced {
            p.layers.extend([
                ("workers.threads_per_launch", p.threads_per_op()),
                (
                    "workers.blocks_per_s",
                    ratio((ok * TINY_BLOCKS as u64) as f64, p.elapsed_s),
                ),
                (
                    "placement.migrations",
                    daemon.placement_stats().migrations_completed as f64,
                ),
            ]);
            if let Some(log) = daemon.placement_log() {
                p.layers
                    .extend(daemon_log_layers(&log, WARMUP + p.attempted, 0, false));
            }
        }
        daemon.join();
        p
    }
}
