//! Standalone probes of single layers, run at the end of a traced run.
//!
//! Some layers are timed apart from the daemon on the workload's own
//! kernel (dispatch, profiling, transformation, injection). A layer the
//! workload does not call is not probed: its metrics read 0 there.

use crate::common::{Layers, Setup};
use crate::kernels::{host_buffer, Axpb, Tiny, AXPB_SOURCE};
use crate::measure::{median, median_call_us};
use slate_core::dispatch::Dispatcher;
use slate_core::injector::InjectionCache;
use slate_core::profile::ProfileTable;
use slate_core::transform::TransformedKernel;
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_kernels::kernel::GpuKernel;
use std::sync::Arc;
use std::time::Instant;

/// The workload whose traced run ends with a brief traced `paper-pairs`
/// pass, which measures the simulator, runtime and baseline layers.
pub const SIM_PASS_WORKLOAD: &str = "llm-mixed";

/// The kernel (and task size) a daemon workload launches most, on host
/// buffers; `None` for `paper-pairs`, which runs no real kernel.
fn workload_kernel(workload: &str) -> Option<(Arc<dyn GpuKernel>, u32)> {
    Some(match workload {
        "launch-rr" => (
            Arc::new(Tiny {
                counters: Arc::new(GpuBuffer::new(64)),
                delta: 1,
            }),
            1,
        ),
        "llm-mixed" => (crate::llm_mixed::probe_kernel(), 4),
        "durable-churn" => {
            let n = 4096;
            let x = host_buffer(&vec![1.0; n]);
            let out = Arc::new(GpuBuffer::new(n * 4));
            (
                Arc::new(Axpb {
                    n,
                    a: 2.0,
                    b: 1.0,
                    x,
                    out,
                }),
                4,
            )
        }
        _ => return None,
    })
}

/// Probes the layers `workload` calls apart from the daemon and records
/// them in `l`; returns the output checks the probes failed.
pub fn probe_layers(l: &mut Layers, workload: &str, seed: u64) -> Vec<String> {
    let cfg = DeviceConfig::titan_xp();
    if let Some((kernel, task)) = workload_kernel(workload) {
        // Dispatch kernel + persistent workers, without the daemon.
        let mut live = 0;
        let run_us = median_call_us(30, || {
            let d = Dispatcher::new(
                cfg.clone(),
                TransformedKernel::new(kernel.clone()),
                task,
                SmRange::all(cfg.num_sms),
            );
            live = d.run().runs[0].live_workers;
        });
        l.set("dispatch.run_us", run_us);
        l.set("workers.live", live as f64);

        // First-run profiling on a cold table, as the daemon calls it.
        let blocks = kernel.grid().total_blocks().max(10_000);
        let first_ms = median_call_us(5, || {
            let mut t = ProfileTable::new();
            std::hint::black_box(t.get_or_profile(&cfg, &kernel.perf(), blocks));
        }) / 1e3;
        l.set("profile.first_run_ms", first_ms);

        const REPS: u32 = 1000;
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(TransformedKernel::new(kernel.clone()));
        }
        l.set(
            "transform.new_us",
            t.elapsed().as_secs_f64() * 1e6 / REPS as f64,
        );

        // The injector is called only by a launch that carries source.
        if workload == "durable-churn" {
            let (mut miss, mut hit) = (Vec::new(), Vec::new());
            for _ in 0..50 {
                let mut cache = InjectionCache::new();
                for sample in [&mut miss, &mut hit] {
                    let t = Instant::now();
                    std::hint::black_box(cache.get_or_inject("probe", AXPB_SOURCE, task));
                    sample.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
            l.set("injector.miss_us", median(&miss));
            l.set("injector.hit_us", median(&hit));
        }
    }

    if workload == SIM_PASS_WORKLOAD {
        let p = crate::paper_pairs::PaperPairs::setup(seed, true).run(0.25, true);
        for (name, v) in p.layers {
            if ["sim.", "runtime.", "baselines."]
                .iter()
                .any(|pre| name.starts_with(pre))
            {
                l.set(name, v);
            }
        }
        return p.errors;
    }
    Vec::new()
}
