//! End-to-end and per-layer benchmark of the Slate daemon and the
//! simulated runtimes.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload launch-rr --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run sets its workload up several times (the median is
//! `setup_s`), then measures one untraced phase of `--seconds`. With
//! `--trace 1` it measures a second, traced phase (arbiter recording on,
//! spans kept in memory around every call into a layer and written to
//! `.bench_out/` at the end) and prints the per-layer metrics instead of
//! the end-to-end ones. The last line of standard output is one JSON
//! object; see `perfbench/README.md` for every metric.

mod common;
mod durable_churn;
mod kernels;
mod launch_rr;
mod llm_mixed;
mod measure;
mod paper_pairs;
mod probe;

use common::{Layers, Phase, Setup};
use measure::{median, CountingAlloc};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Workload names, as `--workload` takes them.
const WORKLOADS: [&str; 4] = ["launch-rr", "llm-mixed", "durable-churn", "paper-pairs"];

/// Set-ups per run; their median is `setup_s`.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Sets the workload up `SETUP_REPS` times, discarding all but the last;
/// returns it with the median set-up time.
fn set_up<W: Setup>(seed: u64, traced: bool) -> (W, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let w = W::setup(seed, traced);
        times.push(t.elapsed().as_secs_f64());
        if rep + 1 == SETUP_REPS {
            kept = Some(w);
        } else {
            w.discard();
        }
    }
    (kept.expect("at least one set-up"), median(&times))
}

/// Runs one workload end to end; returns the untraced phase, the traced
/// one when asked, and the set-up time.
fn run_workload<W: Setup>(args: &Args) -> (Phase, Option<Phase>, f64) {
    let (w, setup_s) = set_up::<W>(args.seed, false);
    let untraced = w.run(args.seconds, false);
    let traced = args.trace.then(|| {
        let w = W::setup(args.seed, true);
        CountingAlloc::enable(true);
        let p = w.run(args.seconds, true);
        CountingAlloc::enable(false);
        p
    });
    (untraced, traced, setup_s)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let (untraced, traced, setup_s) = match args.workload.as_str() {
        "launch-rr" => run_workload::<launch_rr::LaunchRr>(&args),
        "llm-mixed" => run_workload::<llm_mixed::LlmMixed>(&args),
        "durable-churn" => run_workload::<durable_churn::DurableChurn>(&args),
        _ => run_workload::<paper_pairs::PaperPairs>(&args),
    };

    if let Some(late) = untraced.gen_late_violation() {
        // An open loop whose generator fell behind its own schedule did
        // not offer the stated load: the run is invalid, not comparable.
        eprintln!("perfbench: invalid run: {late}");
        std::process::exit(3);
    }
    let mut errors = untraced.errors.clone();
    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let metrics = match &traced {
        None => untraced.end_to_end(setup_s),
        Some(t) => {
            errors.extend(t.errors.iter().cloned());
            attempted += t.attempted;
            failed += t.failed;
            let mut layers = Layers::from_phase(t);
            layers.set(
                "trace.overhead_frac",
                t.p50_us() / untraced.p50_us().max(1e-9) - 1.0,
            );
            // The untraced tail, reported without a bound: under heavy
            // steal it swings far more than the gated `p95_us`.
            layers.set("bench.p99_us", untraced.p99_us());
            errors.extend(probe::probe_layers(&mut layers, &args.workload, args.seed));
            let path = std::path::Path::new(".bench_out")
                .join(format!("trace-{}-{}.json", args.workload, args.seed));
            if let Err(e) = measure::write_spans(&path, &t.spans) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
            layers.into_metrics()
        }
    };
    for e in errors.iter().take(10) {
        eprintln!("perfbench: {e}");
    }
    let correct = errors.is_empty() && failed == 0 && attempted > 0;
    for m in &metrics {
        println!(
            "{:<32} {:>16.4} {:<10} {}",
            m.name, m.value, m.unit, m.better
        );
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
