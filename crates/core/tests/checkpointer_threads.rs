//! Every durable daemon owns one checkpointer thread; freezing the WAL
//! (at the crash point) or dropping the daemon must end it. Kept in its
//! own test binary so no other test's daemons share the process while
//! threads are counted.

#![cfg(target_os = "linux")]

use slate_core::daemon::{DaemonOptions, SlateDaemon};
use slate_core::DurabilityOptions;
use slate_gpu_sim::device::DeviceConfig;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live threads of this process named like the checkpointer.
fn checkpointer_threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "slate-ckpt")
        .count()
}

fn durable_daemon(dir: PathBuf) -> Arc<SlateDaemon> {
    SlateDaemon::start_with_options(
        DeviceConfig::tiny(4),
        1 << 20,
        DaemonOptions {
            durability: Some(DurabilityOptions::new(dir)),
            ..Default::default()
        },
    )
}

#[test]
fn freezing_or_dropping_durable_daemons_leaves_no_checkpointer_threads() {
    let root = std::env::temp_dir().join(format!("slate-ckpt-threads-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(checkpointer_threads(), 0);
    let daemons: Vec<_> = (0..50)
        .map(|i| durable_daemon(root.join(format!("d{i}"))))
        .collect();
    // A new thread names itself once it runs: give the last ones a moment.
    let t0 = Instant::now();
    while checkpointer_threads() < 50 && t0.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(checkpointer_threads(), 50, "one checkpointer per daemon");
    // The crash point freezes the WAL: the daemons stay alive, their
    // checkpointers do not.
    let scenes: Vec<_> = daemons.iter().map(|d| d.crash()).collect();
    assert_eq!(checkpointer_threads(), 0, "freeze stops the checkpointer");
    drop(scenes);
    drop(daemons);
    // Dropping a daemon that was never frozen stops it too.
    for i in 0..50 {
        let d = durable_daemon(root.join(format!("e{i}")));
        d.shutdown(Duration::from_secs(1));
        d.join();
    }
    assert_eq!(checkpointer_threads(), 0, "drop stops the checkpointer");
    std::fs::remove_dir_all(&root).ok();
}
