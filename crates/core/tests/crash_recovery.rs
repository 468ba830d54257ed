//! Seeded crash-kill / recover acceptance harness for the durability
//! subsystem.
//!
//! Each case runs a fixed workload of crash-replayable kernels whose every
//! block increments its own slot of a "hit buffer" exactly once, kills the
//! daemon at a seed-derived instant (`SlateDaemon::crash` — the functional
//! SIGKILL), recovers it from the WAL + snapshot directory, and lets the
//! client reattach transparently through its resume token. Exactly-once
//! execution is then observable as bytes: every hit slot must read 1.0
//! (a lost block would read 0.0, a re-executed one 2.0), and the whole
//! buffer must equal the one produced by an identical run that never
//! crashed. The full placement WAL — both epochs, kept via `keep_all` —
//! must also replay to the byte-identical routed-command transcript.

use slate_core::api::{resume_with_retry, RetryPolicy, SlateClient};
use slate_core::daemon::{DaemonOptions, ResumeToken, SlateDaemon};
use slate_core::durability::snapshot::load_snapshot;
use slate_core::durability::wal::{list_segments, list_snapshots, read_segment};
use slate_core::durability::{full_log, WalRecord};
use slate_core::placement::replay::verify;
use slate_core::{DurabilityOptions, SlateError};
use slate_gpu_sim::buffer::GpuBuffer;
use slate_gpu_sim::device::DeviceConfig;
use slate_gpu_sim::perf::KernelPerf;
use slate_kernels::grid::{BlockCoord, GridDim};
use slate_kernels::kernel::GpuKernel;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const BLOCKS: u32 = 48;
const LAUNCHES: usize = 6;

/// Every block bumps its own hit slot by one and dawdles long enough that
/// a mid-workload kill lands between block executions. One slot per block
/// means no write contention: the slot's final value *is* the execution
/// count.
struct HitKernel {
    base: usize,
    hits: Arc<GpuBuffer>,
}

impl GpuKernel for HitKernel {
    fn name(&self) -> &str {
        "hit"
    }
    fn grid(&self) -> GridDim {
        GridDim::d1(BLOCKS)
    }
    fn perf(&self) -> KernelPerf {
        KernelPerf::synthetic("hit", 400.0, 900.0)
    }
    fn run_block(&self, b: BlockCoord) {
        let i = self.base + b.x as usize;
        self.hits.store_f32(i, self.hits.load_f32(i) + 1.0);
        std::thread::sleep(Duration::from_micros(300));
    }
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "slate-crash-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn fleet(devices: usize) -> Vec<DeviceConfig> {
    (0..devices).map(|_| DeviceConfig::tiny(4)).collect()
}

fn durable_opts(devices: usize, dir: &Path) -> DaemonOptions {
    DaemonOptions {
        devices: fleet(devices),
        durability: Some(DurabilityOptions {
            dir: dir.to_path_buf(),
            snapshot_every: 8,
            keep_all: true,
        }),
        ..Default::default()
    }
}

/// Submits the fixed workload: one hit buffer, `LAUNCHES` replayable
/// kernels over disjoint slot ranges. Returns the buffer handle.
fn submit_workload(client: &SlateClient) -> slate_core::SlatePtr {
    let slots = LAUNCHES * BLOCKS as usize;
    let hits = client.malloc((slots * 4) as u64).unwrap();
    client.upload_f32(hits, &vec![0.0f32; slots]).unwrap();
    for k in 0..LAUNCHES {
        let base = k * BLOCKS as usize;
        client
            .launch_replayable(vec![hits], 8, None, move |bufs| -> Arc<dyn GpuKernel> {
                Arc::new(HitKernel {
                    base,
                    hits: bufs[0].clone(),
                })
            })
            .unwrap();
    }
    hits
}

/// The golden transcript: the identical workload on a daemon that never
/// crashes (and needs no durability).
fn golden_run(devices: usize) -> Vec<f32> {
    let opts = DaemonOptions {
        devices: fleet(devices),
        ..Default::default()
    };
    let daemon = SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, opts);
    let client = SlateClient::new(daemon.connect("golden").unwrap());
    let hits = submit_workload(&client);
    client.synchronize().unwrap();
    let out = client
        .download_f32(hits, LAUNCHES * BLOCKS as usize)
        .unwrap();
    client.disconnect().unwrap();
    daemon.join();
    out
}

/// Kill mid-workload at a seed-derived instant, recover, reattach, fence,
/// read back. Returns the recovered hit buffer.
fn crashed_run(seed: u64, devices: usize, dir: &Path) -> Vec<f32> {
    let daemon =
        SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, durable_opts(devices, dir));
    let client = SlateClient::new(daemon.connect("chaos").unwrap());
    let hits = submit_workload(&client);
    // Seeded kill point, spread across the workload's ~tens of ms of
    // block executions (including "before anything ran" and "after
    // everything finished" at the extremes).
    let delay = Duration::from_micros(500 + (seed % 23) * 700);
    let killer = {
        let d = daemon.clone();
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            d.crash()
        })
    };
    let scene = killer.join().unwrap();
    let recovered = SlateDaemon::recover(
        scene,
        DaemonOptions {
            durability: Some(DurabilityOptions {
                dir: dir.to_path_buf(),
                snapshot_every: 8,
                keep_all: true,
            }),
            ..Default::default()
        },
    )
    .expect("recover from WAL + snapshot");
    assert_eq!(recovered.epoch(), 1, "recovery bumps the epoch");
    // Transparent reattach: the client's next fence resumes the session,
    // resubmits every unacknowledged replayable launch under its original
    // id, and must surface no error.
    client.install_reattach(&recovered);
    client
        .synchronize()
        .expect("a resumed client surfaces no errors");
    let out = client
        .download_f32(hits, LAUNCHES * BLOCKS as usize)
        .unwrap();
    client.disconnect().unwrap();
    recovered.join();
    out
}

fn case(seed: u64, devices: usize) {
    let dir = tmpdir(&format!("case-{seed:x}-{devices}"));
    let crashed = crashed_run(seed, devices, &dir);
    // Exactly-once: every block of every launch ran precisely one time,
    // across the kill — no block lost, none re-executed.
    for (i, &v) in crashed.iter().enumerate() {
        assert_eq!(
            v, 1.0,
            "seed {seed:#x} devices {devices}: slot {i} executed {v} times"
        );
    }
    // Byte-identical to the uncrashed golden run.
    let golden = golden_run(devices);
    assert_eq!(
        crashed, golden,
        "seed {seed:#x} devices {devices}: recovered hit buffer diverges from golden"
    );
    // The kept full-history WAL (both epochs) replays to the identical
    // routed-command transcript.
    let log = full_log(&dir).expect("stitch full placement log from kept segments");
    verify(&log).expect("full WAL replays byte-identically");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_recover_exactly_once_two_devices() {
    for seed in [0xC0FFEE_u64, 0x5EED, 42] {
        case(seed, 2);
    }
}

#[test]
fn crash_recover_exactly_once_three_devices() {
    for seed in [0xC0FFEE_u64, 0x5EED, 42] {
        case(seed, 3);
    }
}

#[test]
fn resume_tokens_are_single_use_and_epoch_checked() {
    let dir = tmpdir("tokens");
    let daemon =
        SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, durable_opts(2, &dir));
    let client = SlateClient::new(daemon.connect("tok").unwrap());
    let p = client.malloc(256).unwrap();
    client.upload_f32(p, &[4.0, 5.0]).unwrap();
    let token = client.resume_token();
    assert_eq!(token.epoch, 0);
    let scene = daemon.crash();
    let recovered = SlateDaemon::recover(
        scene,
        DaemonOptions {
            durability: Some(DurabilityOptions {
                dir: dir.to_path_buf(),
                snapshot_every: 8,
                keep_all: true,
            }),
            ..Default::default()
        },
    )
    .unwrap();
    // A token for a session the log never saw is refused.
    let bogus = ResumeToken {
        epoch: 0,
        session: 999,
    };
    assert!(matches!(
        recovered.resume(bogus).err().unwrap(),
        slate_core::SlateError::ResumeRejected(_)
    ));
    // A token minted by the *current* incarnation is refused (nothing
    // crashed between minting and redeeming).
    let stale = ResumeToken {
        epoch: recovered.epoch(),
        session: token.session,
    };
    assert!(matches!(
        recovered.resume(stale).err().unwrap(),
        slate_core::SlateError::ResumeRejected(_)
    ));
    // The real token works exactly once — and the resumed session still
    // sees its pre-crash memory.
    let resumed = resume_with_retry(&recovered, token, RetryPolicy::with_attempts(3)).unwrap();
    assert!(matches!(
        recovered.resume(token).err().unwrap(),
        slate_core::SlateError::ResumeRejected(_)
    ));
    assert_eq!(resumed.download_f32(p, 2).unwrap(), vec![4.0, 5.0]);
    // And it keeps working for new kernels.
    resumed
        .launch_replayable(vec![p], 8, None, |bufs| -> Arc<dyn GpuKernel> {
            Arc::new(HitKernel {
                base: 2,
                hits: bufs[0].clone(),
            })
        })
        .unwrap();
    resumed.synchronize().unwrap();
    resumed.disconnect().unwrap();
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A session closed before the crash and swept from the snapshot at the
/// next checkpoint is still refused as closed, not as unknown.
#[test]
fn resume_of_a_swept_session_is_refused_as_closed() {
    let dir = tmpdir("swept");
    let options = || DaemonOptions {
        devices: fleet(2),
        durability: Some(DurabilityOptions {
            dir: dir.to_path_buf(),
            snapshot_every: 8,
            keep_all: false,
        }),
        ..Default::default()
    };
    let daemon = SlateDaemon::start_with_options(DeviceConfig::tiny(4), 1 << 24, options());
    let gone = SlateClient::new(daemon.connect("gone").unwrap());
    let token = gone.resume_token();
    gone.disconnect().unwrap();
    // The close is appended after the client's goodbye: find its segment.
    let closed_in = (0..2000)
        .find_map(|_| {
            let hit = list_segments(&dir).unwrap().into_iter().find(|(_, path)| {
                read_segment(path).is_ok_and(|scan| {
                    scan.records.contains(&WalRecord::SessionClosed {
                        session: token.session,
                    })
                })
            });
            if hit.is_none() {
                std::thread::sleep(Duration::from_millis(1));
            }
            hit.map(|(k, _)| k)
        })
        .expect("the close reaches the WAL");
    // Drive another session until the log rotates past that segment.
    let busy = SlateClient::new(daemon.connect("busy").unwrap());
    let p = busy.malloc(4 * BLOCKS as u64).unwrap();
    for _ in 0..200 {
        if list_segments(&dir).unwrap().last().unwrap().0 > closed_in {
            break;
        }
        busy.launch_replayable(vec![p], 8, None, |bufs| -> Arc<dyn GpuKernel> {
            Arc::new(HitKernel {
                base: 0,
                hits: bufs[0].clone(),
            })
        })
        .unwrap();
        busy.synchronize().unwrap();
    }
    let scene = daemon.crash(); // waits for the checkpoint in flight
    let (k, path) = list_snapshots(&dir).unwrap().pop().unwrap();
    assert!(k > closed_in, "a checkpoint followed the close");
    let snap = load_snapshot(&path).unwrap();
    assert!(
        !snap.meta.sessions.contains_key(&token.session),
        "the closed session was swept from the newest snapshot"
    );
    let recovered = SlateDaemon::recover(scene, options()).unwrap();
    match recovered.resume(token).err().unwrap() {
        SlateError::ResumeRejected(why) => assert!(
            why.ends_with("was closed before the crash"),
            "wrong reason: {why}"
        ),
        other => panic!("expected ResumeRejected, got {other:?}"),
    }
    // An id the log never issued is still unknown to it.
    let unknown = ResumeToken {
        epoch: 0,
        session: snap.meta.next_session + 100,
    };
    match recovered.resume(unknown).err().unwrap() {
        SlateError::ResumeRejected(why) => assert!(why.ends_with("is unknown to the log")),
        other => panic!("expected ResumeRejected, got {other:?}"),
    }
    let busy_again = recovered
        .resume(busy.resume_token())
        .expect("the open session resumes");
    SlateClient::new(busy_again).disconnect().unwrap();
    recovered.join();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_against_a_non_durable_daemon_is_rejected() {
    let daemon = SlateDaemon::start(DeviceConfig::tiny(2), 1 << 20);
    let err = daemon
        .resume(ResumeToken {
            epoch: 0,
            session: 1,
        })
        .err()
        .unwrap();
    assert!(matches!(err, slate_core::SlateError::ResumeRejected(_)));
    daemon.join();
}

/// Nightly soak: many seeded kill points per device count, seed injected
/// through `SLATE_CHAOS_SEED`. Run with `--ignored`.
#[test]
#[ignore = "crash-restart soak for the nightly job; seed via SLATE_CHAOS_SEED"]
fn crash_restart_soak() {
    let seed: u64 = std::env::var("SLATE_CHAOS_SEED")
        .ok()
        .and_then(|s| {
            let s = s.trim().to_string();
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(hex, 16).ok(),
                None => s.parse().ok(),
            }
        })
        .unwrap_or(1);
    for round in 0..8u64 {
        let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(round);
        for devices in [2usize, 3] {
            case(s, devices);
        }
    }
}
