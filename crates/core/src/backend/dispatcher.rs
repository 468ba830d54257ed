//! [`DispatcherBackend`]: arbiter command execution over real
//! persistent-worker threads, via the dispatch kernel of
//! [`crate::dispatch`].
//!
//! This is the execution substrate of the live
//! [`SlateDaemon`](crate::daemon::SlateDaemon): its arbiter frontend owns
//! one backend per device and carries out every routed
//! `Dispatch`/`Resize`/`Evict` through [`Backend::apply`], so the
//! conformance suite tests the code production runs. A dispatched lease
//! is a [`Dispatcher`] running on its own thread; resizes and evictions
//! act on its [`DispatchHandle`], and an eviction also cancels the
//! staging's [`WorkSpec::cancel`] token so a cooperatively hung kernel
//! actually comes back.

use super::{Backend, Completion, DeviceFault, DeviceHealth, WorkSpec};
use crate::arbiter::Command;
use crate::dispatch::{DispatchHandle, Dispatcher};
use crossbeam::channel::{unbounded, Receiver, Sender};
use slate_gpu_sim::device::{DeviceConfig, SmRange};
use slate_gpu_sim::fault::FaultToken;
use std::collections::{BTreeMap, BTreeSet};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// Where completions go: the backend's channel, plus the thread to unpark
/// once one is there.
#[derive(Clone)]
struct Notifier {
    tx: Sender<Completion>,
    waker: Option<Thread>,
}

impl Notifier {
    fn send(&self, c: Completion) {
        let _ = self.tx.send(c);
        if let Some(t) = &self.waker {
            t.unpark();
        }
    }
}

/// A dispatched staging: the handle its `Resize`/`Evict` commands act
/// on, the token an eviction cancels, and the thread running it.
struct Run {
    handle: DispatchHandle,
    cancel: Option<FaultToken>,
    thread: JoinHandle<()>,
}

impl Run {
    /// Stops the dispatch and cancels the staging's token, so a
    /// cooperatively hung kernel actually comes back.
    fn evict(&self) {
        self.handle.evict();
        if let Some(t) = &self.cancel {
            t.cancel();
        }
    }
}

/// Per-lease job state.
struct Job {
    /// Staged work, consumed by the dispatch.
    spec: Option<WorkSpec>,
    /// Carried progress of the staging (reported before any pull happens).
    start: u64,
    /// The last commanded SM range, once dispatched.
    range: Option<SmRange>,
    /// The dispatch, until its completion is polled.
    run: Option<Run>,
    /// Final `(progress, ok)` once the completion was polled.
    finished: Option<(u64, bool)>,
}

/// The persistent-worker execution backend.
pub struct DispatcherBackend {
    device: DeviceConfig,
    jobs: BTreeMap<u64, Job>,
    notify: Notifier,
    rx: Receiver<Completion>,
    /// Whether the device is lost (hard, or flapping until `down_until`).
    lost: bool,
    /// Flap recovery deadline; `None` while hard-lost.
    down_until: Option<Instant>,
    /// Degraded-probe deadline (the dispatcher runs on wall clock, so a
    /// stall is a wall-clock window during which `health()` reports
    /// [`DeviceHealth::Degraded`]).
    degraded_until: Option<Instant>,
    /// Leases evicted by a device loss: their worker completions are
    /// rewritten as lost when they surface through [`Backend::poll`].
    lost_leases: BTreeSet<u64>,
}

impl DispatcherBackend {
    /// A backend executing on `device` with real worker threads.
    pub fn new(device: DeviceConfig) -> Self {
        let (tx, rx) = unbounded();
        Self {
            device,
            jobs: BTreeMap::new(),
            notify: Notifier { tx, waker: None },
            rx,
            lost: false,
            down_until: None,
            degraded_until: None,
            lost_leases: BTreeSet::new(),
        }
    }

    /// Unparks `thread` whenever a completion becomes available to
    /// [`Backend::poll`], so a driver parked between polls wakes on the
    /// completion itself rather than on its next timeout.
    pub(crate) fn wake_on_completion(&mut self, thread: Thread) {
        self.notify.waker = Some(thread);
    }

    /// The leases staged or in flight (their completion not yet polled),
    /// in ascending order.
    pub(crate) fn live_leases(&self) -> Vec<u64> {
        self.jobs
            .iter()
            .filter(|(_, j)| j.spec.is_some() || j.run.is_some())
            .map(|(&lease, _)| lease)
            .collect()
    }

    /// Drops the record of a lease whose completion was polled (its final
    /// progress included); a no-op while it is staged or in flight. A
    /// long-lived driver calls this once it consumed the completion, so
    /// the backend holds only live leases.
    pub(crate) fn release(&mut self, lease: u64) {
        if self.jobs.get(&lease).is_some_and(|j| j.finished.is_some()) {
            self.jobs.remove(&lease);
        }
    }

    /// Health as of this instant: flap outages and degraded windows expire
    /// on the wall clock without a state-mutating tick.
    fn current_health(&self) -> DeviceHealth {
        if self.lost && self.down_until.is_none_or(|t| Instant::now() < t) {
            return DeviceHealth::Lost;
        }
        if self.degraded_until.is_some_and(|t| Instant::now() < t) {
            return DeviceHealth::Degraded;
        }
        DeviceHealth::Healthy
    }

    /// Folds an expired flap outage back into the healthy state.
    fn settle(&mut self) {
        if self.lost && self.down_until.is_some_and(|t| Instant::now() >= t) {
            self.lost = false;
            self.down_until = None;
        }
    }

    /// Evicts every in-flight dispatch as a device casualty; their worker
    /// completions surface as lost through [`Backend::poll`].
    fn lose_in_flight(&mut self) {
        for (&lease, job) in &self.jobs {
            if let Some(run) = &job.run {
                self.lost_leases.insert(lease);
                run.evict();
            }
        }
    }

    /// Notes a completion that arrived on the channel.
    fn note(&mut self, c: Completion) {
        if let Some(job) = self.jobs.get_mut(&c.lease) {
            job.finished = Some((c.progress, c.ok));
            if let Some(run) = job.run.take() {
                let _ = run.thread.join();
            }
        }
    }
}

impl Backend for DispatcherBackend {
    fn name(&self) -> &'static str {
        "dispatcher"
    }

    fn device(&self) -> &DeviceConfig {
        &self.device
    }

    fn stage(&mut self, lease: u64, spec: WorkSpec) {
        debug_assert!(
            self.jobs.get(&lease).is_none_or(|j| j.run.is_none()),
            "staging over an in-flight lease"
        );
        let start = spec.start;
        self.jobs.insert(
            lease,
            Job {
                spec: Some(spec),
                start,
                range: None,
                run: None,
                finished: None,
            },
        );
    }

    fn apply(&mut self, cmd: &Command) {
        match cmd {
            Command::Dispatch { lease, range } => {
                self.settle();
                let lost = self.current_health() == DeviceHealth::Lost;
                let Some(job) = self.jobs.get_mut(lease) else {
                    return;
                };
                let Some(spec) = job.spec.take() else {
                    return; // duplicate dispatch: already running or done
                };
                if lost {
                    // Dispatch into a dead device: lost on arrival, at
                    // whatever progress the staging carried.
                    self.notify
                        .send(Completion::device_lost(*lease, spec.start));
                    return;
                }
                // Build the dispatcher directly on the commanded range: no
                // initial-resize race, the first worker launch is confined.
                let d = Dispatcher::resume(
                    self.device.clone(),
                    spec.kernel,
                    spec.task_size,
                    *range,
                    spec.start,
                );
                job.range = Some(*range);
                let handle = d.handle();
                let notify = self.notify.clone();
                let lease = *lease;
                let thread = std::thread::spawn(move || {
                    let out = d.run();
                    notify.send(Completion {
                        lease,
                        progress: out.blocks,
                        ok: !out.evicted,
                        lost: false,
                    });
                });
                job.run = Some(Run {
                    handle,
                    cancel: spec.cancel,
                    thread,
                });
            }
            Command::Resize { lease, range } => {
                if let Some(job) = self.jobs.get_mut(lease) {
                    if let Some(run) = &job.run {
                        run.handle.resize(*range);
                        job.range = Some(*range);
                    }
                }
            }
            Command::Evict { lease } => {
                let Some(job) = self.jobs.get_mut(lease) else {
                    return;
                };
                if let Some(run) = &job.run {
                    run.evict();
                } else if job.spec.take().is_some() {
                    // Evicting a staged-but-parked lease still consumes
                    // the staging and reports the eviction at its carried
                    // progress, exactly as the simulation backend does —
                    // mass evacuation must be able to move waiters, not
                    // just residents.
                    self.notify.send(Completion::evicted(*lease, job.start));
                }
            }
            Command::PromoteStarved { .. }
            | Command::Preempt { .. }
            | Command::Reap { .. }
            | Command::RejectOverloaded { .. } => {}
        }
    }

    fn poll(&mut self) -> Option<Completion> {
        self.settle();
        match self.rx.try_recv() {
            Ok(mut c) => {
                if self.lost_leases.remove(&c.lease) {
                    // The eviction was a device casualty, not a
                    // scheduling decision.
                    c.lost = true;
                    c.ok = false;
                }
                self.note(c);
                Some(c)
            }
            Err(_) => None,
        }
    }

    fn advance(&mut self, millis: u64) {
        std::thread::sleep(std::time::Duration::from_millis(millis));
    }

    fn progress(&self, lease: u64) -> u64 {
        let Some(job) = self.jobs.get(&lease) else {
            return 0;
        };
        match (&job.finished, &job.run) {
            (Some((p, _)), _) => *p,
            (None, Some(run)) => run.handle.progress(),
            (None, None) => job.start,
        }
    }

    fn held_range(&self, lease: u64) -> Option<SmRange> {
        let job = self.jobs.get(&lease)?;
        if job.finished.is_some() {
            return None;
        }
        job.range
    }

    fn is_functional(&self) -> bool {
        true
    }

    fn health(&self) -> DeviceHealth {
        self.current_health()
    }

    fn inject_device_fault(&mut self, fault: DeviceFault) -> bool {
        match fault {
            DeviceFault::Loss => {
                self.lose_in_flight();
                self.lost = true;
                self.down_until = None;
            }
            DeviceFault::Degraded { millis } => {
                if self.current_health() != DeviceHealth::Lost {
                    self.degraded_until = Some(Instant::now() + Duration::from_millis(millis));
                }
            }
            DeviceFault::Flap { down_ms } => {
                self.lose_in_flight();
                self.lost = true;
                self.down_until = Some(Instant::now() + Duration::from_millis(down_ms.max(1)));
            }
            DeviceFault::Restore => {
                self.lost = false;
                self.down_until = None;
                self.degraded_until = None;
            }
        }
        true
    }
}
