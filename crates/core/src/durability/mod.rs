//! Crash consistency for the daemon: durable WAL + snapshot/restore.
//!
//! The daemon's arbitration state is already event-sourced — every
//! decision is a pure function of the fed event batches — so durability
//! is exactly: persist the batches ([`wal`]), checkpoint the folded state
//! periodically so recovery replays only a suffix ([`snapshot`]), and
//! rebuild + re-adopt after a crash ([`recover`]). Layout on disk:
//!
//! ```text
//! <dir>/snap-00000000.json   pristine genesis anchor (written at start)
//! <dir>/wal-00000000.log     segment 0: one frame per fed batch + meta
//! <dir>/snap-00000001.json   cadence checkpoint, anchors segment 1
//! <dir>/wal-00000001.log     …
//! ```
//!
//! Snapshot `k` captures state as of the *start* of segment `k`; recovery
//! loads the newest readable snapshot and replays segments `≥ k`.
//!
//! **Checkpoints.** Every [`DurabilityOptions::snapshot_every`] batches,
//! [`Durability::append_batch`] sweeps closed sessions out of the
//! metadata mirror, rotates to segment `k` and captures snapshot `k` —
//! all under the lock the batch was appended under, so the snapshot
//! anchors exactly the batches before it. The I/O runs on one
//! checkpointer thread owned by [`Durability`]: it syncs segment `k − 1`,
//! writes snapshot `k` (temp file, fsync, rename) and compacts everything
//! below `k`. At most one checkpoint is in flight — a rotation that finds
//! the previous one unfinished waits for it — so recovery replays at most
//! two segments. [`Durability::freeze`] and [`Durability::compact`] wait
//! for the checkpoint in flight; the thread exits on freeze or drop.
//!
//! **Fsync policy.** Appends go straight to the file descriptor
//! (crash-of-the-process can lose nothing acknowledged); `sync_all` runs
//! on the checkpointer at rotation and snapshot points, and at freeze
//! (power-failure window: the snapshot cadence plus the one checkpoint in
//! flight). I/O errors during appends and checkpoints are counted and
//! surfaced via [`Durability::io_errors`] rather than propagated — an
//! arbitration decision that already happened cannot be un-made by a full
//! disk, and the counter lets operators alarm on it.

pub mod recover;
pub mod snapshot;
pub mod wal;

pub use recover::{full_log, recover_dir, Recovered};
pub use snapshot::{AllocMeta, DurableMeta, DurableSnapshot, SessionMeta, SNAPSHOT_FORMAT};
pub use wal::{WalIssue, WalRecord, WalScan};

use crate::placement::PlacementSnapshot;
use parking_lot::{Condvar, Mutex};
use snapshot::write_snapshot;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use wal::SegmentWriter;

/// Knobs of the durability subsystem (see
/// [`DaemonOptions::durability`](crate::daemon::DaemonOptions)).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding WAL segments and snapshots. Created if absent.
    pub dir: PathBuf,
    /// Batches appended to a segment before the layer is re-snapshotted
    /// and the log rotated. Smaller = faster recovery, more checkpoint
    /// I/O.
    pub snapshot_every: u64,
    /// Keep superseded segments and snapshots instead of compacting them
    /// away. The full-history placement log ([`full_log`]) stays
    /// verifiable from genesis; used by the crash harness, debuggers and
    /// anyone auditing a recovery.
    pub keep_all: bool,
}

impl DurabilityOptions {
    /// Durability under `dir` with the default cadence.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            snapshot_every: 64,
            keep_all: false,
        }
    }
}

#[derive(Debug)]
struct DurInner {
    writer: SegmentWriter,
    segment: u64,
    batches_since_snap: u64,
    meta: DurableMeta,
    frozen: bool,
}

/// One checkpoint, captured under the append lock: the segment it closed
/// out and the snapshot anchoring the next one.
#[derive(Debug)]
struct Checkpoint {
    old: SegmentWriter,
    snap: DurableSnapshot,
}

/// The hand-off between [`Durability::append_batch`] and the
/// checkpointer thread: at most one checkpoint, queued or being written.
#[derive(Debug)]
struct Slot {
    queued: Option<Checkpoint>,
    busy: bool,
    stop: bool,
    /// Index of the newest snapshot known to be on disk.
    durable: u64,
}

/// State shared by [`Durability`] and its checkpointer thread.
#[derive(Debug)]
struct Checkpointer {
    dir: PathBuf,
    keep_all: bool,
    slot: Mutex<Slot>,
    changed: Condvar,
    io_errors: AtomicU64,
}

impl Checkpointer {
    fn note_io<T>(&self, r: io::Result<T>) -> Option<T> {
        match r {
            Ok(v) => Some(v),
            Err(_) => {
                self.io_errors.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// The checkpointer thread: writes queued checkpoints until stopped,
    /// finishing the one queued before it exits.
    fn run(&self) {
        loop {
            let Checkpoint { mut old, snap } = {
                let mut slot = self.slot.lock();
                loop {
                    if let Some(job) = slot.queued.take() {
                        slot.busy = true;
                        break job;
                    }
                    if slot.stop {
                        return;
                    }
                    self.changed.wait(&mut slot);
                }
            };
            self.note_io(old.sync());
            let k = snap.segment;
            let written = self.note_io(write_snapshot(&self.dir, k, &snap)).is_some();
            if written {
                // Only below the snapshot just made durable: the live
                // segment may already be further ahead.
                self.compact_below(k);
            }
            let mut slot = self.slot.lock();
            slot.busy = false;
            if written {
                slot.durable = k;
            }
            drop(slot);
            self.changed.notify_all();
        }
    }

    /// Blocks until no checkpoint is queued or being written; returns the
    /// newest durable snapshot.
    fn drain(&self) -> u64 {
        let mut slot = self.slot.lock();
        while slot.queued.is_some() || slot.busy {
            self.changed.wait(&mut slot);
        }
        slot.durable
    }

    /// Hands `job` to the thread once the previous checkpoint is done.
    fn submit(&self, job: Checkpoint) {
        let mut slot = self.slot.lock();
        while slot.queued.is_some() || slot.busy {
            self.changed.wait(&mut slot);
        }
        slot.queued = Some(job);
        drop(slot);
        self.changed.notify_all();
    }

    /// Deletes segments and snapshots below `k`. No-op under `keep_all`.
    /// Best-effort: removal failures are counted, not fatal — stale files
    /// only cost disk.
    fn compact_below(&self, k: u64) {
        if self.keep_all {
            return;
        }
        let dir = &self.dir;
        for (j, path) in wal::list_segments(dir).unwrap_or_default() {
            if j < k && self.note_io(std::fs::remove_file(path)).is_none() {
                return;
            }
        }
        for (j, path) in wal::list_snapshots(dir).unwrap_or_default() {
            if j < k && self.note_io(std::fs::remove_file(path)).is_none() {
                return;
            }
        }
    }
}

/// The live durability runtime: one open WAL segment, the mirrored
/// session metadata, the snapshot cadence counter and the checkpointer
/// thread. Shared by the daemon's arbiter frontend (batch appends) and
/// its session threads (metadata appends).
#[derive(Debug)]
pub struct Durability {
    options: DurabilityOptions,
    epoch: u64,
    inner: Mutex<DurInner>,
    ckpt: Arc<Checkpointer>,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl Durability {
    /// Starts durability at `segment` in `epoch`: sweeps closed sessions
    /// out of `meta`, writes the anchoring snapshot of `placement` +
    /// `meta`, opens the segment for appending and starts the
    /// checkpointer thread. Fresh daemons start at segment 0, epoch 0 (the
    /// pristine genesis anchor); recovered daemons start one segment past
    /// the crashed log, one epoch up.
    pub fn start(
        options: DurabilityOptions,
        segment: u64,
        epoch: u64,
        placement: &PlacementSnapshot,
        mut meta: DurableMeta,
    ) -> io::Result<Arc<Self>> {
        std::fs::create_dir_all(&options.dir)?;
        meta.sweep_closed();
        write_snapshot(
            &options.dir,
            segment,
            &DurableSnapshot {
                format: SNAPSHOT_FORMAT,
                epoch,
                segment,
                placement: placement.clone(),
                meta: meta.clone(),
            },
        )?;
        let writer = SegmentWriter::create(&options.dir, segment)?;
        let ckpt = Arc::new(Checkpointer {
            dir: options.dir.clone(),
            keep_all: options.keep_all,
            slot: Mutex::new(Slot {
                queued: None,
                busy: false,
                stop: false,
                durable: segment,
            }),
            changed: Condvar::new(),
            io_errors: AtomicU64::new(0),
        });
        let thread = {
            let ckpt = ckpt.clone();
            std::thread::Builder::new()
                .name("slate-ckpt".to_string())
                .spawn(move || ckpt.run())?
        };
        Ok(Arc::new(Self {
            options,
            epoch,
            inner: Mutex::new(DurInner {
                writer,
                segment,
                batches_since_snap: 0,
                meta,
                frozen: false,
            }),
            ckpt,
            thread: Mutex::new(Some(thread)),
        }))
    }

    /// The recovery epoch this incarnation runs in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The durability directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.options.dir
    }

    /// Append and checkpoint I/O failures since start. Nonzero means the
    /// WAL has a gap: recovery from this log may miss state, and operators
    /// should treat the disk as suspect.
    pub fn io_errors(&self) -> u64 {
        self.ckpt.io_errors.load(Ordering::Relaxed)
    }

    /// A clone of the mirrored session metadata.
    pub fn meta(&self) -> DurableMeta {
        self.inner.lock().meta.clone()
    }

    /// Appends a metadata record (session/alloc/launch bookkeeping) and
    /// folds it into the mirror.
    pub fn append_meta(&self, record: &WalRecord) {
        let mut inner = self.inner.lock();
        if inner.frozen {
            return;
        }
        inner.meta.apply(record);
        let r = inner.writer.append(record);
        drop(inner);
        self.ckpt.note_io(r);
    }

    /// Appends one fed placement batch; on cadence, sweeps closed
    /// sessions, rotates the segment and captures a checkpoint of
    /// `placement_snap()` (called under the same lock the batch was
    /// produced under, so the snapshot anchors exactly the batches
    /// appended so far) for the checkpointer thread to write. Waits for
    /// the previous checkpoint first if it is still being written.
    pub fn append_batch(
        &self,
        batch: &crate::placement::PlacementBatch,
        placement_snap: impl FnOnce() -> PlacementSnapshot,
    ) {
        let mut inner = self.inner.lock();
        if inner.frozen {
            return;
        }
        let record = WalRecord::Batch {
            batch: batch.clone(),
        };
        let r = inner.writer.append(&record);
        self.ckpt.note_io(r);
        inner.batches_since_snap += 1;
        if inner.batches_since_snap < self.options.snapshot_every {
            return;
        }
        // Rotate first, then anchor the new segment with the checkpoint:
        // a crash before the snapshot lands leaves the previous snapshot
        // + a replay of both segments — nothing lost.
        inner.batches_since_snap = 0;
        let seg = inner.segment + 1;
        let Some(w) = self
            .ckpt
            .note_io(SegmentWriter::create(&self.options.dir, seg))
        else {
            return;
        };
        let old = std::mem::replace(&mut inner.writer, w);
        inner.segment = seg;
        inner.meta.sweep_closed();
        let snap = DurableSnapshot {
            format: SNAPSHOT_FORMAT,
            epoch: self.epoch,
            segment: seg,
            placement: placement_snap(),
            meta: inner.meta.clone(),
        };
        self.ckpt.submit(Checkpoint { old, snap });
    }

    /// Waits for the checkpoint in flight, then deletes segments and
    /// snapshots superseded by the newest snapshot on disk. No-op under
    /// `keep_all`. Best-effort: removal failures are counted, not fatal —
    /// stale files only cost disk.
    pub fn compact(&self) {
        let newest = self.ckpt.drain();
        self.ckpt.compact_below(newest);
    }

    /// Stops all appends (used at the crash point of the kill harness)
    /// after syncing what was written, waits for the checkpoint in flight
    /// and stops the checkpointer thread. Idempotent.
    pub fn freeze(&self) {
        let mut inner = self.inner.lock();
        if inner.frozen {
            return;
        }
        inner.frozen = true;
        let r = inner.writer.sync();
        drop(inner);
        self.ckpt.note_io(r);
        self.stop_checkpointer();
    }

    /// Lets the checkpointer finish its queued work, then joins it. A
    /// panicked checkpointer lost its checkpoint: counted as an I/O error.
    fn stop_checkpointer(&self) {
        self.ckpt.slot.lock().stop = true;
        self.ckpt.changed.notify_all();
        if let Some(h) = self.thread.lock().take() {
            if h.join().is_err() {
                self.ckpt.io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for Durability {
    fn drop(&mut self) {
        self.stop_checkpointer();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{PlacementConfig, PlacementLayer};
    use slate_gpu_sim::device::DeviceConfig;
    use std::path::Path;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "slate-dur-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn count(dir: &Path) -> (usize, usize) {
        (
            wal::list_segments(dir).unwrap().len(),
            wal::list_snapshots(dir).unwrap().len(),
        )
    }

    #[test]
    fn cadence_rotates_snapshots_and_compacts() {
        let dir = tmpdir("cadence");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let mut options = DurabilityOptions::new(&dir);
        options.snapshot_every = 2;
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        for i in 0..5u64 {
            let events = vec![crate::arbiter::Event::SessionOpened { session: i + 1 }];
            let routed = layer.feed(i * 10, &events);
            d.append_batch(
                &crate::placement::PlacementBatch {
                    at: i * 10,
                    events,
                    routed,
                },
                || layer.snapshot(),
            );
        }
        // 5 batches at cadence 2: rotated after 2 and 4; compaction keeps
        // only the newest segment + snapshot pair. Checkpoints are written
        // off the append path: freeze waits for the one in flight.
        d.freeze();
        let (segs, snaps) = count(&dir);
        assert_eq!((segs, snaps), (1, 1), "compaction retired the rest");
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.issues.is_empty());
        assert_eq!(rec.last_segment, 2);
        assert_eq!(
            serde_json::to_string(&rec.layer.snapshot()).unwrap(),
            serde_json::to_string(&layer.snapshot()).unwrap(),
            "recovered layer matches the live one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One session's open → batch → close, on a layer fed alongside.
    fn session_cycle(d: &Durability, layer: &mut PlacementLayer, session: u64) {
        d.append_meta(&WalRecord::SessionMeta {
            session,
            user: format!("u{session}"),
            slo: Default::default(),
        });
        for events in [
            vec![crate::arbiter::Event::SessionOpened { session }],
            vec![crate::arbiter::Event::SessionClosed { session }],
        ] {
            let at = layer.now() + 10;
            let routed = layer.feed(at, &events);
            d.append_batch(
                &crate::placement::PlacementBatch { at, events, routed },
                || layer.snapshot(),
            );
        }
        d.append_meta(&WalRecord::SessionClosed { session });
    }

    #[test]
    fn lost_inflight_checkpoint_recovers_from_the_one_before() {
        let dir = tmpdir("lostckpt");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let mut options = DurabilityOptions::new(&dir);
        options.snapshot_every = 4;
        options.keep_all = true;
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        // Session 1 stays open throughout; sessions 2.. open and close.
        d.append_meta(&WalRecord::SessionMeta {
            session: 1,
            user: "stays".into(),
            slo: Default::default(),
        });
        for s in 2..9 {
            session_cycle(&d, &mut layer, s);
        }
        d.freeze();
        // 14 batches at cadence 4: segments 0..=3, snapshots 0..=3.
        let k = wal::list_segments(&dir).unwrap().last().unwrap().0;
        assert_eq!(k, 3);
        // The crash caught checkpoint k in flight: segment k is on disk,
        // snapshot k is not. Recovery starts from k − 1 and replays both.
        std::fs::remove_file(wal::snapshot_path(&dir, k)).expect("drop snapshot k");
        let base = wal::list_snapshots(&dir).unwrap().last().unwrap().0;
        assert_eq!(base, k - 1);
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.issues.is_empty());
        assert_eq!(rec.last_segment, k);
        assert_eq!(
            serde_json::to_string(&rec.layer.snapshot()).unwrap(),
            serde_json::to_string(&layer.snapshot()).unwrap(),
            "recovered layer matches the live one"
        );
        assert_eq!(
            serde_json::to_string(&rec.meta).unwrap(),
            serde_json::to_string(&d.meta()).unwrap(),
            "recovered meta matches the live one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_size_tracks_open_sessions_not_cycles() {
        let dir = tmpdir("bounded");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let mut options = DurabilityOptions::new(&dir);
        options.snapshot_every = 16;
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        d.append_meta(&WalRecord::SessionMeta {
            session: 1,
            user: "stays".into(),
            slo: Default::default(),
        });
        let newest = |d: &Durability| {
            d.compact(); // waits for the checkpoint in flight
            let (k, path) = wal::list_snapshots(&dir).unwrap().pop().unwrap();
            let snap = snapshot::load_snapshot(&path).expect("load");
            (k, snap, std::fs::metadata(&path).unwrap().len())
        };
        for s in 2..102 {
            session_cycle(&d, &mut layer, s);
        }
        let (k100, _, bytes100) = newest(&d);
        for s in 102..1002 {
            session_cycle(&d, &mut layer, s);
        }
        let (k1000, snap, bytes1000) = newest(&d);
        assert!(k1000 > k100, "checkpoints kept coming");
        // The stayer, plus the cycling session the rotation caught open.
        let sessions = &snap.meta.sessions;
        assert!(
            sessions.contains_key(&1) && sessions.len() <= 2,
            "{sessions:?}"
        );
        assert!(sessions.values().all(|s| s.open), "only open sessions");
        assert_eq!(snap.meta.next_session, 1002);
        // Counters in the placement state may gain a digit; nothing else
        // may grow with the 900 extra cycles.
        assert!(
            bytes1000 <= bytes100 + 64,
            "snapshot grew from {bytes100} to {bytes1000} bytes"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keep_all_retains_full_history_for_the_genesis_log() {
        let dir = tmpdir("keepall");
        let mut layer =
            PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let mut options = DurabilityOptions::new(&dir);
        options.snapshot_every = 2;
        options.keep_all = true;
        let d = Durability::start(options, 0, 0, &layer.snapshot(), DurableMeta::default())
            .expect("start");
        for i in 0..5u64 {
            let events = vec![crate::arbiter::Event::SessionOpened { session: i + 1 }];
            let routed = layer.feed(i * 10, &events);
            d.append_batch(
                &crate::placement::PlacementBatch {
                    at: i * 10,
                    events,
                    routed,
                },
                || layer.snapshot(),
            );
        }
        d.freeze();
        let (segs, snaps) = count(&dir);
        assert_eq!((segs, snaps), (3, 3), "nothing compacted");
        let log = full_log(&dir).expect("full log");
        assert_eq!(log.batches.len(), 5);
        crate::placement::replay::verify(&log).expect("full history verifies from genesis");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frozen_durability_drops_appends() {
        let dir = tmpdir("frozen");
        let layer = PlacementLayer::new(vec![DeviceConfig::tiny(8)], PlacementConfig::default());
        let d = Durability::start(
            DurabilityOptions::new(&dir),
            0,
            0,
            &layer.snapshot(),
            DurableMeta::default(),
        )
        .expect("start");
        d.freeze();
        d.freeze(); // idempotent
        d.append_meta(&WalRecord::SessionMeta {
            session: 9,
            user: "late".into(),
            slo: Default::default(),
        });
        assert!(
            d.meta().sessions.is_empty(),
            "append after freeze is a no-op"
        );
        let rec = recover_dir(&dir).expect("recover");
        assert!(rec.meta.sessions.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
