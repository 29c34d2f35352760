//! Per-task simulator state: the execution record both simulators share
//! ([`TaskExec`]) and `ClusterSim`'s own task record around it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use cbp_checkpoint::TaskMemory;
use cbp_cluster::ContainerId;
use cbp_simkit::{SimDuration, SimTime};
use cbp_workload::{Priority, TaskSpec};

/// A map keyed by task handle. The handles are dense small integers that
/// no input controls, so SipHash's flood resistance buys nothing here,
/// while its cost showed in the scheduling pass, which probes the
/// reservation map for every key it visits.
pub(crate) type TaskMap<V> = HashMap<u32, V, BuildHasherDefault<HandleHasher>>;

/// A multiplicative (Fx-style) hash of a task handle.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct HandleHasher(u64);

impl HandleHasher {
    const K: u64 = 0x517c_c1b7_2722_0a95;

    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(Self::K);
    }
}

impl Hasher for HandleHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
}

/// Where a task is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskStatus {
    /// Waiting in the scheduler queue.
    Pending,
    /// Executing in a container.
    Running {
        /// Node index.
        node: u32,
        /// The container.
        container: ContainerId,
    },
    /// Stopped; its state is being dumped to storage. Resources are still
    /// held (they are released only when the dump completes — §5.2.1 step 4).
    Dumping {
        /// Node index.
        node: u32,
        /// The container being drained.
        container: ContainerId,
    },
    /// Suspended with an image on storage, waiting to be rescheduled.
    Checkpointed {
        /// Node whose device holds the image (restore origin).
        origin: u32,
    },
    /// Allocated on a node, reading its image back before resuming.
    Restoring {
        /// Node index.
        node: u32,
        /// The new container.
        container: ContainerId,
    },
    /// Completed.
    Finished,
}

/// The execution record both simulators keep for one task: where it is in
/// its lifecycle and what it has done, saved and dirtied. `ClusterSim`'s
/// task state and the YARN analog's AM task record embed it.
///
/// The methods here read and update the bookkeeping; status writes stay
/// with each simulator, so `ClusterSim` can keep its victim sums in step
/// with every one.
#[derive(Debug)]
pub struct TaskExec {
    /// The immutable description.
    pub spec: TaskSpec,
    /// Lifecycle position.
    pub status: TaskStatus,
    /// Invalidates stale in-flight events after a preemption.
    pub epoch: u32,
    /// Useful work accumulated (capped at `spec.duration`).
    pub progress: SimDuration,
    /// Progress safely captured in the newest checkpoint image (what a kill
    /// reverts to).
    pub checkpointed_progress: SimDuration,
    /// When the current execution interval started (valid while `Running`;
    /// in the future while a fresh container pays its startup cost).
    pub run_started: SimTime,
    /// When memory writes were last folded into the dirty bitmap.
    pub mem_synced: SimTime,
    /// Lazily created memory image (only checkpointing needs it).
    pub memory: Option<TaskMemory>,
}

impl TaskExec {
    /// A pending task that has done nothing yet.
    pub fn new(spec: TaskSpec) -> Self {
        TaskExec {
            spec,
            status: TaskStatus::Pending,
            epoch: 0,
            progress: SimDuration::ZERO,
            checkpointed_progress: SimDuration::ZERO,
            run_started: SimTime::ZERO,
            mem_synced: SimTime::ZERO,
            memory: None,
        }
    }

    /// Work still to do.
    pub fn remaining(&self) -> SimDuration {
        self.spec.duration.saturating_sub(self.progress)
    }

    /// True while the task executes in a container: the only state a
    /// preemption can take it from.
    pub(crate) fn is_preemptible(&self) -> bool {
        matches!(self.status, TaskStatus::Running { .. })
    }

    /// Folds the running interval `[run_started, now]` into `progress`.
    /// Call before any transition out of `Running`. A task stopped while
    /// still paying its container startup (`run_started` in the future)
    /// has made no progress. `ClusterSim` starts every interval at the
    /// current time, so for it this is the plain `now - run_started`.
    pub fn sync_progress(&mut self, now: SimTime) {
        if self.is_preemptible() {
            self.progress =
                (self.progress + now.saturating_since(self.run_started)).min(self.spec.duration);
            self.run_started = now.max(self.run_started);
        }
    }

    /// Progress that would be lost if the task were killed right now: work
    /// done since the last checkpoint (all of it, if never checkpointed).
    pub fn progress_at_risk(&self) -> SimDuration {
        self.progress.saturating_sub(self.checkpointed_progress)
    }

    /// Lazily creates the memory image, folds in writes for the running
    /// interval since the last sync and returns the image.
    pub fn sync_memory(&mut self, now: SimTime) -> &mut TaskMemory {
        let running = self.is_preemptible();
        let mem = self
            .memory
            .get_or_insert_with(|| TaskMemory::new(self.spec.resources.mem()));
        if running {
            let elapsed = now.saturating_since(self.mem_synced);
            let frac = self.spec.dirty_rate_per_sec * elapsed.as_secs_f64();
            if frac > 0.0 {
                mem.touch_fraction(frac.min(1.0));
            }
        }
        self.mem_synced = now;
        mem
    }

    /// Core-seconds the task would lose with its checkpoint chain, or
    /// `None` while a dump or restore owns the chain.
    pub fn chain_loss(&self) -> Option<f64> {
        match self.status {
            TaskStatus::Dumping { .. } | TaskStatus::Restoring { .. } => None,
            _ => Some(self.checkpointed_progress.as_secs_f64() * self.spec.resources.cores_f64()),
        }
    }

    /// Rolls the task back after a kill, a failed drain or an eviction:
    /// in-flight events go stale and progress reverts to the newest
    /// checkpoint. With an image (`has_image`) nothing is dirty relative
    /// to it, since writes made since the dump are lost; without one the
    /// next dump is full.
    pub fn roll_back(&mut self, has_image: bool) {
        self.epoch += 1;
        self.progress = self.checkpointed_progress;
        if let Some(mem) = self.memory.as_mut() {
            if has_image {
                mem.clear_dirty();
            } else {
                mem.mark_all_dirty();
            }
        }
    }

    /// Commits a finished dump: the new image certifies the current
    /// progress. Returns that progress in µs, the stamp of the image.
    pub fn commit_checkpoint(&mut self) -> u64 {
        self.checkpointed_progress = self.progress;
        self.checkpointed_progress.as_micros()
    }

    /// Starts the task running at `at` from its restored state (or, for
    /// an in-place scratch restart, from zero): the running interval and
    /// the memory sync start there, and nothing is dirty relative to the
    /// image. Returns when the task will finish.
    pub fn resume(&mut self, at: SimTime) -> SimTime {
        self.run_started = at;
        self.mem_synced = at;
        if let Some(mem) = self.memory.as_mut() {
            mem.clear_dirty();
        }
        at + self.remaining()
    }

    /// Rolls progress back to what a truncated chain's surviving tip
    /// certifies (`stamp`, in µs).
    pub fn truncate_to(&mut self, stamp: u64) {
        self.checkpointed_progress = SimDuration::from_micros(stamp);
        self.progress = self.checkpointed_progress;
    }

    /// Degrades the task after its chain was dropped: nothing is saved any
    /// more, so the next dump is full.
    pub fn lose_chain(&mut self) {
        self.checkpointed_progress = SimDuration::ZERO;
        if let Some(mem) = self.memory.as_mut() {
            mem.mark_all_dirty();
        }
    }
}

/// A simulator's task records, reached by the keys its trace records
/// carry (the checkpoint path's start of a dump reads the victim and, on
/// the lifecycle ladder, every chain owner through it).
pub trait TaskTable {
    /// The execution record of task `key`.
    fn exec(&mut self, key: u64) -> &mut TaskExec;
}

impl TaskTable for Vec<TaskState> {
    fn exec(&mut self, key: u64) -> &mut TaskExec {
        &mut self[key as usize].exec
    }
}

/// `ClusterSim`'s record of one task.
#[derive(Debug)]
pub(crate) struct TaskState {
    /// Progress, checkpoint and memory bookkeeping.
    pub exec: TaskExec,
    /// Inherited job priority.
    pub priority: Priority,
    /// Index of the owning job in the workload.
    pub job_idx: u32,
    /// Original submission time.
    pub submit: SimTime,
    /// The task's first pending-queue sequence number. Re-queued
    /// (preempted) tasks keep it, so they resume ahead of later arrivals of
    /// the same priority instead of parking their checkpoint images behind
    /// a long fresh-task backlog.
    pub queue_seq: Option<u32>,
    /// When the task finished.
    pub finished_at: Option<SimTime>,
}

impl TaskState {
    /// Creates the initial (pending) state.
    pub fn new(spec: TaskSpec, priority: Priority, job_idx: u32, submit: SimTime) -> Self {
        TaskState {
            exec: TaskExec::new(spec),
            priority,
            job_idx,
            submit,
            queue_seq: None,
            finished_at: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_cluster::Resources;
    use cbp_simkit::units::ByteSize;
    use cbp_workload::{JobId, TaskId};

    fn exec() -> TaskExec {
        TaskExec::new(TaskSpec {
            id: TaskId {
                job: JobId(0),
                index: 0,
            },
            resources: Resources::new_cores(1, ByteSize::from_gb(1)),
            duration: SimDuration::from_secs(100),
            dirty_rate_per_sec: 0.01,
        })
    }

    fn running() -> TaskStatus {
        TaskStatus::Running {
            node: 0,
            container: ContainerId(1),
        }
    }

    #[test]
    fn progress_sync_and_remaining() {
        let mut t = exec();
        t.status = running();
        t.run_started = SimTime::from_secs(10);
        t.sync_progress(SimTime::from_secs(40));
        assert_eq!(t.progress, SimDuration::from_secs(30));
        assert_eq!(t.remaining(), SimDuration::from_secs(70));
        // Progress never exceeds the duration.
        t.sync_progress(SimTime::from_secs(500));
        assert_eq!(t.progress, SimDuration::from_secs(100));
        assert_eq!(t.remaining(), SimDuration::ZERO);
    }

    #[test]
    fn progress_during_container_startup_is_zero() {
        let mut t = exec();
        t.status = running();
        // The container starts executing at 30 s.
        t.run_started = SimTime::from_secs(30);
        t.sync_progress(SimTime::from_secs(20));
        assert_eq!(t.progress, SimDuration::ZERO);
        assert_eq!(t.run_started, SimTime::from_secs(30), "the start stays put");
        t.sync_progress(SimTime::from_secs(70));
        assert_eq!(t.progress, SimDuration::from_secs(40));
        assert_eq!(t.run_started, SimTime::from_secs(70));
    }

    #[test]
    fn progress_at_risk_accounts_for_checkpoints() {
        let mut t = exec();
        t.progress = SimDuration::from_secs(50);
        assert_eq!(t.progress_at_risk(), SimDuration::from_secs(50));
        t.checkpointed_progress = SimDuration::from_secs(30);
        assert_eq!(t.progress_at_risk(), SimDuration::from_secs(20));
    }

    #[test]
    fn running_progress_and_risk_after_a_checkpoint() {
        let mut t = exec();
        t.status = running();
        t.sync_progress(SimTime::from_secs(40));
        assert_eq!(t.progress, SimDuration::from_secs(40));
        t.checkpointed_progress = SimDuration::from_secs(25);
        assert_eq!(t.progress_at_risk(), SimDuration::from_secs(15));
        assert_eq!(t.remaining(), SimDuration::from_secs(60));
    }

    #[test]
    fn memory_sync_applies_dirty_rate() {
        let mut t = exec();
        t.status = running();
        t.sync_memory(SimTime::ZERO).clear_dirty();
        // 10 s at 1%/s -> ~10% dirty.
        let frac = t.sync_memory(SimTime::from_secs(10)).dirty_fraction();
        assert!((frac - 0.1).abs() < 0.01, "dirty fraction {frac}");
        assert_eq!(t.mem_synced, SimTime::from_secs(10));
    }

    #[test]
    fn pending_task_does_not_accumulate() {
        let mut t = exec();
        t.sync_progress(SimTime::from_secs(100));
        assert_eq!(t.progress, SimDuration::ZERO);
        assert!(!t.is_preemptible());
        t.status = running();
        assert!(t.is_preemptible());
        t.status = TaskStatus::Dumping {
            node: 0,
            container: ContainerId(1),
        };
        assert!(!t.is_preemptible());
    }

    #[test]
    fn chain_loss_is_withheld_while_a_transfer_owns_the_chain() {
        let mut t = exec();
        t.checkpointed_progress = SimDuration::from_secs(30);
        assert_eq!(t.chain_loss(), Some(30.0));
        t.status = TaskStatus::Dumping {
            node: 0,
            container: ContainerId(1),
        };
        assert_eq!(t.chain_loss(), None);
        t.status = TaskStatus::Restoring {
            node: 0,
            container: ContainerId(1),
        };
        assert_eq!(t.chain_loss(), None);
        t.status = TaskStatus::Checkpointed { origin: 0 };
        assert_eq!(t.chain_loss(), Some(30.0));
    }

    #[test]
    fn transitions_move_progress_and_dirty_state() {
        let mut t = exec();
        t.status = running();
        t.sync_progress(SimTime::from_secs(40));
        t.sync_memory(SimTime::from_secs(40));
        assert_eq!(t.commit_checkpoint(), 40_000_000);
        assert_eq!(t.checkpointed_progress, SimDuration::from_secs(40));

        // A kill with an image reverts to it, nothing dirty.
        t.sync_progress(SimTime::from_secs(60));
        t.roll_back(true);
        assert_eq!((t.epoch, t.progress), (1, SimDuration::from_secs(40)));
        assert_eq!(t.memory.as_ref().map(|m| m.dirty_fraction()), Some(0.0));

        // Without one the next dump is full.
        t.roll_back(false);
        assert_eq!(t.epoch, 2);
        assert_eq!(t.memory.as_ref().map(|m| m.dirty_fraction()), Some(1.0));

        t.truncate_to(15_000_000);
        assert_eq!(t.checkpointed_progress, SimDuration::from_secs(15));
        assert_eq!(t.progress, SimDuration::from_secs(15));

        t.sync_memory(SimTime::from_secs(60)).clear_dirty();
        t.lose_chain();
        assert_eq!(t.checkpointed_progress, SimDuration::ZERO);
        assert_eq!(t.progress, SimDuration::from_secs(15), "progress is kept");
        assert_eq!(t.memory.as_ref().map(|m| m.dirty_fraction()), Some(1.0));
    }
}
