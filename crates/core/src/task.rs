//! Per-task simulator state.

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

/// The simulator's record of one task.
#[derive(Debug)]
pub struct TaskState {
    /// The immutable description.
    pub spec: TaskSpec,
    /// Inherited job priority.
    pub priority: Priority,
    /// Index of the owning job in the workload.
    pub job_idx: u32,
    /// Original submission time.
    pub submit: SimTime,
    /// Lifecycle position.
    pub status: TaskStatus,
    /// Invalidates stale `TaskFinish` events after a preemption.
    pub epoch: u32,
    /// Useful work accumulated (capped at `spec.duration`).
    pub progress: SimDuration,
    /// Progress safely captured in the newest checkpoint image (what a kill
    /// reverts to).
    pub checkpointed_progress: SimDuration,
    /// When the current execution interval started (valid while `Running`).
    pub run_started: SimTime,
    /// When memory writes were last folded into the dirty bitmap.
    pub mem_synced: SimTime,
    /// Times this task was preempted (killed or suspended).
    pub preemptions: u32,
    /// The task's first pending-queue sequence number. Re-queued
    /// (preempted) tasks keep it, so they resume ahead of later arrivals of
    /// the same priority instead of parking their checkpoint images behind
    /// a long fresh-task backlog.
    pub queue_seq: Option<u32>,
    /// Lazily created memory image (only checkpointing policies need it).
    pub memory: Option<TaskMemory>,
    /// When the task finished.
    pub finished_at: Option<SimTime>,
}

impl TaskState {
    /// Creates the initial (pending) state.
    pub fn new(spec: TaskSpec, priority: Priority, job_idx: u32, submit: SimTime) -> Self {
        TaskState {
            spec,
            priority,
            job_idx,
            submit,
            status: TaskStatus::Pending,
            epoch: 0,
            progress: SimDuration::ZERO,
            checkpointed_progress: SimDuration::ZERO,
            run_started: SimTime::ZERO,
            mem_synced: SimTime::ZERO,
            preemptions: 0,
            queue_seq: None,
            memory: None,
            finished_at: None,
        }
    }

    /// Work still to do.
    pub fn remaining(&self) -> SimDuration {
        self.spec.duration.saturating_sub(self.progress)
    }

    /// Folds the running interval `[run_started, now]` into `progress`.
    /// Call before any transition out of `Running`.
    pub fn sync_progress(&mut self, now: SimTime) {
        if matches!(self.status, TaskStatus::Running { .. }) {
            self.progress = (self.progress + now.since(self.run_started)).min(self.spec.duration);
            self.run_started = now;
        }
    }

    /// Progress that would be lost if the task were killed right now: work
    /// done since the last checkpoint (all of it, if never checkpointed).
    pub fn progress_at_risk(&self) -> SimDuration {
        self.progress.saturating_sub(self.checkpointed_progress)
    }

    /// Lazily creates the memory image and folds in writes for the running
    /// interval since the last sync.
    pub fn sync_memory(&mut self, now: SimTime) {
        let mem = self
            .memory
            .get_or_insert_with(|| TaskMemory::new(self.spec.resources.mem()));
        if matches!(self.status, TaskStatus::Running { .. }) {
            let elapsed = now.saturating_since(self.mem_synced);
            let frac = self.spec.dirty_rate_per_sec * elapsed.as_secs_f64();
            if frac > 0.0 {
                mem.touch_fraction(frac.min(1.0));
            }
        }
        self.mem_synced = now;
    }

    /// True if the task can be selected as a preemption victim.
    pub fn is_preemptible(&self) -> bool {
        matches!(self.status, TaskStatus::Running { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_cluster::Resources;
    use cbp_simkit::units::ByteSize;
    use cbp_workload::{JobId, TaskId};

    fn state() -> TaskState {
        let spec = TaskSpec {
            id: TaskId {
                job: JobId(0),
                index: 0,
            },
            resources: Resources::new_cores(1, ByteSize::from_gb(1)),
            duration: SimDuration::from_secs(100),
            dirty_rate_per_sec: 0.01,
        };
        TaskState::new(spec, Priority::new(0), 0, SimTime::ZERO)
    }

    #[test]
    fn progress_sync_and_remaining() {
        let mut t = state();
        t.status = TaskStatus::Running {
            node: 0,
            container: ContainerId(1),
        };
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
    fn progress_at_risk_accounts_for_checkpoints() {
        let mut t = state();
        t.progress = SimDuration::from_secs(50);
        assert_eq!(t.progress_at_risk(), SimDuration::from_secs(50));
        t.checkpointed_progress = SimDuration::from_secs(30);
        assert_eq!(t.progress_at_risk(), SimDuration::from_secs(20));
    }

    #[test]
    fn memory_sync_applies_dirty_rate() {
        let mut t = state();
        t.status = TaskStatus::Running {
            node: 0,
            container: ContainerId(1),
        };
        t.sync_memory(SimTime::ZERO);
        t.memory.as_mut().unwrap().clear_dirty();
        // 10 s at 1%/s -> ~10% dirty.
        t.sync_memory(SimTime::from_secs(10));
        let frac = t.memory.as_ref().unwrap().dirty_fraction();
        assert!((frac - 0.1).abs() < 0.01, "dirty fraction {frac}");
    }

    #[test]
    fn pending_task_does_not_accumulate() {
        let mut t = state();
        t.sync_progress(SimTime::from_secs(100));
        assert_eq!(t.progress, SimDuration::ZERO);
        assert!(!t.is_preemptible());
        t.status = TaskStatus::Running {
            node: 0,
            container: ContainerId(1),
        };
        assert!(t.is_preemptible());
        t.status = TaskStatus::Dumping {
            node: 0,
            container: ContainerId(1),
        };
        assert!(!t.is_preemptible());
    }
}
