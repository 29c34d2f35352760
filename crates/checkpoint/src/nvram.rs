//! NVM as persistent *memory* (NVRAM) checkpointing — the paper's §3.2.3
//! alternative to file-system checkpoints, flagged as future work in §7.
//!
//! Instead of serializing the address space into image files, checkpoint
//! data is copied DRAM→NVM with plain memory operations, exploiting
//! byte-addressability:
//!
//! * **No serialization, no files, no chains** — the NVM region is a flat
//!   mirror of the address space, so a suspend copies only bytes the mirror
//!   does not already have, and a restore never replays a chain.
//! * **Shadow buffering** — while the task runs, dirty pages are trickled
//!   to NVM in the background (at a small execution-slowdown cost), so the
//!   stop-the-world copy at suspend time shrinks to whatever the trickle
//!   has not caught up with.
//! * **Lazy resumption** — on resume, pages can be mapped from NVM and
//!   copied back on first write, paying only a small upfront cost.
//!
//! [`NvramCheckpointer`] models all three against a [`TaskMemory`]'s real
//! dirty bitmap.

use cbp_simkit::units::{Bandwidth, ByteSize};
use cbp_simkit::{HandleMap, SimDuration};

use crate::memory::TaskMemory;

/// NVRAM device + mechanism parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvramSpec {
    /// DRAM→NVM copy bandwidth (store path; PCM-class NVM writes are slower
    /// than reads).
    pub copy_bw: Bandwidth,
    /// NVM→DRAM copy bandwidth (load path).
    pub restore_bw: Bandwidth,
    /// Enable background shadow buffering while the task runs.
    pub shadow_buffering: bool,
    /// Fraction of the task's dirty production the trickle can absorb while
    /// it runs (1.0 = the shadow always keeps up; 0.0 = pure stop-and-copy).
    pub shadow_coverage: f64,
    /// Execution slowdown imposed by write-through shadowing (e.g. `0.03`
    /// = 3% slower while shadowing is armed).
    pub shadow_slowdown: f64,
    /// Fraction of the footprint that must be copied back *before* resuming
    /// under lazy restore (page tables + hot set); the rest faults in
    /// on demand.
    pub lazy_restore_fraction: f64,
    /// Per-node NVRAM capacity available for checkpoint mirrors.
    pub capacity: ByteSize,
}

impl Default for NvramSpec {
    fn default() -> Self {
        NvramSpec {
            // Raw memcpy into NVM: well above the PMFS *file-system* path
            // (1.75 GB/s effective) because there is no FS or serialization.
            copy_bw: Bandwidth::from_gb_per_sec_f64(5.0),
            restore_bw: Bandwidth::from_gb_per_sec_f64(8.0),
            shadow_buffering: true,
            shadow_coverage: 0.8,
            shadow_slowdown: 0.03,
            lazy_restore_fraction: 0.05,
            capacity: ByteSize::from_gb(48),
        }
    }
}

/// The outcome of an NVRAM suspend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvramSuspend {
    /// Stop-the-world copy time.
    pub duration: SimDuration,
    /// Bytes copied at suspend time (after shadow credit).
    pub copied: ByteSize,
    /// Bytes the shadow trickle had already persisted.
    pub shadow_absorbed: ByteSize,
}

/// The outcome of an NVRAM resume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NvramResume {
    /// Time before the task runs again.
    pub duration: SimDuration,
    /// Bytes copied up front.
    pub copied_upfront: ByteSize,
    /// Bytes left to fault in lazily (charged to later execution, not to
    /// the resume latency).
    pub lazy_bytes: ByteSize,
}

#[derive(Debug, Clone, Copy)]
struct Mirror {
    footprint: ByteSize,
    valid: bool,
}

/// Errors from the NVRAM checkpointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvramError {
    /// The mirror would not fit in the node's NVRAM.
    CapacityExceeded {
        /// Bytes requested.
        requested: ByteSize,
        /// Bytes free.
        available: ByteSize,
    },
}

impl std::fmt::Display for NvramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NvramError::CapacityExceeded {
                requested,
                available,
            } => write!(
                f,
                "NVRAM mirror of {requested} exceeds available {available}"
            ),
        }
    }
}

impl std::error::Error for NvramError {}

/// Per-node NVRAM checkpoint engine.
///
/// ```
/// use cbp_checkpoint::{NvramCheckpointer, NvramSpec, TaskMemory};
/// use cbp_simkit::units::ByteSize;
///
/// let mut nvram = NvramCheckpointer::new(NvramSpec::default());
/// let mut mem = TaskMemory::new(ByteSize::from_gb(5));
/// let s = nvram.suspend(1, &mut mem)?;      // first suspend mirrors 5 GB
/// assert_eq!(s.copied + s.shadow_absorbed, ByteSize::from_gb(5));
/// let r = nvram.resume(1, true);            // lazy resume
/// assert!(r.duration < s.duration);
/// # Ok::<(), cbp_checkpoint::NvramError>(())
/// ```
#[derive(Debug)]
pub struct NvramCheckpointer {
    spec: NvramSpec,
    mirrors: HandleMap<u64, Mirror>,
    used: ByteSize,
}

impl NvramCheckpointer {
    /// Creates an engine for one node's NVRAM.
    pub fn new(spec: NvramSpec) -> Self {
        NvramCheckpointer {
            spec,
            mirrors: HandleMap::default(),
            used: ByteSize::ZERO,
        }
    }

    /// The engine's parameters.
    pub fn spec(&self) -> &NvramSpec {
        &self.spec
    }

    /// Bytes of NVRAM currently holding mirrors.
    pub fn used(&self) -> ByteSize {
        self.used
    }

    /// True if `task` has a valid mirror to resume from.
    pub fn has_mirror(&self, task: u64) -> bool {
        self.mirrors.get(&task).is_some_and(|m| m.valid)
    }

    /// Execution-time multiplier while the task runs with shadowing armed
    /// (1.0 when shadow buffering is disabled).
    pub fn execution_slowdown(&self) -> f64 {
        if self.spec.shadow_buffering {
            1.0 + self.spec.shadow_slowdown
        } else {
            1.0
        }
    }

    /// Bytes a suspend would copy right now (for Algorithm 1 estimates).
    pub fn pending_copy_bytes(&self, task: u64, mem: &TaskMemory) -> ByteSize {
        let dirty = if self.has_mirror(task) {
            mem.dirty_bytes()
        } else {
            mem.size()
        };
        if self.spec.shadow_buffering && self.has_mirror(task) {
            dirty.mul_f64(1.0 - self.spec.shadow_coverage.clamp(0.0, 1.0))
        } else {
            dirty
        }
    }

    /// The suspend-time estimate (the Algorithm 1 `size/bw` term, NVRAM
    /// edition — symmetric restore assumed eager).
    pub fn estimate_total(&self, task: u64, mem: &TaskMemory) -> SimDuration {
        let copy = self
            .spec
            .copy_bw
            .transfer_time(self.pending_copy_bytes(task, mem));
        let restore = self
            .spec
            .restore_bw
            .transfer_time(self.mirror_size(task).max(mem.size()));
        copy + restore
    }

    fn mirror_size(&self, task: u64) -> ByteSize {
        self.mirrors
            .get(&task)
            .map(|m| m.footprint)
            .unwrap_or(ByteSize::ZERO)
    }

    /// Suspends `task`: copies whatever the mirror is missing and marks the
    /// mirror valid. Clears the task's dirty tracking.
    ///
    /// # Errors
    ///
    /// [`NvramError::CapacityExceeded`] if a new mirror would not fit; the
    /// state is unchanged.
    pub fn suspend(&mut self, task: u64, mem: &mut TaskMemory) -> Result<NvramSuspend, NvramError> {
        let had_mirror = self.has_mirror(task);
        if !self.mirrors.contains_key(&task) {
            let available = self.spec.capacity.saturating_sub(self.used);
            if mem.size() > available {
                return Err(NvramError::CapacityExceeded {
                    requested: mem.size(),
                    available,
                });
            }
            self.used += mem.size();
            self.mirrors.insert(
                task,
                Mirror {
                    footprint: mem.size(),
                    valid: false,
                },
            );
        }

        let dirty = if had_mirror {
            mem.dirty_bytes()
        } else {
            mem.size()
        };
        let shadow_absorbed = if self.spec.shadow_buffering && had_mirror {
            dirty.mul_f64(self.spec.shadow_coverage.clamp(0.0, 1.0))
        } else {
            ByteSize::ZERO
        };
        let copied = dirty.saturating_sub(shadow_absorbed);
        let duration = self.spec.copy_bw.transfer_time(copied);

        self.mirrors
            .get_mut(&task)
            .expect("mirror inserted above")
            .valid = true;
        mem.clear_dirty();
        Ok(NvramSuspend {
            duration,
            copied,
            shadow_absorbed,
        })
    }

    /// Resumes `task` from its mirror. With `lazy`, only
    /// [`NvramSpec::lazy_restore_fraction`] of the footprint is copied
    /// before execution continues.
    ///
    /// # Panics
    ///
    /// Panics if the task has no valid mirror (check
    /// [`NvramCheckpointer::has_mirror`]).
    pub fn resume(&mut self, task: u64, lazy: bool) -> NvramResume {
        let mirror = self
            .mirrors
            .get(&task)
            .filter(|m| m.valid)
            .copied()
            .expect("resume requires a valid mirror");
        let (upfront, lazy_bytes) = if lazy {
            let up = mirror
                .footprint
                .mul_f64(self.spec.lazy_restore_fraction.clamp(0.0, 1.0));
            (up, mirror.footprint.saturating_sub(up))
        } else {
            (mirror.footprint, ByteSize::ZERO)
        };
        NvramResume {
            duration: self.spec.restore_bw.transfer_time(upfront),
            copied_upfront: upfront,
            lazy_bytes,
        }
    }

    /// Drops `task`'s mirror, freeing its NVRAM.
    pub fn discard(&mut self, task: u64) -> ByteSize {
        match self.mirrors.remove(&task) {
            Some(m) => {
                self.used = self.used.saturating_sub(m.footprint);
                m.footprint
            }
            None => ByteSize::ZERO,
        }
    }
}

/// A point-in-time comparison of the two NVM checkpoint paths for the same
/// task state: the PMFS file-system route vs the NVRAM memory route.
///
/// Used by the extension experiment; see `repro ablate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NvmPathComparison {
    /// PMFS file-system dump time.
    pub pmfs_dump: SimDuration,
    /// NVRAM suspend copy time.
    pub nvram_suspend: SimDuration,
    /// PMFS restore (read) time.
    pub pmfs_restore: SimDuration,
    /// NVRAM eager resume time.
    pub nvram_resume_eager: SimDuration,
    /// NVRAM lazy resume time.
    pub nvram_resume_lazy: SimDuration,
}

impl NvmPathComparison {
    /// Computes the comparison for a footprint with `dirty_fraction` of its
    /// pages modified since the last checkpoint.
    pub fn compute(
        footprint: ByteSize,
        dirty_fraction: f64,
        pmfs_write: Bandwidth,
        pmfs_read: Bandwidth,
        nvram: &NvramSpec,
    ) -> Self {
        let dirty = footprint.mul_f64(dirty_fraction.clamp(0.0, 1.0));
        let shadow_credit = if nvram.shadow_buffering {
            nvram.shadow_coverage.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let nvram_copy = dirty.mul_f64(1.0 - shadow_credit);
        NvmPathComparison {
            pmfs_dump: pmfs_write.transfer_time(dirty),
            nvram_suspend: nvram.copy_bw.transfer_time(nvram_copy),
            pmfs_restore: pmfs_read.transfer_time(footprint),
            nvram_resume_eager: nvram.restore_bw.transfer_time(footprint),
            nvram_resume_lazy: nvram
                .restore_bw
                .transfer_time(footprint.mul_f64(nvram.lazy_restore_fraction)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn five_gb() -> TaskMemory {
        TaskMemory::new(ByteSize::from_gb(5))
    }

    #[test]
    fn first_suspend_mirrors_whole_footprint() {
        let mut nvram = NvramCheckpointer::new(NvramSpec::default());
        let mut mem = five_gb();
        let s = nvram.suspend(1, &mut mem).unwrap();
        assert_eq!(s.copied, ByteSize::from_gb(5));
        assert_eq!(s.shadow_absorbed, ByteSize::ZERO);
        // 5 GB at 5 GB/s = 1 s — already far below the 2.92 s PMFS path.
        assert!((s.duration.as_secs_f64() - 1.0).abs() < 0.01);
        assert!(nvram.has_mirror(1));
        assert_eq!(nvram.used(), ByteSize::from_gb(5));
        assert_eq!(mem.dirty_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn shadow_buffering_shrinks_second_suspend() {
        let spec = NvramSpec {
            shadow_coverage: 0.8,
            ..NvramSpec::default()
        };
        let mut nvram = NvramCheckpointer::new(spec);
        let mut mem = five_gb();
        nvram.suspend(1, &mut mem).unwrap();
        mem.touch_fraction(0.10); // 500 MB dirty
        let s = nvram.suspend(1, &mut mem).unwrap();
        assert_eq!(s.shadow_absorbed, ByteSize::from_mb(400));
        assert_eq!(s.copied, ByteSize::from_mb(100));
        assert!(s.duration < SimDuration::from_millis(25));
    }

    #[test]
    fn no_shadow_means_full_dirty_copy() {
        let spec = NvramSpec {
            shadow_buffering: false,
            ..NvramSpec::default()
        };
        let mut nvram = NvramCheckpointer::new(spec);
        let mut mem = five_gb();
        nvram.suspend(1, &mut mem).unwrap();
        mem.touch_fraction(0.10);
        let s = nvram.suspend(1, &mut mem).unwrap();
        assert_eq!(s.copied, ByteSize::from_mb(500));
        assert_eq!(s.shadow_absorbed, ByteSize::ZERO);
        assert_eq!(nvram.execution_slowdown(), 1.0);
    }

    #[test]
    fn lazy_resume_is_much_faster_than_eager() {
        let mut nvram = NvramCheckpointer::new(NvramSpec::default());
        let mut mem = five_gb();
        nvram.suspend(1, &mut mem).unwrap();
        let eager = nvram.resume(1, false);
        let lazy = nvram.resume(1, true);
        assert_eq!(eager.copied_upfront, ByteSize::from_gb(5));
        assert_eq!(eager.lazy_bytes, ByteSize::ZERO);
        assert_eq!(lazy.copied_upfront, ByteSize::from_mb(250));
        assert_eq!(lazy.lazy_bytes, ByteSize::from_mb(4750));
        assert!(lazy.duration.as_secs_f64() < eager.duration.as_secs_f64() / 10.0);
    }

    #[test]
    fn capacity_enforced_and_discard_frees() {
        let spec = NvramSpec {
            capacity: ByteSize::from_gb(6),
            ..NvramSpec::default()
        };
        let mut nvram = NvramCheckpointer::new(spec);
        let mut a = five_gb();
        nvram.suspend(1, &mut a).unwrap();
        let mut b = five_gb();
        let err = nvram.suspend(2, &mut b).unwrap_err();
        assert!(matches!(err, NvramError::CapacityExceeded { .. }));
        assert!(err.to_string().contains("exceeds"));
        assert_eq!(nvram.discard(1), ByteSize::from_gb(5));
        assert_eq!(nvram.used(), ByteSize::ZERO);
        nvram.suspend(2, &mut b).unwrap();
        assert!(nvram.has_mirror(2));
        assert_eq!(nvram.discard(99), ByteSize::ZERO);
    }

    #[test]
    fn estimate_matches_pending_bytes() {
        let mut nvram = NvramCheckpointer::new(NvramSpec::default());
        let mut mem = five_gb();
        assert_eq!(nvram.pending_copy_bytes(1, &mem), ByteSize::from_gb(5));
        nvram.suspend(1, &mut mem).unwrap();
        mem.touch_fraction(0.5);
        // 2.5 GB dirty, 80% shadow-absorbed -> 500 MB pending.
        assert_eq!(nvram.pending_copy_bytes(1, &mem), ByteSize::from_mb(500));
        assert!(nvram.estimate_total(1, &mem) > SimDuration::ZERO);
    }

    /// The headline of the NVRAM extension: both suspend and lazy resume
    /// beat the PMFS file-system path by an order of magnitude at 10% dirty.
    #[test]
    fn nvram_beats_pmfs_file_path() {
        let cmp = NvmPathComparison::compute(
            ByteSize::from_gb(5),
            0.10,
            Bandwidth::from_gb_per_sec_f64(1.75),
            Bandwidth::from_gb_per_sec_f64(3.5),
            &NvramSpec::default(),
        );
        assert!(cmp.nvram_suspend.as_secs_f64() * 10.0 < cmp.pmfs_dump.as_secs_f64());
        assert!(cmp.nvram_resume_lazy.as_secs_f64() * 10.0 < cmp.pmfs_restore.as_secs_f64());
        // Eager resume is the same order as PMFS reads (both move 5 GB).
        assert!(cmp.nvram_resume_eager < cmp.pmfs_restore);
    }

    #[test]
    #[should_panic(expected = "valid mirror")]
    fn resume_without_mirror_panics() {
        NvramCheckpointer::new(NvramSpec::default()).resume(1, false);
    }
}
