//! The k-means job model used by the sensitivity and YARN experiments.
//!
//! The paper's test program is MLPACK k-means: an iterative job that scans a
//! large read-mostly point set and rewrites a small working set (cluster
//! assignments + centroids) every iteration. Two properties matter:
//!
//! * the **memory footprint** (5 GB in §3.3.3 / §4.2.2, ≈1.8 GB per YARN
//!   container in §5.3), which sets full-checkpoint cost, and
//! * the **per-iteration dirty fraction** (≈10% between checkpoints,
//!   Table 3), which sets incremental-checkpoint cost.
//!
//! [`KMeansJob`] derives both from the algorithm's actual data layout
//! (points are `dims × f64`, assignments are `u32`) and exposes
//! [`KMeansJob::run_interval`] to replay the write pattern into a
//! [`TaskMemory`].

use cbp_checkpoint::TaskMemory;
use cbp_cluster::Resources;
use cbp_simkit::units::ByteSize;
use cbp_simkit::SimDuration;

use crate::spec::{TaskId, TaskSpec};

/// An iterative k-means task description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KMeansJob {
    /// Number of points.
    pub points: u64,
    /// Dimensions per point.
    pub dims: u32,
    /// Number of clusters.
    pub clusters: u32,
    /// Iterations until convergence.
    pub iterations: u32,
    /// Wall-clock time per iteration.
    pub iteration_time: SimDuration,
    /// CPU cores used while running.
    pub cores: u64,
}

impl KMeansJob {
    /// The §3.3.3 sensitivity-analysis job: ≈5 GB footprint, one-minute
    /// execution.
    pub fn sensitivity() -> Self {
        // 5 GB / (4 dims * 8 B + 4 B assignment) = ~139 M points.
        KMeansJob {
            points: 138_800_000,
            dims: 4,
            clusters: 16,
            iterations: 10,
            iteration_time: SimDuration::from_secs(6),
            cores: 1,
        }
    }

    /// The §5.3 YARN container task: ≈1.8 GB footprint, ≈10 minutes.
    ///
    /// The paper does not state the runtime; two of its observations pin it
    /// to many minutes: Fig. 9's response CDF extends to 30 minutes, and
    /// the Facebook study it reproduces has production jobs killing
    /// *mid-flight* low-priority tasks — the kill penalty the paper reports
    /// (≈28% of CPU time) only arises when the progress lost per kill is
    /// large relative to a checkpoint's cost.
    pub fn yarn_container() -> Self {
        KMeansJob {
            points: 50_000_000,
            dims: 4,
            clusters: 16,
            iterations: 100,
            iteration_time: SimDuration::from_secs(6),
            cores: 1,
        }
    }

    /// Bytes of point data (read-only after load).
    pub fn point_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.points * self.dims as u64 * 8)
    }

    /// Bytes of per-point cluster assignments (rewritten every iteration).
    pub fn assignment_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.points * 4)
    }

    /// Bytes of centroids (rewritten every iteration; tiny).
    pub fn centroid_bytes(&self) -> ByteSize {
        ByteSize::from_bytes(self.clusters as u64 * self.dims as u64 * 8)
    }

    /// Total memory footprint.
    pub fn footprint(&self) -> ByteSize {
        self.point_bytes() + self.assignment_bytes() + self.centroid_bytes()
    }

    /// Undisturbed execution time.
    pub fn duration(&self) -> SimDuration {
        self.iteration_time * self.iterations as u64
    }

    /// Fraction of the footprint rewritten per iteration (assignments +
    /// centroids over everything).
    pub fn dirty_fraction_per_iteration(&self) -> f64 {
        let dirty = self.assignment_bytes() + self.centroid_bytes();
        dirty.as_u64() as f64 / self.footprint().as_u64() as f64
    }

    /// Fraction of the footprint rewritten per second of execution.
    pub fn dirty_rate_per_sec(&self) -> f64 {
        self.dirty_fraction_per_iteration() / self.iteration_time.as_secs_f64()
    }

    /// A fresh [`TaskMemory`] sized for this job.
    pub fn memory(&self) -> TaskMemory {
        TaskMemory::new(self.footprint())
    }

    /// Replays `elapsed` of execution into `mem`: every completed iteration
    /// rewrites the assignment array and the centroids (the point data is
    /// only read). Partial iterations dirty a proportional prefix.
    pub fn run_interval(&self, mem: &mut TaskMemory, elapsed: SimDuration) {
        let iters = elapsed.as_secs_f64() / self.iteration_time.as_secs_f64();
        if iters <= 0.0 {
            return;
        }
        let assignments_start = self.point_bytes();
        let whole = iters.floor() as u32;
        if whole >= 1 {
            // One or more full iterations: the whole working set is dirty.
            mem.touch_range(
                assignments_start,
                self.assignment_bytes() + self.centroid_bytes(),
            );
        } else {
            let frac = iters.fract();
            mem.touch_range(assignments_start, self.assignment_bytes().mul_f64(frac));
            mem.touch_range(
                assignments_start + self.assignment_bytes(),
                self.centroid_bytes(),
            );
        }
    }

    /// A [`TaskSpec`] for scheduling this job as a single task.
    pub fn task_spec(&self, id: TaskId) -> TaskSpec {
        TaskSpec {
            id,
            resources: Resources::new_cores(self.cores, self.footprint()),
            duration: self.duration(),
            dirty_rate_per_sec: self.dirty_rate_per_sec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobId;

    #[test]
    fn sensitivity_job_is_about_5_gb_and_one_minute() {
        let job = KMeansJob::sensitivity();
        let gb = job.footprint().as_gb_f64();
        assert!((4.9..=5.1).contains(&gb), "footprint {gb:.2} GB");
        assert_eq!(job.duration(), SimDuration::from_secs(60));
    }

    #[test]
    fn yarn_task_is_about_1_8_gb() {
        let job = KMeansJob::yarn_container();
        let gb = job.footprint().as_gb_f64();
        assert!((1.7..=1.9).contains(&gb), "footprint {gb:.2} GB");
    }

    /// The Table 3 scenario: ~10% of memory modified between checkpoints.
    #[test]
    fn dirty_fraction_near_ten_percent() {
        for job in [KMeansJob::sensitivity(), KMeansJob::yarn_container()] {
            let f = job.dirty_fraction_per_iteration();
            assert!((0.08..=0.13).contains(&f), "dirty fraction {f:.3}");
        }
    }

    #[test]
    fn run_interval_dirties_working_set_only() {
        let job = KMeansJob::sensitivity();
        let mut mem = job.memory();
        mem.clear_dirty();
        job.run_interval(&mut mem, job.iteration_time);
        let dirty = mem.dirty_bytes().as_u64() as f64;
        let expected = (job.assignment_bytes() + job.centroid_bytes()).as_u64() as f64;
        // Page rounding makes dirty slightly larger than the working set.
        assert!(dirty >= expected, "dirty {dirty} < working set {expected}");
        assert!(dirty < expected * 1.05, "dirty {dirty} too large");
    }

    #[test]
    fn partial_iteration_dirties_prefix() {
        let job = KMeansJob::sensitivity();
        let mut mem = job.memory();
        mem.clear_dirty();
        job.run_interval(&mut mem, job.iteration_time / 2);
        let half = mem.dirty_bytes();
        mem.clear_dirty();
        job.run_interval(&mut mem, job.iteration_time);
        let full = mem.dirty_bytes();
        assert!(half < full);
        assert!(half.as_u64() > 0);
    }

    #[test]
    fn zero_elapsed_dirties_nothing() {
        let job = KMeansJob::sensitivity();
        let mut mem = job.memory();
        mem.clear_dirty();
        job.run_interval(&mut mem, SimDuration::ZERO);
        assert_eq!(mem.dirty_bytes(), ByteSize::ZERO);
    }

    #[test]
    fn task_spec_matches_model() {
        let job = KMeansJob::yarn_container();
        let spec = job.task_spec(TaskId {
            job: JobId(1),
            index: 0,
        });
        assert_eq!(spec.resources.mem(), job.footprint());
        assert_eq!(spec.duration, job.duration());
        assert!((spec.dirty_rate_per_sec - job.dirty_rate_per_sec()).abs() < 1e-12);
    }
}
