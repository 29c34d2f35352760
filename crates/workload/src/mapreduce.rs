//! MapReduce jobs — the "wider range of applications" the paper's §7 names
//! as future work.
//!
//! A MapReduce job is two phases with a barrier: `maps` map tasks that scan
//! input splits, then `reduces` reduce tasks that may only start once every
//! map has finished. Checkpoint-based preemption is particularly attractive
//! here: killing a 90%-done map re-runs the whole split (the motivation of
//! the application-specific systems the paper compares against, e.g.
//! Natjam), while a suspend keeps the barrier moving.
//!
//! [`MapReduceConfig::generate`] produces a [`MapReducePlan`]: a regular
//! [`Workload`] whose per-job task lists are `[maps..., reduces...]`, plus
//! the barrier index per job for schedulers that honour phases
//! (`cbp_yarn::YarnSim` does).

use std::collections::HashMap;

use cbp_cluster::Resources;
use cbp_simkit::dist::Dist;
use cbp_simkit::units::ByteSize;
use cbp_simkit::{SimDuration, SimRng, SimTime};

use crate::spec::{JobId, JobSpec, LatencyClass, Priority, TaskId, TaskSpec, Workload};

/// Shape of one MapReduce job class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MapReduceShape {
    /// Map tasks per job.
    pub maps: u32,
    /// Reduce tasks per job.
    pub reduces: u32,
    /// Map task runtime.
    pub map_duration: SimDuration,
    /// Reduce task runtime.
    pub reduce_duration: SimDuration,
    /// Map task memory (input split + sort buffer).
    pub map_mem: ByteSize,
    /// Reduce task memory (shuffle + merge buffers).
    pub reduce_mem: ByteSize,
}

impl Default for MapReduceShape {
    fn default() -> Self {
        MapReduceShape {
            maps: 30,
            reduces: 6,
            map_duration: SimDuration::from_secs(180),
            reduce_duration: SimDuration::from_secs(300),
            map_mem: ByteSize::from_gb_f64(1.0),
            reduce_mem: ByteSize::from_gb_f64(1.8),
        }
    }
}

/// A workload of MapReduce jobs.
#[derive(Debug, Clone)]
pub struct MapReduceConfig {
    /// Number of jobs.
    pub jobs: usize,
    /// Job shape (jittered per job).
    pub shape: MapReduceShape,
    /// Mean gap between submissions.
    pub mean_interarrival: SimDuration,
    /// Fraction of jobs at production priority.
    pub high_priority_fraction: f64,
}

impl Default for MapReduceConfig {
    fn default() -> Self {
        MapReduceConfig {
            jobs: 12,
            shape: MapReduceShape::default(),
            // ~83% average load on two 24-slot nodes: production arrivals
            // have to preempt mid-flight maps.
            mean_interarrival: SimDuration::from_secs(180),
            high_priority_fraction: 0.3,
        }
    }
}

/// A generated MapReduce workload plus its phase barriers.
#[derive(Debug, Clone)]
pub struct MapReducePlan {
    /// The flat workload (`[maps..., reduces...]` per job).
    pub workload: Workload,
    /// Per job: the task index where reduces begin (== the map count).
    pub barriers: HashMap<JobId, u32>,
}

impl MapReduceConfig {
    /// Generates the plan from a seed.
    pub fn generate(&self, seed: u64) -> MapReducePlan {
        assert!(self.jobs >= 1, "need at least one job");
        let mut rng = SimRng::seed_from_u64(seed);
        let gap = Dist::Exp {
            mean: self.mean_interarrival.as_secs_f64(),
        };
        let mut now = 0.0f64;
        let mut jobs = Vec::with_capacity(self.jobs);
        let mut barriers = HashMap::new();

        for j in 0..self.jobs as u64 {
            now += gap.sample(&mut rng);
            let high = rng.chance(self.high_priority_fraction);
            let id = JobId(j);
            // Jitter job size ±50%.
            let scale = 0.5 + rng.uniform();
            let maps = ((self.shape.maps as f64 * scale).round() as u32).max(1);
            let reduces = ((self.shape.reduces as f64 * scale).round() as u32).max(1);

            let mut tasks = Vec::with_capacity((maps + reduces) as usize);
            for index in 0..maps {
                tasks.push(TaskSpec {
                    id: TaskId { job: id, index },
                    resources: Resources::new_cores(1, self.shape.map_mem),
                    duration: self.shape.map_duration,
                    // Maps rewrite their sort buffer steadily.
                    dirty_rate_per_sec: 0.003,
                });
            }
            for r in 0..reduces {
                tasks.push(TaskSpec {
                    id: TaskId {
                        job: id,
                        index: maps + r,
                    },
                    resources: Resources::new_cores(1, self.shape.reduce_mem),
                    duration: self.shape.reduce_duration,
                    // Reduces churn their merge buffers harder.
                    dirty_rate_per_sec: 0.006,
                });
            }
            barriers.insert(id, maps);
            jobs.push(JobSpec {
                id,
                submit: SimTime::from_secs_f64(now),
                priority: if high {
                    Priority::new(9)
                } else {
                    Priority::new(0)
                },
                latency: LatencyClass::new(if high { 2 } else { 0 }),
                tasks,
            });
        }
        MapReducePlan {
            workload: Workload::new(jobs),
            barriers,
        }
    }
}

impl MapReducePlan {
    /// Total map tasks.
    pub fn map_count(&self) -> usize {
        self.barriers.values().map(|&b| b as usize).sum()
    }

    /// Total reduce tasks.
    pub fn reduce_count(&self) -> usize {
        self.workload.task_count() - self.map_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_two_phase_jobs() {
        let plan = MapReduceConfig::default().generate(1);
        assert_eq!(plan.workload.job_count(), 12);
        assert_eq!(plan.barriers.len(), 12);
        for job in plan.workload.jobs() {
            let barrier = plan.barriers[&job.id];
            assert!(barrier >= 1);
            assert!((barrier as usize) < job.tasks.len(), "must have reduces");
            // Maps come first and have the map footprint.
            assert_eq!(
                job.tasks[0].resources.mem(),
                MapReduceShape::default().map_mem
            );
            assert_eq!(
                job.tasks.last().unwrap().resources.mem(),
                MapReduceShape::default().reduce_mem
            );
        }
        assert_eq!(
            plan.map_count() + plan.reduce_count(),
            plan.workload.task_count()
        );
    }

    #[test]
    fn deterministic() {
        let a = MapReduceConfig::default().generate(7);
        let b = MapReduceConfig::default().generate(7);
        assert_eq!(a.workload, b.workload);
        assert_eq!(a.barriers, b.barriers);
    }

    #[test]
    fn priority_mix() {
        let plan = MapReduceConfig {
            jobs: 40,
            ..Default::default()
        }
        .generate(3);
        let high = plan
            .workload
            .jobs()
            .iter()
            .filter(|j| j.priority == Priority::new(9))
            .count();
        assert!(high > 0 && high < 40, "high-priority jobs: {high}");
    }
}
