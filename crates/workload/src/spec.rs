//! Job and task descriptions shared by all workload families.

use std::fmt;

use cbp_cluster::Resources;
use cbp_simkit::{SimDuration, SimTime};

/// A Google-style scheduling priority, 0 (lowest) to 11 (highest).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Priority(pub u8);

impl Priority {
    /// Highest priority in the trace's scale.
    pub const MAX: Priority = Priority(11);

    /// Creates a priority, clamping to the 0–11 scale.
    pub fn new(level: u8) -> Self {
        Priority(level.min(11))
    }

    /// The coarse band the paper aggregates by (Table 1).
    pub fn band(self) -> PriorityBand {
        match self.0 {
            0..=1 => PriorityBand::Free,
            2..=8 => PriorityBand::Middle,
            _ => PriorityBand::Production,
        }
    }
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// The paper's three priority bands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PriorityBand {
    /// Priorities 0–1 ("free" tier; 20.26% of its tasks preempted).
    Free,
    /// Priorities 2–8.
    Middle,
    /// Priorities 9–11 (production).
    Production,
}

impl PriorityBand {
    /// All bands, low to high.
    pub const ALL: [PriorityBand; 3] = [
        PriorityBand::Free,
        PriorityBand::Middle,
        PriorityBand::Production,
    ];

    /// The paper's label for the band (used in figure legends).
    pub fn label(self) -> &'static str {
        match self {
            PriorityBand::Free => "Low Priority",
            PriorityBand::Middle => "Medium Priority",
            PriorityBand::Production => "High Priority",
        }
    }
}

impl fmt::Display for PriorityBand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Latency-sensitivity scheduling class, 0 (least) to 3 (most sensitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LatencyClass(pub u8);

impl LatencyClass {
    /// All four classes.
    pub const ALL: [LatencyClass; 4] = [
        LatencyClass(0),
        LatencyClass(1),
        LatencyClass(2),
        LatencyClass(3),
    ];

    /// Creates a class, clamping to 0–3.
    pub fn new(level: u8) -> Self {
        LatencyClass(level.min(3))
    }
}

impl fmt::Display for LatencyClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "class {}", self.0)
    }
}

/// Identifier of a job within a [`Workload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Identifier of a task: a job plus the task's index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId {
    /// The owning job.
    pub job: JobId,
    /// Index within the job.
    pub index: u32,
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.job.0, self.index)
    }
}

/// One schedulable task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskSpec {
    /// Task identity.
    pub id: TaskId,
    /// Resource demand (CPU millicores + memory footprint).
    pub resources: Resources,
    /// Execution time when running undisturbed.
    pub duration: SimDuration,
    /// Fraction of the memory footprint rewritten per second of execution —
    /// drives incremental-checkpoint sizes. ~0.002/s for the k-means jobs
    /// (10% per minute).
    pub dirty_rate_per_sec: f64,
}

/// One job: a set of tasks submitted together under one priority.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job identity.
    pub id: JobId,
    /// Submission time.
    pub submit: SimTime,
    /// Scheduling priority (all tasks inherit it).
    pub priority: Priority,
    /// Latency-sensitivity class.
    pub latency: LatencyClass,
    /// The job's tasks.
    pub tasks: Vec<TaskSpec>,
}

impl JobSpec {
    /// Total CPU-seconds of work across all tasks.
    pub fn total_cpu_seconds(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.resources.cores_f64() * t.duration.as_secs_f64())
            .sum()
    }

    /// Aggregate resource demand if every task ran at once.
    pub fn peak_demand(&self) -> Resources {
        self.tasks.iter().map(|t| t.resources).sum()
    }
}

/// A full experiment input: jobs ordered by submission time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Workload {
    jobs: Vec<JobSpec>,
}

impl Workload {
    /// Creates a workload, sorting jobs by submission time (stable, so
    /// equal-time jobs keep their generation order).
    pub fn new(mut jobs: Vec<JobSpec>) -> Self {
        jobs.sort_by_key(|j| j.submit);
        Workload { jobs }
    }

    /// The jobs in submission order.
    pub fn jobs(&self) -> &[JobSpec] {
        &self.jobs
    }

    /// Number of jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Number of tasks across all jobs.
    pub fn task_count(&self) -> usize {
        self.jobs.iter().map(|j| j.tasks.len()).sum()
    }

    /// Sum of every task's CPU demand in cores (the "requiring over 22,000
    /// cores" figure the paper quotes for its one-day slice).
    pub fn total_core_demand(&self) -> f64 {
        self.jobs
            .iter()
            .flat_map(|j| &j.tasks)
            .map(|t| t.resources.cores_f64())
            .sum()
    }

    /// Total CPU-hours of work submitted.
    pub fn total_cpu_hours(&self) -> f64 {
        self.jobs
            .iter()
            .map(JobSpec::total_cpu_seconds)
            .sum::<f64>()
            / 3600.0
    }

    /// Submission time of the last job.
    pub fn last_submit(&self) -> SimTime {
        self.jobs.last().map(|j| j.submit).unwrap_or(SimTime::ZERO)
    }

    /// Looks up a job.
    pub fn job(&self, id: JobId) -> Option<&JobSpec> {
        // Jobs are dense and id order == generation order, but after sorting
        // by submit time the index may differ; search.
        self.jobs.iter().find(|j| j.id == id)
    }

    /// Number of tasks per priority band.
    pub fn tasks_per_band(&self) -> [(PriorityBand, usize); 3] {
        let mut counts = [0usize; 3];
        for j in &self.jobs {
            let idx = match j.priority.band() {
                PriorityBand::Free => 0,
                PriorityBand::Middle => 1,
                PriorityBand::Production => 2,
            };
            counts[idx] += j.tasks.len();
        }
        [
            (PriorityBand::Free, counts[0]),
            (PriorityBand::Middle, counts[1]),
            (PriorityBand::Production, counts[2]),
        ]
    }
}

impl FromIterator<JobSpec> for Workload {
    fn from_iter<I: IntoIterator<Item = JobSpec>>(iter: I) -> Self {
        Workload::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_simkit::units::ByteSize;

    fn job(id: u64, submit_s: u64, prio: u8, ntasks: u32) -> JobSpec {
        JobSpec {
            id: JobId(id),
            submit: SimTime::from_secs(submit_s),
            priority: Priority::new(prio),
            latency: LatencyClass::new(0),
            tasks: (0..ntasks)
                .map(|i| TaskSpec {
                    id: TaskId {
                        job: JobId(id),
                        index: i,
                    },
                    resources: Resources::new_cores(1, ByteSize::from_gb(1)),
                    duration: SimDuration::from_secs(60),
                    dirty_rate_per_sec: 0.002,
                })
                .collect(),
        }
    }

    #[test]
    fn bands() {
        assert_eq!(Priority(0).band(), PriorityBand::Free);
        assert_eq!(Priority(1).band(), PriorityBand::Free);
        assert_eq!(Priority(2).band(), PriorityBand::Middle);
        assert_eq!(Priority(8).band(), PriorityBand::Middle);
        assert_eq!(Priority(9).band(), PriorityBand::Production);
        assert_eq!(Priority(11).band(), PriorityBand::Production);
        assert_eq!(Priority::new(200), Priority(11));
        assert_eq!(LatencyClass::new(9), LatencyClass(3));
    }

    #[test]
    fn workload_sorts_by_submit() {
        let w = Workload::new(vec![job(2, 100, 0, 1), job(1, 50, 0, 1)]);
        assert_eq!(w.jobs()[0].id, JobId(1));
        assert_eq!(w.last_submit(), SimTime::from_secs(100));
    }

    #[test]
    fn aggregate_counts() {
        let w: Workload = vec![job(1, 0, 0, 3), job(2, 10, 5, 2), job(3, 20, 10, 1)]
            .into_iter()
            .collect();
        assert_eq!(w.job_count(), 3);
        assert_eq!(w.task_count(), 6);
        assert_eq!(w.total_core_demand(), 6.0);
        assert!((w.total_cpu_hours() - 6.0 * 60.0 / 3600.0).abs() < 1e-12);
        let bands = w.tasks_per_band();
        assert_eq!(bands[0], (PriorityBand::Free, 3));
        assert_eq!(bands[1], (PriorityBand::Middle, 2));
        assert_eq!(bands[2], (PriorityBand::Production, 1));
    }

    #[test]
    fn job_lookup_and_peak_demand() {
        let w = Workload::new(vec![job(7, 0, 0, 4)]);
        let j = w.job(JobId(7)).unwrap();
        assert_eq!(
            j.peak_demand(),
            Resources::new_cores(4, ByteSize::from_gb(4))
        );
        assert_eq!(j.total_cpu_seconds(), 240.0);
        assert!(w.job(JobId(8)).is_none());
    }

    #[test]
    fn display_impls() {
        assert_eq!(Priority(3).to_string(), "p3");
        assert_eq!(PriorityBand::Free.to_string(), "Low Priority");
        assert_eq!(LatencyClass(2).to_string(), "class 2");
        let t = TaskId {
            job: JobId(4),
            index: 9,
        };
        assert_eq!(t.to_string(), "4#9");
    }
}
