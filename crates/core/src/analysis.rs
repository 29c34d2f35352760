//! Trace analysis reproducing the paper's §2 methodology.
//!
//! The paper detects preemption in the Google trace with the criterion of
//! Cavdar et al.: *"if a higher priority task is scheduled on the same
//! machine within five seconds after the lower priority job was evicted,
//! then we count that the lower priority job was preempted due to preemptive
//! scheduling."* A [`PreemptionTracer`] applies exactly that rule to
//! [`ClusterSim`]'s `task_submit` / `task_schedule` / `task_evict` /
//! `task_finish` records as they are emitted and aggregates:
//!
//! * preemption rate per priority band over time (Fig. 1a),
//! * share of all preemptions per priority 0–11 (Fig. 1b),
//! * per-task preemption-count distribution (Fig. 1c),
//! * scheduled/preempted counts per band (Table 1) and latency class
//!   (Table 2),
//! * wasted CPU-hours between schedule and eviction (the "up to 35% of
//!   total usage" estimate).
//!
//! The fold keeps one entry per task and, per node, the evictions still
//! inside the window, so its memory follows the task count, not the
//! event count.

use std::cell::RefCell;
use std::rc::Rc;

use cbp_simkit::{SimDuration, SimTime};
use cbp_telemetry::{TraceRecord, Tracer};
use cbp_workload::{Priority, PriorityBand, Workload};

use crate::config::SimConfig;
use crate::metrics::RunReport;
use crate::sim::{clamp_to_node, ClusterSim};

/// The detection window of the 5-second criterion.
pub const WINDOW: SimDuration = SimDuration::from_secs(5);

/// Per-category scheduled/preempted counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GroupCounts {
    /// Distinct tasks that were scheduled at least once.
    pub scheduled_tasks: u64,
    /// Distinct tasks preempted at least once.
    pub preempted_tasks: u64,
    /// Total preemption events.
    pub preemptions: u64,
}

impl GroupCounts {
    /// Fraction of scheduled tasks that were preempted at least once
    /// (Table 1 / Table 2's "Percent Preempted").
    pub fn preempted_fraction(&self) -> f64 {
        if self.scheduled_tasks == 0 {
            0.0
        } else {
            self.preempted_tasks as f64 / self.scheduled_tasks as f64
        }
    }
}

/// The output of the §2 analysis.
#[derive(Debug, Clone)]
pub struct PreemptionAnalysis {
    /// The detection window ([`WINDOW`]).
    pub window: SimDuration,
    /// Counters per priority level 0–11.
    pub per_priority: [GroupCounts; 12],
    /// Counters per priority band.
    pub per_band: [(PriorityBand, GroupCounts); 3],
    /// Counters per latency class 0–3.
    pub per_latency: [GroupCounts; 4],
    /// Overall counters.
    pub overall: GroupCounts,
    /// For Fig. 1c: `histogram[k]` = tasks preempted exactly `k+1` times,
    /// for k in 0..9; `histogram[9]` = tasks preempted ≥ 10 times.
    pub preemption_count_histogram: [u64; 10],
    /// For Fig. 1a: per time bucket, per band, (scheduled, preempted-task)
    /// counts.
    pub timeline: Vec<TimelineBucket>,
    /// CPU-hours lost between schedule and eviction (waste under kill-based
    /// preemption).
    pub wasted_cpu_hours: f64,
    /// CPU-hours successfully used (schedule → finish).
    pub useful_cpu_hours: f64,
}

/// One bucket of the Fig. 1a timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimelineBucket {
    /// Bucket start time.
    pub start: SimTime,
    /// Per band: (tasks scheduled in this bucket, preemptions of evictions
    /// in this bucket).
    pub per_band: [(u64, u64); 3],
}

/// What the fold keeps per task handle.
#[derive(Debug, Clone, Copy, Default)]
struct TaskFold {
    /// From the task's `task_submit` record.
    priority: u8,
    latency: usize,
    cores: f64,
    scheduled: bool,
    preemptions: u64,
    /// Start of the current placement.
    running_since: Option<SimTime>,
}

impl TaskFold {
    /// Index of the task's band in [`PriorityBand::ALL`] order.
    fn band(&self) -> usize {
        Priority(self.priority).band() as usize
    }
}

#[derive(Debug, Default)]
struct Fold {
    bucket: SimDuration,
    tasks: Vec<TaskFold>,
    /// Per node: evictions at most [`WINDOW`] old, as (time, task).
    evictions: Vec<Vec<(SimTime, usize)>>,
    per_priority: [GroupCounts; 12],
    per_band: [GroupCounts; 3],
    per_latency: [GroupCounts; 4],
    overall: GroupCounts,
    timeline: Vec<[(u64, u64); 3]>,
    /// Time of the latest task record.
    horizon: SimTime,
    wasted_secs: f64,
    useful_secs: f64,
}

impl Fold {
    /// The four groups task `t` counts in.
    fn groups(&mut self, t: usize) -> [&mut GroupCounts; 4] {
        let task = &self.tasks[t];
        [
            &mut self.per_priority[task.priority as usize],
            &mut self.per_band[task.band()],
            &mut self.per_latency[task.latency],
            &mut self.overall,
        ]
    }

    fn bucket_at(&mut self, time: SimTime) -> &mut [(u64, u64); 3] {
        let idx = (time.as_micros() / self.bucket.as_micros().max(1)) as usize;
        if idx >= self.timeline.len() {
            self.timeline.resize(idx + 1, [(0, 0); 3]);
        }
        &mut self.timeline[idx]
    }

    fn observe(&mut self, now: SimTime, rec: &TraceRecord) {
        match *rec {
            TraceRecord::TaskSubmit { task, priority, .. } => {
                self.tasks[task as usize].priority = Priority::new(priority).0;
            }
            TraceRecord::TaskSchedule { task, node, .. } => {
                self.schedule(now, task as usize, node as usize)
            }
            TraceRecord::TaskEvict { task, node, .. } => {
                self.evict(now, task as usize, node as usize)
            }
            TraceRecord::TaskFinish { task, .. } => {
                let task = &mut self.tasks[task as usize];
                if let Some(t0) = task.running_since.take() {
                    self.useful_secs += now.since(t0).as_secs_f64() * task.cores;
                }
            }
            _ => return,
        }
        self.horizon = now;
    }

    fn schedule(&mut self, now: SimTime, t: usize, node: usize) {
        let task = &mut self.tasks[t];
        let first = !task.scheduled;
        task.scheduled = true;
        task.running_since = Some(now);
        let (priority, band) = (task.priority, task.band());
        for g in self.groups(t) {
            g.scheduled_tasks += first as u64;
        }
        self.bucket_at(now)[band].0 += 1;
        // The 5-second criterion: an eviction on this node in
        // [now - window, now) of a strictly lower-priority task.
        let Some(pending) = self.evictions.get_mut(node) else {
            return;
        };
        let mut pending = std::mem::take(pending);
        pending.retain(|&(at, victim)| {
            let live = at + WINDOW >= now;
            let hit = live && at < now && self.tasks[victim].priority < priority;
            if hit {
                self.preempted(victim, at);
            }
            live && !hit
        });
        self.evictions[node] = pending;
    }

    fn preempted(&mut self, t: usize, at: SimTime) {
        let task = &mut self.tasks[t];
        task.preemptions += 1;
        let first = task.preemptions == 1;
        let band = task.band();
        for g in self.groups(t) {
            g.preempted_tasks += first as u64;
            g.preemptions += 1;
        }
        self.bucket_at(at)[band].1 += 1;
    }

    fn evict(&mut self, now: SimTime, t: usize, node: usize) {
        if node >= self.evictions.len() {
            self.evictions.resize_with(node + 1, Vec::new);
        }
        let pending = &mut self.evictions[node];
        pending.retain(|&(at, _)| at + WINDOW >= now);
        pending.push((now, t));
        let task = &mut self.tasks[t];
        if let Some(t0) = task.running_since.take() {
            self.wasted_secs += now.since(t0).as_secs_f64() * task.cores;
        }
    }

    fn analysis(&self) -> PreemptionAnalysis {
        let bucket = self.bucket.as_micros().max(1);
        let n_buckets = (self.horizon.as_micros() / bucket) as usize + 1;
        let timeline = (0..n_buckets)
            .map(|i| TimelineBucket {
                start: SimTime::from_micros(i as u64 * self.bucket.as_micros()),
                per_band: self.timeline.get(i).copied().unwrap_or_default(),
            })
            .collect();
        let mut histogram = [0u64; 10];
        for task in self.tasks.iter().filter(|t| t.preemptions > 0) {
            histogram[(task.preemptions as usize - 1).min(9)] += 1;
        }
        PreemptionAnalysis {
            window: WINDOW,
            per_priority: self.per_priority,
            per_band: PriorityBand::ALL.map(|band| (band, self.per_band[band as usize])),
            per_latency: self.per_latency,
            overall: self.overall,
            preemption_count_histogram: histogram,
            timeline,
            wasted_cpu_hours: self.wasted_secs / 3600.0,
            useful_cpu_hours: self.useful_secs / 3600.0,
        }
    }
}

/// A [`Tracer`] that folds a [`ClusterSim`] run into a
/// [`PreemptionAnalysis`]. It is a cloneable handle: give one clone to the
/// simulator (alone or inside a `MultiTracer`) and read the result from
/// another after the run.
#[derive(Debug, Clone)]
pub struct PreemptionTracer(Rc<RefCell<Fold>>);

impl PreemptionTracer {
    /// A fold for `workload` run under `cfg`, with `bucket`-wide Fig. 1a
    /// timeline buckets. Task records are looked up by the simulator's
    /// task handle (the workload's tasks in job order); the CPU demand
    /// is clamped to a node as the simulator clamps it.
    pub fn new(cfg: &SimConfig, workload: &Workload, bucket: SimDuration) -> Self {
        let tasks = workload
            .jobs()
            .iter()
            .flat_map(|job| {
                job.tasks.iter().map(|spec| {
                    let cores = clamp_to_node(*spec, cfg.node_resources)
                        .resources
                        .cores_f64();
                    TaskFold {
                        latency: job.latency.0 as usize,
                        cores,
                        ..TaskFold::default()
                    }
                })
            })
            .collect();
        PreemptionTracer(Rc::new(RefCell::new(Fold {
            bucket,
            tasks,
            ..Fold::default()
        })))
    }

    /// The analysis of the records folded so far.
    pub fn analysis(&self) -> PreemptionAnalysis {
        self.0.borrow().analysis()
    }
}

impl Tracer for PreemptionTracer {
    fn record(&mut self, t_us: u64, rec: &TraceRecord) {
        self.0.borrow_mut().observe(SimTime::from_micros(t_us), rec);
    }
}

impl SimConfig {
    /// Runs `workload` with a [`PreemptionTracer`] attached and returns
    /// the report with the §2 analysis (`bucket`-wide timeline buckets).
    pub fn run_analyzed(
        &self,
        workload: &Workload,
        bucket: SimDuration,
    ) -> (RunReport, PreemptionAnalysis) {
        let tracer = PreemptionTracer::new(self, workload, bucket);
        let mut sim = ClusterSim::new(self.clone(), workload.clone());
        sim.set_tracer(Box::new(tracer.clone()));
        (sim.run(), tracer.analysis())
    }
}

impl PreemptionAnalysis {
    /// Fig. 1b: each priority level's share of all preemption events.
    pub fn preemption_share_per_priority(&self) -> [f64; 12] {
        let total = self.overall.preemptions.max(1) as f64;
        let mut shares = [0.0; 12];
        for (i, c) in self.per_priority.iter().enumerate() {
            shares[i] = c.preemptions as f64 / total;
        }
        shares
    }

    /// Fraction of preempted tasks that were preempted more than once
    /// (the paper reports 43.5%).
    pub fn repeat_preemption_fraction(&self) -> f64 {
        let total: u64 = self.preemption_count_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let repeats: u64 = self.preemption_count_histogram[1..].iter().sum();
        repeats as f64 / total as f64
    }

    /// Wasted CPU-hours as a fraction of all consumed CPU-hours
    /// (useful + wasted); the paper reports "up to 35%".
    pub fn waste_fraction(&self) -> f64 {
        let total = self.wasted_cpu_hours + self.useful_cpu_hours;
        if total == 0.0 {
            0.0
        } else {
            self.wasted_cpu_hours / total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Folds `stream` — (seconds, record) in time order — over 100
    /// one-core tasks of latency class 0 with daily buckets.
    fn fold(stream: &[(u64, TraceRecord)]) -> PreemptionAnalysis {
        fold_with(stream, SimDuration::from_secs(86_400))
    }

    fn fold_with(stream: &[(u64, TraceRecord)], bucket: SimDuration) -> PreemptionAnalysis {
        let task = TaskFold {
            cores: 1.0,
            ..TaskFold::default()
        };
        let mut f = Fold {
            bucket,
            tasks: vec![task; 100],
            ..Fold::default()
        };
        for (secs, rec) in stream {
            f.observe(SimTime::from_secs(*secs), rec);
        }
        f.analysis()
    }

    fn submit(task: u64, priority: u8) -> TraceRecord {
        TraceRecord::TaskSubmit {
            task,
            job: task,
            priority,
        }
    }

    fn sched(task: u64, node: u32) -> TraceRecord {
        TraceRecord::TaskSchedule {
            task,
            node,
            restore: false,
        }
    }

    fn evict(task: u64, node: u32) -> TraceRecord {
        TraceRecord::TaskEvict {
            task,
            node,
            reason: "kill",
        }
    }

    #[test]
    fn detects_preemption_within_window() {
        let a = fold(&[
            (0, submit(1, 0)),
            (0, submit(2, 9)),
            (0, sched(1, 0)),
            (100, evict(1, 0)),
            // Higher-priority task scheduled 3 s later on the same machine.
            (103, sched(2, 0)),
        ]);
        assert_eq!(a.overall.preemptions, 1);
        assert_eq!(a.overall.preempted_tasks, 1);
        assert_eq!(a.per_band[0].1.preemptions, 1);
    }

    #[test]
    fn window_is_closed_at_five_seconds_and_open_at_zero() {
        let at_edge = fold(&[
            (0, submit(1, 0)),
            (0, submit(2, 9)),
            (0, sched(1, 0)),
            (100, evict(1, 0)),
            (105, sched(2, 0)),
        ]);
        assert_eq!(at_edge.overall.preemptions, 1);
        let same_instant = fold(&[
            (0, submit(1, 0)),
            (0, submit(2, 9)),
            (0, sched(1, 0)),
            (100, evict(1, 0)),
            (100, sched(2, 0)),
        ]);
        assert_eq!(same_instant.overall.preemptions, 0);
    }

    #[test]
    fn ignores_eviction_outside_window() {
        let a = fold(&[
            (0, submit(1, 0)),
            (0, submit(2, 9)),
            (0, sched(1, 0)),
            (100, evict(1, 0)),
            (106, sched(2, 0)),
        ]);
        assert_eq!(a.overall.preemptions, 0);
    }

    #[test]
    fn ignores_equal_or_lower_priority_successor() {
        let a = fold(&[
            (0, submit(1, 5)),
            (0, submit(2, 5)),
            (0, submit(3, 2)),
            (0, sched(1, 0)),
            (100, evict(1, 0)),
            (101, sched(2, 0)),
            (102, sched(3, 0)),
        ]);
        assert_eq!(a.overall.preemptions, 0);
    }

    #[test]
    fn ignores_other_machines() {
        let a = fold(&[
            (0, submit(1, 0)),
            (0, submit(2, 9)),
            (0, sched(1, 0)),
            (100, evict(1, 0)),
            (101, sched(2, 1)),
        ]);
        assert_eq!(a.overall.preemptions, 0);
    }

    #[test]
    fn one_schedule_preempts_every_eviction_it_follows() {
        let a = fold(&[
            (0, submit(1, 0)),
            (0, submit(2, 1)),
            (0, submit(3, 9)),
            (0, sched(1, 0)),
            (0, sched(2, 0)),
            (100, evict(1, 0)),
            (102, evict(2, 0)),
            (104, sched(3, 0)),
            // A second qualifying schedule counts nothing twice.
            (105, sched(3, 0)),
        ]);
        assert_eq!(a.overall.preemptions, 2);
        assert_eq!(a.overall.preempted_tasks, 2);
    }

    #[test]
    fn repeated_preemption_histogram() {
        let mut stream = vec![(0, submit(1, 0)), (0, submit(2, 0)), (0, submit(3, 0))];
        stream.push((0, submit(99, 9)));
        let mut t = 0;
        // Task 1 preempted 3 times; task 2 once; task 3 twelve times.
        for (task, times) in [(1u64, 3u32), (2, 1), (3, 12)] {
            for _ in 0..times {
                stream.push((t, sched(task, 0)));
                stream.push((t + 10, evict(task, 0)));
                stream.push((t + 11, sched(99, 0)));
                t += 100;
            }
        }
        let a = fold(&stream);
        assert_eq!(a.preemption_count_histogram[0], 1); // task 2: once
        assert_eq!(a.preemption_count_histogram[2], 1); // task 1: 3 times
        assert_eq!(a.preemption_count_histogram[9], 1); // task 3: >= 10
        assert!((a.repeat_preemption_fraction() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn waste_accounting() {
        let a = fold(&[
            (0, submit(1, 0)),
            (0, submit(2, 9)),
            // Task runs 100 s then evicted (preempted) -> 100 cpu-s wasted.
            (0, sched(1, 0)),
            (100, evict(1, 0)),
            (101, sched(2, 0)),
            // Task 2 runs 300 s to completion -> useful.
            (401, TraceRecord::TaskFinish { task: 2, node: 0 }),
        ]);
        assert!((a.wasted_cpu_hours - 100.0 / 3600.0).abs() < 1e-9);
        assert!((a.useful_cpu_hours - 300.0 / 3600.0).abs() < 1e-9);
        assert!((a.waste_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn scheduled_tasks_counted_once() {
        let a = fold(&[
            (0, submit(1, 0)),
            (0, submit(2, 9)),
            (0, sched(1, 0)),
            (10, evict(1, 0)),
            (11, sched(2, 0)),
            (20, sched(1, 1)),
            (500, TraceRecord::TaskFinish { task: 1, node: 1 }),
        ]);
        // Task 1 scheduled twice but counted once.
        assert_eq!(a.per_priority[0].scheduled_tasks, 1);
        assert_eq!(a.overall.scheduled_tasks, 2);
        assert!((a.per_band[0].1.preempted_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn timeline_buckets() {
        let a = fold(&[
            (0, submit(1, 0)),
            (0, sched(1, 0)),
            (90_000, submit(2, 0)),
            (90_000, sched(2, 0)),
        ]);
        assert_eq!(a.timeline.len(), 2);
        assert_eq!(a.timeline[0].per_band[0].0, 1);
        assert_eq!(a.timeline[1].per_band[0].0, 1);
        // A preemption counts in its eviction's bucket.
        let a = fold_with(
            &[
                (0, submit(1, 0)),
                (0, submit(2, 9)),
                (0, sched(1, 0)),
                (59, evict(1, 0)),
                (62, sched(2, 0)),
            ],
            SimDuration::from_secs(60),
        );
        assert_eq!(a.timeline.len(), 2);
        assert_eq!(a.timeline[0].per_band[0].1, 1);
        assert_eq!(a.timeline[1].per_band[2].0, 1);
    }

    #[test]
    fn empty_log() {
        let a = fold(&[]);
        assert_eq!(a.overall.scheduled_tasks, 0);
        assert_eq!(a.timeline.len(), 1);
        assert_eq!(a.waste_fraction(), 0.0);
        assert_eq!(a.repeat_preemption_fraction(), 0.0);
        assert_eq!(a.preemption_share_per_priority(), [0.0; 12]);
    }

    /// The tracer next to a JSONL sink folds the same analysis as a
    /// replay of the JSONL file.
    #[test]
    fn online_fold_matches_a_replay_of_the_trace() {
        use cbp_storage::MediaKind;
        use cbp_telemetry::{JsonlReader, JsonlTracer, MultiTracer};
        use cbp_workload::google::GoogleTraceConfig;

        #[derive(Clone, Default)]
        struct Buf(Rc<RefCell<Vec<u8>>>);
        impl std::io::Write for Buf {
            fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(bytes);
                Ok(bytes.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let w = GoogleTraceConfig::small(150.0).generate(3);
        let cfg = SimConfig::trace_sim(crate::PreemptionPolicy::Kill, MediaKind::Ssd).with_nodes(4);
        let bucket = SimDuration::from_secs(600);
        let online = PreemptionTracer::new(&cfg, &w, bucket);
        let buf = Buf::default();
        let mut multi = MultiTracer::new();
        multi.push(Box::new(JsonlTracer::new(buf.clone())));
        multi.push(Box::new(online.clone()));
        let mut sim = ClusterSim::new(cfg.clone(), w.clone());
        sim.set_tracer(Box::new(multi));
        sim.run();

        let mut replay = PreemptionTracer::new(&cfg, &w, bucket);
        let bytes = buf.0.borrow();
        for item in JsonlReader::new(&bytes[..]).expect("trace header") {
            let (t_us, rec) = item.expect("well-formed record");
            replay.record(t_us, &rec);
        }
        let (online, replay) = (online.analysis(), replay.analysis());
        assert!(online.overall.preemptions > 0);
        assert_eq!(online.overall.scheduled_tasks, w.task_count() as u64);
        assert_eq!(format!("{online:?}"), format!("{replay:?}"));
    }
}
