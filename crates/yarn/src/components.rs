//! YARN components: the ResourceManager's scheduler state and the
//! DistributedShell ApplicationMaster.

use std::collections::{BTreeSet, VecDeque};

use cbp_core::task::TaskExec;
use cbp_simkit::SimTime;
use cbp_workload::TaskSpec;

/// The two capacity-scheduler queues of the §5 experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueKind {
    /// Low-priority jobs.
    Default,
    /// High-priority (production) jobs; may preempt the default queue.
    Production,
}

/// The ResourceManager's scheduler bookkeeping: which applications want
/// containers, per queue, FIFO within a queue.
///
/// Placement and preemption *execution* live in [`crate::YarnSim`] (they
/// need node state); this type owns the queue discipline so it can be
/// tested in isolation. Per-queue pending totals and ordered sets of the
/// apps with outstanding asks make every query O(log apps).
#[derive(Debug, Default)]
pub struct ResourceManager {
    queue_of: Vec<QueueKind>,
    asks: Vec<u32>,
    /// Outstanding asks per queue, indexed by [`queue_slot`].
    pending: [u32; 2],
    /// Apps with outstanding asks per queue, indexed by [`queue_slot`];
    /// ids are registration order, so the first is the FIFO head.
    waiting: [BTreeSet<u32>; 2],
    /// The app [`ResourceManager::peek_grant`] returns, refreshed whenever
    /// `waiting` changes.
    head: Option<u32>,
}

fn queue_slot(queue: QueueKind) -> usize {
    match queue {
        QueueKind::Default => 0,
        QueueKind::Production => 1,
    }
}

impl ResourceManager {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        ResourceManager::default()
    }

    /// Registers application `app` (dense ids, registration order is the
    /// FIFO order).
    pub fn register_app(&mut self, app: u32, queue: QueueKind) {
        assert_eq!(
            app as usize,
            self.queue_of.len(),
            "apps register densely in order"
        );
        self.queue_of.push(queue);
        self.asks.push(0);
    }

    /// The queue an application belongs to.
    pub fn queue_of(&self, app: u32) -> QueueKind {
        self.queue_of[app as usize]
    }

    /// Adds `n` outstanding container requests for `app`.
    pub fn add_asks(&mut self, app: u32, n: u32) {
        if n == 0 {
            return;
        }
        let slot = queue_slot(self.queue_of[app as usize]);
        self.asks[app as usize] += n;
        self.pending[slot] += n;
        if self.waiting[slot].insert(app) {
            self.refresh_head();
        }
    }

    /// Outstanding requests for `app`.
    pub fn asks_of(&self, app: u32) -> u32 {
        self.asks[app as usize]
    }

    /// Total outstanding requests in a queue.
    pub fn pending(&self, queue: QueueKind) -> u32 {
        self.pending[queue_slot(queue)]
    }

    /// The application whose request would be served next (production queue
    /// strictly first, FIFO by registration within a queue), without
    /// consuming the ask.
    pub fn peek_grant(&self) -> Option<u32> {
        self.head
    }

    fn refresh_head(&mut self) {
        self.head = [QueueKind::Production, QueueKind::Default]
            .into_iter()
            .find_map(|queue| self.waiting[queue_slot(queue)].first().copied());
    }

    /// Pops the next request to serve (see [`ResourceManager::peek_grant`]).
    pub fn next_grant(&mut self) -> Option<u32> {
        let app = self.peek_grant()?;
        let slot = queue_slot(self.queue_of[app as usize]);
        self.asks[app as usize] -= 1;
        self.pending[slot] -= 1;
        if self.asks[app as usize] == 0 {
            self.waiting[slot].remove(&app);
            self.refresh_head();
        }
        Some(app)
    }

    /// §5.2.2 cost-aware eviction: orders victim candidates by estimated
    /// checkpoint cost (ascending) and returns the cheapest `needed`.
    /// Candidates are `(cost_secs, key)`; ties break on the key for
    /// determinism.
    pub fn select_victims(mut candidates: Vec<(f64, u64)>, needed: usize) -> Vec<u64> {
        candidates.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        candidates.truncate(needed);
        candidates.into_iter().map(|(_, k)| k).collect()
    }
}

/// An AM-side container/task record: the execution record both simulators
/// share, plus the RM's preemption request.
#[derive(Debug)]
pub struct AmTask {
    /// Progress, checkpoint and memory bookkeeping.
    pub exec: TaskExec,
    /// Whether the RM has already asked to preempt this container.
    pub preempt_requested: bool,
}

impl AmTask {
    /// A fresh waiting task.
    pub fn new(spec: TaskSpec) -> Self {
        AmTask {
            exec: TaskExec::new(spec),
            preempt_requested: false,
        }
    }
}

/// One DistributedShell ApplicationMaster: a job's tasks plus its request
/// bookkeeping.
#[derive(Debug)]
pub struct AppMaster {
    /// Application id (== job index).
    pub app: u32,
    /// Which queue the job was submitted to.
    pub queue: QueueKind,
    /// Submission time.
    pub submit: SimTime,
    /// The job's tasks.
    pub tasks: Vec<AmTask>,
    /// Task indices waiting for containers (launch order).
    pub launch_queue: VecDeque<u32>,
    /// Tasks not yet finished.
    pub unfinished: u32,
    /// For MapReduce applications: the task index where reduces begin
    /// (maps are `0..barrier`). Reduces only enter the launch queue once
    /// every map has finished.
    pub barrier: Option<u32>,
    /// Maps not yet finished (meaningful only with a barrier).
    pub maps_unfinished: u32,
    /// When the last task finished.
    pub finished_at: Option<SimTime>,
}

impl AppMaster {
    /// Registers a job's AM.
    pub fn new(app: u32, queue: QueueKind, submit: SimTime, specs: &[TaskSpec]) -> Self {
        AppMaster {
            app,
            queue,
            submit,
            tasks: specs.iter().map(|s| AmTask::new(*s)).collect(),
            launch_queue: (0..specs.len() as u32).collect(),
            unfinished: specs.len() as u32,
            barrier: None,
            maps_unfinished: 0,
            finished_at: None,
        }
    }

    /// Registers a MapReduce job's AM: only the maps (`0..barrier`) are
    /// launchable until every map completes.
    ///
    /// # Panics
    ///
    /// Panics if `barrier` is zero or not below the task count.
    pub fn new_with_barrier(
        app: u32,
        queue: QueueKind,
        submit: SimTime,
        specs: &[TaskSpec],
        barrier: u32,
    ) -> Self {
        assert!(
            barrier >= 1 && (barrier as usize) < specs.len(),
            "barrier must split tasks into non-empty phases"
        );
        AppMaster {
            app,
            queue,
            submit,
            tasks: specs.iter().map(|s| AmTask::new(*s)).collect(),
            launch_queue: (0..barrier).collect(),
            unfinished: specs.len() as u32,
            barrier: Some(barrier),
            maps_unfinished: barrier,
            finished_at: None,
        }
    }

    /// Records that `task` finished. For MapReduce apps, returns the number
    /// of reduce tasks released into the launch queue when the last map
    /// completes (the AM must request that many containers).
    pub fn on_task_done(&mut self, task: u32) -> u32 {
        self.unfinished -= 1;
        if let Some(barrier) = self.barrier {
            if task < barrier {
                self.maps_unfinished -= 1;
                if self.maps_unfinished == 0 {
                    let reduces = barrier..self.tasks.len() as u32;
                    let released = reduces.len() as u32;
                    self.launch_queue.extend(reduces);
                    return released;
                }
            }
        }
        0
    }

    /// The next task to launch when a container is granted. Suspended tasks
    /// and fresh tasks share the FIFO launch queue.
    pub fn next_launch(&mut self) -> Option<u32> {
        self.launch_queue.pop_front()
    }

    /// Puts a preempted task back at the *front* of the launch queue — the
    /// AM resumes suspended/killed work before starting fresh tasks, both
    /// to finish partially-done work first and to let checkpoint images be
    /// discarded promptly (a suspended task parked behind thousands of
    /// fresh tasks would pin its image in storage for hours).
    pub fn requeue(&mut self, task: u32) {
        debug_assert!(
            !self.launch_queue.contains(&task),
            "task {task} already queued"
        );
        self.launch_queue.push_front(task);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_cluster::Resources;
    use cbp_simkit::units::ByteSize;
    use cbp_simkit::SimDuration;
    use cbp_workload::{JobId, TaskId};

    fn spec(secs: u64) -> TaskSpec {
        TaskSpec {
            id: TaskId {
                job: JobId(0),
                index: 0,
            },
            resources: Resources::new_cores(1, ByteSize::from_gb(2)),
            duration: SimDuration::from_secs(secs),
            dirty_rate_per_sec: 0.002,
        }
    }

    #[test]
    fn rm_serves_production_first_fifo_within_queue() {
        let mut rm = ResourceManager::new();
        rm.register_app(0, QueueKind::Default);
        rm.register_app(1, QueueKind::Production);
        rm.register_app(2, QueueKind::Default);
        rm.add_asks(0, 2);
        rm.add_asks(1, 1);
        rm.add_asks(2, 1);
        assert_eq!(rm.pending(QueueKind::Default), 3);
        assert_eq!(rm.pending(QueueKind::Production), 1);
        // Production first, then default in registration order.
        assert_eq!(rm.next_grant(), Some(1));
        assert_eq!(rm.next_grant(), Some(0));
        assert_eq!(rm.next_grant(), Some(0));
        assert_eq!(rm.next_grant(), Some(2));
        assert_eq!(rm.next_grant(), None);
        assert_eq!(rm.asks_of(0), 0);
    }

    /// The linear-scan scheduler the indexed one replaced: every query
    /// walks all registered apps in FIFO order.
    #[derive(Default)]
    struct NaiveRm {
        queue_of: Vec<QueueKind>,
        asks: Vec<u32>,
        order: Vec<u32>,
    }

    impl NaiveRm {
        fn register_app(&mut self, app: u32, queue: QueueKind) {
            self.queue_of.push(queue);
            self.asks.push(0);
            self.order.push(app);
        }

        fn add_asks(&mut self, app: u32, n: u32) {
            self.asks[app as usize] += n;
        }

        fn pending(&self, queue: QueueKind) -> u32 {
            self.order
                .iter()
                .filter(|&&a| self.queue_of[a as usize] == queue)
                .map(|&a| self.asks[a as usize])
                .sum()
        }

        fn peek_grant(&self) -> Option<u32> {
            for queue in [QueueKind::Production, QueueKind::Default] {
                for &app in &self.order {
                    if self.queue_of[app as usize] == queue && self.asks[app as usize] > 0 {
                        return Some(app);
                    }
                }
            }
            None
        }

        fn next_grant(&mut self) -> Option<u32> {
            let app = self.peek_grant()?;
            self.asks[app as usize] -= 1;
            Some(app)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The indexed scheduler agrees with the linear scan on every
        /// return value and on both queues' pending totals after every
        /// step of a random register/ask/peek/grant sequence.
        #[test]
        fn indexed_rm_matches_linear_scan(seed in proptest::prelude::any::<u64>()) {
            let mut rng = cbp_simkit::SimRng::seed_from_u64(seed);
            let mut rm = ResourceManager::new();
            let mut naive = NaiveRm::default();
            let mut apps = 0u32;
            for step in 0..300 {
                let op = if apps == 0 { 0 } else { rng.index(5) };
                match op {
                    0 if apps < 40 => {
                        let queue = if rng.chance(0.3) {
                            QueueKind::Production
                        } else {
                            QueueKind::Default
                        };
                        rm.register_app(apps, queue);
                        naive.register_app(apps, queue);
                        apps += 1;
                    }
                    0 | 1 => {
                        let app = rng.index(apps as usize) as u32;
                        let n = if rng.chance(0.3) { 0 } else { rng.range_u64(1, 4) as u32 };
                        rm.add_asks(app, n);
                        naive.add_asks(app, n);
                    }
                    2 => proptest::prop_assert_eq!(
                        rm.peek_grant(),
                        naive.peek_grant(),
                        "seed {}, step {}: peek_grant",
                        seed,
                        step
                    ),
                    _ => proptest::prop_assert_eq!(
                        rm.next_grant(),
                        naive.next_grant(),
                        "seed {}, step {}: next_grant",
                        seed,
                        step
                    ),
                }
                for queue in [QueueKind::Production, QueueKind::Default] {
                    proptest::prop_assert_eq!(
                        rm.pending(queue),
                        naive.pending(queue),
                        "seed {}, step {}: pending({:?})",
                        seed,
                        step,
                        queue
                    );
                }
                for app in 0..apps {
                    proptest::prop_assert_eq!(
                        rm.asks_of(app),
                        naive.asks[app as usize],
                        "seed {}, step {}: asks_of({})",
                        seed,
                        step,
                        app
                    );
                }
            }
        }
    }

    #[test]
    fn cost_aware_victims_cheapest_first() {
        let victims =
            ResourceManager::select_victims(vec![(10.0, 1), (2.0, 2), (5.0, 3), (2.0, 0)], 3);
        assert_eq!(victims, vec![0, 2, 3]);
    }

    #[test]
    fn am_launch_queue_resumes_preempted_first() {
        let specs = vec![spec(60), spec(60), spec(60)];
        let mut am = AppMaster::new(0, QueueKind::Default, SimTime::ZERO, &specs);
        assert_eq!(am.next_launch(), Some(0));
        assert_eq!(am.next_launch(), Some(1));
        // Preempted task 0 jumps ahead of the fresh task 2.
        am.requeue(0);
        assert_eq!(am.next_launch(), Some(0));
        assert_eq!(am.next_launch(), Some(2));
        assert_eq!(am.next_launch(), None);
        assert_eq!(am.unfinished, 3);
    }

    #[test]
    fn rm_peek_does_not_consume() {
        let mut rm = ResourceManager::new();
        rm.register_app(0, QueueKind::Default);
        rm.add_asks(0, 1);
        assert_eq!(rm.peek_grant(), Some(0));
        assert_eq!(rm.peek_grant(), Some(0));
        assert_eq!(rm.asks_of(0), 1);
        assert_eq!(rm.next_grant(), Some(0));
        assert_eq!(rm.peek_grant(), None);
    }

    #[test]
    #[should_panic(expected = "densely")]
    fn rm_rejects_sparse_registration() {
        let mut rm = ResourceManager::new();
        rm.register_app(1, QueueKind::Default);
    }

    #[test]
    fn rm_queue_of() {
        let mut rm = ResourceManager::new();
        rm.register_app(0, QueueKind::Production);
        rm.register_app(1, QueueKind::Default);
        assert_eq!(rm.queue_of(0), QueueKind::Production);
        assert_eq!(rm.queue_of(1), QueueKind::Default);
    }

    #[test]
    fn mapreduce_am_releases_reduces_after_last_map() {
        let specs = vec![spec(60), spec(60), spec(90), spec(90)];
        let mut am = AppMaster::new_with_barrier(0, QueueKind::Default, SimTime::ZERO, &specs, 2);
        // Only the two maps are launchable.
        assert_eq!(am.next_launch(), Some(0));
        assert_eq!(am.next_launch(), Some(1));
        assert_eq!(am.next_launch(), None);
        // First map done: nothing released yet.
        assert_eq!(am.on_task_done(0), 0);
        assert_eq!(am.next_launch(), None);
        // Last map done: both reduces released.
        assert_eq!(am.on_task_done(1), 2);
        assert_eq!(am.next_launch(), Some(2));
        assert_eq!(am.next_launch(), Some(3));
        assert_eq!(am.unfinished, 2);
        assert_eq!(am.on_task_done(2), 0);
        assert_eq!(am.on_task_done(3), 0);
        assert_eq!(am.unfinished, 0);
    }

    #[test]
    #[should_panic(expected = "non-empty phases")]
    fn barrier_must_split_phases() {
        let specs = vec![spec(60)];
        AppMaster::new_with_barrier(0, QueueKind::Default, SimTime::ZERO, &specs, 1);
    }
}
