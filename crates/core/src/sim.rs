//! The trace-driven cluster scheduling simulator.
//!
//! One [`ClusterSim`] runs one [`Workload`] under one [`SimConfig`]. The
//! scheduler is priority-based (the paper's system model, §3.1): pending
//! tasks are served highest priority first, FIFO within a priority; when a
//! task cannot be placed, lower-priority running tasks are preempted
//! according to the configured [`PreemptionPolicy`].

use std::cmp::Reverse;

use cbp_cluster::{Container, ContainerId, EnergyMeter, Node, NodeId, Resources};
use cbp_dfs::DfsCluster;
use cbp_faults::FaultPlan;
use cbp_simkit::{
    run_until_observed, EventQueue, RunStats, SimDuration, SimRng, SimTime, Simulation,
};
use cbp_telemetry::{MetricsRegistry, PreemptAction, TimeSeries, TraceRecord, Tracer};
use cbp_workload::{Priority, PriorityBand, TaskSpec, Workload};

use crate::ckpt_path::{CkptPath, DumpEnd, NodeCost, RestoreEnd};
use crate::config::{PreemptionPolicy, RestorePlacement, SimConfig, VictimSelection};
use crate::fault_clock::{FaultClock, FaultHost, FaultTick};
use crate::metrics::{PassWork, Recorder, RunReport, TelemetryReport};
use crate::pending::{PendingKey, PendingQueue, Pos, Queued};
use crate::task::{TaskMap, TaskState, TaskStatus};

/// Periodic sim-time probe state (see [`ClusterSim::enable_sampling`]).
struct Sampler {
    interval: SimDuration,
    next: SimTime,
    /// Cumulative device busy seconds at the previous sample, per node
    /// (used to derive a per-interval busy fraction).
    prev_busy: Vec<f64>,
    series: TimeSeries,
}

/// Simulation events (public because it is [`ClusterSim`]'s associated
/// [`Simulation::Event`] type; not intended for direct construction).
#[derive(Debug, Clone, Copy)]
pub enum Event {
    /// A job's tasks enter the pending queue.
    JobSubmit(u32),
    /// A running task completes (stale if the epoch moved on).
    TaskFinish { task: u32, epoch: u32 },
    /// A checkpoint dump finished; the victim's resources can be released.
    DumpDone {
        task: u32,
        epoch: u32,
        started: SimTime,
    },
    /// A restore finished; the task resumes execution.
    RestoreDone {
        task: u32,
        epoch: u32,
        started: SimTime,
    },
    /// A node fails: every container on it is lost.
    NodeFail(u32),
    /// A failed node comes back into service.
    NodeRecover(u32),
    /// A tick of the fault plan's schedules (see [`FaultTick`]).
    Fault(FaultTick),
}

struct NodeSlot {
    node: Node,
    meter: EnergyMeter,
    /// False while the node is failed.
    up: bool,
}

/// The simulator. Most users go through [`SimConfig::run`]; constructing a
/// `ClusterSim` directly is useful for stepping or inspecting state in
/// tests.
pub struct ClusterSim {
    cfg: SimConfig,
    workload: Workload,
    nodes: Vec<NodeSlot>,
    tasks: Vec<TaskState>,
    pending: PendingQueue,
    /// Checkpoint images or NVRAM mirrors, devices, DFS files, retry state
    /// and breakers.
    ckpt: CkptPath,
    rng: SimRng,
    next_container: u64,
    next_seq: u32,
    /// Capacity earmarked for a blocked task while its victims drain:
    /// owner task → reservation. Prevents both duplicate preemption rounds
    /// and backfill stealing the capacity a dump is freeing.
    reservations: TaskMap<Reservation>,
    /// Dumping victim → the blocked task its drain serves.
    drain_owner: TaskMap<u32>,
    /// Per-node sum of reservation amounts.
    node_reserved: Vec<Resources>,
    job_remaining: Vec<u32>,
    /// Jobs with unfinished tasks (the count of non-zero `job_remaining`).
    jobs_left: usize,
    /// Task handle of each job's first task, plus the total task count:
    /// job `j` owns handles `job_first_task[j]..job_first_task[j + 1]`.
    job_first_task: Vec<usize>,
    place_cursor: usize,
    /// Count of the reservations whose drains have all completed.
    drained: usize,
    /// Per-node, per-priority demand of the Running tasks: the victims a
    /// search can take.
    victims: VictimSums,
    /// Pass-scoped Pareto front of per-node free capacity (see
    /// [`FreeFront`]), rebuilt in place once a placement, cancel or
    /// preemption made it stale (`free_front_ok` false).
    free_front: FreeFront,
    free_front_ok: bool,
    /// Pass-scoped Pareto front of what a search at one priority could
    /// reach per up node, free plus victim capacity (see
    /// [`ClusterSim::reach_front`]), and the priority it was built for;
    /// `None` once stale, which it goes with `free_front`.
    reach: FreeFront,
    reach_at: Option<Priority>,
    /// The run's ledger, and the tracer when one is attached.
    rec: Recorder,
    /// Periodic time-series probe (absent unless enabled).
    sampler: Option<Sampler>,
    /// Pending-queue depth after the previous event (for change records).
    last_queue_depth: usize,
    /// The fault plan and its crash, partition and leak schedules.
    clock: FaultClock,
    /// What the scheduling passes did, counted exactly.
    work: PassWork,
    /// A search's ranked victims on one node, `(cost, task, container)`:
    /// a buffer reused across searches.
    ranked: Vec<(f64, u32, ContainerId)>,
    /// Walk the pending queue one key at a time, never jumping a chunk
    /// (the reference the chunked walk is checked against).
    #[cfg(any(test, debug_assertions))]
    reference_walk: bool,
}

/// A victim a preemption search takes: its task and its container.
type Victim = (u32, ContainerId);

#[derive(Debug, Clone, Copy)]
struct Reservation {
    node: usize,
    amount: Resources,
    drains_left: u32,
}

/// What one pending key does in a pass with no preemption search left
/// (see [`ClusterSim::idle_visit`]).
enum Visit {
    /// Nothing.
    Idle,
    /// Nothing but restore placement's RNG draw.
    Draw,
    /// It may place, or it cancels a drained reservation.
    Act,
}

/// Where [`ClusterSim::jump`] left the walk.
enum Jumped {
    /// The scan limit cut the run: the pass is over.
    Limit,
    /// At the end of the chunk.
    Whole,
    /// At this position of the chunk, on a key whose visit must decide.
    To(usize),
}

/// The Pareto front of a set of free-capacity vectors: the vectors no
/// other vector beats in both cpu and memory, sorted by cpu descending
/// (and therefore memory ascending). "Does `d` fit in any of the vectors"
/// is then one binary search instead of a scan.
#[derive(Debug, Default)]
struct FreeFront {
    points: Vec<Resources>,
}

impl FreeFront {
    /// Makes this the front of `free`, reusing the buffer.
    fn rebuild(&mut self, free: impl IntoIterator<Item = Resources>) {
        let points = &mut self.points;
        points.clear();
        points.extend(free);
        points.sort_unstable_by_key(|r| Reverse((r.cpu_milli(), r.mem())));
        // Sweeping by cpu descending, a vector is on the front iff it has
        // more memory than every vector before it.
        let mut kept = 0;
        for at in 0..points.len() {
            let r = points[at];
            if kept == 0 || r.mem() > points[kept - 1].mem() {
                points[kept] = r;
                kept += 1;
            }
        }
        points.truncate(kept);
    }

    /// True if `demand` fits in at least one of the vectors.
    fn fits(&self, demand: &Resources) -> bool {
        // The vectors with enough cpu are a prefix; its last one has the
        // most memory among them.
        let k = self
            .points
            .partition_point(|p| p.cpu_milli() >= demand.cpu_milli());
        k > 0 && demand.mem() <= self.points[k - 1].mem()
    }
}

/// The demand of each node's Running tasks, summed per priority, so what
/// a search below a priority can take from a node is a short prefix sum.
#[derive(Debug)]
struct VictimSums {
    /// Priorities kept per node: one past the workload's highest.
    levels: usize,
    /// `sums[node * levels + p]`: the demand of node's Running tasks of
    /// priority `p`.
    sums: Vec<Resources>,
}

impl VictimSums {
    fn new(nodes: usize, levels: usize) -> Self {
        VictimSums {
            levels,
            sums: vec![Resources::ZERO; nodes * levels],
        }
    }

    fn add(&mut self, node: usize, p: Priority, demand: Resources) {
        self.sums[node * self.levels + p.0 as usize] += demand;
    }

    fn remove(&mut self, node: usize, p: Priority, demand: Resources) {
        self.sums[node * self.levels + p.0 as usize] -= demand;
    }

    /// The demand of node's Running tasks below priority `p`.
    fn below(&self, node: usize, p: Priority) -> Resources {
        let row = &self.sums[node * self.levels..][..self.levels];
        row[..(p.0 as usize).min(self.levels)].iter().copied().sum()
    }
}

impl ClusterSim {
    /// Builds a simulator for `workload` under `cfg`.
    pub fn new(cfg: SimConfig, workload: Workload) -> Self {
        let n_nodes = cfg.nodes;
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let faults = cfg
            .faults
            .clone()
            .filter(|spec| !spec.is_inert())
            .map(FaultPlan::new);
        let nodes = (0..cfg.nodes)
            .map(|i| NodeSlot {
                node: Node::new(NodeId(i as u32), cfg.node_resources),
                meter: EnergyMeter::new(cfg.energy),
                up: true,
            })
            .collect();
        let dfs = cfg.via_dfs.then(|| {
            DfsCluster::homogeneous(cfg.dfs, cfg.media, cfg.nodes, rng.fork(0xD0F5).next_u64())
        });

        let mut tasks = Vec::with_capacity(workload.task_count());
        let mut job_remaining = Vec::with_capacity(workload.job_count());
        let mut job_first_task = Vec::with_capacity(workload.job_count() + 1);
        for (job_idx, job) in workload.jobs().iter().enumerate() {
            job_remaining.push(job.tasks.len() as u32);
            job_first_task.push(tasks.len());
            for spec in &job.tasks {
                let spec = clamp_to_node(*spec, cfg.node_resources);
                tasks.push(TaskState::new(
                    spec,
                    job.priority,
                    job_idx as u32,
                    job.submit,
                ));
            }
        }
        job_first_task.push(tasks.len());
        let jobs_left = job_remaining.iter().filter(|&&r| r > 0).count();
        let levels = workload
            .jobs()
            .iter()
            .map(|job| job.priority.0 as usize + 1)
            .max()
            .unwrap_or(0);

        // A pressure plan shrinks every node's checkpoint device before the
        // run starts (the fleet was provisioned smaller than the workload
        // needs); leak injection on top happens via `FaultTick::Pressure`.
        let ckpt = cfg.ckpt_path(dfs, faults.as_ref());
        ClusterSim {
            ckpt,
            clock: FaultClock::new(faults, n_nodes),
            cfg,
            workload,
            nodes,
            tasks,
            pending: PendingQueue::default(),
            rng,
            next_container: 1,
            next_seq: 0,
            reservations: TaskMap::default(),
            drain_owner: TaskMap::default(),
            node_reserved: vec![Resources::ZERO; n_nodes],
            job_remaining,
            jobs_left,
            job_first_task,
            place_cursor: 0,
            drained: 0,
            victims: VictimSums::new(n_nodes, levels),
            free_front: FreeFront::default(),
            free_front_ok: false,
            reach: FreeFront::default(),
            reach_at: None,
            rec: Recorder::default(),
            sampler: None,
            last_queue_depth: 0,
            work: PassWork::default(),
            ranked: Vec::new(),
            #[cfg(any(test, debug_assertions))]
            reference_walk: false,
        }
    }

    /// Replaces the structured-event tracer. The default is a
    /// [`NullTracer`](cbp_telemetry::NullTracer); pass a `JsonlTracer` /
    /// `ChromeTraceTracer` / `MultiTracer` to capture the run. The tracer's `finish()` is called
    /// at the end of [`ClusterSim::run`].
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.rec.set_tracer(tracer);
    }

    /// Enables the periodic time-series probe: every `interval` of sim
    /// time the simulator records cluster utilization, pending-queue depth
    /// per band, checkpoint-storage occupancy per node and device busy
    /// fraction. The series is returned in `RunReport.telemetry`.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_sampling(&mut self, interval: SimDuration) {
        assert!(!interval.is_zero(), "sampling interval must be non-zero");
        self.sampler = Some(Sampler {
            interval,
            next: SimTime::ZERO,
            prev_busy: vec![0.0; self.nodes.len()],
            series: TimeSeries::new(),
        });
    }

    fn schedule_next_failure(&mut self, node: usize, now: SimTime, q: &mut EventQueue<Event>) {
        // Once the workload has drained, stop injecting failures —
        // otherwise the fail/recover chain regenerates events forever and
        // the run never terminates.
        if self.jobs_left == 0 {
            return;
        }
        if let Some(mtbf) = self.cfg.failure_mtbf_per_node {
            let gap = cbp_simkit::dist::Dist::Exp {
                mean: mtbf.as_secs_f64(),
            }
            .sample(&mut self.rng);
            q.push(
                now + SimDuration::from_secs_f64(gap),
                Event::NodeFail(node as u32),
            );
        }
    }

    /// The events a run starts from: job submissions, the first node
    /// failures and the fault plan's first ticks.
    fn initial_events(&mut self) -> EventQueue<Event> {
        let mut queue = EventQueue::with_capacity(self.tasks.len() * 2);
        for (job_idx, job) in self.workload.jobs().iter().enumerate() {
            queue.push(job.submit, Event::JobSubmit(job_idx as u32));
        }
        if self.cfg.failure_mtbf_per_node.is_some() {
            for node in 0..self.cfg.nodes {
                self.schedule_next_failure(node, SimTime::ZERO, &mut queue);
            }
        }
        self.start_fault_clock(&mut queue);
        queue
    }

    /// Runs the workload to completion and returns the report.
    pub fn run(mut self) -> RunReport {
        let mut queue = self.initial_events();
        let stats = run_until_observed(&mut self, &mut queue, SimTime::MAX, &mut |_| {});
        let makespan = stats.now;
        self.rec.finish();

        let energy_kwh: f64 = self.nodes.iter().map(|n| n.meter.kwh(makespan)).sum();
        let telemetry = TelemetryReport {
            registry: self.build_registry(energy_kwh, &stats),
            timeseries: self.sampler.take().map(|s| s.series),
            engine_events: stats.events,
            engine_wall_secs: stats.wall.as_secs_f64(),
            pass_work: Some(self.work),
        };
        RunReport {
            label: format!("{}-{}", self.cfg.policy, self.cfg.media.kind()),
            metrics: self
                .rec
                .ledger
                .into_metrics(makespan, energy_kwh, &self.ckpt),
            telemetry,
        }
    }

    /// Snapshots every `subsystem.metric` this run tracked into a
    /// [`MetricsRegistry`].
    ///
    /// Everything registered here is a pure function of the simulation
    /// state, so the registry JSON is byte-stable across runs with the
    /// same seed (wall-clock engine throughput lives on
    /// [`TelemetryReport`] instead).
    fn build_registry(&self, energy_kwh: f64, stats: &RunStats) -> MetricsRegistry {
        let m = &self.rec.ledger;
        let c = m.counts();
        let mut reg = MetricsRegistry::new();
        self.ckpt.export(&mut reg, stats.now);
        m.export(&mut reg, stats, energy_kwh);
        reg.set_counter("scheduler.preemptions", "ops", c.kills + c.checkpoints);
        reg.set_counter("scheduler.failure_evictions", "ops", c.failure_evictions);
        reg.set_counter(
            "scheduler.images_lost_to_failures",
            "ops",
            m.images_lost_to_failures,
        );
        reg.set_counter("faults.dump_fail_retries", "ops", c.dump_fail_retries);
        reg.set_counter("faults.restore_fail_retries", "ops", c.restore_fail_retries);
        reg.set_counter("faults.scratch_restarts", "ops", c.scratch_restarts);
        reg.set_counter("dfs.blocks_repaired", "blocks", c.dfs_blocks_repaired);
        reg.set_counter("dfs.repair_bytes", "bytes", c.dfs_repair_bytes);
        reg.set_counter("dfs.blocks_lost", "blocks", m.dfs_blocks_lost);
        reg
    }

    // ---- telemetry probes ----------------------------------------------

    /// Records every due sample up to (and including) `now`. Samples are
    /// timestamped at their exact interval boundary and reflect the state
    /// *before* the event at `now` is processed, so the series is a pure
    /// function of the event stream (deterministic per seed).
    fn sample_up_to(&mut self, now: SimTime) {
        let Some(mut s) = self.sampler.take() else {
            return;
        };
        while s.next <= now {
            let t = s.next;
            self.record_sample(&mut s, t);
            s.next = t + s.interval;
        }
        self.sampler = Some(s);
    }

    fn record_sample(&mut self, s: &mut Sampler, t: SimTime) {
        let n = self.nodes.len();
        let mut util_sum = 0.0;
        let mut up_nodes = 0usize;
        let mut ckpt = Vec::with_capacity(n);
        let mut busy = Vec::with_capacity(n);
        for (i, slot) in self.nodes.iter().enumerate() {
            if slot.up {
                util_sum += slot.node.cpu_utilization();
                up_nodes += 1;
            }
            let device = self.ckpt.device(i);
            ckpt.push(device.used_fraction());
            let total = device.busy_time().as_secs_f64();
            let delta = (total - s.prev_busy[i]).max(0.0);
            s.prev_busy[i] = total;
            busy.push((delta / s.interval.as_secs_f64()).min(1.0));
        }
        let utilization = if up_nodes == 0 {
            0.0
        } else {
            util_sum / up_nodes as f64
        };
        let ckpt_mean = if n == 0 {
            0.0
        } else {
            ckpt.iter().sum::<f64>() / n as f64
        };
        let busy_mean = if n == 0 {
            0.0
        } else {
            busy.iter().sum::<f64>() / n as f64
        };
        let (mut free, mut middle, mut production) = (0u64, 0u64, 0u64);
        for q in self.pending.iter() {
            match Priority(q.key.0 .0).band() {
                PriorityBand::Free => free += 1,
                PriorityBand::Middle => middle += 1,
                PriorityBand::Production => production += 1,
            }
        }
        s.series.push(
            t.as_micros(),
            &[
                ("ckpt_used_frac_mean", ckpt_mean),
                ("dev_busy_frac_mean", busy_mean),
                ("pending_free", free as f64),
                ("pending_middle", middle as f64),
                ("pending_production", production as f64),
                ("pending_total", (free + middle + production) as f64),
                ("utilization", utilization),
            ],
            &[("ckpt_used_frac", &ckpt), ("dev_busy_frac", &busy)],
        );
    }

    // ---- helpers -------------------------------------------------------

    fn task_handle_range(&self, job_idx: u32) -> std::ops::Range<usize> {
        let j = job_idx as usize;
        self.job_first_task[j]..self.job_first_task[j + 1]
    }

    fn enqueue_pending(&mut self, t: u32) {
        // Re-queued (preempted) tasks keep their first sequence number, so
        // they stay ahead of later same-priority arrivals and their images
        // are restored — and discarded — promptly.
        if self.tasks[t as usize].queue_seq.is_none() {
            self.tasks[t as usize].queue_seq = Some(self.next_seq);
            self.next_seq += 1;
        }
        self.set_status(t, TaskStatus::Pending);
        self.pending.insert(Queued {
            key: self.pending_key(t),
            demand: self.tasks[t as usize].exec.spec.resources,
            ckpt: self.has_checkpoint(t),
        });
    }

    /// The key task `t` is (or would be) queued under.
    fn pending_key(&self, t: u32) -> PendingKey {
        let task = &self.tasks[t as usize];
        let fair = match self.cfg.queue_discipline {
            crate::config::QueueDiscipline::Fifo => 0,
            crate::config::QueueDiscipline::Fair => task.exec.spec.id.index,
        };
        let seq = task.queue_seq.expect("queued tasks have a sequence number");
        (Reverse(task.priority.0), fair, seq, t)
    }

    fn update_meter(&mut self, node: usize, now: SimTime) {
        let util = self.nodes[node].node.cpu_utilization();
        self.nodes[node].meter.set_utilization(now, util);
    }

    fn max_available(&self) -> Resources {
        let mut cpu = 0u64;
        let mut mem = cbp_simkit::units::ByteSize::ZERO;
        for slot in &self.nodes {
            if !slot.up {
                continue;
            }
            let a = slot.node.available();
            cpu = cpu.max(a.cpu_milli());
            mem = mem.max(a.mem());
        }
        Resources::new(cpu, mem)
    }

    /// Free capacity of node `i` from task `t`'s point of view: physical
    /// availability minus capacity earmarked for *other* blocked tasks.
    fn free_for(&self, i: usize, t: u32) -> Resources {
        match self.own_reservation(t) {
            Some(r) if r.node == i && self.nodes[i].up => {
                let reserved = self.node_reserved[i].saturating_sub(&r.amount);
                self.nodes[i].node.available().saturating_sub(&reserved)
            }
            _ => self.unreserved_free(i),
        }
    }

    /// Free capacity of node `i` for a task holding no reservation.
    fn unreserved_free(&self, i: usize) -> Resources {
        if !self.nodes[i].up {
            return Resources::ZERO;
        }
        self.nodes[i]
            .node
            .available()
            .saturating_sub(&self.node_reserved[i])
    }

    fn can_place(&self, i: usize, t: u32, demand: &Resources) -> bool {
        demand.fits_in(&self.free_for(i, t))
    }

    /// The reservation `t` holds, if any. The map is probed only when it
    /// is non-empty.
    fn own_reservation(&self, t: u32) -> Option<&Reservation> {
        if self.reservations.is_empty() {
            None
        } else {
            self.reservations.get(&t)
        }
    }

    /// Reference answer of [`ClusterSim::fits_some_node`]: the full node
    /// scan.
    fn any_node_fits(&self, t: u32, demand: &Resources) -> bool {
        (0..self.nodes.len()).any(|i| self.can_place(i, t, demand))
    }

    /// Drops the pass's capacity fronts after free capacity, a
    /// reservation or the set of victims changed.
    fn drop_fronts(&mut self) {
        self.free_front_ok = false;
        self.reach_at = None;
    }

    /// Rebuilds the pass's free-capacity front if it went stale.
    fn build_free_front(&mut self) {
        if !self.free_front_ok {
            let mut front = std::mem::take(&mut self.free_front);
            front.rebuild((0..self.nodes.len()).map(|i| self.unreserved_free(i)));
            self.free_front = front;
            self.free_front_ok = true;
        }
    }

    /// [`ClusterSim::fits_some_node`] once the front is built. A
    /// reservation holder sees its own earmark as free, which the front
    /// does not, so its own node is asked too: elsewhere it sees what the
    /// front holds.
    fn front_fits(&self, t: u32, demand: &Resources) -> bool {
        debug_assert!(self.free_front_ok, "front built first");
        let fits = self.free_front.fits(demand)
            || self
                .own_reservation(t)
                .is_some_and(|r| self.can_place(r.node, t, demand));
        debug_assert_eq!(fits, self.any_node_fits(t, demand), "free front is stale");
        fits
    }

    /// Exact "does `demand` fit on some node from `t`'s point of view".
    fn fits_some_node(&mut self, t: u32, demand: &Resources) -> bool {
        self.build_free_front();
        self.front_fits(t, demand)
    }

    fn cancel_reservation(&mut self, t: u32) {
        if let Some(r) = self.reservations.remove(&t) {
            self.node_reserved[r.node] = self.node_reserved[r.node].saturating_sub(&r.amount);
            self.drained -= usize::from(r.drains_left == 0);
            // A holder placed has left the queue already.
            self.pending.set_holder(&self.pending_key(t), false);
            self.drop_fronts();
        }
    }

    /// Earmarks `r` for pending task `t`.
    fn reserve(&mut self, t: u32, r: Reservation) {
        self.node_reserved[r.node] += r.amount;
        self.drained += usize::from(r.drains_left == 0);
        let queued = self.pending.set_holder(&self.pending_key(t), true);
        debug_assert!(queued, "{t} reserves while not queued");
        let old = self.reservations.insert(t, r);
        debug_assert!(old.is_none(), "{t} already holds a reservation");
    }

    /// Credits the completed (or abandoned) drain of victim `v` to the
    /// blocked task it was serving.
    fn credit_drain(&mut self, v: u32) {
        let Some(owner) = self.drain_owner.remove(&v) else {
            return;
        };
        if let Some(r) = self.reservations.get_mut(&owner) {
            if r.drains_left > 0 {
                r.drains_left -= 1;
                self.drained += usize::from(r.drains_left == 0);
            }
        }
    }

    /// Moves task `t` to `status`, keeping the victim sums in step when it
    /// enters or leaves `Running`. Every status change goes through here.
    fn set_status(&mut self, t: u32, status: TaskStatus) {
        let task = &mut self.tasks[t as usize];
        let old = std::mem::replace(&mut task.exec.status, status);
        if let TaskStatus::Running { node, .. } = old {
            self.victims
                .remove(node as usize, task.priority, task.exec.spec.resources);
        }
        if let TaskStatus::Running { node, .. } = status {
            self.victims
                .add(node as usize, task.priority, task.exec.spec.resources);
        }
    }

    /// First-fit node for a fresh (non-checkpointed) task, round-robin.
    fn choose_fresh_node(&mut self, t: u32, demand: &Resources) -> Option<usize> {
        if !self.fits_some_node(t, demand) {
            return None;
        }
        let n = self.nodes.len();
        for k in 0..n {
            let i = (self.place_cursor + k) % n;
            if self.can_place(i, t, demand) {
                self.place_cursor = (i + 1) % n;
                return Some(i);
            }
        }
        None
    }

    /// True if `t` can resume from a checkpoint.
    fn has_checkpoint(&self, t: u32) -> bool {
        self.ckpt.has_image(handle_u64(t))
    }

    /// True if a checkpointed task can resume only on its origin node.
    fn restore_is_local(&self) -> bool {
        self.ckpt.restore_is_local(self.cfg.restore_placement)
    }

    /// Algorithm 2: pick the restore node with the lowest total overhead.
    fn choose_restore_node(&mut self, t: u32, now: SimTime) -> Option<usize> {
        let task = &self.tasks[t as usize].exec;
        let origin = match task.status {
            TaskStatus::Checkpointed { origin } => origin as usize,
            _ => unreachable!("choose_restore_node on non-checkpointed task"),
        };
        let demand = task.spec.resources;
        let origin_fits = self.can_place(origin, t, &demand);
        if self.restore_is_local() {
            return origin_fits.then_some(origin);
        }

        // Cost-aware: evaluate the origin plus a bounded sample of feasible
        // remote nodes (evaluating every node's DFS read plan would be
        // quadratic in cluster size for no modelling benefit).
        let mut candidates: Vec<usize> = Vec::new();
        if origin_fits {
            candidates.push(origin);
        }
        let n = self.nodes.len();
        // The draw happens whether or not any node fits: it is part of the
        // run's RNG stream.
        let start = self.rng.index(n);
        if !origin_fits && !self.fits_some_node(t, &demand) {
            return None;
        }
        for k in 0..n {
            if candidates.len() >= 5 {
                break;
            }
            let i = (start + k) % n;
            if i != origin && self.can_place(i, t, &demand) {
                candidates.push(i);
            }
        }
        candidates
            .into_iter()
            .map(|i| {
                let cost = self.restore_cost(t, i, now);
                (cost, i)
            })
            .min_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, i)| i)
    }

    /// Algorithm 2's overhead estimate for restoring `t` on node `i`.
    /// Degradation-aware: a stalled device makes its own restores look
    /// expensive, steering cost-aware placement elsewhere, by the same
    /// stall and partition factor the transfers pay.
    fn restore_cost(&self, t: u32, i: usize, now: SimTime) -> SimDuration {
        let queue = self.ckpt.device(i).queue_wait(now);
        let footprint = self.tasks[t as usize].exec.spec.resources.mem();
        let cost = queue + self.ckpt.restore_service(handle_u64(t), footprint, i);
        let factor = self.clock.device_factor(i, now);
        if factor > 1.0 {
            cost.mul_f64(factor)
        } else {
            cost
        }
    }

    // ---- lifecycle transitions -----------------------------------------

    fn place_task(&mut self, t: u32, node: usize, now: SimTime, q: &mut EventQueue<Event>) {
        let cid = ContainerId(self.next_container);
        self.next_container += 1;
        let demand = self.tasks[t as usize].exec.spec.resources;
        self.nodes[node]
            .node
            .allocate(Container::new(cid, demand, t as u64))
            .expect("placement checked can_fit before allocating");
        self.drop_fronts();
        self.update_meter(node, now);
        self.cancel_reservation(t);

        let key = handle_u64(t);
        let restore_from = match self.tasks[t as usize].exec.status {
            TaskStatus::Checkpointed { origin } if self.ckpt.has_image(key) => Some(origin),
            _ => None,
        };
        self.rec.record(
            now.as_micros(),
            TraceRecord::TaskSchedule {
                task: key,
                node: node as u32,
                restore: restore_from.is_some(),
            },
        );
        if let Some(origin) = restore_from {
            // Resume from checkpoint: read the image chain (or copy the
            // NVRAM mirror) first. A stall window on the reading device
            // slows the read.
            let span = self.ckpt.start_restore(
                key,
                node,
                origin,
                &self.tasks[t as usize].exec,
                &|i| self.clock.device_factor(i, now),
                now,
                &mut self.rec,
            );
            self.set_status(
                t,
                TaskStatus::Restoring {
                    node: node as u32,
                    container: cid,
                },
            );
            let epoch = self.tasks[t as usize].exec.epoch;
            // `started` is the service start: queue wait burns no CPU.
            q.push(
                span.end,
                Event::RestoreDone {
                    task: t,
                    epoch,
                    started: span.start,
                },
            );
        } else {
            self.set_status(
                t,
                TaskStatus::Running {
                    node: node as u32,
                    container: cid,
                },
            );
            let task = &mut self.tasks[t as usize].exec;
            task.run_started = now;
            task.mem_synced = now;
            let epoch = task.epoch;
            let finish = now + task.remaining();
            q.push(finish, Event::TaskFinish { task: t, epoch });
        }
    }

    fn release_container(&mut self, t: u32, now: SimTime) {
        let (node, cid) = match self.tasks[t as usize].exec.status {
            TaskStatus::Running { node, container }
            | TaskStatus::Dumping { node, container }
            | TaskStatus::Restoring { node, container } => (node as usize, container),
            _ => return,
        };
        self.nodes[node]
            .node
            .release(cid)
            .expect("container must be on its node");
        self.update_meter(node, now);
    }

    /// Kills `t` (a Running victim): progress since the last checkpoint is
    /// lost; the task re-queues (from its image if it has one).
    fn kill_task(&mut self, t: u32, node: usize, now: SimTime) {
        self.tasks[t as usize].exec.sync_progress(now);
        self.evict(t, node, "kill", now);
        self.release_container(t, now);
        self.roll_back_and_requeue(t);
    }

    /// Records `t`'s eviction from `node` for `reason` and charges the
    /// progress it had at risk as re-execution waste.
    fn evict(&mut self, t: u32, node: usize, reason: &'static str, now: SimTime) {
        let task = &self.tasks[t as usize].exec;
        let cores = task.spec.resources.cores_f64();
        self.rec.ledger.kill_lost_cpu_secs += task.progress_at_risk().as_secs_f64() * cores;
        self.rec.record(
            now.as_micros(),
            TraceRecord::TaskEvict {
                task: t as u64,
                node: node as u32,
                reason,
            },
        );
    }

    /// Rolls `t` back to its newest checkpoint after a kill, a failed
    /// drain or an eviction, and re-queues it: from that checkpoint (a
    /// CRIU chain or an NVRAM mirror) if it has one, else as a fresh start.
    fn roll_back_and_requeue(&mut self, t: u32) {
        let origin = self.ckpt.image_origin(handle_u64(t));
        self.tasks[t as usize].exec.roll_back(origin.is_some());
        let status = origin.map_or(TaskStatus::Pending, |origin| TaskStatus::Checkpointed {
            origin,
        });
        self.set_status(t, status);
        self.enqueue_pending_preserving_status(t);
    }

    /// `enqueue_pending` resets status to Pending; checkpointed tasks keep
    /// their status while queued.
    fn enqueue_pending_preserving_status(&mut self, t: u32) {
        let status = self.tasks[t as usize].exec.status;
        self.enqueue_pending(t);
        if let TaskStatus::Checkpointed { .. } = status {
            self.set_status(t, status);
        }
    }

    // ---- image lifecycle (capacity backpressure ladder) -----------------

    /// Suspends Running victim `t` (in `container` on `node`) with a
    /// checkpoint dump; resources stay held until `DumpDone`. Returns
    /// false if the dump fell back to a kill.
    fn dump_task(
        &mut self,
        t: u32,
        node: usize,
        container: ContainerId,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) -> bool {
        let nodes = &self.nodes;
        let (span, dropped) = self.ckpt.start_dump(
            handle_u64(t),
            node,
            &mut self.tasks,
            &[t],
            // A stall window on the origin device degrades the dump's
            // service time (DFS pipeline and local writes alike).
            &|i| self.clock.device_factor(i, now),
            true,
            self.cfg.lifecycle,
            &|i| nodes[i].up,
            now,
            &mut self.rec,
        );
        for k in dropped {
            self.chain_lost(k as u32);
        }
        let Some(span) = span else {
            self.kill_task(t, node, now);
            return false;
        };
        self.set_status(
            t,
            TaskStatus::Dumping {
                node: node as u32,
                container,
            },
        );
        let epoch = self.tasks[t as usize].exec.epoch;
        // `started` is the device service start (not submission time): the
        // trace's dump span then measures service time, and `start_us -
        // evict time` exposes the checkpoint queue wait to blame analysis.
        q.push(
            span.end,
            Event::DumpDone {
                task: t,
                epoch,
                started: span.start,
            },
        );
        true
    }

    /// Degrades `t` after its chain was dropped (GC, eviction, block
    /// loss): the next dump is full and a queued restore becomes a fresh
    /// start.
    fn chain_lost(&mut self, t: u32) {
        let task = &mut self.tasks[t as usize].exec;
        task.lose_chain();
        if matches!(task.status, TaskStatus::Checkpointed { .. }) {
            // Still queued under its existing key; only the resume mode
            // changes.
            self.set_status(t, TaskStatus::Pending);
        }
    }

    /// Preempts Running victim `v` (in `container` on `node`) according to
    /// the active policy. Returns `true` if its resources were freed
    /// synchronously (kill), `false` if a dump is in flight.
    fn preempt_victim(
        &mut self,
        v: u32,
        node: usize,
        container: ContainerId,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) -> bool {
        let _prof = cbp_prof::scope("preempt_victim");
        let key = handle_u64(v);
        let task = &mut self.tasks[v as usize].exec;
        let action =
            self.ckpt
                .preempt_action(key, node, self.cfg.policy, now, &mut self.rec, |ckpt| {
                    // Only Algorithm 1 reads the current progress and dirty
                    // estimate, so only it syncs them here.
                    task.sync_progress(now);
                    let at_risk = task.progress_at_risk();
                    let mem = task.sync_memory(now);
                    (at_risk, ckpt.dump_overhead(key, mem, node, now))
                });
        match action {
            PreemptAction::Kill => {
                self.kill_task(v, node, now);
                true
            }
            PreemptAction::Checkpoint => !self.dump_task(v, node, container, now, q),
        }
    }

    /// The ranking terms of `node` at `now`: the stall and partition
    /// slowdown of its checkpoint path and, under a fault plan with dump
    /// failures, the expected rewrite multiplier.
    fn node_cost(&self, node: usize, now: SimTime) -> NodeCost {
        // Fault-aware: expected dump rewrites inflate the victim's cost.
        // With chunked resume a retry rewrites only the suffix past the
        // durable frontier — on average half the image — so resumable
        // victims rank cheaper than they would under full rewrites.
        let retry = self.clock.plan().and_then(|plan| {
            let p = plan.spec().dump_fail_prob;
            (p > 0.0).then(|| {
                let expected_retries =
                    (p / (1.0 - p).max(1e-9)).min(plan.max_dump_retries() as f64);
                let rewrite_frac = if plan.resume_enabled() { 0.5 } else { 1.0 };
                1.0 + expected_retries * rewrite_frac
            })
        });
        self.ckpt
            .node_cost(node, now, self.clock.device_factor(node, now), retry)
    }

    /// What preempting every victim of node `i` below `priority` would
    /// free: the sum over its Running tasks of lower priority.
    fn victim_capacity(&self, i: usize, priority: Priority) -> Resources {
        let cap = self.victims.below(i, priority);
        debug_assert_eq!(
            cap,
            self.victim_capacity_scan(i, priority),
            "victim sums are stale"
        );
        cap
    }

    /// Reference answer of [`ClusterSim::victim_capacity`]: the scan of
    /// node `i`'s containers.
    fn victim_capacity_scan(&self, i: usize, priority: Priority) -> Resources {
        self.nodes[i]
            .node
            .containers()
            .map(|c| &self.tasks[c.task() as usize])
            .filter(|task| task.exec.is_preemptible() && task.priority < priority)
            .map(|task| task.exec.spec.resources)
            .sum()
    }

    /// Tries to free enough space for pending task `t` by preempting
    /// lower-priority victims on the best node. Returns `true` if resources
    /// were freed synchronously.
    fn try_preempt_for(&mut self, t: u32, now: SimTime, q: &mut EventQueue<Event>) -> bool {
        if self.own_reservation(t).is_some() {
            return false; // a drain is already in flight for this task
        }
        let demand = self.tasks[t as usize].exec.spec.resources;
        let priority = self.tasks[t as usize].priority;

        // For a checkpointed task under LocalOnly restore, only the origin
        // node is eligible.
        let restrict = match self.tasks[t as usize].exec.status {
            TaskStatus::Checkpointed { origin }
                if self.cfg.restore_placement == RestorePlacement::LocalOnly
                    || !self.ckpt.has_dfs() =>
            {
                Some(origin as usize)
            }
            _ => None,
        };

        let mut best: Option<(f64, usize, Vec<Victim>)> = None;
        for i in 0..self.nodes.len() {
            if !self.nodes[i].up {
                continue;
            }
            if let Some(r) = restrict {
                if i != r {
                    continue;
                }
            }
            let avail = self.free_for(i, t);
            let needed = demand.saturating_sub(&avail);
            if needed.is_zero() {
                continue; // plain placement handles this
            }
            // The greedy loop below takes victims until `needed` fits in
            // what they free, so it succeeds iff all of them together
            // cover `needed`; costing victims is pure, so a node that
            // cannot succeed is skipped unseen.
            if !needed.fits_in(&self.victim_capacity(i, priority)) {
                continue;
            }
            // Every victim costs at least the node's floor, so a node whose
            // floor reaches the best cost so far cannot win (nodes go in
            // index order, so a tie keeps the earlier node).
            let at = self.node_cost(i, now);
            if best.as_ref().is_some_and(|(c, _, _)| at.floor() >= *c) {
                continue;
            }
            // The preemptible lower-priority victims, each with its cost
            // and container, in the order they are taken.
            let victims = self.nodes[i]
                .node
                .containers()
                .map(|c| (c.task() as u32, c.id()))
                .filter(|&(v, _)| {
                    let task = &self.tasks[v as usize];
                    task.exec.is_preemptible() && task.priority < priority
                });
            let mut ranked = std::mem::take(&mut self.ranked);
            ranked.clear();
            ranked.extend(victims.map(|(v, container)| {
                let incremental = self.cfg.incremental && self.has_checkpoint(v);
                let cost =
                    self.ckpt
                        .victim_cost_secs(&self.tasks[v as usize].exec, incremental, &at);
                (cost, v, container)
            }));
            match self.cfg.victim_selection {
                // §5.2.2: lowest checkpoint cost first.
                VictimSelection::CostAware => {
                    ranked.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                }
                // Lowest priority, most recently started first, ties by
                // handle.
                VictimSelection::Naive => ranked.sort_unstable_by_key(|&(_, v, _)| {
                    let task = &self.tasks[v as usize];
                    (task.priority, Reverse(task.exec.run_started), v)
                }),
            }
            let mut freed = Resources::ZERO;
            let mut chosen = Vec::new();
            let mut cost = 0.0;
            for &(c, v, container) in &ranked {
                if needed.fits_in(&freed) {
                    break;
                }
                cost += c;
                freed += self.tasks[v as usize].exec.spec.resources;
                chosen.push((v, container));
            }
            self.ranked = ranked;
            if needed.fits_in(&freed) {
                let better = match &best {
                    Some((c, n, _)) => (cost, i) < (*c, *n),
                    None => true,
                };
                if better {
                    best = Some((cost, i, chosen));
                }
            }
        }

        let Some((_, node, victims)) = best else {
            return false;
        };
        // The victims are about to change status and release capacity.
        self.drop_fronts();
        let mut drains = 0u32;
        for (v, container) in victims {
            let sync = self.preempt_victim(v, node, container, now, q);
            if !sync {
                drains += 1;
                self.drain_owner.insert(v, t);
            }
        }
        if drains > 0 {
            // Earmark the whole demand on this node so backfill cannot
            // steal the capacity the drains are freeing.
            self.reserve(
                t,
                Reservation {
                    node,
                    amount: demand,
                    drains_left: drains,
                },
            );
            false
        } else {
            true
        }
    }

    // ---- fault handling (checkpoint failure recovery policies) ---------

    /// Kills a `Dumping` victim whose dump could not be completed: the
    /// progress since its last *valid* checkpoint is lost and the task
    /// re-queues (from an older image if one survives in its chain).
    fn kill_dump_victim(&mut self, t: u32, node: usize, now: SimTime) {
        // The victim stopped at eviction; its progress was synced when the
        // dump started, and the failed dump never advanced
        // `checkpointed_progress`.
        self.evict(t, node, "dump-fail", now);
        self.release_container(t, now);
        // Credit the drain to the blocked task it was serving: the kill
        // freed the resources the reservation was waiting for.
        self.credit_drain(t);
        self.roll_back_and_requeue(t);
    }

    /// Carries out the verdict on a finished restore read of `t` (attempt
    /// `epoch`): a re-read queues its completion, a lost chain restarts
    /// the task from scratch. Returns true if the read stands.
    fn restore_stands(
        &mut self,
        t: u32,
        epoch: u32,
        end: RestoreEnd,
        now: SimTime,
        q: &mut EventQueue<Event>,
    ) -> bool {
        match end {
            RestoreEnd::Intact => return true,
            RestoreEnd::Reread(span) => q.push(
                span.end,
                Event::RestoreDone {
                    task: t,
                    epoch,
                    started: span.start,
                },
            ),
            RestoreEnd::Dead => {
                self.restart_from_scratch(t, now);
                self.schedule_pass(now, q);
            }
        }
        false
    }

    /// Abandons task `t`'s image for good (see
    /// [`CkptPath::scratch_restart`]) and re-queues it as a fresh start.
    fn restart_from_scratch(&mut self, t: u32, now: SimTime) {
        self.release_container(t, now);
        let task = &mut self.tasks[t as usize].exec;
        self.ckpt
            .scratch_restart(handle_u64(t), task, &mut self.rec.ledger);
        task.epoch += 1;
        self.set_status(t, TaskStatus::Pending);
        self.enqueue_pending(t);
    }

    /// Handles the loss of task `t`'s image chain to an HDFS block loss
    /// (replication could not save every block): the chain is unreadable,
    /// so the checkpointed progress is re-execution waste and the task
    /// falls back to a fresh start wherever the image would have been
    /// used next.
    fn drop_lost_chain(&mut self, t: u32, now: SimTime) {
        self.rec.ledger.images_lost_to_failures += 1;
        let status = self.tasks[t as usize].exec.status;
        self.ckpt
            .lose_chain(handle_u64(t), status, "node-fail", now, &mut self.rec);
        match status {
            TaskStatus::Restoring { node, .. } => {
                // The in-flight read can no longer complete: abandon it
                // and restart from scratch (the epoch bump staled the
                // queued RestoreDone).
                let attempt = self.ckpt.restore_attempt(handle_u64(t));
                self.rec.record(
                    now.as_micros(),
                    TraceRecord::RestoreFail {
                        task: t as u64,
                        node,
                        attempt,
                        reason: "blocks-lost",
                        will_retry: false,
                    },
                );
                self.restart_from_scratch(t, now);
            }
            TaskStatus::Dumping { node, .. } => {
                // The tip being written sat below lost ancestor blocks:
                // the whole chain is useless, so the aborted write falls
                // back to the hard kill (the epoch bump stales DumpDone).
                self.tasks[t as usize].exec.checkpointed_progress = SimDuration::ZERO;
                self.kill_dump_victim(t, node as usize, now);
            }
            _ => self.chain_lost(t),
        }
    }

    /// Evicts `t` because its node failed (organically, or through a
    /// chaos-plan crash). Unlike a kill, the eviction is not the
    /// scheduler's choice; unlike a checkpoint, nothing is saved.
    fn fail_task(&mut self, t: u32, node: usize, now: SimTime, chaos: bool) {
        let reason = if chaos { "node-crash" } else { "node-fail" };
        self.tasks[t as usize].exec.sync_progress(now);
        self.evict(t, node, reason, now);
        self.release_container(t, now);
        // An in-flight dump died with the node: abort its half-written tip.
        if matches!(
            self.tasks[t as usize].exec.status,
            TaskStatus::Dumping { .. }
        ) {
            // The `DumpFallback` record closes the dangling DumpStart span
            // (the epoch bump below makes the queued DumpDone stale), and
            // the aborted write's DFS entry is deleted, not just dropped:
            // the next dump of this task would collide with it.
            self.ckpt
                .abort_dump(handle_u64(t), node, reason, true, now, &mut self.rec);
            self.credit_drain(t);
        }

        // Local-FS images and NVRAM mirrors on the failed node are gone;
        // HDFS replication keeps DFS-backed chains readable.
        if self.ckpt.lose_images_on(handle_u64(t), node) {
            self.rec.ledger.images_lost_to_failures += 1;
            self.tasks[t as usize].exec.checkpointed_progress = SimDuration::ZERO;
        }
        // The node failure ends any in-flight dump/restore episode.
        self.ckpt.end_episodes(handle_u64(t));
        self.roll_back_and_requeue(t);
    }

    /// Takes a node down, evicting everything on it. `chaos` marks a
    /// chaos-plan crash: the trace event is `NodeDown` (vs `NodeFail`),
    /// evictions count as crash evictions, and recovery is the caller's
    /// `FaultTick::Recover` (the MTBF chain stays untouched).
    fn fail_node(&mut self, node: usize, now: SimTime, q: &mut EventQueue<Event>, chaos: bool) {
        if !self.nodes[node].up {
            return; // already down (stale event)
        }
        self.nodes[node].up = false;
        if self.rec.on() {
            let record = if chaos {
                TraceRecord::NodeDown { node: node as u32 }
            } else {
                TraceRecord::NodeFail { node: node as u32 }
            };
            self.rec.record(now.as_micros(), record);
        }
        let victims: Vec<u32> = self.nodes[node]
            .node
            .containers()
            .map(|c| c.task() as u32)
            .collect();
        let mut victims = victims;
        victims.sort_unstable();
        for v in victims {
            self.fail_task(v, node, now, chaos);
        }
        // The node's datanode died with it: the NameNode re-replicates
        // every block that lost a replica onto the surviving datanodes
        // (blocks whose only replica lived here are lost for good).
        if let Some((repair, lost)) = self.ckpt.fail_datanode(node, now, &mut self.rec) {
            self.rec.ledger.dfs_blocks_lost += repair.blocks_lost as u64;
            for t in lost {
                self.drop_lost_chain(t as u32, now);
            }
        }
        // Any reservation earmarked on the failed node is void.
        let voided: Vec<u32> = self
            .reservations
            .iter()
            .filter(|(_, r)| r.node == node)
            .map(|(t, _)| *t)
            .collect();
        for t in voided {
            self.cancel_reservation(t);
        }
        self.update_meter(node, now);
        if !chaos {
            q.push(
                now + self.cfg.failure_downtime,
                Event::NodeRecover(node as u32),
            );
        }
    }

    /// One scheduling pass: serve the pending queue in priority order.
    fn schedule_pass(&mut self, now: SimTime, q: &mut EventQueue<Event>) {
        let _prof = cbp_prof::scope("schedule_pass");
        self.work.passes += 1;
        self.drop_fronts();
        let mut preempt_budget = self.cfg.preempt_budget_per_pass;
        // Gates whether placement is tried at all, and so which RNG draws
        // happen. It is refreshed only after a placement or a synchronous
        // preemption: after a preemption that both killed victims and
        // started drains the gate keeps the stale value.
        let mut max_avail = self.max_available();
        // Walk the pending set with a cursor instead of snapshotting it:
        // passes fire on every event, and cloning thousands of keys per
        // pass dominated profile time. Entries inserted behind the cursor
        // (requeued preempted tasks) are picked up by the next pass.
        let mut cursor: Option<PendingKey> = None;
        let mut scanned = 0usize;
        while let Some(key) =
            self.next_active_key(cursor, &mut scanned, &mut preempt_budget, &max_avail)
        {
            cursor = Some(key);
            let t = key.3;
            let demand = self.tasks[t as usize].exec.spec.resources;
            let fits_somewhere = demand.fits_in(&max_avail);
            let node = if !fits_somewhere {
                None
            } else if self.has_checkpoint(t) {
                self.choose_restore_node(t, now)
            } else {
                self.choose_fresh_node(t, &demand)
            };
            match node {
                Some(n) => {
                    self.pending.remove(&key);
                    self.place_task(t, n, now, q);
                    max_avail = self.max_available();
                }
                None => {
                    // A reservation whose drains all completed but that
                    // still cannot be satisfied has failed its purpose;
                    // release the earmark so the task can try elsewhere.
                    if self.own_reservation(t).is_some_and(|r| r.drains_left == 0) {
                        self.cancel_reservation(t);
                    }
                    if self.cfg.policy != PreemptionPolicy::Wait && preempt_budget > 0 {
                        preempt_budget -= 1;
                        self.work.searches += 1;
                        if self.try_preempt_for(t, now, q) {
                            // Kills freed space synchronously: place now.
                            let node = if self.has_checkpoint(t) {
                                self.choose_restore_node(t, now)
                            } else {
                                self.choose_fresh_node(t, &demand)
                            };
                            if let Some(n) = node {
                                self.pending.remove(&key);
                                self.place_task(t, n, now, q);
                            }
                            max_avail = self.max_available();
                        }
                    }
                }
            }
        }
    }

    /// Moves the pass past the pending keys after `cursor` that cannot
    /// act and returns the first one that can, or `None` when the queue
    /// or the scan limit runs out. Every key passed counts toward
    /// `max_schedule_scan`, acting or not. A visited key whose visit can
    /// only fail is settled in place (see [`ClusterSim::settle`]). Of the
    /// other visited keys, every one acts while preemption searches are
    /// left (`budget`); after that the walk stops only at keys that
    /// [`ClusterSim::idle_visit`] cannot rule out.
    ///
    /// A key is dead when it holds no reservation, fits no node and, while
    /// searches are left, its search would be futile: its visit does
    /// nothing but restore placement's RNG draw (see
    /// [`ClusterSim::dead_visit`]). Where the rest of a chunk is dead (see
    /// [`ClusterSim::dead_from`]) the walk jumps it: it counts the keys,
    /// spends a search of budget on each while budget lasts, and makes
    /// their draws. Other keys are visited one at a time.
    fn next_active_key(
        &mut self,
        cursor: Option<PendingKey>,
        scanned: &mut usize,
        budget: &mut usize,
        max_avail: &Resources,
    ) -> Option<PendingKey> {
        let may_search = self.cfg.policy != PreemptionPolicy::Wait;
        #[cfg(any(test, debug_assertions))]
        if self.reference_walk {
            let searching = may_search && *budget > 0;
            return self.next_key_per_key(cursor, scanned, searching, max_avail);
        }
        self.build_free_front();
        let n = self.nodes.len();
        // The walk changes no reservation, so when none has drained, a key
        // failing the gate is idle whatever it holds.
        debug_assert_eq!(self.drained, self.drained_scan(), "drained count is stale");
        let any_drained = self.drained > 0;
        let mut pos = self.pending.seek(cursor.as_ref());
        // Set when a jump stopped short at a key its visit must decide.
        let mut visit_next = false;
        while pos.chunk < self.pending.chunks().len() {
            let searching = may_search && *budget > 0;
            if !visit_next && self.dead_from(pos, searching) {
                match self.jump(pos, scanned, budget, searching, max_avail) {
                    Jumped::Limit => return None,
                    Jumped::Whole => {
                        pos = Pos {
                            chunk: pos.chunk + 1,
                            at: 0,
                        };
                    }
                    Jumped::To(at) => {
                        pos.at = at;
                        visit_next = true;
                    }
                }
                continue;
            }
            visit_next = false;
            let q = self.pending.chunks()[pos.chunk].get(pos.at);
            *scanned += 1;
            if *scanned > self.cfg.max_schedule_scan {
                return None;
            }
            self.work.keys_scanned += 1;
            self.work.keys_visited += 1;
            if self.settle(&q, budget, max_avail) {
                pos = self.pending.next(pos);
                continue;
            }
            if searching {
                return Some(q.key);
            }
            match self.idle_visit(&q, max_avail, any_drained) {
                Visit::Idle => {}
                // All that `choose_restore_node` would do for this key.
                Visit::Draw => {
                    self.rng.index(n);
                    self.work.walk_draws += 1;
                }
                Visit::Act => return Some(q.key),
            }
            pos = self.pending.next(pos);
        }
        None
    }

    /// True if every key from `pos` to the end of its chunk is dead: the
    /// chunk's minimum demand fits no point of the free front (so no key
    /// fits any node), none holds a reservation and, while `searching`,
    /// the minimum fits no point of the reach front at the priority of the
    /// key at `pos`, the highest left in the chunk.
    fn dead_from(&mut self, pos: Pos, searching: bool) -> bool {
        let chunk = &self.pending.chunks()[pos.chunk];
        let min = chunk.min();
        debug_assert!(self.free_front_ok, "front built first");
        if self.free_front.fits(&min) {
            return false;
        }
        if chunk.holds_from(pos.at) {
            return false;
        }
        let priority = Priority(chunk.key(pos.at).0 .0);
        !searching || !self.reach_front(priority).fits(&min)
    }

    /// Reference answer of `drained`: the count of reservations whose
    /// drains have all completed.
    fn drained_scan(&self) -> usize {
        self.reservations
            .values()
            .filter(|r| r.drains_left == 0)
            .count()
    }

    /// Settles the visit of `q` in the walk when it can only fail: `q`
    /// fails the `max_avail` gate or fits no node, and either it is a
    /// parked holder (its reservation's drains are still in flight, so
    /// its search returns at once) or, while searches are left, it holds
    /// no reservation and its search is futile (its demand fits no point
    /// of the reach front at its priority). Its visit in
    /// [`ClusterSim::schedule_pass`] would place, cancel and preempt
    /// nothing, so what is left is restore placement's RNG draw (made when
    /// it passes the gate with a checkpoint under cost-aware placement)
    /// and, while searches are left, one search of `budget`. Returns
    /// false, doing nothing, for any other key.
    fn settle(&mut self, q: &Queued, budget: &mut usize, max_avail: &Resources) -> bool {
        let t = q.key.3;
        let searching = self.cfg.policy != PreemptionPolicy::Wait && *budget > 0;
        match self.own_reservation(t) {
            // The pass may cancel a drained reservation.
            Some(r) if r.drains_left == 0 => return false,
            Some(_) => {}
            None => {
                let priority = Priority(q.key.0 .0);
                if !searching || self.reach_front(priority).fits(&q.demand) {
                    return false;
                }
                debug_assert!(
                    self.search_is_futile(t, &q.demand),
                    "settled {t}, whose search could succeed"
                );
            }
        }
        if q.demand.fits_in(max_avail) {
            if self.front_fits(t, &q.demand) {
                return false;
            }
            if self.has_checkpoint(t) {
                // A checkpointed task not in the `Checkpointed` state is
                // left to the full visit.
                if !matches!(
                    self.tasks[t as usize].exec.status,
                    TaskStatus::Checkpointed { .. }
                ) {
                    return false;
                }
                if !self.restore_is_local() {
                    self.rng.index(self.nodes.len());
                }
            }
        }
        if searching {
            *budget -= 1;
            self.work.searches += 1;
        }
        true
    }

    /// What visiting dead key `q` does. Its placement fails and so does
    /// its search, so all that is left is restore placement's RNG draw,
    /// made when it passes the gate with a checkpoint under cost-aware
    /// placement. A checkpointed task not in the `Checkpointed` state is
    /// left to the full visit.
    fn dead_visit(&self, q: &Queued, max_avail: &Resources) -> Visit {
        let t = q.key.3;
        if !q.ckpt
            || !q.demand.fits_in(max_avail)
            || self.restore_is_local()
            || !self.has_checkpoint(t)
        {
            Visit::Idle
        } else if matches!(
            self.tasks[t as usize].exec.status,
            TaskStatus::Checkpointed { .. }
        ) {
            Visit::Draw
        } else {
            Visit::Act
        }
    }

    /// Passes the dead keys from `pos` to the end of its chunk, stopping
    /// early at the scan limit or at a key whose visit would act.
    fn jump(
        &mut self,
        pos: Pos,
        scanned: &mut usize,
        budget: &mut usize,
        searching: bool,
        max_avail: &Resources,
    ) -> Jumped {
        let chunk = &self.pending.chunks()[pos.chunk];
        let len = chunk.len();
        let room = self.cfg.max_schedule_scan.saturating_sub(*scanned);
        let mut end = len.min(pos.at + room);
        let mut acting = false;
        // Only keys enqueued with a checkpoint can draw.
        if chunk.min().fits_in(max_avail) {
            let n = self.nodes.len();
            for at in chunk.ckpt_positions(pos.at..end) {
                match self.dead_visit(&chunk.get(at), max_avail) {
                    Visit::Idle => {}
                    Visit::Draw => {
                        self.rng.index(n);
                        self.work.walk_draws += 1;
                    }
                    Visit::Act => {
                        end = at;
                        acting = true;
                        break;
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_dead(pos, end, searching.then_some(*budget));
        let k = end - pos.at;
        *scanned += k;
        self.work.keys_scanned += k as u64;
        self.work.keys_jumped += k as u64;
        if searching {
            *budget -= k.min(*budget);
        }
        if acting {
            Jumped::To(end)
        } else if end < len {
            Jumped::Limit
        } else {
            Jumped::Whole
        }
    }

    /// Checks every key the walk jumps, `pos.at..end` of `pos`'s chunk,
    /// against the full node scan: none fits a node, the first `budget`
    /// (those the walk would search for) have no node where free plus
    /// victim capacity covers their demand, and none gained a checkpoint
    /// since it was queued.
    #[cfg(debug_assertions)]
    fn assert_dead(&self, pos: Pos, end: usize, budget: Option<usize>) {
        let chunk = &self.pending.chunks()[pos.chunk];
        for (i, q) in (pos.at..end).map(|at| chunk.get(at)).enumerate() {
            let t = q.key.3;
            let task = &self.tasks[t as usize];
            assert_eq!(q.demand, task.exec.spec.resources, "queued demand of {t}");
            assert!(!self.any_node_fits(t, &q.demand), "jumped {t}, which fits");
            assert!(q.ckpt || !self.has_checkpoint(t), "{t} gained a checkpoint");
            if budget.is_some_and(|b| i < b) {
                assert!(
                    self.search_is_futile(t, &q.demand),
                    "jumped {t}, whose search could succeed"
                );
            }
        }
    }

    /// Reference answer of "the search for `t`, which holds no
    /// reservation, would fail": no up node where free plus victim
    /// capacity covers `demand`.
    fn search_is_futile(&self, t: u32, demand: &Resources) -> bool {
        let priority = self.tasks[t as usize].priority;
        (0..self.nodes.len())
            .filter(|&node| self.nodes[node].up)
            .all(|node| {
                let reach = self.unreserved_free(node) + self.victim_capacity(node, priority);
                !demand.fits_in(&reach)
            })
    }

    /// The Pareto front of `unreserved_free(i) + victim_capacity(i, p)`
    /// over the up nodes. A search for a task of priority at most `p`
    /// holding no reservation succeeds only on a node whose point covers
    /// its demand, so a demand fitting no point makes the search futile.
    fn reach_front(&mut self, p: Priority) -> &FreeFront {
        if self.reach_at != Some(p) {
            let mut front = std::mem::take(&mut self.reach);
            front.rebuild(
                (0..self.nodes.len())
                    .filter(|&i| self.nodes[i].up)
                    .map(|i| self.unreserved_free(i) + self.victim_capacity(i, p)),
            );
            self.reach = front;
            self.reach_at = Some(p);
        }
        &self.reach
    }

    /// The per-key walk the chunked one replaced, kept as its reference:
    /// every key is visited, none is jumped.
    #[cfg(any(test, debug_assertions))]
    fn next_key_per_key(
        &mut self,
        cursor: Option<PendingKey>,
        scanned: &mut usize,
        searching: bool,
        max_avail: &Resources,
    ) -> Option<PendingKey> {
        self.build_free_front();
        let n = self.nodes.len();
        let any_drained = self.drained_scan() > 0;
        let mut pos = self.pending.seek(cursor.as_ref());
        while pos.chunk < self.pending.chunks().len() {
            let q = self.pending.chunks()[pos.chunk].get(pos.at);
            let key = q.key;
            *scanned += 1;
            if *scanned > self.cfg.max_schedule_scan {
                return None;
            }
            self.work.keys_scanned += 1;
            self.work.keys_visited += 1;
            if searching {
                return Some(key);
            }
            match self.idle_visit(&q, max_avail, any_drained) {
                Visit::Idle => {}
                Visit::Draw => {
                    self.rng.index(n);
                    self.work.walk_draws += 1;
                }
                Visit::Act => return Some(key),
            }
            pos = self.pending.next(pos);
        }
        None
    }

    /// What visiting queued task `q` does once no preemption search is
    /// left. A key is idle when its demand fails the `max_avail` gate, or
    /// passes it but fits no node, and it holds no drained reservation to
    /// cancel. Cost-aware restore placement of an idle checkpointed task
    /// still makes its RNG draw.
    fn idle_visit(&self, q: &Queued, max_avail: &Resources, any_drained: bool) -> Visit {
        let t = q.key.3;
        let demand = q.demand;
        if !demand.fits_in(max_avail) {
            let drained =
                any_drained && self.own_reservation(t).is_some_and(|r| r.drains_left == 0);
            return if drained { Visit::Act } else { Visit::Idle };
        }
        if self.own_reservation(t).is_some() {
            return Visit::Act;
        }
        // The flag bounds the checkpoint state from above.
        debug_assert!(q.ckpt || !self.has_checkpoint(t), "{t} gained a checkpoint");
        if !q.ckpt || !self.has_checkpoint(t) {
            return if self.front_fits(t, &demand) {
                Visit::Act
            } else {
                Visit::Idle
            };
        }
        let TaskStatus::Checkpointed { origin } = self.tasks[t as usize].exec.status else {
            return Visit::Act;
        };
        if self.can_place(origin as usize, t, &demand) {
            Visit::Act
        } else if self.restore_is_local() {
            Visit::Idle
        } else if self.front_fits(t, &demand) {
            Visit::Act
        } else {
            Visit::Draw
        }
    }
}

impl Simulation for ClusterSim {
    type Event = Event;

    fn handle(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        // The probe fires before the event so samples reflect pre-event
        // state at exact interval boundaries.
        if self.sampler.is_some() {
            self.sample_up_to(now);
        }
        self.dispatch(now, event, q);
        #[cfg(debug_assertions)]
        self.ckpt.assert_image_conservation(now);
        let depth = self.pending.len();
        if self.rec.on() && depth != self.last_queue_depth {
            self.rec.record(
                now.as_micros(),
                TraceRecord::QueueDepth {
                    pending: depth as u64,
                },
            );
        }
        self.last_queue_depth = depth;
    }

    fn event_kind(&self, event: &Event) -> &'static str {
        match event {
            Event::JobSubmit(_) => "job_submit",
            Event::TaskFinish { .. } => "task_finish",
            Event::DumpDone { .. } => "dump_done",
            Event::RestoreDone { .. } => "restore_done",
            Event::NodeFail(_) => "node_fail",
            Event::NodeRecover(_) => "node_recover",
            Event::Fault(tick) => tick.kind(),
        }
    }
}

impl FaultHost for ClusterSim {
    type Event = Event;

    fn fault_event(tick: FaultTick) -> Event {
        Event::Fault(tick)
    }

    fn fault_parts(&mut self) -> (&mut FaultClock, &mut CkptPath, &mut Recorder) {
        (&mut self.clock, &mut self.ckpt, &mut self.rec)
    }

    fn node_up(&mut self, node: usize) -> &mut bool {
        &mut self.nodes[node].up
    }

    fn crash(&mut self, node: usize, now: SimTime, q: &mut EventQueue<Event>) {
        self.fail_node(node, now, q, true);
    }

    fn work_remains(&self) -> bool {
        self.jobs_left > 0
    }

    fn follow_up(&mut self, _after: FaultTick, now: SimTime, q: &mut EventQueue<Event>) {
        self.schedule_pass(now, q);
    }
}

impl ClusterSim {
    /// Processes one event (the body of [`Simulation::handle`], separated
    /// so the telemetry probes wrap every arm uniformly).
    fn dispatch(&mut self, now: SimTime, event: Event, q: &mut EventQueue<Event>) {
        match event {
            Event::JobSubmit(job_idx) => {
                let range = self.task_handle_range(job_idx);
                for t in range {
                    if self.rec.on() {
                        let priority = self.tasks[t].priority.0;
                        self.rec.record(
                            now.as_micros(),
                            TraceRecord::TaskSubmit {
                                task: t as u64,
                                job: job_idx as u64,
                                priority,
                            },
                        );
                    }
                    self.enqueue_pending(t as u32);
                }
                self.schedule_pass(now, q);
            }
            Event::TaskFinish { task, epoch } => {
                if self.tasks[task as usize].exec.epoch != epoch
                    || !matches!(
                        self.tasks[task as usize].exec.status,
                        TaskStatus::Running { .. }
                    )
                {
                    return; // stale: the task was preempted meanwhile
                }
                self.tasks[task as usize].exec.sync_progress(now);
                debug_assert!(self.tasks[task as usize].exec.remaining().is_zero());
                debug_assert!(now >= self.tasks[task as usize].submit);
                if let TaskStatus::Running { node, .. } = self.tasks[task as usize].exec.status {
                    self.rec.record(
                        now.as_micros(),
                        TraceRecord::TaskFinish {
                            task: task as u64,
                            node,
                        },
                    );
                }
                self.release_container(task, now);
                let cores = self.tasks[task as usize].exec.spec.resources.cores_f64();
                let work = self.tasks[task as usize].exec.spec.duration.as_secs_f64();
                self.rec.ledger.useful_cpu_secs += cores * work;
                self.set_status(task, TaskStatus::Finished);
                self.tasks[task as usize].finished_at = Some(now);

                // Drop checkpoint images / NVRAM mirrors.
                self.ckpt.discard_chain(handle_u64(task));

                // Job completion.
                let job_idx = self.tasks[task as usize].job_idx as usize;
                self.job_remaining[job_idx] -= 1;
                if self.job_remaining[job_idx] == 0 {
                    self.jobs_left -= 1;
                    let job = &self.workload.jobs()[job_idx];
                    self.rec.ledger.record_response(
                        job.priority.band(),
                        job.latency,
                        job.submit,
                        now,
                    );
                }
                self.schedule_pass(now, q);
            }
            Event::DumpDone {
                task,
                epoch,
                started,
            } => {
                if self.tasks[task as usize].exec.epoch != epoch {
                    return;
                }
                let TaskStatus::Dumping { node, .. } = self.tasks[task as usize].exec.status else {
                    return;
                };
                let end = self.ckpt.dump_done(
                    self.clock.plan(),
                    handle_u64(task),
                    node as usize,
                    epoch,
                    started,
                    &mut self.tasks[task as usize].exec,
                    &|i| self.clock.device_factor(i, now),
                    |l| &mut l.retry_cpu_secs,
                    now,
                    &mut self.rec,
                );
                match end {
                    DumpEnd::Retry(span) => {
                        q.push(
                            span.end,
                            Event::DumpDone {
                                task,
                                epoch,
                                started: span.start,
                            },
                        );
                        return;
                    }
                    // Budget exhausted: the dump is abandoned for good.
                    DumpEnd::Failed => self.kill_dump_victim(task, node as usize, now),
                    DumpEnd::Committed => {
                        self.release_container(task, now);
                        self.set_status(task, TaskStatus::Checkpointed { origin: node });
                        // Credit the drain to the blocked task it was serving.
                        self.credit_drain(task);
                        self.enqueue_pending_preserving_status(task);
                    }
                }
                self.schedule_pass(now, q);
            }
            Event::NodeFail(node) => {
                self.fail_node(node as usize, now, q, false);
                self.schedule_pass(now, q);
            }
            Event::Fault(tick) => self.on_fault_tick(tick, now, q),
            Event::NodeRecover(node) => {
                self.nodes[node as usize].up = true;
                // The datanode rejoins empty (its blocks were already
                // re-replicated or lost at failure time).
                self.ckpt.recover_datanode(node as usize);
                self.rec
                    .record(now.as_micros(), TraceRecord::NodeRecover { node });
                self.schedule_next_failure(node as usize, now, q);
                self.schedule_pass(now, q);
            }
            Event::RestoreDone {
                task,
                epoch,
                started,
            } => {
                if self.tasks[task as usize].exec.epoch != epoch {
                    return;
                }
                let TaskStatus::Restoring { node, container } =
                    self.tasks[task as usize].exec.status
                else {
                    return;
                };
                let (key, at) = (handle_u64(task), node as usize);
                // Chunk-level integrity validation first (resume mode):
                // corrupt chunks re-fetch from replicas, unrepairable
                // images truncate the chain to its longest valid prefix,
                // and an empty prefix scratch-restarts.
                let end = self.ckpt.check_restore(
                    self.clock.plan(),
                    key,
                    at,
                    epoch,
                    started,
                    &mut self.tasks[task as usize].exec,
                    &|i| self.clock.device_factor(i, now),
                    |l| &mut l.retry_cpu_secs,
                    now,
                    &mut self.rec,
                );
                if !self.restore_stands(task, epoch, end, now, q) {
                    return;
                }
                // Deterministic fault check: did this restore attempt
                // fail (transiently, or because the image is corrupt)?
                let end = self.ckpt.restore_fault(
                    self.clock.plan(),
                    key,
                    at,
                    epoch,
                    started,
                    &self.tasks[task as usize].exec,
                    &|i| self.clock.device_factor(i, now),
                    |l| &mut l.retry_cpu_secs,
                    now,
                    &mut self.rec,
                );
                if !self.restore_stands(task, epoch, end, now, q) {
                    return;
                }
                let finish = self.ckpt.finish_restore(
                    key,
                    at,
                    started,
                    &mut self.tasks[task as usize].exec,
                    now,
                    &mut self.rec,
                );
                self.set_status(task, TaskStatus::Running { node, container });
                let epoch = self.tasks[task as usize].exec.epoch;
                q.push(finish, Event::TaskFinish { task, epoch });
            }
        }
    }
}

pub(crate) fn clamp_to_node(mut spec: TaskSpec, node: Resources) -> TaskSpec {
    let cpu = spec.resources.cpu_milli().min(node.cpu_milli());
    let mem = spec.resources.mem().min(node.mem());
    spec.resources = Resources::new(cpu, mem);
    spec
}

fn handle_u64(t: u32) -> u64 {
    t as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_simkit::units::ByteSize;
    use proptest::prelude::*;

    /// A vector with few distinct coordinates, so ties and duplicates are
    /// common.
    fn small_resources(rng: &mut SimRng) -> Resources {
        Resources::new(
            rng.index(9) as u64 * 500,
            ByteSize::from_gb(rng.index(9) as u64),
        )
    }

    fn small_sim(nodes: usize) -> ClusterSim {
        use cbp_storage::MediaKind;
        use cbp_workload::google::GoogleTraceConfig;
        let cfg = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Hdd).with_nodes(nodes);
        ClusterSim::new(cfg, GoogleTraceConfig::small(20.0).generate(1))
    }

    /// A key failing the gate is walked over unless it holds a drained
    /// reservation (which the pass would cancel). The golden runs never
    /// reach that state, because drains free the reserved demand before
    /// the next pass computes its gate, so it is checked here directly:
    /// with the nodes up (the key's chunk is live) and with every node
    /// down (its chunk is dead but for the holder, which the walk must
    /// still visit).
    #[test]
    fn gated_key_acts_only_with_a_drained_reservation() {
        let mut sim = small_sim(2);
        let t = 0;
        sim.enqueue_pending(t);
        // The acting task and whether the key was jumped.
        let walk = |sim: &mut ClusterSim| {
            sim.drop_fronts();
            let jumped = sim.work.keys_jumped;
            let mut scanned = 0;
            let key = sim.next_active_key(None, &mut scanned, &mut 0, &Resources::ZERO);
            assert_eq!(scanned, 1);
            (key.map(|k| k.3), sim.work.keys_jumped > jumped)
        };
        let reserve = |sim: &mut ClusterSim, drains_left| {
            sim.cancel_reservation(t);
            let amount = sim.tasks[t as usize].exec.spec.resources;
            let r = Reservation {
                node: 0,
                amount,
                drains_left,
            };
            sim.reserve(t, r);
        };
        for up in [true, false] {
            for slot in &mut sim.nodes {
                slot.up = up;
            }
            sim.cancel_reservation(t);
            assert_eq!(walk(&mut sim), (None, !up), "nodes up: {up}");
            reserve(&mut sim, 1);
            assert_eq!(walk(&mut sim), (None, false), "nodes up: {up}");
            reserve(&mut sim, 0);
            assert_eq!(walk(&mut sim), (Some(t), false), "nodes up: {up}");
        }
    }

    /// With every node down the whole queue is dead, so one call jumps it
    /// to the scan limit. The budget runs out inside the first chunk and
    /// the scan limit inside the second: both stop exactly.
    #[test]
    fn scan_limit_and_budget_run_out_mid_chunk() {
        let mut sim = small_sim(3);
        for t in 0..sim.tasks.len().min(150) {
            sim.enqueue_pending(t as u32);
        }
        for slot in &mut sim.nodes {
            slot.up = false;
        }
        let sizes: Vec<usize> = sim.pending.chunks().iter().map(|c| c.len()).collect();
        assert!(sizes.len() >= 2 && sizes[1] >= 2, "chunks {sizes:?}");
        let mut budget = sizes[0] / 2;
        sim.cfg.max_schedule_scan = sizes[0] + sizes[1] / 2;
        let max_avail = sim.max_available();
        let mut scanned = 0;
        let key = sim.next_active_key(None, &mut scanned, &mut budget, &max_avail);
        assert_eq!(key, None);
        assert_eq!(scanned, sim.cfg.max_schedule_scan);
        assert_eq!(budget, 0);
        assert_eq!(sim.work.keys_scanned, scanned as u64);
        assert_eq!(sim.work.keys_jumped, scanned as u64);
        assert_eq!(sim.work.keys_visited, 0);
    }

    /// Fills node `i` with one container of task handle `filler` (a task
    /// that is never queued), leaving `room` free.
    fn fill(sim: &mut ClusterSim, i: usize, room: Resources, filler: u32) {
        let used = sim.nodes[i].node.capacity().saturating_sub(&room);
        let container = Container::new(ContainerId(1_000 + i as u64), used, filler as u64);
        sim.nodes[i]
            .node
            .allocate(container)
            .expect("the node starts empty");
    }

    /// Queues task 0 on two nodes, leaves `room` free on each and gives
    /// the task a reservation on node 0 with one drain in flight.
    fn in_flight_holder(room: [Resources; 2]) -> (ClusterSim, u32, Resources) {
        let mut sim = small_sim(2);
        let t = 0;
        let demand = sim.tasks[t as usize].exec.spec.resources;
        assert!(!demand.is_zero());
        sim.enqueue_pending(t);
        for (i, room) in room.into_iter().enumerate() {
            fill(&mut sim, i, room, 1);
        }
        let r = Reservation {
            node: 0,
            amount: demand,
            drains_left: 1,
        };
        sim.reserve(t, r);
        (sim, t, demand)
    }

    /// A holder whose drains are still in flight is placed, not parked,
    /// when it fits its own node (through its earmark, which no other
    /// task sees as free) or another node.
    #[test]
    fn in_flight_holder_is_placed_where_it_fits() {
        let zero = Resources::ZERO;
        for own in [true, false] {
            let (mut sim, t, demand) = if own {
                in_flight_holder([demand_of(0), zero])
            } else {
                in_flight_holder([zero, demand_of(0)])
            };
            let mut q = EventQueue::with_capacity(4);
            sim.schedule_pass(SimTime::ZERO, &mut q);
            let node = u32::from(!own);
            assert!(
                matches!(sim.tasks[t as usize].exec.status, TaskStatus::Running { node: n, .. } if n == node),
                "own node: {own}, demand {demand}: {:?}",
                sim.tasks[t as usize].exec.status
            );
            assert!(sim.reservations.is_empty());
            assert_eq!(sim.pending.holders().count(), 0);
            assert_eq!(sim.work.searches, 0, "own node: {own}");
            assert_eq!(sim.victims.below(node as usize, Priority(u8::MAX)), demand);
        }
    }

    /// The demand of task 0 in [`small_sim`]'s workload.
    fn demand_of(t: u32) -> Resources {
        small_sim(1).tasks[t as usize].exec.spec.resources
    }

    /// A holder whose drains are still in flight and that fits no node is
    /// settled in the walk: visited, one search spent while budget lasts,
    /// and never returned to the pass.
    #[test]
    fn in_flight_holder_fitting_nowhere_is_parked() {
        let zero = Resources::ZERO;
        let (mut sim, t, demand) = in_flight_holder([zero, zero]);
        // The gate passes (some node reports the demand free) and fails.
        for gate in [demand, zero] {
            for start in [2usize, 0] {
                let mut budget = start;
                let mut scanned = 0;
                let searches = sim.work.searches;
                sim.drop_fronts();
                let key = sim.next_active_key(None, &mut scanned, &mut budget, &gate);
                assert_eq!(key, None, "gate {gate}, budget {start}");
                assert_eq!(scanned, 1);
                assert_eq!(budget, start.saturating_sub(1));
                assert_eq!(sim.work.searches - searches, u64::from(start > 0));
            }
        }
        assert_eq!(sim.work.keys_visited, 4);
        assert_eq!(sim.work.walk_draws, 0);
        assert!(sim.own_reservation(t).is_some());
        // Once its drain completes it is no longer parked: the drained
        // reservation is the pass's to cancel.
        sim.drain_owner.insert(7, t);
        sim.credit_drain(7);
        assert_eq!(sim.drained, 1);
        let mut scanned = 0;
        let key = sim.next_active_key(None, &mut scanned, &mut 1, &demand);
        assert_eq!(key.map(|k| k.3), Some(t));
    }

    /// While budget lasts, a visited key without a reservation whose
    /// search is futile is settled in the walk (one search spent) and the
    /// walk goes on to the next key, which fits a node and goes back to
    /// the pass.
    #[test]
    fn futile_search_is_settled_in_the_walk() {
        let mut sim = small_sim(2);
        let (t, u) = (0, 1);
        let room = Resources::new(1, ByteSize::from_mb(1));
        sim.tasks[u as usize].exec.spec.resources = room;
        assert!(!sim.tasks[t as usize].exec.spec.resources.fits_in(&room));
        sim.enqueue_pending(t);
        sim.enqueue_pending(u);
        // The filler task is not Running, so no node has a victim.
        fill(&mut sim, 0, Resources::ZERO, 2);
        fill(&mut sim, 1, room, 2);
        let (mut budget, mut scanned) = (2, 0);
        let key = sim.next_active_key(None, &mut scanned, &mut budget, &Resources::ZERO);
        assert_eq!(key.map(|k| k.3), Some(u));
        assert_eq!((scanned, budget), (2, 1));
        assert_eq!((sim.work.keys_visited, sim.work.searches), (2, 1));
    }

    /// A `Write` sink whose buffer outlives the boxed tracer.
    #[derive(Clone, Default)]
    struct SharedBuf(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The chunked walk against the per-key reference over every knob the
    /// pass branches on: the JSONL trace and the registry must match byte
    /// for byte (so every placement, preemption and RNG draw does), both
    /// walks must scan the same keys, and the chunked one must visit no
    /// more than the reference.
    #[test]
    fn chunked_walk_matches_reference_walk() {
        use crate::config::QueueDiscipline;
        use cbp_checkpoint::NvramSpec;
        use cbp_faults::FaultSpec;
        use cbp_storage::MediaKind;
        use cbp_telemetry::JsonlTracer;
        use cbp_workload::google::GoogleTraceConfig;

        let base = |policy, media| SimConfig::trace_sim(policy, media).with_nodes(5);
        let tight = |mut cfg: SimConfig| {
            cfg.max_schedule_scan = 40;
            cfg.preempt_budget_per_pass = 3;
            cfg
        };
        let chaos = || FaultSpec::parse("chaos,seed=11").expect("plan parses");
        let cases: Vec<(&str, SimConfig)> = vec![
            ("kill", base(PreemptionPolicy::Kill, MediaKind::Hdd)),
            ("adaptive", base(PreemptionPolicy::Adaptive, MediaKind::Hdd)),
            ("wait", base(PreemptionPolicy::Wait, MediaKind::Ssd)),
            (
                "fair",
                base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                    .with_queue_discipline(QueueDiscipline::Fair),
            ),
            (
                "local-only",
                base(PreemptionPolicy::Checkpoint, MediaKind::Hdd)
                    .with_restore_placement(RestorePlacement::LocalOnly),
            ),
            (
                "tight-adaptive",
                tight(base(PreemptionPolicy::Adaptive, MediaKind::Hdd)),
            ),
            (
                "tight-checkpoint-fair",
                tight(
                    base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                        .with_queue_discipline(QueueDiscipline::Fair),
                ),
            ),
            (
                "failures",
                base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                    .with_failures(SimDuration::from_secs(1_800), SimDuration::from_secs(300)),
            ),
            (
                "chaos-adaptive",
                base(PreemptionPolicy::Adaptive, MediaKind::Hdd).with_faults(chaos()),
            ),
            (
                "nvram",
                base(PreemptionPolicy::Adaptive, MediaKind::Nvm).with_nvram(NvramSpec::default()),
            ),
        ];
        let workload = GoogleTraceConfig::small(80.0).generate(9);
        let mut searched_draws = false;
        for (name, cfg) in cases {
            let run = |reference: bool| {
                let buf = SharedBuf::default();
                let mut sim = ClusterSim::new(cfg.clone(), workload.clone());
                sim.reference_walk = reference;
                sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
                let report = sim.run();
                let trace = buf.0.borrow().clone();
                let work = report
                    .telemetry
                    .pass_work
                    .expect("ClusterSim counts its work");
                (trace, report.telemetry.registry.to_json(), work)
            };
            let (ref_trace, ref_registry, ref_work) = run(true);
            let (trace, registry, work) = run(false);
            assert!(trace == ref_trace, "{name}: traces differ");
            assert_eq!(registry, ref_registry, "{name}: registries differ");
            assert_eq!(ref_work.keys_jumped, 0, "{name}");
            assert_eq!(work.passes, ref_work.passes, "{name}");
            assert_eq!(work.keys_scanned, ref_work.keys_scanned, "{name}");
            assert_eq!(
                work.keys_scanned,
                work.keys_visited + work.keys_jumped,
                "{name}"
            );
            assert!(
                work.keys_visited <= ref_work.keys_visited,
                "{name}: {work:?}"
            );
            // Draws of keys jumped while searching, which the reference
            // makes in restore placement instead of in the walk.
            searched_draws |= work.walk_draws > ref_work.walk_draws;
        }
        assert!(
            searched_draws,
            "no case jumped a drawing key while searching"
        );
    }

    /// Checks the state the passes keep between events against the scans
    /// it replaces: every node's victim sums at every priority (one past
    /// the highest kept level included) and the drained count.
    fn assert_kept_state(sim: &ClusterSim, at: &str) {
        let levels = sim.victims.levels as u8;
        for i in 0..sim.nodes.len() {
            for p in 0..=levels + 1 {
                assert_eq!(
                    sim.victims.below(i, Priority(p)),
                    sim.victim_capacity_scan(i, Priority(p)),
                    "{at}: node {i}, priority {p}"
                );
            }
        }
        assert_eq!(sim.drained, sim.drained_scan(), "{at}: drained count");
        let mut flagged: Vec<u32> = sim.pending.holders().map(|k| k.3).collect();
        let mut owners: Vec<u32> = sim.reservations.keys().copied().collect();
        flagged.sort_unstable();
        owners.sort_unstable();
        assert_eq!(flagged, owners, "{at}: holder marks");
    }

    /// Steps contended runs event by event and checks the kept pass state
    /// after every event, then checks the walk that settles parked holders
    /// against the per-key reference walk, which returns every holder to
    /// the pass: same trace and registry bytes, same passes and scanned
    /// keys. Release test builds run this too, while the pass's own
    /// cross-checks are debug-only.
    #[test]
    fn kept_pass_state_matches_scans() {
        use cbp_checkpoint::NvramSpec;
        use cbp_faults::FaultSpec;
        use cbp_storage::MediaKind;
        use cbp_telemetry::JsonlTracer;
        use cbp_workload::google::GoogleTraceConfig;

        let base = |policy, media| SimConfig::trace_sim(policy, media).with_nodes(5);
        let mut cases: Vec<(String, SimConfig)> = Vec::new();
        for policy in [
            PreemptionPolicy::Kill,
            PreemptionPolicy::Checkpoint,
            PreemptionPolicy::Adaptive,
        ] {
            for plan in ["off", "heavy,seed=5", "chaos,seed=11"] {
                let spec = FaultSpec::parse(plan).expect("plan parses");
                let cfg = base(policy, MediaKind::Hdd).with_faults(spec);
                cases.push((format!("{policy}/{plan}"), cfg));
            }
        }
        cases.push((
            "nvram".into(),
            base(PreemptionPolicy::Checkpoint, MediaKind::Nvm).with_nvram(NvramSpec::default()),
        ));
        cases.push((
            "local-only".into(),
            base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_restore_placement(RestorePlacement::LocalOnly),
        ));
        // A scan limit and budget far short of the queue cut every busy
        // pass mid-queue.
        let mut tight = base(PreemptionPolicy::Checkpoint, MediaKind::Hdd);
        tight.max_schedule_scan = 3;
        tight.preempt_budget_per_pass = 2;
        cases.push(("tight".into(), tight));
        let workload = GoogleTraceConfig::small(80.0).generate(9);
        let mut held = 0usize;
        for (name, cfg) in &cases {
            let mut sim = ClusterSim::new(cfg.clone(), workload.clone());
            let mut queue = sim.initial_events();
            while let Some((now, event)) = queue.pop() {
                sim.handle(now, event, &mut queue);
                assert_kept_state(&sim, &format!("{name} at {now}"));
                held += usize::from(!sim.reservations.is_empty());
            }
            assert_eq!(sim.jobs_left, 0, "{name}: every job finishes");

            let run = |reference: bool| {
                let buf = SharedBuf::default();
                let mut sim = ClusterSim::new(cfg.clone(), workload.clone());
                sim.reference_walk = reference;
                sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
                let report = sim.run();
                let trace = buf.0.borrow().clone();
                let work = report.telemetry.pass_work.expect("ClusterSim counts");
                (trace, report.telemetry.registry.to_json(), work)
            };
            let (ref_trace, ref_registry, ref_work) = run(true);
            let (trace, registry, work) = run(false);
            assert!(trace == ref_trace, "{name}: traces differ");
            assert_eq!(registry, ref_registry, "{name}: registries differ");
            assert_eq!(work.passes, ref_work.passes, "{name}");
            assert_eq!(work.keys_scanned, ref_work.keys_scanned, "{name}");
            // Jumped keys spend budget without a search.
            assert!(
                work.keys_visited <= ref_work.keys_visited && work.searches <= ref_work.searches,
                "{name}: {work:?}"
            );
        }
        assert!(held > 0, "no run held a reservation between events");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The front's answer equals the full scan's for every demand,
        /// on random per-node free vectors (empty, all-zero and
        /// duplicate-laden sets included). The stub runner does not
        /// shrink, so a failure names the seed that rebuilds its input.
        #[test]
        fn free_front_matches_node_scan(seed in any::<u64>(), nodes in 0usize..24) {
            let mut rng = SimRng::seed_from_u64(seed);
            let free: Vec<Resources> = (0..nodes).map(|_| small_resources(&mut rng)).collect();
            let mut front = FreeFront::default();
            // A stale, longer front first: the rebuild must not keep any of it.
            front.rebuild((0..32).map(|_| small_resources(&mut rng)));
            front.rebuild(free.iter().copied());
            for _ in 0..32 {
                let demand = small_resources(&mut rng);
                let scan = free.iter().any(|f| demand.fits_in(f));
                prop_assert_eq!(
                    front.fits(&demand),
                    scan,
                    "seed {seed}, nodes {nodes}: demand {demand} against {free:?}"
                );
            }
        }
    }
}
