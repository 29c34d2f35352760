//! The YARN protocol simulation.

use cbp_checkpoint::Criu;
use cbp_cluster::{Container, ContainerId, EnergyMeter, EnergyModel, Node, NodeId};
use cbp_core::ckpt_path::{CkptPath, DumpEnd, RestoreEnd};
use cbp_core::fault_clock::{FaultClock, FaultHost, FaultTick};
use cbp_core::task::{TaskExec, TaskTable};
use cbp_core::{PreemptionPolicy, Recorder, RunMetrics, RunReport, TaskStatus, TelemetryReport};
use cbp_dfs::{DfsCluster, DfsConfig};
use cbp_faults::FaultPlan;
use cbp_simkit::{
    run_until_observed, EventQueue, RunStats, SimDuration, SimRng, SimTime, Simulation,
};
use cbp_telemetry::{MetricsRegistry, PreemptAction, TraceRecord, Tracer};
use cbp_workload::{PriorityBand, Workload};

use std::collections::HashMap;

use cbp_workload::JobId;

use crate::components::{AppMaster, QueueKind, ResourceManager};
use crate::config::{YarnConfig, CONTAINER_STARTUP, RPC_DELAY};

/// Protocol events (public as [`YarnSim`]'s associated event type).
#[derive(Debug, Clone, Copy)]
pub enum YarnEvent {
    /// A client submits a job; its AM registers with the RM.
    JobSubmit(u32),
    /// The RM runs a scheduling (and, if needed, preemption) pass.
    RmSchedule,
    /// An AM's Preemption Manager handles a `ContainerPreemptEvent`.
    PreemptDecision {
        /// Application.
        app: u32,
        /// Task index within the application.
        task: u32,
        /// Staleness guard.
        epoch: u32,
    },
    /// A checkpoint dump completed; the AM releases the container.
    DumpDone {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard.
        epoch: u32,
        /// When the dump was initiated (for overhead accounting).
        started: SimTime,
    },
    /// A restore completed; the task resumes.
    RestoreDone {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard.
        epoch: u32,
        /// When the restore was initiated.
        started: SimTime,
    },
    /// A container's task completed.
    TaskFinish {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard.
        epoch: u32,
    },
    /// The NodeManager's grace period for a preempted container expired:
    /// if its dump is still in flight, abort it and force-kill.
    ForceKill {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard (the epoch assigned when the dump started).
        epoch: u32,
    },
    /// The RM's escalation deadline for an unresponsive AM expired: the
    /// preemption request was ignored, so the RM force-kills the
    /// container itself (liveness backstop, fault injection only).
    AmEscalate {
        /// Application.
        app: u32,
        /// Task index.
        task: u32,
        /// Staleness guard (the epoch when the request was ignored).
        epoch: u32,
        /// The deadline the RM waited out.
        waited: SimDuration,
    },
    /// A tick of the fault plan's schedules (see [`FaultTick`]).
    Fault(FaultTick),
}

struct NodeManager {
    node: Node,
    meter: EnergyMeter,
    /// False while a chaos-plan crash holds the node (and its NM) down.
    up: bool,
}

/// The YARN cluster simulation (see the [crate docs](crate) for the
/// component roles).
pub struct YarnSim {
    cfg: YarnConfig,
    workload: Workload,
    nms: Vec<NodeManager>,
    rm: ResourceManager,
    apps: Vec<AppMaster>,
    /// Checkpoint images, NM stores, HDFS files, retry state and breakers.
    ckpt: CkptPath,
    /// MapReduce phase barriers per job (empty for single-phase workloads).
    barriers: HashMap<JobId, u32>,
    next_container: u64,
    total_slots: u32,
    /// The run's ledger, and the tracer when one is attached.
    rec: Recorder,
    /// The fault plan and its crash, partition and leak schedules.
    clock: FaultClock,
    /// Total container count of the workload — the fault tick chains
    /// stop once `tasks_finished` reaches it so they cannot keep an
    /// otherwise-drained run alive.
    total_tasks: u64,
}

fn task_key(app: u32, task: u32) -> u64 {
    ((app as u64) << 32) | task as u64
}

/// The AMs' task records by [`task_key`].
struct AppTasks<'a>(&'a mut [AppMaster]);

impl TaskTable for AppTasks<'_> {
    fn exec(&mut self, key: u64) -> &mut TaskExec {
        &mut self.0[(key >> 32) as usize].tasks[key as u32 as usize].exec
    }
}

/// `candidates` in key order, to compare with the task scan's list.
#[cfg(any(test, debug_assertions))]
fn by_key(mut candidates: Vec<(f64, u64)>) -> Vec<(f64, u64)> {
    candidates.sort_unstable_by_key(|&(_, key)| key);
    candidates
}

impl YarnSim {
    /// Builds a YARN cluster for `workload`.
    pub fn new(cfg: YarnConfig, workload: Workload) -> Self {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let faults = cfg
            .faults
            .clone()
            .filter(|spec| !spec.is_inert())
            .map(FaultPlan::new);
        let nms = (0..cfg.nodes)
            .map(|i| NodeManager {
                node: Node::new(NodeId(i as u32), cfg.node_resources),
                meter: EnergyMeter::new(EnergyModel::default()),
                up: true,
            })
            .collect();
        let dfs =
            DfsCluster::homogeneous(DfsConfig::default(), cfg.media, cfg.nodes, rng.next_u64());
        // Slots are CPU-bound in the paper's setup (24 one-core containers).
        let per_node = workload
            .jobs()
            .first()
            .and_then(|j| j.tasks.first())
            .map(|t| {
                let by_cpu = cfg.node_resources.cpu_milli() / t.resources.cpu_milli().max(1);
                let by_mem = cfg.node_resources.mem().as_u64() / t.resources.mem().as_u64().max(1);
                by_cpu.min(by_mem) as u32
            })
            .unwrap_or(1);
        let total_slots = per_node * cfg.nodes as u32;
        let total_tasks = workload.jobs().iter().map(|j| j.tasks.len() as u64).sum();
        // The pressure plan shrinks every NM's checkpoint store. HDFS
        // datanodes keep the medium's natural capacity: pressure models
        // NM-local store exhaustion, and shrinking the DFS as well would
        // perturb block placement in every non-pressure scenario too.
        let ckpt = CkptPath::new(
            cfg.nodes,
            cfg.media,
            Criu::new(cfg.incremental),
            Some(dfs),
            None,
            faults.as_ref(),
            false,
        );

        YarnSim {
            clock: FaultClock::new(faults, cfg.nodes),
            total_tasks,
            rm: ResourceManager::new(),
            apps: Vec::with_capacity(workload.job_count()),
            ckpt,
            barriers: HashMap::new(),
            nms,
            cfg,
            workload,
            next_container: 1,
            total_slots,
            rec: Recorder::default(),
        }
    }

    /// Replaces the structured-event tracer. The default is a
    /// [`NullTracer`](cbp_telemetry::NullTracer); pass a `JsonlTracer` /
    /// `ChromeTraceTracer` / `MultiTracer` to capture the run. The tracer's `finish()` is called
    /// at the end of the run.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.rec.set_tracer(tracer);
    }

    /// Attaches MapReduce phase barriers (reduces start only after all of a
    /// job's maps finish). Keys are [`JobId`]s of the workload's jobs.
    pub fn with_barriers(mut self, barriers: HashMap<JobId, u32>) -> Self {
        self.barriers = barriers;
        self
    }

    /// Runs the workload to completion and returns the report.
    pub fn run(mut self) -> RunReport {
        let mut queue = self.initial_events();
        let stats = run_until_observed(&mut self, &mut queue, SimTime::MAX, &mut |_| {});
        let makespan = stats.now;
        self.rec.finish();

        let energy_kwh = self.nms.iter().map(|n| n.meter.kwh(makespan)).sum();
        let telemetry = TelemetryReport {
            registry: self.build_registry(energy_kwh, &stats),
            timeseries: None,
            engine_events: stats.events,
            engine_wall_secs: stats.wall.as_secs_f64(),
            pass_work: None,
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

    /// [`Self::run`] with the report split into its metrics and
    /// telemetry. It stays for the benchmark harness under `perfbench/`,
    /// which calls it and is built from its own sources.
    pub fn run_with_telemetry(self) -> (RunMetrics, TelemetryReport) {
        let report = self.run();
        (report.metrics, report.telemetry)
    }

    /// Snapshots the run's `subsystem.metric` values. Everything here is a
    /// pure function of simulation state, so the registry JSON is
    /// byte-stable per seed.
    fn build_registry(&self, energy_kwh: f64, stats: &RunStats) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        self.ckpt.export(&mut reg, stats.now);
        self.rec.ledger.export(&mut reg, stats, energy_kwh);
        let c = self.rec.ledger.counts();
        reg.set_counter("scheduler.force_kills", "ops", c.force_kills);
        reg.set_counter("faults.am_escalations", "ops", c.am_escalations);
        reg
    }

    /// The run's first events: every job submission plus the fault
    /// plan's tick chains.
    fn initial_events(&mut self) -> EventQueue<YarnEvent> {
        let mut queue = EventQueue::new();
        for (i, job) in self.workload.jobs().iter().enumerate() {
            queue.push(job.submit, YarnEvent::JobSubmit(i as u32));
        }
        self.start_fault_clock(&mut queue);
        queue
    }

    /// The execution record of `app`'s task `task`.
    fn exec(&self, app: u32, task: u32) -> &TaskExec {
        &self.apps[app as usize].tasks[task as usize].exec
    }

    /// [`Self::exec`], mutably.
    fn exec_mut(&mut self, app: u32, task: u32) -> &mut TaskExec {
        &mut self.apps[app as usize].tasks[task as usize].exec
    }

    fn update_meter(&mut self, node: usize, now: SimTime) {
        let util = self.nms[node].node.cpu_utilization();
        self.nms[node].meter.set_utilization(now, util);
    }

    fn release_container(&mut self, app: u32, task: u32, now: SimTime) {
        let (node, cid) = match self.exec(app, task).status {
            TaskStatus::Running { node, container }
            | TaskStatus::Dumping { node, container }
            | TaskStatus::Restoring { node, container } => (node as usize, container),
            _ => return,
        };
        self.nms[node].node.release(cid).expect("container on node");
        self.update_meter(node, now);
    }

    /// The RM's scheduling pass: grant free slots production-first, then
    /// preempt the default queue if production is still starved.
    fn rm_schedule(&mut self, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        let _prof = cbp_prof::scope("rm_schedule_pass");
        // Allocation loop: serve head-of-line asks against the *actual*
        // demand of the task the AM will launch next (map and reduce
        // containers differ in size).
        while let Some(app) = self.rm.peek_grant() {
            let Some(&task) = self.apps[app as usize].launch_queue.front() else {
                // Ask-count drift (e.g. a task finished another way):
                // consume the stale ask and continue.
                let _ = self.rm.next_grant();
                continue;
            };
            let demand = self.exec(app, task).spec.resources;
            let Some(node) =
                (0..self.nms.len()).find(|&i| self.nms[i].up && self.nms[i].node.can_fit(&demand))
            else {
                break; // head-of-line blocking: preemption may clear it
            };
            let granted = self.rm.next_grant();
            debug_assert_eq!(granted, Some(app));
            self.launch_on(app, node, now, q);
        }

        // Preemption: production asks still pending?
        if self.cfg.policy == PreemptionPolicy::Wait {
            return;
        }
        let pending_prod = self.rm.pending(QueueKind::Production);
        if pending_prod == 0 {
            return;
        }
        let (prod_running, idle_default) = self.live_containers();
        #[cfg(debug_assertions)]
        assert_eq!(
            prod_running,
            self.count_running_scan(QueueKind::Production),
            "container-derived running count drifted from the task scan"
        );
        // The production queue may claim every slot: in §5.3.3 one
        // production job can evict every non-production container.
        let claimable = self.total_slots.saturating_sub(prod_running);
        let needed = pending_prod.min(claimable);
        if needed == 0 {
            return;
        }

        let candidates = self.victim_costs(idle_default, now);
        #[cfg(debug_assertions)]
        assert_eq!(
            by_key(candidates.clone()),
            self.victim_candidates_scan(now),
            "container-derived victim candidates drifted from the task scan"
        );
        let victims = ResourceManager::select_victims(candidates, needed as usize);
        for key in victims {
            let (app, task) = ((key >> 32) as u32, key as u32);
            let am_task = &mut self.apps[app as usize].tasks[task as usize];
            am_task.preempt_requested = true;
            let epoch = am_task.exec.epoch;
            // ContainerPreemptEvent travels RM -> AM.
            q.push_lane(
                now + RPC_DELAY,
                YarnEvent::PreemptDecision { app, task, epoch },
            );
        }
    }

    /// The §5.2.2 ranking estimate of checkpointing `key` on `node`. It
    /// sees the partition penalty the real dump and restore would pay,
    /// steering preemption away from an isolated rack; it has no stall or
    /// retry term.
    fn checkpoint_cost_secs(&self, key: u64, node: usize, now: SimTime) -> f64 {
        let at = self
            .ckpt
            .node_cost(node, now, self.clock.partition_factor(node), None);
        let incremental = self.cfg.incremental && self.ckpt.path_count(key) > 0;
        let task = &self.apps[(key >> 32) as usize].tasks[key as u32 as usize].exec;
        self.ckpt.victim_cost_secs(task, incremental, &at)
    }

    /// One walk over the live containers, which are at most the cluster's
    /// slots rather than the whole workload. A task holds a container iff
    /// it is `Running`, `Dumping` or `Restoring` (a crash evicts a node's
    /// containers before marking it down), so this sees the tasks a scan
    /// of every app would. Returns the number of production containers
    /// and the victim candidates: running default-queue containers
    /// without an outstanding preempt request, as `(key, node)` in the
    /// containers' hash order.
    fn live_containers(&self) -> (u32, Vec<(u64, usize)>) {
        let mut prod_running = 0;
        let mut idle_default = Vec::new();
        for c in self.nms.iter().flat_map(|nm| nm.node.containers()) {
            let key = c.task();
            let am = &self.apps[(key >> 32) as usize];
            let t = &am.tasks[key as u32 as usize];
            match (am.queue, t.exec.status) {
                (QueueKind::Production, _) => prod_running += 1,
                (QueueKind::Default, TaskStatus::Running { node, .. }) if !t.preempt_requested => {
                    idle_default.push((key, node as usize))
                }
                (QueueKind::Default, _) => {}
            }
        }
        (prod_running, idle_default)
    }

    /// Each candidate's checkpoint-cost estimate for the cost-aware
    /// ranking (§5.2.2); [`ResourceManager::select_victims`] sorts on a
    /// total order, so the candidates' order does not matter.
    fn victim_costs(&self, idle_default: Vec<(u64, usize)>, now: SimTime) -> Vec<(f64, u64)> {
        idle_default
            .into_iter()
            .map(|(key, node)| (self.checkpoint_cost_secs(key, node, now), key))
            .collect()
    }

    /// Reference answer of [`Self::live_containers`]' count: scans every
    /// task.
    #[cfg(any(test, debug_assertions))]
    fn count_running_scan(&self, queue: QueueKind) -> u32 {
        self.apps
            .iter()
            .filter(|a| a.queue == queue)
            .flat_map(|a| a.tasks.iter())
            .filter(|t| {
                matches!(
                    t.exec.status,
                    TaskStatus::Running { .. }
                        | TaskStatus::Dumping { .. }
                        | TaskStatus::Restoring { .. }
                )
            })
            .count() as u32
    }

    /// Reference answer of [`Self::victim_costs`] over
    /// [`Self::live_containers`]' candidates: scans every task, so the
    /// list comes out in key order.
    #[cfg(any(test, debug_assertions))]
    fn victim_candidates_scan(&self, now: SimTime) -> Vec<(f64, u64)> {
        let mut candidates = Vec::new();
        for (ai, am) in self.apps.iter().enumerate() {
            if am.queue != QueueKind::Default {
                continue;
            }
            for (ti, t) in am.tasks.iter().enumerate() {
                if t.preempt_requested {
                    continue;
                }
                if let TaskStatus::Running { node, .. } = t.exec.status {
                    let key = task_key(ai as u32, ti as u32);
                    let cost = self.checkpoint_cost_secs(key, node as usize, now);
                    candidates.push((cost, key));
                }
            }
        }
        candidates
    }

    /// Launches `app`'s next queued task on `node` (fresh start or restore).
    fn launch_on(&mut self, app: u32, node: usize, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        let Some(task) = self.apps[app as usize].next_launch() else {
            return; // stale grant (ask count drifted); nothing to run
        };
        let cid = ContainerId(self.next_container);
        self.next_container += 1;
        let demand = self.exec(app, task).spec.resources;
        self.nms[node]
            .node
            .allocate(Container::new(cid, demand, task_key(app, task)))
            .expect("grant checked can_fit");
        self.update_meter(node, now);

        let key = task_key(app, task);
        // Only a suspended task holds an image, so a fresh or killed task
        // skips the catalog lookup.
        let restore_from = match self.exec(app, task).status {
            TaskStatus::Checkpointed { origin } if self.ckpt.has_image(key) => Some(origin),
            _ => {
                debug_assert!(!self.ckpt.has_image(key), "image implies suspended");
                None
            }
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
            // Restore: read every image in the chain from HDFS. Blocks
            // hosted outside an isolated rack pay the partition penalty.
            let span = self.ckpt.start_restore(
                key,
                node,
                origin,
                &self.apps[app as usize].tasks[task as usize].exec,
                &|i| self.clock.partition_factor(i),
                now,
                &mut self.rec,
            );
            let am_task = self.exec_mut(app, task);
            am_task.status = TaskStatus::Restoring {
                node: node as u32,
                container: cid,
            };
            let epoch = am_task.epoch;
            // `started` is the service start: queue wait burns no CPU.
            q.push(
                span.end,
                YarnEvent::RestoreDone {
                    app,
                    task,
                    epoch,
                    started: span.start,
                },
            );
        } else {
            // The container pays its startup (localization + JVM spawn)
            // before useful execution begins.
            let started = now + CONTAINER_STARTUP;
            let am_task = self.exec_mut(app, task);
            am_task.status = TaskStatus::Running {
                node: node as u32,
                container: cid,
            };
            am_task.run_started = started;
            am_task.mem_synced = started;
            let epoch = am_task.epoch;
            q.push(
                started + am_task.remaining(),
                YarnEvent::TaskFinish { app, task, epoch },
            );
        }
    }

    /// Tears a container down for `reason` and re-queues its task:
    /// progress since the last valid checkpoint is lost (re-execution
    /// waste), the AM re-asks and the RM reschedules. Scheduler kills
    /// (`kill`), escalations (`am-escalate`) and chaos crashes
    /// (`node-crash`) all end here.
    fn evict(
        &mut self,
        app: u32,
        task: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
        reason: &'static str,
    ) {
        let am_task = self.exec_mut(app, task);
        am_task.sync_progress(now);
        let lost = am_task.progress_at_risk();
        let cores = am_task.spec.resources.cores_f64();
        let node = match am_task.status {
            TaskStatus::Running { node, .. }
            | TaskStatus::Dumping { node, .. }
            | TaskStatus::Restoring { node, .. } => node,
            _ => u32::MAX,
        };
        self.rec.ledger.kill_lost_cpu_secs += lost.as_secs_f64() * cores;
        self.rec.record(
            now.as_micros(),
            TraceRecord::TaskEvict {
                task: task_key(app, task),
                node,
                reason,
            },
        );
        self.release_container(app, task, now);

        let origin = self.ckpt.image_origin(task_key(app, task));
        let am_task = &mut self.apps[app as usize].tasks[task as usize];
        am_task.exec.roll_back(origin.is_some());
        am_task.preempt_requested = false;
        am_task.exec.status = origin.map_or(TaskStatus::Pending, |origin| {
            TaskStatus::Checkpointed { origin }
        });
        self.apps[app as usize].requeue(task);
        self.rm.add_asks(app, 1);
        q.push_lane(now + RPC_DELAY, YarnEvent::RmSchedule);
    }

    // ---- image lifecycle (capacity backpressure ladder) -----------------

    /// Suspends the running `container` of `app`'s task `task` on `node`
    /// with a CRIU dump to HDFS.
    fn dump(
        &mut self,
        app: u32,
        task: u32,
        node: usize,
        container: ContainerId,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
    ) {
        let nms = &self.nms;
        let (span, dropped) = self.ckpt.start_dump(
            task_key(app, task),
            node,
            &mut AppTasks(&mut self.apps),
            &[app, task],
            // A rack partition degrades the DFS write pipeline out of the
            // isolated rack.
            &|i| self.clock.partition_factor(i),
            false,
            self.cfg.lifecycle,
            &|i| nms[i].up,
            now,
            &mut self.rec,
        );
        for k in dropped {
            self.chain_lost(k);
        }
        let Some(span) = span else {
            self.evict(app, task, now, q, "kill");
            return;
        };
        let am_task = self.exec_mut(app, task);
        am_task.status = TaskStatus::Dumping {
            node: node as u32,
            container,
        };
        let epoch = am_task.epoch;
        q.push(
            span.end,
            YarnEvent::DumpDone {
                app,
                task,
                epoch,
                // Device service start, so the trace's dump span is
                // service time and `start_us - evict time` is the
                // checkpoint queue wait (mirrors RestoreDone).
                started: span.start,
            },
        );
        if let Some(grace) = self.cfg.graceful_timeout {
            q.push(now + grace, YarnEvent::ForceKill { app, task, epoch });
        }
    }

    /// A chaos-plan crash takes `node` (NM + datanode) down: every
    /// container on it is lost, in-flight dumps are aborted, and the
    /// NameNode re-replicates the blocks that lost a replica. Recovery
    /// is scheduled by the caller ([`FaultTick::Recover`]).
    fn crash_node(&mut self, node: usize, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        if !self.nms[node].up {
            return; // already down (stale event)
        }
        self.nms[node].up = false;
        self.rec
            .record(now.as_micros(), TraceRecord::NodeDown { node: node as u32 });
        let mut victims: Vec<u64> = self.nms[node].node.containers().map(|c| c.task()).collect();
        victims.sort_unstable();
        for key in victims {
            let (app, task) = ((key >> 32) as u32, key as u32);
            self.crash_victim(app, task, now, q);
        }
        // The node's datanode died with it: re-replicate every block that
        // lost a replica onto the survivors; blocks whose only replica
        // lived here are gone, breaking the image chains stacked on them.
        if let Some((repair, lost)) = self.ckpt.fail_datanode(node, now, &mut self.rec) {
            self.rec.ledger.dfs_blocks_lost += repair.blocks_lost as u64;
            for key in lost {
                self.drop_lost_chain((key >> 32) as u32, key as u32, now, q);
            }
        }
        self.update_meter(node, now);
        q.push_lane(now + RPC_DELAY, YarnEvent::RmSchedule);
    }

    /// Evicts one container lost to a node crash. Unlike a kill the
    /// eviction is not the scheduler's choice, so it counts as a
    /// `crash_eviction`; an in-flight dump dies with the node.
    fn crash_victim(&mut self, app: u32, task: u32, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        if let TaskStatus::Dumping { node, container } = self.exec(app, task).status {
            // Abort the half-written tip; the epoch bump below stales the
            // queued DumpDone, so close the dangling dump span here.
            let key = task_key(app, task);
            self.ckpt
                .abort_dump(key, node as usize, "node-crash", true, now, &mut self.rec);
            self.exec_mut(app, task).status = TaskStatus::Running { node, container };
        }
        self.evict(app, task, now, q, "node-crash");
    }

    /// A replication repair could not save `task`'s image chain: discard
    /// it for good. The checkpointed progress becomes re-execution waste
    /// and the task degrades to a fresh start; an in-flight dump or
    /// restore stacked on the lost ancestors is aborted.
    fn drop_lost_chain(
        &mut self,
        app: u32,
        task: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
    ) {
        self.rec.ledger.images_lost_to_failures += 1;
        let key = task_key(app, task);
        let status = self.exec(app, task).status;
        self.ckpt
            .lose_chain(key, status, "node-crash", now, &mut self.rec);
        self.chain_lost(key);
        match status {
            TaskStatus::Dumping { node, container } => {
                // The tip being written sat below lost ancestor blocks.
                self.exec_mut(app, task).status = TaskStatus::Running { node, container };
                self.evict(app, task, now, q, "node-crash");
            }
            TaskStatus::Restoring { .. } => {
                // The in-flight read can no longer complete; the epoch
                // bump in the eviction stales the queued RestoreDone.
                self.evict(app, task, now, q, "node-crash");
            }
            // A live task keeps its in-memory progress (only the safety
            // net is gone); a queued one restarted from scratch in place.
            _ => {}
        }
    }

    /// Degrades `key` after its chain was dropped (eviction, block loss,
    /// integrity loss): the next dump must be full, and a task queued on
    /// its image restarts from scratch in place (it already sits in the
    /// launch queue).
    fn chain_lost(&mut self, key: u64) {
        let am_task = &mut self.apps[(key >> 32) as usize].tasks[key as u32 as usize].exec;
        am_task.lose_chain();
        if matches!(
            am_task.status,
            TaskStatus::Pending | TaskStatus::Checkpointed { .. }
        ) {
            am_task.progress = SimDuration::ZERO;
            am_task.status = TaskStatus::Pending;
        }
    }
}

impl YarnSim {
    /// The event dispatcher proper. [`Simulation::handle`] wraps it so
    /// the image-ledger conservation invariant runs after every event —
    /// the early `return`s inside the match cannot skip it.
    fn dispatch(&mut self, now: SimTime, event: YarnEvent, q: &mut EventQueue<YarnEvent>) {
        match event {
            YarnEvent::JobSubmit(app) => {
                let job = &self.workload.jobs()[app as usize];
                let queue = if job.priority.band() == PriorityBand::Production {
                    QueueKind::Production
                } else {
                    QueueKind::Default
                };
                let am = match self.barriers.get(&job.id) {
                    Some(&barrier) => {
                        AppMaster::new_with_barrier(app, queue, job.submit, &job.tasks, barrier)
                    }
                    None => AppMaster::new(app, queue, job.submit, &job.tasks),
                };
                if self.rec.on() {
                    let priority = job.priority.0;
                    for ti in 0..job.tasks.len() {
                        self.rec.record(
                            now.as_micros(),
                            TraceRecord::TaskSubmit {
                                task: task_key(app, ti as u32),
                                job: app as u64,
                                priority,
                            },
                        );
                    }
                }
                let asks = am.launch_queue.len() as u32;
                self.apps.push(am);
                self.rm.register_app(app, queue);
                self.rm.add_asks(app, asks);
                q.push_lane(now + RPC_DELAY, YarnEvent::RmSchedule);
            }
            YarnEvent::RmSchedule => {
                self.rm_schedule(now, q);
            }
            YarnEvent::PreemptDecision { app, task, epoch } => {
                let am_task = self.exec(app, task);
                let TaskStatus::Running { node, container } = am_task.status else {
                    return; // finished or already transitioned
                };
                if am_task.epoch != epoch {
                    return;
                }
                let node = node as usize;
                // Fault injection: an unresponsive AM drops the
                // ContainerPreemptEvent on the floor. The RM notices the
                // missed deadline (`graceful_timeout`, or the plan's
                // escalation backstop when none is configured) and
                // escalates to a forced kill so the production ask is
                // never starved forever.
                if let Some(plan) = self.clock.plan() {
                    if plan.am_unresponsive(task_key(app, task), epoch) {
                        let waited = self
                            .cfg
                            .graceful_timeout
                            .unwrap_or_else(|| plan.escalation_timeout());
                        q.push(
                            now + waited,
                            YarnEvent::AmEscalate {
                                app,
                                task,
                                epoch,
                                waited,
                            },
                        );
                        return;
                    }
                }
                // The Preemption Manager syncs progress and memory under
                // every policy; only Algorithm 1 reads them.
                let key = task_key(app, task);
                let am_task = &mut self.apps[app as usize].tasks[task as usize].exec;
                am_task.sync_progress(now);
                let at_risk = am_task.progress_at_risk();
                let mem = am_task.sync_memory(now);
                let action = self.ckpt.preempt_action(
                    key,
                    node,
                    self.cfg.policy,
                    now,
                    &mut self.rec,
                    |ckpt| (at_risk, ckpt.dump_overhead(key, mem, node, now)),
                );
                match action {
                    PreemptAction::Kill => self.evict(app, task, now, q, "kill"),
                    PreemptAction::Checkpoint => self.dump(app, task, node, container, now, q),
                }
            }
            YarnEvent::ForceKill { app, task, epoch } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch {
                    return; // the dump completed in time
                }
                let TaskStatus::Dumping { node, container } = am_task.status else {
                    return;
                };
                // Abort the half-written dump (its HDFS file stays behind)
                // and kill the container.
                let key = task_key(app, task);
                self.ckpt.abort_dump(
                    key,
                    node as usize,
                    "grace-expired",
                    false,
                    now,
                    &mut self.rec,
                );
                // The container is still held; transition it through a kill.
                self.exec_mut(app, task).status = TaskStatus::Running { node, container };
                self.evict(app, task, now, q, "kill");
            }
            YarnEvent::AmEscalate {
                app,
                task,
                epoch,
                waited,
            } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch {
                    return; // the task moved on (finished or was dumped)
                }
                let TaskStatus::Running { node, .. } = am_task.status else {
                    return;
                };
                self.rec.record(
                    now.as_micros(),
                    TraceRecord::AmEscalate {
                        task: task_key(app, task),
                        node,
                        waited_us: waited.as_micros(),
                    },
                );
                self.evict(app, task, now, q, "am-escalate");
            }
            YarnEvent::DumpDone {
                app,
                task,
                epoch,
                started,
            } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch {
                    return;
                }
                let TaskStatus::Dumping { node, container } = am_task.status else {
                    return;
                };
                // Fault injection: the NM's `criu dump` errored. While the
                // retry budget lasts the tip is rewritten after a backoff
                // (resuming past the durable chunk frontier when chunked
                // resume is on), the rewrite paying any partition penalty;
                // once exhausted the Preemption Manager's fallback is the
                // stock-YARN one — abort the half-written image and kill
                // the container, as for a grace-period expiry.
                let end = self.ckpt.dump_done(
                    self.clock.plan(),
                    task_key(app, task),
                    node as usize,
                    epoch,
                    started,
                    &mut self.apps[app as usize].tasks[task as usize].exec,
                    &|i| self.clock.partition_factor(i),
                    |l| &mut l.dump_overhead_cpu_secs,
                    now,
                    &mut self.rec,
                );
                match end {
                    DumpEnd::Retry(span) => q.push(
                        span.end,
                        YarnEvent::DumpDone {
                            app,
                            task,
                            epoch,
                            started: span.start,
                        },
                    ),
                    DumpEnd::Failed => {
                        // The container is still held; transition it
                        // through a kill.
                        self.exec_mut(app, task).status = TaskStatus::Running { node, container };
                        self.evict(app, task, now, q, "kill");
                    }
                    DumpEnd::Committed => {
                        self.release_container(app, task, now);
                        let am_task = &mut self.apps[app as usize].tasks[task as usize];
                        am_task.preempt_requested = false;
                        am_task.exec.status = TaskStatus::Checkpointed { origin: node };
                        self.apps[app as usize].requeue(task);
                        self.rm.add_asks(app, 1);
                        q.push_lane(now + RPC_DELAY, YarnEvent::RmSchedule);
                    }
                }
            }
            YarnEvent::RestoreDone {
                app,
                task,
                epoch,
                started,
            } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch {
                    return;
                }
                let TaskStatus::Restoring { node, container } = am_task.status else {
                    return;
                };
                // Chunked-resume integrity: validate the chain before the
                // restored state is trusted. A truncated chain is re-read
                // in place; a dead one restarts the task from scratch on
                // its container.
                let key = task_key(app, task);
                let exec = &mut self.apps[app as usize].tasks[task as usize].exec;
                let end = self.ckpt.check_restore(
                    self.clock.plan(),
                    key,
                    node as usize,
                    epoch,
                    started,
                    exec,
                    &|i| self.clock.partition_factor(i),
                    |l| &mut l.restore_overhead_cpu_secs,
                    now,
                    &mut self.rec,
                );
                let finish = match end {
                    RestoreEnd::Intact => self.ckpt.finish_restore(
                        key,
                        node as usize,
                        started,
                        exec,
                        now,
                        &mut self.rec,
                    ),
                    RestoreEnd::Reread(span) => {
                        q.push(
                            span.end,
                            YarnEvent::RestoreDone {
                                app,
                                task,
                                epoch,
                                started: span.start,
                            },
                        );
                        return;
                    }
                    RestoreEnd::Dead => {
                        self.ckpt.scratch_restart(key, exec, &mut self.rec.ledger);
                        exec.resume(now + CONTAINER_STARTUP)
                    }
                };
                exec.status = TaskStatus::Running { node, container };
                let epoch = exec.epoch;
                q.push(finish, YarnEvent::TaskFinish { app, task, epoch });
            }
            YarnEvent::TaskFinish { app, task, epoch } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch || !matches!(am_task.status, TaskStatus::Running { .. }) {
                    return;
                }
                self.exec_mut(app, task).sync_progress(now);
                if let TaskStatus::Running { node, .. } = self.exec(app, task).status {
                    self.rec.record(
                        now.as_micros(),
                        TraceRecord::TaskFinish {
                            task: task_key(app, task),
                            node,
                        },
                    );
                }
                self.release_container(app, task, now);
                let am_task = self.exec_mut(app, task);
                am_task.status = TaskStatus::Finished;
                let cores = am_task.spec.resources.cores_f64();
                let work = am_task.spec.duration.as_secs_f64();
                self.rec.ledger.useful_cpu_secs += cores * work;

                self.ckpt.discard_chain(task_key(app, task));

                let released_reduces = self.apps[app as usize].on_task_done(task);
                if released_reduces > 0 {
                    self.rm.add_asks(app, released_reduces);
                }
                if self.apps[app as usize].unfinished == 0 {
                    let job = &self.workload.jobs()[app as usize];
                    self.rec.ledger.record_response(
                        job.priority.band(),
                        job.latency,
                        job.submit,
                        now,
                    );
                }
                q.push_lane(now + RPC_DELAY, YarnEvent::RmSchedule);
            }
            YarnEvent::Fault(tick) => self.on_fault_tick(tick, now, q),
        }
    }
}

impl FaultHost for YarnSim {
    type Event = YarnEvent;

    fn fault_event(tick: FaultTick) -> YarnEvent {
        YarnEvent::Fault(tick)
    }

    fn fault_parts(&mut self) -> (&mut FaultClock, &mut CkptPath, &mut Recorder) {
        (&mut self.clock, &mut self.ckpt, &mut self.rec)
    }

    fn node_up(&mut self, node: usize) -> &mut bool {
        &mut self.nms[node].up
    }

    fn crash(&mut self, node: usize, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        self.crash_node(node, now, q);
    }

    fn work_remains(&self) -> bool {
        self.rec.ledger.counts().tasks_finished < self.total_tasks
    }

    /// A crash already asked the RM for a pass per crashed node; a node's
    /// return asks for one after the heartbeat delay.
    fn follow_up(&mut self, after: FaultTick, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        if let FaultTick::Recover(_) = after {
            q.push_lane(now + RPC_DELAY, YarnEvent::RmSchedule);
        }
    }
}

impl Simulation for YarnSim {
    type Event = YarnEvent;

    fn handle(&mut self, now: SimTime, event: YarnEvent, q: &mut EventQueue<YarnEvent>) {
        self.dispatch(now, event, q);
        #[cfg(debug_assertions)]
        self.ckpt.assert_image_conservation(now);
    }

    fn event_kind(&self, event: &YarnEvent) -> &'static str {
        match event {
            YarnEvent::JobSubmit(_) => "job_submit",
            YarnEvent::RmSchedule => "rm_schedule",
            YarnEvent::PreemptDecision { .. } => "preempt_decision",
            YarnEvent::DumpDone { .. } => "dump_done",
            YarnEvent::RestoreDone { .. } => "restore_done",
            YarnEvent::TaskFinish { .. } => "task_finish",
            YarnEvent::ForceKill { .. } => "force_kill",
            YarnEvent::AmEscalate { .. } => "am_escalate",
            YarnEvent::Fault(tick) => tick.kind(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_faults::FaultSpec;
    use cbp_storage::MediaKind;
    use cbp_workload::facebook::FacebookConfig;

    /// Steps contended runs event by event and checks after every event
    /// that the container-derived running count and victim candidates
    /// equal the all-task scans. Release test builds run this too, while
    /// the pass's own cross-check is debug-only.
    #[test]
    fn live_container_scans_match_task_scans() {
        let workload = FacebookConfig {
            jobs: 16,
            total_tasks: 340,
            giant_job_tasks: 60,
            mean_interarrival: SimDuration::from_secs(90),
            ..Default::default()
        }
        .generate(3);
        for plan in ["off", "heavy,seed=5", "chaos,seed=7"] {
            let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd);
            cfg.nodes = 2;
            let cfg = cfg.with_faults(FaultSpec::parse(plan).expect("valid plan"));
            let mut sim = YarnSim::new(cfg, workload.clone());
            let mut queue = sim.initial_events();
            let mut contended = 0;
            while let Some((now, event)) = queue.pop() {
                sim.handle(now, event, &mut queue);
                let (prod_running, idle_default) = sim.live_containers();
                let scan = sim.count_running_scan(QueueKind::Production);
                assert_eq!(prod_running, scan, "{plan} at {now}");
                contended += usize::from(prod_running > 0 && !idle_default.is_empty());
                let candidates = by_key(sim.victim_costs(idle_default, now));
                assert_eq!(
                    candidates,
                    sim.victim_candidates_scan(now),
                    "{plan} at {now}"
                );
            }
            assert_eq!(
                sim.rec.ledger.counts().tasks_finished,
                sim.total_tasks,
                "{plan}: every task finishes"
            );
            assert!(
                contended > 0,
                "{plan}: both queues never shared the cluster"
            );
        }
    }
}
