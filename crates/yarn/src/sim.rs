//! The YARN protocol simulation.

use cbp_checkpoint::Criu;
use cbp_cluster::{Container, ContainerId, EnergyMeter, Node, NodeId};
use cbp_core::ckpt_path::{media_name, ChainValidation, CkptPath};
use cbp_core::fault_clock::{FaultClock, FaultHost, FaultTick};
use cbp_core::task::TaskExec;
use cbp_core::{PreemptionPolicy, RunLedger, RunMetrics, RunReport, TaskStatus, TelemetryReport};
use cbp_dfs::DfsCluster;
use cbp_faults::FaultPlan;
use cbp_simkit::{
    run_until_observed, EventQueue, RunStats, SimDuration, SimRng, SimTime, Simulation,
};
use cbp_telemetry::{MetricsRegistry, PreemptAction, TraceRecord, TraceSink, Tracer};
use cbp_workload::{PriorityBand, Workload};

use std::collections::HashMap;

use cbp_workload::JobId;

use crate::components::{AppMaster, QueueKind, ResourceManager};
use crate::config::YarnConfig;

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
    ledger: RunLedger,
    /// Structured-event sink (disabled by default).
    trace: TraceSink,
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
                meter: EnergyMeter::new(cfg.energy),
                up: true,
            })
            .collect();
        let dfs = DfsCluster::homogeneous(cfg.dfs, cfg.media, cfg.nodes, {
            use rand::RngCore;
            rng.next_u64()
        });
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
            ledger: RunLedger::default(),
            trace: TraceSink::default(),
        }
    }

    /// Replaces the structured-event tracer. The default is a
    /// [`NullTracer`](cbp_telemetry::NullTracer); pass a `JsonlTracer` /
    /// `ChromeTraceTracer` / `MultiTracer` to capture the run. The tracer's `finish()` is called
    /// at the end of the run.
    pub fn set_tracer(&mut self, tracer: Box<dyn Tracer>) {
        self.trace = TraceSink::new(tracer);
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
        self.trace.finish();

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
            metrics: self.ledger.into_metrics(makespan, energy_kwh, &self.ckpt),
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
        self.ledger.export(&mut reg, stats, energy_kwh);
        reg.set_counter("scheduler.force_kills", "ops", self.ledger.force_kills);
        reg.set_counter("faults.am_escalations", "ops", self.ledger.am_escalations);
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
        let allowed = (self.cfg.prod_queue_guarantee * self.total_slots as f64).floor() as u32;
        let claimable = allowed.saturating_sub(prod_running);
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
            q.push(
                now + self.cfg.rpc_delay,
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
            TaskStatus::Checkpointed { origin } if self.ckpt.criu().has_image(key) => Some(origin),
            _ => {
                debug_assert!(!self.ckpt.criu().has_image(key), "image implies suspended");
                None
            }
        };
        self.trace.record(
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
            let service = self.ckpt.dfs_read_time(key, node);
            let factor = self.clock.partition_factor(node);
            let service = if factor > 1.0 {
                service.mul_f64(factor)
            } else {
                service
            };
            let size = self.ckpt.criu().image_size(key);
            let op = self.ckpt.read(node, now, size, service);
            if origin != node as u32 {
                self.ledger.remote_restores += 1;
            }
            self.trace.record(
                now.as_micros(),
                TraceRecord::RestoreStart {
                    task: key,
                    node: node as u32,
                    origin,
                    device: media_name(self.cfg.media.kind()),
                    bytes: size.as_u64(),
                    remote: origin != node as u32,
                },
            );
            let am_task = self.exec_mut(app, task);
            am_task.status = TaskStatus::Restoring {
                node: node as u32,
                container: cid,
            };
            let epoch = am_task.epoch;
            // `started` is the service start: queue wait burns no CPU.
            q.push(
                op.end,
                YarnEvent::RestoreDone {
                    app,
                    task,
                    epoch,
                    started: op.start,
                },
            );
        } else {
            // The container pays its startup (localization + JVM spawn)
            // before useful execution begins.
            let started = now + self.cfg.container_startup;
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

    /// Kills a running container: at-risk progress is lost; the AM re-asks.
    fn kill(&mut self, app: u32, task: u32, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        self.kill_with_reason(app, task, now, q, "kill");
    }

    /// [`Self::kill`] with an explicit trace eviction reason, so
    /// AM-escalation kills stay distinguishable from scheduler-initiated
    /// kills in the trace (`"am-escalate"` vs `"kill"`).
    fn kill_with_reason(
        &mut self,
        app: u32,
        task: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
        reason: &'static str,
    ) {
        let (lost, cores) = self.evict_container(app, task, now, q, reason);
        self.ledger.charge_kill(lost, cores);
    }

    /// Evicts a container a node crash took down. Unlike a kill the
    /// eviction is not the scheduler's choice, so it counts as a
    /// `crash_eviction`.
    fn evict_crashed(&mut self, app: u32, task: u32, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        let (lost, cores) = self.evict_container(app, task, now, q, "node-crash");
        self.ledger.crash_evictions += 1;
        self.ledger.kill_lost_cpu_secs += lost.as_secs_f64() * cores;
    }

    /// Tears a container down and re-queues its task: progress since the
    /// last valid checkpoint is lost, the AM re-asks and the RM
    /// reschedules. Shared by scheduler kills and chaos crashes, so it
    /// returns the lost progress and the task's cores for the caller to
    /// charge as a kill or as a crash eviction.
    fn evict_container(
        &mut self,
        app: u32,
        task: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
        reason: &'static str,
    ) -> (SimDuration, f64) {
        let am_task = self.exec_mut(app, task);
        am_task.sync_progress(now);
        let lost = am_task.progress_at_risk();
        let cores = am_task.spec.resources.cores_f64();
        if self.trace.on() {
            let node = match self.exec(app, task).status {
                TaskStatus::Running { node, .. }
                | TaskStatus::Dumping { node, .. }
                | TaskStatus::Restoring { node, .. } => node,
                _ => u32::MAX,
            };
            self.trace.record(
                now.as_micros(),
                TraceRecord::TaskEvict {
                    task: task_key(app, task),
                    node,
                    reason,
                },
            );
        }
        self.release_container(app, task, now);

        let key = task_key(app, task);
        let has_image = self.ckpt.criu().has_image(key);
        let am_task = &mut self.apps[app as usize].tasks[task as usize];
        am_task.exec.roll_back(has_image);
        am_task.preempt_requested = false;
        am_task.exec.status = if has_image {
            let origin = self
                .ckpt
                .criu()
                .chain(key)
                .and_then(|c| c.tip())
                .map(|r| r.origin_node)
                .expect("image has a tip");
            TaskStatus::Checkpointed { origin }
        } else {
            TaskStatus::Pending
        };
        self.apps[app as usize].requeue(task);
        self.rm.add_asks(app, 1);
        q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
        (lost, cores)
    }

    // ---- image lifecycle (capacity backpressure ladder) -----------------

    /// Suspends a running container with a CRIU dump to HDFS.
    fn dump(&mut self, app: u32, task: u32, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        let (node, cid) = match self.exec(app, task).status {
            TaskStatus::Running { node, container } => (node as usize, container),
            _ => unreachable!("dump target must be running"),
        };
        let key = task_key(app, task);
        let am_task = &mut self.apps[app as usize].tasks[task as usize].exec;
        am_task.sync_progress(now);
        let (size, _) = self
            .ckpt
            .criu()
            .next_dump_size(key, am_task.sync_memory(now));
        let (nms, apps) = (&self.nms, &self.apps);
        let (origin, dropped) = self.ckpt.place_dump(
            key,
            node,
            size,
            self.cfg.lifecycle,
            now,
            &mut self.trace,
            &|i| nms[i].up,
            &|k| {
                apps[(k >> 32) as usize].tasks[k as u32 as usize]
                    .exec
                    .chain_loss()
            },
        );
        for k in dropped {
            self.chain_lost(k);
        }
        let Some(origin) = origin else {
            self.kill(app, task, now, q);
            return;
        };

        let epoch = self.exec(app, task).epoch;
        let path = format!("/ckpt/{app}/{task}/{epoch}/{}", self.ckpt.path_count(key));
        // A rack partition degrades the DFS write pipeline out of the
        // isolated rack; the slowdown is also a health signal even when
        // the dump eventually completes.
        let factor = self.clock.partition_factor(node);
        if factor > 1.0 {
            self.ckpt.observe_health(node, now, false, &mut self.trace);
        }
        let write = self.ckpt.write_dfs(key, path, size, node);
        let service = write.map(|d| if factor > 1.0 { d.mul_f64(factor) } else { d });

        // Re-syncing at the same instant folds in nothing; it hands back
        // the image.
        let mem = self.apps[app as usize].tasks[task as usize]
            .exec
            .sync_memory(now);
        let Some(result) =
            self.ckpt
                .dump_image(key, mem, node, origin, service, now, &mut self.trace)
        else {
            self.kill(app, task, now, q);
            return;
        };
        let incremental = matches!(
            result.kind,
            cbp_checkpoint::CheckpointKind::Incremental { .. }
        );
        self.trace.record(
            now.as_micros(),
            TraceRecord::DumpStart {
                task: key,
                node: node as u32,
                device: media_name(self.cfg.media.kind()),
                bytes: size.as_u64(),
                incremental,
            },
        );
        self.trace.record(
            now.as_micros(),
            TraceRecord::TaskEvict {
                task: key,
                node: node as u32,
                reason: "dump",
            },
        );
        let am_task = &mut self.apps[app as usize].tasks[task as usize].exec;
        let cores = am_task.spec.resources.cores_f64();
        // CPU wastage counts the dump's service time only: a queued victim
        // is stopped and burns no CPU (queueing still delays resource
        // release through the DumpDone event time).
        self.ledger
            .charge_dump(result.op.end.since(result.op.start), cores);
        am_task.status = TaskStatus::Dumping {
            node: node as u32,
            container: cid,
        };
        am_task.epoch += 1;
        let epoch = am_task.epoch;
        q.push(
            result.op.end,
            YarnEvent::DumpDone {
                app,
                task,
                epoch,
                // Device service start, so the trace's dump span is
                // service time and `start_us - evict time` is the
                // checkpoint queue wait (mirrors RestoreDone).
                started: result.op.start,
            },
        );
        if let Some(grace) = self.cfg.graceful_timeout {
            q.push(now + grace, YarnEvent::ForceKill { app, task, epoch });
        }
    }

    /// Handles a failed dump attempt (the NM's `criu dump` errored). While
    /// the retry budget lasts the NM rewrites the stored tip after a
    /// backoff (resuming past the durable chunk frontier when chunked
    /// resume is on). Once it is spent the half-written tip is aborted and
    /// the container goes through the same kill path the NM uses for a
    /// grace-period expiry: progress since the last valid checkpoint is
    /// lost but the preempted resources are released.
    fn on_dump_failed(
        &mut self,
        app: u32,
        task: u32,
        epoch: u32,
        attempt: u32,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
    ) {
        let am_task = self.exec(app, task);
        let TaskStatus::Dumping { node, container } = am_task.status else {
            return;
        };
        let full = am_task.spec.resources.mem();
        let cores = am_task.spec.resources.cores_f64();
        let plan = self.clock.plan().expect("caller checked plan presence");
        let retry = self.ckpt.fail_dump(
            plan,
            task_key(app, task),
            node as usize,
            epoch,
            attempt,
            full,
            now,
            &mut self.trace,
        );
        let Some(retry) = retry else {
            // The container is still held; transition it through a kill.
            self.exec_mut(app, task).status = TaskStatus::Running { node, container };
            self.kill(app, task, now, q);
            return;
        };
        // The rewrite pays the origin device's sequential write speed (plus
        // any partition penalty); the preempted container keeps holding its
        // resources through the window, so the service time is overhead.
        let factor = self.clock.partition_factor(node as usize).max(1.0);
        let service = self
            .ckpt
            .device(retry.origin)
            .spec()
            .write_time(retry.rewrite)
            .mul_f64(factor);
        self.ledger.dump_overhead_cpu_secs += service.as_secs_f64() * cores;
        let start = now + retry.backoff;
        q.push(
            start + service,
            YarnEvent::DumpDone {
                app,
                task,
                epoch,
                started: start,
            },
        );
    }

    /// A chaos-plan crash takes `node` (NM + datanode) down: every
    /// container on it is lost, in-flight dumps are aborted, and the
    /// NameNode re-replicates the blocks that lost a replica. Recovery
    /// is scheduled by the caller ([`YarnEvent::ChaosRecover`]).
    fn crash_node(&mut self, node: usize, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        if !self.nms[node].up {
            return; // already down (stale event)
        }
        self.nms[node].up = false;
        self.trace
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
        if let Some((_, lost)) = self.ckpt.fail_datanode(node, now, &mut self.trace) {
            for key in lost {
                self.drop_lost_chain((key >> 32) as u32, key as u32, now, q);
            }
        }
        self.update_meter(node, now);
        q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
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
                .abort_dump(key, node as usize, "node-crash", true, now, &mut self.trace);
            self.exec_mut(app, task).status = TaskStatus::Running { node, container };
        }
        self.evict_crashed(app, task, now, q);
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
        let key = task_key(app, task);
        let status = self.exec(app, task).status;
        let dumping_on = match status {
            TaskStatus::Dumping { node, .. } => Some(node as usize),
            _ => None,
        };
        self.ckpt
            .lose_chain(key, dumping_on, "node-crash", now, &mut self.trace);
        self.chain_lost(key);
        match status {
            TaskStatus::Dumping { node, container } => {
                // The tip being written sat below lost ancestor blocks.
                self.exec_mut(app, task).status = TaskStatus::Running { node, container };
                self.evict_crashed(app, task, now, q);
            }
            TaskStatus::Restoring { .. } => {
                // The in-flight read can no longer complete; the epoch
                // bump in the eviction stales the queued RestoreDone.
                self.evict_crashed(app, task, now, q);
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

    /// Chunk-level validation of a restored chain (chunked-resume mode). A
    /// truncated chain is re-read in place from its older tip; a dead one
    /// restarts the task from scratch on its container.
    fn validate_restored_chain(
        &mut self,
        app: u32,
        task: u32,
        epoch: u32,
        started: SimTime,
        now: SimTime,
        q: &mut EventQueue<YarnEvent>,
    ) -> ChainValidation {
        let key = task_key(app, task);
        let am_task = self.exec(app, task);
        let TaskStatus::Restoring { node, container } = am_task.status else {
            return ChainValidation::Intact;
        };
        let cores = am_task.spec.resources.cores_f64();
        let plan = self.clock.plan().expect("resume mode implies a plan");
        let verdict = self.ckpt.validate_chain(
            plan,
            key,
            node as usize,
            epoch,
            0,
            started,
            now,
            cores,
            &mut self.ledger.restore_overhead_cpu_secs,
            &mut self.trace,
        );
        match verdict {
            ChainValidation::Intact => {}
            ChainValidation::Dead => {
                // The checkpointed progress is re-execution waste and the
                // task restarts from scratch on its container.
                let lost = self.exec(app, task).checkpointed_progress;
                self.ledger.kill_lost_cpu_secs += lost.as_secs_f64() * cores;
                self.ckpt.discard_chain(key);
                self.chain_lost(key);
                let startup = self.cfg.container_startup;
                let am_task = self.exec_mut(app, task);
                am_task.progress = SimDuration::ZERO;
                am_task.status = TaskStatus::Running { node, container };
                am_task.run_started = now + startup;
                am_task.mem_synced = am_task.run_started;
                let epoch = am_task.epoch;
                q.push(
                    am_task.run_started + am_task.remaining(),
                    YarnEvent::TaskFinish { app, task, epoch },
                );
            }
            ChainValidation::Truncated { stamp } => {
                // Roll progress back to what the surviving tip certifies.
                self.exec_mut(app, task).truncate_to(stamp);
                // Re-read the truncated chain in place (same node, same
                // episode). The strictly shrinking chain bounds the
                // truncation loop.
                let service = self.ckpt.dfs_read_time(key, node as usize);
                let factor = self.clock.partition_factor(node as usize);
                let service = if factor > 1.0 {
                    service.mul_f64(factor)
                } else {
                    service
                };
                let size = self.ckpt.criu().image_size(key);
                let op = self.ckpt.read(node as usize, now, size, service);
                q.push(
                    op.end,
                    YarnEvent::RestoreDone {
                        app,
                        task,
                        epoch,
                        started: op.start,
                    },
                );
            }
        }
        verdict
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
                if self.trace.on() {
                    let priority = job.priority.0;
                    for ti in 0..job.tasks.len() {
                        self.trace.record(
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
                q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
            }
            YarnEvent::RmSchedule => {
                self.rm_schedule(now, q);
            }
            YarnEvent::PreemptDecision { app, task, epoch } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch || !matches!(am_task.status, TaskStatus::Running { .. }) {
                    return; // finished or already transitioned
                }
                let node = match am_task.status {
                    TaskStatus::Running { node, .. } => node as usize,
                    _ => unreachable!(),
                };
                // Fault injection: an unresponsive AM drops the
                // ContainerPreemptEvent on the floor. The RM notices the
                // missed deadline (`graceful_timeout`, or the plan's
                // escalation backstop when none is configured) and
                // escalates to a forced kill so the production ask is
                // never starved forever.
                if let Some(plan) = self.clock.plan() {
                    if plan.am_unresponsive(task_key(app, task), epoch) {
                        let wait = self
                            .cfg
                            .graceful_timeout
                            .unwrap_or_else(|| plan.escalation_timeout());
                        q.push(now + wait, YarnEvent::AmEscalate { app, task, epoch });
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
                    &mut self.trace,
                    |ckpt| (at_risk, ckpt.dump_overhead(key, mem, node, now)),
                );
                match action {
                    PreemptAction::Kill => self.kill(app, task, now, q),
                    PreemptAction::Checkpoint => self.dump(app, task, now, q),
                }
            }
            YarnEvent::ForceKill { app, task, epoch } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch {
                    return; // the dump completed in time
                }
                let TaskStatus::Dumping { node, .. } = am_task.status else {
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
                    &mut self.trace,
                );
                self.ledger.force_kills += 1;
                // The container is still held; transition it through a kill.
                // kill() handles Running; emulate by restoring Running-like
                // state first.
                let am_task = self.exec_mut(app, task);
                let TaskStatus::Dumping { node, container } = am_task.status else {
                    unreachable!()
                };
                am_task.status = TaskStatus::Running { node, container };
                self.kill(app, task, now, q);
            }
            YarnEvent::AmEscalate { app, task, epoch } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch {
                    return; // the task moved on (finished or was dumped)
                }
                let TaskStatus::Running { node, .. } = am_task.status else {
                    return;
                };
                self.ledger.am_escalations += 1;
                if self.trace.on() {
                    let plan = self.clock.plan().expect("escalation requires a plan");
                    let waited = self
                        .cfg
                        .graceful_timeout
                        .unwrap_or_else(|| plan.escalation_timeout());
                    self.trace.record(
                        now.as_micros(),
                        TraceRecord::AmEscalate {
                            task: task_key(app, task),
                            node,
                            waited_us: waited.as_micros(),
                        },
                    );
                }
                self.kill_with_reason(app, task, now, q, "am-escalate");
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
                let TaskStatus::Dumping { node, .. } = am_task.status else {
                    return;
                };
                self.ckpt.advance(node as usize, now);
                // Fault injection: the NM's `criu dump` errored. While the
                // retry budget lasts the tip is rewritten after a backoff
                // (resuming past the durable chunk frontier when chunked
                // resume is on); once exhausted the Preemption Manager's
                // fallback is the stock-YARN one — abort the half-written
                // image and kill the container.
                if let Some(plan) = self.clock.plan() {
                    let key = task_key(app, task);
                    let attempt = self.ckpt.dump_attempt(key);
                    if plan.dump_fails(key, epoch, attempt) {
                        self.on_dump_failed(app, task, epoch, attempt, now, q);
                        return;
                    }
                }
                self.ckpt
                    .observe_health(node as usize, now, true, &mut self.trace);
                self.release_container(app, task, now);
                self.trace.record(
                    now.as_micros(),
                    TraceRecord::DumpDone {
                        task: task_key(app, task),
                        node,
                        start_us: started.as_micros(),
                    },
                );
                let am_task = &mut self.apps[app as usize].tasks[task as usize];
                let stamp = am_task.exec.commit_checkpoint();
                am_task.preempt_requested = false;
                am_task.exec.status = TaskStatus::Checkpointed { origin: node };
                // Stamp the tip with the progress it certifies (a later
                // truncation rolls back to exactly that), end the episode
                // and land the plan's per-chunk corruption draws.
                self.ckpt.commit_dump(
                    self.clock.plan(),
                    task_key(app, task),
                    node,
                    epoch,
                    stamp,
                    now,
                    &mut self.trace,
                );
                self.apps[app as usize].requeue(task);
                self.rm.add_asks(app, 1);
                q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
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
                self.ckpt.advance(node as usize, now);
                // Chunked-resume integrity: validate the chain before the
                // restored state is trusted. A truncation already re-read
                // the shorter chain; a dead chain restarted from scratch.
                if self.clock.plan().is_some_and(|p| p.resume_enabled()) {
                    match self.validate_restored_chain(app, task, epoch, started, now, q) {
                        ChainValidation::Intact => {}
                        ChainValidation::Truncated { .. } | ChainValidation::Dead => return,
                    }
                }
                self.ckpt
                    .observe_health(node as usize, now, true, &mut self.trace);
                self.trace.record(
                    now.as_micros(),
                    TraceRecord::RestoreDone {
                        task: task_key(app, task),
                        node,
                        start_us: started.as_micros(),
                    },
                );
                let am_task = &mut self.apps[app as usize].tasks[task as usize].exec;
                let cores = am_task.spec.resources.cores_f64();
                self.ledger.charge_restore(now.since(started), cores);
                am_task.status = TaskStatus::Running { node, container };
                am_task.run_started = now;
                am_task.mem_synced = now;
                if let Some(mem) = am_task.memory.as_mut() {
                    mem.clear_dirty();
                }
                let epoch = am_task.epoch;
                q.push(
                    now + am_task.remaining(),
                    YarnEvent::TaskFinish { app, task, epoch },
                );
            }
            YarnEvent::TaskFinish { app, task, epoch } => {
                let am_task = self.exec(app, task);
                if am_task.epoch != epoch || !matches!(am_task.status, TaskStatus::Running { .. }) {
                    return;
                }
                self.exec_mut(app, task).sync_progress(now);
                if self.trace.on() {
                    if let TaskStatus::Running { node, .. } = self.exec(app, task).status {
                        self.trace.record(
                            now.as_micros(),
                            TraceRecord::TaskFinish {
                                task: task_key(app, task),
                                node,
                            },
                        );
                    }
                }
                self.release_container(app, task, now);
                let am_task = self.exec_mut(app, task);
                am_task.status = TaskStatus::Finished;
                let cores = am_task.spec.resources.cores_f64();
                let work = am_task.spec.duration.as_secs_f64();
                self.ledger.useful_cpu_secs += cores * work;
                self.ledger.tasks_finished += 1;

                self.ckpt.discard_chain(task_key(app, task));

                let released_reduces = self.apps[app as usize].on_task_done(task);
                if released_reduces > 0 {
                    self.rm.add_asks(app, released_reduces);
                }
                if self.apps[app as usize].unfinished == 0 {
                    let job = &self.workload.jobs()[app as usize];
                    self.ledger
                        .record_response(job.priority.band(), job.latency, job.submit, now);
                }
                q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
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

    fn fault_parts(&mut self) -> (&mut FaultClock, &mut CkptPath, &mut TraceSink) {
        (&mut self.clock, &mut self.ckpt, &mut self.trace)
    }

    fn node_up(&mut self, node: usize) -> &mut bool {
        &mut self.nms[node].up
    }

    fn crash(&mut self, node: usize, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        self.crash_node(node, now, q);
    }

    fn work_remains(&self) -> bool {
        self.ledger.tasks_finished < self.total_tasks
    }

    /// A crash already asked the RM for a pass per crashed node; a node's
    /// return asks for one after the heartbeat delay.
    fn follow_up(&mut self, after: FaultTick, now: SimTime, q: &mut EventQueue<YarnEvent>) {
        if let FaultTick::Recover(_) = after {
            q.push(now + self.cfg.rpc_delay, YarnEvent::RmSchedule);
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
                sim.ledger.tasks_finished, sim.total_tasks,
                "{plan}: every task finishes"
            );
            assert!(
                contended > 0,
                "{plan}: both queues never shared the cluster"
            );
        }
    }
}
