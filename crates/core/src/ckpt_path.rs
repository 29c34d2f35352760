//! The checkpoint-image path both simulators share.
//!
//! The paper's mechanism (§3.2 CRIU dump/restore to local or HDFS storage,
//! §5 the same protocol inside YARN) is one subsystem below the scheduler:
//! [`CkptPath`] owns everything the image-ledger conservation invariant
//! spans — the [`Criu`] catalog, each node's checkpoint [`Device`], the
//! injected-leak bytes, the DFS and each task's DFS files, the dump-retry,
//! restore-retry and resume-frontier state and the checkpoint-path circuit
//! breakers — and, when configured, the §3.2.3 NVRAM backend, whose
//! per-node mirrors replace the image files. It runs the three
//! degradation ladders on them:
//!
//! - **lifecycle** (a dump does not fit): GC → evict → spill → kill;
//! - **integrity** (a restored chain has corrupt chunks): replica refetch
//!   → truncate to the longest valid prefix → scratch restart;
//! - **lost chains** (a datanode failure took the last replica of a
//!   block): abort the in-flight dump and discard the chain.
//!
//! The suspend/resume protocol is written here once, one method per step:
//! [`CkptPath::start_dump`], [`CkptPath::dump_done`] (commit, or retry a
//! failed write), [`CkptPath::start_restore`], [`CkptPath::check_restore`]
//! (validate the chain, then re-read it), `CkptPath::restore_fault` (the
//! trace simulator's injected read failures) and
//! [`CkptPath::finish_restore`]. It also holds the paper's Algorithm 1 for
//! both simulators: the §5.2.2 victim-ranking estimate
//! ([`CkptPath::victim_cost_secs`]) and the preemption decision with its
//! breaker-open fallback ([`CkptPath::preempt_action`]). What the
//! simulators do differently — the slowdown and retry terms, the overhead
//! estimate, when progress and memory are synced, the DFS path prefix,
//! the CPU sums a retry charges — comes in as arguments.
//!
//! Tasks are opaque `u64` keys (the ids trace records carry). Status
//! writes stay with the simulators: the methods here update a task's
//! execution record and return decisions — a span to queue an event at,
//! the keys whose chains were dropped, a verdict — and each simulator
//! applies its own rules to them.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cbp_checkpoint::{
    plan_evictions, CheckpointKind, Criu, DumpResult, EvictionCandidate, NvramCheckpointer,
    NvramSpec, TaskMemory,
};
use cbp_dfs::{DfsCluster, DnId, ReplicationRepair};
use cbp_faults::{BreakerTransition, FaultPlan, HealthMonitor};
use cbp_simkit::units::ByteSize;
use cbp_simkit::{SimDuration, SimTime};
use cbp_storage::{Device, MediaKind, MediaSpec, OpKind};
use cbp_telemetry::{MetricsRegistry, PreemptAction, TraceRecord, TraceSink};

use crate::config::{PreemptionPolicy, RestorePlacement};
use crate::metrics::RunLedger;
use crate::task::{TaskExec, TaskStatus, TaskTable};

/// Short stable device name for trace records.
pub fn media_name(kind: MediaKind) -> &'static str {
    match kind {
        MediaKind::Hdd => "hdd",
        MediaKind::Ssd => "ssd",
        MediaKind::Nvm => "nvm",
    }
}

/// Arithmetic mean (0 for an empty iterator).
pub fn mean(iter: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = iter.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Counters both simulators keep for the checkpoint path.
#[derive(Debug, Default, Clone, Copy)]
pub struct CkptCounters {
    /// Dumps that fell back to a kill because no storage could hold them.
    pub capacity_fallbacks: u64,
    /// Bytes GC passes reclaimed (leaked reservations and dead chains).
    pub gc_reclaimed_bytes: u64,
    /// Live chains evicted to make room for a dump.
    pub evicted_chains: u64,
    /// Dumps written to a remote node's device.
    pub spill_dumps: u64,
    /// Victims killed because the storage ladder found no space.
    pub no_space_kills: u64,
    /// Victims killed because the checkpoint-path breaker was open.
    pub breaker_open_kills: u64,
    /// Dumps abandoned after their retry budget ran out.
    pub dump_fail_kills: u64,
    /// Retried dumps that resumed past their durable chunk frontier.
    pub resumed_dumps: u64,
    /// Bytes those resumed dumps did not rewrite.
    pub resumed_bytes: u64,
    /// Corrupt chunks repaired from a DFS replica.
    pub chunk_refetches: u64,
    /// Chains cut to their longest valid prefix.
    pub chain_truncations: u64,
    /// Scratch restarts forced by integrity loss.
    pub integrity_scratch_restarts: u64,
}

/// Verdict of chunk-level validation of a restored chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChainValidation {
    /// Every image verified (possibly after replica refetches).
    Intact,
    /// The chain was cut to its longest valid prefix; `stamp` is the
    /// progress (µs) the surviving tip certifies. The caller re-reads it.
    Truncated {
        /// Progress stamp of the surviving tip.
        stamp: u64,
    },
    /// No valid prefix survived; the caller restarts the task from
    /// scratch (the chain is still in the catalog).
    Dead,
}

/// A failed dump attempt that still has retry budget.
#[derive(Debug, Clone, Copy)]
struct DumpRetry {
    /// Bytes the retry must rewrite (the suffix past the durable frontier
    /// when chunked resume is on, else the whole tip).
    rewrite: ByteSize,
    /// The device holding the tip (the failing node when there is none).
    origin: usize,
    /// Wait before the rewrite starts.
    backoff: SimDuration,
}

/// When a checkpoint transfer's service starts and ends (queue wait
/// burns no CPU, so the service start is what the trace and the CPU
/// charges count from).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Service start.
    pub start: SimTime,
    /// Completion.
    pub end: SimTime,
}

/// What a finished dump write comes to (see [`CkptPath::dump_done`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DumpEnd {
    /// The image is committed: the caller releases the container and
    /// queues the task to resume.
    Committed,
    /// The attempt failed and is rewritten over the span: the caller
    /// queues the next dump completion at its end.
    Retry(Span),
    /// The attempt failed with no retry budget left: the half-written tip
    /// was aborted and the fallback recorded. The caller kills the victim.
    Failed,
}

/// What a finished restore read comes to (see [`CkptPath::check_restore`]
/// and `CkptPath::restore_fault`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreEnd {
    /// The read stands.
    Intact,
    /// The chain is read again over the span, on the same node in the
    /// same episode: the caller queues the next restore completion at its
    /// end.
    Reread(Span),
    /// The chain is lost: the caller restarts the task from scratch (see
    /// [`CkptPath::scratch_restart`]).
    Dead,
}

/// The §3.2.3 NVRAM backend: each node's mirror engine and the node
/// holding each task's mirror. A suspend is a memory copy into the
/// node's NVRAM, so it skips the device queue, the stall factor and the
/// storage fault draws, and a mirror can only be restored on its node.
struct Mirrors {
    engines: Vec<NvramCheckpointer>,
    /// Task → node holding its mirror.
    origin: HashMap<u64, u32>,
    /// Suspends that copied only part of the footprint.
    incremental: u64,
}

/// The terms of a victim's ranking estimate that every victim on one node
/// shares at one time (see [`CkptPath::node_cost`]).
#[derive(Debug)]
pub struct NodeCost {
    node: usize,
    now: SimTime,
    /// The node's checkpoint-device queue wait.
    queue: SimDuration,
    /// Slowdown of the node's checkpoint path (applied above 1).
    factor: f64,
    /// Expected rewrite multiplier under a fault plan with dump failures.
    retry: Option<f64>,
}

impl NodeCost {
    /// The cost [`CkptPath::victim_cost_secs`] gives a victim with
    /// nothing to dump: a lower bound on every victim's cost, since the
    /// rounding of each step is monotone.
    pub(crate) fn floor(&self) -> f64 {
        self.scale(self.queue.as_secs_f64())
    }

    /// `secs` under the node's slowdown and retry terms.
    fn scale(&self, mut secs: f64) -> f64 {
        if self.factor > 1.0 {
            secs *= self.factor;
        }
        if let Some(retry) = self.retry {
            secs *= retry;
        }
        secs
    }
}

/// The checkpoint-image path: storage, catalog, DFS files, retry state and
/// breakers (see the [module docs](self)).
pub struct CkptPath {
    /// Shared counters.
    pub counters: CkptCounters,
    /// The CRIU image catalog.
    criu: Criu,
    /// Per-node checkpoint device.
    devices: Vec<Device>,
    /// The DFS checkpoints are written through (absent for local-FS
    /// checkpoints).
    dfs: Option<DfsCluster>,
    /// Checkpoint-path circuit breakers (present iff the plan configures
    /// one).
    health: Option<HealthMonitor>,
    /// Per-node bytes reserved by injected leaks that no image owns. The
    /// conservation invariant is `device.used == live catalog bytes +
    /// leaked`.
    leaked: Vec<u64>,
    /// Task → its DFS files, in chain order.
    paths: BTreeMap<u64, Vec<String>>,
    /// Task → 0-based attempt index of its in-flight dump episode.
    dump_attempts: HashMap<u64, u32>,
    /// Task → durable bytes of its in-flight dump episode (monotone within
    /// an episode; a retry rewrites only the suffix past it).
    dump_frontier: HashMap<u64, u64>,
    /// Task → 0-based attempt index of its in-flight restore episode.
    restore_attempts: HashMap<u64, u32>,
    /// The NVRAM mirrors that replace the image files when configured.
    nvram: Option<Mirrors>,
    /// Tasks whose current chain was corrupted whole at dump time (the
    /// `resume = false` ablation): every restore of it fails.
    corrupt: BTreeSet<u64>,
    /// Whether dumps draw whole-image corruption when chunked resume is
    /// off.
    whole_image_corruption: bool,
}

impl CkptPath {
    /// Builds the path for `nodes` nodes with `media` devices, keeping
    /// checkpoints as NVRAM mirrors when `nvram` is given. A pressure plan
    /// shrinks every device; a plan's chunk size applies to `criu`.
    /// `whole_image_corruption` enables the legacy whole-image corruption
    /// draw of the `resume = false` ablation.
    pub fn new(
        nodes: usize,
        media: MediaSpec,
        criu: Criu,
        dfs: Option<DfsCluster>,
        nvram: Option<NvramSpec>,
        plan: Option<&FaultPlan>,
        whole_image_corruption: bool,
    ) -> Self {
        let frac = plan.map_or(1.0, |p| p.capacity_frac());
        let media = if frac < 1.0 {
            media.with_capacity(media.capacity().mul_f64(frac))
        } else {
            media
        };
        let criu = match plan {
            // Manifests chunk at the plan's transfer granularity so the
            // per-chunk corruption draws and the resume frontier agree.
            Some(p) => criu.with_chunk_bytes(p.chunk_bytes()),
            None => criu,
        };
        CkptPath {
            criu,
            devices: (0..nodes).map(|_| Device::new(media)).collect(),
            dfs,
            health: plan
                .and_then(|p| p.breaker())
                .map(|spec| HealthMonitor::new(*spec, nodes)),
            counters: CkptCounters::default(),
            leaked: vec![0; nodes],
            paths: BTreeMap::new(),
            dump_attempts: HashMap::new(),
            dump_frontier: HashMap::new(),
            restore_attempts: HashMap::new(),
            nvram: nvram.map(|spec| Mirrors {
                engines: (0..nodes).map(|_| NvramCheckpointer::new(spec)).collect(),
                origin: HashMap::new(),
                incremental: 0,
            }),
            corrupt: BTreeSet::new(),
            whole_image_corruption,
        }
    }

    /// Node `node`'s checkpoint device.
    pub fn device(&self, node: usize) -> &Device {
        &self.devices[node]
    }

    /// Incremental dumps so far: CRIU dumps of the dirty pages only, or
    /// NVRAM suspends that copied part of the footprint.
    pub fn incremental_dumps(&self) -> u64 {
        self.criu.incremental_dumps() + self.nvram.as_ref().map_or(0, |m| m.incremental)
    }

    /// True if checkpoints are written through a DFS.
    pub fn has_dfs(&self) -> bool {
        self.dfs.is_some()
    }

    /// True if `key` can resume from a checkpoint: a CRIU image chain, or
    /// a mirror on the NVRAM backend.
    pub fn has_image(&self, key: u64) -> bool {
        match &self.nvram {
            Some(m) => m.origin.contains_key(&key),
            None => self.criu.has_image(key),
        }
    }

    /// The node holding `key`'s newest checkpoint (its chain's tip or its
    /// mirror), if it has one.
    pub fn image_origin(&self, key: u64) -> Option<u32> {
        match &self.nvram {
            Some(m) => m.origin.get(&key).copied(),
            None => self.criu.chain(key)?.tip().map(|r| r.origin_node),
        }
    }

    /// True if a checkpointed task can resume only on its origin node:
    /// NVRAM mirrors live in the origin node's memory and local-FS images
    /// on its disk, and `placement` may ask for it.
    pub(crate) fn restore_is_local(&self, placement: RestorePlacement) -> bool {
        self.nvram.is_some() || placement == RestorePlacement::LocalOnly || !self.has_dfs()
    }

    /// The service (transfer) time of restoring `key`, whose memory
    /// footprint is `footprint`, on node `node`: lazy NVRAM resume copies
    /// only the hot fraction up front; a DFS reads every file of the
    /// chain; local FS reads the chain off the node's device.
    pub(crate) fn restore_service(
        &self,
        key: u64,
        footprint: ByteSize,
        node: usize,
    ) -> SimDuration {
        if let Some(m) = &self.nvram {
            let spec = m.engines[node].spec();
            return spec
                .restore_bw
                .transfer_time(footprint.mul_f64(spec.lazy_restore_fraction));
        }
        if self.has_dfs() {
            return self.dfs_read_time(key, node);
        }
        self.devices[node]
            .spec()
            .read_time(self.criu.image_size(key))
    }

    // ---- per-task DFS files ----------------------------------------------

    /// Number of DFS files `key` has written.
    pub fn path_count(&self, key: u64) -> usize {
        self.paths.get(&key).map_or(0, Vec::len)
    }

    /// Time for node `node` to read every DFS file of `key`.
    fn dfs_read_time(&self, key: u64, node: usize) -> SimDuration {
        let (Some(dfs), Some(paths)) = (&self.dfs, self.paths.get(&key)) else {
            return SimDuration::ZERO;
        };
        paths
            .iter()
            .map(|p| {
                dfs.read_cost(p, DnId(node as u32))
                    .map(|c| c.duration)
                    .unwrap_or(SimDuration::ZERO)
            })
            .sum()
    }

    /// Writes a `bytes`-byte file at `path` from `node` through the DFS and
    /// records it as `key`'s next file. Returns the pipelined write time,
    /// or `None` when there is no DFS or the write was refused.
    fn write_dfs(
        &mut self,
        key: u64,
        path: String,
        bytes: ByteSize,
        node: usize,
    ) -> Option<SimDuration> {
        let receipt = self
            .dfs
            .as_mut()?
            .create(&path, bytes, DnId(node as u32))
            .ok()?;
        self.paths.entry(key).or_default().push(path);
        Some(receipt.duration)
    }

    /// Removes `key`'s newest DFS file, deleting it from the DFS when
    /// `delete` is set.
    fn pop_path(&mut self, key: u64, delete: bool) {
        let Some(path) = self.paths.get_mut(&key).and_then(Vec::pop) else {
            return;
        };
        if let (true, Some(dfs)) = (delete, &mut self.dfs) {
            let _ = dfs.delete(&path);
        }
    }

    // ---- breakers ----------------------------------------------------------

    /// Feeds one checkpoint-path outcome on `node` into the breakers and
    /// traces any state transitions.
    pub fn observe_health(&mut self, node: usize, now: SimTime, ok: bool, trace: &mut TraceSink) {
        let Some(h) = self.health.as_mut() else {
            return;
        };
        for e in h.observe(node as u32, now, ok) {
            let (node, global) = (e.node.unwrap_or(0), e.node.is_none());
            let rec = match e.transition {
                BreakerTransition::Opened => TraceRecord::BreakerOpen { node, global },
                BreakerTransition::Closed => TraceRecord::BreakerClose { node, global },
            };
            trace.record(now.as_micros(), rec);
        }
    }

    /// Whether the breakers let a checkpoint on `node` proceed.
    pub fn breaker_allows(&mut self, node: usize, now: SimTime) -> bool {
        self.health
            .as_mut()
            .is_none_or(|h| h.allow(node as u32, now))
    }

    /// Total breaker-open seconds up to `end` (0 without breakers).
    pub fn breaker_open_secs(&self, end: SimTime) -> f64 {
        self.health.as_ref().map_or(0.0, |h| h.open_secs_total(end))
    }

    // ---- Algorithm 1 -----------------------------------------------------

    /// The ranking terms of node `node` at `now`: its device's queue wait,
    /// the caller's slowdown `factor` of the node's checkpoint path and
    /// its expected dump-retry multiplier `retry`.
    pub fn node_cost(
        &self,
        node: usize,
        now: SimTime,
        factor: f64,
        retry: Option<f64>,
    ) -> NodeCost {
        NodeCost {
            node,
            now,
            queue: self.devices[node].queue_wait(now),
            factor,
            retry,
        }
    }

    /// The §5.2.2 ranking estimate of checkpointing `task` on `at`'s node,
    /// in seconds: writing and reading back its next dump plus the queue
    /// wait, scaled by the node's terms. It is arithmetic only and touches
    /// no page bitmap: the dump is the whole footprint, or, when it will
    /// be `incremental`, the dirty fraction extrapolated from the last
    /// memory sync at the task's dirty rate.
    pub fn victim_cost_secs(&self, task: &TaskExec, incremental: bool, at: &NodeCost) -> f64 {
        let mem = task.spec.resources.mem();
        let size = if incremental {
            let since_sync = at.now.saturating_since(task.mem_synced).as_secs_f64();
            let already_dirty = task.memory.as_ref().map_or(0.0, |m| m.dirty_fraction());
            let frac = (already_dirty + task.spec.dirty_rate_per_sec * since_sync).min(1.0);
            mem.mul_f64(frac)
        } else {
            mem
        };
        let spec = self.devices[at.node].spec();
        let dump = spec.write_time(size) + spec.read_time(size);
        at.scale((dump + at.queue).as_secs_f64())
    }

    /// The checkpoint overhead Algorithm 1 weighs against the progress at
    /// risk: dump, restore and queue time of `key`'s next image from
    /// `node`, or on the NVRAM backend the mirror's copy and restore time.
    pub fn dump_overhead(
        &self,
        key: u64,
        mem: &TaskMemory,
        node: usize,
        now: SimTime,
    ) -> SimDuration {
        match &self.nvram {
            Some(m) => m.engines[node].estimate_total(key, mem),
            None => self
                .criu
                .estimate(key, mem, &self.devices[node], now)
                .total(),
        }
    }

    /// Algorithm 1 under `policy`: Kill and Checkpoint act by policy, and
    /// Adaptive checkpoints only when the progress at risk exceeds the
    /// estimated overhead. `costs` gives the two, `(at_risk, overhead)`;
    /// only Adaptive calls it. Returns the action and its trace reason.
    ///
    /// # Panics
    ///
    /// Panics under [`PreemptionPolicy::Wait`], which never preempts.
    pub fn decide(
        policy: PreemptionPolicy,
        costs: impl FnOnce() -> (SimDuration, SimDuration),
    ) -> (PreemptAction, &'static str) {
        match policy {
            PreemptionPolicy::Wait => unreachable!("Wait never preempts"),
            PreemptionPolicy::Kill => (PreemptAction::Kill, "policy"),
            PreemptionPolicy::Checkpoint => (PreemptAction::Checkpoint, "policy"),
            PreemptionPolicy::Adaptive => {
                let (at_risk, overhead) = costs();
                if at_risk > overhead {
                    (PreemptAction::Checkpoint, "progress-at-risk")
                } else {
                    (PreemptAction::Kill, "overhead-exceeds-risk")
                }
            }
        }
    }

    /// Decides what preempting victim `key` on `node` does (see
    /// [`CkptPath::decide`]; `costs` reads this path) and records the
    /// decision. A checkpoint the breakers do not let through on `node`
    /// degrades to a kill: the decision is recorded as a `breaker-open`
    /// kill, followed by its `DumpFallback`, and counted. The caller
    /// carries out the returned action.
    pub fn preempt_action(
        &mut self,
        key: u64,
        node: usize,
        policy: PreemptionPolicy,
        now: SimTime,
        trace: &mut TraceSink,
        costs: impl FnOnce(&Self) -> (SimDuration, SimDuration),
    ) -> PreemptAction {
        let (mut action, mut reason) = Self::decide(policy, || costs(self));
        let breaker_open = action == PreemptAction::Checkpoint && !self.breaker_allows(node, now);
        if breaker_open {
            (action, reason) = (PreemptAction::Kill, "breaker-open");
        }
        let t_us = now.as_micros();
        let node = node as u32;
        trace.record(
            t_us,
            TraceRecord::PreemptDecision {
                victim: key,
                node,
                action,
                policy: policy.trace_name(),
                reason,
            },
        );
        if breaker_open {
            self.counters.breaker_open_kills += 1;
            trace.record(
                t_us,
                TraceRecord::DumpFallback {
                    task: key,
                    node,
                    reason,
                },
            );
        }
        action
    }

    // ---- lifecycle ladder ------------------------------------------------

    /// Picks the device that will hold a dump of `size` from `node`:
    /// node-local if it has room, else (through a DFS only) the up node
    /// with the most free space — DFS writes spill to any datanode.
    fn dump_origin_for(
        &self,
        node: usize,
        size: ByteSize,
        up: &dyn Fn(usize) -> bool,
    ) -> Option<usize> {
        if self.devices[node].free_capacity() >= size {
            return Some(node);
        }
        self.dfs.as_ref()?;
        (0..self.devices.len())
            .filter(|&i| up(i))
            .max_by_key(|&i| (self.devices[i].free_capacity(), std::cmp::Reverse(i)))
            .filter(|&i| self.devices[i].free_capacity() >= size)
    }

    /// Image bytes `key`'s chain holds on node `node`'s device.
    fn chain_bytes_on(&self, key: u64, node: usize) -> ByteSize {
        let Some(chain) = self.criu.chain(key) else {
            return ByteSize::ZERO;
        };
        chain
            .images()
            .iter()
            .filter(|r| r.origin_node == node as u32)
            .map(|r| r.size)
            .fold(ByteSize::ZERO, |a, b| a + b)
    }

    /// Places a dump of `size` from `node`, climbing the degradation
    /// ladder when no device has room and `lifecycle` is on. Returns the
    /// origin device (`None` after recording the no-space fallback: the
    /// caller kills the victim) and the keys whose chains the ladder
    /// dropped. `loss` gives the core-seconds a task would lose with its
    /// chain, or `None` while a dump or restore owns the chain.
    #[allow(clippy::too_many_arguments)]
    fn place_dump(
        &mut self,
        key: u64,
        node: usize,
        size: ByteSize,
        lifecycle: bool,
        now: SimTime,
        trace: &mut TraceSink,
        up: &dyn Fn(usize) -> bool,
        loss: &mut dyn FnMut(u64) -> Option<f64>,
    ) -> (Option<usize>, Vec<u64>) {
        let (origin, dropped) = match self.dump_origin_for(node, size, up) {
            Some(origin) => (Some(origin), Vec::new()),
            None if lifecycle => self.reclaim_for_dump(key, node, size, now, trace, up, loss),
            None => (None, Vec::new()),
        };
        let t_us = now.as_micros();
        match origin {
            None => {
                // No device can hold the image, even after the ladder (or,
                // with lifecycle off, after the bare search).
                self.counters.capacity_fallbacks += 1;
                self.counters.no_space_kills += 1;
                self.observe_health(node, now, false, trace);
                if lifecycle {
                    trace.record(
                        t_us,
                        TraceRecord::NoSpace {
                            task: key,
                            node: node as u32,
                            wanted: size.as_u64(),
                        },
                    );
                }
                let reason = if lifecycle { "no-space" } else { "no-capacity" };
                trace.record(
                    t_us,
                    TraceRecord::DumpFallback {
                        task: key,
                        node: node as u32,
                        reason,
                    },
                );
            }
            Some(origin) if origin != node && lifecycle => {
                // Spill: the dump lands on a remote node's device.
                self.counters.spill_dumps += 1;
                trace.record(
                    t_us,
                    TraceRecord::ImageSpill {
                        task: key,
                        node: node as u32,
                        origin: origin as u32,
                        bytes: size.as_u64(),
                    },
                );
            }
            Some(_) => {}
        }
        (origin, dropped)
    }

    /// The ladder's reclaim rungs: a GC pass, then eviction of the
    /// cheapest live chains on `node`, re-running the origin search after
    /// each rung (which also re-offers the remote spill).
    #[allow(clippy::too_many_arguments)]
    fn reclaim_for_dump(
        &mut self,
        key: u64,
        node: usize,
        size: ByteSize,
        now: SimTime,
        trace: &mut TraceSink,
        up: &dyn Fn(usize) -> bool,
        loss: &mut dyn FnMut(u64) -> Option<f64>,
    ) -> (Option<usize>, Vec<u64>) {
        let mut dropped = self.gc_pass(now, trace, &mut *loss);
        if let Some(origin) = self.dump_origin_for(node, size, up) {
            return (Some(origin), dropped);
        }
        dropped.extend(self.evict_for(key, node, size, now, trace, loss));
        (self.dump_origin_for(node, size, up), dropped)
    }

    /// GC pass: releases every leaked reservation and discards dead chains
    /// (whole-image corrupt chains can never be restored). Chains a dump or
    /// restore owns (`loss` is `None`) are left alone. Returns the keys
    /// whose chains were discarded.
    fn gc_pass(
        &mut self,
        now: SimTime,
        trace: &mut TraceSink,
        loss: &mut dyn FnMut(u64) -> Option<f64>,
    ) -> Vec<u64> {
        let n = self.devices.len();
        let mut reclaimed = vec![0u64; n];
        let mut chains = vec![0u64; n];
        for (i, bytes) in self.leaked.iter_mut().enumerate() {
            if *bytes > 0 {
                self.devices[i].release(ByteSize::from_bytes(*bytes));
                reclaimed[i] += *bytes;
                *bytes = 0;
            }
        }
        let dead: Vec<u64> = self
            .corrupt
            .iter()
            .copied()
            .filter(|&k| loss(k).is_some())
            .collect();
        let mut dropped = Vec::new();
        for key in dead {
            let (mut tip_origin, mut freed_any) = (None, false);
            if let Some(chain) = self.criu.chain(key) {
                tip_origin = chain.tip().map(|r| r.origin_node);
                for r in chain.images() {
                    reclaimed[r.origin_node as usize] += r.size.as_u64();
                    freed_any = true;
                }
            }
            self.discard_chain(key);
            if freed_any {
                if let Some(o) = tip_origin {
                    chains[o as usize] += 1;
                }
                dropped.push(key);
            }
        }
        for i in 0..n {
            if reclaimed[i] == 0 && chains[i] == 0 {
                continue;
            }
            self.counters.gc_reclaimed_bytes += reclaimed[i];
            trace.record(
                now.as_micros(),
                TraceRecord::GcPass {
                    node: i as u32,
                    reclaimed: reclaimed[i],
                    chains: chains[i],
                },
            );
        }
        dropped
    }

    /// Evicts the cheapest-to-lose live chains holding bytes on `node`'s
    /// device until a dump of `size` fits (or none, when no plan covers
    /// the shortfall: partial eviction would destroy progress for
    /// nothing). `key`'s own chain is never a candidate. Returns the
    /// evicted keys.
    fn evict_for(
        &mut self,
        key: u64,
        node: usize,
        size: ByteSize,
        now: SimTime,
        trace: &mut TraceSink,
        loss: &mut dyn FnMut(u64) -> Option<f64>,
    ) -> Vec<u64> {
        let shortfall = size.saturating_sub(self.devices[node].free_capacity());
        if shortfall.is_zero() {
            return Vec::new();
        }
        let candidates: Vec<EvictionCandidate> = self
            .criu
            .chains()
            .filter(|&(k, _)| k != key)
            .filter_map(|(k, _)| {
                let bytes_on_node = self.chain_bytes_on(k, node);
                let cost_core_secs = loss(k)?;
                (!bytes_on_node.is_zero()).then_some(EvictionCandidate {
                    task: k,
                    cost_core_secs,
                    bytes_on_node,
                })
            })
            .collect();
        let mut evicted = Vec::new();
        for victim in plan_evictions(candidates, shortfall) {
            self.counters.evicted_chains += 1;
            trace.record(
                now.as_micros(),
                TraceRecord::ImageEvict {
                    task: victim.task,
                    node: node as u32,
                    bytes: victim.bytes_on_node.as_u64(),
                },
            );
            self.discard_chain(victim.task);
            evicted.push(victim.task);
        }
        evicted
    }

    /// One window of the pressure plan's leak schedule, starting at `now`:
    /// every up node the stateless leak oracle picks reserves up to the
    /// plan's leak size of its free checkpoint space that no image owns
    /// (a full device leaks nothing). Returns the window length, or `None`
    /// without a pressure plan.
    pub fn pressure_tick(
        &mut self,
        plan: &FaultPlan,
        now: SimTime,
        up: &dyn Fn(usize) -> bool,
    ) -> Option<SimDuration> {
        let p = plan.pressure()?;
        let widx = now.as_micros() / p.window.as_micros().max(1);
        for (i, dev) in self.devices.iter_mut().enumerate() {
            if !up(i) || !plan.leaks(i as u32, widx) {
                continue;
            }
            let amount = p.leak_bytes.min(dev.free_capacity());
            if amount.is_zero() {
                continue;
            }
            dev.reserve(amount)
                .expect("leak amount clamped to free capacity");
            self.leaked[i] += amount.as_u64();
        }
        Some(p.window)
    }

    // ---- dump path -------------------------------------------------------

    /// Starts suspending victim `key` on `node` (§5.2.1: the victim stops
    /// and its state is dumped while it keeps its container). Its progress
    /// and memory are synced through `tasks`; the image is placed —
    /// climbing the lifecycle ladder when `lifecycle` is on, where `up`
    /// tells the nodes in service — then written through the DFS as
    /// `{dfs_dir}/{epoch}/{n}` and queued on its device. The write pays
    /// the `slowdown` factor (applied above 1) of the device that takes
    /// the image when `dump_at_origin` is set, else of `node`.
    /// On the NVRAM backend it is copied into the node's mirror instead.
    /// The `dump_start` and `task_evict` records are written, the dump's
    /// service is charged to `ledger` and the task's epoch moves on.
    ///
    /// Returns the dump's span — `None` after a recorded fallback, when
    /// the caller kills the victim — and the keys whose chains the ladder
    /// dropped, for the caller to degrade.
    #[allow(clippy::too_many_arguments)]
    pub fn start_dump(
        &mut self,
        key: u64,
        node: usize,
        tasks: &mut impl TaskTable,
        dfs_dir: &dyn std::fmt::Display,
        slowdown: &dyn Fn(usize) -> f64,
        dump_at_origin: bool,
        lifecycle: bool,
        up: &dyn Fn(usize) -> bool,
        ledger: &mut RunLedger,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> (Option<Span>, Vec<u64>) {
        let task = tasks.exec(key);
        task.sync_progress(now);
        let mem = task.sync_memory(now);
        let (span, device, bytes, incremental, dropped) = if let Some(m) = &mut self.nvram {
            let Ok(suspend) = m.engines[node].suspend(key, mem) else {
                // The node's NVRAM is full; mirrors are node-local so there
                // is nowhere to spill.
                self.counters.capacity_fallbacks += 1;
                self.observe_health(node, now, false, trace);
                trace.record(
                    now.as_micros(),
                    TraceRecord::DumpFallback {
                        task: key,
                        node: node as u32,
                        reason: "nvram-full",
                    },
                );
                return (None, Vec::new());
            };
            m.origin.insert(key, node as u32);
            let incremental = suspend.copied < task.spec.resources.mem();
            m.incremental += u64::from(incremental);
            let span = Span {
                start: now,
                end: now + suspend.duration,
            };
            (span, "nvram", suspend.copied, incremental, Vec::new())
        } else {
            let (size, _) = self.criu.next_dump_size(key, mem);
            let (origin, dropped) =
                self.place_dump(key, node, size, lifecycle, now, trace, up, &mut |k| {
                    tasks.exec(k).chain_loss()
                });
            // The caller degrades the dropped chains only after this dump
            // is written, which holds because the victim's own chain is
            // never among them: eviction skips it, and GC drops only
            // whole-image corrupt chains, which no running task holds.
            debug_assert!(
                !dropped.contains(&key),
                "the ladder dropped {key}'s own chain"
            );
            let Some(origin) = origin else {
                return (None, dropped);
            };
            // Through a DFS the pipelined write is the service time;
            // locally the device's own write speed applies. With
            // compression only the compressed bytes cross the pipeline.
            let wire_size = self
                .criu
                .compression()
                .map_or(size, |c| c.compressed_size(size));
            // A stall window or a rack partition degrades the write, and is
            // a health signal even when the dump eventually completes.
            let at = if dump_at_origin { origin } else { node };
            let factor = slowdown(at);
            if factor > 1.0 {
                self.observe_health(at, now, false, trace);
            }
            let task = tasks.exec(key);
            let service = if self.has_dfs() {
                let path = format!("{dfs_dir}/{}/{}", task.epoch, self.path_count(key));
                let write = self.write_dfs(key, path, wire_size, node);
                write.map(|d| if factor > 1.0 { d.mul_f64(factor) } else { d })
            } else if factor > 1.0 {
                Some(
                    self.devices[origin]
                        .spec()
                        .write_time(wire_size)
                        .mul_f64(factor),
                )
            } else {
                None
            };
            // Re-syncing at the same instant folds in nothing; it hands
            // back the image.
            let mem = task.sync_memory(now);
            let Some(result) = self.dump_image(key, mem, node, origin, service, now, trace) else {
                return (None, dropped);
            };
            let incremental = matches!(result.kind, CheckpointKind::Incremental { .. });
            let span = Span {
                start: result.op.start,
                end: result.op.end,
            };
            let device = media_name(self.devices[origin].spec().kind());
            (span, device, wire_size, incremental, dropped)
        };
        let task = tasks.exec(key);
        // Wastage is CPU time: the dump burns CPU while copying (its
        // service time); while queued the victim is stopped and burns none.
        // Queueing still delays the container's release.
        ledger.charge_dump(span.end.since(span.start), task.spec.resources.cores_f64());
        let t_us = now.as_micros();
        let node = node as u32;
        trace.record(
            t_us,
            TraceRecord::DumpStart {
                task: key,
                node,
                device,
                bytes: bytes.as_u64(),
                incremental,
            },
        );
        trace.record(
            t_us,
            TraceRecord::TaskEvict {
                task: key,
                node,
                reason: "dump",
            },
        );
        // A new dump episode: attempt numbering restarts.
        self.dump_attempts.insert(key, 0);
        task.epoch += 1;
        (Some(span), dropped)
    }

    /// Attempt index of `key`'s in-flight dump episode.
    fn dump_attempt(&self, key: u64) -> u32 {
        self.dump_attempts.get(&key).copied().unwrap_or(0)
    }

    /// Ends `key`'s dump episode (its retry state is dropped).
    fn end_dump(&mut self, key: u64) {
        self.dump_attempts.remove(&key);
        self.dump_frontier.remove(&key);
    }

    /// Ends `key`'s dump and restore episodes (a node failure ends both).
    pub(crate) fn end_episodes(&mut self, key: u64) {
        self.end_dump(key);
        self.restore_attempts.remove(&key);
    }

    /// Writes `key`'s next image to device `origin` (dumped from `node`),
    /// taking `service` as the write time when given. On a full device the
    /// storage-full fallback is recorded and `None` returned: the caller
    /// kills the victim.
    #[allow(clippy::too_many_arguments)]
    fn dump_image(
        &mut self,
        key: u64,
        mem: &mut TaskMemory,
        node: usize,
        origin: usize,
        service: Option<SimDuration>,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> Option<DumpResult> {
        match self.criu.dump_with(
            key,
            mem,
            origin as u32,
            &mut self.devices[origin],
            now,
            service,
        ) {
            Ok(result) => {
                for &(o, bytes) in &result.freed {
                    self.devices[o as usize].release(bytes);
                }
                Some(result)
            }
            Err(_) => {
                self.counters.capacity_fallbacks += 1;
                self.counters.no_space_kills += 1;
                self.observe_health(node, now, false, trace);
                trace.record(
                    now.as_micros(),
                    TraceRecord::DumpFallback {
                        task: key,
                        node: node as u32,
                        reason: "storage-full",
                    },
                );
                None
            }
        }
    }

    /// Handles the end of victim `key`'s dump write on `node` (attempt
    /// `epoch`, its service started at `started`). Under `plan` the write
    /// may have failed (NVRAM copies never do): while retry budget remains
    /// the tip is rewritten under `slowdown`, the rewrite's CPU charged to
    /// `charge`; once it is spent the dump is abandoned. Otherwise the
    /// path reports healthy, the `dump_done` record is written and the
    /// image committed: `task`'s checkpoint moves up to its progress, the
    /// tip is stamped with it (a later truncation rolls back to exactly
    /// that), the episode ends and the plan's corruption draws land on the
    /// new image.
    #[allow(clippy::too_many_arguments)]
    pub fn dump_done(
        &mut self,
        plan: Option<&FaultPlan>,
        key: u64,
        node: usize,
        epoch: u32,
        started: SimTime,
        task: &mut TaskExec,
        slowdown: &dyn Fn(usize) -> f64,
        charge: &mut f64,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> DumpEnd {
        self.devices[node].on_advance(now);
        if let (Some(plan), None) = (plan, &self.nvram) {
            let attempt = self.dump_attempt(key);
            if plan.dump_fails(key, epoch, attempt) {
                let full = task.spec.resources.mem();
                let retry = self.fail_dump(plan, key, node, epoch, attempt, full, now, trace);
                let Some(retry) = retry else {
                    return DumpEnd::Failed;
                };
                // The victim keeps holding its resources through the
                // rewrite, so the rewrite window is wasted CPU.
                let factor = slowdown(node).max(1.0);
                let service = self.devices[retry.origin]
                    .spec()
                    .write_time(retry.rewrite)
                    .mul_f64(factor);
                *charge += service.as_secs_f64() * task.spec.resources.cores_f64();
                let start = now + retry.backoff;
                return DumpEnd::Retry(Span {
                    start,
                    end: start + service,
                });
            }
        }
        self.observe_health(node, now, true, trace);
        trace.record(
            now.as_micros(),
            TraceRecord::DumpDone {
                task: key,
                node: node as u32,
                start_us: started.as_micros(),
            },
        );
        let stamp = task.commit_checkpoint();
        self.criu.set_tip_progress(key, stamp);
        self.end_dump(key);
        let Some(plan) = plan.filter(|_| self.nvram.is_none()) else {
            return DumpEnd::Committed;
        };
        let node = node as u32;
        if plan.resume_enabled() {
            let hit: Vec<(u64, u64)> = self
                .criu
                .chain(key)
                .and_then(|c| c.tip())
                .map(|tip| {
                    let n = tip.manifest.chunk_count();
                    (0..n)
                        .filter(|&c| plan.chunk_corrupt(key, epoch, c, n))
                        .map(|c| (c, tip.id.0))
                        .collect()
                })
                .unwrap_or_default();
            for (chunk, image) in hit {
                self.criu.mark_tip_chunk_corrupt(key, chunk);
                trace.record(
                    now.as_micros(),
                    TraceRecord::ChunkCorrupt {
                        task: key,
                        node,
                        image,
                        chunk,
                    },
                );
            }
        } else if self.whole_image_corruption {
            if plan.image_corrupt(key, epoch) {
                self.corrupt.insert(key);
            } else {
                self.corrupt.remove(&key);
            }
        }
        DumpEnd::Committed
    }

    /// Handles a failed dump attempt of `key` on `node`. While retry budget
    /// remains the retry is planned — with chunked resume, only the suffix
    /// past the episode's durable frontier is rewritten; `full` is the size
    /// rewritten when there is no tip. Once the budget is spent the
    /// half-written tip is aborted, the fallback recorded and `None`
    /// returned: the caller kills the victim.
    #[allow(clippy::too_many_arguments)]
    fn fail_dump(
        &mut self,
        plan: &FaultPlan,
        key: u64,
        node: usize,
        epoch: u32,
        attempt: u32,
        full: ByteSize,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> Option<DumpRetry> {
        self.observe_health(node, now, false, trace);
        let will_retry = attempt < plan.max_dump_retries();
        let t_us = now.as_micros();
        trace.record(
            t_us,
            TraceRecord::DumpFail {
                task: key,
                node: node as u32,
                attempt,
                will_retry,
            },
        );
        if !will_retry {
            self.counters.dump_fail_kills += 1;
            self.abort_dump(key, node, "dump-fail", true, now, trace);
            return None;
        }
        self.dump_attempts.insert(key, attempt + 1);
        let tip = self.criu.chain(key).and_then(|c| c.tip());
        let (size, origin) = tip.map_or((full, node), |r| (r.size, r.origin_node as usize));
        let mut rewrite = size;
        if let (true, Some(tip)) = (plan.resume_enabled(), tip) {
            // Chunks written before the interruption are durable; the
            // frontier never moves back within the episode.
            let frac = plan.dump_durable_frac(key, epoch, attempt);
            let durable = tip.manifest.durable_bytes(frac).as_u64();
            let frontier = self
                .dump_frontier
                .get(&key)
                .copied()
                .unwrap_or(0)
                .max(durable);
            if frontier > 0 {
                let total = tip.manifest.chunk_count();
                let chunk = tip
                    .manifest
                    .durable_chunks(frac)
                    .max(frontier / plan.chunk_bytes().max(1));
                self.dump_frontier.insert(key, frontier);
                rewrite = size.saturating_sub(ByteSize::from_bytes(frontier));
                self.counters.resumed_dumps += 1;
                self.counters.resumed_bytes += frontier;
                trace.record(
                    t_us,
                    TraceRecord::ChunkDone {
                        task: key,
                        node: node as u32,
                        chunk,
                        total,
                    },
                );
                trace.record(
                    t_us,
                    TraceRecord::ResumeDump {
                        task: key,
                        node: node as u32,
                        resumed_bytes: frontier,
                        total_bytes: size.as_u64(),
                    },
                );
            }
        }
        Some(DumpRetry {
            rewrite,
            origin,
            backoff: plan.dump_retry_backoff(attempt + 1),
        })
    }

    /// Abandons `key`'s in-flight dump on `node`: the episode ends, the
    /// half-written tip is aborted, its DFS file dropped (and deleted when
    /// `delete_file` is set) and `DumpFallback(reason)` recorded.
    pub fn abort_dump(
        &mut self,
        key: u64,
        node: usize,
        reason: &'static str,
        delete_file: bool,
        now: SimTime,
        trace: &mut TraceSink,
    ) {
        self.end_dump(key);
        if let Some((origin, bytes)) = self.criu.abort_tip(key) {
            self.devices[origin as usize].release(bytes);
        }
        self.pop_path(key, delete_file);
        trace.record(
            now.as_micros(),
            TraceRecord::DumpFallback {
                task: key,
                node: node as u32,
                reason,
            },
        );
    }

    /// Discards `key`'s chain and DFS files, releasing their storage, or
    /// its NVRAM mirror, and clears its corruption flag.
    pub fn discard_chain(&mut self, key: u64) {
        for (origin, bytes) in self.criu.discard(key) {
            self.devices[origin as usize].release(bytes);
        }
        if let Some(paths) = self.paths.remove(&key) {
            if let Some(dfs) = &mut self.dfs {
                for path in paths {
                    let _ = dfs.delete(&path);
                }
            }
        }
        if let Some(m) = &mut self.nvram {
            if let Some(origin) = m.origin.remove(&key) {
                m.engines[origin as usize].discard(key);
            }
        }
        self.corrupt.remove(&key);
    }

    /// Discards `key`'s checkpoint if node `node`'s failure destroyed it —
    /// a mirror in the node's memory, or without a DFS an image on its
    /// disk (DFS replication keeps chains readable) — and returns whether
    /// it did.
    pub(crate) fn lose_images_on(&mut self, key: u64, node: usize) -> bool {
        let lost = match &self.nvram {
            Some(m) => m.origin.get(&key) == Some(&(node as u32)),
            None => !self.has_dfs() && self.criu.has_image_on(key, node as u32),
        };
        if lost {
            self.discard_chain(key);
        }
        lost
    }

    // ---- restore path ------------------------------------------------------

    /// Starts restoring `key` (its execution record `task`) on `node` from
    /// its checkpoint on `origin`, counting a remote restore in `ledger`.
    /// A chain is read off `node`'s device under `slowdown`; an NVRAM
    /// mirror is copied back lazily, off the device queue. The
    /// `restore_start` record is written and a restore episode begins.
    /// Returns the restore's span.
    #[allow(clippy::too_many_arguments)]
    pub fn start_restore(
        &mut self,
        key: u64,
        node: usize,
        origin: u32,
        task: &TaskExec,
        slowdown: &dyn Fn(usize) -> f64,
        ledger: &mut RunLedger,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> Span {
        // A new restore episode: attempt numbering restarts.
        self.restore_attempts.insert(key, 0);
        let remote = origin != node as u32;
        if remote {
            // Counted now; the duration is charged at completion.
            ledger.remote_restores += 1;
        }
        let footprint = task.spec.resources.mem();
        let (span, device, bytes) = if let Some(m) = &mut self.nvram {
            m.engines[node].resume(key, true);
            let service = self.restore_service(key, footprint, node);
            let span = Span {
                start: now,
                end: now + service,
            };
            (span, "nvram", footprint)
        } else {
            let span = self.read_chain(key, node, footprint, slowdown, now);
            let device = media_name(self.devices[node].spec().kind());
            (span, device, self.criu.image_size(key))
        };
        trace.record(
            now.as_micros(),
            TraceRecord::RestoreStart {
                task: key,
                node: node as u32,
                origin,
                device,
                bytes: bytes.as_u64(),
                remote,
            },
        );
        span
    }

    /// Queues a read of `key`'s chain on `node`: its restore service under
    /// the node's `slowdown`.
    fn read_chain(
        &mut self,
        key: u64,
        node: usize,
        footprint: ByteSize,
        slowdown: &dyn Fn(usize) -> f64,
        now: SimTime,
    ) -> Span {
        let mut service = self.restore_service(key, footprint, node);
        let factor = slowdown(node);
        if factor > 1.0 {
            service = service.mul_f64(factor);
        }
        let size = self.criu.image_size(key);
        let op = self.devices[node].submit_custom(now, OpKind::Read, size, service);
        Span {
            start: op.start,
            end: op.end,
        }
    }

    /// Attempt index of `key`'s in-flight restore episode.
    pub(crate) fn restore_attempt(&self, key: u64) -> u32 {
        self.restore_attempts.get(&key).copied().unwrap_or(0)
    }

    /// Validates `key`'s chain chunk by chunk once its restore read on
    /// `node` (service from `started`) completed, in chunked-resume mode
    /// under `plan` (NVRAM mirrors are not validated): corrupt chunks are
    /// refetched from replicas, an image that stays invalid cuts the chain
    /// and a chain with no valid prefix is dead. Refetches and wasted
    /// reads are charged to `charge`. A chain cut to its valid
    /// prefix rolls `task` back to what the surviving tip certifies and is
    /// re-read in place under `slowdown`; the strictly shrinking chain
    /// bounds that loop without consuming the transient-retry budget.
    #[allow(clippy::too_many_arguments)]
    pub fn check_restore(
        &mut self,
        plan: Option<&FaultPlan>,
        key: u64,
        node: usize,
        epoch: u32,
        started: SimTime,
        task: &mut TaskExec,
        slowdown: &dyn Fn(usize) -> f64,
        charge: &mut f64,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> RestoreEnd {
        self.devices[node].on_advance(now);
        let resume = plan.filter(|p| p.resume_enabled() && self.nvram.is_none());
        let Some(plan) = resume else {
            return RestoreEnd::Intact;
        };
        let attempt = self.restore_attempt(key);
        let cores = task.spec.resources.cores_f64();
        let verdict = self.validate_chain(
            plan, key, node, epoch, attempt, started, now, cores, charge, trace,
        );
        match verdict {
            ChainValidation::Intact => RestoreEnd::Intact,
            ChainValidation::Dead => RestoreEnd::Dead,
            ChainValidation::Truncated { stamp } => {
                task.truncate_to(stamp);
                let footprint = task.spec.resources.mem();
                RestoreEnd::Reread(self.read_chain(key, node, footprint, slowdown, now))
            }
        }
    }

    /// Draws `plan`'s failure of `key`'s finished restore read on `node`
    /// (NVRAM mirrors never fail): a transient error, or an image
    /// corrupted whole at dump time (the `resume = false` ablation). The
    /// failed read's service window from `started` is wasted CPU, charged
    /// to `charge`. A transient failure with retry budget left re-reads
    /// the chain from a surviving replica on the same placement under
    /// `slowdown`; a corrupt image or a spent budget loses the chain.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore_fault(
        &mut self,
        plan: Option<&FaultPlan>,
        key: u64,
        node: usize,
        epoch: u32,
        started: SimTime,
        task: &TaskExec,
        slowdown: &dyn Fn(usize) -> f64,
        charge: &mut f64,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> RestoreEnd {
        let Some(plan) = plan.filter(|_| self.nvram.is_none()) else {
            return RestoreEnd::Intact;
        };
        let attempt = self.restore_attempt(key);
        let corrupt = self.corrupt.contains(&key);
        if !corrupt && !plan.restore_fails(key, epoch, attempt) {
            return RestoreEnd::Intact;
        }
        let will_retry = !corrupt && attempt < plan.max_restore_retries();
        let reason = if corrupt {
            "corrupt-image"
        } else {
            "transient"
        };
        self.observe_health(node, now, false, trace);
        *charge += now.since(started).as_secs_f64() * task.spec.resources.cores_f64();
        trace.record(
            now.as_micros(),
            TraceRecord::RestoreFail {
                task: key,
                node: node as u32,
                attempt,
                reason,
                will_retry,
            },
        );
        if will_retry {
            self.restore_attempts.insert(key, attempt + 1);
            let footprint = task.spec.resources.mem();
            RestoreEnd::Reread(self.read_chain(key, node, footprint, slowdown, now))
        } else {
            if corrupt {
                // Integrity loss forced this restart.
                self.counters.integrity_scratch_restarts += 1;
            }
            RestoreEnd::Dead
        }
    }

    /// Finishes `key`'s restore on `node` (service from `started`): the
    /// episode ends, the path reports healthy, the `restore_done` record
    /// is written, the restore charged to `ledger`, and `task` resumes.
    /// Returns when it will finish; the caller marks it running.
    #[allow(clippy::too_many_arguments)]
    pub fn finish_restore(
        &mut self,
        key: u64,
        node: usize,
        started: SimTime,
        task: &mut TaskExec,
        ledger: &mut RunLedger,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> SimTime {
        self.restore_attempts.remove(&key);
        self.observe_health(node, now, true, trace);
        trace.record(
            now.as_micros(),
            TraceRecord::RestoreDone {
                task: key,
                node: node as u32,
                start_us: started.as_micros(),
            },
        );
        ledger.charge_restore(now.since(started), task.spec.resources.cores_f64());
        task.resume(now)
    }

    /// Abandons `key`'s checkpoint for good: the progress it saved is
    /// re-execution waste charged to `ledger`, the chain (or mirror) is
    /// discarded, the restore episode ends and `task` starts over from
    /// zero progress with a full next dump.
    pub fn scratch_restart(&mut self, key: u64, task: &mut TaskExec, ledger: &mut RunLedger) {
        let cores = task.spec.resources.cores_f64();
        ledger.kill_lost_cpu_secs += task.checkpointed_progress.as_secs_f64() * cores;
        self.discard_chain(key);
        self.restore_attempts.remove(&key);
        task.lose_chain();
        task.progress = SimDuration::ZERO;
    }

    // ---- integrity ladder --------------------------------------------------

    /// Chunk-level validation of `key`'s chain after a restore read on
    /// `node` completed: each corrupt chunk first tries a refetch from a
    /// DFS replica; an image that stays invalid cuts the chain at its
    /// longest valid prefix, and a chain with no valid prefix is dead.
    /// Refetch re-reads and the wasted read (`started`..`now`) of a failed
    /// validation are charged to `charge` at `cores`; `attempt` numbers
    /// the `RestoreFail` records.
    #[allow(clippy::too_many_arguments)]
    fn validate_chain(
        &mut self,
        plan: &FaultPlan,
        key: u64,
        node: usize,
        epoch: u32,
        attempt: u32,
        started: SimTime,
        now: SimTime,
        cores: f64,
        charge: &mut f64,
        trace: &mut TraceSink,
    ) -> ChainValidation {
        // Snapshot (image idx → corrupt chunks with lengths): the catalog
        // is mutated during repair.
        let Some(chain) = self.criu.chain(key) else {
            return ChainValidation::Intact;
        };
        let images: Vec<(usize, Vec<(u64, u64)>)> = chain
            .images()
            .iter()
            .enumerate()
            .map(|(i, img)| {
                let m = &img.manifest;
                let bad = m
                    .corrupt_chunks()
                    .into_iter()
                    .map(|c| (c, m.chunks[c as usize].len))
                    .collect();
                (i, bad)
            })
            .collect();
        if images.iter().all(|(_, bad)| bad.is_empty()) {
            return ChainValidation::Intact;
        }
        let t_us = now.as_micros();
        let total = images.len();
        let mut valid_prefix = total;
        'walk: for (i, bad) in images {
            for (chunk, len) in bad {
                // A replica exists when the image went through the DFS and
                // its blocks are still readable.
                let replica = match (&self.dfs, self.paths.get(&key)) {
                    (Some(dfs), Some(paths)) => paths
                        .get(i)
                        .is_some_and(|p| dfs.is_readable(p).unwrap_or(false)),
                    _ => false,
                };
                // Per-image × per-chunk key keeps refetch draws independent.
                let ckey = ((i as u64) << 20) | chunk;
                let ok = replica && !plan.chunk_refetch_fails(key, epoch, ckey);
                trace.record(
                    t_us,
                    TraceRecord::ChunkRefetch {
                        task: key,
                        node: node as u32,
                        chunk,
                        ok,
                    },
                );
                if !ok {
                    valid_prefix = i;
                    break 'walk;
                }
                self.criu.repair_chunk(key, i, chunk);
                self.counters.chunk_refetches += 1;
                // The targeted re-read holds the container.
                let reread = self.devices[node]
                    .spec()
                    .read_time(ByteSize::from_bytes(len));
                *charge += reread.as_secs_f64() * cores;
            }
        }
        if valid_prefix == total {
            return ChainValidation::Intact;
        }
        // The read past the prefix was wasted work.
        *charge += now.since(started).as_secs_f64() * cores;
        self.observe_health(node, now, false, trace);
        let reason = "corrupt-image";
        if valid_prefix == 0 {
            trace.record(
                t_us,
                TraceRecord::RestoreFail {
                    task: key,
                    node: node as u32,
                    attempt,
                    reason,
                    will_retry: false,
                },
            );
            self.counters.integrity_scratch_restarts += 1;
            return ChainValidation::Dead;
        }
        let dropped = (total - valid_prefix) as u64;
        for (origin, bytes) in self.criu.truncate_chain(key, valid_prefix) {
            self.devices[origin as usize].release(bytes);
        }
        while self.path_count(key) > valid_prefix {
            self.pop_path(key, true);
        }
        self.counters.chain_truncations += 1;
        trace.record(
            t_us,
            TraceRecord::ChainTruncate {
                task: key,
                node: node as u32,
                dropped,
                kept: valid_prefix as u64,
            },
        );
        trace.record(
            t_us,
            TraceRecord::RestoreFail {
                task: key,
                node: node as u32,
                attempt,
                reason,
                will_retry: true,
            },
        );
        let stamp = self
            .criu
            .chain(key)
            .and_then(|c| c.tip())
            .map_or(0, |r| r.progress);
        ChainValidation::Truncated { stamp }
    }

    // ---- lost chains ------------------------------------------------------

    /// Takes `node`'s datanode down: the DFS re-replicates every block
    /// that lost a replica. Returns the repair summary and the tasks (in
    /// key order) whose files lost a block for good — `None` without a
    /// DFS or when the datanode was already down.
    pub fn fail_datanode(
        &mut self,
        node: usize,
        now: SimTime,
        trace: &mut TraceSink,
    ) -> Option<(ReplicationRepair, Vec<u64>)> {
        let dfs = self.dfs.as_mut()?;
        let repair = dfs.fail_datanode(DnId(node as u32)).ok()?;
        if repair.blocks_repaired > 0 || repair.blocks_lost > 0 {
            trace.record(
                now.as_micros(),
                TraceRecord::ReplicationRepair {
                    node: node as u32,
                    blocks: repair.blocks_repaired as u64,
                    bytes: repair.bytes_copied.as_u64(),
                },
            );
        }
        let mut lost = Vec::new();
        if repair.blocks_lost > 0 {
            for (&key, paths) in &self.paths {
                if paths.iter().any(|p| !dfs.is_readable(p).unwrap_or(true)) {
                    lost.push(key);
                }
            }
        }
        Some((repair, lost))
    }

    /// Brings `node`'s datanode back (it rejoins empty).
    pub fn recover_datanode(&mut self, node: usize) {
        if let Some(dfs) = &mut self.dfs {
            let _ = dfs.recover_datanode(DnId(node as u32));
        }
    }

    /// Loses `key`'s chain to a block loss: a dump in flight (`status` is
    /// `Dumping`) is aborted (`DumpFallback(reason)`), then the chain is
    /// discarded. The caller degrades the task.
    pub fn lose_chain(
        &mut self,
        key: u64,
        status: TaskStatus,
        reason: &'static str,
        now: SimTime,
        trace: &mut TraceSink,
    ) {
        if let TaskStatus::Dumping { node, .. } = status {
            self.abort_dump(key, node as usize, reason, true, now, trace);
        }
        self.discard_chain(key);
    }

    // ---- invariants and export -------------------------------------------

    /// Hard conservation invariant (checked after every event in debug
    /// builds): every byte reserved on a checkpoint device is owned by a
    /// live catalog image or an injected leak, and every manifest agrees
    /// with the catalog. Also compiled into release test builds, where the
    /// unit tests below call it directly.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_image_conservation(&self, now: SimTime) {
        self.criu.assert_manifest_consistency();
        for (i, dev) in self.devices.iter().enumerate() {
            assert_eq!(
                dev.used().as_u64(),
                self.criu.live_bytes_on(i as u32).as_u64() + self.leaked[i],
                "image-ledger conservation violated on node {i} at {now:?}"
            );
        }
    }

    /// Mean per-device busy fraction over `horizon`.
    pub fn io_busy_fraction(&self, horizon: SimDuration) -> f64 {
        mean(self.devices.iter().map(|d| d.busy_fraction(horizon)))
    }

    /// Mean per-device peak used fraction.
    pub fn peak_used_fraction(&self) -> f64 {
        mean(self.devices.iter().map(|d| d.peak_used_fraction()))
    }

    /// Sets the registry keys both simulators share: the `lifecycle.*`
    /// and `integrity.*` counters, the capacity-fallback, breaker and
    /// dump-fail keys, and the `storage.*` device statistics of a run that
    /// ended at `end`.
    pub fn export(&self, reg: &mut MetricsRegistry, end: SimTime) {
        let c = &self.counters;
        reg.set_counter("scheduler.capacity_fallbacks", "ops", c.capacity_fallbacks);
        reg.set_counter(
            "lifecycle.gc_reclaimed_bytes",
            "bytes",
            c.gc_reclaimed_bytes,
        );
        reg.set_counter("lifecycle.evicted_chains", "ops", c.evicted_chains);
        reg.set_counter("lifecycle.spill_dumps", "ops", c.spill_dumps);
        reg.set_counter("lifecycle.no_space_kills", "ops", c.no_space_kills);
        reg.set_counter("faults.breaker_open_kills", "ops", c.breaker_open_kills);
        reg.set_gauge("faults.breaker_open_secs", "s", self.breaker_open_secs(end));
        reg.set_counter("faults.dump_fail_kills", "ops", c.dump_fail_kills);
        reg.set_counter("integrity.resumed_dumps", "ops", c.resumed_dumps);
        reg.set_counter("integrity.resumed_bytes", "bytes", c.resumed_bytes);
        reg.set_counter("integrity.chunk_refetches", "ops", c.chunk_refetches);
        reg.set_counter("integrity.chain_truncations", "ops", c.chain_truncations);
        reg.set_counter(
            "integrity.scratch_restarts",
            "ops",
            c.integrity_scratch_restarts,
        );

        let horizon = end.since(SimTime::ZERO);
        reg.set_gauge(
            "storage.io_busy_fraction",
            "fraction",
            self.io_busy_fraction(horizon),
        );
        reg.set_gauge(
            "storage.peak_used_fraction",
            "fraction",
            self.peak_used_fraction(),
        );
        if let Some((first, rest)) = self.devices.split_first() {
            let mut writes = first.write_latency().clone();
            let mut reads = first.read_latency().clone();
            for dev in rest {
                writes.merge(dev.write_latency());
                reads.merge(dev.read_latency());
            }
            reg.set_histogram("storage.write_latency_secs", "s", &writes);
            reg.set_histogram("storage.read_latency_secs", "s", &reads);
            let written = self
                .devices
                .iter()
                .map(|d| d.bytes_written().as_u64())
                .sum();
            let read = self.devices.iter().map(|d| d.bytes_read().as_u64()).sum();
            reg.set_counter("storage.bytes_written", "bytes", written);
            reg.set_counter("storage.bytes_read", "bytes", read);
            let underflows = self.devices.iter().map(|d| d.accounting_underflows()).sum();
            reg.set_counter("storage.accounting_underflows", "ops", underflows);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbp_faults::FaultSpec;
    use cbp_telemetry::Tracer;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Keeps every record it is given.
    #[derive(Clone, Default)]
    struct Records(Rc<RefCell<Vec<TraceRecord>>>);

    impl Tracer for Records {
        fn record(&mut self, _t_us: u64, rec: &TraceRecord) {
            self.0.borrow_mut().push(*rec);
        }
    }

    /// Two local-FS nodes with 10 GB NVM checkpoint devices.
    fn local_path(plan: Option<&FaultPlan>) -> CkptPath {
        let media = MediaSpec::nvm().with_capacity(ByteSize::from_gb(10));
        CkptPath::new(2, media, Criu::new(true), None, None, plan, true)
    }

    /// Dumps a fresh `gb`-GB image of `key` on node 0 and returns its memory.
    fn dump(path: &mut CkptPath, key: u64, gb: u64) -> TaskMemory {
        let mut mem = TaskMemory::new(ByteSize::from_gb(gb));
        let mut trace = TraceSink::default();
        path.dump_image(key, &mut mem, 0, 0, None, SimTime::ZERO, &mut trace)
            .expect("image fits");
        mem
    }

    #[test]
    fn gc_reclaims_leaks_and_conserves_the_ledger() {
        let plan = FaultPlan::new(FaultSpec::parse("pressure,leak=1,leak-gb=6").unwrap());
        let mut path = local_path(Some(&plan));
        let cap = path.devices[0].free_capacity();
        assert_eq!(
            cap,
            ByteSize::from_mb(500),
            "the plan shrank the devices to 5%"
        );
        let window = path.pressure_tick(&plan, SimTime::ZERO, &|i| i == 0);
        assert!(window.is_some());
        assert_eq!(
            path.devices[0].used(),
            cap,
            "the leak is clamped to free space"
        );
        assert!(path.devices[1].used().is_zero(), "down nodes do not leak");
        path.assert_image_conservation(SimTime::ZERO);

        let dropped = path.gc_pass(SimTime::ZERO, &mut TraceSink::default(), &mut |_| Some(0.0));
        assert!(dropped.is_empty(), "leaks own no chains");
        assert_eq!(path.counters.gc_reclaimed_bytes, cap.as_u64());
        assert!(path.devices.iter().all(|d| d.used().is_zero()));
        path.assert_image_conservation(SimTime::ZERO);
    }

    #[test]
    fn full_device_evicts_the_cheapest_chain() {
        let mut path = local_path(None);
        dump(&mut path, 1, 4);
        dump(&mut path, 2, 4);
        let mut loss = |k: u64| Some(if k == 1 { 10.0 } else { 5.0 });
        let (origin, dropped) = path.place_dump(
            3,
            0,
            ByteSize::from_gb(4),
            true,
            SimTime::ZERO,
            &mut TraceSink::default(),
            &|_| true,
            &mut loss,
        );
        assert_eq!(origin, Some(0));
        assert_eq!(dropped, vec![2], "the 2-GB shortfall costs only task 2");
        assert!(path.criu.has_image(1) && !path.criu.has_image(2));
        assert_eq!(path.counters.evicted_chains, 1);
        assert_eq!(path.counters.no_space_kills, 0);
        path.assert_image_conservation(SimTime::ZERO);
    }

    #[test]
    fn busy_chains_are_never_evicted_and_lifecycle_off_kills() {
        let mut path = local_path(None);
        dump(&mut path, 1, 8);
        for lifecycle in [true, false] {
            let (origin, dropped) = path.place_dump(
                2,
                0,
                ByteSize::from_gb(4),
                lifecycle,
                SimTime::ZERO,
                &mut TraceSink::default(),
                &|_| true,
                &mut |_| None,
            );
            assert_eq!((origin, dropped), (None, Vec::new()));
        }
        assert!(path.criu.has_image(1));
        assert_eq!(path.counters.no_space_kills, 2);
        assert_eq!(path.counters.capacity_fallbacks, 2);
    }

    #[test]
    fn dump_retries_resume_from_a_monotone_frontier_then_abort() {
        let spec = FaultSpec {
            chunk_bytes: ByteSize::from_mb(100),
            max_dump_retries: 3,
            ..FaultSpec::default()
        };
        let plan = FaultPlan::new(spec);
        let mut path = local_path(Some(&plan));
        dump(&mut path, 7, 4);
        let full = ByteSize::from_gb(4);
        let mut trace = TraceSink::default();
        let mut last = full;
        for attempt in 0..3 {
            let retry = path
                .fail_dump(&plan, 7, 0, 1, attempt, full, SimTime::ZERO, &mut trace)
                .expect("budget left");
            assert!(retry.rewrite <= last, "the frontier never moves back");
            assert_eq!(retry.origin, 0);
            assert_eq!(path.dump_attempt(7), attempt + 1);
            last = retry.rewrite;
        }
        assert!(last < full, "some chunks were durable");
        assert!(path
            .fail_dump(&plan, 7, 0, 1, 3, full, SimTime::ZERO, &mut trace)
            .is_none());
        assert_eq!(path.counters.dump_fail_kills, 1);
        assert_eq!(path.dump_attempt(7), 0, "the episode ended");
        assert!(!path.criu.has_image(7), "the half-written tip was aborted");
        path.assert_image_conservation(SimTime::ZERO);
    }

    #[test]
    fn corrupt_tip_truncates_to_the_valid_prefix_and_a_corrupt_root_is_dead() {
        let plan = FaultPlan::new(FaultSpec::default());
        let mut path = local_path(Some(&plan));
        let mut trace = TraceSink::default();
        let mut mem = dump(&mut path, 1, 2);
        path.criu.set_tip_progress(1, 111);
        mem.touch_fraction(0.5);
        path.dump_image(1, &mut mem, 0, 0, None, SimTime::ZERO, &mut trace)
            .expect("image fits");
        path.criu.set_tip_progress(1, 222);
        assert_eq!(path.criu.chain(1).map(|c| c.images().len()), Some(2));

        let validate = |path: &mut CkptPath, charge: &mut f64| {
            let now = SimTime::from_secs(10);
            let mut trace = TraceSink::default();
            path.validate_chain(
                &plan,
                1,
                0,
                1,
                0,
                SimTime::ZERO,
                now,
                2.0,
                charge,
                &mut trace,
            )
        };
        let mut charge = 0.0;
        assert_eq!(validate(&mut path, &mut charge), ChainValidation::Intact);
        assert_eq!(charge, 0.0);

        // Without a DFS replica the corrupt tip cannot be refetched.
        path.criu.mark_tip_chunk_corrupt(1, 0);
        let verdict = validate(&mut path, &mut charge);
        assert_eq!(verdict, ChainValidation::Truncated { stamp: 111 });
        assert_eq!(charge, 20.0, "the wasted read is charged at 2 cores");
        assert_eq!(path.counters.chain_truncations, 1);
        path.assert_image_conservation(SimTime::ZERO);

        path.criu.mark_tip_chunk_corrupt(1, 0);
        assert_eq!(validate(&mut path, &mut charge), ChainValidation::Dead);
        assert_eq!(path.counters.integrity_scratch_restarts, 1);
    }

    #[test]
    fn algorithm1_decides_by_policy_and_progress_at_risk() {
        let dev = Device::new(MediaSpec::hdd());
        let mem = TaskMemory::new(ByteSize::from_gb(5));
        let overhead = Criu::new(true)
            .estimate(1, &mem, &dev, SimTime::ZERO)
            .total();
        let decide =
            |policy, secs| CkptPath::decide(policy, || (SimDuration::from_secs(secs), overhead));
        use PreemptAction::{Checkpoint, Kill};
        use PreemptionPolicy as P;
        // HDD 5 GB: overhead ~= 250 s. 30 s of progress -> kill.
        assert_eq!(decide(P::Adaptive, 30), (Kill, "overhead-exceeds-risk"));
        // 1000 s of progress -> checkpoint.
        assert_eq!(decide(P::Adaptive, 1000), (Checkpoint, "progress-at-risk"));
        assert_eq!(decide(P::Kill, 1000), (Kill, "policy"));
        assert_eq!(decide(P::Checkpoint, 0), (Checkpoint, "policy"));
        // Only Algorithm 1 asks for the estimate.
        let never = || -> (SimDuration, SimDuration) { panic!("estimate asked for") };
        assert_eq!(CkptPath::decide(P::Kill, never), (Kill, "policy"));
        assert_eq!(
            CkptPath::decide(P::Checkpoint, never),
            (Checkpoint, "policy")
        );
    }

    #[test]
    #[should_panic(expected = "Wait never preempts")]
    fn wait_never_preempts() {
        CkptPath::decide(PreemptionPolicy::Wait, || {
            (SimDuration::ZERO, SimDuration::ZERO)
        });
    }

    #[test]
    fn open_breaker_degrades_a_checkpoint_to_a_recorded_kill() {
        let plan = FaultPlan::new(FaultSpec::parse("breaker=0.5,breaker-min=1").unwrap());
        let mut path = local_path(Some(&plan));
        let records = Records::default();
        let mut trace = TraceSink::new(Box::new(records.clone()));
        let now = SimTime::from_secs(1);
        let no_costs = |_: &CkptPath| (SimDuration::ZERO, SimDuration::ZERO);
        let action = path.preempt_action(
            7,
            0,
            PreemptionPolicy::Checkpoint,
            now,
            &mut trace,
            no_costs,
        );
        assert_eq!(
            action,
            PreemptAction::Checkpoint,
            "a closed breaker lets it through"
        );

        path.observe_health(0, now, false, &mut trace);
        assert!(
            !path.breaker_allows(0, now),
            "one failure opens the breaker"
        );
        records.0.borrow_mut().clear();
        for policy in [PreemptionPolicy::Checkpoint, PreemptionPolicy::Kill] {
            let action = path.preempt_action(7, 0, policy, now, &mut trace, no_costs);
            assert_eq!(action, PreemptAction::Kill);
        }
        assert_eq!(
            path.counters.breaker_open_kills, 1,
            "a kill decision is not a fallback"
        );
        let records = records.0.borrow();
        assert!(matches!(
            records[..],
            [
                TraceRecord::PreemptDecision {
                    victim: 7,
                    node: 0,
                    action: PreemptAction::Kill,
                    policy: "checkpoint",
                    reason: "breaker-open",
                },
                TraceRecord::DumpFallback {
                    task: 7,
                    node: 0,
                    reason: "breaker-open",
                },
                TraceRecord::PreemptDecision {
                    action: PreemptAction::Kill,
                    policy: "kill",
                    reason: "policy",
                    ..
                },
            ]
        ));
    }

    #[test]
    fn ranking_estimate_scales_the_next_dump_and_the_queue() {
        let path = local_path(None);
        let mut task = TaskExec::new(cbp_workload::TaskSpec {
            id: cbp_workload::TaskId {
                job: cbp_workload::JobId(0),
                index: 0,
            },
            resources: cbp_cluster::Resources::new_cores(1, ByteSize::from_gb(2)),
            duration: SimDuration::from_secs(100),
            dirty_rate_per_sec: 0.01,
        });
        let now = SimTime::from_secs(10);
        let spec = path.device(0).spec();
        let full = spec.write_time(ByteSize::from_gb(2)) + spec.read_time(ByteSize::from_gb(2));

        let plain = path.node_cost(0, now, 1.0, None);
        assert_eq!(plain.floor(), 0.0, "an idle device has no queue");
        assert_eq!(
            path.victim_cost_secs(&task, false, &plain),
            full.as_secs_f64()
        );

        // An incremental dump extrapolates the dirty fraction: 10 s at 1%/s
        // on top of a clean image is a tenth of the footprint.
        let mut mem = TaskMemory::new(ByteSize::from_gb(2));
        mem.clear_dirty();
        task.memory = Some(mem);
        let tenth = ByteSize::from_gb(2).mul_f64(0.1);
        let delta = spec.write_time(tenth) + spec.read_time(tenth);
        assert_eq!(
            path.victim_cost_secs(&task, true, &plain),
            delta.as_secs_f64()
        );

        // A slowdown below 1 is ignored; one above it and the retry
        // multiplier scale the whole estimate.
        let fast = path.node_cost(0, now, 0.5, None);
        assert_eq!(
            path.victim_cost_secs(&task, false, &fast),
            full.as_secs_f64()
        );
        let slow = path.node_cost(0, now, 2.0, Some(1.5));
        assert_eq!(
            path.victim_cost_secs(&task, false, &slow),
            full.as_secs_f64() * 2.0 * 1.5
        );
    }

    #[test]
    fn nvram_mirrors_stand_in_for_the_image_files() {
        use crate::task::TaskState;
        use cbp_cluster::ContainerId;
        let media = MediaSpec::nvm().with_capacity(ByteSize::from_gb(10));
        let nvram = Some(NvramSpec::default());
        let mut path = CkptPath::new(2, media, Criu::new(true), None, nvram, None, true);
        let spec = cbp_workload::TaskSpec {
            id: cbp_workload::TaskId {
                job: cbp_workload::JobId(0),
                index: 0,
            },
            resources: cbp_cluster::Resources::new_cores(1, ByteSize::from_gb(2)),
            duration: SimDuration::from_secs(100),
            dirty_rate_per_sec: 0.01,
        };
        let mut tasks = vec![TaskState::new(
            spec,
            cbp_workload::Priority(0),
            0,
            SimTime::ZERO,
        )];
        let mut ledger = RunLedger::default();
        let mut suspend = |path: &mut CkptPath, tasks: &mut Vec<TaskState>, secs| {
            tasks[0].exec.status = TaskStatus::Running {
                node: 1,
                container: ContainerId(1),
            };
            let (span, dropped) = path.start_dump(
                0,
                1,
                tasks,
                &"/ckpt/0",
                &|_| 2.0,
                true,
                true,
                &|_| true,
                &mut ledger,
                SimTime::from_secs(secs),
                &mut TraceSink::default(),
            );
            assert!(dropped.is_empty());
            span.expect("the mirror fits")
        };
        let first = suspend(&mut path, &mut tasks, 10);
        assert_eq!(first.start, SimTime::from_secs(10), "a copy never queues");
        assert_eq!(path.image_origin(0), Some(1));
        assert!(path.device(1).used().is_zero(), "a mirror takes no device");
        assert!(path.restore_is_local(RestorePlacement::CostAware));
        assert_eq!(path.incremental_dumps(), 0, "the first copy is full");

        // Ten seconds at 1%/s dirty a tenth of the footprint; the shadow
        // already holds most of it, and the slowdown does not apply.
        let second = suspend(&mut path, &mut tasks, 20);
        assert!(second.end.since(second.start) < first.end.since(first.start));
        assert_eq!(path.incremental_dumps(), 1);
        assert_eq!(tasks[0].exec.epoch, 2);
        assert_eq!(ledger.checkpoints, 2);

        assert!(!path.lose_images_on(0, 0), "the mirror is on node 1");
        assert!(path.lose_images_on(0, 1));
        assert!(!path.has_image(0));
    }
}
