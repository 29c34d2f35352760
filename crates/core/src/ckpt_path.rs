//! The checkpoint-image path both simulators share.
//!
//! The paper's mechanism (§3.2 CRIU dump/restore to local or HDFS storage,
//! §5 the same protocol inside YARN) is one subsystem below the scheduler:
//! [`CkptPath`] owns everything the image-ledger conservation invariant
//! spans — the [`Criu`] catalog, each node's checkpoint [`Device`], the
//! injected-leak bytes, the DFS and each task's DFS files, the dump-retry
//! and resume-frontier state and the checkpoint-path circuit breakers —
//! and runs the three degradation ladders on it:
//!
//! - **lifecycle** (a dump does not fit): GC → evict → spill → kill;
//! - **integrity** (a restored chain has corrupt chunks): replica refetch
//!   → truncate to the longest valid prefix → scratch restart;
//! - **lost chains** (a datanode failure took the last replica of a
//!   block): abort the in-flight dump and discard the chain.
//!
//! It also holds the paper's Algorithm 1 for both simulators: the §5.2.2
//! victim-ranking estimate ([`CkptPath::victim_cost_secs`]) and the
//! preemption decision with its breaker-open fallback
//! ([`CkptPath::preempt_action`]). What the simulators do differently —
//! the slowdown and retry terms of the ranking, the overhead estimate and
//! when progress and memory are synced — comes in as arguments.
//!
//! Tasks are opaque `u64` keys (the ids trace records carry). Task state
//! stays with the simulators: the methods here return decisions — an
//! origin device, the keys whose chains were dropped, a validation verdict
//! — and each simulator applies its own rules to them.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use cbp_checkpoint::{plan_evictions, Criu, DumpResult, EvictionCandidate, TaskMemory};
use cbp_dfs::{DfsCluster, DnId, ReplicationRepair};
use cbp_faults::{BreakerTransition, FaultPlan, HealthMonitor};
use cbp_simkit::units::ByteSize;
use cbp_simkit::{SimDuration, SimTime};
use cbp_storage::{Device, MediaKind, MediaSpec, OpCompletion, OpKind};
use cbp_telemetry::{MetricsRegistry, PreemptAction, TraceRecord, TraceSink};

use crate::config::PreemptionPolicy;
use crate::task::TaskExec;

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
pub enum ChainValidation {
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
pub struct DumpRetry {
    /// Bytes the retry must rewrite (the suffix past the durable frontier
    /// when chunked resume is on, else the whole tip).
    pub rewrite: ByteSize,
    /// The device holding the tip (the failing node when there is none).
    pub origin: usize,
    /// Wait before the rewrite starts.
    pub backoff: SimDuration,
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
    /// Tasks whose current chain was corrupted whole at dump time (the
    /// `resume = false` ablation): every restore of it fails.
    corrupt: BTreeSet<u64>,
    /// Whether dumps draw whole-image corruption when chunked resume is
    /// off.
    whole_image_corruption: bool,
}

impl CkptPath {
    /// Builds the path for `nodes` nodes with `media` devices. A pressure
    /// plan shrinks every device; a plan's chunk size applies to `criu`.
    /// `whole_image_corruption` enables the legacy whole-image corruption
    /// draw of the `resume = false` ablation.
    pub fn new(
        nodes: usize,
        media: MediaSpec,
        criu: Criu,
        dfs: Option<DfsCluster>,
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
            corrupt: BTreeSet::new(),
            whole_image_corruption,
        }
    }

    /// The CRIU image catalog.
    pub fn criu(&self) -> &Criu {
        &self.criu
    }

    /// Node `node`'s checkpoint device.
    pub fn device(&self, node: usize) -> &Device {
        &self.devices[node]
    }

    /// Queues a `size`-byte restore read taking `service` on node `node`'s
    /// device.
    pub fn read(
        &mut self,
        node: usize,
        now: SimTime,
        size: ByteSize,
        service: SimDuration,
    ) -> OpCompletion {
        self.devices[node].submit_custom(now, OpKind::Read, size, service)
    }

    /// Lets node `node`'s device drain the operations finished by `now`.
    pub fn advance(&mut self, node: usize, now: SimTime) {
        self.devices[node].on_advance(now);
    }

    /// True if checkpoints are written through a DFS.
    pub fn has_dfs(&self) -> bool {
        self.dfs.is_some()
    }

    // ---- per-task DFS files ----------------------------------------------

    /// Number of DFS files `key` has written.
    pub fn path_count(&self, key: u64) -> usize {
        self.paths.get(&key).map_or(0, Vec::len)
    }

    /// Time for node `node` to read every DFS file of `key`.
    pub fn dfs_read_time(&self, key: u64, node: usize) -> SimDuration {
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
    pub fn write_dfs(
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

    /// The CRIU overhead Algorithm 1 weighs against the progress at risk:
    /// dump, restore and queue time of `key`'s next image from `node`.
    pub fn dump_overhead(
        &self,
        key: u64,
        mem: &TaskMemory,
        node: usize,
        now: SimTime,
    ) -> SimDuration {
        self.criu
            .estimate(key, mem, &self.devices[node], now)
            .total()
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
    pub fn place_dump(
        &mut self,
        key: u64,
        node: usize,
        size: ByteSize,
        lifecycle: bool,
        now: SimTime,
        trace: &mut TraceSink,
        up: &dyn Fn(usize) -> bool,
        loss: &dyn Fn(u64) -> Option<f64>,
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
        loss: &dyn Fn(u64) -> Option<f64>,
    ) -> (Option<usize>, Vec<u64>) {
        let mut dropped = self.gc_pass(now, trace, loss);
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
        loss: &dyn Fn(u64) -> Option<f64>,
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
        loss: &dyn Fn(u64) -> Option<f64>,
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

    /// Starts a dump episode for `key`: attempt numbering restarts.
    pub(crate) fn begin_dump(&mut self, key: u64) {
        self.dump_attempts.insert(key, 0);
    }

    /// Attempt index of `key`'s in-flight dump episode.
    pub fn dump_attempt(&self, key: u64) -> u32 {
        self.dump_attempts.get(&key).copied().unwrap_or(0)
    }

    /// Ends `key`'s dump episode (its retry state is dropped).
    pub fn end_dump(&mut self, key: u64) {
        self.dump_attempts.remove(&key);
        self.dump_frontier.remove(&key);
    }

    /// Writes `key`'s next image to device `origin` (dumped from `node`),
    /// taking `service` as the write time when given. On a full device the
    /// storage-full fallback is recorded and `None` returned: the caller
    /// kills the victim.
    #[allow(clippy::too_many_arguments)]
    pub fn dump_image(
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

    /// Commits `key`'s finished dump: the tip is stamped with the progress
    /// (µs) it certifies, the episode ends, and the plan's corruption draws
    /// land — per chunk in the tip's manifest with chunked resume on,
    /// whole-image otherwise (when enabled).
    #[allow(clippy::too_many_arguments)]
    pub fn commit_dump(
        &mut self,
        plan: Option<&FaultPlan>,
        key: u64,
        node: u32,
        epoch: u32,
        stamp: u64,
        now: SimTime,
        trace: &mut TraceSink,
    ) {
        self.criu.set_tip_progress(key, stamp);
        self.end_dump(key);
        let Some(plan) = plan else {
            return;
        };
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
    }

    /// True if `key`'s current chain was corrupted whole at dump time.
    pub(crate) fn is_corrupt(&self, key: u64) -> bool {
        self.corrupt.contains(&key)
    }

    /// Handles a failed dump attempt of `key` on `node`. While retry budget
    /// remains the retry is planned — with chunked resume, only the suffix
    /// past the episode's durable frontier is rewritten; `full` is the size
    /// rewritten when there is no tip. Once the budget is spent the
    /// half-written tip is aborted, the fallback recorded and `None`
    /// returned: the caller kills the victim.
    #[allow(clippy::too_many_arguments)]
    pub fn fail_dump(
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

    /// Discards `key`'s chain and DFS files, releasing their storage, and
    /// clears its corruption flag.
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
        self.corrupt.remove(&key);
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
    pub fn validate_chain(
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

    /// Loses `key`'s chain to a block loss: a dump in flight on
    /// `dumping_on` is aborted (`DumpFallback(reason)`), then the chain is
    /// discarded. The caller degrades the task.
    pub fn lose_chain(
        &mut self,
        key: u64,
        dumping_on: Option<usize>,
        reason: &'static str,
        now: SimTime,
        trace: &mut TraceSink,
    ) {
        if let Some(node) = dumping_on {
            self.abort_dump(key, node, reason, true, now, trace);
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
        CkptPath::new(2, media, Criu::new(true), None, plan, true)
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

        let dropped = path.gc_pass(SimTime::ZERO, &mut TraceSink::default(), &|_| Some(0.0));
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
        let loss = |k: u64| Some(if k == 1 { 10.0 } else { 5.0 });
        let (origin, dropped) = path.place_dump(
            3,
            0,
            ByteSize::from_gb(4),
            true,
            SimTime::ZERO,
            &mut TraceSink::default(),
            &|_| true,
            &loss,
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
                &|_| None,
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
        path.begin_dump(7);
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
}
