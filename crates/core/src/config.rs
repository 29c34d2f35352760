//! Simulation configuration.

use std::fmt;

use cbp_checkpoint::{CompressionSpec, Criu, NvramSpec};
use cbp_cluster::Resources;
use cbp_dfs::DfsCluster;
use cbp_faults::{FaultPlan, FaultSpec};
use cbp_simkit::units::ByteSize;
use cbp_storage::{MediaKind, MediaSpec};
use cbp_workload::Workload;

use crate::ckpt_path::CkptPath;
use crate::metrics::RunReport;
use crate::sim::ClusterSim;

/// What the scheduler does to victims when a higher-priority task needs
/// their resources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PreemptionPolicy {
    /// Never preempt: arrivals queue until resources free up.
    Wait,
    /// Kill victims and restart them from scratch later (the mechanism in
    /// stock YARN, Mesos and Borg that the paper argues against).
    Kill,
    /// Always suspend victims with a CRIU checkpoint and resume them later
    /// (the paper's "basic" checkpoint-based preemption).
    Checkpoint,
    /// The paper's Algorithm 1: per victim, checkpoint only if its at-risk
    /// progress exceeds the estimated dump+restore+queue overhead
    /// (incremental when possible), otherwise kill.
    Adaptive,
}

impl PreemptionPolicy {
    /// All policies, in the order the paper's figures list them.
    pub const ALL: [PreemptionPolicy; 4] = [
        PreemptionPolicy::Wait,
        PreemptionPolicy::Kill,
        PreemptionPolicy::Checkpoint,
        PreemptionPolicy::Adaptive,
    ];

    /// True if this policy ever writes checkpoints.
    pub fn uses_checkpoints(self) -> bool {
        matches!(
            self,
            PreemptionPolicy::Checkpoint | PreemptionPolicy::Adaptive
        )
    }

    /// Short stable name for trace records.
    pub fn trace_name(self) -> &'static str {
        match self {
            PreemptionPolicy::Wait => "wait",
            PreemptionPolicy::Kill => "kill",
            PreemptionPolicy::Checkpoint => "checkpoint",
            PreemptionPolicy::Adaptive => "adaptive",
        }
    }
}

impl fmt::Display for PreemptionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PreemptionPolicy::Wait => "Wait",
            PreemptionPolicy::Kill => "Kill",
            PreemptionPolicy::Checkpoint => "Checkpoint",
            PreemptionPolicy::Adaptive => "Adaptive",
        };
        f.write_str(s)
    }
}

/// How victims are chosen among a node's lower-priority containers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimSelection {
    /// Lowest priority first, most recently started first — the obvious
    /// baseline that minimizes lost progress under kill.
    Naive,
    /// The paper's §5.2.2 cost-aware eviction: victims with the lowest
    /// estimated checkpoint time (memory ÷ bandwidth + queue) first.
    CostAware,
}

/// How pending tasks of equal priority are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueueDiscipline {
    /// Strict FIFO within a priority (YARN capacity scheduler's default):
    /// a huge early job occupies the whole queue ahead of later arrivals.
    Fifo,
    /// Fair interleaving within a priority: jobs' tasks are served
    /// round-robin by per-job task index, approximating YARN's fair
    /// scheduler (which the Facebook cluster the paper cites runs).
    Fair,
}

/// Where a checkpointed task may resume (the paper's Algorithm 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RestorePlacement {
    /// Only on the node that holds the checkpoint (stock CRIU, before the
    /// paper's HDFS extension).
    LocalOnly,
    /// On whichever feasible node has the lowest restore overhead,
    /// accounting for network fetch of non-local blocks.
    CostAware,
}

/// Full configuration of one simulation run. Every node draws power by
/// the default `EnergyModel`, and HDFS (when `via_dfs`) runs with the
/// default `DfsConfig`.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Preemption policy under test.
    pub policy: PreemptionPolicy,
    /// Checkpoint storage medium on every node.
    pub media: MediaSpec,
    /// Number of nodes.
    pub nodes: usize,
    /// Per-node capacity.
    pub node_resources: Resources,
    /// Whether checkpoints go through HDFS (enabling remote restore) or the
    /// local file system only.
    pub via_dfs: bool,
    /// Victim-selection strategy.
    pub victim_selection: VictimSelection,
    /// Restore-placement strategy.
    pub restore_placement: RestorePlacement,
    /// Enable incremental (soft-dirty) checkpointing.
    pub incremental: bool,
    /// Stream-compress checkpoint images (lz4/zstd-class): smaller and
    /// faster dumps on slow media, counterproductive on NVM.
    pub compression: Option<CompressionSpec>,
    /// Intra-priority queue ordering.
    pub queue_discipline: QueueDiscipline,
    /// Mean time between failures of each node (None disables failure
    /// injection). Failures evict every container on the node; checkpoint
    /// images survive only when replicated through HDFS.
    pub failure_mtbf_per_node: Option<cbp_simkit::SimDuration>,
    /// How long a failed node stays unusable.
    pub failure_downtime: cbp_simkit::SimDuration,
    /// Use NVM as persistent *memory* (NVRAM) for checkpoints instead of a
    /// file system — the paper's §3.2.3 alternative / §7 future work.
    /// Suspends become DRAM→NVM copies (shadow-buffered, no serialization)
    /// and restores are lazy; the trade-off is that mirrors are node-local,
    /// so restore placement degrades to the origin node.
    pub nvram: Option<NvramSpec>,
    /// Seed for placement tie-breaking and DFS placement.
    pub seed: u64,
    /// At most this many pending tasks are examined per scheduling pass
    /// (the rest wait for the next pass; bounds worst-case pass cost).
    pub max_schedule_scan: usize,
    /// At most this many preemption searches per scheduling pass.
    pub preempt_budget_per_pass: usize,
    /// Deterministic fault-injection plan (None, or an inert spec, disables
    /// injection entirely — the simulator takes the exact same paths).
    pub faults: Option<FaultSpec>,
    /// Image-lifecycle management: when a dump does not fit, run the
    /// GC → evict → spill degradation ladder before giving up with a
    /// no-space kill. Disabling it reverts to the bare retry-then-kill
    /// capacity handling (the ablation baseline for the lifecycle
    /// machinery).
    pub lifecycle: bool,
}

impl SimConfig {
    /// The §3.3.2 trace-driven simulation shape: a homogeneous cluster with
    /// 16-core / 32 GB nodes, checkpoints through HDFS, all adaptive
    /// machinery on.
    pub fn trace_sim(policy: PreemptionPolicy, media: MediaKind) -> Self {
        SimConfig {
            policy,
            media: media.spec().with_capacity(ByteSize::from_gb(2_000)),
            nodes: 200,
            node_resources: Resources::new_cores(16, ByteSize::from_gb(32)),
            via_dfs: true,
            victim_selection: VictimSelection::CostAware,
            restore_placement: RestorePlacement::CostAware,
            incremental: true,
            compression: None,
            queue_discipline: QueueDiscipline::Fifo,
            failure_mtbf_per_node: None,
            failure_downtime: cbp_simkit::SimDuration::from_secs(600),
            nvram: None,
            seed: 42,
            max_schedule_scan: 3_000,
            preempt_budget_per_pass: 64,
            faults: None,
            lifecycle: true,
        }
    }

    /// The §3.3.3 sensitivity-analysis machine: one node, one core per job
    /// slot, local-FS checkpoints.
    pub fn single_machine(policy: PreemptionPolicy, media: MediaSpec) -> Self {
        SimConfig {
            policy,
            media,
            nodes: 1,
            node_resources: Resources::new_cores(1, ByteSize::from_gb(96)),
            via_dfs: false,
            victim_selection: VictimSelection::CostAware,
            restore_placement: RestorePlacement::CostAware,
            incremental: true,
            compression: None,
            queue_discipline: QueueDiscipline::Fifo,
            failure_mtbf_per_node: None,
            failure_downtime: cbp_simkit::SimDuration::from_secs(600),
            nvram: None,
            seed: 42,
            max_schedule_scan: 100,
            preempt_budget_per_pass: 8,
            faults: None,
            lifecycle: true,
        }
    }

    /// Returns a copy with a different node count.
    pub fn with_nodes(mut self, nodes: usize) -> Self {
        assert!(nodes > 0, "cluster needs at least one node");
        self.nodes = nodes;
        self
    }

    /// Returns a copy with a different per-node capacity.
    pub fn with_node_resources(mut self, r: Resources) -> Self {
        self.node_resources = r;
        self
    }

    /// Returns a copy with a different policy.
    pub fn with_policy(mut self, policy: PreemptionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different medium, **preserving the current
    /// checkpoint capacity** (capacity is a cluster-provisioning choice,
    /// not a property of the medium being compared).
    pub fn with_media(mut self, media: MediaSpec) -> Self {
        let capacity = self.media.capacity();
        self.media = media.with_capacity(capacity);
        self
    }

    /// Returns a copy with incremental checkpointing toggled (ablation).
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Returns a copy with a different victim-selection strategy (ablation).
    pub fn with_victim_selection(mut self, vs: VictimSelection) -> Self {
        self.victim_selection = vs;
        self
    }

    /// Returns a copy with a different restore placement (ablation).
    pub fn with_restore_placement(mut self, rp: RestorePlacement) -> Self {
        self.restore_placement = rp;
        self
    }

    /// Returns a copy with checkpoint-image stream compression enabled.
    pub fn with_compression(mut self, spec: CompressionSpec) -> Self {
        self.compression = Some(spec);
        self
    }

    /// Returns a copy with the given intra-priority queue discipline.
    pub fn with_queue_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.queue_discipline = discipline;
        self
    }

    /// Returns a copy with node-failure injection enabled: each node fails
    /// on average every `mtbf` and stays down for `downtime`.
    pub fn with_failures(
        mut self,
        mtbf: cbp_simkit::SimDuration,
        downtime: cbp_simkit::SimDuration,
    ) -> Self {
        assert!(!mtbf.is_zero(), "MTBF must be positive");
        self.failure_mtbf_per_node = Some(mtbf);
        self.failure_downtime = downtime;
        self
    }

    /// Returns a copy using NVRAM (NVM as persistent memory) checkpointing.
    pub fn with_nvram(mut self, spec: NvramSpec) -> Self {
        self.nvram = Some(spec);
        self
    }

    /// Returns a copy with the given fault-injection plan. Inert specs are
    /// normalized back to `None` so "faults off" has exactly one spelling.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = if spec.is_inert() { None } else { Some(spec) };
        self
    }

    /// Returns a copy with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with image-lifecycle management toggled (ablation:
    /// `false` reverts full devices to bare retry-then-kill handling).
    pub fn with_lifecycle(mut self, on: bool) -> Self {
        self.lifecycle = on;
        self
    }

    /// The checkpoint path this configuration describes for a run under
    /// `plan`: the CRIU catalog (incremental and compressed as configured)
    /// over each node's device, written through `dfs` when there is one,
    /// or NVRAM mirrors when configured.
    pub(crate) fn ckpt_path(&self, dfs: Option<DfsCluster>, plan: Option<&FaultPlan>) -> CkptPath {
        let mut criu = Criu::new(self.incremental);
        if let Some(compression) = self.compression {
            criu = criu.with_compression(compression);
        }
        CkptPath::new(self.nodes, self.media, criu, dfs, self.nvram, plan, true)
    }

    /// Builds the simulator and runs `workload` to completion.
    pub fn run(&self, workload: &Workload) -> RunReport {
        ClusterSim::new(self.clone(), workload.clone()).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_flags() {
        assert_eq!(PreemptionPolicy::Kill.to_string(), "Kill");
        assert_eq!(PreemptionPolicy::Adaptive.to_string(), "Adaptive");
        assert!(PreemptionPolicy::Checkpoint.uses_checkpoints());
        assert!(PreemptionPolicy::Adaptive.uses_checkpoints());
        assert!(!PreemptionPolicy::Kill.uses_checkpoints());
        assert!(!PreemptionPolicy::Wait.uses_checkpoints());
        let names = PreemptionPolicy::ALL.map(PreemptionPolicy::trace_name);
        assert_eq!(names, ["wait", "kill", "checkpoint", "adaptive"]);
    }

    #[test]
    fn builder_methods() {
        let cfg = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Hdd)
            .with_nodes(10)
            .with_policy(PreemptionPolicy::Adaptive)
            .with_incremental(false)
            .with_seed(7);
        assert_eq!(cfg.nodes, 10);
        assert_eq!(cfg.policy, PreemptionPolicy::Adaptive);
        assert!(!cfg.incremental);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.media.kind(), MediaKind::Hdd);
    }
}
