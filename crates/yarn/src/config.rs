//! YARN cluster configuration.

use cbp_cluster::Resources;
use cbp_core::{PreemptionPolicy, RunReport};
use cbp_faults::FaultSpec;
use cbp_simkit::units::ByteSize;
use cbp_simkit::SimDuration;
use cbp_storage::{MediaKind, MediaSpec};
use cbp_workload::Workload;

use crate::sim::YarnSim;

/// One-way RM ↔ AM RPC latency.
pub(crate) const RPC_DELAY: SimDuration = SimDuration::from_millis(10);

/// Container startup cost (localizing the job's resources, spawning the
/// JVM) paid by every fresh launch *and* every restore.
pub(crate) const CONTAINER_STARTUP: SimDuration = SimDuration::from_secs(2);

/// Configuration of the YARN analog. Every node draws power by the
/// default `EnergyModel`, and checkpoints always go through HDFS with the
/// default `DfsConfig`.
#[derive(Debug, Clone)]
pub struct YarnConfig {
    /// Number of NodeManagers.
    pub nodes: usize,
    /// Per-node capacity (paper: 24 containers of 1 core / 2 GB each).
    pub node_resources: Resources,
    /// Checkpoint storage medium on every node.
    pub media: MediaSpec,
    /// The Preemption Manager's policy (`Kill` reproduces stock YARN).
    pub policy: PreemptionPolicy,
    /// Enable incremental (soft-dirty) checkpoints.
    pub incremental: bool,
    /// Grace period the NodeManager allows a preempted container before
    /// force-killing it (stock YARN defaults to seconds). A checkpoint dump
    /// still in flight when the grace expires is aborted and the container
    /// killed — slow media need a generous grace. `None` = unlimited.
    pub graceful_timeout: Option<SimDuration>,
    /// Seed for DFS placement.
    pub seed: u64,
    /// Deterministic fault-injection plan (`None` — and any inert spec —
    /// disables injection entirely; see `cbp-faults`).
    pub faults: Option<FaultSpec>,
    /// Image-lifecycle management: when a dump does not fit, run the
    /// GC → evict → spill degradation ladder before giving up. Disabling
    /// reverts to the bare search-then-kill behaviour (useful as an
    /// ablation baseline; `no_space_kills` stays comparable either way).
    pub lifecycle: bool,
}

impl YarnConfig {
    /// The paper's testbed: 8 nodes × 24 containers (1 core / 2 GB), each
    /// node's checkpoint store at its medium's natural capacity (500 GB
    /// HDD / 120 GB SSD / 48 GB NVM), production queue allowed to claim the
    /// whole cluster.
    pub fn paper_cluster(policy: PreemptionPolicy, media: MediaKind) -> Self {
        YarnConfig {
            nodes: 8,
            node_resources: Resources::new_cores(24, ByteSize::from_gb(48)),
            media: media.spec(),
            policy,
            incremental: true,
            // The paper's AM handles the preempt event, so the NM timeout
            // is configured generously; `with_graceful_timeout` restores
            // stock YARN behaviour for ablation.
            graceful_timeout: None,
            seed: 42,
            faults: None,
            lifecycle: true,
        }
    }

    /// Returns a copy with a different policy.
    pub fn with_policy(mut self, policy: PreemptionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with a different medium at its natural capacity.
    pub fn with_media_kind(mut self, media: MediaKind) -> Self {
        self.media = media.spec();
        self
    }

    /// Returns a copy with incremental checkpointing toggled.
    pub fn with_incremental(mut self, incremental: bool) -> Self {
        self.incremental = incremental;
        self
    }

    /// Returns a copy with the NodeManager's force-kill grace period.
    pub fn with_graceful_timeout(mut self, timeout: SimDuration) -> Self {
        self.graceful_timeout = Some(timeout);
        self
    }

    /// Returns a copy with a fault-injection plan. An inert spec (all
    /// probabilities zero) is normalized to `None`, so enabling "no
    /// faults" is observationally identical to never calling this.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        self.faults = if spec.is_inert() { None } else { Some(spec) };
        self
    }

    /// Returns a copy with image-lifecycle management toggled.
    pub fn with_lifecycle(mut self, on: bool) -> Self {
        self.lifecycle = on;
        self
    }

    /// Runs `workload` on this cluster to completion.
    pub fn run(&self, workload: &Workload) -> RunReport {
        YarnSim::new(self.clone(), workload.clone()).run()
    }

    /// Runs a MapReduce plan: each job's reduces start only after all of
    /// its maps finish (the paper's §7 "wider range of applications").
    pub fn run_mapreduce(&self, plan: &cbp_workload::mapreduce::MapReducePlan) -> RunReport {
        YarnSim::new(self.clone(), plan.workload.clone())
            .with_barriers(plan.barriers.clone())
            .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_cluster_shape() {
        let cfg = YarnConfig::paper_cluster(PreemptionPolicy::Kill, MediaKind::Hdd);
        assert_eq!(cfg.nodes, 8);
        assert_eq!(cfg.node_resources.cpu_milli(), 24_000);
        assert_eq!(cfg.media.kind(), MediaKind::Hdd);
        // 8 × 24 = 192 one-core containers.
        let slots = cfg.nodes as u64 * cfg.node_resources.cpu_milli() / 1000;
        assert_eq!(slots, 192);
    }

    #[test]
    fn builders() {
        let cfg = YarnConfig::paper_cluster(PreemptionPolicy::Kill, MediaKind::Hdd)
            .with_policy(PreemptionPolicy::Adaptive)
            .with_media_kind(MediaKind::Nvm)
            .with_incremental(false);
        assert_eq!(cfg.policy, PreemptionPolicy::Adaptive);
        assert_eq!(cfg.media.kind(), MediaKind::Nvm);

        assert!(!cfg.incremental);
    }
}
