//! One module per experiment family.

pub mod ablate;
pub mod characterize;
pub mod extensions;
pub mod micro;
pub mod qos;
pub mod sensitivity;
pub mod tracesim;
pub mod yarnexp;

use cbp_core::{PreemptionPolicy, SimConfig};
use cbp_storage::MediaKind;
use cbp_workload::facebook::FacebookConfig;
use cbp_workload::google::GoogleTraceConfig;
use cbp_workload::Workload;
use cbp_yarn::YarnConfig;

use crate::Scale;

/// The shared Google-trace simulation setup (§3.3.2 / §4.2.1): a one-day
/// trace and a cluster sized so kill-based preemption reproduces the §2
/// contention aggregates. Both the workload and the cluster scale together,
/// preserving per-node load.
pub fn google_setup(scale: Scale, seed: u64) -> (Workload, SimConfig) {
    let workload = GoogleTraceConfig::one_day()
        .scaled(scale.factor)
        .with_load_factor(1.35)
        .generate(seed);
    let nodes = scale.apply(200, 4);
    let config = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Hdd).with_nodes(nodes);
    (workload, config)
}

/// The shared YARN setup (§5.3): the Facebook-derived workload on the
/// paper's cluster (Kill, HDD), scaled together. The giant production job
/// is 1.3× the cluster's container count, so it always preempts
/// default-queue work.
pub fn yarn_setup(scale: Scale, seed: u64) -> (Workload, YarnConfig) {
    let nodes = scale.apply(8, 2);
    let workload = FacebookConfig {
        jobs: scale.apply(40, 10),
        total_tasks: scale.apply(7_000, 260),
        giant_job_tasks: nodes * 24 * 13 / 10,
        ..Default::default()
    }
    .generate(seed);
    let mut config = YarnConfig::paper_cluster(PreemptionPolicy::Kill, MediaKind::Hdd);
    config.nodes = nodes;
    (workload, config)
}
