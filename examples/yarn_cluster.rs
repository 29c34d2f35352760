//! The §5 YARN scenario: a Facebook-derived workload on an 8-node cluster,
//! comparing stock kill-based preemption against checkpointing on NVM.
//!
//! ```text
//! cargo run --release --example yarn_cluster
//! ```

use cbp::core::PreemptionPolicy;
use cbp::storage::MediaKind;
use cbp::workload::facebook::FacebookConfig;
use cbp::workload::PriorityBand;
use cbp::yarn::YarnConfig;

fn main() {
    // 40 jobs / ~7,000 tasks, one production job larger than the cluster
    // (8 nodes x 24 containers), each task a ~1.8 GB k-means program.
    let workload = FacebookConfig::default().generate(7);
    println!(
        "workload: {} jobs / {} tasks on 8 nodes x 24 containers\n",
        workload.job_count(),
        workload.task_count()
    );

    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "policy", "wasted[c-h]", "kWh", "low[min]", "high[min]", "kills", "chks"
    );
    for (policy, media) in [
        (PreemptionPolicy::Kill, MediaKind::Ssd),
        (PreemptionPolicy::Checkpoint, MediaKind::Hdd),
        (PreemptionPolicy::Checkpoint, MediaKind::Ssd),
        (PreemptionPolicy::Checkpoint, MediaKind::Nvm),
        (PreemptionPolicy::Adaptive, MediaKind::Nvm),
    ] {
        let report = YarnConfig::paper_cluster(policy, media).run(&workload);
        let label = if policy == PreemptionPolicy::Kill {
            "Kill (stock)".to_string()
        } else {
            format!("{policy}-{media}")
        };
        println!(
            "{:<16} {:>12.2} {:>10.2} {:>10.1} {:>10.1} {:>8} {:>8}",
            label,
            report.metrics.wasted_cpu_hours(),
            report.metrics.energy_kwh,
            report.metrics.mean_response(PriorityBand::Free) / 60.0,
            report.metrics.mean_response(PriorityBand::Production) / 60.0,
            report.metrics.kills,
            report.metrics.checkpoints
        );
    }

    println!(
        "\nThe ContainerPreemptEvent -> AM Preemption Manager -> CRIU dump -> \
         HDFS -> restore pipeline runs at message granularity; see \
         crates/yarn for the protocol."
    );
}
