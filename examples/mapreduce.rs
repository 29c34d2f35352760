//! MapReduce under checkpoint-based preemption — the paper's §7 future
//! work, implemented: two-phase jobs whose reduces wait for every map.
//!
//! Killing a nearly-done map forces the whole split to re-run and delays
//! the reduce barrier; suspending it keeps the barrier moving. This example
//! runs the same MapReduce workload under kill and checkpoint preemption
//! and compares barrier-sensitive response times.
//!
//! ```text
//! cargo run --release --example mapreduce
//! ```

use cbp::core::PreemptionPolicy;
use cbp::storage::MediaKind;
use cbp::workload::mapreduce::MapReduceConfig;
use cbp::workload::PriorityBand;
use cbp::yarn::YarnConfig;

fn main() {
    let plan = MapReduceConfig::default().generate(11);
    println!(
        "workload: {} MapReduce jobs, {} maps + {} reduces\n",
        plan.workload.job_count(),
        plan.map_count(),
        plan.reduce_count()
    );

    println!(
        "{:<18} {:>12} {:>10} {:>10} {:>8} {:>8}",
        "policy", "wasted[c-h]", "low[min]", "high[min]", "kills", "chks"
    );
    for (policy, media) in [
        (PreemptionPolicy::Kill, MediaKind::Ssd),
        (PreemptionPolicy::Checkpoint, MediaKind::Ssd),
        (PreemptionPolicy::Checkpoint, MediaKind::Nvm),
        (PreemptionPolicy::Adaptive, MediaKind::Nvm),
    ] {
        let mut cfg = YarnConfig::paper_cluster(policy, media);
        cfg.nodes = 2;
        let r = cfg.run_mapreduce(&plan);
        let label = if policy == PreemptionPolicy::Kill {
            "Kill (stock)".to_string()
        } else {
            format!("{policy}-{media}")
        };
        println!(
            "{:<18} {:>12.2} {:>10.1} {:>10.1} {:>8} {:>8}",
            label,
            r.metrics.wasted_cpu_hours(),
            r.metrics.mean_response(PriorityBand::Free) / 60.0,
            r.metrics.mean_response(PriorityBand::Production) / 60.0,
            r.metrics.kills,
            r.metrics.checkpoints
        );
    }

    println!(
        "\nReduces start only after the last map of their job completes, so \
         every map kill delays the whole job; suspend-resume keeps map \
         progress and the barrier."
    );
}
