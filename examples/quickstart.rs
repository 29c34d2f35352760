//! Quickstart: run one contended workload under all four preemption
//! policies and compare what each one costs.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cbp::core::{PreemptionPolicy, SimConfig};
use cbp::storage::MediaKind;
use cbp::workload::google::GoogleTraceConfig;
use cbp::workload::PriorityBand;

fn main() {
    // A small Google-like workload: ~300 jobs over one simulated hour,
    // heavy-tailed job sizes, twelve priority levels.
    let workload = GoogleTraceConfig::small(300.0).generate(42);
    println!(
        "workload: {} jobs / {} tasks / {:.1} CPU-hours of work\n",
        workload.job_count(),
        workload.task_count(),
        workload.total_cpu_hours()
    );

    println!(
        "{:<12} {:>12} {:>10} {:>12} {:>12} {:>12}",
        "policy", "wasted[c-h]", "kWh", "low[s]", "high[s]", "preemptions"
    );
    for policy in PreemptionPolicy::ALL {
        // A six-node cluster with SSD checkpoint storage, checkpoints
        // replicated through the built-in HDFS model.
        let config = SimConfig::trace_sim(policy, MediaKind::Ssd).with_nodes(6);
        let report = config.run(&workload);
        let m = &report.metrics;
        println!(
            "{:<12} {:>12.2} {:>10.2} {:>12.0} {:>12.0} {:>12}",
            policy.to_string(),
            m.wasted_cpu_hours(),
            m.energy_kwh,
            m.mean_response(PriorityBand::Free),
            m.mean_response(PriorityBand::Production),
            m.preemptions()
        );
    }

    println!(
        "\nKill loses victims' progress; Checkpoint suspends and resumes them; \
         Adaptive (the paper's Algorithm 1) picks per victim."
    );
}
