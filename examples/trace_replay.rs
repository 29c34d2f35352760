//! Trace replay + §2-style preemption analysis.
//!
//! Generates a Google-like trace, replays it through the kill-based
//! scheduler (the status quo the paper argues against), then applies the
//! paper's 5-second preemption-detection criterion to the scheduler's task
//! records as they are emitted — reproducing the shape of Fig. 1 and
//! Tables 1–2.
//!
//! ```text
//! cargo run --release --example trace_replay [seed]
//! ```

use cbp::core::{PreemptionPolicy, SimConfig};
use cbp::simkit::SimDuration;
use cbp::storage::MediaKind;
use cbp::workload::google::GoogleTraceConfig;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);

    let workload = GoogleTraceConfig::one_day()
        .scaled(0.05)
        .with_load_factor(1.35)
        .generate(seed);
    println!(
        "trace: {} jobs / {} tasks (5% of the one-day Google-like trace)",
        workload.job_count(),
        workload.task_count()
    );

    let config = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Hdd).with_nodes(10);
    let (_, analysis) = config.run_analyzed(&workload, SimDuration::from_secs(86_400));

    println!("\n-- Table 1: preemption per priority band (paper: 20.26 / 0.55 / 1.02 %)");
    for (band, counts) in &analysis.per_band {
        println!(
            "  {:<18} scheduled {:>8}   preempted {:>6.2}%",
            band.to_string(),
            counts.scheduled_tasks,
            counts.preempted_fraction() * 100.0
        );
    }

    println!("\n-- Table 2: preemption per latency class");
    for class in cbp::workload::LatencyClass::ALL {
        let counts = analysis.per_latency[class.0 as usize];
        println!(
            "  {:<10} scheduled {:>8}   preempted {:>6.2}%",
            class.to_string(),
            counts.scheduled_tasks,
            counts.preempted_fraction() * 100.0
        );
    }

    println!("\n-- Fig. 1c: repeated preemption");
    for (i, count) in analysis.preemption_count_histogram.iter().enumerate() {
        let label = if i == 9 {
            ">=10".into()
        } else {
            format!("{}", i + 1)
        };
        println!("  preempted {label:>4} time(s): {count} tasks");
    }

    println!(
        "\noverall: {:.1}% of scheduled tasks preempted (paper: 12.4%), \
         {:.1}% of preempted tasks hit more than once (paper: 43.5%)",
        analysis.overall.preempted_fraction() * 100.0,
        analysis.repeat_preemption_fraction() * 100.0
    );
    println!(
        "kill-based waste: {:.1} CPU-hours = {:.1}% of usage (paper: up to 35%)",
        analysis.wasted_cpu_hours,
        analysis.waste_fraction() * 100.0
    );
}
