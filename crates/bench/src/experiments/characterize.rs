//! §2 characterization: Fig. 1a–1c, Table 1, Table 2.
//!
//! The paper analyzed the raw Google trace; we run the synthetic trace
//! through the kill-based scheduler and apply the same 5-second preemption
//! criterion to its task records as they are emitted.

use cbp_simkit::SimDuration;
use cbp_workload::{LatencyClass, PriorityBand};

use crate::table::{pct, Experiment, Table};
use crate::Scale;

use super::google_setup;

/// Runs the characterization and builds Fig. 1 + Tables 1–2.
pub fn fig1_tables12(scale: Scale, seed: u64) -> Experiment {
    let (workload, config) = google_setup(scale, seed);
    // Hourly buckets over the one-day trace (the paper's Fig. 1a buckets
    // its 29 days daily; one day at daily buckets has a single point).
    let (_, analysis) = config.run_analyzed(&workload, SimDuration::from_secs(3_600));

    let mut exp = Experiment::new(
        "12.4% of scheduled tasks are preempted overall; low priority ≈20%, \
         >90% of preemptions hit priorities 0–1, 43.5% of preempted tasks \
         are preempted more than once, and waste reaches ≈35% of usage",
    );

    // Fig. 1a: preemption rate over time per band.
    let mut fig1a = Table::new(
        "fig1a",
        "Preemption rate timeline (per hour, fraction of tasks scheduled in the hour)",
        &["hour", "low", "medium", "high"],
    );
    for (i, bucket) in analysis.timeline.iter().enumerate() {
        let rate = |b: (u64, u64)| {
            if b.0 == 0 {
                0.0
            } else {
                b.1 as f64 / b.0 as f64
            }
        };
        fig1a.row(vec![
            i.to_string(),
            pct(rate(bucket.per_band[0])),
            pct(rate(bucket.per_band[1])),
            pct(rate(bucket.per_band[2])),
        ]);
    }
    fig1a.note("paper: low-priority rates dominate throughout the trace");
    exp.push(fig1a);

    // Fig. 1b: share of all preemptions per priority.
    let mut fig1b = Table::new(
        "fig1b",
        "Share of all preemptions per priority level",
        &["priority", "% of all preemptions"],
    );
    let shares = analysis.preemption_share_per_priority();
    for (p, share) in shares.iter().enumerate() {
        fig1b.row(vec![p.to_string(), pct(*share)]);
    }
    let low_share = shares[0] + shares[1];
    fig1b.note(format!(
        "priorities 0-1 take {} of preemptions (paper: >90%)",
        pct(low_share)
    ));
    exp.push(fig1b);

    // Fig. 1c: preemption-count distribution.
    let mut fig1c = Table::new(
        "fig1c",
        "Distinct tasks by number of preemptions",
        &["preemptions", "tasks"],
    );
    for (i, count) in analysis.preemption_count_histogram.iter().enumerate() {
        let label = if i == 9 {
            ">=10".to_string()
        } else {
            (i + 1).to_string()
        };
        fig1c.row(vec![label, count.to_string()]);
    }
    fig1c.note(format!(
        "{} of preempted tasks preempted more than once (paper: 43.5%)",
        pct(analysis.repeat_preemption_fraction())
    ));
    exp.push(fig1c);

    // Table 1.
    let mut t1 = Table::new(
        "table1",
        "Preempted tasks per priority band",
        &[
            "priority band",
            "scheduled tasks",
            "percent preempted",
            "paper",
        ],
    );
    let paper = [
        ("Free (0-1)", "20.26%"),
        ("Middle (2-8)", "0.55%"),
        ("Production (9-11)", "1.02%"),
    ];
    for ((band, counts), (label, paper_pct)) in analysis.per_band.iter().zip(paper) {
        let _ = band;
        t1.row(vec![
            label.to_string(),
            counts.scheduled_tasks.to_string(),
            pct(counts.preempted_fraction()),
            paper_pct.to_string(),
        ]);
    }
    t1.note(format!(
        "overall preempted fraction {} (paper: 12.4%)",
        pct(analysis.overall.preempted_fraction())
    ));
    t1.note(format!(
        "kill-based waste fraction {} (paper: up to 35%)",
        pct(analysis.waste_fraction())
    ));
    exp.push(t1);

    // Table 2.
    let mut t2 = Table::new(
        "table2",
        "Preempted tasks per latency-sensitivity class",
        &[
            "latency class",
            "scheduled tasks",
            "percent preempted",
            "paper",
        ],
    );
    let paper2 = ["11.76%", "18.87%", "8.14%", "14.80%"];
    for (class, paper_pct) in LatencyClass::ALL.iter().zip(paper2) {
        let counts = analysis.per_latency[class.0 as usize];
        t2.row(vec![
            format!("{class}"),
            counts.scheduled_tasks.to_string(),
            pct(counts.preempted_fraction()),
            paper_pct.to_string(),
        ]);
    }
    t2.note("paper: even the most latency-sensitive class sees 14.8% preemption");
    exp.push(t2);

    // Context row: per-band job mix of the generated trace.
    let mut mix = Table::new(
        "trace-mix",
        "Generated trace composition (context)",
        &["band", "tasks"],
    );
    for (band, count) in workload.tasks_per_band() {
        let label = match band {
            PriorityBand::Free => "free",
            PriorityBand::Middle => "middle",
            PriorityBand::Production => "production",
        };
        mix.row(vec![label.to_string(), count.to_string()]);
    }
    exp.push(mix);

    exp
}
