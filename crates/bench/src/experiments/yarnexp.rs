//! §5 YARN experiments: Figs. 8–12.

use cbp_core::{PreemptionPolicy, RunMetrics};
use cbp_storage::MediaKind;
use cbp_workload::{PriorityBand, Workload};
use cbp_yarn::YarnConfig;

use super::yarn_setup;
use crate::table::{fmt, pct, Experiment, Table};
use crate::Scale;

fn run(
    config: &YarnConfig,
    w: &Workload,
    policy: PreemptionPolicy,
    media: MediaKind,
) -> RunMetrics {
    config
        .clone()
        .with_policy(policy)
        .with_media_kind(media)
        .run(w)
        .metrics
}

/// Fig. 8: wastage, energy and mean response times of Kill vs
/// Chk-{HDD,SSD,NVM}.
pub fn fig8(scale: Scale, seed: u64) -> Experiment {
    let (w, base) = yarn_setup(scale, seed);
    let kill = run(&base, &w, PreemptionPolicy::Kill, MediaKind::Ssd);
    let chk: Vec<(MediaKind, RunMetrics)> = MediaKind::ALL
        .into_iter()
        .map(|m| (m, run(&base, &w, PreemptionPolicy::Checkpoint, m)))
        .collect();

    let mut exp = Experiment::new(
        "stock YARN wastes ~28% of CPU time; checkpointing reduces wastage \
         by 50/65/67% and energy by 21/29/34% on HDD/SSD/NVM; NVM cuts \
         low-priority response 61% at comparable high-priority response",
    );

    let mut a = Table::new(
        "fig8a",
        "CPU wastage [core-hours]",
        &[
            "policy",
            "wasted core-h",
            "waste fraction",
            "reduction vs kill",
        ],
    );
    a.row(vec![
        "Kill".into(),
        fmt(kill.wasted_cpu_hours(), 2),
        pct(kill.waste_fraction()),
        "-".into(),
    ]);
    for (m, r) in &chk {
        let reduction = 1.0 - r.wasted_cpu_hours() / kill.wasted_cpu_hours().max(1e-9);
        a.row(vec![
            format!("Chk-{m}"),
            fmt(r.wasted_cpu_hours(), 2),
            pct(r.waste_fraction()),
            pct(reduction),
        ]);
    }
    a.note("paper fig8a: reductions of 50% (HDD), 65% (SSD), 67% (NVM)");
    exp.push(a);

    let mut b = Table::new(
        "fig8b",
        "Energy [kWh]",
        &["policy", "kWh", "reduction vs kill"],
    );
    b.row(vec!["Kill".into(), fmt(kill.energy_kwh, 2), "-".into()]);
    for (m, r) in &chk {
        b.row(vec![
            format!("Chk-{m}"),
            fmt(r.energy_kwh, 2),
            pct(1.0 - r.energy_kwh / kill.energy_kwh.max(1e-9)),
        ]);
    }
    b.note("paper fig8b: reductions of 21% (HDD), 29% (SSD), 34% (NVM)");
    exp.push(b);

    let mut c = Table::new(
        "fig8c",
        "Mean job response time [min]",
        &["policy", "low priority", "high priority"],
    );
    c.row(vec![
        "Kill".into(),
        fmt(kill.mean_response(PriorityBand::Free) / 60.0, 1),
        fmt(kill.mean_response(PriorityBand::Production) / 60.0, 1),
    ]);
    for (m, r) in &chk {
        c.row(vec![
            format!("Chk-{m}"),
            fmt(r.mean_response(PriorityBand::Free) / 60.0, 1),
            fmt(r.mean_response(PriorityBand::Production) / 60.0, 1),
        ]);
    }
    c.note("paper fig8c: low-priority -18/-53/-61% on HDD/SSD/NVM; high priority worse on HDD/SSD, comparable on NVM");
    exp.push(c);

    exp
}

/// Fig. 9: response-time CDF per policy.
pub fn fig9(scale: Scale, seed: u64) -> Experiment {
    let (w, base) = yarn_setup(scale, seed);
    let mut exp = Experiment::new(
        "the whole response-time CDF improves under checkpoint-based \
         preemption, NVM most of all",
    );
    let mut t = Table::new(
        "fig9",
        "Response-time percentiles [min]",
        &["percentile", "Kill", "Chk-HDD", "Chk-SSD", "Chk-NVM"],
    );
    let mut samples: Vec<cbp_simkit::stats::Samples> = Vec::new();
    samples.push(run(&base, &w, PreemptionPolicy::Kill, MediaKind::Ssd).all_responses());
    for m in MediaKind::ALL {
        samples.push(run(&base, &w, PreemptionPolicy::Checkpoint, m).all_responses());
    }
    for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
        let mut row = vec![format!("p{p:.0}")];
        for s in samples.iter_mut() {
            row.push(fmt(s.percentile(p).unwrap_or(0.0) / 60.0, 1));
        }
        t.row(row);
    }
    exp.push(t);
    exp
}

/// Fig. 10: basic vs adaptive mean responses per medium.
pub fn fig10(scale: Scale, seed: u64) -> Experiment {
    let (w, base) = yarn_setup(scale, seed);
    let mut exp = Experiment::new(
        "adaptive reduces low-priority response by 28/16/20% and \
         high-priority by 7/8/14% over basic checkpointing on HDD/SSD/NVM",
    );
    for m in MediaKind::ALL {
        let basic = run(&base, &w, PreemptionPolicy::Checkpoint, m);
        let adaptive = run(&base, &w, PreemptionPolicy::Adaptive, m);
        let mut t = Table::new(
            format!("fig10-{m}"),
            format!("{m}: mean response [min]"),
            &[
                "policy",
                "low priority",
                "high priority",
                "kills",
                "checkpoints",
            ],
        );
        for (label, r) in [("Basic", &basic), ("Adaptive", &adaptive)] {
            t.row(vec![
                label.into(),
                fmt(r.mean_response(PriorityBand::Free) / 60.0, 1),
                fmt(r.mean_response(PriorityBand::Production) / 60.0, 1),
                r.kills.to_string(),
                r.checkpoints.to_string(),
            ]);
        }
        exp.push(t);
    }
    exp
}

/// Fig. 11: response CDFs of kill / basic / adaptive per medium.
pub fn fig11(scale: Scale, seed: u64) -> Experiment {
    let (w, base) = yarn_setup(scale, seed);
    let mut exp =
        Experiment::new("adaptive improves the whole response CDF over basic on every medium");
    for m in MediaKind::ALL {
        let mut kill = run(&base, &w, PreemptionPolicy::Kill, m).all_responses();
        let mut basic = run(&base, &w, PreemptionPolicy::Checkpoint, m).all_responses();
        let mut adaptive = run(&base, &w, PreemptionPolicy::Adaptive, m).all_responses();
        let mut t = Table::new(
            format!("fig11-{m}"),
            format!("{m}: response percentiles [min]"),
            &["percentile", "Kill", "Basic", "Adaptive"],
        );
        for p in [25.0, 50.0, 75.0, 90.0, 99.0] {
            t.row(vec![
                format!("p{p:.0}"),
                fmt(kill.percentile(p).unwrap_or(0.0) / 60.0, 1),
                fmt(basic.percentile(p).unwrap_or(0.0) / 60.0, 1),
                fmt(adaptive.percentile(p).unwrap_or(0.0) / 60.0, 1),
            ]);
        }
        exp.push(t);
    }
    exp
}

/// Fig. 12: checkpoint CPU and I/O overhead, basic vs adaptive.
pub fn fig12(scale: Scale, seed: u64) -> Experiment {
    let (w, base) = yarn_setup(scale, seed);
    let mut exp = Experiment::new(
        "basic checkpointing costs 17/4/0.4% CPU overhead on HDD/SSD/NVM \
         (adaptive: 5.1/2.3/~0%) and 37/14/2.2% worst-case I/O bandwidth \
         (adaptive: 15.7/8.3/negligible); checkpoints use 5-10% of storage",
    );
    let mut cpu = Table::new(
        "fig12a",
        "Checkpoint/restore CPU overhead [% of consumed CPU]",
        &["medium", "Basic", "Adaptive"],
    );
    let mut io = Table::new(
        "fig12b",
        "Storage-device busy fraction (worst-case I/O overhead)",
        &["medium", "Basic", "Adaptive"],
    );
    let mut storage = Table::new(
        "fig12-storage",
        "Peak checkpoint storage use [fraction of capacity]",
        &["medium", "Basic", "Adaptive"],
    );
    for m in MediaKind::ALL {
        let basic = run(&base, &w, PreemptionPolicy::Checkpoint, m);
        let adaptive = run(&base, &w, PreemptionPolicy::Adaptive, m);
        cpu.row(vec![
            m.to_string(),
            pct(basic.cpu_overhead_fraction()),
            pct(adaptive.cpu_overhead_fraction()),
        ]);
        io.row(vec![
            m.to_string(),
            pct(basic.io_overhead_fraction),
            pct(adaptive.io_overhead_fraction),
        ]);
        storage.row(vec![
            m.to_string(),
            pct(basic.storage_peak_fraction),
            pct(adaptive.storage_peak_fraction),
        ]);
    }
    exp.push(cpu);
    exp.push(io);
    exp.push(storage);
    exp
}
