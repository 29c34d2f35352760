//! Google-trace-driven simulations: Fig. 3 (kill vs checkpoint per medium)
//! and Fig. 5 (basic vs adaptive).

use cbp_core::{PreemptionPolicy, RunReport, SimConfig};
use cbp_storage::MediaKind;
use cbp_workload::PriorityBand;

use crate::table::{fmt, Experiment, Table};
use crate::Scale;

use super::google_setup;

const BANDS: [PriorityBand; 3] = [
    PriorityBand::Free,
    PriorityBand::Middle,
    PriorityBand::Production,
];

fn run(config: &SimConfig, workload: &cbp_workload::Workload) -> RunReport {
    config.run(workload)
}

/// Fig. 3: resource wastage, energy and normalized response times of
/// Kill / Chk-HDD / Chk-SSD / Chk-NVM on the one-day trace.
pub fn fig3(scale: Scale, seed: u64) -> Experiment {
    let (workload, base) = google_setup(scale, seed);
    let kill = run(&base.clone().with_policy(PreemptionPolicy::Kill), &workload);
    let chk: Vec<(MediaKind, RunReport)> = MediaKind::ALL
        .into_iter()
        .map(|media| {
            let cfg = base
                .clone()
                .with_policy(PreemptionPolicy::Checkpoint)
                .with_media(media.spec());
            (media, run(&cfg, &workload))
        })
        .collect();

    let mut exp = Experiment::new(
        "kill wastes ~35% of capacity; checkpointing reduces wastage to \
         14.6/11.1/8.5% on HDD/SSD/NVM; NVM cuts energy ~5% and reduces \
         low/medium-priority response by 74%/23% at comparable high-priority \
         performance",
    );

    let mut a = Table::new(
        "fig3a",
        "Wasted CPU capacity [core-hours]",
        &["policy", "wasted core-h", "waste fraction"],
    );
    a.row(vec![
        "Kill".into(),
        fmt(kill.metrics.wasted_cpu_hours(), 1),
        crate::table::pct(kill.metrics.waste_fraction()),
    ]);
    for (media, r) in &chk {
        a.row(vec![
            format!("Chk-{media}"),
            fmt(r.metrics.wasted_cpu_hours(), 1),
            crate::table::pct(r.metrics.waste_fraction()),
        ]);
    }
    a.note("paper fig3a: Kill ~3,400 core-h (35%); Chk reduces to 14.6%/11.1%/8.5%");
    exp.push(a);

    let mut b = Table::new("fig3b", "Energy consumption [kWh]", &["policy", "kWh"]);
    b.row(vec!["Kill".into(), fmt(kill.metrics.energy_kwh, 1)]);
    for (media, r) in &chk {
        b.row(vec![format!("Chk-{media}"), fmt(r.metrics.energy_kwh, 1)]);
    }
    b.note("paper fig3b: HDD/SSD similar to kill; NVM ~5% lower");
    exp.push(b);

    let mut c = Table::new(
        "fig3c",
        "Response time normalized to Kill, per priority band",
        &["policy", "low", "medium", "high"],
    );
    let norm = |r: &RunReport, band: PriorityBand| {
        let k = kill.metrics.mean_response(band);
        if k == 0.0 {
            0.0
        } else {
            r.metrics.mean_response(band) / k
        }
    };
    c.row(vec![
        "Kill".into(),
        "1.00".into(),
        "1.00".into(),
        "1.00".into(),
    ]);
    for (media, r) in &chk {
        c.row(vec![
            format!("Chk-{media}"),
            fmt(norm(r, BANDS[0]), 2),
            fmt(norm(r, BANDS[1]), 2),
            fmt(norm(r, BANDS[2]), 2),
        ]);
    }
    c.note("paper fig3c: NVM cuts low by 74% and medium by 23%; HDD hurts medium/high");
    exp.push(c);

    exp
}

/// Fig. 5: adaptive vs basic checkpoint-based preemption per medium,
/// response time normalized to the basic policy.
pub fn fig5(scale: Scale, seed: u64) -> Experiment {
    let (workload, base) = google_setup(scale, seed);
    let mut exp = Experiment::new(
        "adaptive cuts response times vs basic checkpointing: low priority \
         -36/-12/-3% and medium -55/-17/-8% on HDD/SSD/NVM, high priority \
         -29/-8% on HDD/SSD",
    );
    for media in MediaKind::ALL {
        let basic = run(
            &base
                .clone()
                .with_policy(PreemptionPolicy::Checkpoint)
                .with_media(media.spec()),
            &workload,
        );
        let adaptive = run(
            &base
                .clone()
                .with_policy(PreemptionPolicy::Adaptive)
                .with_media(media.spec()),
            &workload,
        );
        let mut t = Table::new(
            format!("fig5-{media}"),
            format!("{media}: response normalized to Basic"),
            &["policy", "low", "medium", "high"],
        );
        t.row(vec![
            "Basic".into(),
            "1.00".into(),
            "1.00".into(),
            "1.00".into(),
        ]);
        let norm = |band: PriorityBand| {
            let b = basic.metrics.mean_response(band);
            if b == 0.0 {
                0.0
            } else {
                adaptive.metrics.mean_response(band) / b
            }
        };
        t.row(vec![
            "Adaptive".into(),
            fmt(norm(BANDS[0]), 2),
            fmt(norm(BANDS[1]), 2),
            fmt(norm(BANDS[2]), 2),
        ]);
        t.note(format!(
            "adaptive kills {} / checkpoints {} (basic: 0 / {})",
            adaptive.metrics.kills, adaptive.metrics.checkpoints, basic.metrics.checkpoints
        ));
        exp.push(t);
    }
    exp
}
