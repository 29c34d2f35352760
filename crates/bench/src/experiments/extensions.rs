//! Extension experiments beyond the paper's evaluation: the §7 future-work
//! items implemented in this repository.

use cbp_core::PreemptionPolicy;
use cbp_faults::FaultSpec;
use cbp_storage::MediaKind;
use cbp_workload::mapreduce::MapReduceConfig;
use cbp_workload::PriorityBand;
use cbp_yarn::YarnConfig;

use crate::experiments::{google_setup, yarn_setup};
use crate::table::{fmt, Experiment, Table};
use crate::Scale;

/// MapReduce under checkpoint-based preemption: the reduce barrier
/// amplifies the cost of killing maps.
pub fn mapreduce(scale: Scale, seed: u64) -> Experiment {
    let plan = MapReduceConfig {
        jobs: scale.apply(24, 8),
        ..Default::default()
    }
    .generate(seed);
    let nodes = scale.apply(8, 2);

    let mut exp = Experiment::new(
        "(extension; paper §7 future work) two-phase MapReduce jobs: reduces \
         wait for every map, so killed maps delay whole jobs; suspend-resume \
         keeps the barrier moving",
    );

    let mut t = Table::new(
        "mapreduce",
        "MapReduce jobs under each preemption policy",
        &[
            "policy",
            "wasted core-h",
            "mean low [min]",
            "mean high [min]",
            "kills",
            "checkpoints",
        ],
    );
    for (policy, media) in [
        (PreemptionPolicy::Kill, MediaKind::Ssd),
        (PreemptionPolicy::Checkpoint, MediaKind::Ssd),
        (PreemptionPolicy::Checkpoint, MediaKind::Nvm),
        (PreemptionPolicy::Adaptive, MediaKind::Nvm),
    ] {
        let mut cfg = YarnConfig::paper_cluster(policy, media);
        cfg.nodes = nodes;
        let r = cfg.run_mapreduce(&plan).metrics;
        let label = if policy == PreemptionPolicy::Kill {
            "Kill (stock)".to_string()
        } else {
            format!("{policy}-{media}")
        };
        t.row(vec![
            label,
            fmt(r.wasted_cpu_hours(), 2),
            fmt(r.mean_response(PriorityBand::Free) / 60.0, 1),
            fmt(r.mean_response(PriorityBand::Production) / 60.0, 1),
            r.kills.to_string(),
            r.checkpoints.to_string(),
        ]);
    }
    t.note(format!(
        "{} jobs: {} maps + {} reduces on {} nodes",
        plan.workload.job_count(),
        plan.map_count(),
        plan.reduce_count(),
        nodes
    ));
    exp.push(t);

    // The NM grace-period ablation: stock YARN's short grace vs the
    // generous grace the paper's AM-side handling implies.
    let mut grace = Table::new(
        "mapreduce-grace",
        "NodeManager grace period vs checkpointing viability (Chk, MapReduce)",
        &[
            "grace",
            "medium",
            "checkpoints",
            "force-kills",
            "wasted core-h",
        ],
    );
    for (label, secs) in [("5 s (stock)", 5u64), ("10 min", 600)] {
        for media in [MediaKind::Hdd, MediaKind::Nvm] {
            let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Checkpoint, media);
            cfg.nodes = nodes;
            let r = cfg
                .with_graceful_timeout(cbp_simkit::SimDuration::from_secs(secs))
                .run_mapreduce(&plan)
                .metrics;
            grace.row(vec![
                label.to_string(),
                media.to_string(),
                r.checkpoints.to_string(),
                r.force_kills.to_string(),
                fmt(r.wasted_cpu_hours(), 2),
            ]);
        }
    }
    grace.note("a stock-YARN grace aborts slow-media dumps; fast NVM dumps mostly fit");
    exp.push(grace);

    exp
}

/// Fault-plan sensitivity: deterministic chaos (dump/restore failures,
/// corrupted images, device stall windows) against each preemption
/// policy. The recovery policies — bounded dump retries with
/// kill-fallback, restore retries with scratch-restart — keep every job
/// finishing; the table shows where their cost lands in the waste ledger
/// and whether checkpointing keeps its win as faults intensify.
pub fn faults(scale: Scale, seed: u64) -> Experiment {
    let (workload, base) = google_setup(scale, seed);
    let mut exp = Experiment::new(
        "(extension; robustness) checkpointing's CPU-waste win over kill-based \
         preemption must survive an imperfect substrate: failed dumps fall back \
         to kills, failed restores retry from surviving replicas or restart from \
         scratch, and every retry is charged to the waste ledger",
    );

    let mut t = Table::new(
        "faults",
        "Fault-plan sensitivity (trace-driven sim, HDD checkpoints)",
        &[
            "policy",
            "plan",
            "wasted core-h",
            "retry core-h",
            "dump retries",
            "dump kills",
            "scratch restarts",
            "mean resp [min]",
        ],
    );
    let plans: [(&str, Option<FaultSpec>); 3] = [
        ("off", None),
        (
            "light",
            Some(FaultSpec {
                seed,
                ..FaultSpec::light()
            }),
        ),
        (
            "heavy",
            Some(FaultSpec {
                seed,
                ..FaultSpec::heavy()
            }),
        ),
    ];
    for policy in [
        PreemptionPolicy::Kill,
        PreemptionPolicy::Checkpoint,
        PreemptionPolicy::Adaptive,
    ] {
        for (label, plan) in &plans {
            let mut cfg = base.clone().with_policy(policy);
            if let Some(spec) = plan {
                cfg = cfg.with_faults(spec.clone());
            }
            let r = cfg.run(&workload);
            let m = &r.metrics;
            assert_eq!(
                m.jobs_finished,
                workload.job_count() as u64,
                "{policy}/{label}: chaos stranded jobs"
            );
            t.row(vec![
                policy.to_string(),
                label.to_string(),
                fmt(m.wasted_cpu_hours(), 2),
                fmt(m.retry_overhead_cpu_hours, 2),
                m.dump_fail_retries.to_string(),
                m.dump_fail_kills.to_string(),
                m.scratch_restarts.to_string(),
                fmt(m.mean_response_overall() / 60.0, 1),
            ]);
        }
    }
    t.note(
        "same (workload seed, plan seed) everywhere; Kill ignores dump/restore \
         faults by construction, so its rows isolate the stall-window effect",
    );
    exp.push(t);

    // AM-unresponsiveness escalation on the protocol simulator: as the
    // probability that an AM ignores ContainerPreemptEvents rises, the
    // RM's escalation deadline converts would-be checkpoints into kills.
    let mut am = Table::new(
        "faults-am",
        "AM unresponsiveness vs RM escalation (YARN protocol sim, Chk-HDD)",
        &[
            "P(AM ignores)",
            "checkpoints",
            "kills",
            "escalations",
            "wasted core-h",
        ],
    );
    let (fb_workload, base) = yarn_setup(scale, seed);
    for p in [0.0, 0.25, 1.0] {
        let r = base
            .clone()
            .with_policy(PreemptionPolicy::Checkpoint)
            .with_faults(FaultSpec {
                seed,
                am_unresponsive_prob: p,
                ..FaultSpec::default()
            })
            .run(&fb_workload)
            .metrics;
        am.row(vec![
            format!("{p:.2}"),
            r.checkpoints.to_string(),
            r.kills.to_string(),
            r.am_escalations.to_string(),
            fmt(r.wasted_cpu_hours(), 2),
        ]);
    }
    am.note("an ignored preemption request frees its slot only via the escalation kill");
    exp.push(am);

    exp
}
