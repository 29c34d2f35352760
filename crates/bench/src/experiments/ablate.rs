//! Ablations of the design choices DESIGN.md calls out: incremental
//! checkpointing, cost-aware victim selection, and cost-aware restore
//! placement.

use cbp_core::{PreemptionPolicy, QueueDiscipline, RestorePlacement, SimConfig, VictimSelection};
use cbp_simkit::SimDuration;
use cbp_storage::MediaKind;
use cbp_workload::PriorityBand;

use crate::table::{fmt, Experiment, Table};
use crate::Scale;

use super::google_setup;

/// Runs all three ablations on the (scaled) one-day trace.
pub fn ablations(scale: Scale, seed: u64) -> Experiment {
    let (workload, base) = google_setup(scale, seed);
    let base = base
        .with_policy(PreemptionPolicy::Checkpoint)
        .with_media(MediaKind::Hdd.spec());

    let mut exp = Experiment::new(
        "each adaptive-machinery piece carries its weight: incremental dumps \
         shrink checkpoint overhead, cost-aware eviction picks cheaper \
         victims, and cost-aware restore placement unblocks suspended tasks",
    );

    let cfg = |f: &dyn Fn(SimConfig) -> SimConfig| f(base.clone()).run(&workload);

    // (a) Incremental checkpointing.
    {
        let on = cfg(&|c| c.with_incremental(true));
        let off = cfg(&|c| c.with_incremental(false));
        let mut t = Table::new(
            "ablate-incremental",
            "Incremental (soft-dirty) checkpointing, Chk-HDD",
            &[
                "variant",
                "dump overhead [core-h]",
                "incremental dumps",
                "mean response low [s]",
            ],
        );
        for (label, r) in [("on", &on), ("off", &off)] {
            t.row(vec![
                label.into(),
                fmt(r.metrics.dump_overhead_cpu_hours, 2),
                r.metrics.incremental_checkpoints.to_string(),
                fmt(r.metrics.mean_response(PriorityBand::Free), 0),
            ]);
        }
        exp.push(t);
    }

    // (b) Victim selection.
    {
        let aware = cfg(&|c| c.with_victim_selection(VictimSelection::CostAware));
        let naive = cfg(&|c| c.with_victim_selection(VictimSelection::Naive));
        let mut t = Table::new(
            "ablate-victims",
            "Victim selection under checkpoint-based preemption, Chk-HDD",
            &[
                "variant",
                "wasted core-h",
                "checkpoints",
                "mean response high [s]",
            ],
        );
        for (label, r) in [("cost-aware", &aware), ("naive", &naive)] {
            t.row(vec![
                label.into(),
                fmt(r.metrics.wasted_cpu_hours(), 2),
                r.metrics.checkpoints.to_string(),
                fmt(r.metrics.mean_response(PriorityBand::Production), 0),
            ]);
        }
        exp.push(t);
    }

    // (c') NVM: PMFS file-system path vs NVRAM persistent-memory path
    // (the paper's §3.2.3 alternative / §7 future work).
    {
        let nvm_base = base.clone().with_media(MediaKind::Nvm.spec());
        let pmfs = nvm_base.clone().run(&workload);
        let nvram = nvm_base
            .with_nvram(cbp_checkpoint::NvramSpec::default())
            .run(&workload);
        let mut t = Table::new(
            "ablate-nvram",
            "NVM as file system (PMFS) vs NVM as persistent memory (NVRAM)",
            &[
                "variant",
                "chk overhead [core-h]",
                "restores",
                "remote restores",
                "device busy",
            ],
        );
        for (label, r) in [("PMFS files", &pmfs), ("NVRAM shadow", &nvram)] {
            t.row(vec![
                label.into(),
                fmt(
                    r.metrics.dump_overhead_cpu_hours + r.metrics.restore_overhead_cpu_hours,
                    3,
                ),
                r.metrics.restores.to_string(),
                r.metrics.remote_restores.to_string(),
                crate::table::pct(r.metrics.io_overhead_fraction),
            ]);
        }
        t.note(
            "NVRAM avoids serialization and lazy-restores from the local \
             mirror, at the cost of losing remote resumption",
        );
        exp.push(t);
    }

    // (c'') Checkpoint-image compression.
    {
        let plain = cfg(&|c| c);
        let lz4 = cfg(&|c| c.with_compression(cbp_checkpoint::CompressionSpec::lz4()));
        let zstd = cfg(&|c| c.with_compression(cbp_checkpoint::CompressionSpec::zstd()));
        let mut t = Table::new(
            "ablate-compression",
            "Checkpoint-image stream compression, Chk-HDD",
            &[
                "variant",
                "chk overhead [core-h]",
                "mean response low [s]",
                "peak storage",
            ],
        );
        for (label, r) in [("none", &plain), ("lz4", &lz4), ("zstd", &zstd)] {
            t.row(vec![
                label.into(),
                fmt(
                    r.metrics.dump_overhead_cpu_hours + r.metrics.restore_overhead_cpu_hours,
                    2,
                ),
                fmt(r.metrics.mean_response(PriorityBand::Free), 0),
                crate::table::pct(r.metrics.storage_peak_fraction),
            ]);
        }
        t.note("compression trades compressor throughput for smaller, faster images on slow media");
        exp.push(t);
    }

    // (d) Node failures: HDFS replication keeps checkpoint images alive.
    {
        let flaky = base
            .clone()
            .with_failures(SimDuration::from_secs(3_600), SimDuration::from_secs(300));
        let kill = flaky
            .clone()
            .with_policy(PreemptionPolicy::Kill)
            .run(&workload);
        let chk = flaky.run(&workload);
        let mut t = Table::new(
            "ablate-failures",
            "Node failures (MTBF 1 h/node): kill vs checkpoint, Chk-HDD",
            &[
                "variant",
                "failure evictions",
                "images lost",
                "lost CPU [core-h]",
                "jobs finished",
            ],
        );
        for (label, r) in [("Kill", &kill), ("Checkpoint+HDFS", &chk)] {
            t.row(vec![
                label.into(),
                r.metrics.failure_evictions.to_string(),
                r.metrics.images_lost_to_failures.to_string(),
                fmt(r.metrics.kill_lost_cpu_hours, 2),
                r.metrics.jobs_finished.to_string(),
            ]);
        }
        t.note("replicated checkpoints turn a machine failure into a resume, not a rerun");
        exp.push(t);
    }

    // (e) Queue discipline within a priority.
    {
        let fifo = cfg(&|c| c.with_queue_discipline(QueueDiscipline::Fifo));
        let fair = cfg(&|c| c.with_queue_discipline(QueueDiscipline::Fair));
        let mut t = Table::new(
            "ablate-discipline",
            "Intra-priority queue discipline, Chk-HDD",
            &[
                "variant",
                "mean response low [s]",
                "mean response overall [s]",
            ],
        );
        for (label, r) in [("fifo", &fifo), ("fair", &fair)] {
            t.row(vec![
                label.into(),
                fmt(r.metrics.mean_response(PriorityBand::Free), 0),
                fmt(r.metrics.mean_response_overall(), 0),
            ]);
        }
        exp.push(t);
    }

    // (c) Restore placement.
    {
        let aware = cfg(&|c| c.with_restore_placement(RestorePlacement::CostAware));
        let local = cfg(&|c| c.with_restore_placement(RestorePlacement::LocalOnly));
        let mut t = Table::new(
            "ablate-restore",
            "Restore placement (Algorithm 2), Chk-HDD",
            &[
                "variant",
                "remote restores",
                "mean response low [s]",
                "makespan [s]",
            ],
        );
        for (label, r) in [("cost-aware", &aware), ("local-only", &local)] {
            t.row(vec![
                label.into(),
                r.metrics.remote_restores.to_string(),
                fmt(r.metrics.mean_response(PriorityBand::Free), 0),
                fmt(r.metrics.makespan_secs, 0),
            ]);
        }
        exp.push(t);
    }

    exp
}
