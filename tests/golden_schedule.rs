//! Golden byte-identity replay of `ClusterSim`'s scheduling pass.
//!
//! `golden_replay.rs` pins both simulators under one scheduler setting
//! (Checkpoint policy, SSD, cost-aware victims and restores, FIFO). This
//! file pins the scheduling pass itself across every knob it branches
//! on: the Kill, Adaptive and Wait policies, the Fair queue discipline,
//! naive victim selection, local-only restore placement, node failures
//! and chaos crashes that take nodes out of the placement search, and a
//! pass with a small `max_schedule_scan` and preemption budget so the
//! scan limit and budget exhaustion both cut passes short.
//!
//! Each case hashes (FNV-1a, 64-bit) the full JSONL trace and the
//! metrics-registry JSON of one run. Any change to the pass — pruning,
//! caching, reordering — must reproduce every placement, preemption,
//! reservation cancel and RNG draw, so every byte of both.
//!
//! On a mismatch the test names every failing case and prints the
//! observed digests.

mod common;

use cbp::checkpoint::NvramSpec;
use cbp::core::{
    ClusterSim, PreemptionPolicy, QueueDiscipline, RestorePlacement, SimConfig, VictimSelection,
};
use cbp::faults::FaultSpec;
use cbp::simkit::SimDuration;
use cbp::storage::MediaKind;
use cbp::telemetry::JsonlTracer;
use cbp::workload::google::GoogleTraceConfig;

use common::{fnv1a, SharedBuf};

/// One golden case: a name, a config builder and its two digests (trace,
/// registry).
struct Case {
    name: &'static str,
    config: fn() -> SimConfig,
    golden: [u64; 2],
}

fn base(policy: PreemptionPolicy, media: MediaKind) -> SimConfig {
    SimConfig::trace_sim(policy, media).with_nodes(5)
}

const CASES: &[Case] = &[
    Case {
        name: "kill",
        config: || base(PreemptionPolicy::Kill, MediaKind::Hdd),
        golden: [0x5e827b605643d040, 0x50abc9ab08c7a089],
    },
    Case {
        name: "adaptive",
        config: || base(PreemptionPolicy::Adaptive, MediaKind::Hdd),
        golden: [0xd67b2d669b19d7c9, 0xd93b623f3ef53ab0],
    },
    Case {
        name: "wait",
        config: || base(PreemptionPolicy::Wait, MediaKind::Ssd),
        golden: [0x139f39182a55226a, 0xcf4338de6d07cff5],
    },
    Case {
        name: "fair",
        config: || {
            base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_queue_discipline(QueueDiscipline::Fair)
        },
        golden: [0x9c72d5b426ae6c9c, 0xcd623ead76ac394b],
    },
    Case {
        name: "naive-victims",
        config: || {
            base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_victim_selection(VictimSelection::Naive)
        },
        golden: [0x2949ba965eab47e4, 0x0d97cdfabdf1c4d6],
    },
    Case {
        name: "local-only-restore",
        config: || {
            base(PreemptionPolicy::Checkpoint, MediaKind::Hdd)
                .with_restore_placement(RestorePlacement::LocalOnly)
        },
        golden: [0x548799a96b2f60a4, 0xe3221d592ae0b5ba],
    },
    Case {
        name: "tight-scan-adaptive",
        config: || {
            let mut cfg = base(PreemptionPolicy::Adaptive, MediaKind::Hdd);
            cfg.max_schedule_scan = 40;
            cfg.preempt_budget_per_pass = 3;
            cfg
        },
        golden: [0xbce4aabe9d8d7ba4, 0x376489b9219c23cb],
    },
    Case {
        name: "tight-scan-kill-fair",
        config: || {
            let mut cfg = base(PreemptionPolicy::Kill, MediaKind::Ssd)
                .with_queue_discipline(QueueDiscipline::Fair);
            cfg.max_schedule_scan = 40;
            cfg.preempt_budget_per_pass = 3;
            cfg
        },
        golden: [0x5a689b7490d2cc63, 0x6e64cdef83e5e98b],
    },
    Case {
        name: "node-failures",
        config: || {
            base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_failures(SimDuration::from_secs(1_800), SimDuration::from_secs(300))
        },
        golden: [0x23d077c09dacc4c8, 0x2166688f8f6bd948],
    },
    Case {
        name: "chaos-kill",
        config: || {
            base(PreemptionPolicy::Kill, MediaKind::Hdd)
                .with_faults(FaultSpec::parse("chaos,seed=11").expect("plan parses"))
        },
        golden: [0xcd113e6b53f2d624, 0x517bdf79d8b57b7f],
    },
    Case {
        name: "chaos-adaptive-local-fs",
        config: || {
            let mut cfg = base(PreemptionPolicy::Adaptive, MediaKind::Hdd)
                .with_faults(FaultSpec::parse("chaos,seed=11").expect("plan parses"));
            cfg.via_dfs = false;
            cfg
        },
        golden: [0x0f1fcaa8f620f415, 0x64b05a973c8e3bec],
    },
    Case {
        name: "adaptive-nvram",
        config: || {
            base(PreemptionPolicy::Adaptive, MediaKind::Nvm).with_nvram(NvramSpec::default())
        },
        golden: [0xce873a02ed4407ea, 0x3b1ade7f17942e53],
    },
];

/// Runs `case` and returns its two digests.
fn digests(case: &Case) -> [u64; 2] {
    let w = GoogleTraceConfig::small(80.0).generate(9);
    let buf = SharedBuf::default();
    let mut sim = ClusterSim::new((case.config)(), w.clone());
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let report = sim.run();
    assert_eq!(
        report.metrics.jobs_finished,
        w.job_count() as u64,
        "{}: run must finish every job",
        case.name
    );
    let trace = fnv1a(&buf.0.borrow());
    let registry = fnv1a(report.telemetry.registry.to_json().as_bytes());
    [trace, registry]
}

#[test]
fn scheduling_pass_replays_golden_bytes() {
    let mismatches: Vec<String> = CASES
        .iter()
        .filter_map(|case| {
            let got = digests(case);
            (got != case.golden)
                .then(|| format!("{}: got [{:#018x}, {:#018x}]", case.name, got[0], got[1]))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "golden digests differ (trace, registry):\n{}",
        mismatches.join("\n")
    );
}
