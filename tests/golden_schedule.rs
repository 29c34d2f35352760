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
//! Each case also pins the pass's exact work counters (`PassWork`): keys
//! walked, searches, nodes scanned and ranked, victims costed, front
//! rebuilds. A change that does the same scheduling with less work moves
//! them and re-pins them here, with its reason; a change that does more
//! work than it should fails here even when every byte of output holds.
//!
//! On a mismatch the test names every failing case and prints the
//! observed digests and counters.

mod common;

use cbp::checkpoint::NvramSpec;
use cbp::core::{
    ClusterSim, PassWork, PreemptionPolicy, QueueDiscipline, RestorePlacement, SimConfig,
    VictimSelection,
};
use cbp::faults::FaultSpec;
use cbp::simkit::SimDuration;
use cbp::storage::MediaKind;
use cbp::telemetry::JsonlTracer;
use cbp::workload::google::GoogleTraceConfig;

use common::{fnv1a, SharedBuf};

/// One golden case: a name, a config builder, its two digests (trace,
/// registry) and its pass work (the values of `PassWork::fields`, in
/// order).
struct Case {
    name: &'static str,
    config: fn() -> SimConfig,
    golden: [u64; 2],
    work: [u64; 11],
}

fn base(policy: PreemptionPolicy, media: MediaKind) -> SimConfig {
    SimConfig::trace_sim(policy, media).with_nodes(5)
}

const CASES: &[Case] = &[
    Case {
        name: "kill",
        config: || base(PreemptionPolicy::Kill, MediaKind::Hdd),
        golden: [0x5e827b605643d040, 0x50abc9ab08c7a089],
        work: [
            692, 41411, 5123, 36288, 0, 3837, 500, 211, 1162, 3025, 15125,
        ],
    },
    Case {
        name: "adaptive",
        config: || base(PreemptionPolicy::Adaptive, MediaKind::Hdd),
        golden: [0xd67b2d669b19d7c9, 0xd93b623f3ef53ab0],
        work: [
            818, 59812, 7612, 52200, 823, 5503, 600, 259, 1600, 3597, 17985,
        ],
    },
    Case {
        name: "wait",
        config: || base(PreemptionPolicy::Wait, MediaKind::Ssd),
        golden: [0x139f39182a55226a, 0xcf4338de6d07cff5],
        work: [692, 32555, 2707, 29848, 0, 0, 0, 0, 0, 1297, 6485],
    },
    Case {
        name: "fair",
        config: || {
            base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_queue_discipline(QueueDiscipline::Fair)
        },
        golden: [0x9c72d5b426ae6c9c, 0xcd623ead76ac394b],
        work: [
            949, 82623, 8525, 74098, 3832, 6719, 665, 331, 1900, 4020, 20100,
        ],
    },
    Case {
        name: "naive-victims",
        config: || {
            base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_victim_selection(VictimSelection::Naive)
        },
        golden: [0x2949ba965eab47e4, 0x0d97cdfabdf1c4d6],
        work: [
            955, 81223, 9011, 72212, 3561, 7277, 635, 311, 1983, 4074, 20370,
        ],
    },
    Case {
        name: "local-only-restore",
        config: || {
            base(PreemptionPolicy::Checkpoint, MediaKind::Hdd)
                .with_restore_placement(RestorePlacement::LocalOnly)
        },
        golden: [0x548799a96b2f60a4, 0xe3221d592ae0b5ba],
        work: [
            856, 63879, 17274, 46605, 0, 12303, 1305, 241, 1570, 3615, 18075,
        ],
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
        work: [
            750, 14626, 3931, 10695, 67, 337, 235, 169, 1123, 2438, 12190,
        ],
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
        work: [692, 12520, 3602, 8918, 0, 350, 280, 139, 953, 2344, 11720],
    },
    Case {
        name: "node-failures",
        config: || {
            base(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_failures(SimDuration::from_secs(1_800), SimDuration::from_secs(300))
        },
        golden: [0x23d077c09dacc4c8, 0x2166688f8f6bd948],
        work: [
            1217, 115970, 12535, 103435, 6781, 10000, 908, 497, 3970, 5668, 26034,
        ],
    },
    Case {
        name: "chaos-kill",
        config: || {
            base(PreemptionPolicy::Kill, MediaKind::Hdd)
                .with_faults(FaultSpec::parse("chaos,seed=11").expect("plan parses"))
        },
        golden: [0xcd113e6b53f2d624, 0x517bdf79d8b57b7f],
        work: [
            696, 42038, 5892, 36146, 0, 4626, 572, 256, 1553, 3242, 16081,
        ],
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
        work: [
            722, 45255, 8518, 36737, 0, 5222, 686, 225, 1428, 3221, 15960,
        ],
    },
    Case {
        name: "adaptive-nvram",
        config: || {
            base(PreemptionPolicy::Adaptive, MediaKind::Nvm).with_nvram(NvramSpec::default())
        },
        golden: [0xce873a02ed4407ea, 0x3b1ade7f17942e53],
        work: [
            1316, 139017, 33446, 105571, 0, 16221, 11595, 752, 2719, 6671, 33355,
        ],
    },
];

/// Runs `case` and returns its two digests and its pass work.
fn digests(case: &Case) -> ([u64; 2], [u64; 11]) {
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
    let work = report
        .telemetry
        .pass_work
        .expect("ClusterSim counts its pass work");
    ([trace, registry], work.fields().map(|(_, v)| v))
}

#[test]
fn scheduling_pass_replays_golden_bytes() {
    let mismatches: Vec<String> = CASES
        .iter()
        .filter_map(|case| {
            let (got, work) = digests(case);
            (got != case.golden || work != case.work).then(|| {
                format!(
                    "{}: got [{:#018x}, {:#018x}], work {work:?}",
                    case.name, got[0], got[1]
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "golden digests or pass work differ (trace, registry; {:?}):\n{}",
        PassWork::default().fields().map(|(k, _)| k),
        mismatches.join("\n")
    );
}
