//! Golden byte-identity replay for both simulators.
//!
//! Each case runs one small seeded workload through `ClusterSim` and
//! through `YarnSim` under one fault plan and hashes (FNV-1a, 64-bit) the
//! full JSONL trace and the metrics-registry JSON of each run. The
//! digests were recorded before the two simulators' checkpoint paths
//! were merged into one module and are pinned: a refactor of the checkpoint path must reproduce
//! every byte of every trace and every registry value, including the
//! lifecycle (GC → evict → spill → kill) and integrity (refetch →
//! truncate → scratch) ladders and the `lifecycle = false` /
//! `resume = false` ablations. Most cases run the trace simulator under
//! the Checkpoint policy and the YARN analog under Algorithm 1 with
//! incremental dumps; three chaos cases run both under Kill, under
//! Checkpoint, and under Algorithm 1 with full dumps, so every arm of the
//! preemption decision and of the dump-size estimate is pinned on both.
//! Debug builds additionally hard-assert the image-ledger conservation
//! invariant after every event. Every run also checks that its
//! finished-task, checkpoint and restore counters equal the counts of the
//! matching records in its trace.
//!
//! On a mismatch the test names every failing case and prints the
//! observed digests.

mod common;

use cbp::checkpoint::NvramSpec;
use cbp::core::{ClusterSim, PreemptionPolicy, SimConfig};
use cbp::faults::FaultSpec;
use cbp::storage::MediaKind;
use cbp::telemetry::{JsonlReader, JsonlTracer, MetricsRegistry, TraceRecord};
use cbp::workload::facebook::FacebookConfig;
use cbp::workload::google::GoogleTraceConfig;
use cbp::yarn::{YarnConfig, YarnSim};

use common::{fnv1a, SharedBuf};

/// How the trace-driven simulator stores checkpoints in a case. The
/// YARN analog always writes through HDFS.
#[derive(Clone, Copy)]
enum Store {
    /// CRIU images through HDFS (the trace-study default).
    Dfs,
    /// CRIU images on each node's local file system only.
    LocalFs,
    /// NVRAM mirrors (the §3.2.3 backend).
    Nvram,
}

/// One golden case: a fault plan, the lifecycle ablation switch, the
/// preemption policies, the incremental-dump switch, the cluster sizes
/// and the trace simulator's checkpoint store.
struct Case {
    name: &'static str,
    plan: &'static str,
    lifecycle: bool,
    /// Preemption policies: trace simulator, YARN analog.
    policies: [PreemptionPolicy; 2],
    /// Incremental dumps on both simulators.
    incremental: bool,
    /// Node counts: trace simulator, YARN analog.
    nodes: [usize; 2],
    store: Store,
    /// Digests: cluster trace, cluster registry, yarn trace, yarn registry.
    golden: [u64; 4],
}

const PRESSURE: &str = "pressure,cap=0.01,leak=0.6,leak-window=300,seed=11";

/// The policies of every case but the policy cases: the trace simulator
/// always checkpoints, the YARN analog runs Algorithm 1.
const CHK_ADAPTIVE: [PreemptionPolicy; 2] =
    [PreemptionPolicy::Checkpoint, PreemptionPolicy::Adaptive];

const CASES: &[Case] = &[
    Case {
        name: "off",
        plan: "off",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0xbda4445e1bce42fd,
            0x69efb84ae242d78d,
            0x161b2b0dd7932029,
            0xe55d4b2499323dab,
        ],
    },
    Case {
        name: "light",
        plan: "light,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0x4f9cbe3ef9d4b02a,
            0xe73d12c89f2ad589,
            0x99b7379d6df86466,
            0xc497dd3ab52b9a70,
        ],
    },
    Case {
        name: "heavy",
        plan: "heavy,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0x68b31cb412ba92ad,
            0x54e76f9f03ce8f4b,
            0xc3672fe368efeda6,
            0xf1797f99e17bdb4f,
        ],
    },
    Case {
        name: "chaos",
        plan: "chaos,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0xe4ba231b7ff33626,
            0xeadb4508737bcec7,
            0xb6901fe940fbcbff,
            0xbba6ff1cc7ee8a46,
        ],
    },
    Case {
        // Two-node racks that crash whole lose every replica of some
        // blocks: the lost-chain path runs on both simulators.
        name: "chaos-lost-chains",
        plan: "chaos,rack-size=2,rack=0.3,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [2, 2],
        store: Store::Dfs,
        golden: [
            0x6aa46df3bf775179,
            0x74e73aad010d9f48,
            0xc87ec521dacc3a87,
            0x85d3c4ee22b066de,
        ],
    },
    Case {
        // The other chaos cases never partition the trace simulator's
        // cluster: this one starts and heals rack partitions on both
        // simulators, the trace simulator's last heal coming when the
        // workload drains.
        name: "chaos-partition",
        plan: "chaos,partition=1,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0x4fc9e9615effcd13,
            0xd08f5eb0ab053b99,
            0x0bf8a2ea89817e18,
            0xf584d49f232b0dd0,
        ],
    },
    Case {
        name: "pressure",
        plan: PRESSURE,
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0x057113946e733dc6,
            0x97dd3c6cab055888,
            0x01d337ee9ec4385d,
            0x38ccf9ca4106030f,
        ],
    },
    Case {
        name: "pressure-local-fs",
        plan: PRESSURE,
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::LocalFs,
        golden: [
            0x177d43bf2bcc5740,
            0x4f8dbd17cab5b3f3,
            0x01d337ee9ec4385d,
            0x38ccf9ca4106030f,
        ],
    },
    Case {
        name: "heavy-corrupt",
        plan: "heavy,corrupt=0.3,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0x4740b6cbb1ce3081,
            0x3d8f12d823c711b9,
            0xa41ef0400455a458,
            0x1874239076fb5459,
        ],
    },
    Case {
        name: "heavy-corrupt-local-fs",
        plan: "heavy,corrupt=0.3,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::LocalFs,
        golden: [
            0x5b5a48040bcde053,
            0x6e6e2ac04f1f1e04,
            0xa41ef0400455a458,
            0x1874239076fb5459,
        ],
    },
    Case {
        name: "heavy-nvram",
        plan: "heavy,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Nvram,
        golden: [
            0xd9eee67b7dea7b64,
            0xacfd768f18dc53d0,
            0xc3672fe368efeda6,
            0xf1797f99e17bdb4f,
        ],
    },
    Case {
        name: "pressure-no-lifecycle",
        plan: PRESSURE,
        lifecycle: false,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0x28a4d6906c12e1fb,
            0xe49051a75e725f78,
            0xeb88f2a77be4ec88,
            0x1fda542e08b7bb1c,
        ],
    },
    Case {
        name: "heavy-corrupt-no-resume",
        plan: "heavy,corrupt=0.3,resume=false,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0xd82ddcea1ee477fd,
            0x1d7f740ceaf3995b,
            0x886b022b8ed99511,
            0xaecd36fd0c1bc4d6,
        ],
    },
    Case {
        // Both simulators kill every victim.
        name: "chaos-kill",
        plan: "chaos,seed=11",
        lifecycle: true,
        policies: [PreemptionPolicy::Kill, PreemptionPolicy::Kill],
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0xcd113e6b53f2d624,
            0x517bdf79d8b57b7f,
            0xe66270e3b4812af5,
            0xc31c792185e351d1,
        ],
    },
    Case {
        // Both simulators checkpoint every victim (the trace simulator's
        // run is the "chaos" case's), and the YARN analog's breaker
        // opens: its breaker-open kills run too.
        name: "chaos-checkpoint",
        plan: "chaos,seed=11",
        lifecycle: true,
        policies: [PreemptionPolicy::Checkpoint, PreemptionPolicy::Checkpoint],
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0xe4ba231b7ff33626,
            0xeadb4508737bcec7,
            0x3c82b772dca8adf4,
            0x45e76064d918b6df,
        ],
    },
    Case {
        // Algorithm 1 on both simulators with every dump full: the size
        // estimates take their non-incremental branch, and both
        // simulators' breakers open under it.
        name: "chaos-adaptive-full-dumps",
        plan: "chaos,seed=11",
        lifecycle: true,
        policies: [PreemptionPolicy::Adaptive, PreemptionPolicy::Adaptive],
        incremental: false,
        nodes: [5, 4],
        store: Store::Dfs,
        golden: [
            0x3d2e0fac92f7426c,
            0xa1171cfdee357497,
            0xaa5a83e26dcb1d63,
            0xc7b4191d0aba8f4d,
        ],
    },
];

/// Runs both simulators for `case` and returns its four digests.
fn digests(case: &Case) -> [u64; 4] {
    let spec = FaultSpec::parse(case.plan).expect("golden fault plans parse");

    let w = GoogleTraceConfig::small(80.0).generate(9);
    let mut cfg = SimConfig::trace_sim(case.policies[0], MediaKind::Ssd)
        .with_nodes(case.nodes[0])
        .with_lifecycle(case.lifecycle)
        .with_incremental(case.incremental)
        .with_faults(spec.clone());
    match case.store {
        Store::Dfs => {}
        Store::LocalFs => cfg.via_dfs = false,
        Store::Nvram => cfg = cfg.with_nvram(NvramSpec::default()),
    }
    let buf = SharedBuf::default();
    let mut sim = ClusterSim::new(cfg, w.clone());
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let report = sim.run();
    assert_eq!(
        report.metrics.jobs_finished,
        w.job_count() as u64,
        "{}: cluster run must finish every job",
        case.name
    );
    let cluster_trace = fnv1a(&buf.0.borrow());
    let cluster_reg = fnv1a(report.telemetry.registry.to_json().as_bytes());
    check_fold(
        case.name,
        "cluster",
        &buf.0.borrow(),
        &report.telemetry.registry,
    );

    // The giant production job is 1.3x the cluster's container count, as
    // in the §5.3.3 setup, so it preempts default-queue work.
    let fw = FacebookConfig {
        giant_job_tasks: (case.nodes[1] as f64 * 24.0 * 1.3) as usize,
        ..Default::default()
    }
    .generate(9);
    let mut ycfg = YarnConfig::paper_cluster(case.policies[1], MediaKind::Hdd);
    ycfg.nodes = case.nodes[1];
    let ycfg = ycfg
        .with_lifecycle(case.lifecycle)
        .with_incremental(case.incremental)
        .with_faults(spec);
    let buf = SharedBuf::default();
    let mut sim = YarnSim::new(ycfg, fw.clone());
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let (report, telemetry) = sim.run_with_telemetry();
    assert_eq!(
        report.jobs_finished,
        fw.job_count() as u64,
        "{}: yarn run must finish every job",
        case.name
    );
    let yarn_trace = fnv1a(&buf.0.borrow());
    let yarn_reg = fnv1a(telemetry.registry.to_json().as_bytes());
    check_fold(case.name, "yarn", &buf.0.borrow(), &telemetry.registry);

    [cluster_trace, cluster_reg, yarn_trace, yarn_reg]
}

/// Registry counters that each equal the count of one record kind in
/// the run's trace.
const FOLDED: [(&str, &str); 3] = [
    ("scheduler.tasks_finished", "task_finish"),
    ("scheduler.checkpoints", "dump_start"),
    ("scheduler.restores", "restore_done"),
];

/// Asserts registry == fold(trace) for every [`FOLDED`] pair, and that
/// the hard kills (`task_evict` records of any reason but `dump`) are
/// `scheduler.kills` plus the evictions by downed nodes, which the
/// ledger counts apart (`scheduler.failure_evictions` is ClusterSim's
/// alone). Also asserts that every line of the trace is in the form the
/// reader's canonical-line decoder takes, so none falls back to the
/// general path.
fn check_fold(case: &str, sim: &str, trace: &[u8], registry: &MetricsRegistry) {
    let mut folded = [0u64; FOLDED.len()];
    let mut hard_kills = 0u64;
    let mut reader = JsonlReader::new(trace).expect("golden traces have a header");
    for item in reader.by_ref() {
        let (_, rec) = item.expect("golden traces are well-formed");
        if let Some(i) = FOLDED.iter().position(|(_, kind)| *kind == rec.name()) {
            folded[i] += 1;
        }
        if matches!(rec, TraceRecord::TaskEvict { reason, .. } if reason != "dump") {
            hard_kills += 1;
        }
    }
    for ((key, kind), n) in FOLDED.iter().zip(folded) {
        assert_eq!(
            registry.counter(key),
            Some(n),
            "{case}, {sim}: {key} vs {n} {kind} records"
        );
    }
    let lines = reader.line_counts();
    let records = trace.iter().filter(|&&b| b == b'\n').count() as u64 - 1;
    assert_eq!(
        (lines.canonical, lines.general),
        (records, 0),
        "{case}, {sim}: lines decoded by the canonical and the general path"
    );
    let counter = |key: &str| registry.counter(key);
    let kills = counter("scheduler.kills").expect("both simulators count kills");
    let crashes = counter("faults.crash_evictions").expect("both simulators count crashes");
    let failures = counter("scheduler.failure_evictions").unwrap_or(0);
    assert_eq!(
        kills + crashes + failures,
        hard_kills,
        "{case}, {sim}: scheduler.kills {kills} + faults.crash_evictions {crashes} \
         + scheduler.failure_evictions {failures} vs {hard_kills} hard-kill task_evict records"
    );
}

#[test]
fn both_simulators_replay_golden_bytes() {
    let mismatches: Vec<String> = CASES
        .iter()
        .filter_map(|case| {
            let got = digests(case);
            (got != case.golden).then(|| {
                format!(
                    "{}: got [{:#018x}, {:#018x}, {:#018x}, {:#018x}]",
                    case.name, got[0], got[1], got[2], got[3]
                )
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "golden digests differ (cluster trace, cluster registry, yarn trace, yarn registry):\n{}",
        mismatches.join("\n")
    );
}
