//! Golden byte-identity replay for both simulators.
//!
//! Each case runs one small seeded workload through `ClusterSim` and
//! through `YarnSim` under one fault plan and hashes (FNV-1a, 64-bit) the
//! full JSONL trace, the metrics-registry JSON and the run report of
//! each run. The trace and registry digests were recorded before the two simulators' checkpoint paths
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
//! invariant after every event. Every run also checks that its trace,
//! read back and folded with `RunLedger::fold`, gives every counter of its
//! report, and that a second run with no tracer attached gives the same
//! registry and report bytes.
//!
//! On a mismatch the test names every failing case and prints the
//! observed digests.
//!
//! The report digest hashes a fixed list of report values (see
//! [`report_words`]). Mean responses are left out: they depend on the
//! order the samples are summed in, while the registry's response
//! quantiles already pin the values themselves.

mod common;

use cbp::checkpoint::{Criu, NvramSpec};
use cbp::core::ckpt_path::CkptPath;
use cbp::core::{ClusterSim, PreemptionPolicy, RunLedger, RunMetrics, RunReport, SimConfig};
use cbp::faults::FaultSpec;
use cbp::simkit::{SimDuration, SimTime};
use cbp::storage::{MediaKind, MediaSpec};
use cbp::telemetry::{JsonlReader, JsonlTracer};
use cbp::workload::facebook::FacebookConfig;
use cbp::workload::google::GoogleTraceConfig;
use cbp::workload::PriorityBand;
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
    /// The YARN NodeManager's grace period before it force-kills a dump
    /// still in flight, in seconds (none: dumps are never cut short).
    grace_secs: Option<u64>,
    /// Digests: cluster trace, cluster registry, yarn trace, yarn
    /// registry, cluster report, yarn report.
    golden: [u64; 6],
}

/// The grace period of the "grace-period" case: shorter than most HDFS
/// dumps of the YARN analog's containers (81 of its 109 are
/// force-killed), while the rest commit and are restored.
const GRACE_SECS: u64 = 90;

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
        grace_secs: None,
        golden: [
            0xbda4445e1bce42fd,
            0x69efb84ae242d78d,
            0x161b2b0dd7932029,
            0xe55d4b2499323dab,
            0xfba7c877692b3ea5,
            0x3bbde7bcfd4ab986,
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
        grace_secs: None,
        golden: [
            0x4f9cbe3ef9d4b02a,
            0xe73d12c89f2ad589,
            0x99b7379d6df86466,
            0xc497dd3ab52b9a70,
            0xdfbebe6499c8e368,
            0x6d9e330be2b46ff3,
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
        grace_secs: None,
        golden: [
            0x68b31cb412ba92ad,
            0x54e76f9f03ce8f4b,
            0xc3672fe368efeda6,
            0xf1797f99e17bdb4f,
            0x6eed81c00018c5a9,
            0x0b68b2de4a248e15,
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
        grace_secs: None,
        golden: [
            0xe4ba231b7ff33626,
            0xeadb4508737bcec7,
            0xb6901fe940fbcbff,
            0xbba6ff1cc7ee8a46,
            0x9b11780d7afea958,
            0xefc7565e3f5a7eed,
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
        grace_secs: None,
        golden: [
            0x6aa46df3bf775179,
            0x74e73aad010d9f48,
            0xc87ec521dacc3a87,
            0x85d3c4ee22b066de,
            0xa4dd0991e18a7aef,
            0xda5d018b391cabe3,
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
        grace_secs: None,
        golden: [
            0x4fc9e9615effcd13,
            0xd08f5eb0ab053b99,
            0x0bf8a2ea89817e18,
            0xf584d49f232b0dd0,
            0xdb5632d519c2f864,
            0xc1778e227d10666a,
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
        grace_secs: None,
        golden: [
            0x057113946e733dc6,
            0x97dd3c6cab055888,
            0x01d337ee9ec4385d,
            0x38ccf9ca4106030f,
            0xa9e4482c256f403f,
            0xadd2717665ba959b,
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
        grace_secs: None,
        golden: [
            0x177d43bf2bcc5740,
            0x4f8dbd17cab5b3f3,
            0x01d337ee9ec4385d,
            0x38ccf9ca4106030f,
            0x8404a529bd35a10a,
            0xadd2717665ba959b,
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
        grace_secs: None,
        golden: [
            0x4740b6cbb1ce3081,
            0x3d8f12d823c711b9,
            0xa41ef0400455a458,
            0x1874239076fb5459,
            0x9196ea30a1c523ee,
            0x750e9d49b29081bf,
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
        grace_secs: None,
        golden: [
            0x5b5a48040bcde053,
            0x6e6e2ac04f1f1e04,
            0xa41ef0400455a458,
            0x1874239076fb5459,
            0x39fc38afc41c75fc,
            0x750e9d49b29081bf,
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
        grace_secs: None,
        golden: [
            0xd9eee67b7dea7b64,
            0xacfd768f18dc53d0,
            0xc3672fe368efeda6,
            0xf1797f99e17bdb4f,
            0xbb1b8a42d013adae,
            0x0b68b2de4a248e15,
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
        grace_secs: None,
        golden: [
            0x28a4d6906c12e1fb,
            0xe49051a75e725f78,
            0xeb88f2a77be4ec88,
            0x1fda542e08b7bb1c,
            0xebeb62fd9ca5b0fe,
            0x462a9d93e163dc15,
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
        grace_secs: None,
        golden: [
            0xd82ddcea1ee477fd,
            0x1d7f740ceaf3995b,
            0x886b022b8ed99511,
            0xaecd36fd0c1bc4d6,
            0xbcf29671b1ebfbea,
            0x31fa02adcfe83a22,
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
        grace_secs: None,
        golden: [
            0xcd113e6b53f2d624,
            0x517bdf79d8b57b7f,
            0xe66270e3b4812af5,
            0xc31c792185e351d1,
            0xad9ea97b4020906f,
            0x3407343a9838bcf4,
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
        grace_secs: None,
        golden: [
            0xe4ba231b7ff33626,
            0xeadb4508737bcec7,
            0x3c82b772dca8adf4,
            0x45e76064d918b6df,
            0x9b11780d7afea958,
            0xaef532f7806c18d8,
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
        grace_secs: None,
        golden: [
            0x3d2e0fac92f7426c,
            0xa1171cfdee357497,
            0xaa5a83e26dcb1d63,
            0xc7b4191d0aba8f4d,
            0x93e372cf66127878,
            0x2f56171500aad3da,
        ],
    },
    Case {
        // The YARN NodeManager force-kills every dump still in flight
        // when its grace period runs out (no other case sets one). The
        // trace simulator has no grace period: its run is the "light"
        // case's.
        name: "grace-period",
        plan: "light,seed=11",
        lifecycle: true,
        policies: CHK_ADAPTIVE,
        incremental: true,
        nodes: [5, 4],
        store: Store::Dfs,
        grace_secs: Some(GRACE_SECS),
        golden: [
            0x4f9cbe3ef9d4b02a,
            0xe73d12c89f2ad589,
            0x57c1da461e1d5649,
            0xdcd3509f5a200070,
            0xdfbebe6499c8e368,
            0x586b9a9f19735a35,
        ],
    },
];

/// Runs both simulators for `case` and returns its six digests.
fn digests(case: &Case) -> [u64; 6] {
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
    let (cluster, _) = checked_digests(case.name, "cluster", w.job_count(), |buf| {
        let mut sim = ClusterSim::new(cfg.clone(), w.clone());
        if let Some(buf) = buf {
            sim.set_tracer(Box::new(JsonlTracer::new(buf)));
        }
        sim.run()
    });

    // The giant production job is 1.3x the cluster's container count, as
    // in the §5.3.3 setup, so it preempts default-queue work.
    let fw = FacebookConfig {
        giant_job_tasks: (case.nodes[1] as f64 * 24.0 * 1.3) as usize,
        ..Default::default()
    }
    .generate(9);
    let mut ycfg = YarnConfig::paper_cluster(case.policies[1], MediaKind::Hdd);
    ycfg.nodes = case.nodes[1];
    let mut ycfg = ycfg
        .with_lifecycle(case.lifecycle)
        .with_incremental(case.incremental)
        .with_faults(spec);
    if let Some(secs) = case.grace_secs {
        ycfg = ycfg.with_graceful_timeout(SimDuration::from_secs(secs));
    }
    let (yarn, metrics) = checked_digests(case.name, "yarn", fw.job_count(), |buf| {
        let mut sim = YarnSim::new(ycfg.clone(), fw.clone());
        if let Some(buf) = buf {
            sim.set_tracer(Box::new(JsonlTracer::new(buf)));
        }
        sim.run()
    });
    if case.grace_secs.is_some() {
        assert!(
            metrics.force_kills > 0,
            "{}: the grace period must cut some dump short",
            case.name
        );
    }

    [
        cluster[0], cluster[1], yarn[0], yarn[1], cluster[2], yarn[2],
    ]
}

/// Runs one simulator of `case` through `run`, traced into the buffer it
/// is given, and returns the digests of the trace, the registry and the
/// report, and the report's metrics. Checks that the run finished all
/// `jobs`, that its trace folds to its counters, and that `run` with no
/// tracer gives the same registry and report.
fn checked_digests(
    case: &str,
    sim: &str,
    jobs: usize,
    run: impl Fn(Option<SharedBuf>) -> RunReport,
) -> ([u64; 3], RunMetrics) {
    let buf = SharedBuf::default();
    let report = run(Some(buf.clone()));
    assert_eq!(
        report.metrics.jobs_finished, jobs as u64,
        "{case}: {sim} run must finish every job"
    );
    let trace = buf.0.take();
    check_fold(case, sim, &trace, &report.metrics);
    let digests = |r: &RunReport| {
        let registry = fnv1a(r.telemetry.registry.to_json().as_bytes());
        (registry, words_digest(&report_words(&r.metrics)))
    };
    let (registry, words) = digests(&report);
    assert_eq!(
        digests(&run(None)),
        (registry, words),
        "{case}, {sim}: an untraced run's registry and report digests differ from the traced run's"
    );
    ([fnv1a(&trace), registry, words], report.metrics)
}

/// FNV-1a over the little-endian bytes of `words`.
fn words_digest(words: &[u64]) -> u64 {
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Every integer counter of a report, by name.
fn counters(m: &RunMetrics) -> [(&'static str, u64); 31] {
    [
        ("jobs_finished", m.jobs_finished),
        ("tasks_finished", m.tasks_finished),
        ("preemptions", m.preemptions),
        ("kills", m.kills),
        ("checkpoints", m.checkpoints),
        ("incremental_checkpoints", m.incremental_checkpoints),
        ("restores", m.restores),
        ("remote_restores", m.remote_restores),
        ("capacity_fallbacks", m.capacity_fallbacks),
        ("gc_reclaimed_bytes", m.gc_reclaimed_bytes),
        ("evicted_chains", m.evicted_chains),
        ("spill_dumps", m.spill_dumps),
        ("no_space_kills", m.no_space_kills),
        ("failure_evictions", m.failure_evictions),
        ("crash_evictions", m.crash_evictions),
        ("breaker_open_kills", m.breaker_open_kills),
        ("images_lost_to_failures", m.images_lost_to_failures),
        ("dump_fail_retries", m.dump_fail_retries),
        ("dump_fail_kills", m.dump_fail_kills),
        ("restore_fail_retries", m.restore_fail_retries),
        ("scratch_restarts", m.scratch_restarts),
        ("resumed_dumps", m.resumed_dumps),
        ("resumed_bytes", m.resumed_bytes),
        ("chunk_refetches", m.chunk_refetches),
        ("chain_truncations", m.chain_truncations),
        ("integrity_scratch_restarts", m.integrity_scratch_restarts),
        ("dfs_blocks_repaired", m.dfs_blocks_repaired),
        ("dfs_repair_bytes", m.dfs_repair_bytes),
        ("dfs_blocks_lost", m.dfs_blocks_lost),
        ("force_kills", m.force_kills),
        ("am_escalations", m.am_escalations),
    ]
}

/// The pinned report values of a run: every integer counter, then the
/// bit patterns of the makespan, the CPU-hour sums, the energy, the I/O
/// and storage fractions and the breaker-open seconds, then the jobs
/// finished per band.
fn report_words(m: &RunMetrics) -> Vec<u64> {
    let mut words: Vec<u64> = counters(m).iter().map(|&(_, v)| v).collect();
    words.extend(
        [
            m.makespan_secs,
            m.retry_overhead_cpu_hours,
            m.kill_lost_cpu_hours,
            m.dump_overhead_cpu_hours,
            m.restore_overhead_cpu_hours,
            m.useful_cpu_hours,
            m.energy_kwh,
            m.io_overhead_fraction,
            m.storage_peak_fraction,
            m.breaker_open_secs,
        ]
        .map(f64::to_bits),
    );
    words.extend(PriorityBand::ALL.map(|band| m.per_band.get(&band).map_or(0, |b| b.jobs)));
    words
}

/// Report counters no trace record carries: the run ledger keeps them
/// inline.
const INLINE: [&str; 3] = [
    "jobs_finished",
    "images_lost_to_failures",
    "dfs_blocks_lost",
];

/// Asserts that folding `trace`, as read back by the JSONL reader, with
/// the run ledger's own fold gives every counter of the run's `metrics`
/// but the [`INLINE`] ones. Also asserts that every line of the trace is
/// in the form the reader's canonical-line decoder takes, so none falls
/// back to the general path.
fn check_fold(case: &str, sim: &str, trace: &[u8], metrics: &RunMetrics) {
    let mut ledger = RunLedger::default();
    let mut reader = JsonlReader::new(trace).expect("golden traces have a header");
    for item in reader.by_ref() {
        let (_, rec) = item.expect("golden traces are well-formed");
        ledger.fold(&rec);
    }
    let no_path = CkptPath::new(
        0,
        MediaSpec::ssd(),
        Criu::new(true),
        None,
        None,
        None,
        false,
    );
    let folded = ledger.into_metrics(SimTime::ZERO, 0.0, &no_path);
    for ((name, n), (_, want)) in counters(&folded).into_iter().zip(counters(metrics)) {
        if !INLINE.contains(&name) {
            assert_eq!(
                n, want,
                "{case}, {sim}: {name} folded from the trace vs the run's"
            );
        }
    }
    let lines = reader.line_counts();
    let records = trace.iter().filter(|&&b| b == b'\n').count() as u64 - 1;
    assert_eq!(
        (lines.canonical, lines.general),
        (records, 0),
        "{case}, {sim}: lines decoded by the canonical and the general path"
    );
}

#[test]
fn both_simulators_replay_golden_bytes() {
    let mismatches: Vec<String> = CASES
        .iter()
        .filter_map(|case| {
            let got = digests(case);
            (got != case.golden).then(|| {
                let got: Vec<String> = got.iter().map(|d| format!("{d:#018x}")).collect();
                format!("{}: got [{}]", case.name, got.join(", "))
            })
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "golden digests differ (cluster trace, cluster registry, yarn trace, yarn registry, \
         cluster report, yarn report):\n{}",
        mismatches.join("\n")
    );
}
