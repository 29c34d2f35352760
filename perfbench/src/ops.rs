//! The three workloads: which ops a run makes, and what one op does.
//!
//! Every op is self-contained: it generates its inputs from its seed,
//! builds the config and the simulator, runs it, and returns the
//! byte-stable output the checks compare. The benchmark's spans wrap each
//! public call (`workload.generate`, `sim.new`, `sim.run`,
//! `telemetry.parse`, `obs.collect`, `obs.report`, `obs.crit`).

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use cbp_bench::experiments::google_setup;
use cbp_bench::{Scale, ANALYZE_TOP_K};
use cbp_core::{ClusterSim, PreemptionPolicy, SimConfig};
use cbp_faults::FaultSpec;
use cbp_obs::{ObsReport, SpanCollector};
use cbp_storage::MediaKind;
use cbp_telemetry::{JsonlReader, JsonlTracer, MetricsRegistry, MultiTracer, Tracer};
use cbp_workload::facebook::FacebookConfig;
use cbp_yarn::{YarnConfig, YarnSim};

use crate::spans::{span, CountingTracer, KindCounts};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TraceFig3,
    YarnSweep,
    TraceAnalyze,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TraceFig3,
        Workload::YarnSweep,
        Workload::TraceAnalyze,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TraceFig3 => "trace_fig3",
            Workload::YarnSweep => "yarn_sweep",
            Workload::TraceAnalyze => "trace_analyze",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Rounds (seeds) per second of `--seconds`, measured on a 2-vCPU VM:
    /// one trace_fig3 round (six ClusterSim runs) takes 5–7 s, one
    /// yarn_sweep round (15 YarnSim runs) ~0.28 s and one trace_analyze
    /// round (4 traced YarnSim runs plus replay) ~0.37 s. The op list is a
    /// function of `(seed, seconds)` alone, never of the clock, so a run's
    /// work is the same on every commit.
    fn rounds(self, seconds: u64) -> usize {
        let per_sec = match self {
            Workload::TraceFig3 => 0.2,
            Workload::YarnSweep => 3.6,
            Workload::TraceAnalyze => 2.7,
        };
        ((seconds as f64 * per_sec).round() as usize).max(1)
    }

    /// Seconds one op takes to set up, measured on the same VM; sizes the
    /// batches of the `setup_s` measurement.
    pub fn setup_cost_s(self) -> f64 {
        match self {
            Workload::TraceFig3 => 1.3e-3,
            Workload::YarnSweep | Workload::TraceAnalyze => 0.06e-3,
        }
    }
}

/// The five fig3/fig5 configurations: Kill, Checkpoint on each medium,
/// Adaptive on HDD.
const CONFIGS: [(PreemptionPolicy, MediaKind, &str); 5] = [
    (PreemptionPolicy::Kill, MediaKind::Hdd, "Kill"),
    (PreemptionPolicy::Checkpoint, MediaKind::Hdd, "Chk-HDD"),
    (PreemptionPolicy::Checkpoint, MediaKind::Ssd, "Chk-SSD"),
    (PreemptionPolicy::Checkpoint, MediaKind::Nvm, "Chk-NVM"),
    (PreemptionPolicy::Adaptive, MediaKind::Hdd, "Adaptive-HDD"),
];

const SWEEP_PLANS: [&str; 3] = ["off", "heavy", "chaos"];
const ANALYZE_PLANS: [&str; 4] = ["off", "light", "heavy", "chaos"];

/// The smoke-scale Google trace every trace_fig3 op replays. The trace
/// seed is fixed because it alone moves the cost of a five-config set from
/// 4 s to 28 s (see NOTES.md); `--seed` drives the simulator's own seed.
const FIG3_TRACE_SEED: u64 = 42;

/// One op of a run.
#[derive(Debug, Clone)]
pub struct OpSpec {
    pub label: String,
    pub seed: u64,
    config: usize,
    plan: &'static str,
}

/// Seed of round `i`: round 0 uses `seed` itself, so `--seed 42` replays
/// what `repro ... --seed 42` runs; later rounds are SplitMix64 draws.
fn round_seed(seed: u64, i: usize) -> u64 {
    if i == 0 {
        return seed;
    }
    let mut z = seed.wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The op list of a run: rounds × configs (× fault plans). A trace_fig3
/// round is the five configs fault-free plus Adaptive on HDD under chaos.
pub fn op_list(w: Workload, seed: u64, seconds: u64) -> Vec<OpSpec> {
    let mut ops = Vec::new();
    for r in 0..w.rounds(seconds) {
        let s = round_seed(seed, r);
        let mut push = |config: usize, plan: &'static str, label: String| {
            ops.push(OpSpec {
                label: format!("r{r}.{label}"),
                seed: s,
                config,
                plan,
            })
        };
        match w {
            Workload::TraceFig3 => {
                for (c, cfg) in CONFIGS.iter().enumerate() {
                    push(c, "off", cfg.2.to_string());
                }
                // Node crashes take their co-located datanodes down, so
                // the DFS repair path runs.
                push(4, "chaos", "Adaptive-HDD.chaos".to_string());
            }
            Workload::YarnSweep => {
                for plan in SWEEP_PLANS {
                    for (c, cfg) in CONFIGS.iter().enumerate() {
                        push(c, plan, format!("{}.{plan}", cfg.2));
                    }
                }
            }
            Workload::TraceAnalyze => {
                for plan in ANALYZE_PLANS {
                    push(4, plan, plan.to_string());
                }
            }
        }
    }
    ops
}

/// Registry counters → per-layer metric names.
pub const REGISTRY_COUNTERS: [(&str, &str); 15] = [
    ("engine.events", "simkit.events"),
    ("scheduler.checkpoints", "checkpoint.checkpoints"),
    ("scheduler.restores", "checkpoint.restores"),
    ("integrity.resumed_dumps", "checkpoint.resumed_dumps"),
    ("integrity.chunk_refetches", "checkpoint.chunk_refetches"),
    (
        "integrity.chain_truncations",
        "checkpoint.chain_truncations",
    ),
    (
        "integrity.scratch_restarts",
        "checkpoint.integrity_scratch_restarts",
    ),
    (
        "lifecycle.gc_reclaimed_bytes",
        "checkpoint.gc_reclaimed_bytes",
    ),
    ("lifecycle.evicted_chains", "checkpoint.evicted_chains"),
    ("lifecycle.spill_dumps", "checkpoint.spill_dumps"),
    ("lifecycle.no_space_kills", "checkpoint.no_space_kills"),
    ("dfs.blocks_repaired", "dfs.blocks_repaired"),
    ("dfs.blocks_lost", "dfs.blocks_lost"),
    ("faults.crash_evictions", "faults.crash_evictions"),
    ("faults.breaker_open_kills", "faults.breaker_open_kills"),
];

/// How one op is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// End-to-end timing: no tracer beyond what the workload itself uses.
    Timed,
    /// Per-layer attribution: a counting tracer is attached.
    Traced,
    /// trace_analyze only: the write side without its `JsonlTracer`, the
    /// twin that `telemetry.emit_s` is measured against.
    Twin,
}

/// What one op produced.
#[derive(Debug, Default)]
pub struct OpOutput {
    /// The byte-stable output the digest and twin checks compare: the
    /// registry JSON (sims) or the report JSON (trace_analyze).
    pub output: String,
    /// Host seconds of `sim.run` alone.
    pub run_s: f64,
    pub tasks_expected: u64,
    pub tasks_finished: u64,
    /// Set when the op failed without a wrong answer: the program returned
    /// an error or flagged its own input as malformed.
    pub failure: Option<String>,
    /// The [`REGISTRY_COUNTERS`] values, in order.
    pub counters: [u64; REGISTRY_COUNTERS.len()],
    pub incremental: u64,
    pub kinds: KindCounts,
    pub trace_bytes: u64,
    pub records: u64,
    pub malformed: u64,
}

/// An op whose inputs and simulator are built but not yet run.
pub struct Prepared {
    sim: Sim,
    tasks_expected: u64,
    counter: Option<CountingTracer>,
    /// trace_analyze's in-memory JSONL trace, read back after the run.
    jsonl: Option<SharedBuf>,
}

enum Sim {
    Cluster(Box<ClusterSim>),
    Yarn(Box<YarnSim>),
}

/// Runs one op.
pub fn run_op(w: Workload, op: &OpSpec, pass: Pass) -> OpOutput {
    prepare(w, op, pass).run()
}

/// Sets one op up: workload generation, config and simulator
/// construction.
pub fn prepare(w: Workload, op: &OpSpec, pass: Pass) -> Prepared {
    match w {
        Workload::TraceFig3 => prepare_fig3(op, pass),
        Workload::YarnSweep | Workload::TraceAnalyze => prepare_yarn(w, op, pass),
    }
}

fn counters(reg: &MetricsRegistry) -> [u64; REGISTRY_COUNTERS.len()] {
    REGISTRY_COUNTERS.map(|(key, _)| reg.counter(key).unwrap_or(0))
}

fn counting(pass: Pass) -> Option<CountingTracer> {
    (pass == Pass::Traced).then(CountingTracer::default)
}

/// The fault plan of an op, seeded by the op's seed; `None` for "off".
fn fault_spec(op: &OpSpec) -> Option<FaultSpec> {
    (op.plan != "off").then(|| {
        let mut spec = FaultSpec::parse(op.plan).expect("workload fault plans are valid");
        spec.seed = op.seed;
        spec
    })
}

fn prepare_fig3(op: &OpSpec, pass: Pass) -> Prepared {
    let (workload, base) = {
        let _s = span("workload.generate");
        google_setup(Scale::SMOKE, FIG3_TRACE_SEED)
    };
    let tasks_expected = workload.task_count() as u64;
    let (policy, media, _) = CONFIGS[op.config];
    let mut cfg: SimConfig = match policy {
        PreemptionPolicy::Kill => base.with_policy(policy),
        _ => base.with_policy(policy).with_media(media.spec()),
    }
    .with_seed(op.seed);
    if let Some(spec) = fault_spec(op) {
        cfg = cfg.with_faults(spec);
    }
    let counter = counting(pass);
    let sim = {
        let _s = span("sim.new");
        let mut sim = ClusterSim::new(cfg, workload);
        if let Some(c) = &counter {
            sim.set_tracer(Box::new(c.clone()));
        }
        sim
    };
    Prepared {
        sim: Sim::Cluster(Box::new(sim)),
        tasks_expected,
        counter,
        jsonl: None,
    }
}

/// An in-memory `Write` the caller can read back after the simulator
/// that owns the tracer is gone.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn prepare_yarn(w: Workload, op: &OpSpec, pass: Pass) -> Prepared {
    let workload = {
        let _s = span("workload.generate");
        // The paper's 8 × 24 cluster; the giant production job is 1.3× its
        // container count, as in `repro fig8 --scale full`.
        FacebookConfig {
            giant_job_tasks: (8.0 * 24.0 * 1.3) as usize,
            ..Default::default()
        }
        .generate(op.seed)
    };
    let tasks_expected = workload.task_count() as u64;
    let (policy, media, _) = CONFIGS[op.config];
    let mut cfg = YarnConfig::paper_cluster(policy, media);
    if let Some(spec) = fault_spec(op) {
        cfg = cfg.with_faults(spec);
    }
    let counter = counting(pass);
    let jsonl = (w == Workload::TraceAnalyze && pass != Pass::Twin).then(SharedBuf::default);
    let sim = {
        let _s = span("sim.new");
        let mut sim = YarnSim::new(cfg, workload);
        let mut multi = MultiTracer::new();
        if let Some(buf) = &jsonl {
            multi.push(Box::new(JsonlTracer::new(buf.clone())));
        }
        if let Some(c) = &counter {
            multi.push(Box::new(c.clone()));
        }
        if !multi.is_empty() {
            sim.set_tracer(Box::new(multi) as Box<dyn Tracer>);
        }
        sim
    };
    Prepared {
        sim: Sim::Yarn(Box::new(sim)),
        tasks_expected,
        counter,
        jsonl,
    }
}

impl Prepared {
    /// Runs the simulator (and, for trace_analyze, the read side).
    pub fn run(self) -> OpOutput {
        let t = Instant::now();
        let (registry, tasks_finished, incremental) = {
            let _s = span("sim.run");
            match self.sim {
                Sim::Cluster(sim) => {
                    let report = sim.run();
                    let m = report.metrics;
                    (
                        report.telemetry.registry,
                        m.tasks_finished,
                        m.incremental_checkpoints,
                    )
                }
                Sim::Yarn(sim) => {
                    let (report, telemetry) = sim.run_with_telemetry();
                    (
                        telemetry.registry,
                        report.tasks_finished,
                        report.incremental_checkpoints,
                    )
                }
            }
        };
        let run_s = t.elapsed().as_secs_f64();
        let mut out = OpOutput {
            output: registry.to_json(),
            run_s,
            tasks_expected: self.tasks_expected,
            tasks_finished,
            incremental,
            counters: counters(&registry),
            kinds: self.counter.map(|c| c.0.take()).unwrap_or_default(),
            ..OpOutput::default()
        };
        if let Some(buf) = self.jsonl {
            analyze(&buf.0.take(), &mut out);
        }
        out
    }
}

/// The read side of trace_analyze: JSONL → lenient segment-recording
/// collector → report with critical paths → JSON. Parsing and collection
/// are separate phases so each has its own span.
fn analyze(trace: &[u8], out: &mut OpOutput) {
    out.trace_bytes = trace.len() as u64;
    let records = {
        let _s = span("telemetry.parse");
        JsonlReader::new(trace).and_then(|r| r.collect::<Result<Vec<_>, _>>())
    };
    let records = match records {
        Ok(r) => r,
        Err(e) => {
            out.failure = Some(format!("trace read: {e}"));
            return;
        }
    };
    out.records = records.len() as u64;
    let collector = {
        let _s = span("obs.collect");
        let mut c = SpanCollector::lenient().with_segments();
        for (t_us, rec) in &records {
            c.observe(*t_us, rec);
        }
        c
    };
    out.malformed = collector.malformed();
    let report = {
        let _s = span("obs.report");
        ObsReport::build(&collector, ANALYZE_TOP_K)
    };
    let report = {
        let _s = span("obs.crit");
        report.with_crit(&collector)
    };
    match report {
        Ok(report) => {
            let _s = span("obs.to_json");
            out.output = report.to_json();
        }
        Err(e) => out.failure = Some(format!("critical paths: {e}")),
    }
    if out.malformed > 0 && out.failure.is_none() {
        out.failure = Some(format!(
            "malformed trace: {} records flagged by the lenient replay",
            out.malformed
        ));
    }
}
