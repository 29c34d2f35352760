//! Instrumented ("observability") runs behind `repro`'s telemetry flags.
//!
//! The experiment functions in [`crate::experiments`] run many
//! configurations to assemble a table; tracing all of them at once would
//! interleave unrelated runs in one file. Instead, when any of
//! `--trace-out` / `--chrome-trace` / `--timeseries` / `--telemetry` is
//! passed, `repro` performs **one additional instrumented run**
//! representative of the requested experiment (the adaptive checkpoint
//! policy on the experiment's workload) and emits the requested artifacts
//! from it.
//!
//! All sinks are deterministic per `(experiment, scale, seed)`: the JSONL
//! trace, the Chrome trace and the time series are byte-identical across
//! repeated invocations. Registry snapshots exclude wall-clock quantities
//! for the same reason; engine throughput is printed separately.

use std::fs::File;
use std::io::{BufReader, BufWriter};

use cbp_core::{ClusterSim, PreemptionPolicy, TelemetryReport};
use cbp_faults::FaultSpec;
use cbp_obs::{paths_to_folded, ObsReport, SharedCollector, SpanCollector, WhatIf};
use cbp_simkit::SimDuration;
use cbp_storage::MediaKind;
use cbp_telemetry::{ChromeTraceTracer, JsonlTracer, MultiTracer, SinkStatus, Tracer};
use cbp_workload::facebook::FacebookConfig;
use cbp_yarn::{YarnConfig, YarnSim};

use crate::experiments::google_setup;
use crate::Scale;

/// Jobs listed in the analysis report's worst-penalized table. Shared by
/// the online (`--analyze`) and offline (`repro analyze`) paths so both
/// produce byte-identical reports for the same run.
pub const ANALYZE_TOP_K: usize = 10;

/// Which telemetry artifacts `repro` was asked to produce.
#[derive(Debug, Default, Clone)]
pub struct TelemetryOptions {
    /// `--trace-out PATH`: structured JSONL trace.
    pub trace_out: Option<String>,
    /// `--chrome-trace PATH`: Chrome/Perfetto `trace.json`.
    pub chrome_trace: Option<String>,
    /// `--timeseries PATH`: columnar time-series JSON.
    pub timeseries: Option<String>,
    /// `--telemetry`: print the metrics registry and engine throughput.
    pub telemetry: bool,
    /// `--analyze PATH`: write the `cbp-obs` analysis report and print
    /// the penalty table.
    pub analyze: Option<String>,
    /// `--critical-path`: record segment timelines, extract per-job
    /// critical paths and print the attribution table (the report JSON
    /// gains its `"crit"` section).
    pub critical_path: bool,
    /// `--flamegraph-out PATH`: write the critical paths as
    /// inferno-compatible folded-stack text (implies `--critical-path`).
    pub flamegraph_out: Option<String>,
    /// `--what-if SCENARIO` (repeatable): print predicted per-band p95
    /// responses under the counterfactual (implies `--critical-path`).
    pub what_if: Vec<WhatIf>,
    /// `--faults SPEC`: attach a deterministic fault plan to the
    /// instrumented run (chaos replay; see [`FaultSpec::parse`]).
    pub faults: Option<FaultSpec>,
    /// `--no-lifecycle`: disable checkpoint-image lifecycle management
    /// (the GC → evict → spill degradation ladder) for the instrumented
    /// run. Ablation baseline for the capacity-pressure experiments;
    /// lifecycle is on by default.
    pub no_lifecycle: bool,
    /// `--no-resume`: disable chunked resumable transfers + targeted
    /// chunk repair in the attached fault plan (failed dumps rewrite
    /// from byte zero, corrupt images are total losses). Ablation of
    /// the integrity machinery; requires `--faults`.
    pub no_resume: bool,
}

impl TelemetryOptions {
    /// True if any artifact was requested (default is fully silent).
    pub fn any(&self) -> bool {
        self.trace_out.is_some()
            || self.chrome_trace.is_some()
            || self.timeseries.is_some()
            || self.telemetry
            || self.analyze.is_some()
            || self.wants_crit()
    }

    /// True if any flag needs segment timelines and critical paths.
    pub fn wants_crit(&self) -> bool {
        self.critical_path || self.flamegraph_out.is_some() || !self.what_if.is_empty()
    }
}

/// Experiments driven by the YARN protocol simulator.
const YARN_IDS: [&str; 6] = ["fig8", "fig9", "fig10", "fig11", "fig12", "mapreduce"];

/// Experiments with no backing discrete-event simulation (analytic models
/// and microbenchmark tables); there is nothing to trace.
const ANALYTIC_IDS: [&str; 4] = ["fig2", "table3", "fig4", "fig6"];

/// Sim-time gap between time-series samples.
const SAMPLE_INTERVAL_SECS: u64 = 60;

/// Why an instrumented run failed.
#[derive(Debug)]
pub enum InstrumentError {
    /// Any other failure: an output file that could not be created or
    /// written, or a critical-path error (`repro` exits 2).
    Other(String),
    /// Writing the trace file at `path` failed during the run, so the
    /// file ends early (`repro` exits 3). The run itself completed.
    TraceWrite {
        /// The `--trace-out` or `--chrome-trace` path.
        path: String,
        /// The first error the trace sink met.
        error: String,
    },
}

impl InstrumentError {
    /// The exit code `repro` reports this error with.
    pub fn exit_code(&self) -> i32 {
        match self {
            InstrumentError::Other(_) => 2,
            InstrumentError::TraceWrite { .. } => 3,
        }
    }
}

impl std::fmt::Display for InstrumentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstrumentError::Other(msg) => f.write_str(msg),
            InstrumentError::TraceWrite { path, error } => {
                write!(f, "write {path}: {error} (the trace is incomplete)")
            }
        }
    }
}

impl std::error::Error for InstrumentError {}

impl From<String> for InstrumentError {
    fn from(msg: String) -> Self {
        InstrumentError::Other(msg)
    }
}

/// Runs one instrumented simulation representative of `id` and emits the
/// artifacts selected in `opts`. Returns `Ok(false)` if the experiment has
/// no backing simulation (nothing was written).
pub fn run_instrumented(
    id: &str,
    scale: Scale,
    seed: u64,
    opts: &TelemetryOptions,
) -> Result<bool, InstrumentError> {
    if ANALYTIC_IDS.contains(&id) {
        return Ok(false);
    }
    let (telemetry, collector) = if YARN_IDS.contains(&id) {
        run_yarn(scale, seed, opts)?
    } else {
        run_trace_sim(scale, seed, opts)?
    };
    emit(&telemetry, collector, opts)?;
    Ok(true)
}

/// The sinks of one instrumented run.
#[derive(Default)]
struct Sinks {
    /// The fan-out tracer; `None` if nothing was requested, so the
    /// simulator keeps its `NullTracer`.
    tracer: Option<Box<dyn Tracer>>,
    /// With `--analyze`, a [`SharedCollector`] handle kept outside the
    /// tracer so the report can be extracted after the run.
    collector: Option<SharedCollector>,
    /// Each trace file with its sink's write status.
    files: Vec<(String, SinkStatus)>,
}

impl Sinks {
    /// The first trace file whose writes failed during the run.
    fn check_files(&self) -> Result<(), InstrumentError> {
        for (path, status) in &self.files {
            if let Some(error) = status.error() {
                return Err(InstrumentError::TraceWrite {
                    path: path.clone(),
                    error: error.to_string(),
                });
            }
        }
        Ok(())
    }
}

/// Builds the fan-out tracer for the requested sinks.
fn build_tracer(opts: &TelemetryOptions) -> Result<Sinks, String> {
    let mut sinks = Sinks::default();
    let mut multi = MultiTracer::new();
    if let Some(path) = &opts.trace_out {
        let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let tracer = JsonlTracer::new(BufWriter::new(f));
        sinks.files.push((path.clone(), tracer.status()));
        multi.push(Box::new(tracer));
    }
    if let Some(path) = &opts.chrome_trace {
        let f = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        let tracer = ChromeTraceTracer::new(BufWriter::new(f));
        sinks.files.push((path.clone(), tracer.status()));
        multi.push(Box::new(tracer));
    }
    sinks.collector = if opts.wants_crit() {
        Some(SharedCollector::with_segments())
    } else if opts.analyze.is_some() {
        Some(SharedCollector::new())
    } else {
        None
    };
    if let Some(c) = &sinks.collector {
        multi.push(Box::new(c.clone()));
    }
    if !multi.is_empty() {
        sinks.tracer = Some(Box::new(multi));
    }
    Ok(sinks)
}

/// Instrumented Google-trace run (adaptive policy, default media).
fn run_trace_sim(
    scale: Scale,
    seed: u64,
    opts: &TelemetryOptions,
) -> Result<(TelemetryReport, Option<SharedCollector>), InstrumentError> {
    let (workload, base) = google_setup(scale, seed);
    let mut cfg = base
        .with_policy(PreemptionPolicy::Adaptive)
        .with_lifecycle(!opts.no_lifecycle);
    if let Some(spec) = &opts.faults {
        let mut spec = spec.clone();
        if opts.no_resume {
            spec.resume = false;
        }
        cfg = cfg.with_faults(spec);
    }
    let mut sim = ClusterSim::new(cfg, workload);
    let mut sinks = build_tracer(opts)?;
    if let Some(tracer) = sinks.tracer.take() {
        sim.set_tracer(tracer);
    }
    if opts.timeseries.is_some() {
        sim.enable_sampling(SimDuration::from_secs(SAMPLE_INTERVAL_SECS));
    }
    let telemetry = sim.run().telemetry;
    sinks.check_files()?;
    Ok((telemetry, sinks.collector))
}

/// Instrumented YARN run (adaptive policy on the Facebook workload).
fn run_yarn(
    scale: Scale,
    seed: u64,
    opts: &TelemetryOptions,
) -> Result<(TelemetryReport, Option<SharedCollector>), InstrumentError> {
    let nodes = scale.apply(8, 2);
    let slots = nodes * 24;
    let workload = FacebookConfig {
        jobs: scale.apply(40, 10),
        total_tasks: scale.apply(7_000, 260),
        giant_job_tasks: (slots as f64 * 1.3) as usize,
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd)
        .with_lifecycle(!opts.no_lifecycle);
    cfg.nodes = nodes;
    if let Some(spec) = &opts.faults {
        let mut spec = spec.clone();
        if opts.no_resume {
            spec.resume = false;
        }
        cfg = cfg.with_faults(spec);
    }
    let mut sim = YarnSim::new(cfg, workload);
    let mut sinks = build_tracer(opts)?;
    if let Some(tracer) = sinks.tracer.take() {
        sim.set_tracer(tracer);
    }
    let telemetry = sim.run().telemetry;
    sinks.check_files()?;
    Ok((telemetry, sinks.collector))
}

/// Replays a `--trace-out` JSONL file offline and builds the same
/// [`ObsReport`] the online `--analyze` path produces. Entry point for
/// the `repro analyze` subcommand.
pub fn analyze_trace_file(path: &str, top_k: usize) -> Result<ObsReport, String> {
    Ok(ObsReport::build(
        &analyze_trace_collector(path, false)?,
        top_k,
    ))
}

/// Replays a `--trace-out` JSONL file into a [`SpanCollector`],
/// optionally recording segment timelines for critical-path extraction.
/// The offline collector state is identical to the online one for the
/// same run, so reports built either way are byte-identical.
pub fn analyze_trace_collector(path: &str, segments: bool) -> Result<SpanCollector, String> {
    let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    cbp_obs::collect_jsonl_with(BufReader::new(f), segments)
        .map_err(|e| format!("read {path}: {e}"))
}

/// Writes the time series (if requested), prints the registry table and
/// engine throughput (if requested), and writes + prints the `cbp-obs`
/// analysis report (if `--analyze` was given).
fn emit(
    telemetry: &TelemetryReport,
    collector: Option<SharedCollector>,
    opts: &TelemetryOptions,
) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        eprintln!("wrote {path}");
    }
    if let Some(path) = &opts.chrome_trace {
        eprintln!("wrote {path}");
    }
    if let Some(path) = &opts.timeseries {
        match &telemetry.timeseries {
            Some(series) => {
                std::fs::write(path, series.to_json()).map_err(|e| format!("write {path}: {e}"))?;
                eprintln!("wrote {path}");
            }
            None => eprintln!(
                "warning: --timeseries is only available for trace-driven \
                 (ClusterSim) experiments; nothing written to {path}"
            ),
        }
    }
    if opts.telemetry {
        println!("################ telemetry ################");
        print!("{}", telemetry.registry.render_table());
        println!(
            "engine: {} events in {:.3}s wall ({:.0} events/s)",
            telemetry.engine_events,
            telemetry.engine_wall_secs,
            telemetry.events_per_sec()
        );
    }
    if opts.analyze.is_some() || opts.wants_crit() {
        let collector = collector
            .expect("analysis flags always install a collector")
            .take();
        let mut report = ObsReport::build(&collector, ANALYZE_TOP_K);
        if opts.wants_crit() {
            report = report.with_crit(&collector)?;
        }
        if let Some(path) = &opts.analyze {
            std::fs::write(path, report.to_json()).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        println!("################ analysis ################");
        print!("{}", report.render_table());
        emit_crit_extras(&report, &collector, opts)?;
    }
    Ok(())
}

/// Folded-stack export and what-if tables behind the critical-path
/// flags. Shared by the online (`--analyze`) and offline (`repro
/// analyze`) paths.
pub fn emit_crit_extras(
    report: &ObsReport,
    collector: &SpanCollector,
    opts: &TelemetryOptions,
) -> Result<(), String> {
    if let Some(path) = &opts.flamegraph_out {
        let paths = cbp_obs::CritReport::extract_paths(collector)?;
        std::fs::write(path, paths_to_folded(&paths)).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if !opts.what_if.is_empty() {
        let crit = report
            .crit
            .as_ref()
            .expect("what-if requires the crit section");
        for w in &opts.what_if {
            print!("{}", crit.render_what_if(*w));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instrumented_run_produces_deterministic_registry() {
        let opts = TelemetryOptions::default();
        let (a, _) = run_trace_sim(Scale::SMOKE, 11, &opts).unwrap();
        let (b, _) = run_trace_sim(Scale::SMOKE, 11, &opts).unwrap();
        assert_eq!(
            a.registry.to_json(),
            b.registry.to_json(),
            "registry snapshots must be byte-stable per seed"
        );
        assert!(a.engine_events > 0);
    }

    /// The CI chaos smoke's core contract: the same `(seed, fault plan)`
    /// instrumented run replays to an identical registry snapshot.
    #[test]
    fn faulted_instrumented_run_is_deterministic() {
        let opts = TelemetryOptions {
            faults: Some(FaultSpec {
                seed: 7,
                ..FaultSpec::heavy()
            }),
            ..Default::default()
        };
        let (a, _) = run_trace_sim(Scale::SMOKE, 11, &opts).unwrap();
        let (b, _) = run_trace_sim(Scale::SMOKE, 11, &opts).unwrap();
        assert_eq!(
            a.registry.to_json(),
            b.registry.to_json(),
            "chaos replays must be byte-stable per (seed, plan)"
        );

        let calm = TelemetryOptions::default();
        let (c, _) = run_trace_sim(Scale::SMOKE, 11, &calm).unwrap();
        assert_ne!(
            a.registry.to_json(),
            c.registry.to_json(),
            "a heavy plan must actually perturb the run"
        );
    }

    #[test]
    fn yarn_instrumented_run_has_engine_stats() {
        let opts = TelemetryOptions::default();
        let (t, collector) = run_yarn(Scale::SMOKE, 5, &opts).unwrap();
        assert!(collector.is_none(), "no --analyze, no collector");
        assert!(t.engine_events > 0);
        assert_eq!(
            t.registry.counter("engine.events"),
            Some(t.engine_events),
            "registry mirrors the engine event count"
        );
        assert!(
            t.timeseries.is_none(),
            "YARN runs do not sample time series"
        );
    }

    /// A trace file whose writes fail is reported after the run as a
    /// typed error with its own exit code, not a panic.
    #[test]
    fn trace_write_failure_is_a_typed_error() {
        if !std::path::Path::new("/dev/full").exists() {
            return;
        }
        let opts = TelemetryOptions {
            trace_out: Some("/dev/full".into()),
            ..Default::default()
        };
        match run_yarn(Scale::SMOKE, 5, &opts) {
            Err(e @ InstrumentError::TraceWrite { .. }) => {
                assert_eq!(e.exit_code(), 3);
                assert!(e.to_string().starts_with("write /dev/full: "), "{e}");
            }
            other => panic!("expected a trace write error, got {other:?}"),
        }
    }

    /// The online `--analyze` collector and an offline replay of the same
    /// run's `--trace-out` file must produce byte-identical reports. This
    /// is the core contract of `repro analyze`.
    #[test]
    fn online_and_offline_analysis_agree() {
        let dir = std::env::temp_dir().join(format!("cbp-analyze-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let opts = TelemetryOptions {
            trace_out: Some(trace.to_str().unwrap().to_string()),
            analyze: Some(dir.join("unused.json").to_str().unwrap().to_string()),
            ..Default::default()
        };
        let (_, collector) = run_trace_sim(Scale::SMOKE, 11, &opts).unwrap();
        let online = ObsReport::build(
            &collector.expect("collector installed").take(),
            ANALYZE_TOP_K,
        );
        let offline = analyze_trace_file(trace.to_str().unwrap(), ANALYZE_TOP_K).unwrap();
        assert_eq!(
            online.to_json(),
            offline.to_json(),
            "online and offline reports must be byte-identical"
        );
        assert!(online.source.tasks_finished > 0, "smoke run finishes tasks");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Same contract with the critical-path section on: the online
    /// segment-recording collector and an offline segment-recording
    /// replay produce byte-identical reports *including* `"crit"`, and
    /// byte-identical folded stacks.
    #[test]
    fn online_and_offline_critical_paths_agree() {
        let dir = std::env::temp_dir().join(format!("cbp-crit-analyze-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let trace = dir.join("trace.jsonl");
        let opts = TelemetryOptions {
            trace_out: Some(trace.to_str().unwrap().to_string()),
            critical_path: true,
            ..Default::default()
        };
        let (_, collector) = run_trace_sim(Scale::SMOKE, 11, &opts).unwrap();
        let online_c = collector.expect("collector installed").take();
        let online = ObsReport::build(&online_c, ANALYZE_TOP_K)
            .with_crit(&online_c)
            .unwrap();
        let offline_c = analyze_trace_collector(trace.to_str().unwrap(), true).unwrap();
        let offline = ObsReport::build(&offline_c, ANALYZE_TOP_K)
            .with_crit(&offline_c)
            .unwrap();
        assert_eq!(
            online.to_json(),
            offline.to_json(),
            "online and offline crit reports must be byte-identical"
        );
        assert!(
            online.to_json().contains("\"crit\":{"),
            "report must carry the crit section"
        );
        let online_folded =
            paths_to_folded(&cbp_obs::CritReport::extract_paths(&online_c).unwrap());
        let offline_folded =
            paths_to_folded(&cbp_obs::CritReport::extract_paths(&offline_c).unwrap());
        assert_eq!(online_folded, offline_folded);
        assert!(!online_folded.is_empty(), "smoke run yields folded stacks");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
