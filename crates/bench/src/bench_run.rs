//! The `repro bench` perf harness: wall-clock benchmarks of the two
//! simulators over a fixed scenario matrix, written as schema-versioned
//! `BENCH_<scenario>.json` files that CI diffs across commits.
//!
//! Each scenario is a fully determined simulation (kind, scale, seed,
//! fault profile): sim *outputs* are byte-identical across runs, so the
//! event count is asserted stable while wall time is summarized as
//! median/MAD over `reps` repetitions (after `warmup` discarded runs).
//! One extra profiled repetition (never timed) collects the top self-time
//! scopes via `cbp-prof`, so every BENCH file records *where* the time
//! went next to *how much* there was.
//!
//! The emitted JSON separates `config` (what was run — compared exactly)
//! from `measured` (what it cost — compared direction-aware within
//! `--tol-pct`): wall time and allocator peak may not rise beyond
//! tolerance, throughput may not fall, and the event count and (for trace
//! scenarios) the scheduling-pass work counters must match exactly.
//! Getting *faster* never fails the gate.

use std::time::Instant;

use cbp_core::{ClusterSim, PassWork, PreemptionPolicy, TelemetryReport};
use cbp_faults::FaultSpec;
use cbp_storage::MediaKind;
use cbp_telemetry::json::{self, Value};
use cbp_workload::facebook::FacebookConfig;
use cbp_yarn::{YarnConfig, YarnSim};

use crate::experiments::google_setup;
use crate::Scale;

/// Schema tag stamped into every BENCH json document.
pub const BENCH_SCHEMA: &str = "cbp-bench";
/// Schema version stamped into every BENCH json document.
pub const BENCH_VERSION: u64 = 1;

/// Scopes listed in the `top_scopes` breakdown of each BENCH file.
pub const TOP_SCOPES: usize = 10;

/// Which simulator a scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimKind {
    /// The Google-trace cluster simulator (fig. 3 family).
    Trace,
    /// The YARN protocol simulator (fig. 8 family).
    Yarn,
}

impl SimKind {
    fn name(&self) -> &'static str {
        match self {
            SimKind::Trace => "trace",
            SimKind::Yarn => "yarn",
        }
    }
}

/// One fully determined benchmark scenario.
#[derive(Debug, Clone)]
pub struct BenchScenario {
    /// Stable name; the BENCH file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Which simulator to drive.
    pub kind: SimKind,
    /// Workload/cluster scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Fault profile (`None` = no fault plan attached).
    pub faults: Option<&'static str>,
}

impl BenchScenario {
    fn fault_spec(&self) -> Option<FaultSpec> {
        self.faults
            .map(|s| FaultSpec::parse(s).expect("matrix fault profiles are valid"))
    }
}

/// The quick matrix CI runs on every push: one scenario per simulator at
/// smoke scale.
pub fn tiny_matrix() -> Vec<BenchScenario> {
    vec![
        BenchScenario {
            name: "fig3_smoke",
            kind: SimKind::Trace,
            scale: Scale::SMOKE,
            seed: 42,
            faults: None,
        },
        BenchScenario {
            name: "fig8_smoke",
            kind: SimKind::Yarn,
            scale: Scale::SMOKE,
            seed: 42,
            faults: None,
        },
    ]
}

/// The full matrix for tracking the perf trajectory: both simulators,
/// two sizes, with and without a light fault plan, plus one correlated
/// crash/partition chaos scenario and the paper's full 8×24 YARN setup.
pub fn standard_matrix() -> Vec<BenchScenario> {
    vec![
        BenchScenario {
            name: "fig3_small",
            kind: SimKind::Trace,
            scale: Scale::SMOKE,
            seed: 42,
            faults: None,
        },
        BenchScenario {
            name: "fig3_large",
            kind: SimKind::Trace,
            scale: Scale::SMALL,
            seed: 42,
            faults: None,
        },
        BenchScenario {
            name: "fig3_small_faults",
            kind: SimKind::Trace,
            scale: Scale::SMOKE,
            seed: 42,
            faults: Some("light"),
        },
        BenchScenario {
            name: "fig8_small",
            kind: SimKind::Yarn,
            scale: Scale::SMOKE,
            seed: 42,
            faults: None,
        },
        BenchScenario {
            name: "fig8_large",
            kind: SimKind::Yarn,
            scale: Scale::SMALL,
            seed: 42,
            faults: None,
        },
        BenchScenario {
            name: "fig8_full",
            kind: SimKind::Yarn,
            scale: Scale::FULL,
            seed: 42,
            faults: None,
        },
        BenchScenario {
            name: "fig8_small_faults",
            kind: SimKind::Yarn,
            scale: Scale::SMOKE,
            seed: 42,
            faults: Some("light"),
        },
        BenchScenario {
            name: "fig3_small_chaos",
            kind: SimKind::Trace,
            scale: Scale::SMOKE,
            seed: 42,
            faults: Some("chaos"),
        },
    ]
}

/// Looks a scenario up by name across both matrices.
pub fn find_scenario(name: &str) -> Option<BenchScenario> {
    standard_matrix()
        .into_iter()
        .chain(tiny_matrix())
        .find(|s| s.name == name)
}

/// Repetition policy for [`run_scenario`].
#[derive(Debug, Clone, Copy)]
pub struct BenchOptions {
    /// Timed repetitions (median/MAD computed over these).
    pub reps: usize,
    /// Discarded warm-up repetitions before timing starts.
    pub warmup: usize,
}

impl Default for BenchOptions {
    fn default() -> Self {
        BenchOptions { reps: 3, warmup: 1 }
    }
}

/// One ranked entry of the per-scenario profile breakdown.
#[derive(Debug, Clone)]
pub struct TopScope {
    /// Slash-joined scope path (`rm_schedule/device_submit`).
    pub path: String,
    /// Times the path was entered during the profiled repetition.
    pub calls: u64,
    /// Self wall time of the profiled repetition, milliseconds.
    pub self_ms: f64,
    /// Self share of the profiled repetition's total scope time, percent.
    pub self_pct: f64,
}

/// Everything measured for one scenario.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// The scenario that was run.
    pub scenario: BenchScenario,
    /// The repetition policy used.
    pub opts: BenchOptions,
    /// Events the engine processed (identical every repetition).
    pub events: u64,
    /// Work of the scheduling passes (trace scenarios only; identical
    /// every repetition).
    pub work: Option<PassWork>,
    /// Median wall time of the timed repetitions, milliseconds.
    pub median_wall_ms: f64,
    /// Median absolute deviation of the wall times, milliseconds.
    pub mad_wall_ms: f64,
    /// Engine throughput at the median wall time, events per second.
    pub events_per_sec: f64,
    /// Allocator high-water mark over one repetition (bytes); `None`
    /// unless built with the `count-alloc` feature.
    pub alloc_peak_bytes: Option<u64>,
    /// Top self-time scopes from the profiled repetition.
    pub top_scopes: Vec<TopScope>,
}

/// Runs one repetition of `s`, returning its engine report.
fn run_once(s: &BenchScenario) -> TelemetryReport {
    match s.kind {
        SimKind::Trace => {
            let (workload, base) = google_setup(s.scale, s.seed);
            let mut cfg = base.with_policy(PreemptionPolicy::Adaptive);
            if let Some(spec) = s.fault_spec() {
                cfg = cfg.with_faults(spec);
            }
            ClusterSim::new(cfg, workload).run().telemetry
        }
        SimKind::Yarn => {
            let nodes = s.scale.apply(8, 2);
            let slots = nodes * 24;
            let workload = FacebookConfig {
                jobs: s.scale.apply(40, 10),
                total_tasks: s.scale.apply(7_000, 260),
                giant_job_tasks: (slots as f64 * 1.3) as usize,
                ..Default::default()
            }
            .generate(s.seed);
            let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd);
            cfg.nodes = nodes;
            if let Some(spec) = s.fault_spec() {
                cfg = cfg.with_faults(spec);
            }
            YarnSim::new(cfg, workload).run().telemetry
        }
    }
}

#[cfg(feature = "count-alloc")]
fn alloc_peak_of(s: &BenchScenario) -> Option<u64> {
    cbp_prof::alloc::reset_peak();
    let _ = run_once(s);
    Some(cbp_prof::alloc::peak_bytes())
}

#[cfg(not(feature = "count-alloc"))]
fn alloc_peak_of(_s: &BenchScenario) -> Option<u64> {
    None
}

/// Benchmarks one scenario: `warmup` discarded runs, one profiled run
/// (feeding `top_scopes`, never timed), then `reps` timed runs.
pub fn run_scenario(s: &BenchScenario, opts: BenchOptions) -> BenchResult {
    assert!(opts.reps >= 1, "need at least one timed repetition");
    for _ in 0..opts.warmup {
        let _ = run_once(s);
    }

    // Profiled repetition: collects the scope tree. Kept out of the timed
    // set so profiler bookkeeping never skews the reported wall numbers.
    cbp_prof::start(cbp_prof::ProfOptions::default());
    let _ = run_once(s);
    let profile = cbp_prof::stop().expect("profiler started above");
    let scope_total: u64 = profile.top_self(usize::MAX).iter().map(|f| f.self_ns).sum();
    let top_scopes: Vec<TopScope> = profile
        .top_self(TOP_SCOPES)
        .into_iter()
        .map(|f| TopScope {
            path: f.path,
            calls: f.calls,
            self_ms: f.self_ns as f64 / 1e6,
            self_pct: if scope_total > 0 {
                f.self_ns as f64 * 100.0 / scope_total as f64
            } else {
                0.0
            },
        })
        .collect();

    let alloc_peak_bytes = alloc_peak_of(s);

    let mut walls_ms = Vec::with_capacity(opts.reps);
    let mut events = 0u64;
    let mut work = None;
    for rep in 0..opts.reps {
        let start = Instant::now();
        let t = run_once(s);
        walls_ms.push(start.elapsed().as_secs_f64() * 1e3);
        if rep == 0 {
            events = t.engine_events;
            work = t.pass_work;
        } else {
            assert_eq!(
                events, t.engine_events,
                "simulation must be deterministic: event count changed between reps"
            );
            assert_eq!(
                work, t.pass_work,
                "simulation must be deterministic: pass work changed between reps"
            );
        }
    }
    let median_wall_ms = median(&mut walls_ms);
    let mut deviations: Vec<f64> = walls_ms
        .iter()
        .map(|w| (w - median_wall_ms).abs())
        .collect();
    let mad_wall_ms = median(&mut deviations);
    let events_per_sec = if median_wall_ms > 0.0 {
        events as f64 / (median_wall_ms / 1e3)
    } else {
        0.0
    };

    BenchResult {
        scenario: s.clone(),
        opts,
        events,
        work,
        median_wall_ms,
        mad_wall_ms,
        events_per_sec,
        alloc_peak_bytes,
        top_scopes,
    }
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

impl BenchResult {
    /// Serializes as a BENCH json document: fixed key order, `config`
    /// (exact-match fields) strictly separated from `measured`
    /// (tolerance-compared fields).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        json::push_key(&mut out, "schema");
        json::push_str_escaped(&mut out, BENCH_SCHEMA);
        out.push(',');
        json::push_key(&mut out, "version");
        json::push_u64(&mut out, BENCH_VERSION);
        out.push(',');
        json::push_key(&mut out, "config");
        out.push('{');
        json::push_key(&mut out, "scenario");
        json::push_str_escaped(&mut out, self.scenario.name);
        out.push(',');
        json::push_key(&mut out, "sim");
        json::push_str_escaped(&mut out, self.scenario.kind.name());
        out.push(',');
        json::push_key(&mut out, "scale");
        json::push_f64(&mut out, self.scenario.scale.factor);
        out.push(',');
        json::push_key(&mut out, "seed");
        json::push_u64(&mut out, self.scenario.seed);
        out.push(',');
        json::push_key(&mut out, "faults");
        json::push_str_escaped(&mut out, self.scenario.faults.unwrap_or("off"));
        out.push(',');
        json::push_key(&mut out, "reps");
        json::push_u64(&mut out, self.opts.reps as u64);
        out.push(',');
        json::push_key(&mut out, "warmup");
        json::push_u64(&mut out, self.opts.warmup as u64);
        out.push_str("},");
        json::push_key(&mut out, "measured");
        out.push('{');
        json::push_key(&mut out, "events");
        json::push_u64(&mut out, self.events);
        out.push(',');
        if let Some(work) = &self.work {
            json::push_key(&mut out, "work");
            out.push('{');
            for (i, (key, value)) in work.fields().into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::push_key(&mut out, key);
                json::push_u64(&mut out, value);
            }
            out.push_str("},");
        }
        json::push_key(&mut out, "median_wall_ms");
        json::push_f64(&mut out, self.median_wall_ms);
        out.push(',');
        json::push_key(&mut out, "mad_wall_ms");
        json::push_f64(&mut out, self.mad_wall_ms);
        out.push(',');
        json::push_key(&mut out, "events_per_sec");
        json::push_f64(&mut out, self.events_per_sec);
        out.push(',');
        json::push_key(&mut out, "alloc_peak_bytes");
        match self.alloc_peak_bytes {
            Some(b) => json::push_u64(&mut out, b),
            None => out.push_str("null"),
        }
        out.push(',');
        json::push_key(&mut out, "top_scopes");
        out.push('[');
        for (i, t) in self.top_scopes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('{');
            json::push_key(&mut out, "path");
            json::push_str_escaped(&mut out, &t.path);
            out.push(',');
            json::push_key(&mut out, "calls");
            json::push_u64(&mut out, t.calls);
            out.push(',');
            json::push_key(&mut out, "self_ms");
            json::push_f64(&mut out, t.self_ms);
            out.push(',');
            json::push_key(&mut out, "self_pct");
            json::push_f64(&mut out, t.self_pct);
            out.push('}');
        }
        out.push_str("]}}");
        out
    }

    /// One-line human summary for the `repro bench` console output.
    pub fn render_line(&self) -> String {
        let alloc = match self.alloc_peak_bytes {
            Some(b) => format!("  peak {:.1} MiB", b as f64 / (1024.0 * 1024.0)),
            None => String::new(),
        };
        format!(
            "{:<20} {:>8} events  median {:>9.1} ms (±{:.1} MAD)  {:>10.0} events/s{}",
            self.scenario.name,
            self.events,
            self.median_wall_ms,
            self.mad_wall_ms,
            self.events_per_sec,
            alloc
        )
    }
}

// ---------------------------------------------------------------------------
// Regression checking

/// Direction-aware verdict for one measured metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchVerdict {
    /// Within tolerance (or changed in the good direction).
    Pass,
    /// Changed in the bad direction beyond tolerance.
    Regressed,
}

/// One compared metric in a [`BenchDiff`].
#[derive(Debug, Clone)]
pub struct BenchDiffRow {
    /// Metric key (as in the `measured` object).
    pub metric: &'static str,
    /// Baseline value.
    pub baseline: f64,
    /// Candidate value.
    pub candidate: f64,
    /// Signed change in percent (positive = candidate larger).
    pub delta_pct: f64,
    /// Verdict under the tolerance.
    pub verdict: BenchVerdict,
}

/// The result of checking a candidate BENCH file against a baseline.
#[derive(Debug, Clone)]
pub struct BenchDiff {
    /// Scenario name both files describe.
    pub scenario: String,
    /// Per-metric comparisons.
    pub rows: Vec<BenchDiffRow>,
}

impl BenchDiff {
    /// True if any metric regressed.
    pub fn regressed(&self) -> bool {
        self.rows
            .iter()
            .any(|r| r.verdict == BenchVerdict::Regressed)
    }

    /// Renders the comparison as an aligned table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "bench check: {}", self.scenario);
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<18} {:>14.3} -> {:>14.3}  {:>+8.2}%  {}",
                r.metric,
                r.baseline,
                r.candidate,
                r.delta_pct,
                match r.verdict {
                    BenchVerdict::Pass => "ok",
                    BenchVerdict::Regressed => "REGRESSED",
                }
            );
        }
        out
    }
}

/// How a metric is allowed to move. `LowerIsBetter` fails when the
/// candidate *rises* past tolerance, `HigherIsBetter` when it *falls*,
/// `Exact` on any difference (tolerance ignored).
enum Direction {
    LowerIsBetter,
    HigherIsBetter,
    Exact,
}

fn get_f64(v: &Value, section: &str, key: &str) -> Result<Option<f64>, String> {
    let field = v
        .get(section)
        .and_then(|s| s.get(key))
        .ok_or_else(|| format!("missing {section}.{key}"))?;
    if *field == Value::Null {
        return Ok(None);
    }
    field
        .as_f64()
        .map(Some)
        .ok_or_else(|| format!("{section}.{key} is not a number"))
}

fn get_str(v: &Value, section: &str, key: &str) -> Result<String, String> {
    v.get(section)
        .and_then(|s| s.get(key))
        .and_then(|f| f.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing {section}.{key}"))
}

/// Checks `candidate` against `baseline` (both BENCH json texts) at
/// `tol_pct` percent tolerance.
///
/// The `config` objects must match exactly — comparing different
/// scenarios, seeds or scales is an error, not a regression. Within
/// `measured`, wall time and allocator peak may rise at most `tol_pct`
/// percent, throughput may fall at most `tol_pct` percent, and the event
/// count must be identical (the simulators are deterministic; a change
/// means the engine did different work, which no tolerance excuses). So
/// must every counter of the `work` object, which trace scenarios carry.
///
/// # Errors
///
/// Returns an error for malformed/mismatched documents (wrong schema or
/// version, different configs, missing fields, a `work` object on one
/// side only).
pub fn check_bench_files(
    baseline: &str,
    candidate: &str,
    tol_pct: f64,
) -> Result<BenchDiff, String> {
    let base = json::parse(baseline).ok_or("baseline: not valid JSON")?;
    let cand = json::parse(candidate).ok_or("candidate: not valid JSON")?;

    for (name, v) in [("baseline", &base), ("candidate", &cand)] {
        let schema = v.get("schema").and_then(|s| s.as_str());
        if schema != Some(BENCH_SCHEMA) {
            return Err(format!("{name}: not a {BENCH_SCHEMA} document"));
        }
        let version = v.get("version").and_then(|s| s.as_u64());
        if version != Some(BENCH_VERSION) {
            return Err(format!(
                "{name}: unsupported schema version {version:?} (want {BENCH_VERSION})"
            ));
        }
    }
    for key in ["scenario", "sim", "faults"] {
        let b = get_str(&base, "config", key)?;
        let c = get_str(&cand, "config", key)?;
        if b != c {
            return Err(format!(
                "config.{key} differs: baseline {b:?} vs candidate {c:?}"
            ));
        }
    }
    for key in ["scale", "seed"] {
        let b = get_f64(&base, "config", key)?;
        let c = get_f64(&cand, "config", key)?;
        if b != c {
            return Err(format!(
                "config.{key} differs: baseline {b:?} vs candidate {c:?}"
            ));
        }
    }

    let metrics: [(&'static str, Direction); 4] = [
        ("events", Direction::Exact),
        ("median_wall_ms", Direction::LowerIsBetter),
        ("events_per_sec", Direction::HigherIsBetter),
        ("alloc_peak_bytes", Direction::LowerIsBetter),
    ];
    let mut rows = Vec::new();
    for (key, dir) in metrics {
        let b = get_f64(&base, "measured", key)?;
        let c = get_f64(&cand, "measured", key)?;
        let (b, c) = match (b, c) {
            (Some(b), Some(c)) => (b, c),
            // Allocator peak is null without `count-alloc`; skip the row
            // when either side lacks it rather than failing the gate.
            (None, _) | (_, None) if key == "alloc_peak_bytes" => continue,
            _ => return Err(format!("measured.{key} is null")),
        };
        let delta_pct = if b != 0.0 { (c - b) * 100.0 / b } else { 0.0 };
        let verdict = match dir {
            Direction::Exact if c != b => BenchVerdict::Regressed,
            Direction::LowerIsBetter if delta_pct > tol_pct => BenchVerdict::Regressed,
            Direction::HigherIsBetter if delta_pct < -tol_pct => BenchVerdict::Regressed,
            _ => BenchVerdict::Pass,
        };
        rows.push(BenchDiffRow {
            metric: key,
            baseline: b,
            candidate: c,
            delta_pct,
            verdict,
        });
    }
    let work = |v: &Value| v.get("measured").and_then(|m| m.get("work")).cloned();
    match (work(&base), work(&cand)) {
        (None, None) => {}
        (Some(b), Some(c)) => {
            for (key, metric) in WORK_ROWS {
                let b = work_counter(&b, key)?;
                let c = work_counter(&c, key)?;
                let delta_pct = if b != 0.0 { (c - b) * 100.0 / b } else { 0.0 };
                rows.push(BenchDiffRow {
                    metric,
                    baseline: b,
                    candidate: c,
                    delta_pct,
                    verdict: if c == b {
                        BenchVerdict::Pass
                    } else {
                        BenchVerdict::Regressed
                    },
                });
            }
        }
        (Some(_), None) => return Err("measured.work is in the baseline only".into()),
        (None, Some(_)) => return Err("measured.work is in the candidate only".into()),
    }
    Ok(BenchDiff {
        scenario: get_str(&base, "config", "scenario")?,
        rows,
    })
}

/// The `work` counters [`check_bench_files`] compares, with their row
/// names (the keys of [`PassWork::fields`]).
const WORK_ROWS: [(&str, &str); 6] = [
    ("passes", "work.passes"),
    ("keys_scanned", "work.keys_scanned"),
    ("keys_visited", "work.keys_visited"),
    ("keys_jumped", "work.keys_jumped"),
    ("walk_draws", "work.walk_draws"),
    ("searches", "work.searches"),
];

fn work_counter(work: &Value, key: &str) -> Result<f64, String> {
    work.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("measured.work.{key} is missing or not a number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_result() -> BenchResult {
        run_scenario(
            &BenchScenario {
                name: "fig3_smoke",
                kind: SimKind::Trace,
                scale: Scale::SMOKE,
                seed: 7,
                faults: None,
            },
            BenchOptions { reps: 1, warmup: 0 },
        )
    }

    #[test]
    fn bench_json_is_schema_tagged_and_valid() {
        let r = smoke_result();
        let j = r.to_json();
        assert!(j.starts_with("{\"schema\":\"cbp-bench\",\"version\":1,"));
        assert!(cbp_telemetry::json::is_valid(&j));
        assert!(r.events > 0);
        assert!(r.median_wall_ms > 0.0);
        assert!(r.events_per_sec > 0.0);
        assert!(!r.top_scopes.is_empty(), "profiled rep yields scopes");
        // The engine wraps every event in an event_kind scope, so the
        // breakdown must contain at least one ClusterSim kind.
        assert!(
            r.top_scopes
                .iter()
                .any(|t| t.path.starts_with("task_finish")
                    || t.path.starts_with("job_submit")
                    || t.path.contains("schedule_pass")),
            "expected simulator scopes, got {:?}",
            r.top_scopes.iter().map(|t| &t.path).collect::<Vec<_>>()
        );
    }

    #[test]
    fn self_check_at_zero_tolerance_passes() {
        let j = smoke_result().to_json();
        let diff = check_bench_files(&j, &j, 0.0).expect("same file must compare");
        assert!(!diff.regressed(), "{}", diff.render());
    }

    #[test]
    fn perturbed_candidate_fails_direction_aware() {
        let j = smoke_result().to_json();
        // 2x wall time: regression.
        let slow = perturb(&j, "median_wall_ms", 2.0);
        let diff = check_bench_files(&j, &slow, 10.0).unwrap();
        assert!(diff.regressed());
        // Half the wall time: an improvement, never a regression.
        let fast = perturb(&j, "median_wall_ms", 0.5);
        let diff = check_bench_files(&j, &fast, 10.0).unwrap();
        assert!(!diff.regressed(), "{}", diff.render());
        // Throughput drop: regression (higher-is-better direction).
        let starved = perturb(&j, "events_per_sec", 0.5);
        let diff = check_bench_files(&j, &starved, 10.0).unwrap();
        assert!(diff.regressed());
    }

    #[test]
    fn pass_work_is_written_and_compared_exactly() {
        let r = smoke_result();
        let work = r.work.expect("trace scenarios count their pass work");
        assert!(work.passes > 0 && work.keys_scanned > 0);
        assert_eq!(work.keys_scanned, work.keys_visited + work.keys_jumped);
        let j = r.to_json();
        let field = format!("\"passes\":{},", work.passes);
        assert!(j.contains(&field), "{j}");
        // One pass more is a behaviour change, whatever the tolerance.
        let more = j.replace(&field, &format!("\"passes\":{},", work.passes + 1));
        let diff = check_bench_files(&j, &more, 300.0).unwrap();
        assert!(diff.regressed(), "{}", diff.render());
        // A work object on one side only is a config error.
        let start = j.find("\"work\":{").unwrap();
        let end = start + j[start..].find("},").unwrap() + 2;
        let without = format!("{}{}", &j[..start], &j[end..]);
        assert!(check_bench_files(&without, &without, 0.0).is_ok());
        let err = check_bench_files(&j, &without, 0.0).unwrap_err();
        assert!(err.contains("baseline only"), "{err}");
        let err = check_bench_files(&without, &j, 0.0).unwrap_err();
        assert!(err.contains("candidate only"), "{err}");
    }

    #[test]
    fn work_rows_name_every_counter() {
        let keys = PassWork::default().fields().map(|(k, _)| k);
        assert_eq!(keys, WORK_ROWS.map(|(k, _)| k));
        for (key, metric) in WORK_ROWS {
            assert_eq!(metric, format!("work.{key}"));
        }
    }

    #[test]
    fn config_mismatch_is_an_error_not_a_regression() {
        let a = smoke_result().to_json();
        let b = a.replace("\"seed\":7", "\"seed\":8");
        let err = check_bench_files(&a, &b, 50.0).unwrap_err();
        assert!(err.contains("config.seed"), "{err}");
        let c = a.replace("\"schema\":\"cbp-bench\"", "\"schema\":\"other\"");
        assert!(check_bench_files(&a, &c, 50.0).is_err());
    }

    #[test]
    fn matrices_have_unique_findable_names() {
        let mut names: Vec<&str> = standard_matrix()
            .iter()
            .chain(tiny_matrix().iter())
            .map(|s| s.name)
            .collect();
        names.sort_unstable();
        let len = names.len();
        names.dedup();
        assert_eq!(len, names.len(), "scenario names must be unique");
        for n in names {
            assert!(find_scenario(n).is_some(), "{n} must be findable");
        }
    }

    /// Multiplies the value of `key` in the `measured` object by `factor`.
    fn perturb(json: &str, key: &str, factor: f64) -> String {
        let v = json::parse(json).unwrap();
        let old = v
            .get("measured")
            .and_then(|m| m.get(key))
            .and_then(|x| x.as_f64())
            .unwrap();
        let needle = {
            let mut s = String::new();
            cbp_telemetry::json::push_key(&mut s, key);
            cbp_telemetry::json::push_f64(&mut s, old);
            s
        };
        let replacement = {
            let mut s = String::new();
            cbp_telemetry::json::push_key(&mut s, key);
            cbp_telemetry::json::push_f64(&mut s, old * factor);
            s
        };
        let out = json.replace(&needle, &replacement);
        assert_ne!(out, *json, "perturbation must change the document");
        out
    }
}
