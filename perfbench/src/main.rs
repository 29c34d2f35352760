//! The cbp benchmark: three closed-loop, single-thread workloads over the
//! two simulators and the trace-analysis pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload trace_fig3|yarn_sweep|trace_analyze --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times the workload untraced and prints the end-to-end
//! metrics. `--trace 1` runs the same op list untraced, then again with
//! spans, the `cbp_prof` scopes and a counting tracer on, and prints the
//! per-layer metrics plus the tracing overhead. The last stdout line is
//! one JSON object: `{"correct","attempted","failed","metrics"}`.
//! `--write-digests` (default seed only) rewrites the stored output
//! digests of the workload. See NOTES.md for the design.

mod ops;
mod spans;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ops::{op_list, prepare, run_op, OpOutput, OpSpec, Pass, Workload, REGISTRY_COUNTERS};

#[global_allocator]
static ALLOC: cbp_prof::alloc::CountingAllocator = cbp_prof::alloc::CountingAllocator;

const DEFAULT_SEED: u64 = 42;
const DIGESTS: &str = "perfbench/digests.txt";
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    write_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 20;
    let mut trace = false;
    let mut write_digests = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-digests" {
            write_digests = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = num()?,
            "--seconds" => seconds = num()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if write_digests && seed != DEFAULT_SEED {
        return Err(format!(
            "--write-digests needs the default seed {DEFAULT_SEED}"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        write_digests,
    })
}

/// FNV-1a, 64 bit: a stable digest of an op's byte-stable output.
fn digest(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Stored digests of `workload`'s ops at the default seed, by op label.
fn load_digests(workload: Workload) -> Result<BTreeMap<String, String>, String> {
    let text = std::fs::read_to_string(DIGESTS).map_err(|e| format!("read {DIGESTS}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            match (f.next(), f.next(), f.next()) {
                (Some(w), Some(label), Some(d)) if w == workload.name() => {
                    Some((label.to_string(), d.to_string()))
                }
                _ => None,
            }
        })
        .collect())
}

fn write_digests(workload: Workload, results: &[OpResult]) -> Result<(), String> {
    let old = std::fs::read_to_string(DIGESTS).unwrap_or_default();
    let mut lines: Vec<String> = old
        .lines()
        .filter(|l| l.split_whitespace().next() != Some(workload.name()))
        .map(str::to_string)
        .collect();
    for r in results {
        lines.push(format!("{} {} {}", workload.name(), r.label, r.digest));
    }
    lines.sort();
    std::fs::write(DIGESTS, lines.join("\n") + "\n").map_err(|e| format!("write {DIGESTS}: {e}"))
}

/// One op's outcome in one pass.
struct OpResult {
    label: String,
    latency_s: f64,
    /// `None` if the op panicked.
    out: Option<OpOutput>,
    digest: String,
    /// Why the op failed, if it did.
    failure: Option<String>,
    /// The op produced an output that a check found wrong.
    wrong: bool,
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    e.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| e.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".into())
}

/// What one pass over the op list measured.
struct PassRun {
    results: Vec<OpResult>,
    /// Host seconds of the op loop, set-up batches excluded.
    wall_s: f64,
    /// The largest per-op allocator peak.
    alloc_peak: u64,
    /// Mean set-up seconds per op of each set-up batch.
    setup_batches: Vec<f64>,
}

/// Set-up batches per timed pass, and the set-up work one batch should
/// take on a 2-vCPU VM.
const SETUP_BATCHES: usize = 15;
const SETUP_BATCH_S: f64 = 0.05;

/// Ops per set-up batch: as many as `Workload::setup_cost_s` says fill
/// `SETUP_BATCH_S`, so that every commit does the same set-up work.
fn setup_batch_ops(w: Workload) -> usize {
    (SETUP_BATCH_S / w.setup_cost_s()).ceil() as usize
}

/// Sets up the op list from its start (cycling if it is short) and drops
/// each op unrun. Returns the mean set-up seconds per op.
fn setup_batch(w: Workload, ops: &[OpSpec]) -> f64 {
    let n = setup_batch_ops(w);
    let t = Instant::now();
    for op in ops.iter().cycle().take(n) {
        drop(prepare(w, op, Pass::Timed));
    }
    t.elapsed().as_secs_f64() / n as f64
}

/// Runs every op once in `pass`, applying the task and digest checks.
/// With `measure_setup`, `SETUP_BATCHES` set-up batches are spread evenly
/// between the ops, so that they see the host over the whole run as the
/// ops do; their time is left out of the pass's wall time.
fn run_pass(
    w: Workload,
    ops: &[OpSpec],
    pass: Pass,
    digests: &BTreeMap<String, String>,
    measure_setup: bool,
) -> PassRun {
    let mut results = Vec::with_capacity(ops.len());
    let mut alloc_peak = 0;
    let mut setup_batches = Vec::new();
    let mut paused_s = 0.0;
    let start = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        while measure_setup
            && setup_batches.len() < SETUP_BATCHES
            && setup_batches.len() * ops.len() / SETUP_BATCHES <= i
        {
            let t = Instant::now();
            setup_batches.push(setup_batch(w, ops));
            paused_s += t.elapsed().as_secs_f64();
        }
        spans::set_op(i as u32);
        cbp_prof::alloc::reset_peak();
        let live = cbp_prof::alloc::live_bytes();
        let t = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| {
            let _s = spans::span("op");
            run_op(w, op, pass)
        }));
        let latency_s = t.elapsed().as_secs_f64();
        alloc_peak = alloc_peak.max(cbp_prof::alloc::peak_bytes().saturating_sub(live));
        let mut r = OpResult {
            label: op.label.clone(),
            latency_s,
            out: None,
            digest: String::new(),
            failure: None,
            wrong: false,
        };
        match res {
            Err(e) => r.failure = Some(format!("panic: {}", panic_message(e.as_ref()))),
            Ok(mut out) => {
                // Keep only the digest, so retained results do not inflate
                // the peak RSS being measured.
                r.digest = digest(&std::mem::take(&mut out.output));
                if out.tasks_finished != out.tasks_expected {
                    r.wrong = true;
                    r.failure = Some(format!(
                        "{} of {} tasks finished",
                        out.tasks_finished, out.tasks_expected
                    ));
                } else if digests.get(&r.label).is_some_and(|d| *d != r.digest) {
                    r.wrong = true;
                    r.failure = Some(format!("output digest {} != stored", r.digest));
                } else {
                    r.failure = out.failure.clone();
                }
                r.out = Some(out);
            }
        }
        results.push(r);
    }
    PassRun {
        results,
        wall_s: start.elapsed().as_secs_f64() - paused_s,
        alloc_peak,
        setup_batches,
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it, and the
/// value there (nearest rank). Falls back to the maximum below 20 samples.
fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        if n * (1.0 - p / 100.0) >= 10.0 {
            let rank = ((p / 100.0) * n).ceil() as usize;
            return (p, v[rank.clamp(1, v.len()) - 1]);
        }
    }
    (100.0, v.last().copied().unwrap_or(0.0))
}

/// VmHWM of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".into())
}

/// Metrics in print order: name → (value, unit).
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", num(*v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

fn report_failures(results: &[OpResult]) {
    let failed: Vec<&OpResult> = results.iter().filter(|r| r.failure.is_some()).collect();
    println!(
        "failed_ops {} of {} ({:.1}%)",
        failed.len(),
        results.len(),
        100.0 * failed.len() as f64 / results.len().max(1) as f64
    );
    for r in failed {
        let kind = if r.wrong { "WRONG" } else { "failed" };
        println!(
            "  {kind} op {}: {}",
            r.label,
            r.failure.as_deref().unwrap_or("")
        );
    }
}

fn end_to_end(
    w: Workload,
    setup_s: f64,
    results: &[OpResult],
    wall_s: f64,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let lat_ms: Vec<f64> = results.iter().map(|r| r.latency_s * 1e3).collect();
    let p50 = median(&lat_ms);
    let rss = peak_rss_mb()?;
    println!("wall_s {wall_s:.3} s");
    println!(
        "setup_s {setup_s:.6} s (per op; median of {SETUP_BATCHES} batches of {} set-ups)",
        setup_batch_ops(w)
    );
    println!("peak_rss_mb {rss:.1} MB");
    println!("op_p50_ms {p50:.3} ms (n={})", lat_ms.len());
    println!(
        "rate {:.2} ops/s (label only: ops / wall_s)",
        results.len() as f64 / wall_s
    );
    metrics.add("wall_s", wall_s, "s");
    metrics.add("setup_s", setup_s, "s");
    metrics.add("peak_rss_mb", rss, "MB");
    metrics.add("op_p50_ms", p50, "ms");
    Ok(())
}

/// Per-layer counters summed over the traced pass's ops.
#[derive(Default)]
struct Totals {
    kinds: spans::KindCounts,
    registry: [u64; REGISTRY_COUNTERS.len()],
    incremental: u64,
    trace_bytes: u64,
    records: u64,
    malformed: u64,
}

/// The traced pass of a `--trace 1` run.
struct Traced {
    results: Vec<OpResult>,
    wall_s: f64,
    spans: Vec<spans::Span>,
    prof: cbp_prof::ProfReport,
    /// trace_analyze: summed `sim.run` seconds of the twins without the
    /// `JsonlTracer`.
    twin_run_s: Option<f64>,
}

fn per_layer(
    args: &Args,
    timed: &[OpResult],
    timed_wall: f64,
    alloc_peak: u64,
    tr: &Traced,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let (spans, prof, traced, traced_wall) = (&tr.spans, &tr.prof, &tr.results, tr.wall_s);
    let mut t = Totals::default();
    for out in traced.iter().filter_map(|r| r.out.as_ref()) {
        t.kinds.add(&out.kinds);
        for (sum, v) in t.registry.iter_mut().zip(out.counters) {
            *sum += v;
        }
        t.incremental += out.incremental;
        t.trace_bytes += out.trace_bytes;
        t.records += out.records;
        t.malformed += out.malformed;
    }
    let secs = |ns: u64| ns as f64 / 1e9;
    let scope = |metrics: &mut Metrics, name: &str, prefix: &str| {
        let (self_ns, calls) = spans::scope_totals(prof, name);
        metrics.add(format!("{prefix}.{name}_self_s"), secs(self_ns), "s");
        metrics.add(format!("{prefix}.{name}_calls"), calls as f64, "count");
        calls
    };
    metrics.add(
        "workload.gen_s",
        spans::span_secs(spans, "workload.generate"),
        "s",
    );
    let passes = scope(metrics, "schedule_pass", "core");
    scope(metrics, "preempt_victim", "core");
    let placements = t.kinds.get("task_schedule") as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    metrics.add(
        "core.placements_per_pass",
        ratio(placements, passes as f64),
        "ratio",
    );
    scope(metrics, "rm_schedule_pass", "yarn");
    scope(metrics, "preempt_decision", "yarn");
    scope(metrics, "criu_dump", "checkpoint");
    scope(metrics, "criu_restore", "checkpoint");
    scope(metrics, "device_submit", "storage");
    metrics.add("checkpoint.incremental", t.incremental as f64, "count");
    for ((_, name), v) in REGISTRY_COUNTERS.iter().zip(t.registry) {
        let unit = if name.ends_with("_bytes") {
            "bytes"
        } else {
            "count"
        };
        metrics.add(*name, v as f64, unit);
    }
    metrics.add(
        "faults.dump_fail_retries",
        t.kinds.dump_fail_retries as f64,
        "count",
    );
    metrics.add(
        "checkpoint.restores_per_dump",
        ratio(
            t.kinds.get("restore_done") as f64,
            t.kinds.get("dump_start") as f64,
        ),
        "ratio",
    );
    metrics.add(
        "simkit.dispatch_self_s",
        secs(spans::dispatch_self_ns(prof)),
        "s",
    );
    let emit_s = match tr.twin_run_s {
        Some(twin) => {
            timed
                .iter()
                .filter_map(|r| r.out.as_ref())
                .map(|o| o.run_s)
                .sum::<f64>()
                - twin
        }
        None => 0.0,
    };
    metrics.add("telemetry.emit_s", emit_s, "s");
    metrics.add(
        "telemetry.parse_s",
        spans::span_secs(spans, "telemetry.parse"),
        "s",
    );
    metrics.add("telemetry.trace_bytes", t.trace_bytes as f64, "bytes");
    metrics.add("telemetry.records", t.records as f64, "count");
    metrics.add("obs.collect_s", spans::span_secs(spans, "obs.collect"), "s");
    metrics.add("obs.report_s", spans::span_secs(spans, "obs.report"), "s");
    metrics.add("obs.crit_s", spans::span_secs(spans, "obs.crit"), "s");
    metrics.add("obs.malformed_records", t.malformed as f64, "count");
    metrics.add("alloc_peak_bytes", alloc_peak as f64, "bytes");
    let lat_ms: Vec<f64> = timed.iter().map(|r| r.latency_s * 1e3).collect();
    let (pct, tail_ms) = tail(&lat_ms);
    metrics.add("op_tail_ms", tail_ms, "ms");
    metrics.add("op_tail_pct", pct, "%");
    metrics.add("op_samples", lat_ms.len() as f64, "count");
    metrics.add(
        "trace_overhead_pct",
        100.0 * (traced_wall / timed_wall - 1.0),
        "%",
    );
    for kind in spans::RECORD_KINDS {
        metrics.add(format!("records.{kind}"), t.kinds.get(kind) as f64, "count");
    }

    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let stem = format!("{OUT_DIR}/{}-seed{}", args.workload.name(), args.seed);
    let files = [
        (format!("{stem}.spans.jsonl"), spans::spans_to_jsonl(spans)),
        (format!("{stem}.prof.json"), prof.to_json()),
    ];
    for (path, body) in files {
        std::fs::write(&path, body).map_err(|e| format!("write {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    println!("{}", prof.render());
    println!(
        "tracing overhead {:.1}% (traced pass {traced_wall:.3} s vs untraced {timed_wall:.3} s)",
        100.0 * (traced_wall / timed_wall - 1.0)
    );
    Ok(())
}

fn run(args: &Args) -> Result<(), String> {
    let w = args.workload;
    let ops = op_list(w, args.seed, args.seconds);
    let digests = if args.seed == DEFAULT_SEED && !args.write_digests {
        load_digests(w)?
    } else {
        BTreeMap::new()
    };
    println!(
        "workload {} seed {} seconds {} trace {} ops {}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        ops.len()
    );
    let run = run_pass(w, &ops, Pass::Timed, &digests, !args.trace);
    let (mut timed, timed_wall, alloc_peak) = (run.results, run.wall_s, run.alloc_peak);
    let mut metrics = Metrics(Vec::new());
    if args.trace {
        spans::start();
        let traced = run_pass(w, &ops, Pass::Traced, &digests, false);
        let (results, wall_s) = (traced.results, traced.wall_s);
        let (spans, prof) = spans::stop();
        // The traced pass must reproduce the timed pass's outputs exactly.
        for (a, b) in timed.iter_mut().zip(&results) {
            if a.out.is_some() && b.out.is_some() && a.digest != b.digest {
                a.wrong = true;
                a.failure = Some(format!("traced output {} != timed {}", b.digest, a.digest));
            } else if a.failure.is_none() {
                a.failure = b.failure.clone();
                a.wrong = b.wrong;
            }
        }
        let twin_run_s = (w == Workload::TraceAnalyze).then(|| {
            ops.iter()
                .map(|op| run_op(w, op, Pass::Twin).run_s)
                .sum::<f64>()
        });
        let tr = Traced {
            results,
            wall_s,
            spans,
            prof,
            twin_run_s,
        };
        per_layer(args, &timed, timed_wall, alloc_peak, &tr, &mut metrics)?;
    } else {
        let setup_s = median(&run.setup_batches);
        end_to_end(w, setup_s, &timed, timed_wall, &mut metrics)?;
    }
    report_failures(&timed);
    if args.write_digests {
        write_digests(w, &timed)?;
        eprintln!("wrote {DIGESTS}");
    }
    let failed = timed.iter().filter(|r| r.failure.is_some()).count();
    let correct = !timed.iter().any(|r| r.wrong);
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{}}}",
        timed.len(),
        metrics.to_json()
    );
    Ok(())
}

fn main() -> ExitCode {
    if !Path::new(DIGESTS).exists() {
        eprintln!("error: run from the repository root ({DIGESTS} not found)");
        return ExitCode::from(2);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
