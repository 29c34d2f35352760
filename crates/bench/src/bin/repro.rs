//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment-id|all> [--scale full|small|smoke|<0..1>] [--seed N] [--md PATH] [--json PATH]
//!       [--trace-out PATH] [--chrome-trace PATH] [--timeseries PATH] [--telemetry]
//!       [--analyze PATH] [--critical-path] [--flamegraph-out PATH] [--what-if SCENARIO]
//!       [--faults SPEC] [--no-lifecycle]
//! repro analyze <trace.jsonl> [--report PATH] [--baseline PATH] [--tol-rel F] [--tol-abs-us F]
//!       [--critical-path] [--flamegraph-out PATH] [--what-if SCENARIO]
//! ```
//!
//! Experiment ids: fig1 table1 table2 fig2 table3 fig3 fig4 fig5 fig6
//! fig8 fig9 fig10 fig11 fig12 ablate mapreduce qos faults.
//!
//! `--faults SPEC` attaches a deterministic fault plan (a chaos profile
//! `off`/`light`/`heavy`/`chaos`, optionally tuned: `heavy,seed=7,dump=0.3`
//! or `chaos,crash=0.2,rack=0.1,partition=0.3,breaker=0.5`) to the
//! instrumented run, so chaos runs can be traced, analyzed, and
//! replayed byte-identically. The `chaos` profile layers failure-domain
//! chaos (correlated node/rack crash-recover cycles, rack partitions)
//! and the checkpoint-path circuit breaker on top of `heavy`; the
//! `pressure` profile shrinks every node's checkpoint store and leaks
//! reservations into it (keys: `cap`, `leak`, `leak-gb`, `leak-window`),
//! exercising the image-lifecycle GC → evict → spill ladder.
//! `--no-lifecycle` disables that ladder for ablation.
//!
//! The telemetry flags add **one instrumented run** of the requested
//! experiment's simulation (see `cbp_bench::telemetry_run`); without them
//! no tracing code runs at all. Unknown flags are rejected.
//!
//! `repro analyze` replays a `--trace-out` JSONL file offline through the
//! `cbp-obs` span collector and prints the same penalty analysis that
//! `--analyze` produces online — the two reports are byte-identical for
//! the same run. With `--baseline` it diffs against an archived report
//! and exits 1 on a regression verdict.
//!
//! Exit codes: 0 on success; 1 on a regression verdict (`analyze
//! --baseline`, `bench --check`); 2 on a usage or input error, including
//! a `--scale` that leaves a Google-trace experiment an empty workload
//! (`repro fig3 --scale 1e-9`), which would otherwise print all-zero
//! tables; 3 when writing a `--trace-out` or `--chrome-trace` file fails
//! mid-run (`--trace-out /dev/full`): the run completes, and the file
//! ends at the failed write.

use std::fmt::Write as _;

use cbp_bench::{
    analyze_trace_collector, check_bench_files, check_scale, emit_crit_extras, experiments_json,
    find_scenario, run_all, run_instrumented, run_one, run_scenario, standard_matrix, tiny_matrix,
    BenchOptions, Scale, TelemetryOptions, ANALYZE_TOP_K, EXPERIMENT_IDS,
};
use cbp_obs::{diff_reports, ObsReport, Tolerances, Verdict, WhatIf};

// Installed only for allocator-peak benchmarking: every BENCH json then
// reports `alloc_peak_bytes` instead of null.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static ALLOC: cbp_prof::alloc::CountingAllocator = cbp_prof::alloc::CountingAllocator;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        usage();
        return;
    }
    if args[0] == "--list" {
        for id in EXPERIMENT_IDS {
            println!("{id}");
        }
        return;
    }
    if args[0] == "analyze" {
        analyze_cmd(&args[1..]);
        return;
    }
    if args[0] == "bench" {
        bench_cmd(&args[1..]);
        return;
    }

    let id = args[0].clone();
    let mut scale = Scale::SMALL;
    let mut seed = 42u64;
    let mut md_path: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut telemetry = TelemetryOptions::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("invalid --scale value"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("invalid --seed value"));
            }
            "--md" => {
                i += 1;
                md_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --md path")),
                );
            }
            "--json" => {
                i += 1;
                json_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --json path")),
                );
            }
            "--trace-out" => {
                i += 1;
                telemetry.trace_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --trace-out path")),
                );
            }
            "--chrome-trace" => {
                i += 1;
                telemetry.chrome_trace = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --chrome-trace path")),
                );
            }
            "--timeseries" => {
                i += 1;
                telemetry.timeseries = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --timeseries path")),
                );
            }
            "--telemetry" => {
                telemetry.telemetry = true;
            }
            "--analyze" => {
                i += 1;
                telemetry.analyze = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --analyze path")),
                );
            }
            "--critical-path" => {
                telemetry.critical_path = true;
            }
            "--flamegraph-out" => {
                i += 1;
                telemetry.flamegraph_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --flamegraph-out path")),
                );
            }
            "--what-if" => {
                i += 1;
                let spec = args.get(i).unwrap_or_else(|| {
                    die("missing --what-if scenario (dump0|iobw-inf|faults-off)")
                });
                telemetry.what_if.push(
                    WhatIf::parse(spec)
                        .unwrap_or_else(|| die(&format!("unknown --what-if scenario '{spec}'"))),
                );
            }
            "--faults" => {
                i += 1;
                let spec = args.get(i).unwrap_or_else(|| {
                    die("missing --faults spec (off|light|heavy|chaos|key=value,...)")
                });
                telemetry.faults =
                    Some(cbp_faults::FaultSpec::parse(spec).unwrap_or_else(|e| die(&e)));
            }
            "--no-lifecycle" => {
                telemetry.no_lifecycle = true;
            }
            "--no-resume" => {
                telemetry.no_resume = true;
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }

    if telemetry.any() && id == "all" {
        die("telemetry flags need a single experiment id, not 'all'");
    }
    if telemetry.faults.is_some() && !telemetry.any() {
        die(
            "--faults applies to the instrumented run; add a telemetry sink \
             (--trace-out/--chrome-trace/--timeseries/--telemetry/--analyze)",
        );
    }
    if telemetry.no_lifecycle && !telemetry.any() {
        die(
            "--no-lifecycle applies to the instrumented run; add a telemetry sink \
             (--trace-out/--chrome-trace/--timeseries/--telemetry/--analyze)",
        );
    }
    if telemetry.no_resume && telemetry.faults.is_none() {
        die("--no-resume is an ablation of the fault plan's chunked resume; add --faults SPEC");
    }

    if let Err(e) = check_scale(&id, scale, seed) {
        die(&e.to_string());
    }
    let experiments = if id == "all" {
        run_all(scale, seed)
    } else {
        match run_one(&id, scale, seed) {
            Some(e) => vec![e],
            None => die(&format!(
                "unknown experiment '{id}'; valid: all {}",
                EXPERIMENT_IDS.join(" ")
            )),
        }
    };

    for exp in &experiments {
        println!("################ {} ################", exp.id);
        println!("paper: {}\n", exp.paper_claim);
        for t in &exp.tables {
            println!("{}", t.text());
        }
    }

    if telemetry.any() {
        match run_instrumented(&id, scale, seed, &telemetry) {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("warning: '{id}' is analytic (no simulation); telemetry flags ignored")
            }
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(e.exit_code());
            }
        }
    }

    if let Some(path) = json_path {
        std::fs::write(&path, experiments_json(&experiments))
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    }

    if let Some(path) = md_path {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Reproduced experiments\n\nGenerated by `repro all --scale {} --seed {seed}`. \
             Absolute numbers come from the simulated substrates; compare *shapes* \
             (orderings, crossovers, rough factors) against the paper's anchors quoted \
             with each experiment.\n\nAll tables report *simulated* time. For the \
             simulators' own wall-clock cost — events/sec, per-scope self time, \
             the `BENCH_*.json` trajectory and its regression gate — see `repro bench` \
             (README \"Perf\" section, DESIGN.md §5.2) and the `telemetry_overhead` \
             Criterion bench's throughput report.\n",
            scale.factor
        );
        for exp in &experiments {
            out.push_str(&exp.markdown());
        }
        std::fs::write(&path, out).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// `repro bench` — the wall-clock perf harness.
///
/// ```text
/// repro bench [--matrix tiny|standard] [--scenario NAME]... [--reps N]
///             [--warmup N] [--out DIR] [--profile]
/// repro bench --check <baseline.json> --candidate <candidate.json> [--tol-pct P]
/// ```
///
/// Run mode benchmarks each scenario and writes `BENCH_<scenario>.json`
/// under `--out` (default: current directory). Check mode compares two
/// BENCH files direction-aware and exits 1 on regression.
fn bench_cmd(args: &[String]) {
    let mut matrix: Option<String> = None;
    let mut scenarios: Vec<String> = Vec::new();
    let mut opts = BenchOptions::default();
    let mut out_dir = String::from(".");
    let mut profile = false;
    let mut check: Option<String> = None;
    let mut candidate: Option<String> = None;
    let mut tol_pct = 5.0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--matrix" => {
                i += 1;
                matrix = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --matrix value (tiny|standard)")),
                );
            }
            "--scenario" => {
                i += 1;
                scenarios.push(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --scenario name")),
                );
            }
            "--reps" => {
                i += 1;
                opts.reps = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| die("invalid --reps value"));
            }
            "--warmup" => {
                i += 1;
                opts.warmup = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("invalid --warmup value"));
            }
            "--out" => {
                i += 1;
                out_dir = args
                    .get(i)
                    .cloned()
                    .unwrap_or_else(|| die("missing --out dir"));
            }
            "--profile" => profile = true,
            "--check" => {
                i += 1;
                check = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --check baseline path")),
                );
            }
            "--candidate" => {
                i += 1;
                candidate = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --candidate path")),
                );
            }
            "--tol-pct" => {
                i += 1;
                tol_pct = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|p: &f64| *p >= 0.0)
                    .unwrap_or_else(|| die("invalid --tol-pct value"));
            }
            other => die(&format!("unknown argument: {other}")),
        }
        i += 1;
    }

    if let Some(baseline_path) = check {
        let candidate_path =
            candidate.unwrap_or_else(|| die("--check needs --candidate <bench.json>"));
        let baseline = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| die(&format!("read {baseline_path}: {e}")));
        let cand = std::fs::read_to_string(&candidate_path)
            .unwrap_or_else(|e| die(&format!("read {candidate_path}: {e}")));
        let diff = check_bench_files(&baseline, &cand, tol_pct).unwrap_or_else(|e| die(&e));
        print!("{}", diff.render());
        if diff.regressed() {
            std::process::exit(1);
        }
        return;
    }

    let selected = if !scenarios.is_empty() {
        scenarios
            .iter()
            .map(|n| {
                find_scenario(n)
                    .unwrap_or_else(|| die(&format!("unknown scenario '{n}'; see --matrix lists")))
            })
            .collect()
    } else {
        match matrix.as_deref().unwrap_or("tiny") {
            "tiny" => tiny_matrix(),
            "standard" => standard_matrix(),
            other => die(&format!("unknown matrix '{other}' (tiny|standard)")),
        }
    };

    std::fs::create_dir_all(&out_dir)
        .unwrap_or_else(|e| die(&format!("create --out dir {out_dir}: {e}")));
    for s in &selected {
        let result = run_scenario(s, opts);
        println!("{}", result.render_line());
        if profile {
            for t in &result.top_scopes {
                println!(
                    "    {:<40} {:>10} calls  {:>9.2} ms self  {:>5.1}%",
                    t.path, t.calls, t.self_ms, t.self_pct
                );
            }
        }
        let path = format!("{out_dir}/BENCH_{}.json", s.name);
        std::fs::write(&path, result.to_json())
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    }
}

/// `repro analyze <trace.jsonl> [--report PATH] [--baseline PATH]
/// [--tol-rel F] [--tol-abs-us F]` — offline replay of a `--trace-out`
/// file through the `cbp-obs` span collector.
fn analyze_cmd(args: &[String]) {
    let mut trace: Option<String> = None;
    let mut report_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut tol = Tolerances::default();
    let mut crit = TelemetryOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--critical-path" => {
                crit.critical_path = true;
            }
            "--flamegraph-out" => {
                i += 1;
                crit.flamegraph_out = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --flamegraph-out path")),
                );
            }
            "--what-if" => {
                i += 1;
                let spec = args.get(i).unwrap_or_else(|| {
                    die("missing --what-if scenario (dump0|iobw-inf|faults-off)")
                });
                crit.what_if.push(
                    WhatIf::parse(spec)
                        .unwrap_or_else(|| die(&format!("unknown --what-if scenario '{spec}'"))),
                );
            }
            "--report" => {
                i += 1;
                report_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --report path")),
                );
            }
            "--baseline" => {
                i += 1;
                baseline_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| die("missing --baseline path")),
                );
            }
            "--tol-rel" => {
                i += 1;
                tol.rel = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("invalid --tol-rel value"));
            }
            "--tol-abs-us" => {
                i += 1;
                tol.abs_us = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("invalid --tol-abs-us value"));
            }
            other if other.starts_with('-') => die(&format!("unknown argument: {other}")),
            other if trace.is_none() => trace = Some(other.to_string()),
            other => die(&format!("unexpected argument: {other}")),
        }
        i += 1;
    }
    let trace = trace.unwrap_or_else(|| die("usage: repro analyze <trace.jsonl> [...]"));
    let collector = analyze_trace_collector(&trace, crit.wants_crit()).unwrap_or_else(|e| die(&e));
    let mut report = ObsReport::build(&collector, ANALYZE_TOP_K);
    if crit.wants_crit() {
        report = report.with_crit(&collector).unwrap_or_else(|e| die(&e));
    }
    print!("{}", report.render_table());
    emit_crit_extras(&report, &collector, &crit).unwrap_or_else(|e| die(&e));
    if let Some(path) = &report_path {
        std::fs::write(path, report.to_json())
            .unwrap_or_else(|e| die(&format!("write {path}: {e}")));
        eprintln!("wrote {path}");
    }
    if let Some(path) = &baseline_path {
        let baseline =
            std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        let diff = diff_reports(&baseline, &report.to_json(), tol).unwrap_or_else(|e| die(&e));
        print!("{}", diff.render());
        if diff.verdict() == Verdict::Regressed {
            std::process::exit(1);
        }
    }
}

fn usage() {
    eprintln!(
        "usage: repro <experiment-id|all> [--scale full|small|smoke|<0..1>] [--seed N] \
         [--md PATH] [--json PATH]\n\
         \x20            [--trace-out PATH] [--chrome-trace PATH] [--timeseries PATH] [--telemetry]\n\
         \x20            [--analyze PATH] [--faults SPEC] [--no-lifecycle] [--no-resume]\n\
         \x20      repro analyze <trace.jsonl> [--report PATH] [--baseline PATH] [--tol-rel F] \
         [--tol-abs-us F]\n\
         \x20      repro bench [--matrix tiny|standard] [--scenario NAME]... [--reps N] \
         [--warmup N] [--out DIR] [--profile]\n\
         \x20      repro bench --check <baseline.json> --candidate <candidate.json> [--tol-pct P]\n\
         \n\
         perf harness (wall-clock; writes schema-versioned BENCH_<scenario>.json):\n\
         \x20 --matrix tiny        one smoke scenario per simulator (default; CI)\n\
         \x20 --matrix standard    both simulators x small/large x faults off/light\n\
         \x20 --profile            also print the top self-time scopes per scenario\n\
         \x20 --check/--candidate  compare two BENCH files direction-aware; exit 1 on\n\
         \x20                      regression (wall/alloc up or events/s down > --tol-pct)\n\
         \n\
         telemetry flags (single experiment only; one extra instrumented run):\n\
         \x20 --trace-out PATH     structured JSONL trace ({{\"t_us\":..,\"event\":..}} per line)\n\
         \x20 --chrome-trace PATH  Chrome/Perfetto trace.json (open at https://ui.perfetto.dev)\n\
         \x20 --timeseries PATH    columnar time-series JSON (utilization, queue depth, ...)\n\
         \x20 --telemetry          print the `subsystem.metric` registry and engine throughput\n\
         \x20 --analyze PATH       write the cbp-obs blame/penalty report and print its tables\n\
         \x20 --critical-path      extract per-job critical paths; print the attribution table\n\
         \x20                      (the report JSON gains a \"crit\" section)\n\
         \x20 --flamegraph-out P   write critical paths as inferno folded stacks (implies\n\
         \x20                      --critical-path; render with inferno-flamegraph < P)\n\
         \x20 --what-if SCENARIO   predict per-band p95 responses under a counterfactual\n\
         \x20                      (dump0|iobw-inf|faults-off; repeatable; implies --critical-path)\n\
         \x20 --faults SPEC        attach a deterministic fault plan to the instrumented run\n\
         \x20                      (off|light|heavy|chaos|pressure, tunable:\n\
         \x20                      heavy,seed=7,dump=0.3,stall=0.2)\n\
         \x20                      chaos adds failure domains + the checkpoint-path breaker; keys:\n\
         \x20                      crash, rack, downtime, crash-window, partition, penalty,\n\
         \x20                      partition-window, rack-size, breaker, breaker-min,\n\
         \x20                      breaker-cooldown, breaker-decay\n\
         \x20                      pressure shrinks checkpoint stores and leaks reservations;\n\
         \x20                      keys: cap, leak, leak-gb, leak-window\n\
         \x20 --no-lifecycle       disable the image-lifecycle ladder (GC -> evict -> spill)\n\
         \x20                      for the instrumented run (ablation baseline)\n\
         \x20 --no-resume          disable chunked resumable transfers + targeted repair\n\
         \x20                      (failed dumps rewrite from byte zero, corrupt images are\n\
         \x20                      total losses; requires --faults; same as resume=false)\n\
         \x20                      integrity keys on --faults: chunk-mb=N, resume=true|false\n\
         \n\
         offline analysis (replays a --trace-out file; byte-identical to --analyze,\n\
         also accepts --critical-path / --flamegraph-out / --what-if):\n\
         \x20 --report PATH        write the report JSON (archive as a baseline)\n\
         \x20 --baseline PATH      diff against an archived report; exit 1 on regression\n\
         \x20 --tol-rel F          relative tolerance for the diff (default 0.05)\n\
         \x20 --tol-abs-us F       absolute tolerance for *_us keys (default 1000)\n\
         \n\
         experiments: all {}",
        EXPERIMENT_IDS.join(" ")
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
