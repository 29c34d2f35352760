//! `repro` — regenerate the paper's tables and figures.
//!
//! `repro --help` prints the usage of every command, `repro <command>
//! --help` the usage of one, and `repro --list` the experiment ids. The
//! usage is generated from the flag tables below, the fault keys of
//! `FaultSpec::help` and the experiments of [`cbp_bench::EXPERIMENTS`],
//! so each flag, key and id is declared once.
//!
//! The telemetry flags add **one instrumented run** of the requested
//! experiment's simulation (see `cbp_bench::telemetry_run`); without them
//! no tracing code runs at all. `repro analyze` replays a `--trace-out`
//! file offline and prints the same analysis as `--analyze` does online:
//! the two reports are byte-identical for the same run.
//!
//! A trace record that does not fit its task's lifecycle is malformed:
//! the analysis counts it and leaves its task out of the report. Online
//! and offline, it prints the same verdict line on stderr with the count
//! and the first such record (`warning: malformed trace records: 1 (...);
//! first: record N: <reason>: <record>`, N counting records from 0). The
//! exit code stays 0. A dedicated one waits for the fix of the YARN
//! restart-record defect (DESIGN.md §7): the `heavy` and `chaos` fault
//! plans on `fig8` still write one such record, and CI requires those
//! runs to exit 0.
//!
//! Exit codes: 0 on success, and on `--help`; 1 on a regression verdict
//! (`analyze --baseline`, `bench --check`); 2 on a usage or input error,
//! including a `--scale` that leaves a Google-trace experiment an empty
//! workload (`repro fig3 --scale 1e-9`), which would otherwise print
//! all-zero tables; 3 when writing a `--trace-out` or `--chrome-trace`
//! file fails mid-run (`--trace-out /dev/full`): the run completes, and
//! the file ends at the failed write.

use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::str::FromStr;

use cbp_bench::{
    analyze_trace_collector, check_bench_files, check_scale, emit_analysis, experiment_ids,
    experiments_json, find_experiment, find_scenario, run_all, run_instrumented, run_scenario,
    standard_matrix, tiny_matrix, BenchOptions, InstrumentError, Scale, TelemetryOptions,
};
use cbp_faults::FaultSpec;
use cbp_obs::{diff_reports, Tolerances, Verdict, WhatIf};

// Installed only for allocator-peak benchmarking: every BENCH json then
// reports `alloc_peak_bytes` instead of null.
#[cfg(feature = "count-alloc")]
#[global_allocator]
static ALLOC: cbp_prof::alloc::CountingAllocator = cbp_prof::alloc::CountingAllocator;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// Runs the command `args` name and returns its exit code: 0, or 1 on a
/// regression verdict.
fn run(args: &[String]) -> Result<u8, InstrumentError> {
    let (word, rest) = match args.split_first() {
        Some((word, rest)) => (word.as_str(), rest),
        None => ("--help", args),
    };
    let command = match word {
        "--help" | "-h" => {
            eprint!("{}", usage());
            return Ok(0);
        }
        "--list" => {
            for id in experiment_ids() {
                println!("{id}");
            }
            return Ok(0);
        }
        "analyze" => &ANALYZE,
        "bench" => &BENCH,
        _ => &EXPERIMENT,
    };
    let mut a = Args::default();
    if !command.parse(rest, &mut a)? {
        eprint!("{}", command.usage());
        return Ok(0);
    }
    (command.run)(word, a)
}

/// Everything a command line sets. Each command's flags reach only the
/// fields that command reads.
struct Args {
    scale: Scale,
    seed: u64,
    md: Option<String>,
    json: Option<String>,
    /// The instrumented run's sinks and flags; `repro analyze` keeps its
    /// report path and critical-path flags here too.
    telemetry: TelemetryOptions,
    /// `repro analyze`'s trace file.
    trace: Option<String>,
    baseline: Option<String>,
    tol: Tolerances,
    matrix: Option<String>,
    scenarios: Vec<String>,
    bench: BenchOptions,
    out_dir: Option<String>,
    profile: bool,
    check: Option<String>,
    candidate: Option<String>,
    tol_pct: f64,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: Scale::SMALL,
            seed: 42,
            md: None,
            json: None,
            telemetry: TelemetryOptions::default(),
            trace: None,
            baseline: None,
            tol: Tolerances::default(),
            matrix: None,
            scenarios: Vec::new(),
            bench: BenchOptions::default(),
            out_dir: None,
            profile: false,
            check: None,
            candidate: None,
            tol_pct: 5.0,
        }
    }
}

/// One command: its usage line, its flags in groups, and what runs it.
struct Command {
    /// What follows `repro` on the usage line.
    synopsis: &'static str,
    /// Whether a trace file may stand among the flags (`repro analyze`).
    takes_trace: bool,
    /// Flag groups, each under a heading (none for the first).
    groups: &'static [(&'static str, &'static [Flag])],
    /// Usage text after the flags.
    footer: fn() -> String,
    /// Runs the command on its first word (the experiment id) and flags.
    run: fn(&str, Args) -> Result<u8, InstrumentError>,
}

impl Command {
    fn flags(&self) -> impl Iterator<Item = &Flag> {
        self.groups.iter().flat_map(|(_, flags)| flags.iter())
    }

    /// Parses `args` into `a`; `Ok(false)` if they ask for `--help`.
    fn parse(&self, args: &[String], a: &mut Args) -> Result<bool, String> {
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if arg == "--help" {
                return Ok(false);
            }
            let Some(flag) = self.flags().find(|f| f.name == arg) else {
                if arg.starts_with('-') || !self.takes_trace {
                    return Err(format!("unknown argument: {arg}"));
                }
                if a.trace.is_some() {
                    return Err(format!("unexpected argument: {arg}"));
                }
                a.trace = Some(arg.clone());
                continue;
            };
            let value = match flag.value {
                "" => "",
                what => args
                    .next()
                    .ok_or_else(|| format!("missing {what} after {}", flag.name))?,
            };
            (flag.set)(a, value)
                .map_err(|e| format!("invalid {} value {value:?}: {e}", flag.name))?;
        }
        Ok(true)
    }

    fn usage(&self) -> String {
        let mut out = format!("usage: repro {} [flags]\n", self.synopsis);
        for (heading, flags) in self.groups {
            if !heading.is_empty() {
                let _ = writeln!(out, "\n{heading}");
            }
            for f in *flags {
                let name = format!("{} {}", f.name, f.value);
                let help = f.help.replace('\n', &format!("\n{:26}", ""));
                let _ = writeln!(out, "  {:<23} {help}", name.trim_end());
            }
        }
        out + &(self.footer)()
    }
}

/// The usage of every command.
fn usage() -> String {
    let commands = [&EXPERIMENT, &ANALYZE, &BENCH].map(Command::usage);
    format!(
        "usage: repro --list   print the experiment ids\n\n{}",
        commands.join("\n")
    )
}

/// One flag: its name, its value's placeholder (empty for a switch), its
/// help, and the setter that stores its value.
struct Flag {
    name: &'static str,
    value: &'static str,
    /// One line of help; a `\n` continues it on the next line.
    help: &'static str,
    set: fn(&mut Args, &str) -> Result<(), String>,
}

const fn flag(
    name: &'static str,
    value: &'static str,
    help: &'static str,
    set: fn(&mut Args, &str) -> Result<(), String>,
) -> Flag {
    Flag {
        name,
        value,
        help,
        set,
    }
}

fn path(slot: &mut Option<String>, v: &str) -> Result<(), String> {
    *slot = Some(v.into());
    Ok(())
}

fn num<T: FromStr>(slot: &mut T, v: &str) -> Result<(), String> {
    *slot = v
        .parse()
        .map_err(|_| format!("expected {}", std::any::type_name::<T>()))?;
    Ok(())
}

fn at_least<T: FromStr + PartialOrd + Display>(
    slot: &mut T,
    v: &str,
    min: T,
) -> Result<(), String> {
    match v.parse() {
        Ok(x) if x >= min => *slot = x,
        _ => return Err(format!("expected a number >= {min}")),
    }
    Ok(())
}

fn on(slot: &mut bool) -> Result<(), String> {
    *slot = true;
    Ok(())
}

// The flag tables keep one flag a line.
#[rustfmt::skip]
const RUN_FLAGS: &[Flag] = &[
    flag("--scale", "SCALE", "full, small (default), smoke or a factor in (0,1]", |a, v| {
        a.scale = Scale::parse(v).ok_or("expected full, small, smoke or (0,1]")?;
        Ok(())
    }),
    flag("--seed", "N", "workload seed (default 42)", |a, v| num(&mut a.seed, v)),
    flag("--md", "PATH", "write the tables as markdown", |a, v| path(&mut a.md, v)),
    flag("--json", "PATH", "write the tables as JSON", |a, v| path(&mut a.json, v)),
];

#[rustfmt::skip]
const TELEMETRY_FLAGS: &[Flag] = &[
    flag("--trace-out", "PATH", "JSONL trace, one record per line", |a, v| path(&mut a.telemetry.trace_out, v)),
    flag("--chrome-trace", "PATH", "Chrome/Perfetto trace.json", |a, v| path(&mut a.telemetry.chrome_trace, v)),
    flag("--timeseries", "PATH", "columnar time-series JSON", |a, v| path(&mut a.telemetry.timeseries, v)),
    flag("--telemetry", "", "print the metrics registry and engine throughput", |a, _| on(&mut a.telemetry.telemetry)),
    flag("--analyze", "PATH", "write the blame report; print its tables", |a, v| path(&mut a.telemetry.analyze, v)),
    flag("--faults", "SPEC", "attach a fault plan (see fault plans below)", |a, v| {
        a.telemetry.faults = Some(FaultSpec::parse(v)?);
        Ok(())
    }),
    flag("--no-lifecycle", "", "disable GC -> evict -> spill (ablation)", |a, _| on(&mut a.telemetry.no_lifecycle)),
];

#[rustfmt::skip]
const CRIT_FLAGS: &[Flag] = &[
    flag("--critical-path", "", "per-job critical paths (report gains \"crit\")", |a, _| on(&mut a.telemetry.critical_path)),
    flag("--flamegraph-out", "PATH", "write them as inferno folded stacks", |a, v| path(&mut a.telemetry.flamegraph_out, v)),
    flag("--what-if", "SCENARIO", "p95 under dump0|iobw-inf|faults-off", |a, v| {
        let names = WhatIf::ALL.map(WhatIf::cli_name).join("|");
        a.telemetry.what_if.push(WhatIf::parse(v).ok_or(format!("expected {names}"))?);
        Ok(())
    }),
];

#[rustfmt::skip]
const ANALYZE_FLAGS: &[Flag] = &[
    flag("--report", "PATH", "write the report JSON (archive it)", |a, v| path(&mut a.telemetry.analyze, v)),
    flag("--baseline", "PATH", "diff against an archived report", |a, v| path(&mut a.baseline, v)),
    flag("--tol-rel", "F", "relative tolerance (default 0.05)", |a, v| num(&mut a.tol.rel, v)),
    flag("--tol-abs-us", "F", "tolerance of *_us keys (default 1000)", |a, v| num(&mut a.tol.abs_us, v)),
];

#[rustfmt::skip]
const BENCH_FLAGS: &[Flag] = &[
    flag("--matrix", "tiny|standard", "scenario matrix (default tiny)", |a, v| path(&mut a.matrix, v)),
    flag("--scenario", "NAME", "run this scenario instead; repeatable", |a, v| {
        a.scenarios.push(v.into());
        Ok(())
    }),
    flag("--reps", "N", "timed repetitions", |a, v| at_least(&mut a.bench.reps, v, 1)),
    flag("--warmup", "N", "discarded warm-up repetitions", |a, v| num(&mut a.bench.warmup, v)),
    flag("--out", "DIR", "where to write BENCH files (default .)", |a, v| path(&mut a.out_dir, v)),
    flag("--profile", "", "also print the top self-time scopes", |a, _| on(&mut a.profile)),
    flag("--check", "PATH", "compare this baseline BENCH file ...", |a, v| path(&mut a.check, v)),
    flag("--candidate", "PATH", "... with this one", |a, v| path(&mut a.candidate, v)),
    flag("--tol-pct", "P", "--check tolerance in percent (default 5)", |a, v| at_least(&mut a.tol_pct, v, 0.0)),
];

const EXPERIMENT: Command = Command {
    synopsis: "<experiment-id|all>",
    takes_trace: false,
    groups: &[
        ("", RUN_FLAGS),
        (
            "telemetry (one experiment only; adds one instrumented run):",
            TELEMETRY_FLAGS,
        ),
        ("critical paths (add an instrumented run too):", CRIT_FLAGS),
    ],
    footer: || {
        let ids: Vec<&str> = experiment_ids().collect();
        format!(
            "\nfault plans (--faults SPEC): a profile, then key=value items, such as\n\
             heavy,seed=7,dump=0.3\n{}\nexperiments: all {}\n",
            FaultSpec::help(),
            ids.join(" ")
        )
    },
    run: experiment,
};

const ANALYZE: Command = Command {
    synopsis: "analyze <trace.jsonl>",
    takes_trace: true,
    groups: &[
        (
            "offline analysis (replays a --trace-out file; byte-identical to --analyze):",
            ANALYZE_FLAGS,
        ),
        ("critical paths:", CRIT_FLAGS),
    ],
    footer: String::new,
    run: |_, a| analyze(a),
};

const BENCH: Command = Command {
    synopsis: "bench",
    takes_trace: false,
    groups: &[(
        "perf harness (wall-clock; writes schema-versioned BENCH_<scenario>.json):",
        BENCH_FLAGS,
    )],
    footer: String::new,
    run: |_, a| bench(a),
};

/// `repro <experiment-id|all>`: runs the experiments, prints their
/// tables, and adds the instrumented run the telemetry flags ask for.
fn experiment(id: &str, a: Args) -> Result<u8, InstrumentError> {
    let t = &a.telemetry;
    let sinks =
        "add a telemetry sink (--trace-out/--chrome-trace/--timeseries/--telemetry/--analyze)";
    if t.any() && id == "all" {
        return Err("telemetry flags need a single experiment id, not 'all'".into());
    }
    if t.faults.is_some() && !t.any() {
        return Err(format!("--faults applies to the instrumented run; {sinks}").into());
    }
    if t.no_lifecycle && !t.any() {
        return Err(format!("--no-lifecycle applies to the instrumented run; {sinks}").into());
    }
    let def = find_experiment(id);
    if def.is_none() && id != "all" {
        let ids: Vec<&str> = experiment_ids().collect();
        return Err(format!("unknown experiment '{id}'; valid: all {}", ids.join(" ")).into());
    }
    check_scale(id, a.scale, a.seed).map_err(|e| e.to_string())?;
    let experiments = match def {
        Some(def) => vec![def.run(a.scale, a.seed)],
        None => run_all(a.scale, a.seed),
    };

    for exp in &experiments {
        println!("################ {} ################", exp.id);
        println!("paper: {}\n", exp.paper_claim);
        for table in &exp.tables {
            println!("{}", table.text());
        }
    }

    if let Some(def) = def.filter(|_| t.any()) {
        if !run_instrumented(def.substrate, a.scale, a.seed, t)? {
            eprintln!("warning: '{id}' is analytic (no simulation); telemetry flags ignored");
        }
    }

    if let Some(path) = &a.json {
        write(path, &experiments_json(&experiments))?;
    }
    if let Some(path) = &a.md {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# Reproduced experiments\n\nGenerated by `repro all --scale {} --seed {}`. \
             Absolute numbers come from the simulated substrates; compare *shapes* \
             (orderings, crossovers, rough factors) against the paper's anchors quoted \
             with each experiment.\n\nAll tables report *simulated* time. For the \
             simulators' own wall-clock cost — events/sec, per-scope self time, \
             the `BENCH_*.json` trajectory and its regression gate — see `repro bench` \
             (README \"Perf\" section, DESIGN.md §5.2) and the per-layer report of \
             the `perfbench/` benchmark.\n",
            a.scale.factor, a.seed
        );
        for exp in &experiments {
            out.push_str(&exp.markdown());
        }
        write(path, &out)?;
    }
    Ok(0)
}

/// `repro bench`: benchmarks each scenario and writes
/// `BENCH_<scenario>.json` under `--out`, or with `--check` compares two
/// BENCH files and exits 1 on a regression.
fn bench(a: Args) -> Result<u8, InstrumentError> {
    if let Some(baseline) = &a.check {
        let candidate = a
            .candidate
            .as_deref()
            .ok_or("--check needs --candidate <bench.json>")?;
        let diff = check_bench_files(&read(baseline)?, &read(candidate)?, a.tol_pct)?;
        print!("{}", diff.render());
        return Ok(u8::from(diff.regressed()));
    }

    let selected = if a.scenarios.is_empty() {
        match a.matrix.as_deref().unwrap_or("tiny") {
            "tiny" => tiny_matrix(),
            "standard" => standard_matrix(),
            other => return Err(format!("unknown matrix '{other}' (tiny|standard)").into()),
        }
    } else {
        let find = |n: &String| {
            find_scenario(n).ok_or_else(|| format!("unknown scenario '{n}'; see --matrix lists"))
        };
        a.scenarios.iter().map(find).collect::<Result<_, _>>()?
    };

    let out_dir = a.out_dir.as_deref().unwrap_or(".");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create --out dir {out_dir}: {e}"))?;
    for s in &selected {
        let result = run_scenario(s, a.bench);
        println!("{}", result.render_line());
        if a.profile {
            for t in &result.top_scopes {
                println!(
                    "    {:<40} {:>10} calls  {:>9.2} ms self  {:>5.1}%",
                    t.path, t.calls, t.self_ms, t.self_pct
                );
            }
        }
        write(
            &format!("{out_dir}/BENCH_{}.json", s.name),
            &result.to_json(),
        )?;
    }
    Ok(0)
}

/// `repro analyze`: replays a `--trace-out` file through the `cbp-obs`
/// span collector and, with `--baseline`, diffs the report against an
/// archived one.
fn analyze(a: Args) -> Result<u8, InstrumentError> {
    let trace = a.trace.ok_or("usage: repro analyze <trace.jsonl> [...]")?;
    let report = emit_analysis(&analyze_trace_collector(&trace)?, &a.telemetry)?;
    let Some(path) = &a.baseline else {
        return Ok(0);
    };
    let diff = diff_reports(&read(path)?, &report.to_json(), a.tol)?;
    print!("{}", diff.render());
    Ok(u8::from(diff.verdict() == Verdict::Regressed))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?;
    eprintln!("wrote {path}");
    Ok(())
}
