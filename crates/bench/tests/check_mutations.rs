//! Input robustness of `check_bench_files` (`repro bench --check`),
//! `diff_reports` (`repro analyze --baseline`) and the trace analyzer
//! (`repro analyze --critical-path`): a committed baseline, or an
//! analysis report generated in-process, that is truncated, bit-flipped
//! or missing a byte, on either side of the comparison, must come back
//! as `Ok` or `Err`, never as a panic. So must a trace generated
//! in-process with one record moved in time. The unmutated documents
//! must compare clean with themselves.

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::OnceLock;

use cbp_bench::{check_bench_files, emit_analysis, TelemetryOptions};
use cbp_core::{ClusterSim, PreemptionPolicy, SimConfig};
use cbp_faults::FaultSpec;
use cbp_obs::{
    collect_jsonl, diff_reports, ObsReport, SharedCollector, Tolerances, Verdict, WhatIf,
};
use cbp_storage::MediaKind;
use cbp_telemetry::JsonlTracer;
use cbp_workload::google::GoogleTraceConfig;
use proptest::prelude::*;

/// Every committed baseline, named for the failure messages.
const BASELINES: [(&str, &str); 8] = [
    (
        "fig3_small",
        include_str!("../../../bench/baselines/BENCH_fig3_small.json"),
    ),
    (
        "fig3_large",
        include_str!("../../../bench/baselines/BENCH_fig3_large.json"),
    ),
    (
        "fig3_small_faults",
        include_str!("../../../bench/baselines/BENCH_fig3_small_faults.json"),
    ),
    (
        "fig3_small_chaos",
        include_str!("../../../bench/baselines/BENCH_fig3_small_chaos.json"),
    ),
    (
        "fig8_small",
        include_str!("../../../bench/baselines/BENCH_fig8_small.json"),
    ),
    (
        "fig8_large",
        include_str!("../../../bench/baselines/BENCH_fig8_large.json"),
    ),
    (
        "fig8_full",
        include_str!("../../../bench/baselines/BENCH_fig8_full.json"),
    ),
    (
        "fig8_small_faults",
        include_str!("../../../bench/baselines/BENCH_fig8_small_faults.json"),
    ),
];

#[test]
fn committed_baselines_self_check_at_zero_tolerance() {
    for (name, text) in BASELINES {
        let diff = check_bench_files(text, text, 0.0)
            .unwrap_or_else(|e| panic!("{name}: baseline does not compare with itself: {e}"));
        assert!(!diff.regressed(), "{name}: {}", diff.render());
        let trace = name.starts_with("fig3");
        assert_eq!(
            diff.rows.iter().any(|r| r.metric.starts_with("work.")),
            trace,
            "{name}: trace baselines carry the pass-work counters, yarn ones do not"
        );
    }
}

/// One way of damaging a document, at a position drawn per case.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Truncate(usize),
    FlipBit(usize, u8),
    DeleteByte(usize),
}

/// SplitMix64 from `seed`: every draw of one case.
fn draws(seed: u64) -> impl FnMut() -> u64 {
    let mut z = seed;
    move || {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

/// Draws one mutation of `text`.
fn draw_mutation(next: &mut impl FnMut() -> u64, text: &str) -> Mutation {
    let at = next() as usize % text.len();
    match next() % 3 {
        0 => Mutation::Truncate(at),
        1 => Mutation::FlipBit(at, (next() % 8) as u8),
        _ => Mutation::DeleteByte(at),
    }
}

fn mutate(text: &str, m: Mutation) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match m {
        Mutation::Truncate(at) => bytes.truncate(at),
        Mutation::FlipBit(at, bit) => bytes[at] ^= 1 << bit,
        Mutation::DeleteByte(at) => {
            bytes.remove(at);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    /// The stub runner does not shrink, so a failure names the seed that
    /// rebuilds the mutation.
    #[test]
    fn mutated_baselines_never_panic_the_check(seed in any::<u64>()) {
        let mut next = draws(seed);
        let (name, text) = BASELINES[next() as usize % BASELINES.len()];
        let m = draw_mutation(&mut next, text);
        let mutated = mutate(text, m);
        let on_candidate = next().is_multiple_of(2);
        let (base, cand) = if on_candidate {
            (text, mutated.as_str())
        } else {
            (mutated.as_str(), text)
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| check_bench_files(base, cand, 0.0)));
        prop_assert!(
            outcome.is_ok(),
            "seed {seed}: {name} with {m:?} on the {} side panicked the check",
            if on_candidate { "candidate" } else { "baseline" }
        );
    }

    /// The `analyze --baseline` counterpart: damage one side of a report
    /// diff.
    #[test]
    fn mutated_reports_never_panic_the_diff(seed in any::<u64>()) {
        let text = report_json();
        let mut next = draws(seed);
        let m = draw_mutation(&mut next, text);
        let mutated = mutate(text, m);
        let on_candidate = next().is_multiple_of(2);
        let (base, cand) = if on_candidate {
            (text, mutated.as_str())
        } else {
            (mutated.as_str(), text)
        };
        let outcome =
            catch_unwind(AssertUnwindSafe(|| diff_reports(base, cand, Tolerances::default())));
        prop_assert!(
            outcome.is_ok(),
            "seed {seed}: {m:?} on the {} side panicked the diff",
            if on_candidate { "candidate" } else { "baseline" }
        );
    }
}

/// The small ClusterSim run under the heavy fault plan that the
/// generated report and trace come from.
fn smoke_sim() -> ClusterSim {
    let cfg = SimConfig::trace_sim(PreemptionPolicy::Adaptive, MediaKind::Hdd)
        .with_nodes(4)
        .with_faults(FaultSpec::heavy());
    ClusterSim::new(cfg, GoogleTraceConfig::small(40.0).generate(5))
}

/// The JSON `ObsReport`, critical paths included, of [`smoke_sim`]'s
/// run; built once per test binary.
fn report_json() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let shared = SharedCollector::new();
        let mut sim = smoke_sim();
        sim.set_tracer(Box::new(shared.clone()));
        sim.run();
        let collector = shared.take();
        assert_eq!(
            collector.malformed(),
            0,
            "malformed records; first: {:?}",
            collector.first_malformed()
        );
        ObsReport::build(&collector, 5)
            .with_crit(&collector)
            .expect("critical paths tile every job")
            .to_json()
    })
}

/// A `Write` sink whose buffer outlives the boxed tracer.
#[derive(Clone, Default)]
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The JSONL trace of [`smoke_sim`]'s run, one line per element (the
/// schema header first); built once per test binary.
fn trace_lines() -> &'static [String] {
    static TRACE: OnceLock<Vec<String>> = OnceLock::new();
    TRACE.get_or_init(|| {
        let buf = SharedBuf::default();
        let mut sim = smoke_sim();
        sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
        sim.run();
        let text = String::from_utf8(buf.0.take()).expect("traces are UTF-8");
        text.lines().map(str::to_string).collect()
    })
}

/// Analyzes a JSONL trace through `repro analyze`'s path with
/// `--critical-path` and every `--what-if`, and returns the JSON report
/// that `--analyze` / `--report` would write; an unreadable trace or a
/// critical-path error is an `Err`.
fn analyze(trace: &str) -> Result<String, String> {
    let collector = collect_jsonl(trace.as_bytes()).map_err(|e| e.to_string())?;
    let opts = TelemetryOptions {
        critical_path: true,
        what_if: WhatIf::ALL.to_vec(),
        ..TelemetryOptions::default()
    };
    emit_analysis(&collector, &opts).map(|report| report.to_json())
}

#[test]
fn mutated_traces_never_panic_the_analyzer() {
    let lines = trace_lines();
    assert!(
        analyze(&lines.join("\n")).is_ok(),
        "the unmutated trace analyzes"
    );
    for seed in 0..2000u64 {
        let mut next = draws(seed);
        // Any record line but the schema header.
        let at = 1 + next() as usize % (lines.len() - 1);
        let line = &lines[at];
        let rest = line
            .strip_prefix("{\"t_us\":")
            .expect("every record line starts with its time");
        let digits = rest
            .find(|c: char| !c.is_ascii_digit())
            .expect("a field follows");
        let t: u64 = rest[..digits].parse().expect("the time is a u64");
        let moved = match next() % 4 {
            0 => next() % (t + 1),
            1 => t.saturating_add(next() % 1_000_000_000),
            2 => 0,
            _ => u64::MAX,
        };
        let mut mutated = lines.to_vec();
        mutated[at] = format!("{{\"t_us\":{moved}{}", &rest[digits..]);
        let outcome = catch_unwind(AssertUnwindSafe(|| analyze(&mutated.join("\n"))));
        assert!(
            outcome.is_ok(),
            "seed {seed}: line {at} moved from {t} to {moved} panicked the analyzer"
        );
    }
}

#[test]
fn generated_report_diffs_clean_against_itself() {
    let text = report_json();
    let diff = diff_reports(text, text, Tolerances::default()).expect("the report parses");
    assert!(!diff.rows.is_empty());
    assert_eq!(diff.verdict(), Verdict::Same, "{}", diff.render());
}
