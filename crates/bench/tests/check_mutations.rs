//! Input robustness of `check_bench_files` (`repro bench --check`) and
//! `diff_reports` (`repro analyze --baseline`): a committed baseline, or
//! an analysis report generated in-process, that is truncated,
//! bit-flipped or missing a byte, on either side of the comparison, must
//! come back as `Ok` or `Err`, never as a panic. The unmutated documents
//! must compare clean with themselves.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

use cbp_bench::check_bench_files;
use cbp_core::{ClusterSim, PreemptionPolicy, SimConfig};
use cbp_faults::FaultSpec;
use cbp_obs::{diff_reports, ObsReport, SharedCollector, Tolerances, Verdict};
use cbp_storage::MediaKind;
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

/// The JSON `ObsReport`, critical paths included, of a small ClusterSim
/// run under the heavy fault plan; built once per test binary.
fn report_json() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let cfg = SimConfig::trace_sim(PreemptionPolicy::Adaptive, MediaKind::Hdd)
            .with_nodes(4)
            .with_faults(FaultSpec::heavy());
        let shared = SharedCollector::with_segments();
        let mut sim = ClusterSim::new(cfg, GoogleTraceConfig::small(40.0).generate(5));
        sim.set_tracer(Box::new(shared.clone()));
        sim.run();
        let collector = shared.take();
        ObsReport::build(&collector, 5)
            .with_crit(&collector)
            .expect("critical paths tile every job")
            .to_json()
    })
}

#[test]
fn generated_report_diffs_clean_against_itself() {
    let text = report_json();
    let diff = diff_reports(text, text, Tolerances::default()).expect("the report parses");
    assert!(!diff.rows.is_empty());
    assert_eq!(diff.verdict(), Verdict::Same, "{}", diff.render());
}
