//! Property and validation tests for `cbp-obs` critical-path extraction
//! and what-if attribution.
//!
//! Three contracts, each exercised on **both** simulators:
//!
//! 1. **Tiling** — every complete job's critical path (the segment
//!    timeline of its completion-determining task) tiles the job's
//!    submit→finish interval exactly, across randomized policies ×
//!    media × cluster sizes × fault plans (the extraction itself treats
//!    a violation as fatal; the proptests re-check every path).
//! 2. **Byte-stability** — the `"crit"` report section and the folded
//!    flamegraph export serialize to identical bytes for the same seed.
//! 3. **What-if validity** — the zero-cost-dump counterfactual's
//!    per-band p95 response prediction lands within 15% of an *actual*
//!    re-run on a free-dump medium, on the fig3 (ClusterSim) and fig8
//!    (YarnSim) smoke configurations. This bounds the error of the
//!    first-order "remove the segments, keep the rest" model, which
//!    deliberately ignores scheduling feedback.

use cbp_bench::experiments::google_setup;
use cbp_bench::Scale;
use cbp_core::{ClusterSim, PreemptionPolicy, SimConfig};
use cbp_faults::FaultSpec;
use cbp_obs::{
    extract_job_paths, paths_to_folded, CritReport, ObsReport, SharedCollector, SpanCollector,
    WhatIf,
};
use cbp_simkit::units::Bandwidth;
use cbp_simkit::SimDuration;
use cbp_storage::{MediaKind, MediaSpec};
use cbp_workload::facebook::FacebookConfig;
use cbp_workload::google::GoogleTraceConfig;
use cbp_workload::Workload;
use cbp_yarn::{YarnConfig, YarnSim};
use proptest::prelude::*;

/// Runs the trace-driven simulator with a span collector attached.
fn collect_cluster(cfg: SimConfig, workload: Workload) -> SpanCollector {
    let shared = SharedCollector::new();
    let mut sim = ClusterSim::new(cfg, workload);
    sim.set_tracer(Box::new(shared.clone()));
    let _ = sim.run();
    well_formed(shared.take())
}

/// Runs the YARN protocol simulator with a span collector attached.
fn collect_yarn(cfg: YarnConfig, workload: Workload) -> SpanCollector {
    let shared = SharedCollector::new();
    let mut sim = YarnSim::new(cfg, workload);
    sim.set_tracer(Box::new(shared.clone()));
    let _ = sim.run();
    well_formed(shared.take())
}

/// `collector`, after asserting that it met no malformed record.
fn well_formed(collector: SpanCollector) -> SpanCollector {
    assert_eq!(
        collector.malformed(),
        0,
        "malformed records; first: {:?}",
        collector.first_malformed()
    );
    collector
}

/// The fig8-style YARN smoke setup (contended Facebook draw on a tiny
/// cluster), with a configurable policy/media.
fn yarn_smoke(policy: PreemptionPolicy, media: MediaKind, seed: u64) -> (YarnConfig, Workload) {
    let nodes = 2;
    let slots = nodes * 24;
    let workload = FacebookConfig {
        jobs: 10,
        total_tasks: 260,
        giant_job_tasks: (slots as f64 * 1.3) as usize,
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = YarnConfig::paper_cluster(policy, media);
    cfg.nodes = nodes;
    (cfg, workload)
}

/// Re-checks the tiling invariant for every extracted path: contiguous
/// segments covering submit→finish exactly, and the per-kind sum equal
/// to the job's response time.
fn check_paths(collector: &SpanCollector, label: &str) {
    let jp = extract_job_paths(collector)
        .unwrap_or_else(|e| panic!("{label}: critical-path extraction failed: {e}"));
    assert!(!jp.paths.is_empty(), "{label}: no complete jobs");
    for p in &jp.paths {
        p.check_tiling().unwrap_or_else(|e| panic!("{label}: {e}"));
        let seg_sum: u64 = p.segments.iter().map(|s| s.dur_us()).sum();
        assert_eq!(
            seg_sum,
            p.finish_us - p.submit_us,
            "{label}: job {} segment sum must equal the critical interval",
            p.job
        );
    }
}

/// Every third case gets light chaos, every third heavy (mirrors the
/// blame-conservation suite): retry and lost segments must tile too.
fn fault_plan(seed: u64) -> Option<FaultSpec> {
    match seed % 3 {
        0 => None,
        1 => Some(FaultSpec {
            seed,
            ..FaultSpec::light()
        }),
        _ => Some(FaultSpec {
            seed,
            ..FaultSpec::heavy()
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tiling holds on the trace-driven simulator across seeds, all
    /// policies, all media, node counts, failure and fault injection.
    #[test]
    fn cluster_sim_critical_paths_tile(
        seed in 0u64..1_000_000,
        policy_idx in 0usize..PreemptionPolicy::ALL.len(),
        media_idx in 0usize..MediaKind::ALL.len(),
        nodes in 3usize..8,
    ) {
        let mut cfg = SimConfig::trace_sim(
            PreemptionPolicy::ALL[policy_idx],
            MediaKind::ALL[media_idx],
        )
        .with_nodes(nodes);
        if seed % 2 == 0 {
            cfg = cfg.with_failures(
                SimDuration::from_secs(1_200),
                SimDuration::from_secs(120),
            );
        }
        if let Some(plan) = fault_plan(seed) {
            cfg = cfg.with_faults(plan);
        }
        let workload = GoogleTraceConfig::small(80.0).generate(seed);
        check_paths(&collect_cluster(cfg, workload), "cluster");
    }

    /// Tiling holds on the YARN protocol simulator (container startup,
    /// grace windows, force-kills, AM escalations) across the same axes.
    #[test]
    fn yarn_sim_critical_paths_tile(
        seed in 0u64..1_000_000,
        policy_idx in 0usize..PreemptionPolicy::ALL.len(),
        media_idx in 0usize..MediaKind::ALL.len(),
    ) {
        let (mut cfg, workload) = yarn_smoke(
            PreemptionPolicy::ALL[policy_idx],
            MediaKind::ALL[media_idx],
            seed,
        );
        if let Some(plan) = fault_plan(seed) {
            cfg = cfg.with_faults(plan);
        }
        check_paths(&collect_yarn(cfg, workload), "yarn");
    }
}

/// The crit section and the folded export are byte-stable per seed on
/// both simulators: flamegraphs and archived reports diff cleanly.
#[test]
fn crit_report_and_folded_are_byte_stable() {
    let build_cluster = || {
        let cfg = SimConfig::trace_sim(PreemptionPolicy::Adaptive, MediaKind::Hdd).with_nodes(5);
        let c = collect_cluster(cfg, GoogleTraceConfig::small(80.0).generate(9));
        let report = ObsReport::build(&c, 10).with_crit(&c).unwrap();
        let folded = paths_to_folded(&extract_job_paths(&c).unwrap().paths);
        (report.to_json(), folded)
    };
    let (json_a, folded_a) = build_cluster();
    let (json_b, folded_b) = build_cluster();
    assert_eq!(json_a, json_b, "cluster crit JSON must be byte-stable");
    assert_eq!(folded_a, folded_b, "cluster folded must be byte-stable");
    assert!(json_a.contains("\"crit\":{"), "crit section present");
    assert!(!folded_a.is_empty(), "folded stacks present");

    let build_yarn = || {
        let (cfg, workload) = yarn_smoke(PreemptionPolicy::Adaptive, MediaKind::Hdd, 17);
        let c = collect_yarn(cfg, workload);
        let report = ObsReport::build(&c, 10).with_crit(&c).unwrap();
        let folded = paths_to_folded(&extract_job_paths(&c).unwrap().paths);
        (report.to_json(), folded)
    };
    let (json_a, folded_a) = build_yarn();
    let (json_b, folded_b) = build_yarn();
    assert_eq!(json_a, json_b, "yarn crit JSON must be byte-stable");
    assert_eq!(folded_a, folded_b, "yarn folded must be byte-stable");
}

/// A medium whose dumps are effectively free: unbounded write bandwidth
/// and zero setup, with the read side untouched — the physical analogue
/// of the `dump0` counterfactual.
fn free_dump_media(spec: &MediaSpec) -> MediaSpec {
    MediaSpec::custom(
        spec.kind(),
        Bandwidth::from_gb_per_sec_f64(100_000.0),
        spec.read_bw(),
        SimDuration::from_micros(0),
        spec.capacity(),
    )
}

/// Bands need at least this many jobs before a p95 comparison means
/// anything.
const MIN_JOBS_FOR_P95: u64 = 5;

/// Maximum relative error of the dump0 prediction vs the actual re-run.
const WHAT_IF_TOL: f64 = 0.15;

/// Compares the dump0 prediction from `baseline` against the measured
/// per-band p95 of `rerun` (the same scenario on a free-dump medium).
fn check_dump0_prediction(baseline: &SpanCollector, rerun: &SpanCollector, label: &str) {
    let predicted = CritReport::build(baseline).unwrap();
    let actual = CritReport::build(rerun).unwrap();
    let dump0 = WhatIf::ALL
        .iter()
        .position(|w| *w == WhatIf::Dump0)
        .unwrap();
    let mut compared = 0;
    for pb in &predicted.bands {
        // Exact percentiles + per-job dominance (a counterfactual only
        // removes cost) mean the predicted p95 can never exceed the
        // band's actual p95 from the same run.
        for (i, w) in WhatIf::ALL.iter().enumerate() {
            assert!(
                pb.what_if_p95_us[i] <= pb.response_p95_us,
                "{label}/{}: {} predicted p95 above actual",
                pb.band.name(),
                w.name(),
            );
        }
        if pb.jobs < MIN_JOBS_FOR_P95 {
            continue;
        }
        let Some(ab) = actual
            .bands
            .iter()
            .find(|b| b.band == pb.band && b.jobs >= MIN_JOBS_FOR_P95)
        else {
            continue;
        };
        let pred = pb.what_if_p95_us[dump0];
        let meas = ab.response_p95_us;
        let err = (pred - meas).abs() / meas.max(1.0);
        assert!(
            err <= WHAT_IF_TOL,
            "{label}/{}: dump0 prediction {pred:.0}µs vs measured {meas:.0}µs \
             ({:.1}% > {:.0}% tolerance)",
            pb.band.name(),
            err * 100.0,
            WHAT_IF_TOL * 100.0,
        );
        compared += 1;
    }
    assert!(compared > 0, "{label}: no band had enough jobs to compare");
}

/// fig3 smoke (ClusterSim, Google trace, checkpoint policy): the dump0
/// prediction from the NVM run must land within tolerance of an actual
/// free-dump re-run. A fast medium keeps the checkpoint share of the
/// response small enough that the un-modelled scheduling feedback (free
/// dumps also *unblock the cluster* sooner) stays inside the bound; on
/// HDD the feedback term dominates (measured ~36% at this seed) and the
/// first-order model over-predicts — documented as a limit in DESIGN.md
/// §5.3.
#[test]
fn what_if_dump0_matches_rerun_cluster() {
    let (workload, base) = google_setup(Scale::SMOKE, 42);
    let cfg = base
        .with_policy(PreemptionPolicy::Checkpoint)
        .with_media(MediaSpec::nvm());
    let baseline = collect_cluster(cfg.clone(), workload.clone());
    let rerun = collect_cluster(
        cfg.clone().with_media(free_dump_media(&cfg.media)),
        workload,
    );
    check_dump0_prediction(&baseline, &rerun, "cluster");
}

/// fig8 smoke (YarnSim, Facebook workload, checkpoint policy): same
/// bound on the protocol simulator, where dumps also hold container
/// leases through the grace window.
#[test]
fn what_if_dump0_matches_rerun_yarn() {
    let (cfg, workload) = yarn_smoke(PreemptionPolicy::Checkpoint, MediaKind::Hdd, 42);
    let baseline = collect_yarn(cfg.clone(), workload.clone());
    let mut free = cfg.clone();
    free.media = free_dump_media(&cfg.media);
    let rerun = collect_yarn(free, workload);
    check_dump0_prediction(&baseline, &rerun, "yarn");
}
