//! Property tests for the `cbp-obs` blame-conservation invariant.
//!
//! Every finished task's eight blame segments (run, ready-queue wait,
//! dump, checkpoint-queue wait, restore, retry, lost work, suspended) must tile
//! the submit→finish interval *exactly*, in integer microseconds, on
//! every trace either simulator can emit. The collector hard-asserts
//! this at each `TaskFinish`; these tests drive randomized scenarios
//! through both simulators (policies × media × cluster sizes × failure
//! injection) and re-check the invariant span by span, so a pairing
//! hole in either simulator's emissions fails loudly here.

use cbp_core::{ClusterSim, PreemptionPolicy, SimConfig};
use cbp_faults::FaultSpec;
use cbp_obs::{ObsReport, SharedCollector, SpanCollector};
use cbp_simkit::SimDuration;
use cbp_storage::MediaKind;
use cbp_workload::facebook::FacebookConfig;
use cbp_workload::google::GoogleTraceConfig;
use cbp_yarn::{YarnConfig, YarnSim};
use proptest::prelude::*;

/// Asserts that the collector met no malformed record, re-checks
/// conservation explicitly for every finished span (the collector's tiling
/// assertion already held at each finish) and sanity-checks the counters.
fn check_conservation(collector: &SpanCollector, label: &str) {
    assert_eq!(
        collector.malformed(),
        0,
        "{label}: malformed trace records; first: {:?}",
        collector.first_malformed()
    );
    let mut finished = 0u64;
    for span in collector.tasks() {
        let key = span.task;
        let Some(response) = span.response_us() else {
            continue;
        };
        finished += 1;
        let blame = span.blame();
        assert_eq!(
            blame.total_us(),
            response,
            "{label}: task {key} blame does not tile submit..finish"
        );
        let component_sum: u64 = blame.components().iter().map(|(_, v)| *v).sum();
        assert_eq!(
            component_sum,
            blame.total_us(),
            "{label}: task {key} components out of sync with total"
        );
        assert_eq!(
            blame.penalty_us(),
            response - blame.run_us,
            "{label}: task {key} penalty must be response minus run"
        );
    }
    assert!(finished > 0, "{label}: scenario finished no tasks");
}

/// The fault plan for a conservation case, rotating through calm, light
/// chaos, heavy chaos and storage pressure — retry/recovery segments and
/// the lifecycle ladder's bookkeeping records (gc_pass, image_evict,
/// image_spill, no_space) must all keep the tiling exact.
fn conservation_plan(seed: u64) -> Option<FaultSpec> {
    match seed % 4 {
        0 => None,
        1 => Some(FaultSpec {
            seed,
            ..FaultSpec::light()
        }),
        2 => Some(FaultSpec {
            seed,
            ..FaultSpec::heavy()
        }),
        _ => Some(FaultSpec {
            seed,
            ..FaultSpec::pressure()
        }),
    }
}

/// Runs the Google-trace simulator with a span collector attached.
fn collect_cluster(cfg: SimConfig, seed: u64) -> SpanCollector {
    let workload = GoogleTraceConfig::small(80.0).generate(seed);
    let shared = SharedCollector::new();
    let mut sim = ClusterSim::new(cfg, workload);
    sim.set_tracer(Box::new(shared.clone()));
    let _ = sim.run();
    shared.take()
}

/// Runs the YARN protocol simulator with a span collector attached.
fn collect_yarn(
    policy: PreemptionPolicy,
    media: MediaKind,
    nodes: usize,
    seed: u64,
) -> SpanCollector {
    let slots = nodes * 24;
    let workload = FacebookConfig {
        jobs: 12,
        total_tasks: 300,
        giant_job_tasks: (slots as f64 * 1.3) as usize,
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = YarnConfig::paper_cluster(policy, media);
    cfg.nodes = nodes;
    if let Some(plan) = conservation_plan(seed) {
        // NM dump-failure fallbacks and AM-unresponsive escalations must
        // keep the tiling exact too.
        cfg = cfg.with_faults(plan);
    }
    let shared = SharedCollector::new();
    let mut sim = YarnSim::new(cfg, workload);
    sim.set_tracer(Box::new(shared.clone()));
    let _ = sim.run();
    shared.take()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Conservation holds on the trace-driven simulator across random
    /// seeds, all four policies, all media, varying cluster sizes, and
    /// with node-failure injection on or off.
    #[test]
    fn cluster_sim_conserves_blame(
        seed in 0u64..1_000_000,
        policy_idx in 0usize..PreemptionPolicy::ALL.len(),
        media_idx in 0usize..MediaKind::ALL.len(),
        nodes in 3usize..8,
    ) {
        let failures = seed % 2 == 0;
        let mut cfg = SimConfig::trace_sim(
            PreemptionPolicy::ALL[policy_idx],
            MediaKind::ALL[media_idx],
        )
        .with_nodes(nodes);
        if failures {
            // Aggressive failure injection: exercises kill evictions,
            // dump aborts (the DumpFallback path) and restore retries.
            cfg = cfg.with_failures(
                SimDuration::from_secs(1_200),
                SimDuration::from_secs(120),
            );
        }
        if let Some(plan) = conservation_plan(seed) {
            // Fault injection layered on top: dump retries, kill
            // fallbacks, restore retries and scratch restarts must all
            // keep the submit..finish tiling exact.
            cfg = cfg.with_faults(plan);
        }
        check_conservation(&collect_cluster(cfg, seed), "cluster");
    }

    /// Conservation holds on the YARN protocol simulator (container
    /// startup, dump grace windows, ForceKill fallbacks) across random
    /// seeds, policies, media and cluster sizes.
    #[test]
    fn yarn_sim_conserves_blame(
        seed in 0u64..1_000_000,
        policy_idx in 0usize..PreemptionPolicy::ALL.len(),
        media_idx in 0usize..MediaKind::ALL.len(),
        nodes in 2usize..5,
    ) {
        let collector = collect_yarn(
            PreemptionPolicy::ALL[policy_idx],
            MediaKind::ALL[media_idx],
            nodes,
            seed,
        );
        check_conservation(&collector, "yarn");
    }
}

/// The serialized report is byte-stable for a fixed seed: archived
/// baselines stay diffable forever.
#[test]
fn obs_report_is_byte_stable_per_seed() {
    let build = || {
        let cfg = SimConfig::trace_sim(PreemptionPolicy::Adaptive, MediaKind::Hdd).with_nodes(5);
        ObsReport::build(&collect_cluster(cfg, 9), 10).to_json()
    };
    let a = build();
    let b = build();
    assert_eq!(a, b, "same seed must serialize to identical bytes");
    assert!(
        a.starts_with("{\"schema\":\"cbp-obs-report\",\"version\":3,"),
        "report must open with its schema header"
    );
}

/// A YARN-side report build smoke test: bands, nodes and totals are
/// populated and internally consistent.
#[test]
fn yarn_report_aggregates_consistently() {
    let collector = collect_yarn(PreemptionPolicy::Adaptive, MediaKind::Hdd, 3, 17);
    let report = ObsReport::build(&collector, 5);
    assert!(report.source.tasks_finished > 0);
    assert!(!report.nodes.is_empty(), "per-node tallies must be present");
    let band_finished: u64 = report.bands.iter().map(|b| b.finished).sum();
    assert_eq!(
        band_finished, report.source.tasks_finished,
        "band partition must cover every finished task"
    );
    assert!(report.top_jobs.len() <= 5, "top-K truncation");
}
