//! Capstone invariants for checkpoint-image lifecycle management
//! (capacity backpressure, spill-to-remote, eviction and GC), driven on
//! BOTH simulators:
//!
//! 1. **Ledger conservation** — every byte reserved on a checkpoint
//!    device is a live catalog image or an injected leak. Both
//!    simulators hard-assert this after *every* event in debug builds,
//!    so simply completing the randomized runs below proves the
//!    invariant across policies × media × fault plans (including
//!    storage pressure layered over heavy chaos).
//! 2. **Liveness** — a cluster whose checkpoint stores are shrunk to a
//!    sliver and leaking still finishes every task, with the ladder on
//!    or off (off degrades to kills; it never wedges).
//! 3. **Determinism** — the same `(seed, plan)` pair replays to a
//!    byte-identical JSONL trace with lifecycle management enabled.
//! 4. **Effectiveness** — under pressure the ladder engages in order
//!    (GC before eviction) and strictly reduces `no_space_kills`
//!    versus the `--no-lifecycle` ablation.

use std::cell::RefCell;
use std::rc::Rc;

use cbp_core::{ClusterSim, PreemptionPolicy, RunReport, SimConfig};
use cbp_faults::FaultSpec;
use cbp_storage::MediaKind;
use cbp_workload::facebook::FacebookConfig;
use cbp_workload::google::GoogleTraceConfig;
use cbp_workload::Workload;
use cbp_yarn::{YarnConfig, YarnSim};
use proptest::prelude::*;

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

/// The fault plan for a lifecycle case. `class` rotates the regime:
/// 0 = pure storage pressure (shrunk stores + leaks, nothing else),
/// 1 = light chaos (the lifecycle machinery mostly idle — it must not
/// perturb anything), 2 = pressure layered over heavy chaos (leaks,
/// dump/restore failures and image corruption all at once — the GC pass
/// reclaims corrupt chains too).
fn lifecycle_plan(class: u8, plan_seed: u64) -> FaultSpec {
    match class % 3 {
        0 => FaultSpec {
            seed: plan_seed,
            ..FaultSpec::pressure()
        },
        1 => FaultSpec {
            seed: plan_seed,
            ..FaultSpec::light()
        },
        _ => FaultSpec {
            seed: plan_seed,
            pressure: FaultSpec::pressure().pressure,
            ..FaultSpec::heavy()
        },
    }
}

/// Runs the trace-driven simulator with a JSONL tracer and returns the
/// report plus the exact bytes written.
fn traced_cluster(cfg: SimConfig, workload: &Workload) -> (RunReport, Vec<u8>) {
    let buf = SharedBuf::default();
    let mut sim = ClusterSim::new(cfg, workload.clone());
    sim.set_tracer(Box::new(cbp_telemetry::JsonlTracer::new(buf.clone())));
    let report = sim.run();
    let bytes = buf.0.borrow().clone();
    (report, bytes)
}

/// Runs the YARN protocol simulator with a JSONL tracer.
fn traced_yarn(cfg: YarnConfig, workload: &Workload) -> (RunReport, Vec<u8>) {
    let buf = SharedBuf::default();
    let mut sim = YarnSim::new(cfg, workload.clone());
    sim.set_tracer(Box::new(cbp_telemetry::JsonlTracer::new(buf.clone())));
    let report = sim.run();
    let bytes = buf.0.borrow().clone();
    (report, bytes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// ClusterSim: ledger conservation (hard-asserted per event in this
    /// debug build), liveness and byte-identical replay with lifecycle
    /// management enabled, across policies × media × pressure regimes.
    #[test]
    fn cluster_sim_lifecycle_conservation_and_determinism(
        seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        class in 0u8..3,
        policy_idx in 0usize..PreemptionPolicy::ALL.len(),
        media_idx in 0usize..MediaKind::ALL.len(),
        nodes in 4usize..8,
    ) {
        let workload = GoogleTraceConfig::small(80.0).generate(seed);
        let cfg = || SimConfig::trace_sim(
            PreemptionPolicy::ALL[policy_idx],
            MediaKind::ALL[media_idx],
        )
        .with_nodes(nodes)
        .with_faults(lifecycle_plan(class, plan_seed));

        let (report, bytes_a) = traced_cluster(cfg(), &workload);
        prop_assert_eq!(report.metrics.jobs_finished, workload.job_count() as u64);
        prop_assert_eq!(report.metrics.tasks_finished, workload.task_count() as u64);

        let (_, bytes_b) = traced_cluster(cfg(), &workload);
        prop_assert_eq!(bytes_a, bytes_b, "same (seed, plan) must replay identically");
    }

    /// YarnSim: same contract on the protocol simulator (NM-local
    /// stores, dumps routed through HDFS).
    #[test]
    fn yarn_sim_lifecycle_conservation_and_determinism(
        seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        class in 0u8..3,
        policy_idx in 0usize..PreemptionPolicy::ALL.len(),
        media_idx in 0usize..MediaKind::ALL.len(),
    ) {
        let workload = FacebookConfig {
            jobs: 10,
            total_tasks: 240,
            giant_job_tasks: 60,
            ..Default::default()
        }
        .generate(seed);
        let cfg = || {
            let mut cfg = YarnConfig::paper_cluster(
                PreemptionPolicy::ALL[policy_idx],
                MediaKind::ALL[media_idx],
            );
            cfg.nodes = 2;
            cfg.with_faults(lifecycle_plan(class, plan_seed))
        };

        let (report, bytes_a) = traced_yarn(cfg(), &workload);
        prop_assert_eq!(report.metrics.jobs_finished, workload.job_count() as u64);
        prop_assert_eq!(report.metrics.tasks_finished, workload.task_count() as u64);

        let (_, bytes_b) = traced_yarn(cfg(), &workload);
        prop_assert_eq!(bytes_a, bytes_b, "same (seed, plan) must replay identically");
    }

    /// The ablation stays live too: with the ladder disabled, pressure
    /// degrades dumps to kills but never strands a task, and the
    /// conservation invariant still holds (GC/evict/spill are the only
    /// code paths switched off; the ledger itself is unconditional).
    #[test]
    fn lifecycle_off_under_pressure_stays_live(
        seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
    ) {
        let plan = FaultSpec { seed: plan_seed, ..FaultSpec::pressure() };
        let w = GoogleTraceConfig::small(80.0).generate(seed);
        let cfg = SimConfig::trace_sim(PreemptionPolicy::Checkpoint, MediaKind::Nvm)
            .with_nodes(5)
            .with_lifecycle(false)
            .with_faults(plan.clone());
        let report = ClusterSim::new(cfg, w.clone()).run();
        prop_assert_eq!(report.metrics.tasks_finished, w.task_count() as u64);

        let fw = FacebookConfig {
            jobs: 8,
            total_tasks: 180,
            giant_job_tasks: 60,
            ..Default::default()
        }
        .generate(seed);
        let mut ycfg = YarnConfig::paper_cluster(PreemptionPolicy::Checkpoint, MediaKind::Nvm)
            .with_lifecycle(false)
            .with_faults(plan);
        ycfg.nodes = 2;
        let report = YarnSim::new(ycfg, fw.clone()).run();
        prop_assert_eq!(report.metrics.tasks_finished, fw.task_count() as u64);
    }
}

/// Counts JSONL trace lines whose `event` field is `name`.
fn event_count(bytes: &[u8], name: &str) -> usize {
    let needle = format!("\"event\":\"{name}\"");
    String::from_utf8(bytes.to_vec())
        .expect("trace is UTF-8")
        .lines()
        .filter(|l| l.contains(&needle))
        .count()
}

/// Index of the first JSONL trace line whose `event` field is `name`.
fn first_event(bytes: &[u8], name: &str) -> Option<usize> {
    let needle = format!("\"event\":\"{name}\"");
    String::from_utf8(bytes.to_vec())
        .expect("trace is UTF-8")
        .lines()
        .position(|l| l.contains(&needle))
}

/// Under storage pressure the ladder engages in order: the GC pass is
/// always rung one, so the first `gc_pass` record precedes the first
/// `image_evict`, and the counters mirror the trace.
#[test]
fn pressure_ladder_engages_in_order() {
    // The stock `pressure` profile leaves the trace-sim stores ~30%
    // headroom at smoke scale; squeeze harder so the ladder must run.
    let cfg = || {
        SimConfig::trace_sim(PreemptionPolicy::Checkpoint, MediaKind::Nvm)
            .with_nodes(4)
            .with_faults(
                FaultSpec::parse("pressure,seed=7,cap=0.01,leak=0.6,leak-window=300")
                    .expect("pressure spec parses"),
            )
    };
    // Whether a draw is contended enough to both checkpoint and run out
    // of space is seed-dependent; probe forward deterministically.
    let (report, bytes) = (5..40)
        .map(|seed| GoogleTraceConfig::small(120.0).generate(seed))
        .find_map(|w| {
            let (report, bytes) = traced_cluster(cfg(), &w);
            (report.metrics.gc_reclaimed_bytes > 0 && report.metrics.evicted_chains > 0)
                .then_some((report, bytes))
        })
        .expect("a draw that engages GC and eviction within 35 seeds");

    let gc = first_event(&bytes, "gc_pass").expect("gc_pass traced");
    let evict = first_event(&bytes, "image_evict").expect("image_evict traced");
    assert!(
        gc < evict,
        "GC is rung one: gc_pass must precede image_evict"
    );
    assert!(
        event_count(&bytes, "gc_pass") > 0 && event_count(&bytes, "image_evict") > 0,
        "ladder records present"
    );
    assert_eq!(
        event_count(&bytes, "image_evict") as u64,
        report.metrics.evicted_chains,
        "evicted_chains mirrors the trace"
    );
    assert_eq!(
        event_count(&bytes, "image_spill") as u64,
        report.metrics.spill_dumps,
        "spill_dumps mirrors the trace"
    );
    assert_eq!(
        event_count(&bytes, "no_space") as u64,
        report.metrics.no_space_kills,
        "no_space_kills mirrors the trace"
    );
}

/// The headline claim: with the same shrunk, leaking stores, enabling
/// the lifecycle ladder strictly reduces no-space kills on the
/// trace-driven simulator (and never strands work in either mode).
#[test]
fn lifecycle_strictly_reduces_no_space_kills_cluster() {
    let cfg = |lifecycle: bool| {
        SimConfig::trace_sim(PreemptionPolicy::Checkpoint, MediaKind::Nvm)
            .with_nodes(4)
            .with_lifecycle(lifecycle)
            .with_faults(
                FaultSpec::parse("pressure,seed=7,cap=0.01,leak=0.6,leak-window=300")
                    .expect("pressure spec parses"),
            )
    };
    let (w, off) = (5..40)
        .map(|seed| GoogleTraceConfig::small(120.0).generate(seed))
        .find_map(|w| {
            let off = ClusterSim::new(cfg(false), w.clone()).run();
            (off.metrics.no_space_kills > 0).then_some((w, off))
        })
        .expect("a draw where the bare fallback kills within 35 seeds");
    let on = ClusterSim::new(cfg(true), w.clone()).run();
    assert_eq!(off.metrics.tasks_finished, w.task_count() as u64);
    assert_eq!(on.metrics.tasks_finished, w.task_count() as u64);
    assert!(
        on.metrics.no_space_kills < off.metrics.no_space_kills,
        "lifecycle on must kill strictly less for lack of space \
         (on={}, off={})",
        on.metrics.no_space_kills,
        off.metrics.no_space_kills
    );
    assert!(
        on.metrics.gc_reclaimed_bytes > 0
            || on.metrics.evicted_chains > 0
            || on.metrics.spill_dumps > 0,
        "the reduction must come from the ladder actually engaging"
    );
    assert_eq!(
        off.metrics.gc_reclaimed_bytes + off.metrics.evicted_chains + off.metrics.spill_dumps,
        0,
        "the ablation must not run any ladder rung"
    );
}

/// Same claim on the YARN protocol simulator.
#[test]
fn lifecycle_strictly_reduces_no_space_kills_yarn() {
    let cfg = |lifecycle: bool| {
        let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Checkpoint, MediaKind::Nvm)
            .with_lifecycle(lifecycle)
            .with_faults(FaultSpec {
                seed: 7,
                ..FaultSpec::pressure()
            });
        cfg.nodes = 2;
        cfg
    };
    let (fw, off) = (5..40)
        .map(|seed| {
            FacebookConfig {
                jobs: 10,
                total_tasks: 240,
                giant_job_tasks: 60,
                ..Default::default()
            }
            .generate(seed)
        })
        .find_map(|fw| {
            let off = YarnSim::new(cfg(false), fw.clone()).run();
            (off.metrics.no_space_kills > 0).then_some((fw, off))
        })
        .expect("a draw where the bare fallback kills within 35 seeds");
    let on = YarnSim::new(cfg(true), fw.clone()).run();
    assert_eq!(off.metrics.tasks_finished, fw.task_count() as u64);
    assert_eq!(on.metrics.tasks_finished, fw.task_count() as u64);
    assert!(
        on.metrics.no_space_kills < off.metrics.no_space_kills,
        "lifecycle on must kill strictly less for lack of space (on={}, off={})",
        on.metrics.no_space_kills,
        off.metrics.no_space_kills
    );
    assert!(
        on.metrics.gc_reclaimed_bytes > 0
            || on.metrics.evicted_chains > 0
            || on.metrics.spill_dumps > 0,
        "the reduction must come from the ladder actually engaging"
    );
}
