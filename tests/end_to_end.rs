//! Cross-crate integration tests: the two scheduling stacks, the substrates
//! and the analyzer working together.

use cbp::core::{PreemptionPolicy, SimConfig};
use cbp::simkit::SimDuration;
use cbp::storage::MediaKind;
use cbp::workload::facebook::FacebookConfig;
use cbp::workload::google::GoogleTraceConfig;
use cbp::yarn::YarnConfig;

/// The facade crate exposes every subsystem under one namespace.
#[test]
fn facade_reexports_compose() {
    use cbp::checkpoint::TaskMemory;
    use cbp::cluster::Resources;
    use cbp::dfs::{DfsCluster, DfsConfig, DnId};
    use cbp::simkit::units::ByteSize;
    use cbp::simkit::SimTime;
    use cbp::storage::{Device, MediaSpec};

    let mut mem = TaskMemory::new(ByteSize::from_gb(1));
    let mut dev = Device::new(MediaSpec::nvm());
    let mut criu = cbp::checkpoint::Criu::new(true);
    let dump = criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
    assert_eq!(dump.size, ByteSize::from_gb(1));

    let mut dfs = DfsCluster::homogeneous(DfsConfig::default(), MediaSpec::nvm(), 3, 1);
    dfs.create("/x", ByteSize::from_mb(10), DnId(0)).unwrap();
    assert_eq!(dfs.namespace().file_count(), 1);

    let r = Resources::new_cores(2, ByteSize::from_gb(4));
    assert!(r.fits_in(&Resources::new_cores(4, ByteSize::from_gb(8))));
}

/// Both evaluation stacks (trace simulator and YARN analog) agree on the
/// paper's core qualitative claim: on fast storage, checkpoint-based
/// preemption wastes less CPU than kill-based preemption.
#[test]
fn stacks_agree_on_headline_claim() {
    // Trace simulator stack.
    let w = GoogleTraceConfig::small(300.0).generate(5);
    let base = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Nvm).with_nodes(6);
    let kill = base.clone().run(&w);
    let chk = base.with_policy(PreemptionPolicy::Checkpoint).run(&w);
    assert!(
        kill.metrics.preemptions > 0,
        "trace workload must be contended"
    );
    assert!(
        chk.metrics.wasted_cpu_hours() < kill.metrics.wasted_cpu_hours(),
        "core: chk {} vs kill {}",
        chk.metrics.wasted_cpu_hours(),
        kill.metrics.wasted_cpu_hours()
    );

    // YARN stack.
    let fb = FacebookConfig {
        jobs: 12,
        total_tasks: 260,
        giant_job_tasks: 60,
        mean_interarrival: cbp::simkit::SimDuration::from_secs(100),
        ..Default::default()
    }
    .generate(5);
    let mut yarn_cfg = YarnConfig::paper_cluster(PreemptionPolicy::Kill, MediaKind::Nvm);
    yarn_cfg.nodes = 2;
    let ykill = yarn_cfg.clone().run(&fb);
    let ychk = yarn_cfg.with_policy(PreemptionPolicy::Checkpoint).run(&fb);
    assert!(ykill.metrics.kills > 0, "yarn workload must be contended");
    assert!(
        ychk.metrics.wasted_cpu_hours() < ykill.metrics.wasted_cpu_hours(),
        "yarn: chk {} vs kill {}",
        ychk.metrics.wasted_cpu_hours(),
        ykill.metrics.wasted_cpu_hours()
    );
}

/// The scheduler's emitted trace round-trips through the §2 analyzer and
/// its totals agree with the scheduler's own metrics.
#[test]
fn trace_and_metrics_are_consistent() {
    let w = GoogleTraceConfig::small(300.0).generate(6);
    let (report, analysis) = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Ssd)
        .with_nodes(6)
        .run_analyzed(&w, SimDuration::from_secs(86_400));
    // Every simulator-counted eviction appears in the trace; the analyzer's
    // 5-second criterion may classify a subset as priority preemptions.
    assert!(analysis.overall.preemptions <= report.metrics.preemptions);
    assert!(analysis.overall.preemptions > 0);
    // Tasks that finished = tasks scheduled at least once in the log.
    assert_eq!(
        analysis.overall.scheduled_tasks,
        w.task_count() as u64,
        "every task must get scheduled at least once"
    );
    // Analyzer waste (kill policy re-execution) is close to the
    // simulator's own accounting: both measure schedule→evict CPU time.
    let rel = (analysis.wasted_cpu_hours - report.metrics.kill_lost_cpu_hours).abs()
        / report.metrics.kill_lost_cpu_hours.max(1e-9);
    assert!(
        rel < 0.35,
        "analyzer {} vs simulator {}",
        analysis.wasted_cpu_hours,
        report.metrics.kill_lost_cpu_hours
    );
}

/// Determinism end-to-end across the facade: same seed, same everything.
#[test]
fn cross_stack_determinism() {
    let w = GoogleTraceConfig::small(200.0).generate(9);
    let run = || {
        SimConfig::trace_sim(PreemptionPolicy::Adaptive, MediaKind::Ssd)
            .with_nodes(4)
            .run(&w)
    };
    let (a, b) = (run(), run());
    assert_eq!(a.metrics.preemptions, b.metrics.preemptions);
    assert_eq!(a.metrics.tasks_finished, b.metrics.tasks_finished);
    assert!((a.metrics.energy_kwh - b.metrics.energy_kwh).abs() < 1e-12);

    let fb = FacebookConfig {
        jobs: 8,
        total_tasks: 150,
        giant_job_tasks: 60,
        ..Default::default()
    }
    .generate(9);
    let yrun = || {
        let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd);
        cfg.nodes = 2;
        cfg.run(&fb)
    };
    let (ya, yb) = (yrun(), yrun());
    assert_eq!(ya.metrics.checkpoints, yb.metrics.checkpoints);
    assert!((ya.metrics.makespan_secs - yb.metrics.makespan_secs).abs() < 1e-9);
}

/// Different seeds produce different workloads but the policy ordering is
/// stable (a crude robustness check across three seeds).
#[test]
fn headline_holds_across_seeds() {
    for seed in [11u64, 12, 13] {
        let w = GoogleTraceConfig::small(300.0).generate(seed);
        let base = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Nvm).with_nodes(6);
        let kill = base.clone().run(&w);
        if kill.metrics.preemptions == 0 {
            continue; // uncontended draw; nothing to compare
        }
        let chk = base.with_policy(PreemptionPolicy::Checkpoint).run(&w);
        assert!(
            chk.metrics.wasted_cpu_hours() <= kill.metrics.wasted_cpu_hours(),
            "seed {seed}: chk {} vs kill {}",
            chk.metrics.wasted_cpu_hours(),
            kill.metrics.wasted_cpu_hours()
        );
    }
}
