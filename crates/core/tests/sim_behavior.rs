//! End-to-end behaviour of the trace-driven simulator on Google-like
//! workloads.

use std::cell::RefCell;
use std::rc::Rc;

use cbp_core::{
    ClusterSim, PreemptionPolicy, RestorePlacement, RunReport, SimConfig, VictimSelection,
};
use cbp_simkit::SimDuration;
use cbp_storage::MediaKind;
use cbp_telemetry::JsonlTracer;
use cbp_workload::google::GoogleTraceConfig;
use cbp_workload::{PriorityBand, Workload};

/// A small but contended workload: enough demand to force preemption on a
/// small cluster.
fn contended_workload(seed: u64) -> Workload {
    GoogleTraceConfig::small(300.0).generate(seed)
}

fn small_cluster(policy: PreemptionPolicy, media: MediaKind) -> SimConfig {
    SimConfig::trace_sim(policy, media).with_nodes(6)
}

fn run(policy: PreemptionPolicy, media: MediaKind, seed: u64) -> RunReport {
    small_cluster(policy, media).run(&contended_workload(seed))
}

#[test]
fn all_jobs_finish_under_every_policy() {
    let w = contended_workload(1);
    for policy in PreemptionPolicy::ALL {
        let report = small_cluster(policy, MediaKind::Ssd).run(&w);
        assert_eq!(
            report.metrics.jobs_finished,
            w.job_count() as u64,
            "{policy}: jobs lost"
        );
        assert_eq!(
            report.metrics.tasks_finished,
            w.task_count() as u64,
            "{policy}: tasks lost"
        );
    }
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

/// Runs like [`run`] and also returns the run's JSONL trace.
fn run_traced(policy: PreemptionPolicy, media: MediaKind, seed: u64) -> (RunReport, Vec<u8>) {
    let buf = SharedBuf::default();
    let mut sim = ClusterSim::new(small_cluster(policy, media), contended_workload(seed));
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let report = sim.run();
    let trace = buf.0.take();
    (report, trace)
}

#[test]
fn deterministic_across_runs() {
    let (a, trace_a) = run_traced(PreemptionPolicy::Adaptive, MediaKind::Hdd, 2);
    let (b, trace_b) = run_traced(PreemptionPolicy::Adaptive, MediaKind::Hdd, 2);
    assert_eq!(a.metrics.preemptions(), b.metrics.preemptions());
    assert_eq!(a.metrics.checkpoints, b.metrics.checkpoints);
    assert_eq!(a.metrics.kills, b.metrics.kills);
    assert!((a.metrics.energy_kwh - b.metrics.energy_kwh).abs() < 1e-12);
    assert!((a.metrics.makespan_secs - b.metrics.makespan_secs).abs() < 1e-9);
    assert!(
        a.metrics.preemptions() > 0,
        "the run must exercise preemption"
    );
    assert!(
        trace_a == trace_b,
        "same seed must give the same trace bytes"
    );
}

#[test]
fn wait_policy_never_preempts() {
    let report = run(PreemptionPolicy::Wait, MediaKind::Ssd, 3);
    assert_eq!(report.metrics.preemptions(), 0);
    assert_eq!(report.metrics.kills, 0);
    assert_eq!(report.metrics.checkpoints, 0);
    assert_eq!(report.metrics.wasted_cpu_hours(), 0.0);
}

#[test]
fn kill_policy_preempts_and_wastes() {
    let report = run(PreemptionPolicy::Kill, MediaKind::Ssd, 3);
    assert!(
        report.metrics.preemptions() > 0,
        "workload must be contended"
    );
    assert_eq!(report.metrics.checkpoints, 0);
    assert!(report.metrics.kill_lost_cpu_hours > 0.0);
    assert_eq!(report.metrics.dump_overhead_cpu_hours, 0.0);
}

#[test]
fn checkpoint_policy_dumps_instead_of_killing() {
    let report = run(PreemptionPolicy::Checkpoint, MediaKind::Ssd, 3);
    assert!(report.metrics.checkpoints > 0);
    assert!(report.metrics.restores > 0);
    // The basic policy only kills when checkpoint storage overflows.
    assert_eq!(report.metrics.kills, report.metrics.capacity_fallbacks);
    assert!(report.metrics.dump_overhead_cpu_hours > 0.0);
}

/// The paper's headline: checkpoint-based preemption wastes far less CPU
/// than kill-based, on every medium (Fig. 3a).
#[test]
fn checkpointing_reduces_waste_on_all_media() {
    let kill = run(PreemptionPolicy::Kill, MediaKind::Hdd, 4);
    assert!(kill.metrics.wasted_cpu_hours() > 0.0);
    for media in MediaKind::ALL {
        let chk = run(PreemptionPolicy::Checkpoint, media, 4);
        assert!(
            chk.metrics.wasted_cpu_hours() < kill.metrics.wasted_cpu_hours(),
            "{media}: chk waste {} >= kill waste {}",
            chk.metrics.wasted_cpu_hours(),
            kill.metrics.wasted_cpu_hours()
        );
    }
}

/// Faster media shrink checkpoint overhead (Fig. 3a ordering:
/// HDD > SSD > NVM).
#[test]
fn faster_media_reduce_checkpoint_overhead() {
    let hdd = run(PreemptionPolicy::Checkpoint, MediaKind::Hdd, 5);
    let ssd = run(PreemptionPolicy::Checkpoint, MediaKind::Ssd, 5);
    let nvm = run(PreemptionPolicy::Checkpoint, MediaKind::Nvm, 5);
    let overhead =
        |r: &RunReport| r.metrics.dump_overhead_cpu_hours + r.metrics.restore_overhead_cpu_hours;
    assert!(
        overhead(&hdd) > overhead(&ssd),
        "HDD {} vs SSD {}",
        overhead(&hdd),
        overhead(&ssd)
    );
    assert!(
        overhead(&ssd) > overhead(&nvm),
        "SSD {} vs NVM {}",
        overhead(&ssd),
        overhead(&nvm)
    );
}

/// Adaptive (Fig. 5): never slower than basic checkpointing for high
/// priority jobs on slow media, and it uses a mix of kills and checkpoints.
#[test]
fn adaptive_mixes_mechanisms() {
    let report = run(PreemptionPolicy::Adaptive, MediaKind::Hdd, 6);
    assert!(report.metrics.preemptions() > 0);
    assert!(
        report.metrics.kills > 0,
        "adaptive on HDD should kill young tasks"
    );
    // On NVM almost everything is worth checkpointing.
    let nvm = run(PreemptionPolicy::Adaptive, MediaKind::Nvm, 6);
    let chk_share = nvm.metrics.checkpoints as f64 / nvm.metrics.preemptions().max(1) as f64;
    assert!(chk_share > 0.5, "NVM adaptive checkpoint share {chk_share}");
}

/// Incremental checkpointing reduces bytes dumped (ablation).
#[test]
fn incremental_reduces_dump_overhead() {
    let w = contended_workload(7);
    let base = small_cluster(PreemptionPolicy::Checkpoint, MediaKind::Hdd)
        .with_incremental(false)
        .run(&w);
    let inc = small_cluster(PreemptionPolicy::Checkpoint, MediaKind::Hdd)
        .with_incremental(true)
        .run(&w);
    assert_eq!(base.metrics.incremental_checkpoints, 0);
    // Incremental dumps only exist when tasks get preempted repeatedly; the
    // contended workload guarantees some.
    if inc.metrics.incremental_checkpoints > 0 {
        assert!(
            inc.metrics.dump_overhead_cpu_hours <= base.metrics.dump_overhead_cpu_hours,
            "incremental {} > full {}",
            inc.metrics.dump_overhead_cpu_hours,
            base.metrics.dump_overhead_cpu_hours
        );
    }
}

/// The emitted trace reproduces §2-style analysis: preemptions hit the free
/// band hardest.
#[test]
fn trace_analysis_shows_low_priority_preemption() {
    let (_, analysis) = small_cluster(PreemptionPolicy::Kill, MediaKind::Ssd)
        .run_analyzed(&contended_workload(8), SimDuration::from_secs(86_400));
    assert!(analysis.overall.preemptions > 0);
    let free = analysis.per_band[0].1;
    let prod = analysis.per_band[2].1;
    assert!(
        free.preempted_fraction() > prod.preempted_fraction(),
        "free {} <= production {}",
        free.preempted_fraction(),
        prod.preempted_fraction()
    );
    assert!(analysis.wasted_cpu_hours > 0.0);
}

/// Remote restore happens under cost-aware placement with DFS, never under
/// local-only.
#[test]
fn restore_placement_ablation() {
    let w = contended_workload(9);
    let local = small_cluster(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
        .with_restore_placement(RestorePlacement::LocalOnly)
        .run(&w);
    assert_eq!(local.metrics.remote_restores, 0);
    let aware = small_cluster(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
        .with_restore_placement(RestorePlacement::CostAware)
        .run(&w);
    // Cost-aware *may* restore remotely; both must finish everything.
    assert_eq!(aware.metrics.jobs_finished, local.metrics.jobs_finished);
}

/// Victim selection strategies both complete the workload; cost-aware does
/// not checkpoint more bytes than naive (it picks cheaper victims).
#[test]
fn victim_selection_ablation() {
    let w = contended_workload(10);
    let naive = small_cluster(PreemptionPolicy::Checkpoint, MediaKind::Hdd)
        .with_victim_selection(VictimSelection::Naive)
        .run(&w);
    let aware = small_cluster(PreemptionPolicy::Checkpoint, MediaKind::Hdd)
        .with_victim_selection(VictimSelection::CostAware)
        .run(&w);
    assert_eq!(naive.metrics.jobs_finished, aware.metrics.jobs_finished);
    assert!(naive.metrics.preemptions() > 0);
    assert!(aware.metrics.preemptions() > 0);
}

/// CPU accounting is conserved: useful work equals the workload's total
/// CPU-hours under every policy (waste is *extra*, not subtracted).
#[test]
fn useful_work_is_conserved() {
    let w = contended_workload(11);
    let expected = w.total_cpu_hours();
    for policy in [PreemptionPolicy::Kill, PreemptionPolicy::Checkpoint] {
        let report = small_cluster(policy, MediaKind::Ssd).run(&w);
        let useful = report.metrics.useful_cpu_hours;
        assert!(
            (useful - expected).abs() / expected < 0.01,
            "{policy}: useful {useful} vs workload {expected}"
        );
    }
}

/// The NVRAM backend (§3.2.3 / future work): checkpointing through NVM as
/// persistent memory completes the workload, never touches the storage
/// device, and beats even the PMFS file-system path on overhead.
#[test]
fn nvram_backend_works_and_beats_pmfs_files() {
    let w = contended_workload(14);
    let fs_nvm = small_cluster(PreemptionPolicy::Checkpoint, MediaKind::Nvm).run(&w);
    let nvram = small_cluster(PreemptionPolicy::Checkpoint, MediaKind::Nvm)
        .with_nvram(cbp_checkpoint::NvramSpec::default())
        .run(&w);
    assert_eq!(nvram.metrics.jobs_finished, w.job_count() as u64);
    assert!(nvram.metrics.checkpoints > 0, "NVRAM runs must suspend");
    assert!(nvram.metrics.restores > 0);
    // Mirrors are node-local: every restore is local.
    assert_eq!(nvram.metrics.remote_restores, 0);
    // No file-system image traffic: the storage device never gets used.
    assert_eq!(nvram.metrics.io_overhead_fraction, 0.0);
    // Memory-path overhead undercuts the PMFS file-system path.
    let overhead =
        |m: &cbp_core::RunMetrics| m.dump_overhead_cpu_hours + m.restore_overhead_cpu_hours;
    assert!(
        overhead(&nvram.metrics) < overhead(&fs_nvm.metrics),
        "nvram {} vs pmfs-files {}",
        overhead(&nvram.metrics),
        overhead(&fs_nvm.metrics)
    );
}

/// Response times per band are populated and energy is non-trivial.
#[test]
fn metrics_are_populated() {
    let report = run(PreemptionPolicy::Adaptive, MediaKind::Nvm, 12);
    let m = &report.metrics;
    assert!(m.energy_kwh > 0.0);
    assert!(m.makespan_secs > 0.0);
    for band in [PriorityBand::Free, PriorityBand::Middle] {
        assert!(m.mean_response(band) > 0.0, "band {band} has no responses");
    }
    assert!(m.mean_response_overall() > 0.0);
    assert!(m.io_overhead_fraction >= 0.0 && m.io_overhead_fraction <= 1.0);
    assert!(m.storage_peak_fraction >= 0.0 && m.storage_peak_fraction <= 1.0);
}
