//! Edge cases: degenerate workloads and configurations must not wedge or
//! panic the scheduler.

use cbp_cluster::Resources;
use cbp_core::{PreemptionPolicy, SimConfig};
use cbp_simkit::units::ByteSize;
use cbp_simkit::{SimDuration, SimTime};
use cbp_storage::{MediaKind, MediaSpec};
use cbp_workload::{JobId, JobSpec, LatencyClass, Priority, TaskId, TaskSpec, Workload};

fn job(id: u64, submit: u64, prio: u8, tasks: Vec<TaskSpec>) -> JobSpec {
    JobSpec {
        id: JobId(id),
        submit: SimTime::from_secs(submit),
        priority: Priority::new(prio),
        latency: LatencyClass::new(0),
        tasks,
    }
}

fn task(id: u64, index: u32, cores: u64, gb: u64, secs: u64) -> TaskSpec {
    TaskSpec {
        id: TaskId {
            job: JobId(id),
            index,
        },
        resources: Resources::new_cores(cores, ByteSize::from_gb(gb)),
        duration: SimDuration::from_secs(secs),
        dirty_rate_per_sec: 0.002,
    }
}

fn one_node(policy: PreemptionPolicy) -> SimConfig {
    SimConfig::trace_sim(policy, MediaKind::Ssd)
        .with_nodes(1)
        .with_node_resources(Resources::new_cores(4, ByteSize::from_gb(8)))
}

#[test]
fn empty_workload_finishes_immediately() {
    let w = Workload::new(vec![]);
    for policy in PreemptionPolicy::ALL {
        let r = one_node(policy).run(&w);
        assert_eq!(r.metrics.jobs_finished, 0);
        assert_eq!(r.metrics.makespan_secs, 0.0);
        assert_eq!(r.metrics.energy_kwh, 0.0);
    }
}

#[test]
fn oversized_task_is_clamped_to_node() {
    // 16 cores / 64 GB demand on a 4-core / 8 GB node: clamped, still runs.
    let w = Workload::new(vec![job(0, 0, 0, vec![task(0, 0, 16, 64, 60)])]);
    let r = one_node(PreemptionPolicy::Kill).run(&w);
    assert_eq!(r.metrics.tasks_finished, 1);
    assert!((r.metrics.makespan_secs - 60.0).abs() < 1.0);
}

#[test]
fn equal_priorities_never_preempt_each_other() {
    // Two 4-core jobs at the same priority on one 4-core node: strict FIFO,
    // zero preemptions, makespan = sum of durations.
    let w = Workload::new(vec![
        job(0, 0, 5, vec![task(0, 0, 4, 2, 100)]),
        job(1, 1, 5, vec![task(1, 0, 4, 2, 100)]),
    ]);
    let r = one_node(PreemptionPolicy::Adaptive).run(&w);
    assert_eq!(r.metrics.preemptions(), 0);
    assert!((r.metrics.makespan_secs - 200.0).abs() < 1.0);
}

#[test]
fn preemption_chain_across_three_priorities() {
    // p0 running; p5 preempts it; p9 preempts p5; all finish.
    let w = Workload::new(vec![
        job(0, 0, 0, vec![task(0, 0, 4, 2, 300)]),
        job(1, 30, 5, vec![task(1, 0, 4, 2, 300)]),
        job(2, 60, 9, vec![task(2, 0, 4, 2, 300)]),
    ]);
    let r = one_node(PreemptionPolicy::Checkpoint).run(&w);
    assert_eq!(r.metrics.jobs_finished, 3);
    assert!(r.metrics.checkpoints >= 2, "both lower tasks suspended");
    // Highest priority job is barely disturbed (one dump's delay).
    let high = r
        .metrics
        .mean_response(cbp_workload::PriorityBand::Production);
    assert!(high < 400.0, "p9 response {high}");
}

#[test]
fn very_fast_tasks_with_slow_media() {
    // 1-second tasks on HDD: adaptive must kill (progress << dump cost)
    // rather than queueing 60 s dumps.
    let tasks: Vec<TaskSpec> = (0..8).map(|i| task(0, i, 1, 2, 1)).collect();
    let w = Workload::new(vec![
        job(0, 0, 0, tasks),
        job(1, 0, 9, vec![task(1, 0, 4, 4, 10)]),
    ]);
    let r = one_node(PreemptionPolicy::Adaptive)
        .with_media(MediaSpec::hdd())
        .run(&w);
    assert_eq!(r.metrics.jobs_finished, 2);
    assert_eq!(
        r.metrics.checkpoints, 0,
        "1-second-old tasks must never be worth a 60s dump"
    );
}

#[test]
fn single_task_workload_under_failures() {
    let w = Workload::new(vec![job(0, 0, 0, vec![task(0, 0, 1, 1, 600)])]);
    let r = one_node(PreemptionPolicy::Checkpoint)
        .with_failures(SimDuration::from_secs(200), SimDuration::from_secs(50))
        .run(&w);
    // The task is evicted by failures repeatedly but eventually completes.
    assert_eq!(r.metrics.tasks_finished, 1);
    assert!(r.metrics.failure_evictions > 0);
    assert!(r.metrics.makespan_secs >= 600.0);
}

#[test]
fn zero_dirty_rate_gives_free_incremental_dumps() {
    // A read-only task: after the first dump, subsequent incrementals are
    // almost instant even on HDD.
    let mut spec = task(0, 0, 4, 4, 600);
    spec.dirty_rate_per_sec = 0.0;
    let w = Workload::new(vec![
        job(0, 0, 0, vec![spec]),
        job(1, 60, 9, vec![task(1, 0, 4, 2, 30)]),
        job(2, 300, 9, vec![task(2, 0, 4, 2, 30)]),
    ]);
    let r = one_node(PreemptionPolicy::Checkpoint)
        .with_media(MediaSpec::hdd())
        .run(&w);
    assert_eq!(r.metrics.jobs_finished, 3);
    assert!(r.metrics.incremental_checkpoints >= 1);
}
