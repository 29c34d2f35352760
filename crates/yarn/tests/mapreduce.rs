//! MapReduce on the YARN analog: phase barriers under preemption.

use cbp_core::PreemptionPolicy;
use cbp_storage::MediaKind;
use cbp_workload::mapreduce::{MapReduceConfig, MapReducePlan, MapReduceShape};
use cbp_yarn::YarnConfig;

fn plan(seed: u64) -> MapReducePlan {
    MapReduceConfig {
        jobs: 8,
        shape: MapReduceShape {
            maps: 12,
            reduces: 3,
            ..MapReduceShape::default()
        },
        mean_interarrival: cbp_simkit::SimDuration::from_secs(240),
        high_priority_fraction: 0.25,
    }
    .generate(seed)
}

fn cluster(policy: PreemptionPolicy, media: MediaKind) -> YarnConfig {
    let mut cfg = YarnConfig::paper_cluster(policy, media);
    cfg.nodes = 2;
    cfg
}

#[test]
fn mapreduce_completes_under_every_policy() {
    let p = plan(1);
    for policy in PreemptionPolicy::ALL {
        let r = cluster(policy, MediaKind::Ssd).run_mapreduce(&p);
        assert_eq!(
            r.metrics.jobs_finished,
            p.workload.job_count() as u64,
            "{policy}: jobs lost"
        );
        assert_eq!(
            r.metrics.tasks_finished,
            p.workload.task_count() as u64,
            "{policy}: tasks lost"
        );
    }
}

/// The barrier is respected: a job's makespan is at least one map phase
/// plus one reduce phase, even on an idle cluster.
#[test]
fn barrier_serializes_phases() {
    let p = MapReduceConfig {
        jobs: 1,
        shape: MapReduceShape::default(),
        mean_interarrival: cbp_simkit::SimDuration::from_secs(1),
        high_priority_fraction: 0.0,
    }
    .generate(2);
    let job = &p.workload.jobs()[0];
    let r = cluster(PreemptionPolicy::Wait, MediaKind::Ssd).run_mapreduce(&p);
    let shape = MapReduceShape::default();
    let min_secs = shape.map_duration.as_secs_f64() + shape.reduce_duration.as_secs_f64();
    let response = r.metrics.makespan_secs - job.submit.as_secs_f64();
    assert!(
        response >= min_secs - 1.0,
        "phases overlapped: response {response:.0}s < {min_secs:.0}s"
    );
    assert_eq!(r.metrics.jobs_finished, 1);
}

/// Without a barrier the same flat workload can overlap "phases" — the
/// barrier must make jobs strictly slower or equal.
#[test]
fn barrier_never_speeds_things_up() {
    let p = plan(3);
    let with_barrier = cluster(PreemptionPolicy::Kill, MediaKind::Ssd).run_mapreduce(&p);
    let flat = cluster(PreemptionPolicy::Kill, MediaKind::Ssd).run(&p.workload);
    assert!(
        with_barrier.metrics.makespan_secs >= flat.metrics.makespan_secs - 1.0,
        "barrier {} vs flat {}",
        with_barrier.metrics.makespan_secs,
        flat.metrics.makespan_secs
    );
}

/// Checkpointing protects map progress from production bursts: waste under
/// checkpoint-NVM is lower than under kill.
#[test]
fn checkpointing_helps_mapreduce() {
    let p = plan(4);
    let kill = cluster(PreemptionPolicy::Kill, MediaKind::Nvm).run_mapreduce(&p);
    let chk = cluster(PreemptionPolicy::Checkpoint, MediaKind::Nvm).run_mapreduce(&p);
    if kill.metrics.kills > 0 {
        assert!(
            chk.metrics.wasted_cpu_hours() <= kill.metrics.wasted_cpu_hours(),
            "chk {} vs kill {}",
            chk.metrics.wasted_cpu_hours(),
            kill.metrics.wasted_cpu_hours()
        );
    }
    assert_eq!(chk.metrics.jobs_finished, p.workload.job_count() as u64);
}

#[test]
fn deterministic() {
    let p = plan(5);
    let a = cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd).run_mapreduce(&p);
    let b = cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd).run_mapreduce(&p);
    assert!((a.metrics.makespan_secs - b.metrics.makespan_secs).abs() < 1e-9);
    assert_eq!(a.metrics.kills, b.metrics.kills);
    assert_eq!(a.metrics.checkpoints, b.metrics.checkpoints);
}
