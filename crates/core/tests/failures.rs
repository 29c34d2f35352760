//! Node-failure injection and queue-discipline behaviour.

use cbp_core::{PreemptionPolicy, QueueDiscipline, SimConfig};
use cbp_simkit::SimDuration;
use cbp_storage::MediaKind;
use cbp_workload::google::GoogleTraceConfig;
use cbp_workload::Workload;

fn workload(seed: u64) -> Workload {
    GoogleTraceConfig::small(200.0).generate(seed)
}

fn flaky_cluster(policy: PreemptionPolicy) -> SimConfig {
    SimConfig::trace_sim(policy, MediaKind::Ssd)
        .with_nodes(6)
        // Each node fails roughly every 20 simulated minutes and stays
        // down for 2 — aggressive, to exercise the paths hard.
        .with_failures(SimDuration::from_secs(1_200), SimDuration::from_secs(120))
}

#[test]
fn workload_survives_failures_under_every_policy() {
    let w = workload(1);
    for policy in PreemptionPolicy::ALL {
        let report = flaky_cluster(policy).run(&w);
        assert_eq!(
            report.metrics.jobs_finished,
            w.job_count() as u64,
            "{policy}: jobs lost to failures"
        );
        assert!(
            report.metrics.failure_evictions > 0,
            "{policy}: failures must actually evict work"
        );
    }
}

#[test]
fn failures_are_deterministic() {
    let w = workload(2);
    let a = flaky_cluster(PreemptionPolicy::Adaptive).run(&w);
    let b = flaky_cluster(PreemptionPolicy::Adaptive).run(&w);
    assert_eq!(a.metrics.failure_evictions, b.metrics.failure_evictions);
    assert!((a.metrics.makespan_secs - b.metrics.makespan_secs).abs() < 1e-9);
}

/// HDFS replication protects checkpoint images from node failures; the
/// local-FS configuration loses them.
#[test]
fn dfs_replication_protects_images() {
    let w = workload(3);
    let mut with_dfs = flaky_cluster(PreemptionPolicy::Checkpoint);
    with_dfs.via_dfs = true;
    let dfs_report = with_dfs.run(&w);
    assert_eq!(
        dfs_report.metrics.images_lost_to_failures, 0,
        "HDFS-replicated images must survive node failures"
    );

    let mut local_only = flaky_cluster(PreemptionPolicy::Checkpoint);
    local_only.via_dfs = false;
    let local_report = local_only.run(&w);
    // Image loss under local-FS requires a failure to hit a node holding
    // images — overwhelmingly likely at this failure rate, but the real
    // assertion is that both runs still finish everything.
    assert_eq!(local_report.metrics.jobs_finished, w.job_count() as u64);
}

#[test]
fn failure_waste_is_accounted() {
    let w = workload(4);
    let calm = SimConfig::trace_sim(PreemptionPolicy::Wait, MediaKind::Ssd).with_nodes(6);
    let calm_report = calm.run(&w);
    assert_eq!(calm_report.metrics.failure_evictions, 0);
    assert_eq!(calm_report.metrics.kill_lost_cpu_hours, 0.0);

    let flaky = flaky_cluster(PreemptionPolicy::Wait).run(&w);
    // Wait never preempts, so all lost progress comes from failures.
    assert_eq!(flaky.metrics.preemptions(), 0);
    assert!(flaky.metrics.failure_evictions > 0);
    assert!(flaky.metrics.kill_lost_cpu_hours > 0.0);
}

/// Fair intra-priority scheduling interleaves jobs: the mean response of
/// small jobs improves relative to strict FIFO when a huge job is in front.
#[test]
fn fair_discipline_helps_small_jobs() {
    use cbp_cluster::Resources;
    use cbp_simkit::units::ByteSize;
    use cbp_simkit::SimTime;
    use cbp_workload::{JobId, JobSpec, LatencyClass, Priority, TaskId, TaskSpec};

    // One 60-task job followed by five 2-task jobs, same priority, on a
    // tiny cluster.
    let task = |job: u64, index: u32| TaskSpec {
        id: TaskId {
            job: JobId(job),
            index,
        },
        resources: Resources::new_cores(1, ByteSize::from_gb(1)),
        duration: SimDuration::from_secs(300),
        dirty_rate_per_sec: 0.002,
    };
    let mut jobs = vec![JobSpec {
        id: JobId(0),
        submit: SimTime::ZERO,
        priority: Priority::new(0),
        latency: LatencyClass::new(0),
        tasks: (0..60).map(|i| task(0, i)).collect(),
    }];
    for j in 1..=5 {
        jobs.push(JobSpec {
            id: JobId(j),
            submit: SimTime::from_secs(10),
            priority: Priority::new(0),
            latency: LatencyClass::new(0),
            tasks: (0..2).map(|i| task(j, i)).collect(),
        });
    }
    let w = Workload::new(jobs);

    let base = SimConfig::trace_sim(PreemptionPolicy::Kill, MediaKind::Ssd)
        .with_nodes(1)
        .with_node_resources(Resources::new_cores(8, ByteSize::from_gb(64)));
    let fifo = base
        .clone()
        .with_queue_discipline(QueueDiscipline::Fifo)
        .run(&w);
    let fair = base.with_queue_discipline(QueueDiscipline::Fair).run(&w);

    // Under FIFO the five small jobs wait behind all 60 tasks of job 0;
    // under Fair they interleave and finish far earlier. Mean response over
    // all jobs is dominated by the small jobs (5 of 6).
    assert!(
        fair.metrics.mean_response_overall() < fifo.metrics.mean_response_overall() * 0.7,
        "fair {} vs fifo {}",
        fair.metrics.mean_response_overall(),
        fifo.metrics.mean_response_overall()
    );
    // Throughput is conserved either way.
    assert_eq!(fair.metrics.tasks_finished, fifo.metrics.tasks_finished);
}

/// Regression for the drain guard in `schedule_next_failure`: once the
/// workload has drained, the per-node fail/recover chain must stop
/// regenerating (each node fires at most the one failure already queued
/// at drain time). Without the guard the chain self-perpetuates and the
/// run never terminates — the comment in `sim.rs` claims the behaviour,
/// this pins it.
#[test]
fn failure_injection_stops_after_drain() {
    use std::cell::RefCell;
    use std::rc::Rc;

    use cbp_core::ClusterSim;
    use cbp_telemetry::{JsonlReader, JsonlTracer, TraceRecord};

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

    let w = workload(5);
    let buf = SharedBuf::default();
    let mut sim = ClusterSim::new(flaky_cluster(PreemptionPolicy::Adaptive), w.clone());
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    let report = sim.run();
    assert_eq!(report.metrics.jobs_finished, w.job_count() as u64);

    let bytes = buf.0.borrow().clone();
    let mut last_finish = 0u64;
    let mut fail_times: Vec<u64> = Vec::new();
    for item in JsonlReader::new(bytes.as_slice()).unwrap() {
        let (t, rec) = item.unwrap();
        match rec {
            TraceRecord::TaskFinish { .. } => last_finish = last_finish.max(t),
            TraceRecord::NodeFail { .. } => fail_times.push(t),
            _ => {}
        }
    }
    assert!(!fail_times.is_empty(), "scenario must inject failures");
    let after_drain = fail_times.iter().filter(|&&t| t > last_finish).count();
    assert!(
        after_drain <= 6, // one in-flight failure per node at most
        "{after_drain} node failures fired after the last task finished \
         (chain kept regenerating past the drain)"
    );
}
