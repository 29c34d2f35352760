//! Criterion benchmarks of the scheduling stacks: full policy runs on a
//! small contended trace (the engine behind Figs. 3, 5, 8 and 10).

use cbp_core::{PreemptionPolicy, SimConfig};
use cbp_storage::MediaKind;
use cbp_workload::facebook::FacebookConfig;
use cbp_workload::google::GoogleTraceConfig;
use cbp_yarn::YarnConfig;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_trace_sim(c: &mut Criterion) {
    let workload = GoogleTraceConfig::small(120.0).generate(7);
    let mut group = c.benchmark_group("trace_sim");
    group.sample_size(10);
    for policy in [
        PreemptionPolicy::Kill,
        PreemptionPolicy::Checkpoint,
        PreemptionPolicy::Adaptive,
    ] {
        group.bench_function(format!("{policy}_ssd"), |b| {
            b.iter(|| {
                let cfg = SimConfig::trace_sim(policy, MediaKind::Ssd).with_nodes(4);
                black_box(cfg.run(&workload).metrics.preemptions)
            })
        });
    }
    group.finish();
}

fn bench_yarn_sim(c: &mut Criterion) {
    let workload = FacebookConfig {
        jobs: 10,
        total_tasks: 200,
        giant_job_tasks: 60,
        ..Default::default()
    }
    .generate(7);
    let mut group = c.benchmark_group("yarn_sim");
    group.sample_size(10);
    for policy in [PreemptionPolicy::Kill, PreemptionPolicy::Adaptive] {
        group.bench_function(format!("{policy}_nvm"), |b| {
            b.iter(|| {
                let mut cfg = YarnConfig::paper_cluster(policy, MediaKind::Nvm);
                cfg.nodes = 2;
                black_box(cfg.run(&workload).metrics.tasks_finished)
            })
        });
    }
    group.finish();
}

fn bench_workload_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload_gen");
    group.sample_size(10);
    group.bench_function("google_small", |b| {
        let cfg = GoogleTraceConfig::small(200.0);
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(cfg.generate(seed).task_count())
        })
    });
    group.bench_function("facebook_full", |b| {
        let cfg = FacebookConfig::default();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(cfg.generate(seed).task_count())
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_trace_sim,
    bench_yarn_sim,
    bench_workload_generation
);
criterion_main!(benches);
