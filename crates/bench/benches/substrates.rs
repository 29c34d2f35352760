//! Criterion benchmarks of the substrate crates: event queue, storage
//! device queueing, DFS placement, and the energy integrator.

use cbp_cluster::{EnergyMeter, EnergyModel};
use cbp_dfs::{DfsCluster, DfsConfig, DnId};
use cbp_simkit::units::ByteSize;
use cbp_simkit::{EventQueue, SimTime};
use cbp_storage::{Device, MediaSpec};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(10_000);
            for i in 0..10_000u64 {
                // Scatter times so the heap actually works.
                q.push(SimTime::from_micros((i * 2_654_435_761) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
}

fn bench_device_queue(c: &mut Criterion) {
    c.bench_function("device_1k_interleaved_ops", |b| {
        b.iter_batched(
            || Device::new(MediaSpec::ssd()),
            |mut dev| {
                let mut t = SimTime::ZERO;
                for i in 0..1_000u64 {
                    if i % 2 == 0 {
                        dev.submit_write(t, ByteSize::from_mb(64));
                    } else {
                        dev.submit_read(t, ByteSize::from_mb(64));
                    }
                    t += cbp_simkit::SimDuration::from_millis(10);
                }
                black_box(dev.busy_time())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_dfs(c: &mut Criterion) {
    c.bench_function("dfs_create_read_delete_100_files", |b| {
        b.iter_batched(
            || DfsCluster::homogeneous(DfsConfig::default(), MediaSpec::ssd(), 8, 3),
            |mut dfs| {
                for i in 0..100 {
                    let path = format!("/f{i}");
                    dfs.create(path.as_str(), ByteSize::from_mb(256), DnId(i % 8))
                        .unwrap();
                    black_box(dfs.read_cost(&path, DnId((i + 1) % 8)).unwrap().duration);
                }
                for i in 0..100 {
                    dfs.delete(&format!("/f{i}")).unwrap();
                }
                black_box(dfs.total_used())
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_energy(c: &mut Criterion) {
    c.bench_function("energy_meter_10k_updates", |b| {
        b.iter(|| {
            let mut m = EnergyMeter::new(EnergyModel::default());
            for i in 0..10_000u64 {
                m.set_utilization(SimTime::from_millis(i * 10), (i % 100) as f64 / 100.0);
            }
            black_box(m.kwh(SimTime::from_secs(100)))
        })
    });
}

criterion_group!(
    benches,
    bench_event_queue,
    bench_device_queue,
    bench_dfs,
    bench_energy
);
criterion_main!(benches);
