//! Criterion benchmark of what the telemetry wiring costs a run.
//!
//! A run's counters are a fold over its trace records, so with the
//! default `NullTracer` every record the run ledger counts is still
//! built and folded; only its hand-off to the tracer is skipped. A record
//! nothing counts whose fields cost more than a copy is built only while
//! a tracer is on. Since no untraced build exists in-tree, we compare
//!
//! * `null_tracer` — the default, exactly what every experiment runs, vs.
//! * `sink_tracer` — a `JsonlTracer` writing to `std::io::sink()`, the
//!   full record-construction + serialization cost, vs.
//! * `sampled` — `NullTracer` plus the 60 s time-series probe.
//!
//! `null_tracer` is the number to watch: it is the disabled-path cost.
//!
//! The `jsonl_read` group times the read side: `JsonlReader` decoding the
//! `sink_tracer` configuration's trace from memory.
//!
//! After the timed groups, the bench prints an engine-throughput line
//! (events/sec from the run's `TelemetryReport`, which the engine fills
//! from its `RunStats`) for each configuration, so the Criterion output
//! can be compared against the `repro bench` BENCH_*.json trajectory —
//! see EXPERIMENTS.md, "Wall-clock profiling & perf trajectory". Two last
//! lines give the JSONL emission cost in ns/record (`sink_tracer` minus
//! `null_tracer`, divided by the records written) and the reader's
//! records/s and MB/s.

use cbp_core::{ClusterSim, PreemptionPolicy, SimConfig, TelemetryReport};
use cbp_simkit::SimDuration;
use cbp_storage::MediaKind;
use cbp_telemetry::{JsonlReader, JsonlTracer};
use cbp_workload::google::GoogleTraceConfig;
use cbp_workload::Workload;
use criterion::{criterion_group, criterion_main, Criterion};
use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

fn setup() -> (Workload, SimConfig) {
    let workload = GoogleTraceConfig::small(120.0).generate(7);
    let cfg = SimConfig::trace_sim(PreemptionPolicy::Adaptive, MediaKind::Ssd).with_nodes(4);
    (workload, cfg)
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

/// The JSONL trace of the `sink_tracer` configuration, kept in memory.
fn sink_tracer_trace(cfg: &SimConfig, workload: &Workload) -> Vec<u8> {
    let buf = SharedBuf::default();
    let mut sim = ClusterSim::new(cfg.clone(), workload.clone());
    sim.set_tracer(Box::new(JsonlTracer::new(buf.clone())));
    sim.run();
    buf.0.take()
}

/// Decodes every record of `trace`; returns the record count.
fn read_all(trace: &[u8]) -> usize {
    let mut records = 0;
    for item in JsonlReader::new(trace).expect("schema header") {
        black_box(item.expect("well-formed record"));
        records += 1;
    }
    records
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let (workload, cfg) = setup();
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(20);

    group.bench_function("null_tracer", |b| {
        b.iter(|| {
            // Default tracer: the disabled path (one branch per trace point).
            let sim = ClusterSim::new(cfg.clone(), workload.clone());
            black_box(sim.run().metrics.preemptions())
        })
    });

    group.bench_function("sink_tracer", |b| {
        b.iter(|| {
            let mut sim = ClusterSim::new(cfg.clone(), workload.clone());
            sim.set_tracer(Box::new(JsonlTracer::new(std::io::sink())));
            black_box(sim.run().metrics.preemptions())
        })
    });

    group.bench_function("sampled", |b| {
        b.iter(|| {
            let mut sim = ClusterSim::new(cfg.clone(), workload.clone());
            sim.enable_sampling(SimDuration::from_secs(60));
            black_box(sim.run().metrics.preemptions())
        })
    });

    group.finish();

    let trace = sink_tracer_trace(&cfg, &workload);
    let mut group = c.benchmark_group("jsonl_read");
    group.sample_size(20);
    group.bench_function("sink_tracer_trace", |b| b.iter(|| read_all(&trace)));
    group.finish();

    report_throughput(&cfg, &workload, &trace);
}

/// Untimed runs of each configuration, [`REPS`] rounds of one run each:
/// engine events/sec of the fastest run of each, so the Criterion wall
/// times can be read alongside the BENCH_*.json trajectory; the JSONL
/// emission cost per record, the median over rounds of `sink_tracer`
/// minus `null_tracer` divided by the records of `trace`; and the fastest
/// of [`REPS`] reads of `trace`, as records/s and MB/s.
fn report_throughput(cfg: &SimConfig, workload: &Workload, trace: &[u8]) {
    println!("telemetry_overhead: engine throughput (events/sec)");
    type Prepare = fn(&mut ClusterSim);
    let configs: [(&str, Prepare); 3] = [
        ("null_tracer", |_| {}),
        ("sink_tracer", |sim| {
            sim.set_tracer(Box::new(JsonlTracer::new(std::io::sink())));
        }),
        ("sampled", |sim| {
            sim.enable_sampling(SimDuration::from_secs(60));
        }),
    ];
    // A round runs every configuration once, so a slow phase of the
    // machine weighs on all of them alike.
    let rounds: Vec<Vec<TelemetryReport>> = (0..REPS)
        .map(|_| {
            configs
                .iter()
                .map(|(_, prepare)| {
                    let mut sim = ClusterSim::new(cfg.clone(), workload.clone());
                    prepare(&mut sim);
                    sim.run().telemetry
                })
                .collect()
        })
        .collect();
    for (i, (name, _)) in configs.iter().enumerate() {
        let fastest = rounds
            .iter()
            .map(|round| &round[i])
            .min_by(|a, b| a.engine_wall_secs.total_cmp(&b.engine_wall_secs))
            .expect("REPS > 0");
        println!(
            "  {name:<12} {:>9} events  {:>12.0} events/s",
            fastest.engine_events,
            fastest.events_per_sec()
        );
    }
    let mut emit_secs: Vec<f64> = rounds
        .iter()
        .map(|round| round[1].engine_wall_secs - round[0].engine_wall_secs)
        .collect();
    emit_secs.sort_by(f64::total_cmp);
    let mut records = 0;
    let mut read_secs = f64::INFINITY;
    for _ in 0..REPS {
        let start = Instant::now();
        records = read_all(trace);
        read_secs = read_secs.min(start.elapsed().as_secs_f64());
    }
    println!(
        "  {:<12} {records:>9} records {:>12.1} ns/record (sink_tracer - null_tracer)",
        "jsonl_emit",
        emit_secs[REPS / 2] / records as f64 * 1e9
    );
    println!(
        "  {:<12} {records:>9} records {:>12.0} records/s {:>8.1} MB/s",
        "jsonl_read",
        records as f64 / read_secs,
        trace.len() as f64 / 1e6 / read_secs
    );
}

/// Rounds of runs, and reads, in [`report_throughput`].
const REPS: usize = 20;

criterion_group!(benches, bench_telemetry_overhead);
criterion_main!(benches);
