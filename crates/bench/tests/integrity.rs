//! Capstone invariants for cbp-integrity — chunked resumable dump/restore
//! with end-to-end checkpoint integrity — exercised on BOTH simulators:
//!
//! 1. **Manifest round-trip** — [`ChunkManifest`] construction,
//!    corrupt→repair cycles and the durable-prefix arithmetic hold for
//!    arbitrary image sizes and chunk sizes (proptest).
//! 2. **Determinism** — the same `(simulation seed, fault plan)` pair
//!    produces a byte-identical JSONL trace with resume enabled AND with
//!    the `resume=false` ablation, so integrity runs are exactly
//!    replayable in both modes.
//! 3. **Resume pays for itself** — under the heavy fault profile the
//!    resume+prefix-restore machinery engages (resumed dumps, replica
//!    re-fetches, chain truncations) and its retry overhead and scratch
//!    restarts are no worse than the `resume=false` ablation's.

use std::cell::RefCell;
use std::rc::Rc;

use cbp_checkpoint::{ChunkManifest, ImageId};
use cbp_core::{ClusterSim, PreemptionPolicy, RunReport, SimConfig};
use cbp_faults::FaultSpec;
use cbp_simkit::units::ByteSize;
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

/// The heavy chaos profile with chunked resume on or off (the
/// `resume=false` fault-spec key sets the same bit).
fn heavy(plan_seed: u64, resume: bool) -> FaultSpec {
    FaultSpec {
        seed: plan_seed,
        resume,
        ..FaultSpec::heavy()
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

/// Counts JSONL trace lines of the given record kind.
fn kind_count(bytes: &[u8], kind: &str) -> usize {
    let needle = format!("\"{kind}\"");
    String::from_utf8(bytes.to_vec())
        .expect("trace is UTF-8")
        .lines()
        .filter(|l| l.contains(&needle))
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// ChunkManifest round-trip: shape arithmetic, corrupt→repair.
    #[test]
    fn chunk_manifest_round_trip(
        image in 0u64..u64::MAX,
        size in 1u64..4_000_000_000,
        chunk_mb in 1u64..256,
        bad in proptest::collection::vec(0u64..10_000, 0..8),
        frac in 0.0f64..1.0,
    ) {
        let chunk_bytes = chunk_mb * 1_000_000;
        let id = ImageId(image);
        let mut m = ChunkManifest::build(id, ByteSize::from_bytes(size), chunk_bytes);

        // Shape: ceil-split with a shorter final chunk, nothing lost.
        prop_assert_eq!(m.chunk_count(), size.div_ceil(chunk_bytes));
        prop_assert_eq!(m.total_len().as_u64(), size);
        prop_assert!(m.is_clean());
        prop_assert!(m.verify(id));
        prop_assert!(!m.verify(ImageId(image ^ 1)), "checksums keyed by image id");

        // Durable-prefix arithmetic: floor to a chunk boundary, bounded.
        let durable = m.durable_chunks(frac);
        prop_assert!(durable <= m.chunk_count());
        prop_assert!(m.durable_bytes(frac).as_u64() <= size);
        prop_assert_eq!(m.durable_chunks(1.0), m.chunk_count());
        prop_assert_eq!(m.durable_chunks(0.0), 0);

        // Corrupt → repair returns the manifest to its built state.
        let candidates: Vec<u64> = bad.iter().map(|b| b % m.chunk_count()).collect();
        let marked: Vec<u64> = candidates
            .into_iter()
            .filter(|&c| m.mark_corrupt(c))
            .collect();
        prop_assert_eq!(m.is_clean(), marked.is_empty());
        let mut flagged = m.corrupt_chunks();
        flagged.sort_unstable();
        let mut expect = marked.clone();
        expect.sort_unstable();
        prop_assert_eq!(flagged, expect);
        // Detected corruption never invalidates the manifest itself.
        prop_assert!(m.verify(id));
        for c in &marked {
            prop_assert!(m.repair(*c));
            prop_assert!(!m.repair(*c), "repair of a clean chunk is a no-op");
        }
        prop_assert!(m.is_clean());
        prop_assert_eq!(&m, &ChunkManifest::build(id, ByteSize::from_bytes(size), chunk_bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Both simulators replay byte-identically for the same
    /// `(seed, plan)` with resume ON and with the `resume=false`
    /// ablation — the chunk/corruption/refetch draws are stateless.
    #[test]
    fn resume_on_and_off_replay_byte_identically(
        seed in 0u64..1_000_000,
        plan_seed in 0u64..1_000_000,
        resume_bit in 0u8..2,
    ) {
        let resume = resume_bit == 1;
        let w = GoogleTraceConfig::small(80.0).generate(seed);
        let ccfg = || {
            SimConfig::trace_sim(PreemptionPolicy::Checkpoint, MediaKind::Ssd)
                .with_nodes(5)
                .with_faults(heavy(plan_seed, resume))
        };
        let (report, bytes_a) = traced_cluster(ccfg(), &w);
        prop_assert_eq!(report.metrics.jobs_finished, w.job_count() as u64);
        let (_, bytes_b) = traced_cluster(ccfg(), &w);
        prop_assert_eq!(bytes_a, bytes_b, "cluster: integrity replay must be byte-identical");

        let fw = FacebookConfig {
            jobs: 10,
            total_tasks: 240,
            giant_job_tasks: 60,
            ..Default::default()
        }
        .generate(seed);
        let ycfg = || {
            let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Ssd);
            cfg.nodes = 2;
            cfg.with_faults(heavy(plan_seed, resume))
        };
        let (report, bytes_a) = traced_yarn(ycfg(), &fw);
        prop_assert_eq!(report.metrics.jobs_finished, fw.job_count() as u64);
        let (_, bytes_b) = traced_yarn(ycfg(), &fw);
        prop_assert_eq!(bytes_a, bytes_b, "yarn: integrity replay must be byte-identical");
    }
}

/// Heavy faults on the cluster simulator: the resume machinery engages
/// (resumed dumps with real byte credit, corrupt restores recovered by
/// replica re-fetch or prefix truncation), and — summed over several
/// seeds so single-run scheduling noise washes out — its retry overhead
/// and scratch restarts are no worse than the `resume=false` ablation,
/// which rewrites every failed dump from byte zero and treats every
/// corrupt image as a total loss.
#[test]
fn cluster_heavy_faults_resume_no_worse_than_ablation() {
    let base = || SimConfig::trace_sim(PreemptionPolicy::Checkpoint, MediaKind::Ssd).with_nodes(5);
    // Whether a draw is contended enough to checkpoint is seed-dependent;
    // probe (deterministically) for draws with real checkpoint traffic.
    let contended: Vec<Workload> = (5..40)
        .map(|seed| GoogleTraceConfig::small(120.0).generate(seed))
        .filter(|w| {
            let calm = base().run(w);
            calm.metrics.checkpoints >= 10 && calm.metrics.restores >= 10
        })
        .take(3)
        .collect();
    assert_eq!(contended.len(), 3, "3 contended draws within 35 seeds");

    let mut on_retry = 0.0;
    let mut off_retry = 0.0;
    let (mut on_scratch, mut off_scratch) = (0u64, 0u64);
    let (mut resumed, mut resumed_bytes, mut repairs) = (0u64, 0u64, 0u64);
    for w in &contended {
        let (on, bytes_on) = traced_cluster(base().with_faults(heavy(7, true)), w);
        let (off, bytes_off) = traced_cluster(base().with_faults(heavy(7, false)), w);
        // Liveness in both modes.
        assert_eq!(on.metrics.jobs_finished, w.job_count() as u64);
        assert_eq!(off.metrics.jobs_finished, w.job_count() as u64);
        on_retry += on.metrics.retry_overhead_cpu_hours;
        off_retry += off.metrics.retry_overhead_cpu_hours;
        on_scratch += on.metrics.scratch_restarts;
        off_scratch += off.metrics.scratch_restarts;
        resumed += on.metrics.resumed_dumps;
        resumed_bytes += on.metrics.resumed_bytes;
        repairs += on.metrics.chunk_refetches + on.metrics.chain_truncations;
        // The ablation must not touch the integrity machinery at all.
        let m = &off.metrics;
        assert_eq!(
            (m.resumed_dumps, m.chunk_refetches, m.chain_truncations),
            (0, 0, 0),
            "resume=false must disable chunked resume entirely"
        );
        for kind in ["resume_dump", "chunk_refetch", "chain_truncate"] {
            assert_eq!(kind_count(&bytes_off, kind), 0, "{kind} in ablation trace");
        }
        // The resumed run's trace records its recovery work.
        assert_eq!(
            kind_count(&bytes_on, "resume_dump") as u64,
            on.metrics.resumed_dumps
        );
        assert_eq!(
            kind_count(&bytes_on, "chain_truncate") as u64,
            on.metrics.chain_truncations
        );
    }
    assert!(resumed > 0, "heavy faults must resume some dumps");
    assert!(resumed_bytes > 0, "resumed dumps must credit durable bytes");
    assert!(
        repairs > 0,
        "corrupt restores must recover via refetch or prefix truncation"
    );
    assert!(
        on_retry <= off_retry,
        "resume retry overhead {on_retry} must not exceed ablation {off_retry}"
    );
    assert!(
        on_scratch <= off_scratch,
        "resume scratch restarts {on_scratch} must not exceed ablation {off_scratch}"
    );
}

/// Heavy faults on the YARN simulator: resumed dumps engage with real
/// byte credit, corrupt restores recover via replica re-fetch, prefix
/// truncation or (last resort) an in-place scratch restart, every task
/// still finishes, and the `resume=false` ablation keeps the whole
/// integrity ledger at zero.
#[test]
fn yarn_heavy_faults_engage_integrity_machinery() {
    let workload = |seed: u64| {
        FacebookConfig {
            jobs: 12,
            total_tasks: 300,
            giant_job_tasks: 80,
            ..Default::default()
        }
        .generate(seed)
    };
    let cfg = |resume: bool| {
        let mut cfg = YarnConfig::paper_cluster(PreemptionPolicy::Adaptive, MediaKind::Hdd);
        cfg.nodes = 2;
        cfg.with_faults(heavy(7, resume))
    };

    let (mut resumed, mut resumed_bytes, mut recovered) = (0u64, 0u64, 0u64);
    for seed in 3..9 {
        let fw = workload(seed);
        let (on, bytes_on) = traced_yarn(cfg(true), &fw);
        assert_eq!(on.metrics.jobs_finished, fw.job_count() as u64);
        assert_eq!(on.metrics.tasks_finished, fw.task_count() as u64);
        resumed += on.metrics.resumed_dumps;
        resumed_bytes += on.metrics.resumed_bytes;
        recovered += on.metrics.chunk_refetches
            + on.metrics.chain_truncations
            + on.metrics.integrity_scratch_restarts;
        assert_eq!(
            kind_count(&bytes_on, "resume_dump") as u64,
            on.metrics.resumed_dumps
        );

        let (off, bytes_off) = traced_yarn(cfg(false), &fw);
        assert_eq!(off.metrics.jobs_finished, fw.job_count() as u64);
        assert_eq!(
            (
                off.metrics.resumed_dumps,
                off.metrics.chunk_refetches,
                off.metrics.chain_truncations,
                off.metrics.integrity_scratch_restarts
            ),
            (0, 0, 0, 0),
            "resume=false must keep the yarn integrity ledger at zero"
        );
        for kind in ["resume_dump", "chunk_refetch", "chain_truncate"] {
            assert_eq!(kind_count(&bytes_off, kind), 0, "{kind} in ablation trace");
        }
    }
    assert!(resumed > 0, "heavy faults must resume some yarn dumps");
    assert!(
        resumed_bytes > 0,
        "resumed yarn dumps must credit durable bytes"
    );
    assert!(
        recovered > 0,
        "corrupt yarn restores must engage refetch / truncate / scratch"
    );
}
