//! Heap allocations per checkpoint dump in a YarnSim run.
//!
//! Every dump runs the AM's preemption decision, the CRIU dump and a DFS
//! write, so the allocations a run makes per dump bound what those paths
//! allocate. The count is a pure function of the seeded inputs, so the
//! bound is exact on any machine: a path that starts allocating per DFS
//! block, or copies each file's path, shows up here.
//!
//! A counting global allocator is installed for this binary alone, and the
//! one test it holds is the only thing running while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use cbp::core::PreemptionPolicy;
use cbp::storage::MediaKind;
use cbp::workload::facebook::FacebookConfig;
use cbp::yarn::{YarnConfig, YarnSim};

/// Counts allocations while [`COUNTING`] is set, then defers to [`System`].
struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations per dump the run may make. The run below makes 7.0 per
/// dump in release builds and 23.4 in debug builds, whose assertions run
/// allocating reference scans. One more allocation per DFS block (13.7
/// blocks per dump) or per file path crosses either bound.
const BUDGET_PER_DUMP: f64 = if cfg!(debug_assertions) { 24.0 } else { 8.0 };

#[test]
fn yarn_run_allocations_per_dump_stay_in_budget() {
    // The paper's 8 x 24 cluster under the full Facebook workload, as
    // `repro fig8 --scale full` runs it, checkpointing to HDD through HDFS.
    let workload = FacebookConfig {
        giant_job_tasks: (8.0 * 24.0 * 1.3) as usize,
        ..Default::default()
    }
    .generate(42);
    let cfg = YarnConfig::paper_cluster(PreemptionPolicy::Checkpoint, MediaKind::Hdd);
    let sim = YarnSim::new(cfg, workload);

    COUNTING.store(true, Ordering::Relaxed);
    let report = sim.run();
    COUNTING.store(false, Ordering::Relaxed);

    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let dumps = report.metrics.checkpoints;
    assert!(dumps > 100, "the run must checkpoint: {dumps} dumps");
    let per_dump = allocations as f64 / dumps as f64;
    assert!(
        per_dump < BUDGET_PER_DUMP,
        "{allocations} allocations over {dumps} dumps = {per_dump:.1} per dump \
         (budget {BUDGET_PER_DUMP})"
    );
}
