//! A counting global allocator (feature `count-alloc`).
//!
//! Wraps the system allocator with three relaxed atomic counters:
//! cumulative allocation count, live bytes, and the high-water mark of
//! live bytes. The scope profiler reads `allocations()` on scope
//! entry/exit to attribute allocation counts to paths; the benchmark
//! harness reads `peak_bytes()` as an RSS proxy (both exist only with
//! the feature on).
//!
//! The allocator must be installed by the *binary* crate:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: cbp_prof::alloc::CountingAllocator = cbp_prof::alloc::CountingAllocator;
//! ```
//!
//! Without the feature this module is empty and the profiler records 0
//! allocations everywhere.

#[cfg(feature = "count-alloc")]
pub use imp::*;

#[cfg(feature = "count-alloc")]
mod imp {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
    static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);

    /// Cumulative number of allocations since process start.
    pub fn allocations() -> u64 {
        ALLOCATIONS.load(Ordering::Relaxed)
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live_bytes() -> u64 {
        LIVE_BYTES.load(Ordering::Relaxed)
    }

    /// High-water mark of [`live_bytes`] since the last [`reset_peak`].
    pub fn peak_bytes() -> u64 {
        PEAK_BYTES.load(Ordering::Relaxed)
    }

    /// Resets the peak to the current live size (call between benchmark
    /// phases to measure each phase's own high-water mark).
    pub fn reset_peak() {
        PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn on_alloc(size: usize) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
        // Racy max is fine: the peak is a diagnostic, not an invariant.
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    }

    fn on_dealloc(size: usize) {
        LIVE_BYTES.fetch_sub(size as u64, Ordering::Relaxed);
    }

    /// The counting allocator; a unit struct delegating to [`System`].
    pub struct CountingAllocator;

    // The only unsafe in the workspace: forwarding the global-allocator
    // contract verbatim to `System`.
    #[allow(unsafe_code)]
    unsafe impl GlobalAlloc for CountingAllocator {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            let p = System.alloc(layout);
            if !p.is_null() {
                on_alloc(layout.size());
            }
            p
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout);
            on_dealloc(layout.size());
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            let p = System.realloc(ptr, layout, new_size);
            if !p.is_null() {
                // Count a realloc as one allocation event plus a size delta.
                ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
                if new_size >= layout.size() {
                    let grow = (new_size - layout.size()) as u64;
                    let live = LIVE_BYTES.fetch_add(grow, Ordering::Relaxed) + grow;
                    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
                } else {
                    LIVE_BYTES.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
                }
            }
            p
        }
    }
}
