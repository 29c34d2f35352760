//! Task address-space model with soft-dirty page tracking.

use cbp_simkit::units::ByteSize;
use cbp_simkit::SimRng;

/// The page granularity at which writes are tracked.
///
/// Real soft-dirty bits are per 4 KiB page; tracking a 5 GB task at that
/// granularity would cost 1.3 M bits per task for no modelling benefit, so
/// the model uses 1 MB pages. Incremental-dump sizes are therefore rounded
/// *up* to 1 MB multiples — a conservative (slightly pessimistic) estimate
/// of CRIU's saving.
pub const DEFAULT_PAGE_SIZE: ByteSize = ByteSize::from_mb(1);

/// A fixed-size bitmap over pages.
///
/// This is the model's stand-in for the kernel's soft-dirty page-table bits:
/// `set` marks a page written, `clear_all` is what CRIU does when it arms
/// tracking after a dump.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirtyBitmap {
    words: Vec<u64>,
    len: usize,
}

impl DirtyBitmap {
    /// Creates a bitmap over `len` pages with every bit **set** — a process
    /// that has never been checkpointed has all pages "dirty".
    pub fn new_all_set(len: usize) -> Self {
        let mut bm = DirtyBitmap {
            words: vec![u64::MAX; len.div_ceil(64)],
            len,
        };
        bm.mask_tail();
        bm
    }

    /// Creates a bitmap over `len` pages with every bit clear.
    pub fn new_clear(len: usize) -> Self {
        DirtyBitmap {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    fn mask_tail(&mut self) {
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of pages covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the bitmap covers zero pages.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks page `i` dirty.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "page {i} out of range ({} pages)", self.len);
        self.words[i / 64] |= 1 << (i % 64);
    }

    /// Whether page `i` is dirty.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "page {i} out of range ({} pages)", self.len);
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    /// Marks the half-open page range `[start, end)` dirty.
    ///
    /// # Panics
    ///
    /// Panics if `end > len` or `start > end`.
    pub fn set_range(&mut self, start: usize, end: usize) {
        assert!(start <= end && end <= self.len, "bad range {start}..{end}");
        if start == end {
            return;
        }
        // Whole words at a time: a head mask from `start`, an end mask up
        // to `end - 1`, and full words in between.
        let (first, last) = (start / 64, (end - 1) / 64);
        let head = u64::MAX << (start % 64);
        let tail = u64::MAX >> (63 - (end - 1) % 64);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            self.words[first + 1..last].fill(u64::MAX);
            self.words[last] |= tail;
        }
    }

    /// Number of dirty pages.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every bit (CRIU re-arms tracking after a dump).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Sets every bit (tracking lost; next dump must be full).
    pub fn set_all(&mut self) {
        self.words.fill(u64::MAX);
        self.mask_tail();
    }
}

/// The memory image of a running task.
///
/// The workload layer calls [`TaskMemory::touch_fraction`] (or the finer
/// variants) as the task executes; the checkpoint layer reads
/// [`TaskMemory::dirty_bytes`] to size an incremental dump and clears
/// tracking on completion.
#[derive(Debug, Clone)]
pub struct TaskMemory {
    size: ByteSize,
    page_size: ByteSize,
    dirty: DirtyBitmap,
    /// Rotating cursor so repeated deterministic touches spread over the
    /// address space instead of re-dirtying the same prefix.
    cursor: usize,
}

impl TaskMemory {
    /// Creates a task image of `size` bytes with [`DEFAULT_PAGE_SIZE`] pages.
    /// All pages start dirty (nothing has been checkpointed yet).
    pub fn new(size: ByteSize) -> Self {
        Self::with_page_size(size, DEFAULT_PAGE_SIZE)
    }

    /// Creates a task image with an explicit tracking page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is zero.
    pub fn with_page_size(size: ByteSize, page_size: ByteSize) -> Self {
        assert!(!page_size.is_zero(), "page size must be positive");
        let pages = (size.as_u64().div_ceil(page_size.as_u64())) as usize;
        TaskMemory {
            size,
            page_size,
            dirty: DirtyBitmap::new_all_set(pages),
            cursor: 0,
        }
    }

    /// Total memory footprint.
    pub fn size(&self) -> ByteSize {
        self.size
    }

    /// Tracking granularity.
    pub fn page_size(&self) -> ByteSize {
        self.page_size
    }

    /// Number of tracked pages.
    pub fn page_count(&self) -> usize {
        self.dirty.len()
    }

    /// Number of pages written since the last checkpoint.
    pub fn dirty_pages(&self) -> usize {
        self.dirty.count()
    }

    /// Bytes that an incremental dump must save, rounded up to whole pages
    /// and capped at the footprint.
    pub fn dirty_bytes(&self) -> ByteSize {
        let raw = self.page_size * self.dirty_pages() as u64;
        raw.min(self.size)
    }

    /// Fraction of pages dirty, in `[0, 1]`.
    pub fn dirty_fraction(&self) -> f64 {
        if self.dirty.is_empty() {
            return 0.0;
        }
        self.dirty_pages() as f64 / self.page_count() as f64
    }

    /// Marks the byte range `[offset, offset + len)` written.
    ///
    /// # Panics
    ///
    /// Panics if the range extends past the footprint.
    pub fn touch_range(&mut self, offset: ByteSize, len: ByteSize) {
        let end_byte = offset.as_u64() + len.as_u64();
        assert!(
            end_byte
                <= self
                    .size
                    .as_u64()
                    .max(self.page_count() as u64 * self.page_size.as_u64()),
            "touch past end of memory"
        );
        if len.is_zero() {
            return;
        }
        let first = (offset.as_u64() / self.page_size.as_u64()) as usize;
        let last = (end_byte.div_ceil(self.page_size.as_u64())) as usize;
        self.dirty.set_range(first, last.min(self.page_count()));
    }

    /// Deterministically marks approximately `frac` of the pages written,
    /// sweeping a rotating cursor across the address space — models an
    /// iterative application (like the paper's k-means jobs) that rewrites a
    /// working set between checkpoints.
    pub fn touch_fraction(&mut self, frac: f64) {
        let frac = frac.clamp(0.0, 1.0);
        let pages = self.page_count();
        if pages == 0 {
            return;
        }
        let n = ((pages as f64 * frac).round() as usize).min(pages);
        // Pages `(cursor + k) % pages` for `k < n`: at most two ranges.
        let end = self.cursor + n;
        if end <= pages {
            self.dirty.set_range(self.cursor, end);
        } else {
            self.dirty.set_range(self.cursor, pages);
            self.dirty.set_range(0, end - pages);
        }
        self.cursor = end % pages;
    }

    /// Marks `frac` of the pages written at uniformly random positions
    /// (models a scattered write pattern).
    pub fn touch_random(&mut self, frac: f64, rng: &mut SimRng) {
        let frac = frac.clamp(0.0, 1.0);
        let pages = self.page_count();
        if pages == 0 {
            return;
        }
        let n = ((pages as f64 * frac).round() as usize).min(pages);
        for _ in 0..n {
            let i = rng.index(pages);
            self.dirty.set(i);
        }
    }

    /// Clears soft-dirty tracking — called when a dump completes.
    pub fn clear_dirty(&mut self) {
        self.dirty.clear_all();
    }

    /// Marks everything dirty — called when tracking is lost (e.g. the task
    /// was killed and restarted from scratch, or tracking was never armed).
    pub fn mark_all_dirty(&mut self) {
        self.dirty.set_all();
    }

    /// Direct access to the dirty bitmap (for tests and diagnostics).
    pub fn bitmap(&self) -> &DirtyBitmap {
        &self.dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_memory_is_fully_dirty() {
        let mem = TaskMemory::new(ByteSize::from_gb(5));
        assert_eq!(mem.page_count(), 5000);
        assert_eq!(mem.dirty_pages(), 5000);
        assert_eq!(mem.dirty_bytes(), ByteSize::from_gb(5));
        assert!((mem.dirty_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clear_then_touch_fraction() {
        let mut mem = TaskMemory::new(ByteSize::from_gb(5));
        mem.clear_dirty();
        assert_eq!(mem.dirty_bytes(), ByteSize::ZERO);
        mem.touch_fraction(0.10);
        assert_eq!(mem.dirty_pages(), 500);
        assert_eq!(mem.dirty_bytes(), ByteSize::from_mb(500));
    }

    #[test]
    fn touch_fraction_rotates_coverage() {
        let mut mem = TaskMemory::with_page_size(ByteSize::from_mb(10), ByteSize::from_mb(1));
        mem.clear_dirty();
        mem.touch_fraction(0.5); // pages 0..5
        mem.clear_dirty();
        mem.touch_fraction(0.5); // pages 5..10 via cursor
        assert!(mem.bitmap().get(5));
        assert!(!mem.bitmap().get(0));
    }

    #[test]
    fn touch_range_partial_pages_round_up() {
        let mut mem = TaskMemory::with_page_size(ByteSize::from_mb(10), ByteSize::from_mb(1));
        mem.clear_dirty();
        // Half a page touches one page; spanning a boundary touches two.
        mem.touch_range(ByteSize::from_kb(100), ByteSize::from_kb(100));
        assert_eq!(mem.dirty_pages(), 1);
        mem.touch_range(ByteSize::from_kb(900), ByteSize::from_kb(200));
        assert_eq!(mem.dirty_pages(), 2);
    }

    #[test]
    fn touch_random_is_bounded() {
        let mut mem = TaskMemory::new(ByteSize::from_gb(1));
        mem.clear_dirty();
        let mut rng = SimRng::seed_from_u64(9);
        mem.touch_random(0.2, &mut rng);
        // Random collisions make this <= 20%, > 0.
        assert!(mem.dirty_pages() > 0);
        assert!(mem.dirty_pages() <= 200);
    }

    #[test]
    fn dirty_bytes_capped_at_footprint() {
        // 1.5 MB footprint with 1 MB pages -> 2 pages, but dirty_bytes is
        // capped at the footprint.
        let mem = TaskMemory::with_page_size(ByteSize::from_kb(1500), ByteSize::from_mb(1));
        assert_eq!(mem.page_count(), 2);
        assert_eq!(mem.dirty_bytes(), ByteSize::from_kb(1500));
    }

    #[test]
    fn mark_all_dirty_restores_full_dump() {
        let mut mem = TaskMemory::new(ByteSize::from_mb(100));
        mem.clear_dirty();
        mem.mark_all_dirty();
        assert_eq!(mem.dirty_bytes(), ByteSize::from_mb(100));
    }

    #[test]
    fn bitmap_tail_masking() {
        // 70 pages: spills into a second word with a partial tail.
        let bm = DirtyBitmap::new_all_set(70);
        assert_eq!(bm.count(), 70);
        let mut bm2 = DirtyBitmap::new_clear(70);
        bm2.set_all();
        assert_eq!(bm2.count(), 70);
        bm2.set(69);
        assert_eq!(bm2.count(), 70);
    }

    #[test]
    fn bitmap_set_get_range() {
        let mut bm = DirtyBitmap::new_clear(128);
        bm.set_range(60, 70);
        assert_eq!(bm.count(), 10);
        assert!(bm.get(60) && bm.get(69));
        assert!(!bm.get(59) && !bm.get(70));
        bm.clear_all();
        assert_eq!(bm.count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bitmap_out_of_range_panics() {
        DirtyBitmap::new_clear(10).set(10);
    }
}
