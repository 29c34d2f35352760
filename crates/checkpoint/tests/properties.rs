//! Property-based tests for the checkpoint model's core invariants.

use cbp_checkpoint::{Criu, DirtyBitmap, TaskMemory};
use cbp_simkit::units::ByteSize;
use cbp_simkit::{SimRng, SimTime};
use cbp_storage::{Device, MediaSpec};
use proptest::prelude::*;

proptest! {
    /// Dirty bytes never exceed the footprint, whatever write pattern the
    /// task produces.
    #[test]
    fn dirty_bytes_bounded_by_footprint(
        size_mb in 1u64..2048,
        touches in proptest::collection::vec((0.0f64..1.0, any::<bool>()), 0..20),
        seed in any::<u64>(),
    ) {
        let mut mem = TaskMemory::new(ByteSize::from_mb(size_mb));
        let mut rng = SimRng::seed_from_u64(seed);
        for (frac, random) in touches {
            if random {
                mem.touch_random(frac, &mut rng);
            } else {
                mem.touch_fraction(frac);
            }
            prop_assert!(mem.dirty_bytes() <= mem.size());
            prop_assert!(mem.dirty_pages() <= mem.page_count());
        }
    }

    /// clear_dirty always zeroes tracking; mark_all_dirty always saturates.
    #[test]
    fn clear_and_saturate(size_mb in 1u64..2048, frac in 0.0f64..1.0) {
        let mut mem = TaskMemory::new(ByteSize::from_mb(size_mb));
        mem.clear_dirty();
        prop_assert_eq!(mem.dirty_pages(), 0);
        mem.touch_fraction(frac);
        let expected = ((mem.page_count() as f64 * frac).round() as usize)
            .min(mem.page_count());
        prop_assert_eq!(mem.dirty_pages(), expected);
        mem.mark_all_dirty();
        prop_assert_eq!(mem.dirty_pages(), mem.page_count());
    }

    /// Bitmap count equals the number of distinct set positions.
    #[test]
    fn bitmap_count_matches_sets(
        len in 1usize..512,
        positions in proptest::collection::vec(any::<prop::sample::Index>(), 0..100),
    ) {
        let mut bm = DirtyBitmap::new_clear(len);
        let mut distinct = std::collections::HashSet::new();
        for p in positions {
            let i = p.index(len);
            bm.set(i);
            distinct.insert(i);
        }
        prop_assert_eq!(bm.count(), distinct.len());
        for &i in &distinct {
            prop_assert!(bm.get(i));
        }
    }

    /// A dump + touch + dump sequence conserves storage accounting: the
    /// device's in-use bytes always equal the catalog's chain size.
    #[test]
    fn storage_accounting_conserved(
        size_mb in 64u64..1024,
        fracs in proptest::collection::vec(0.0f64..0.5, 1..6),
    ) {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = TaskMemory::new(ByteSize::from_mb(size_mb));
        let mut now = SimTime::ZERO;
        criu.dump(1, &mut mem, 0, &mut dev, now).unwrap();
        for f in fracs {
            now += cbp_simkit::SimDuration::from_secs(60);
            mem.touch_fraction(f);
            criu.dump(1, &mut mem, 0, &mut dev, now).unwrap();
            prop_assert_eq!(dev.used(), criu.image_size(1));
        }
        for (_, bytes) in criu.discard(1) {
            dev.release(bytes);
        }
        prop_assert_eq!(dev.used(), ByteSize::ZERO);
    }

    /// Incremental dump size equals the dirty bytes at dump time.
    #[test]
    fn incremental_size_is_dirty_bytes(
        size_mb in 64u64..1024,
        frac in 0.0f64..1.0,
    ) {
        let mut criu = Criu::new(true);
        let mut dev = Device::new(MediaSpec::nvm());
        let mut mem = TaskMemory::new(ByteSize::from_mb(size_mb));
        criu.dump(1, &mut mem, 0, &mut dev, SimTime::ZERO).unwrap();
        mem.touch_fraction(frac);
        let expected = mem.dirty_bytes();
        let d = criu
            .dump(1, &mut mem, 0, &mut dev, SimTime::from_secs(60))
            .unwrap();
        prop_assert_eq!(d.size, expected);
    }
}

/// The bit-by-bit `set_range` the word-at-a-time one replaced.
fn set_range_bitwise(bm: &mut DirtyBitmap, start: usize, end: usize) {
    for i in start..end {
        bm.set(i);
    }
}

/// The bit-by-bit `touch_fraction`: one `%` and one `set` per page.
struct BitwiseMemory {
    dirty: DirtyBitmap,
    cursor: usize,
}

impl BitwiseMemory {
    fn touch_fraction(&mut self, frac: f64) {
        let frac = frac.clamp(0.0, 1.0);
        let pages = self.dirty.len();
        if pages == 0 {
            return;
        }
        let n = ((pages as f64 * frac).round() as usize).min(pages);
        for k in 0..n {
            self.dirty.set((self.cursor + k) % pages);
        }
        self.cursor = (self.cursor + n) % pages;
    }
}

/// A page count with `len % 64` in {0, 1, 63}, or any count below 300.
fn bitmap_len(rng: &mut SimRng) -> usize {
    match rng.index(4) {
        0 => 64 * rng.index(5),
        1 => 64 * rng.index(5) + 1,
        2 => 64 * rng.index(5) + 63,
        _ => rng.index(300),
    }
}

/// A range in `0..=len`: empty, inside one word, across word boundaries,
/// or the whole bitmap.
fn bitmap_range(rng: &mut SimRng, len: usize) -> (usize, usize) {
    let start = rng.index(len + 1);
    match rng.index(4) {
        0 => (start, start),
        1 => {
            let word_end = ((start / 64 + 1) * 64).min(len);
            (start, start + rng.index(word_end - start + 1))
        }
        2 => (start, start + rng.index(len - start + 1)),
        _ => (0, len),
    }
}

/// A touch fraction: exactly 0 or 1, one page, or anything in between.
fn touch_frac(rng: &mut SimRng, pages: usize) -> f64 {
    match rng.index(4) {
        0 => 0.0,
        1 => 1.0,
        2 => 1.0 / pages.max(1) as f64,
        _ => rng.uniform(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Word-at-a-time `set_range` sets exactly the bits that a `set` per
    /// page does.
    #[test]
    fn set_range_matches_bitwise(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let len = bitmap_len(&mut rng);
        let mut fast = DirtyBitmap::new_clear(len);
        let mut slow = DirtyBitmap::new_clear(len);
        for step in 0..16 {
            if rng.chance(0.1) {
                fast.clear_all();
                slow.clear_all();
            }
            let (start, end) = bitmap_range(&mut rng, len);
            fast.set_range(start, end);
            set_range_bitwise(&mut slow, start, end);
            prop_assert_eq!(
                &fast, &slow,
                "seed {}, len {}, step {}: set_range({}, {})", seed, len, step, start, end
            );
            prop_assert_eq!(fast.count(), slow.count(), "seed {}, len {}", seed, len);
        }
    }

    /// `touch_fraction` dirties the same pages as the per-page loop and
    /// leaves the cursor in the same place, through cursor wrap-around
    /// and long sequences.
    #[test]
    fn touch_fraction_matches_bitwise(seed in any::<u64>()) {
        let mut rng = SimRng::seed_from_u64(seed);
        let pages = bitmap_len(&mut rng);
        let mut fast = TaskMemory::with_page_size(ByteSize::from_mb(pages as u64), ByteSize::from_mb(1));
        let mut slow = BitwiseMemory { dirty: DirtyBitmap::new_all_set(pages), cursor: 0 };
        prop_assert_eq!(fast.page_count(), pages);
        let steps = if rng.chance(0.25) { 200 } else { 12 };
        for step in 0..steps {
            if rng.chance(0.2) {
                fast.clear_dirty();
                slow.dirty.clear_all();
            }
            let frac = touch_frac(&mut rng, pages);
            fast.touch_fraction(frac);
            slow.touch_fraction(frac);
            prop_assert_eq!(
                fast.bitmap(), &slow.dirty,
                "seed {}, pages {}, step {}: touch_fraction({})", seed, pages, step, frac
            );
            prop_assert_eq!(fast.dirty_pages(), slow.dirty.count(), "seed {}, pages {}", seed, pages);
        }
        // The cursor shows through the next touch: one page from a clean
        // bitmap lands on it.
        fast.clear_dirty();
        slow.dirty.clear_all();
        let probe = 1.0 / pages.max(1) as f64;
        fast.touch_fraction(probe);
        slow.touch_fraction(probe);
        prop_assert_eq!(fast.bitmap(), &slow.dirty, "seed {}, pages {}: cursor", seed, pages);
        prop_assert_eq!(fast.dirty_pages(), pages.min(1), "seed {}, pages {}", seed, pages);
    }
}
