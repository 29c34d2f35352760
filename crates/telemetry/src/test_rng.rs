//! A seeded generator for the crate's differential tests.

/// SplitMix64, so a failing case replays from its printed seed.
pub(crate) struct Rng(pub(crate) u64);

impl Rng {
    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    pub(crate) fn chance(&mut self, pct: u64) -> bool {
        self.next() % 100 < pct
    }

    pub(crate) fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// A u64 of a random magnitude, edges included.
    pub(crate) fn u64(&mut self) -> u64 {
        match self.below(4) {
            0 => self.next() % 16,
            1 => self.next() % 100_000,
            2 => self.next(),
            _ => self.pick(&[0, u32::MAX as u64, 1 << 53, u64::MAX]),
        }
    }

    pub(crate) fn u32(&mut self) -> u32 {
        match self.below(3) {
            0 => (self.next() % 64) as u32,
            1 => self.next() as u32,
            _ => u32::MAX,
        }
    }
}
