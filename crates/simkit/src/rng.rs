//! Seeded randomness.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The workspace-wide random number source.
///
/// Every stochastic component (workload generators, placement tie-breaking)
/// draws from a `SimRng` created from a single `u64` seed, so an entire
/// experiment is reproducible from that one number. Sub-streams can be forked
/// with [`SimRng::fork`] to decouple components from each other's consumption
/// order.
///
/// ```
/// use cbp_simkit::SimRng;
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws a uniform 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Derives an independent sub-stream labelled by `stream`.
    ///
    /// Forked streams let component A draw any number of values without
    /// shifting what component B sees.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        // Mix the label so fork(0) != self-advancing draws.
        let base = self.inner.next_u64();
        SimRng::seed_from_u64(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Draws a uniform value in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.random_range(0.0..1.0)
    }

    /// Draws a uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "range_u64: lo ({lo}) must be < hi ({hi})");
        self.inner.random_range(lo..hi)
    }

    /// Draws a uniform index in `[0, len)`, for choosing an element.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index: cannot choose from an empty collection");
        self.inner.random_range(0..len)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.random_bool(p)
    }

    /// Access to the underlying [`Rng`] for use with `rand_distr`.
    pub(crate) fn rng(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_differ_but_are_deterministic() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        let mut fa = a.fork(1);
        let mut fb = b.fork(1);
        assert_eq!(fa.next_u64(), fb.next_u64());
        let mut fa2 = SimRng::seed_from_u64(7).fork(2);
        assert_ne!(fa.next_u64(), fa2.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let u = rng.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_and_index_bounds() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let v = rng.range_u64(10, 20);
            assert!((10..20).contains(&v));
            let i = rng.index(5);
            assert!(i < 5);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped rather than panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }
}
