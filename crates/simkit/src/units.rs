//! Data-size and bandwidth units.
//!
//! The paper reports sizes in decimal gigabytes (a "5 GB" k-means task) and
//! bandwidths in GB/s, so these newtypes use decimal multiples (1 KB =
//! 1000 B). Keeping them integer-valued preserves determinism.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

use crate::time::SimDuration;

/// A number of bytes.
///
/// ```
/// use cbp_simkit::units::ByteSize;
/// let s = ByteSize::from_gb(5);
/// assert_eq!(s.as_u64(), 5_000_000_000);
/// assert_eq!(format!("{s}"), "5.00 GB");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a size of `n` bytes.
    pub const fn from_bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Creates a size of `n` decimal kilobytes.
    pub const fn from_kb(n: u64) -> Self {
        ByteSize(n * 1_000)
    }

    /// Creates a size of `n` decimal megabytes.
    pub const fn from_mb(n: u64) -> Self {
        ByteSize(n * 1_000_000)
    }

    /// Creates a size of `n` decimal gigabytes.
    pub const fn from_gb(n: u64) -> Self {
        ByteSize(n * 1_000_000_000)
    }

    /// Creates a size from fractional gigabytes, rounding to whole bytes.
    /// Negative or non-finite input saturates to zero.
    pub fn from_gb_f64(gb: f64) -> Self {
        if !gb.is_finite() || gb <= 0.0 {
            return ByteSize::ZERO;
        }
        ByteSize((gb * 1e9).round() as u64)
    }

    /// Raw byte count.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Size in fractional gigabytes.
    pub fn as_gb_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if zero bytes.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Subtraction clamped at zero.
    pub fn saturating_sub(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a non-negative fraction (e.g. a dirty ratio).
    pub fn mul_f64(self, factor: f64) -> ByteSize {
        debug_assert!(factor >= 0.0, "byte-size factor must be non-negative");
        ByteSize((self.0 as f64 * factor).round() as u64)
    }

    /// Returns the larger of two sizes.
    pub fn max(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.max(other.0))
    }

    /// Returns the smaller of two sizes.
    pub fn min(self, other: ByteSize) -> ByteSize {
        ByteSize(self.0.min(other.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_add(rhs.0))
    }
}
impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}
impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        debug_assert!(rhs.0 <= self.0, "ByteSize subtraction underflow");
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}
impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        *self = *self - rhs;
    }
}
impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0.saturating_mul(rhs))
    }
}
impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} GB", b / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.2} MB", b / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.2} KB", b / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// A transfer rate in bytes per second.
///
/// ```
/// use cbp_simkit::units::{Bandwidth, ByteSize};
/// let bw = Bandwidth::from_mb_per_sec(100);
/// let t = bw.transfer_time(ByteSize::from_gb(1));
/// assert_eq!(t.as_secs_f64(), 10.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bandwidth(u64);

impl Bandwidth {
    /// Creates a rate of `n` bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`; a zero bandwidth would make transfer times
    /// undefined. Model an unusable device by not submitting work to it.
    pub fn from_bytes_per_sec(n: u64) -> Self {
        assert!(n > 0, "bandwidth must be positive");
        Bandwidth(n)
    }

    /// Creates a rate of `n` decimal megabytes per second.
    pub fn from_mb_per_sec(n: u64) -> Self {
        Self::from_bytes_per_sec(n * 1_000_000)
    }

    /// Creates a rate from fractional GB/s.
    ///
    /// # Panics
    ///
    /// Panics if `gbps` is not positive and finite.
    pub fn from_gb_per_sec_f64(gbps: f64) -> Self {
        assert!(
            gbps.is_finite() && gbps > 0.0,
            "bandwidth must be positive and finite"
        );
        Self::from_bytes_per_sec((gbps * 1e9).round() as u64)
    }

    /// Raw rate in bytes per second.
    pub const fn as_bytes_per_sec(self) -> u64 {
        self.0
    }

    /// Rate in fractional GB/s.
    pub fn as_gb_per_sec_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The time needed to move `size` at this rate (rounded up to a whole
    /// microsecond so transfers never take zero time unless empty).
    pub fn transfer_time(self, size: ByteSize) -> SimDuration {
        if size.is_zero() {
            return SimDuration::ZERO;
        }
        let micros = (size.as_u64() as u128 * 1_000_000).div_ceil(self.0 as u128);
        SimDuration::from_micros(micros.min(u64::MAX as u128) as u64)
    }

    /// Scales the rate by `factor` in `(0, ∞)`, clamping at 1 B/s — used by
    /// the bandwidth throttle in sensitivity sweeps.
    pub fn scaled(self, factor: f64) -> Bandwidth {
        assert!(
            factor.is_finite() && factor > 0.0,
            "bandwidth scale factor must be positive"
        );
        Bandwidth(((self.0 as f64 * factor).round() as u64).max(1))
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0 as f64;
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.2} GB/s", b / 1e9)
        } else {
            write!(f, "{:.1} MB/s", b / 1e6)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_size_constructors() {
        assert_eq!(ByteSize::from_kb(2).as_u64(), 2_000);
        assert_eq!(ByteSize::from_mb(3).as_u64(), 3_000_000);
        assert_eq!(ByteSize::from_gb(1), ByteSize::from_mb(1000));
        assert_eq!(ByteSize::from_gb_f64(1.5).as_u64(), 1_500_000_000);
        assert_eq!(ByteSize::from_gb_f64(-1.0), ByteSize::ZERO);
    }

    #[test]
    fn byte_size_arithmetic() {
        let a = ByteSize::from_mb(10);
        let b = ByteSize::from_mb(4);
        assert_eq!(a + b, ByteSize::from_mb(14));
        assert_eq!(a - b, ByteSize::from_mb(6));
        assert_eq!(b.saturating_sub(a), ByteSize::ZERO);
        assert_eq!(a.mul_f64(0.1), ByteSize::from_mb(1));
        assert_eq!(a * 3, ByteSize::from_mb(30));
        let total: ByteSize = vec![a, b].into_iter().sum();
        assert_eq!(total, ByteSize::from_mb(14));
    }

    #[test]
    fn byte_size_display() {
        assert_eq!(format!("{}", ByteSize::from_bytes(12)), "12 B");
        assert_eq!(format!("{}", ByteSize::from_kb(5)), "5.00 KB");
        assert_eq!(format!("{}", ByteSize::from_mb(5)), "5.00 MB");
        assert_eq!(format!("{}", ByteSize::from_gb(5)), "5.00 GB");
    }

    #[test]
    fn transfer_time_rounds_up() {
        let bw = Bandwidth::from_bytes_per_sec(3);
        // 1 byte at 3 B/s = 333334 µs (rounded up).
        assert_eq!(
            bw.transfer_time(ByteSize::from_bytes(1)).as_micros(),
            333_334
        );
        assert_eq!(bw.transfer_time(ByteSize::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn transfer_time_examples() {
        // Paper Table 3 anchor: 5 GB at 30 MB/s ≈ 166.7 s.
        let hdd = Bandwidth::from_mb_per_sec(30);
        let t = hdd.transfer_time(ByteSize::from_gb(5));
        assert!((t.as_secs_f64() - 166.67).abs() < 0.01);
    }

    #[test]
    fn bandwidth_scaling() {
        let bw = Bandwidth::from_gb_per_sec_f64(2.0);
        assert_eq!(bw.scaled(0.5), Bandwidth::from_gb_per_sec_f64(1.0));
        assert!((bw.as_gb_per_sec_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_rejected() {
        Bandwidth::from_bytes_per_sec(0);
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(format!("{}", Bandwidth::from_mb_per_sec(30)), "30.0 MB/s");
        assert_eq!(
            format!("{}", Bandwidth::from_gb_per_sec_f64(1.75)),
            "1.75 GB/s"
        );
    }
}
