//! Simulated time.
//!
//! Time is kept as an integer number of microseconds so that event ordering
//! is exact and runs are reproducible bit-for-bit; floating-point seconds are
//! only used at the edges (when converting measured bandwidths or reporting
//! results).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the run.
///
/// `SimTime` is an opaque newtype: construct it with [`SimTime::from_secs`],
/// [`SimTime::from_micros`], or by adding a [`SimDuration`] to another
/// instant.
///
/// ```
/// use cbp_simkit::{SimDuration, SimTime};
/// let t = SimTime::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(t.as_secs_f64(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// ```
/// use cbp_simkit::SimDuration;
/// let d = SimDuration::from_secs_f64(0.25) * 4;
/// assert_eq!(d, SimDuration::from_secs(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the start of the run.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the start of the run.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the start of the run.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_micros(secs))
    }

    /// Microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The duration between this instant and `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(
            earlier <= self,
            "SimTime::since: earlier ({earlier}) is after self ({self})"
        );
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration; used as an "infinite" sentinel in
    /// cost comparisons.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs saturate to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_micros(secs))
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in fractional seconds (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the duration minus `other`, clamping at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a non-negative float (e.g. an overhead
    /// factor), rounding to the nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "duration factor must be non-negative");
        SimDuration(secs_to_micros(self.as_secs_f64() * factor))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

fn secs_to_micros(secs: f64) -> u64 {
    if !secs.is_finite() || secs <= 0.0 {
        if secs.is_infinite() && secs > 0.0 {
            return u64::MAX;
        }
        return 0;
    }
    let micros = secs * 1e6;
    if micros >= u64::MAX as f64 {
        u64::MAX
    } else {
        micros.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs <= self, "SimDuration subtraction underflow");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(SimTime::from_millis(1500), t);
    }

    #[test]
    fn negative_and_nan_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!((t + d).since(t), d);
        assert_eq!(t.saturating_since(t + d), SimDuration::ZERO);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(2));
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500000s");
        assert_eq!(format!("{}", SimDuration::ZERO), "0.000000s");
    }

    #[test]
    fn min_max() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let da = SimDuration::from_secs(1);
        let db = SimDuration::from_secs(2);
        assert_eq!(da.max(db), db);
        assert_eq!(da.min(db), da);
    }
}
