//! Multi-dimensional resource vectors.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub, SubAssign};

use cbp_simkit::units::ByteSize;

/// A CPU + memory demand or capacity.
///
/// CPU is in **millicores** (1000 = one core) because the Google trace
/// expresses demand as core fractions. Comparison is component-wise:
/// use [`Resources::fits_in`] rather than `<=` (resource vectors are only
/// partially ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Resources {
    cpu_milli: u64,
    mem: ByteSize,
}

impl Resources {
    /// The zero vector.
    pub const ZERO: Resources = Resources {
        cpu_milli: 0,
        mem: ByteSize::ZERO,
    };

    /// Creates a vector from millicores and memory.
    pub const fn new(cpu_milli: u64, mem: ByteSize) -> Self {
        Resources { cpu_milli, mem }
    }

    /// Creates a vector from whole cores and memory.
    pub const fn new_cores(cores: u64, mem: ByteSize) -> Self {
        Resources {
            cpu_milli: cores * 1000,
            mem,
        }
    }

    /// CPU demand in millicores.
    pub const fn cpu_milli(&self) -> u64 {
        self.cpu_milli
    }

    /// CPU demand in fractional cores.
    pub fn cores_f64(&self) -> f64 {
        self.cpu_milli as f64 / 1000.0
    }

    /// Memory demand.
    pub const fn mem(&self) -> ByteSize {
        self.mem
    }

    /// True if both components are zero.
    pub const fn is_zero(&self) -> bool {
        self.cpu_milli == 0 && self.mem.is_zero()
    }

    /// Component-wise `self <= other`: this demand fits in that capacity.
    pub fn fits_in(&self, other: &Resources) -> bool {
        self.cpu_milli <= other.cpu_milli && self.mem <= other.mem
    }

    /// Component-wise subtraction clamped at zero.
    pub fn saturating_sub(&self, other: &Resources) -> Resources {
        Resources {
            cpu_milli: self.cpu_milli.saturating_sub(other.cpu_milli),
            mem: self.mem.saturating_sub(other.mem),
        }
    }

    /// The fraction of `capacity` this vector uses on its most-constrained
    /// dimension, in `[0, 1]` (0 if capacity is zero).
    pub fn dominant_share(&self, capacity: &Resources) -> f64 {
        let cpu = if capacity.cpu_milli == 0 {
            0.0
        } else {
            self.cpu_milli as f64 / capacity.cpu_milli as f64
        };
        let mem = if capacity.mem.is_zero() {
            0.0
        } else {
            self.mem.as_u64() as f64 / capacity.mem.as_u64() as f64
        };
        cpu.max(mem).min(1.0)
    }

    /// CPU-only utilization fraction against `capacity`, in `[0, 1]` — the
    /// paper's energy model is driven by CPU utilization.
    pub fn cpu_fraction_of(&self, capacity: &Resources) -> f64 {
        if capacity.cpu_milli == 0 {
            return 0.0;
        }
        (self.cpu_milli as f64 / capacity.cpu_milli as f64).min(1.0)
    }
}

impl Add for Resources {
    type Output = Resources;
    fn add(self, rhs: Resources) -> Resources {
        Resources {
            cpu_milli: self.cpu_milli.saturating_add(rhs.cpu_milli),
            mem: self.mem + rhs.mem,
        }
    }
}
impl AddAssign for Resources {
    fn add_assign(&mut self, rhs: Resources) {
        *self = *self + rhs;
    }
}
impl Sub for Resources {
    type Output = Resources;
    fn sub(self, rhs: Resources) -> Resources {
        debug_assert!(
            rhs.fits_in(&self),
            "Resources subtraction underflow: {self} - {rhs}"
        );
        self.saturating_sub(&rhs)
    }
}
impl SubAssign for Resources {
    fn sub_assign(&mut self, rhs: Resources) {
        *self = *self - rhs;
    }
}
impl Sum for Resources {
    fn sum<I: Iterator<Item = Resources>>(iter: I) -> Resources {
        iter.fold(Resources::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} cores / {}", self.cores_f64(), self.mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_getters() {
        let r = Resources::new_cores(2, ByteSize::from_gb(4));
        assert_eq!(r.cpu_milli(), 2000);
        assert_eq!(r.cores_f64(), 2.0);
        assert_eq!(r.mem(), ByteSize::from_gb(4));
        assert!(!r.is_zero());
        assert!(Resources::ZERO.is_zero());
    }

    #[test]
    fn fits_in_is_component_wise() {
        let cap = Resources::new_cores(4, ByteSize::from_gb(8));
        assert!(Resources::new_cores(4, ByteSize::from_gb(8)).fits_in(&cap));
        assert!(Resources::new_cores(2, ByteSize::from_gb(2)).fits_in(&cap));
        // CPU fits but memory does not:
        assert!(!Resources::new_cores(1, ByteSize::from_gb(9)).fits_in(&cap));
        // Memory fits but CPU does not:
        assert!(!Resources::new_cores(5, ByteSize::from_gb(1)).fits_in(&cap));
    }

    #[test]
    fn arithmetic() {
        let a = Resources::new_cores(2, ByteSize::from_gb(4));
        let b = Resources::new_cores(1, ByteSize::from_gb(1));
        assert_eq!(a + b, Resources::new_cores(3, ByteSize::from_gb(5)));
        assert_eq!(a - b, Resources::new_cores(1, ByteSize::from_gb(3)));
        assert_eq!(b.saturating_sub(&a), Resources::ZERO);
        let total: Resources = vec![a, b].into_iter().sum();
        assert_eq!(total, a + b);
    }

    #[test]
    fn dominant_share() {
        let cap = Resources::new_cores(10, ByteSize::from_gb(100));
        let r = Resources::new_cores(5, ByteSize::from_gb(80));
        assert!((r.dominant_share(&cap) - 0.8).abs() < 1e-12);
        assert!((r.cpu_fraction_of(&cap) - 0.5).abs() < 1e-12);
        assert_eq!(Resources::ZERO.dominant_share(&Resources::ZERO), 0.0);
    }

    #[test]
    fn display() {
        let r = Resources::new(1500, ByteSize::from_gb(2));
        assert_eq!(format!("{r}"), "1.50 cores / 2.00 GB");
    }
}
