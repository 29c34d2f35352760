//! Exact percentiles and CDFs for the experiment harness.

/// An exact sample set supporting percentiles and CDF extraction.
///
/// The experiments collect at most a few hundred thousand response times, so
/// an exact (sorted-on-demand) implementation is simpler and is what the
/// paper's CDF figures need.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Samples {
            values: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "samples must not be NaN");
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN by construction"));
            self.sorted = true;
        }
    }

    /// The value at percentile `p` in `[0, 100]` (nearest-rank with linear
    /// interpolation). Returns `None` if empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0) / 100.0;
        let pos = p * (self.values.len() - 1) as f64;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        let lo = self.values[i];
        let hi = self.values[(i + 1).min(self.values.len() - 1)];
        Some(lo * (1.0 - frac) + hi * frac)
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Extracts an `n`-point empirical CDF as `(value, cumulative_prob)`
    /// pairs, suitable for plotting Fig. 9 / Fig. 11-style curves.
    pub fn cdf(&mut self, n: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() || n == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let n = n.max(2);
        (0..n)
            .map(|i| {
                let p = i as f64 / (n - 1) as f64;
                let pos = p * (self.values.len() - 1) as f64;
                let idx = pos.round() as usize;
                (self.values[idx], p)
            })
            .collect()
    }

    /// The fraction of samples `<= x`.
    pub fn fraction_at_most(&mut self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let count = self.values.partition_point(|v| *v <= x);
        count as f64 / self.values.len() as f64
    }

    /// A view of the raw values (unsorted insertion order is not preserved
    /// once percentiles have been queried).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Samples::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

impl Extend<f64> for Samples {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let mut s: Samples = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.median(), Some(50.5));
        assert!(s.percentile(90.0).unwrap() > 89.0);
    }

    #[test]
    fn percentile_empty_is_none() {
        let mut s = Samples::new();
        assert_eq!(s.percentile(50.0), None);
        assert!(s.cdf(10).is_empty());
    }

    #[test]
    fn cdf_monotone() {
        let mut s: Samples = (0..1000).map(|i| (i % 37) as f64).collect();
        let cdf = s.cdf(50);
        assert_eq!(cdf.len(), 50);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "cdf x not monotone");
            assert!(w[0].1 <= w[1].1, "cdf p not monotone");
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
    }

    #[test]
    fn fraction_at_most() {
        let mut s: Samples = vec![1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(s.fraction_at_most(2.0), 0.5);
        assert_eq!(s.fraction_at_most(0.0), 0.0);
        assert_eq!(s.fraction_at_most(10.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn samples_reject_nan() {
        Samples::new().push(f64::NAN);
    }
}
