//! The metrics registry: counters, gauges, fixed-bucket histograms and P²
//! streaming quantiles, snapshotted into a `BTreeMap` keyed
//! `subsystem.metric` with unit metadata.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json;

/// A fixed-bucket histogram over explicit upper bounds.
///
/// `counts[i]` holds observations `x <= bounds[i]` (and greater than
/// `bounds[i-1]`); a final overflow bucket counts everything above the last
/// bound. Also tracks count, sum, min and max.
///
/// ```
/// use cbp_telemetry::Histogram;
/// let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
/// for x in [0.5, 1.0, 1.5, 8.0] {
///     h.record(x);
/// }
/// assert_eq!(h.counts(), &[2, 1, 0, 1]); // (..1], (1..2], (2..4], (4..)
/// assert_eq!(h.count(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Creates a histogram with the given strictly increasing upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing / finite.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        for w in bounds.windows(2) {
            assert!(w[0] < w[1], "histogram bounds must be strictly increasing");
        }
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Creates `n` exponentially growing buckets: bounds `start`,
    /// `start*factor`, ..., `start*factor^(n-1)`.
    ///
    /// # Panics
    ///
    /// Panics if `start <= 0`, `factor <= 1` or `n == 0`.
    pub fn exponential(start: f64, factor: f64, n: usize) -> Self {
        assert!(
            start > 0.0 && factor > 1.0 && n > 0,
            "bad exponential buckets"
        );
        let mut bounds = Vec::with_capacity(n);
        let mut b = start;
        for _ in 0..n {
            bounds.push(b);
            b *= factor;
        }
        Histogram::new(&bounds)
    }

    /// Records one observation. NaN observations are ignored.
    pub fn record(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        let idx = self.bounds.partition_point(|b| *b < x);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the final entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`None` if empty).
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation (`None` if empty).
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another histogram with identical bounds into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different buckets"
        );
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// An owned snapshot for the registry.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self.counts.clone(),
            count: self.count,
            sum: self.sum,
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// An immutable histogram snapshot stored in a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts (last entry = overflow).
    pub counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 if empty).
    pub min: f64,
    /// Largest observation (0 if empty).
    pub max: f64,
}

/// The P² (piecewise-parabolic) streaming estimator of one quantile, after
/// Jain & Chlamtac (1985): it tracks the quantile in O(1) memory without
/// storing observations.
///
/// ```
/// use cbp_telemetry::P2Quantile;
/// let mut q = P2Quantile::new(0.5);
/// for i in 1..=1001 {
///     q.observe(i as f64);
/// }
/// let median = q.estimate().unwrap();
/// assert!((median - 501.0).abs() < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (the running order statistics).
    heights: [f64; 5],
    /// Marker positions (1-based observation ranks).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Desired-position increments per observation.
    increments: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// Creates an estimator for quantile `p` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            p,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            increments: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is NaN.
    pub fn observe(&mut self, x: f64) {
        assert!(!x.is_nan(), "observations must not be NaN");
        if self.count < 5 {
            self.heights[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.heights
                    .sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            }
            return;
        }
        self.count += 1;

        // Find the cell k such that heights[k] <= x < heights[k+1],
        // adjusting the extremes.
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        // Shift positions of markers above the cell.
        for i in (k + 1)..5 {
            self.positions[i] += 1.0;
        }
        for i in 0..5 {
            self.desired[i] += self.increments[i];
        }

        // Adjust the three middle markers if they drifted.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let d = d.signum();
                let candidate = self.parabolic(i, d);
                let new_height =
                    if self.heights[i - 1] < candidate && candidate < self.heights[i + 1] {
                        candidate
                    } else {
                        self.linear(i, d)
                    };
                self.heights[i] = new_height;
                self.positions[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.heights;
        let n = &self.positions;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// The current quantile estimate (`None` until any observation; exact
    /// for fewer than five).
    pub fn estimate(&self) -> Option<f64> {
        match self.count {
            0 => None,
            n if n < 5 => {
                let mut sorted = self.heights;
                let slice = &mut sorted[..n];
                slice.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
                let idx = ((self.p * n as f64).ceil() as usize).clamp(1, n) - 1;
                Some(slice[idx])
            }
            _ => Some(self.heights[2]),
        }
    }
}

/// Streaming p50/p95/p99 + max in O(1) memory — three P² markers plus a
/// running maximum, for hot paths where storing every observation (as
/// `cbp_simkit::stats::Samples` does) would be too heavy.
///
/// ```
/// use cbp_telemetry::StreamingQuantiles;
/// let mut q = StreamingQuantiles::new();
/// for i in 1..=1000 {
///     q.observe(i as f64);
/// }
/// let s = q.snapshot();
/// assert!((s.p50 - 500.0).abs() < 25.0);
/// assert_eq!(s.max, 1000.0);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingQuantiles {
    p50: P2Quantile,
    p95: P2Quantile,
    p99: P2Quantile,
    max: f64,
    count: u64,
}

impl Default for StreamingQuantiles {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingQuantiles {
    /// Creates an empty estimator tracking p50/p95/p99.
    pub fn new() -> Self {
        StreamingQuantiles {
            p50: P2Quantile::new(0.50),
            p95: P2Quantile::new(0.95),
            p99: P2Quantile::new(0.99),
            max: f64::NEG_INFINITY,
            count: 0,
        }
    }

    /// Feeds one observation. NaN observations are ignored.
    pub fn observe(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        self.p50.observe(x);
        self.p95.observe(x);
        self.p99.observe(x);
        self.max = self.max.max(x);
        self.count += 1;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Current estimates (zeros if empty).
    pub fn snapshot(&self) -> QuantileSnapshot {
        QuantileSnapshot {
            p50: self.p50.estimate().unwrap_or(0.0),
            p95: self.p95.estimate().unwrap_or(0.0),
            p99: self.p99.estimate().unwrap_or(0.0),
            max: if self.count > 0 { self.max } else { 0.0 },
            count: self.count,
        }
    }
}

/// A quantile summary stored in a [`MetricsRegistry`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileSnapshot {
    /// Median estimate.
    pub p50: f64,
    /// 95th-percentile estimate.
    pub p95: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
    /// Exact maximum.
    pub max: f64,
    /// Observation count.
    pub count: u64,
}

/// A snapshotted metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotonic count.
    Counter(u64),
    /// Point-in-time measurement.
    Gauge(f64),
    /// Fixed-bucket distribution.
    Histogram(HistogramSnapshot),
    /// Streaming quantile summary.
    Quantiles(QuantileSnapshot),
}

/// A named metric with unit metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Unit string (`"ops"`, `"s"`, `"cpu-hours"`, `"fraction"`, ...).
    pub unit: String,
    /// The value.
    pub value: MetricValue,
}

/// A snapshot registry of named metrics, ordered by name.
///
/// Names follow the `subsystem.metric` convention. The registry is a *sink*:
/// the simulators keep cheap plain-field accumulators on their hot paths and
/// publish a snapshot here at the end of a run (or at sample points).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    entries: BTreeMap<String, MetricEntry>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a counter value.
    pub fn set_counter(&mut self, name: &str, unit: &str, v: u64) {
        self.insert(name, unit, MetricValue::Counter(v));
    }

    /// Records a gauge value.
    pub fn set_gauge(&mut self, name: &str, unit: &str, v: f64) {
        self.insert(name, unit, MetricValue::Gauge(v));
    }

    /// Records a histogram snapshot.
    pub fn set_histogram(&mut self, name: &str, unit: &str, h: &Histogram) {
        self.insert(name, unit, MetricValue::Histogram(h.snapshot()));
    }

    /// Records a quantile summary.
    pub fn set_quantiles(&mut self, name: &str, unit: &str, q: QuantileSnapshot) {
        self.insert(name, unit, MetricValue::Quantiles(q));
    }

    fn insert(&mut self, name: &str, unit: &str, value: MetricValue) {
        debug_assert!(
            name.contains('.'),
            "metric names follow the subsystem.metric convention: {name}"
        );
        self.entries.insert(
            name.to_string(),
            MetricEntry {
                unit: unit.to_string(),
                value,
            },
        );
    }

    /// Looks up an entry by name.
    pub fn get(&self, name: &str) -> Option<&MetricEntry> {
        self.entries.get(name)
    }

    /// The counter value of `name`, if it is a counter.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)?.value {
            MetricValue::Counter(v) => Some(v),
            _ => None,
        }
    }

    /// The gauge value of `name`, if it is a gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.get(name)?.value {
            MetricValue::Gauge(v) => Some(v),
            _ => None,
        }
    }

    /// Iterates entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &MetricEntry)> {
        self.entries.iter()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no metrics have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the registry to deterministic JSON:
    /// `{"name":{"unit":"...","type":"counter","value":N}, ...}` sorted by
    /// name.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, e)) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::push_key(&mut out, name);
            out.push('{');
            json::push_key(&mut out, "unit");
            json::push_str_escaped(&mut out, &e.unit);
            out.push(',');
            match &e.value {
                MetricValue::Counter(v) => {
                    json::push_key(&mut out, "type");
                    out.push_str("\"counter\",");
                    json::push_key(&mut out, "value");
                    json::push_u64(&mut out, *v);
                }
                MetricValue::Gauge(v) => {
                    json::push_key(&mut out, "type");
                    out.push_str("\"gauge\",");
                    json::push_key(&mut out, "value");
                    json::push_f64(&mut out, *v);
                }
                MetricValue::Histogram(h) => {
                    json::push_key(&mut out, "type");
                    out.push_str("\"histogram\",");
                    json::push_key(&mut out, "bounds");
                    json::push_f64_array(&mut out, &h.bounds);
                    out.push(',');
                    json::push_key(&mut out, "counts");
                    json::push_u64_array(&mut out, &h.counts);
                    out.push(',');
                    json::push_key(&mut out, "count");
                    json::push_u64(&mut out, h.count);
                    out.push(',');
                    json::push_key(&mut out, "sum");
                    json::push_f64(&mut out, h.sum);
                    out.push(',');
                    json::push_key(&mut out, "min");
                    json::push_f64(&mut out, h.min);
                    out.push(',');
                    json::push_key(&mut out, "max");
                    json::push_f64(&mut out, h.max);
                }
                MetricValue::Quantiles(q) => {
                    json::push_key(&mut out, "type");
                    out.push_str("\"quantiles\",");
                    json::push_key(&mut out, "p50");
                    json::push_f64(&mut out, q.p50);
                    out.push(',');
                    json::push_key(&mut out, "p95");
                    json::push_f64(&mut out, q.p95);
                    out.push(',');
                    json::push_key(&mut out, "p99");
                    json::push_f64(&mut out, q.p99);
                    out.push(',');
                    json::push_key(&mut out, "max");
                    json::push_f64(&mut out, q.max);
                    out.push(',');
                    json::push_key(&mut out, "count");
                    json::push_u64(&mut out, q.count);
                }
            }
            out.push('}');
        }
        out.push('}');
        out
    }

    /// Renders an aligned plain-text table (`name  value  unit`) for the
    /// `repro --telemetry` terminal output.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<(String, String, String)> = Vec::with_capacity(self.entries.len());
        for (name, e) in &self.entries {
            let value = match &e.value {
                MetricValue::Counter(v) => format!("{v}"),
                MetricValue::Gauge(v) => format!("{v:.6}"),
                MetricValue::Histogram(h) => format!(
                    "n={} mean={:.6} min={:.6} max={:.6}",
                    h.count,
                    if h.count == 0 {
                        0.0
                    } else {
                        h.sum / h.count as f64
                    },
                    h.min,
                    h.max
                ),
                MetricValue::Quantiles(q) => format!(
                    "n={} p50={:.6} p95={:.6} p99={:.6} max={:.6}",
                    q.count, q.p50, q.p95, q.p99, q.max
                ),
            };
            rows.push((name.clone(), value, e.unit.clone()));
        }
        let name_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(4).max(6);
        let val_w = rows.iter().map(|r| r.1.len()).max().unwrap_or(5).max(5);
        let mut out = String::new();
        let _ = writeln!(out, "{:<name_w$}  {:<val_w$}  unit", "metric", "value");
        for (name, value, unit) in rows {
            let _ = writeln!(out, "{name:<name_w$}  {value:<val_w$}  {unit}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* generator so the accuracy tests need no
    /// external RNG crate.
    struct Rng(u64);

    impl Rng {
        fn next_f64(&mut self) -> f64 {
            // xorshift64*
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            let v = x.wrapping_mul(0x2545F4914F6CDD1D);
            (v >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Exponential with the given mean, via inverse transform.
        fn next_exp(&mut self, mean: f64) -> f64 {
            let u = self.next_f64().max(1e-16);
            -mean * u.ln()
        }
    }

    #[test]
    fn histogram_bucket_boundaries_are_inclusive_upper() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        // Exactly on a bound lands in that bound's bucket (le semantics).
        h.record(1.0);
        h.record(2.0);
        h.record(4.0);
        assert_eq!(h.counts(), &[1, 1, 1, 0]);
        // Just above a bound lands in the next bucket.
        h.record(1.0000001);
        assert_eq!(h.counts(), &[1, 2, 1, 0]);
        // Below the first bound → first bucket; above the last → overflow.
        h.record(0.0);
        h.record(-3.0);
        h.record(1e9);
        assert_eq!(h.counts(), &[3, 2, 1, 1]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.min(), Some(-3.0));
        assert_eq!(h.max(), Some(1e9));
    }

    #[test]
    fn histogram_exponential_bounds() {
        let h = Histogram::exponential(0.001, 2.0, 4);
        assert_eq!(h.bounds(), &[0.001, 0.002, 0.004, 0.008]);
        assert_eq!(h.counts().len(), 5);
    }

    #[test]
    fn histogram_ignores_nan_and_tracks_sum() {
        let mut h = Histogram::new(&[10.0]);
        h.record(f64::NAN);
        h.record(3.0);
        h.record(5.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 8.0);
        assert_eq!(h.mean(), 4.0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        let mut b = Histogram::new(&[1.0, 2.0]);
        a.record(0.5);
        b.record(1.5);
        b.record(9.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1, 1]);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "different buckets")]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0]);
        let b = Histogram::new(&[2.0]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[2.0, 1.0]);
    }

    fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
        let pos = p * (sorted.len() - 1) as f64;
        let i = pos.floor() as usize;
        let frac = pos - i as f64;
        let hi = sorted[(i + 1).min(sorted.len() - 1)];
        sorted[i] * (1.0 - frac) + hi * frac
    }

    #[test]
    fn p2_accuracy_uniform_stream() {
        let mut rng = Rng(0x1234_5678);
        let mut q = StreamingQuantiles::new();
        let mut xs = Vec::new();
        for _ in 0..50_000 {
            let x = rng.next_f64() * 100.0;
            q.observe(x);
            xs.push(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = q.snapshot();
        assert!(
            (s.p50 - exact_quantile(&xs, 0.50)).abs() < 2.0,
            "p50={}",
            s.p50
        );
        assert!(
            (s.p95 - exact_quantile(&xs, 0.95)).abs() < 2.0,
            "p95={}",
            s.p95
        );
        assert!(
            (s.p99 - exact_quantile(&xs, 0.99)).abs() < 2.0,
            "p99={}",
            s.p99
        );
        assert_eq!(s.max, *xs.last().unwrap());
        assert_eq!(s.count, 50_000);
    }

    #[test]
    fn p2_accuracy_exponential_stream() {
        let mut rng = Rng(0xDEAD_BEEF);
        let mut q = StreamingQuantiles::new();
        let mut xs = Vec::new();
        for _ in 0..100_000 {
            let x = rng.next_exp(10.0);
            q.observe(x);
            xs.push(x);
        }
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let s = q.snapshot();
        // Relative error under 5% against the exact empirical quantiles.
        for (est, p) in [(s.p50, 0.50), (s.p95, 0.95), (s.p99, 0.99)] {
            let truth = exact_quantile(&xs, p);
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.05, "p{} approx {est} vs exact {truth}", p * 100.0);
        }
    }

    #[test]
    fn p2_small_counts_are_exact() {
        let mut q = StreamingQuantiles::new();
        let s = q.snapshot();
        assert_eq!((s.p50, s.count), (0.0, 0));
        q.observe(7.0);
        assert_eq!(q.snapshot().p50, 7.0);
        q.observe(3.0);
        q.observe(5.0);
        assert_eq!(q.snapshot().p50, 5.0);
        assert_eq!(q.snapshot().max, 7.0);
    }

    /// Below five observations the estimate is the exact order statistic
    /// at rank `ceil(p·n)` (1-clamped), for every quantile, unsorted input
    /// and every count.
    #[test]
    fn p2_small_sample_fallback_is_exact_order_statistic() {
        // Deliberately unsorted; duplicates included.
        let xs = [40.0, 10.0, 40.0, 20.0];
        for (p, expected_by_n) in [
            // p95: ceil(0.95 n) = n -> always the running max.
            (0.95, [40.0, 40.0, 40.0, 40.0]),
            // p50: ranks 1, 1, 2, 2 of the sorted prefixes
            // [40], [10,40], [10,40,40], [10,20,40,40].
            (0.50, [40.0, 10.0, 40.0, 20.0]),
            // p05: ceil is 1 for n<=4 -> always the running min.
            (0.05, [40.0, 10.0, 10.0, 10.0]),
        ] {
            let mut q = P2Quantile::new(p);
            assert_eq!(q.estimate(), None, "empty estimator has no estimate");
            for (i, x) in xs.iter().enumerate() {
                q.observe(*x);
                assert_eq!(
                    q.estimate(),
                    Some(expected_by_n[i]),
                    "p{p} after {} observations",
                    i + 1
                );
            }
        }
    }

    /// `estimate()` sorts a copy below five observations, so interleaving
    /// it with `observe()` ends at the same estimate as observing alone.
    #[test]
    fn p2_estimate_is_side_effect_free() {
        let xs = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0];
        let mut interleaved = P2Quantile::new(0.5);
        let mut pure = P2Quantile::new(0.5);
        for x in xs {
            interleaved.observe(x);
            let _ = interleaved.estimate();
            pure.observe(x);
        }
        assert_eq!(interleaved.estimate(), pure.estimate());
        assert_eq!(interleaved.count(), xs.len());
    }

    /// At exactly five observations the middle marker is the exact
    /// median: the hand-over from the exact path has no glitch.
    #[test]
    fn p2_transition_to_markers_at_five() {
        let mut q = P2Quantile::new(0.5);
        for x in [50.0, 10.0, 40.0, 20.0, 30.0] {
            q.observe(x);
        }
        assert_eq!(q.count(), 5);
        assert_eq!(q.estimate(), Some(30.0), "exact median of 10..50 at n=5");
    }

    #[test]
    fn p2_monotone_inputs() {
        let mut q = P2Quantile::new(0.25);
        for i in 0..10_000 {
            q.observe(i as f64);
        }
        let est = q.estimate().unwrap();
        assert!((est - 2_500.0).abs() < 150.0, "p25 of 0..10000 was {est}");
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_rejects_bad_quantile() {
        P2Quantile::new(1.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn p2_rejects_nan() {
        P2Quantile::new(0.5).observe(f64::NAN);
    }

    #[test]
    fn registry_snapshot_and_json() {
        let mut r = MetricsRegistry::new();
        r.set_counter("scheduler.kills", "ops", 3);
        r.set_gauge("energy.total", "kWh", 1.5);
        let mut h = Histogram::new(&[1.0]);
        h.record(0.5);
        r.set_histogram("storage.write_latency_secs", "s", &h);
        let mut q = StreamingQuantiles::new();
        q.observe(2.0);
        r.set_quantiles("scheduler.response_secs", "s", q.snapshot());

        assert_eq!(r.counter("scheduler.kills"), Some(3));
        assert_eq!(r.gauge("energy.total"), Some(1.5));
        assert_eq!(r.counter("energy.total"), None);
        assert_eq!(r.len(), 4);
        assert!(!r.is_empty());

        let json = r.to_json();
        assert!(
            crate::json::is_valid(&json),
            "registry JSON invalid: {json}"
        );
        assert!(json.contains("\"scheduler.kills\""));
        // BTreeMap ⇒ deterministic name order.
        let e = json.find("energy.total").unwrap();
        let s = json.find("scheduler.kills").unwrap();
        assert!(e < s, "entries must be name-sorted");

        let table = r.render_table();
        assert!(table.contains("scheduler.kills"));
        assert!(table.contains("kWh"));
    }

    #[test]
    fn registry_json_is_deterministic() {
        let build = || {
            let mut r = MetricsRegistry::new();
            r.set_gauge("a.x", "s", 0.1);
            r.set_counter("b.y", "ops", 9);
            r.to_json()
        };
        assert_eq!(build(), build());
    }
}
