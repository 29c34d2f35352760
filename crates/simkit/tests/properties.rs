//! Property-based tests for the simulation kernel.

use cbp_simkit::dist::{Categorical, Dist, EmpiricalDist};
use cbp_simkit::stats::Samples;
use cbp_simkit::units::{Bandwidth, ByteSize};
use cbp_simkit::{EventQueue, SimDuration, SimRng, SimTime};
use proptest::prelude::*;

proptest! {
    /// The event queue pops in non-decreasing time order, FIFO within a
    /// timestamp, and never loses or invents events.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_micros(t), i);
        }
        let mut popped = Vec::new();
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated at equal timestamps");
                }
            }
            last = Some((t, i));
            popped.push(i);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, (0..times.len()).collect::<Vec<_>>());
    }

    /// Time arithmetic: (t + d) - d == t and ordering is consistent.
    #[test]
    fn time_arithmetic_roundtrip(t in 0u64..1u64 << 40, d in 0u64..1u64 << 30) {
        let time = SimTime::from_micros(t);
        let dur = SimDuration::from_micros(d);
        prop_assert_eq!((time + dur) - dur, time);
        prop_assert_eq!((time + dur).since(time), dur);
        prop_assert!(time + dur >= time);
    }

    /// Bandwidth transfer time is monotone in size and (anti)monotone in
    /// rate, and never rounds a non-empty transfer down to zero.
    #[test]
    fn transfer_time_monotone(
        bytes_a in 1u64..1u64 << 36,
        bytes_b in 1u64..1u64 << 36,
        rate in 1u64..10_000_000_000,
    ) {
        let bw = Bandwidth::from_bytes_per_sec(rate);
        let (lo, hi) = if bytes_a <= bytes_b { (bytes_a, bytes_b) } else { (bytes_b, bytes_a) };
        let t_lo = bw.transfer_time(ByteSize::from_bytes(lo));
        let t_hi = bw.transfer_time(ByteSize::from_bytes(hi));
        prop_assert!(t_lo <= t_hi);
        prop_assert!(!t_lo.is_zero());
        let faster = bw.scaled(2.0);
        prop_assert!(faster.transfer_time(ByteSize::from_bytes(hi)) <= t_hi);
    }

    /// Percentiles are monotone and bounded by min/max.
    #[test]
    fn percentiles_monotone(xs in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let mut s: Samples = xs.iter().copied().collect();
        let p25 = s.percentile(25.0).unwrap();
        let p50 = s.percentile(50.0).unwrap();
        let p75 = s.percentile(75.0).unwrap();
        prop_assert!(p25 <= p50 && p50 <= p75);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p25 >= lo && p75 <= hi);
    }

    /// Every Dist sample is non-negative and finite.
    #[test]
    fn dist_samples_sane(mean in 0.1f64..1e6, cv in 0.0f64..3.0, seed in any::<u64>()) {
        let d = Dist::log_normal_mean_cv(mean, cv);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = d.sample(&mut rng);
            prop_assert!(x.is_finite() && x >= 0.0);
        }
    }

    /// Empirical quantiles are monotone in p.
    #[test]
    fn empirical_monotone(mut qs in proptest::collection::vec(-1e6f64..1e6, 2..50)) {
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let e = EmpiricalDist::new(qs);
        let mut last = f64::NEG_INFINITY;
        for i in 0..=20 {
            let v = e.quantile(i as f64 / 20.0);
            prop_assert!(v >= last);
            last = v;
        }
    }

    /// Categorical sampling only returns listed items.
    #[test]
    fn categorical_in_support(
        weights in proptest::collection::vec(0.0f64..10.0, 1..10),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let items: Vec<(usize, f64)> =
            weights.iter().enumerate().map(|(i, &w)| (i, w)).collect();
        let c = Categorical::new(items);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let i = c.sample(&mut rng);
            prop_assert!(i < weights.len());
            // Zero-weight items must never be drawn.
            prop_assert!(weights[i] > 0.0 || weights.iter().all(|&w| w == 0.0));
        }
    }
}
