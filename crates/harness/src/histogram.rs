//! Log-bucketed latency histogram.
//!
//! The paper's motivation is queues with "fast **and predictable**
//! performance"; wait-freedom is fundamentally a tail-latency guarantee.
//! Figure 2 only shows throughput, so this reproduction adds a latency
//! experiment (`wfq-bench --bin latency_observatory`), backed by this
//! histogram:
//! power-of-two-ish buckets (base-2 exponent + 4 sub-buckets) covering
//! 1 ns .. ~1000 s with bounded error ≤ ~12.5% per sample, constant-time
//! recording, and exact counts.

/// Sub-buckets per power of two (precision/memory trade-off).
const SUBS: usize = 4;
/// Number of base-2 exponents covered (2^0 .. 2^39 ns ≈ 550 s).
const EXPS: usize = 40;

/// A fixed-size latency histogram over nanosecond samples.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
    min: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: vec![0; SUBS * EXPS],
            count: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    #[inline]
    fn index_for(ns: u64) -> usize {
        let ns = ns.max(1);
        let exp = 63 - ns.leading_zeros() as usize; // floor(log2)
        let exp = exp.min(EXPS - 1);
        // Sub-bucket from the bits just below the leading one.
        let sub = if exp == 0 {
            0
        } else if exp < 2 {
            ((ns >> (exp - 1)) & 1) as usize * 2
        } else {
            ((ns >> (exp - 2)) & 0b11) as usize
        };
        exp * SUBS + sub.min(SUBS - 1)
    }

    /// Representative (upper-bound) value of a bucket, in nanoseconds.
    fn value_for(index: usize) -> u64 {
        let exp = index / SUBS;
        let sub = index % SUBS;
        let base = 1u64 << exp;
        // Multiply before dividing so sub-bucket widths don't collapse to
        // zero for the smallest exponents.
        base + ((base as u128 * (sub as u128 + 1)) / SUBS as u128) as u64
    }

    /// Records one sample (nanoseconds).
    #[inline]
    pub fn record(&mut self, ns: u64) {
        self.buckets[Self::index_for(ns)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(ns);
        self.max = self.max.max(ns);
        self.min = self.min.min(ns);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum sample.
    pub fn max(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact minimum sample.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact sum of all samples, ns (saturating; the Prometheus summary's
    /// `_sum` companion to [`Histogram::count`]).
    pub fn sum(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum
        }
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0, 1]` (bucket upper bound; the exact
    /// max is returned for q = 1).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_for(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// One-line summary: `p50/p99/p99.9/max` in human units.
    pub fn summary(&self) -> String {
        format!(
            "p50 {}  p99 {}  p99.9 {}  max {}",
            fmt_ns(self.quantile(0.50)),
            fmt_ns(self.quantile(0.99)),
            fmt_ns(self.quantile(0.999)),
            fmt_ns(self.max())
        )
    }
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = Histogram::new();
        h.record(1234);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), 1234);
        assert_eq!(h.min(), 1234);
        assert_eq!(h.quantile(0.5), 1234);
        assert_eq!(h.quantile(1.0), 1234);
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut h = Histogram::new();
        for ns in (1..100_000u64).step_by(7) {
            h.record(ns);
        }
        for &q in &[0.1, 0.5, 0.9, 0.99] {
            let est = h.quantile(q) as f64;
            let exact = q * 100_000.0;
            let err = (est - exact).abs() / exact;
            assert!(err < 0.30, "q={q}: est {est}, exact ~{exact}, err {err}");
        }
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::new();
        let mut rng = wfq_sync::XorShift64::new(77);
        for _ in 0..10_000 {
            h.record(rng.next_in(10, 1_000_000));
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantiles must be monotone");
            prev = q;
        }
    }

    #[test]
    fn merge_equals_union() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 1..1000u64 {
            if i % 2 == 0 {
                a.record(i * 3);
            } else {
                b.record(i * 3);
            }
            whole.record(i * 3);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.min(), whole.min());
        for &q in &[0.25, 0.5, 0.75, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn huge_samples_saturate_gracefully() {
        let mut h = Histogram::new();
        h.record(u64::MAX / 2);
        assert_eq!(h.max(), u64::MAX / 2);
        assert!(h.quantile(0.5) > 0);
    }

    #[test]
    fn merge_of_disjoint_ranges_keeps_both_tails() {
        // a: 1µs-range samples, b: 1s-range samples, no bucket overlap.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 0..100u64 {
            a.record(1_000 + i);
            b.record(1_000_000_000 + i * 1_000);
        }
        a.merge(&b);
        assert_eq!(a.count(), 200);
        assert_eq!(a.min(), 1_000);
        assert_eq!(a.max(), 1_000_000_000 + 99_000);
        // Below the gap the quantiles come from a's range, above from b's.
        assert!(a.quantile(0.25) < 10_000, "p25 {}", a.quantile(0.25));
        assert!(a.quantile(0.75) >= 500_000_000, "p75 {}", a.quantile(0.75));
        // The merged mean sits between the two clusters.
        assert!(a.mean() > 1_000.0 && a.mean() < 1_000_099_000.0);
    }

    #[test]
    fn every_percentile_of_one_sample_is_that_sample() {
        let mut h = Histogram::new();
        h.record(777);
        for i in 0..=100 {
            assert_eq!(
                h.quantile(i as f64 / 100.0),
                777,
                "q={} of a one-sample histogram",
                i as f64 / 100.0
            );
        }
    }

    #[test]
    fn top_bucket_saturation_clamps_not_wraps() {
        // Everything at or beyond 2^39 ns lands in the top bucket; counts
        // stay exact, quantiles stay ordered, and nothing overflows even at
        // u64::MAX (whose bucket value computation would wrap if value_for
        // multiplied in u64).
        let mut h = Histogram::new();
        let huge = [1u64 << 39, (1 << 45) + 3, u64::MAX / 3, u64::MAX];
        for &ns in &huge {
            h.record(ns);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 1 << 39);
        assert_eq!(h.quantile(1.0), u64::MAX);
        // All four samples share the saturated top bucket, so any interior
        // quantile reports a value clamped into [min, max].
        for &q in &[0.1, 0.5, 0.9] {
            let v = h.quantile(q);
            assert!(v >= h.min() && v <= h.max(), "q={q} escaped range: {v}");
        }
        // Mixing in a small sample keeps the ordering intact.
        h.record(10);
        assert!(h.quantile(0.01) <= h.quantile(0.99));
        assert_eq!(h.min(), 10);
    }

    #[test]
    fn sum_is_exact_and_merge_preserves_it() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        assert_eq!(a.sum(), 0);
        a.record(100);
        a.record(250);
        b.record(50);
        assert_eq!(a.sum(), 350);
        a.merge(&b);
        assert_eq!(a.sum(), 400);
        assert_eq!(a.mean(), 400.0 / 3.0);
    }

    #[test]
    fn merge_preserves_quantile_monotonicity() {
        // Satellite check: after merging two skewed histograms, quantiles
        // must still be nondecreasing in q.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut rng = wfq_sync::XorShift64::new(9);
        for _ in 0..5_000 {
            a.record(rng.next_in(1, 1_000)); // low cluster
            b.record(rng.next_in(1_000_000, 50_000_000)); // high cluster
        }
        a.merge(&b);
        assert_eq!(a.count(), 10_000);
        let mut prev = 0;
        for i in 0..=1000 {
            let q = a.quantile(i as f64 / 1000.0);
            assert!(q >= prev, "q={} dropped: {q} < {prev}", i as f64 / 1000.0);
            prev = q;
        }
    }

    #[test]
    fn formatting_units() {
        assert_eq!(fmt_ns(15), "15ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.5ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.21s");
    }

    #[test]
    fn index_value_roundtrip_is_close() {
        for ns in [1u64, 2, 3, 7, 100, 1023, 1025, 65_000, 1 << 30] {
            let idx = Histogram::index_for(ns);
            let rep = Histogram::value_for(idx);
            assert!(
                rep >= ns || (rep as f64 / ns as f64) > 0.7,
                "bucket rep {rep} too far from {ns}"
            );
            assert!(
                (rep as f64) < ns as f64 * 2.0,
                "bucket rep {rep} overshoots {ns}"
            );
        }
    }
}
