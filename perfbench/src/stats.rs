//! Order statistics: quantiles of window rates and a fine log-linear
//! histogram for per-call durations and latencies.

/// Cut points dividing `xs` into `n` equal groups, by Python's
/// `statistics.quantiles(data, n=n)` (the default "exclusive" method), so
/// the figures printed here match the ones computed over whole runs.
pub fn quantiles(xs: &[f64], n: usize) -> Vec<f64> {
    let mut d = xs.to_vec();
    d.sort_by(f64::total_cmp);
    match d.len() {
        0 => vec![0.0; n - 1],
        1 => vec![d[0]; n - 1],
        len => (1..n)
            .map(|i| {
                let m = (len + 1) * i;
                let j = (m / n).clamp(1, len - 1);
                let delta = m as f64 - (j * n) as f64;
                (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64
            })
            .collect(),
    }
}

/// First quartile, median and third quartile.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let q = quantiles(xs, 4);
    (q[0], q[1], q[2])
}

/// 99th percentile of `xs`.
pub fn p99(xs: &[f64]) -> f64 {
    quantiles(xs, 100)[98]
}

/// Values below this are counted exactly.
const EXACT: u64 = 256;
/// Sub-buckets per power of two above `EXACT`: relative error < 1/128.
const SUB_BITS: u32 = 7;
const BUCKETS: usize = EXACT as usize + (64 - 8) * (1 << SUB_BITS);

/// Log-linear histogram of `u64` samples: exact below 256, then 128
/// buckets per octave, so a quantile is within 0.8% of the sample it
/// stands for. Fixed size, so recording never allocates.
#[derive(Clone)]
pub struct Hist {
    counts: Box<[u64]>,
    n: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            n: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let e = 63 - v.leading_zeros(); // e >= 8
    let sub = (v >> (e - SUB_BITS)) as usize - (1 << SUB_BITS);
    EXACT as usize + (e as usize - 8) * (1 << SUB_BITS) + sub
}

/// Lowest value and width of bucket `i`.
fn range(i: usize) -> (f64, f64) {
    if i < EXACT as usize {
        return (i as f64, 1.0);
    }
    let k = i - EXACT as usize;
    let e = (k >> SUB_BITS) as u32 + 8;
    let sub = (k & ((1 << SUB_BITS) - 1)) as u64 + (1 << SUB_BITS);
    (
        (sub << (e - SUB_BITS)) as f64,
        (1u64 << (e - SUB_BITS)) as f64,
    )
}

impl Hist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.n += 1;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.n += other.n;
    }

    /// The `q`-quantile (0 < q < 1) of the sample of rank ⌈q·n⌉, with
    /// the samples of its bucket taken as spread evenly across it (a
    /// sample `v` below 256 stands for `[v - 0.5, v + 0.5)`); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if seen + c >= rank {
                let (lo, width) = range(i);
                let lo = if i < EXACT as usize { lo - 0.5 } else { lo };
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), (1.0, 3.0, 5.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
    }

    #[test]
    fn deciles_match_python_statistics_quantiles() {
        let close = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| (x - y).abs() < 1e-9);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(
            &quantiles(&xs, 10),
            &[1.1, 2.2, 3.3, 4.4, 5.5, 6.6, 7.7, 8.8, 9.9]
        ));
        // Python extrapolates past the ends of small samples; so do we.
        assert!(close(
            &quantiles(&[5.0, 1.0, 3.0], 10),
            &[-0.2, 0.6, 1.4, 2.2, 3.0, 3.8, 4.6, 5.4, 6.2]
        ));
        // statistics.quantiles(range(1, 201), n=100)[98] == 198.99
        let many: Vec<f64> = (1..=200).map(f64::from).collect();
        assert!((p99(&many) - 198.99).abs() < 1e-9);
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = Hist::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0), (0.01, 1_000.0)] {
            let got = h.quantile(q);
            assert!(
                (got - want).abs() / want < 1.0 / 128.0,
                "q{q}: {got} vs {want}"
            );
        }
        let mut small = Hist::default();
        for v in [3, 3, 7, 200] {
            small.record(v);
        }
        // Rank 2 is the second of two 3s: 3.25 within [2.5, 3.5).
        assert_eq!(small.quantile(0.5), 3.25);
        assert_eq!(small.quantile(0.75), 7.0);
        assert_eq!(small.count(), 4);
    }

    #[test]
    fn every_u64_has_a_bucket_and_buckets_are_ordered() {
        let probes = [0, 1, 255, 256, 257, 1 << 20, (1 << 20) + 12345, u64::MAX];
        for w in probes.windows(2) {
            assert!(bucket(w[0]) <= bucket(w[1]));
        }
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        for i in [0, 255, 256, 300, BUCKETS - 2] {
            let (lo, width) = range(i);
            assert_eq!(bucket(lo as u64), i, "bucket {i}");
            assert_eq!(bucket((lo + width) as u64), i + 1, "bucket {i}");
        }
    }
}
