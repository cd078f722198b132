//! Exact quantiles over sampled per-op timings, and the timer floor.
//!
//! Samples are sorted, not bucketed: a quantile is an order statistic
//! of what was measured, so its only error is sampling error.

use std::time::Instant;

/// Mean, median and 99th percentile of one sample, with its size.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quantiles {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Quantiles {
    /// Summarizes `samples` (sorted in place). An empty sample reads 0.
    pub fn of(samples: &mut [u64]) -> Quantiles {
        if samples.is_empty() {
            return Quantiles::default();
        }
        samples.sort_unstable();
        let sum: f64 = samples.iter().map(|&s| s as f64).sum();
        Quantiles {
            n: samples.len(),
            mean: sum / samples.len() as f64,
            p50: quantile(samples, 0.50),
            p99: quantile(samples, 0.99),
        }
    }
}

/// The `q` quantile of sorted samples, interpolated linearly between
/// the two nearest order statistics.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    if lo >= sorted.len() - 1 {
        return last as f64;
    }
    let frac = pos - lo as f64;
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
}

/// Nanoseconds elapsed since `start`.
#[inline]
pub fn ns_since(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

/// Median cost of one `Instant::now()`, measured as the gap between two
/// back-to-back reads: the overhead a sampled timing adds to the
/// interval it measures.
pub fn timer_floor_ns() -> f64 {
    let mut gaps: Vec<u64> = (0..20_000)
        .map(|_| {
            let a = Instant::now();
            ns_since(a)
        })
        .collect();
    Quantiles::of(&mut gaps).p50
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A cheap seeded generator deciding which ops to sample. Sampling at
/// random, not at a fixed stride, keeps the sample from aliasing with
/// periodic work such as the KV store's every-64-ops epoch tick.
#[derive(Debug, Clone)]
pub struct Sampler(u64);

impl Sampler {
    /// A sampler seeded from `seed` (any value).
    pub fn new(seed: u64) -> Self {
        Sampler(seed | 1)
    }

    /// True with probability `1 / one_in` (`one_in` a power of two).
    #[inline]
    pub fn hit(&mut self, one_in: u64) -> bool {
        // xorshift64
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 & (one_in - 1) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_exact_order_statistics() {
        let mut s: Vec<u64> = (1..=101).rev().collect();
        let q = Quantiles::of(&mut s);
        assert_eq!(q.n, 101);
        assert_eq!(q.p50, 51.0);
        assert_eq!(q.p99, 100.0);
        assert_eq!(q.mean, 51.0);
        assert_eq!(quantile(&[10, 20], 0.5), 15.0);
        assert_eq!(Quantiles::of(&mut []), Quantiles::default());
    }

    #[test]
    fn sampler_rate_is_close_to_requested() {
        let mut s = Sampler::new(42);
        let hits = (0..80_000).filter(|_| s.hit(8)).count();
        assert!((9_000..11_000).contains(&hits), "{hits}");
    }
}
