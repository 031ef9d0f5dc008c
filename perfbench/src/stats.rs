//! Order statistics for timings: medians and tail percentiles under the
//! rule that a percentile is reported only when at least
//! [`TAIL_SAMPLES`] samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by nearest rank; `NaN`
/// for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    // The epsilon absorbs rounding in `q * len` (0.99 × 1000 must rank
    // 990, not 991).
    let rank = (q * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest percentile (as a fraction) that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples strictly beyond it, or `None` when
/// `n` is too small for any.
pub fn highest_supported(n: usize) -> Option<f64> {
    (n > TAIL_SAMPLES).then(|| (n - TAIL_SAMPLES) as f64 / n as f64)
}

/// A tail latency: the wanted percentile when the sample supports it,
/// otherwise the highest one it does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile actually reported, as a fraction.
    pub q: f64,
    /// Its value.
    pub value: f64,
    /// Sample count.
    pub n: usize,
}

/// The `want` percentile of `samples`, lowered to the highest
/// supported one when fewer than [`TAIL_SAMPLES`] samples would lie
/// beyond it. Falls back to the median for tiny samples.
pub fn tail(samples: &[f64], want: f64) -> Tail {
    let n = samples.len();
    let q = highest_supported(n).map_or(0.5, |max| want.min(max));
    Tail {
        q,
        value: quantile(samples, q),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v = ramp(100);
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(10), None);
        let t = tail(&ramp(1000), 0.99);
        assert_eq!((t.q, t.value, t.n), (0.99, 990.0, 1000));
        // Exactly ten samples lie beyond the reported value.
        assert_eq!(ramp(1000).iter().filter(|&&x| x > t.value).count(), 10);
    }

    #[test]
    fn short_samples_report_the_highest_supported_percentile() {
        let t = tail(&ramp(250), 0.99);
        assert_eq!(t.q, 0.96);
        assert_eq!(t.value, 240.0);
        assert_eq!(ramp(250).iter().filter(|&&x| x > t.value).count(), 10);
        // Too few for any tail: the median stands in.
        let t = tail(&ramp(7), 0.99);
        assert_eq!((t.q, t.value), (0.5, 4.0));
    }
}
