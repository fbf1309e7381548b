//! Order statistics over the per-pass samples.

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// Number of samples.
    pub n: usize,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted`, linearly interpolated between
/// the two nearest order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort a copy of `samples` ascending.
#[must_use]
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median + quartiles of `samples`.
///
/// # Panics
///
/// Panics on an empty slice.
#[must_use]
pub fn summarize(samples: &[f64]) -> Summary {
    let s = sorted(samples);
    Summary {
        p25: quantile(&s, 0.25),
        median: quantile(&s, 0.5),
        p75: quantile(&s, 0.75),
        n: s.len(),
    }
}

/// Median of `samples`, or 0 when there are none (a layer that is idle on
/// this workload).
#[must_use]
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        summarize(samples).median
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.p25, s.median, s.p75, s.n), (2.0, 3.0, 4.0, 5));
        assert_eq!(summarize(&[1.0, 2.0]).median, 1.5);
        assert_eq!(median_or_zero(&[]), 0.0);
    }
}
