//! Order statistics for timing samples.

/// Median of `values`; the mean of the two middle samples when the
/// count is even.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in percent, `0 < p <= 100`).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. `p` is
/// snapped to tenths of a percent and the rank computed in integers: in
/// floating point, 99.9 % of 10 000 samples rounds up to rank 9 991.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (n * per_mille).div_ceil(1000).clamp(1, n)
}

/// Percentiles a tail may be reported at, ascending.
const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `n` samples beyond it, or `None` when even the median has fewer
/// (then only the maximum is worth reporting).
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .into_iter()
        .rev()
        .find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Median, extremes and count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Median sample.
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarises `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        Summary {
            median: median(values),
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 98.0), 98.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0, 9.0], 1.0), 5.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 720 samples: p98 leaves 14 beyond, p99 only 7.
        assert_eq!(tail_percentile(720), Some(98.0));
        // 3000 samples: p99 leaves 30, p99.9 only 3.
        assert_eq!(tail_percentile(3000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // 20 samples: the median leaves exactly ten.
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn summary_keeps_extremes() {
        let s = Summary::of(&[2.0, 9.0, 4.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (4.0, 2.0, 9.0, 3));
    }
}
