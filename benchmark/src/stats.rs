//! Order statistics over timing samples.

/// A timing series reduced the way every timing in the report is shown:
/// the median, the highest standard percentile that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)`; `None` when the series is too short for any
    /// tail percentile.
    pub tail: Option<(f64, f64)>,
}

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, in tenths of a percent.
const TAIL_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// Nearest-rank index (1-based) of the `permille`/1000 quantile of `n`
/// samples, in integer arithmetic.
fn rank(n: usize, permille: usize) -> usize {
    (n * permille).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=100).
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty series");
    sorted[rank(sorted.len(), (p * 10.0).round() as usize) - 1]
}

/// Median of an unsorted series (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty series");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Reduces a series to its [`Summary`].
pub fn summarize(values: &[f64]) -> Summary {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = TAIL_PERMILLE
        .iter()
        .find(|&&pm| n > 0 && n - rank(n, pm) >= TAIL_MIN_BEYOND)
        .map(|&pm| (pm as f64 / 10.0, sorted[rank(n, pm) - 1]));
    Summary { n, median: median(&sorted), tail }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "median {:.4}", self.median)?;
        match self.tail {
            Some((p, v)) => write!(f, ", p{p} {v:.4}")?,
            None => write!(f, ", no tail percentile")?,
        }
        write!(f, " (n={})", self.n)
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty series");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&values).tail, Some((99.0, 990.0)));
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&values).tail, Some((90.0, 90.0)));
        assert_eq!(summarize(&[1.0; 20]).tail, None);
    }

    #[test]
    fn geomean_of_equal_values_is_that_value() {
        assert!((geomean(&[0.5, 0.5, 0.5]) - 0.5).abs() < 1e-12);
    }
}
