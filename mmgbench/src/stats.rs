//! Order statistics for repeated host-time samples.

/// Sample count and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `samples`. Quartiles use the "exclusive" method of
    /// Python's `statistics.quantiles(data, n=4)`, the one used to judge
    /// run-to-run spread, so numbers printed here compare directly.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples to summarize");
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let [q1, median, q3] = quartiles(&sorted);
        Summary {
            n: sorted.len(),
            q1,
            median,
            q3,
        }
    }
}

/// The three cut points of `statistics.quantiles(sorted, n=4)` (default
/// exclusive method) for ascending data; a single sample is its own
/// quartiles.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    let m = len as i64 + 1;
    [1i64, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // Negative or above 4 when `j` was clamped: Python extrapolates
        // from the two end samples, and so does this.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from CPython's `statistics.quantiles(x, n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[5.0, 7.0]);
        assert_eq!((s.q1, s.median, s.q3), (4.5, 6.0, 7.5));
    }

    #[test]
    fn median_is_order_free_and_single_samples_collapse() {
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.n, 5);
        let one = Summary::of(&[0.25]);
        assert_eq!((one.n, one.q1, one.median, one.q3), (1, 0.25, 0.25, 0.25));
    }
}
