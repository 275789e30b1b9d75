//! Empirical cumulative distribution functions.
//!
//! Figure 1 of the paper reports the CDF of the relative error of the
//! avail-bw sample mean at three averaging timescales; [`Ecdf`] is the
//! structure those experiment binaries print.

/// An empirical CDF over a finite sample.
///
/// Construction sorts the samples once; queries are `O(log n)`.
///
/// ```
/// use abw_stats::ecdf::Ecdf;
/// let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
/// assert_eq!(e.cdf(2.5), 0.5);
/// assert_eq!(e.median(), Some(2.0));
/// ```
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples. NaN samples are dropped.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.retain(|x| !x.is_nan());
        samples.sort_by(f64::total_cmp);
        Ecdf { sorted: samples }
    }

    /// Number of (non-NaN) samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the ECDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`, i.e. the fraction of samples less than or equal to `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 <= q <= 1`) using the nearest-rank method.
    ///
    /// Returns `None` on an empty sample or out-of-range `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // exact q=0 picks the minimum by definition; lint: allow(float_eq)
        if q == 0.0 {
            return Some(self.sorted[0]);
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        Some(self.sorted[rank.saturating_sub(1).min(self.sorted.len() - 1)])
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// Smallest sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Evaluates the CDF on an evenly spaced grid of `points` x-values
    /// spanning `[min, max]`; useful for printing figure series.
    ///
    /// Returns an empty vector when there are no samples or `points < 2`.
    pub fn curve(&self, points: usize) -> Vec<(f64, f64)> {
        if self.sorted.is_empty() || points < 2 {
            return Vec::new();
        }
        let lo = self.sorted[0];
        let hi = self.sorted[self.sorted.len() - 1];
        let step = (hi - lo) / (points - 1) as f64;
        (0..points)
            .map(|i| {
                let x = lo + step * i as f64;
                (x, self.cdf(x))
            })
            .collect()
    }

    /// Fraction of samples whose absolute value exceeds `threshold`.
    ///
    /// Used for statements like "the probability that the relative error
    /// exceeds 5%".
    pub fn fraction_abs_above(&self, threshold: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let n = self.sorted.iter().filter(|&&x| x.abs() > threshold).count();
        n as f64 / self.sorted.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_steps() {
        let e = Ecdf::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(100.0), 1.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!(e.quantile(0.0), Some(1.0));
        assert_eq!(e.median(), Some(3.0));
        assert_eq!(e.quantile(1.0), Some(5.0));
        assert_eq!(e.quantile(1.5), None);
    }

    #[test]
    fn nan_dropped() {
        let e = Ecdf::new(vec![f64::NAN, 1.0, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn empty() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.cdf(1.0), 0.0);
        assert_eq!(e.median(), None);
        assert!(e.curve(10).is_empty());
    }

    #[test]
    fn fraction_above() {
        let e = Ecdf::new(vec![-0.2, -0.01, 0.0, 0.03, 0.5]);
        assert!((e.fraction_abs_above(0.05) - 0.4).abs() < 1e-12);
        assert_eq!(e.fraction_abs_above(1.0), 0.0);
    }

    #[test]
    fn curve_is_monotone() {
        let e = Ecdf::new((0..50).map(|i| ((i * 37) % 17) as f64).collect());
        let c = e.curve(33);
        assert_eq!(c.len(), 33);
        for w in c.windows(2) {
            assert!(w[1].1 >= w[0].1, "CDF must be non-decreasing");
            assert!(w[1].0 >= w[0].0);
        }
        assert_eq!(c.last().unwrap().1, 1.0);
    }
}
