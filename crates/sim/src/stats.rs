//! Small statistics toolkit shared by the measurement and IO crates.

use std::fmt;

/// Summary statistics over a sample of `f64` values.
///
/// # Examples
///
/// ```
/// use powadapt_sim::Summary;
///
/// let s = Summary::from_samples(&[1.0, 2.0, 3.0, 4.0]).unwrap();
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!(s.min(), 1.0);
/// assert_eq!(s.max(), 4.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    sorted: Vec<f64>,
    mean: f64,
    std_dev: f64,
}

impl Summary {
    /// Builds a summary from samples. Returns `None` if `samples` is empty
    /// or contains non-finite values.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() || samples.iter().any(|x| !x.is_finite()) {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        Some(Summary {
            sorted,
            mean,
            std_dev: var.sqrt(),
        })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the summary is over zero samples (never constructible; kept
    /// for API completeness).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("non-empty by construction")
    }

    /// Median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Percentile in `[0, 100]` with linear interpolation between ranks.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
        percentile_of_sorted(&self.sorted, p)
    }

    /// Density estimate over `bins` equal-width bins spanning `[min, max]` —
    /// the data behind a violin plot. Returns `(bin_centers, counts)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn violin_bins(&self, bins: usize) -> (Vec<f64>, Vec<usize>) {
        assert!(bins > 0, "violin_bins requires at least one bin");
        let lo = self.min();
        let hi = self.max();
        let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
        let mut counts = vec![0usize; bins];
        for &x in &self.sorted {
            let idx = (((x - lo) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        let centers = (0..bins).map(|i| lo + width * (i as f64 + 0.5)).collect();
        (centers, counts)
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} p50={:.4} p99={:.4} max={:.4}",
            self.len(),
            self.mean(),
            self.std_dev(),
            self.min(),
            self.median(),
            self.percentile(99.0),
            self.max()
        )
    }
}

/// Percentile of a pre-sorted slice with linear interpolation.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty slice");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Relative error of `measured` against `truth`, as a fraction.
///
/// # Panics
///
/// Panics if `truth` is zero.
pub fn relative_error(measured: f64, truth: f64) -> f64 {
    // powadapt-lint: allow(D3, reason = "exact-zero sentinel check backing the documented panic contract; NaN-safe")
    assert!(truth != 0.0, "relative error against zero truth");
    ((measured - truth) / truth).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.mean(), 5.0);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn empty_and_nonfinite_rejected() {
        assert!(Summary::from_samples(&[]).is_none());
        assert!(Summary::from_samples(&[1.0, f64::NAN]).is_none());
        assert!(Summary::from_samples(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn percentiles_interpolate() {
        let s = Summary::from_samples(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!(s.percentile(0.0), 10.0);
        assert_eq!(s.percentile(100.0), 40.0);
        assert_eq!(s.median(), 25.0);
        assert!((s.percentile(25.0) - 17.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile_of_sorted(&[42.0], 99.0), 42.0);
    }

    #[test]
    fn violin_bins_cover_all_samples() {
        let s = Summary::from_samples(&[1.0, 1.1, 1.2, 5.0, 9.0, 9.1]).unwrap();
        let (centers, counts) = s.violin_bins(4);
        assert_eq!(centers.len(), 4);
        assert_eq!(counts.iter().sum::<usize>(), 6);
        // Mass concentrates at the ends.
        assert!(counts[0] >= 3);
        assert!(counts[3] >= 2);
    }

    #[test]
    fn violin_bins_degenerate_distribution() {
        let s = Summary::from_samples(&[3.0, 3.0, 3.0]).unwrap();
        let (_, counts) = s.violin_bins(5);
        assert_eq!(counts.iter().sum::<usize>(), 3);
    }

    #[test]
    fn relative_error_basics() {
        assert!((relative_error(101.0, 100.0) - 0.01).abs() < 1e-12);
        assert!((relative_error(99.0, 100.0) - 0.01).abs() < 1e-12);
    }

    #[test]
    fn display_is_nonempty() {
        let s = Summary::from_samples(&[1.0, 2.0]).unwrap();
        assert!(!s.to_string().is_empty());
    }
}
