//! Summary statistics and empirical CDFs for the evaluation plots.
//!
//! Figs. 7(d) and 8(d) of the paper report the CDF ("likelihood of
//! occurrence") of per-node storage and communication overhead. [`Cdf`]
//! produces exactly those curves from per-node samples.

use std::fmt;

/// Summary statistics over a sample of `f64` values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub(crate) count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub(crate) std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes summary statistics; returns `None` for an empty sample.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &x in samples {
            min = min.min(x);
            max = max.max(x);
        }
        Some(Summary {
            count: samples.len(),
            mean,
            std_dev: var.sqrt(),
            min,
            max,
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} std={:.4} min={:.4} max={:.4}",
            self.count, self.mean, self.std_dev, self.min, self.max
        )
    }
}

/// Percentile of a sample using nearest-rank on a sorted copy.
///
/// `q` is in `[0, 1]`. Returns `None` for an empty sample.
///
/// # Example
///
/// ```
/// use tldag_sim::stats::percentile;
///
/// let data = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&data, 0.5), Some(2.0));
/// assert_eq!(percentile(&data, 1.0), Some(4.0));
/// ```
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let q = q.clamp(0.0, 1.0);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// An empirical cumulative distribution function.
///
/// # Example
///
/// ```
/// use tldag_sim::stats::Cdf;
///
/// let cdf = Cdf::from_samples(vec![10.0, 20.0, 20.0, 40.0]);
/// assert_eq!(cdf.fraction_at_or_below(20.0), 0.75);
/// assert_eq!(cdf.fraction_at_or_below(9.0), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from raw samples.
    ///
    /// # Panics
    ///
    /// Panics if any sample is NaN.
    pub fn from_samples(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|x| !x.is_nan()),
            "CDF samples must not contain NaN"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("checked for NaN"));
        Cdf { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples `<= x` (the CDF value at `x`).
    pub fn fraction_at_or_below(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The step points `(x, F(x))` of the CDF, one per distinct sample —
    /// exactly the curve plotted in Figs. 7(d)/8(d).
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        let mut points = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let is_last_of_run = i + 1 == n || self.sorted[i + 1] > x;
            if is_last_of_run {
                points.push((x, (i + 1) as f64 / n as f64));
            }
        }
        points
    }

    /// Smallest and largest sample.
    pub fn range(&self) -> Option<(f64, f64)> {
        Some((*self.sorted.first()?, *self.sorted.last()?))
    }
}

#[cfg(test)]
impl Cdf {
    /// The sample value at cumulative probability `q` (inverse CDF,
    /// nearest-rank). Returns `None` for an empty CDF.
    fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len());
        Some(self.sorted[rank - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_empty_is_none() {
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_nearest_rank() {
        let data = vec![15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&data, 0.05), Some(15.0));
        assert_eq!(percentile(&data, 0.3), Some(20.0));
        assert_eq!(percentile(&data, 0.4), Some(20.0));
        assert_eq!(percentile(&data, 0.5), Some(35.0));
        assert_eq!(percentile(&data, 1.0), Some(50.0));
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let cdf = Cdf::from_samples(vec![3.0, 1.0, 2.0, 2.0, 10.0]);
        let mut last = 0.0;
        for x in [0.0, 1.0, 1.5, 2.0, 3.0, 9.0, 10.0, 11.0] {
            let f = cdf.fraction_at_or_below(x);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= last);
            last = f;
        }
        assert_eq!(cdf.fraction_at_or_below(11.0), 1.0);
    }

    #[test]
    fn cdf_points_step_structure() {
        let cdf = Cdf::from_samples(vec![1.0, 1.0, 2.0]);
        assert_eq!(cdf.points(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn quantile_inverts_cdf() {
        let cdf = Cdf::from_samples((1..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.quantile(0.5), Some(50.0));
        assert_eq!(cdf.quantile(0.9), Some(90.0));
        assert_eq!(cdf.quantile(0.0), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(100.0));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn cdf_rejects_nan() {
        Cdf::from_samples(vec![1.0, f64::NAN]);
    }

    #[test]
    fn empty_cdf_behaviour() {
        let cdf = Cdf::from_samples(vec![]);
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_at_or_below(5.0), 0.0);
        assert_eq!(cdf.quantile(0.5), None);
        assert_eq!(cdf.range(), None);
    }
}
