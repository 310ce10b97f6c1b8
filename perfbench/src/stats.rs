//! Sample summaries: the median of a timing and its tail percentile.
//!
//! Every timing is reported as a nearest-rank median (an observed sample,
//! `dpc_bench::percentile`). A p99 is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it; with fewer, the "tail" would be one
//! or two unlucky samples and would not repeat from run to run.

use dpc_bench::{percentile, sorted_samples};

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A timing's samples, sorted ascending.
#[derive(Clone, Debug)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Sorts `samples` (NaN is a measurement bug and panics).
    pub fn new(samples: Vec<f64>) -> Self {
        Self(sorted_samples(samples))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank median, `None` without samples.
    pub fn median(&self) -> Option<f64> {
        (!self.0.is_empty()).then(|| percentile(&self.0, 50.0))
    }

    /// Nearest-rank percentile `p`, reported only when at least
    /// [`MIN_BEYOND`] samples lie strictly above its rank.
    pub fn tail(&self, p: f64) -> Option<f64> {
        let n = self.0.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (n >= rank + MIN_BEYOND && n > 0).then(|| percentile(&self.0, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).map(|i| i as f64).collect())
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // n = 999: rank ⌈989.01⌉ = 990, only 9 samples above it.
        assert_eq!(ramp(999).tail(99.0), None);
        // n = 1000: rank 990, exactly 10 above it.
        assert_eq!(ramp(1000).tail(99.0), Some(990.0));
        assert_eq!(ramp(5000).tail(99.0), Some(4950.0));
        assert_eq!(ramp(0).tail(99.0), None);
    }

    #[test]
    fn median_is_an_observed_sample() {
        assert_eq!(ramp(0).median(), None);
        assert_eq!(ramp(1).median(), Some(1.0));
        assert_eq!(ramp(3).median(), Some(2.0));
        assert_eq!(Samples::new(vec![3.0, 1.0, 2.0, 10.0]).median(), Some(2.0));
    }
}
