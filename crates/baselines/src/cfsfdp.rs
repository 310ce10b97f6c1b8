//! CFSFDP-A (Bai et al., Pattern Recognition 2017): the state-of-the-art
//! *exact* baseline of the paper (§2.3).
//!
//! CFSFDP-A selects `k` pivot points with k-means, records every point's
//! distance to its pivot, and uses the triangle inequality to skip whole pivot
//! groups (and individual points) that cannot be within `d_cut` during the
//! local-density phase. Exactly as the paper does for its experiments, the
//! dependent-point phase reuses the Scan approach, because CFSFDP-A's own
//! dependent phase is `Ω(n²)` (Table 1).
//!
//! The paper's observation that k-means pivots give weak filtering power on
//! noisy data (so the candidate sets stay large) is reproduced naturally: the
//! pruning rate degrades as noise grows, which is visible in the harness's
//! decomposed timings.

use std::time::Instant;

use dpc_core::framework::{jittered_density, validate_dataset};
use dpc_core::{DpcAlgorithm, DpcError, DpcModel, DpcParams, Timings};
use dpc_geometry::{dist, dist_sq, Dataset};
use dpc_parallel::Executor;
use dpc_rng::StdRng;

use crate::scan::Scan;

/// Number of Lloyd iterations used for pivot selection. The pivots only need to
/// be rough centroids; CFSFDP-A's original implementation also caps iterations.
const KMEANS_ITERATIONS: usize = 8;

/// The CFSFDP-A baseline.
#[derive(Clone, Copy, Debug)]
pub struct CfsfdpA {
    params: DpcParams,
    /// Number of k-means pivots; `None` selects `√n` (the customary choice).
    pivots: Option<usize>,
    seed: u64,
}

impl CfsfdpA {
    /// Creates the algorithm with the given parameters and `√n` pivots.
    pub fn new(params: DpcParams) -> Self {
        Self { params, pivots: None, seed: 0xC1F5 }
    }

    /// Overrides the number of k-means pivots.
    pub fn with_pivots(mut self, pivots: usize) -> Self {
        assert!(pivots > 0, "at least one pivot is required");
        self.pivots = Some(pivots);
        self
    }

    /// Overrides the k-means seeding RNG.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs a small k-means to obtain pivots. Returns `(assignment, centroids)`.
    fn kmeans(&self, data: &Dataset, k: usize, executor: &Executor) -> (Vec<usize>, Vec<Vec<f64>>) {
        let n = data.len();
        let dim = data.dim();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut ids: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut ids);
        let mut centroids: Vec<Vec<f64>> =
            ids.iter().take(k).map(|&i| data.point(i).to_vec()).collect();
        let mut assignment = vec![0usize; n];
        for _ in 0..KMEANS_ITERATIONS {
            // Assignment step (parallel).
            assignment = executor.map_dynamic(n, |i| {
                let p = data.point(i);
                let mut best = 0usize;
                let mut best_d = f64::INFINITY;
                for (c, centroid) in centroids.iter().enumerate() {
                    let d = dist_sq(p, centroid);
                    if d < best_d {
                        best_d = d;
                        best = c;
                    }
                }
                best
            });
            // Update step.
            let mut sums = vec![vec![0.0f64; dim]; centroids.len()];
            let mut counts = vec![0usize; centroids.len()];
            for (i, &c) in assignment.iter().enumerate() {
                counts[c] += 1;
                for (axis, v) in data.point(i).iter().enumerate() {
                    sums[c][axis] += v;
                }
            }
            for (c, sum) in sums.into_iter().enumerate() {
                if counts[c] > 0 {
                    centroids[c] = sum.into_iter().map(|s| s / counts[c] as f64).collect();
                }
            }
        }
        (assignment, centroids)
    }
}

impl DpcAlgorithm for CfsfdpA {
    fn name(&self) -> &'static str {
        "CFSFDP-A"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        validate_dataset(data)?;
        let n = data.len();
        let mut timings = Timings::default();
        let executor = Executor::new(self.params.threads);
        let dcut = self.params.dcut;
        let dcut_sq = dcut * dcut;
        let seed = self.params.jitter_seed;
        let k = self.pivots.unwrap_or_else(|| (n as f64).sqrt().ceil() as usize).clamp(1, n);

        // ---- Local density with pivot-based triangle-inequality filtering ----
        let start = Instant::now();
        let (pivot_of, pivots) = self.kmeans(data, k, &executor);
        // Group points by pivot and record, per point, its distance to the
        // pivot; per group, the maximum such distance (the group radius).
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); pivots.len()];
        for (i, &c) in pivot_of.iter().enumerate() {
            groups[c].push(i);
        }
        let dist_to_pivot: Vec<f64> =
            (0..n).map(|i| dist(data.point(i), &pivots[pivot_of[i]])).collect();
        let group_radius: Vec<f64> = groups
            .iter()
            .map(|members| members.iter().map(|&i| dist_to_pivot[i]).fold(0.0f64, f64::max))
            .collect();

        // Gather each group's coordinates into contiguous rows once: the
        // density loop scans candidate groups n times, and the row strips keep
        // those scans sequential in memory (the same layout the batched
        // kernels use) instead of chasing scattered dataset rows.
        let dim = data.dim();
        let group_rows: Vec<Vec<f64>> = groups
            .iter()
            .map(|members| {
                let mut rows = Vec::with_capacity(members.len() * dim);
                for &j in members {
                    rows.extend_from_slice(data.point(j));
                }
                rows
            })
            .collect();

        let rho: Vec<f64> = executor.map_dynamic(n, |i| {
            let pi = data.point(i);
            let mut count = 0usize;
            for (c, members) in groups.iter().enumerate() {
                let d_pivot = dist(pi, &pivots[c]);
                // Whole-group pruning: every member q satisfies
                // dist(p_i, q) ≥ d_pivot − dist(q, pivot) ≥ d_pivot − radius.
                // Strict `>`: at equality a member can sit exactly at d_cut,
                // which the closed-ball Definition 1 counts.
                if d_pivot - group_radius[c] > dcut {
                    continue;
                }
                let rows = &group_rows[c];
                for (k, &j) in members.iter().enumerate() {
                    if j == i {
                        continue;
                    }
                    // Per-point pruning: |d_pivot − dist(q, pivot)| > d_cut ⇒ too far.
                    if (d_pivot - dist_to_pivot[j]).abs() > dcut {
                        continue;
                    }
                    if dist_sq(pi, &rows[k * dim..(k + 1) * dim]) <= dcut_sq {
                        count += 1;
                    }
                }
            }
            jittered_density(count, i, seed)
        });
        timings.rho_secs = start.elapsed().as_secs_f64();

        // ---- Dependent points via the Scan approach (as in the paper) ----
        let start = Instant::now();
        let (dependent, delta) = Scan::new(self.params).dependent_points(data, &rho);
        timings.delta_secs = start.elapsed().as_secs_f64();

        let index_bytes = pivots.len() * data.dim() * std::mem::size_of::<f64>()
            + n * std::mem::size_of::<f64>() // distances to pivots
            + n * std::mem::size_of::<usize>(); // pivot assignment
        DpcModel::from_parts(
            self.name(),
            self.params.dcut,
            rho,
            delta,
            dependent,
            timings,
            index_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::{ExDpc, Thresholds};
    use dpc_data::generators::{gaussian_blobs, uniform};

    #[test]
    fn output_is_exact() {
        // Despite the filtering, CFSFDP-A is an exact algorithm: same densities
        // and clusters as Ex-DPC.
        let data = uniform(400, 2, 100.0, 19);
        let params = DpcParams::new(9.0);
        let thresholds = Thresholds::new(2.0, 30.0).unwrap();
        let a = CfsfdpA::new(params).fit(&data).unwrap();
        let b = ExDpc::new(params).fit(&data).unwrap();
        assert_eq!(a.rho(), b.rho());
        let (a, b) = (a.extract(&thresholds), b.extract(&thresholds));
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.assignment, b.assignment);
    }

    #[test]
    fn exactness_holds_with_few_pivots_and_many_pivots() {
        let data = gaussian_blobs(&[(0.0, 0.0), (60.0, 60.0)], 150, 4.0, 2);
        let params = DpcParams::new(5.0);
        let reference = ExDpc::new(params).fit(&data).unwrap();
        for pivots in [1usize, 5, 40] {
            let m = CfsfdpA::new(params).with_pivots(pivots).fit(&data).unwrap();
            assert_eq!(m.rho(), reference.rho(), "pivots = {pivots}");
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = uniform(300, 3, 60.0, 27);
        let params = DpcParams::new(7.0);
        let a = CfsfdpA::new(params.with_threads(1)).fit(&data).unwrap();
        let b = CfsfdpA::new(params.with_threads(4)).fit(&data).unwrap();
        assert_eq!(a.rho(), b.rho());
        assert_eq!(a.dependent(), b.dependent());
    }

    #[test]
    fn clusters_blobs() {
        let data = gaussian_blobs(&[(0.0, 0.0), (120.0, 0.0)], 200, 3.0, 15);
        let params = DpcParams::new(8.0);
        let thresholds = Thresholds::new(4.0, 50.0).unwrap();
        let c = CfsfdpA::new(params).run(&data, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 2);
    }

    #[test]
    fn empty_and_single_inputs() {
        let params = DpcParams::new(1.0);
        assert_eq!(CfsfdpA::new(params).fit(&Dataset::new(2)).unwrap_err(), DpcError::EmptyDataset);
        let single = Dataset::from_flat(2, vec![1.0, 1.0]);
        let c = CfsfdpA::new(params).run(&single, &Thresholds::for_dcut(1.0)).unwrap();
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one pivot")]
    fn zero_pivots_rejected() {
        let _ = CfsfdpA::new(DpcParams::new(1.0)).with_pivots(0);
    }
}
