//! S-Approx-DPC: sampled, cell-clustering DPC with an approximation parameter
//! `ε` (§5).
//!
//! The observation behind the algorithm: points that are very close to each
//! other have almost the same local density, hence the same (or nearly the
//! same) dependent point. S-Approx-DPC therefore builds a finer grid `G'`
//! (cell side `ε·d_cut/√d`), **picks a single point per cell**, runs the
//! expensive steps (range search, dependent-point retrieval) only for picked
//! points, and lets every other point simply depend on the picked point of its
//! cell. Conceptually this turns point clustering into cell clustering: the
//! number of range searches drops from `n` to `|G'|`, which is what produces
//! the near-linear scaling of Figure 7 and the `ε` ↔ time trade-off of Table 5.
//! The `|G'|` searches are one `dpc_index::batchq::search_grid_cells` call
//! (neighbouring cells share one tree descent, buckets fan out across the
//! workers, results come back in cell order). An `ε·d_cut/√d` that is not a
//! positive finite side is an `InvalidParams` error on `epsilon`.
//!
//! Dependent points of picked points are resolved in two phases (§5):
//!
//! 1. a picked point adopts any higher-density picked point in a neighbouring
//!    cell (`N(c)`), giving an approximate dependent distance bounded by
//!    `(1 + ε)·d_cut`;
//! 2. the remaining picked points (`P'_pick`, the density peaks of their
//!    neighbourhood) get their exact nearest higher-density picked point.
//!    The paper groups the picked points into *temporary clusters* and prunes
//!    whole clusters by the triangle inequality; here each point of
//!    `P'_pick` asks the ρ-phase kd-tree ([`KdTree::nearest_denser`]) with
//!    the picked points' ρ as the rank and every other point masked to `−∞`,
//!    so subtrees holding no denser picked point are skipped. The answers are
//!    the temporary clusters' answers (on an exact distance tie the lowest id
//!    wins), without their `O(|P'_pick| · |G'|)` rescans.

use std::time::Instant;

use dpc_geometry::{dist, Dataset};
use dpc_index::batchq;
use dpc_index::{Grid, KdTree};
use dpc_parallel::Executor;

use crate::error::DpcError;
use crate::framework::{grid_side, jittered_density, resolve_nearest_denser, validate_dataset};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;
use crate::DpcAlgorithm;

/// The S-Approx-DPC algorithm of §5.
#[derive(Clone, Copy, Debug)]
pub struct SApproxDpc {
    params: DpcParams,
    epsilon: f64,
}

impl SApproxDpc {
    /// Creates the algorithm with the given parameters and `ε = 1.0` (the
    /// coarsest setting evaluated by the paper).
    pub fn new(params: DpcParams) -> Self {
        Self { params, epsilon: 1.0 }
    }

    /// Sets the approximation parameter `ε > 0`. Smaller values create more
    /// cells (more accurate, slower); larger values create fewer cells (faster,
    /// coarser). Validated by `fit`, which returns
    /// [`DpcError::InvalidParams`] for a non-positive or non-finite value.
    pub fn with_epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// The configured parameters.
    pub fn params(&self) -> &DpcParams {
        &self.params
    }

    /// The configured approximation parameter.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

/// Per-cell state carried between the phases.
struct PickedCell {
    /// The sampled point of this cell.
    picked: usize,
    /// Jittered local density of the picked point.
    rho: f64,
    /// Cells containing a point within `d_cut` of the picked point.
    neighbors: Vec<usize>,
}

impl DpcAlgorithm for SApproxDpc {
    fn name(&self) -> &'static str {
        "S-Approx-DPC"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        if !(self.epsilon.is_finite() && self.epsilon > 0.0) {
            return Err(DpcError::InvalidParams {
                param: "epsilon",
                value: self.epsilon,
                requirement: "must be positive and finite",
            });
        }
        validate_dataset(data)?;
        let executor = Executor::new(self.params.threads);
        let mut timings = Timings::default();
        let n = data.len();
        let dcut = self.params.dcut;
        let seed = self.params.jitter_seed;
        let side = grid_side(self.epsilon * dcut, data.dim(), "epsilon", self.epsilon)?;

        // ---- Local density phase (Corollary 1) ----
        let start = Instant::now();
        let tree = KdTree::build_parallel(data, &executor);
        // Bit-identical to the serial build at every thread count, so the
        // whole fit stays deterministic across --threads.
        let grid = Grid::build_parallel(data, side, &executor);

        // One range search per cell for its (deterministically) picked point:
        // the first point mapped into the cell, whose coordinates are the
        // cell's first CSR row. Adjacent cells share one joint tree descent,
        // and the buckets fan out over contiguous ranges (§5, "Implementation
        // for parallel processing").
        let dim = data.dim();
        let search_results =
            batchq::search_grid_cells(&tree.packed_parts(), &grid, &executor, |cell, row| {
                row.extend_from_slice(&grid.coords(cell)[..dim]);
                dcut
            });
        let picked_cells: Vec<PickedCell> = executor.map_dynamic(grid.num_cells(), |cell| {
            let picked = grid.points(cell)[0];
            let result = &search_results[cell];
            let count = result.iter().filter(|&&q| q != picked).count();
            let mut neighbors: Vec<usize> =
                result.iter().map(|&q| grid.cell_of(q)).filter(|&c2| c2 != cell).collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            PickedCell { picked, rho: jittered_density(count, picked, seed), neighbors }
        });

        // Per-point densities: picked points keep their jittered count; the
        // other points of a cell inherit the un-jittered count, which is
        // strictly smaller than the picked point's density (so dependency edges
        // always point towards higher density) and keeps ρ_min behaviour
        // uniform inside a cell.
        let mut rho = vec![0.0f64; n];
        for (cell, pc) in picked_cells.iter().enumerate() {
            for &p in grid.points(cell) {
                rho[p] = pc.rho.floor();
            }
            rho[pc.picked] = pc.rho;
        }
        timings.rho_secs = start.elapsed().as_secs_f64();
        let index_bytes = tree.mem_usage() + grid.mem_usage();

        // ---- Dependent point phase (Lemma 5) ----
        let start = Instant::now();
        let mut dependent: Vec<usize> = (0..n).collect();
        let mut delta = vec![f64::INFINITY; n];

        // Non-picked points: depend on the picked point of their cell. The
        // distance is at most `ε·d_cut` (the cell diameter) and is computed
        // exactly because it costs O(1) per point.
        let non_picked: Vec<Vec<(usize, f64)>> = executor.map_dynamic(grid.num_cells(), |cell| {
            let picked = picked_cells[cell].picked;
            let picked_coords = data.point(picked);
            // The grid stores each cell's coordinates as contiguous CSR rows;
            // scanning them avoids chasing per-point rows through the dataset.
            grid.points(cell)
                .iter()
                .zip(grid.coords(cell).chunks_exact(data.dim()))
                .filter(|&(&p, _)| p != picked)
                .map(|(&p, row)| (p, dist(row, picked_coords)))
                .collect()
        });
        for (ci, pairs) in non_picked.into_iter().enumerate() {
            let picked = picked_cells[ci].picked;
            for (p, d) in pairs {
                dependent[p] = picked;
                delta[p] = d;
            }
        }

        // First phase for picked points: adopt a higher-density picked point
        // from a neighbouring cell when one exists.
        let first_phase: Vec<Option<(usize, f64)>> =
            executor.map_dynamic(picked_cells.len(), |ci| {
                let me = &picked_cells[ci];
                let mut best: Option<(usize, f64)> = None;
                for &c2 in &me.neighbors {
                    let other = &picked_cells[c2];
                    if other.rho > me.rho {
                        let d = dist(data.point(me.picked), data.point(other.picked));
                        if best.is_none_or(|(_, bd)| d < bd) {
                            best = Some((other.picked, d));
                        }
                    }
                }
                best
            });
        let mut residual: Vec<usize> = Vec::new(); // picked points of P'_pick
        for (me, found) in picked_cells.iter().zip(first_phase) {
            match found {
                Some((q, d)) => {
                    dependent[me.picked] = q;
                    delta[me.picked] = d;
                }
                None => residual.push(me.picked),
            }
        }

        // Second phase: the exact nearest denser picked point of each point
        // of P'_pick. The globally densest picked point finds nothing and
        // keeps δ = ∞.
        let mut picked_rho = vec![f64::NEG_INFINITY; n];
        for pc in &picked_cells {
            picked_rho[pc.picked] = pc.rho;
        }
        resolve_nearest_denser(
            &tree,
            data,
            &picked_rho,
            &residual,
            &executor,
            &mut dependent,
            &mut delta,
        );
        timings.delta_secs = start.elapsed().as_secs_f64();

        DpcModel::from_parts(self.name(), dcut, rho, delta, dependent, timings, index_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Thresholds;
    use crate::result::Clustering;
    use crate::{ApproxDpc, ExDpc};
    use dpc_data::generators::{gaussian_blobs, random_walk, uniform};

    #[test]
    fn dependents_point_to_strictly_higher_density() {
        let data = uniform(800, 2, 100.0, 5);
        let m = SApproxDpc::new(DpcParams::new(6.0)).with_epsilon(0.5).fit(&data).unwrap();
        for i in 0..data.len() {
            let dep = m.dependent()[i];
            if dep != i {
                assert!(m.rho()[dep] > m.rho()[i], "point {i} depends on a lower-density point");
            } else {
                assert!(m.delta()[i].is_infinite());
            }
        }
    }

    #[test]
    fn recovers_well_separated_blobs() {
        let centers = [(0.0, 0.0), (120.0, 0.0), (60.0, 120.0)];
        let data = gaussian_blobs(&centers, 300, 3.0, 13);
        let params = DpcParams::new(8.0);
        let thresholds = Thresholds::new(5.0, 40.0).unwrap();
        for eps in [0.2, 0.5, 1.0] {
            let c = SApproxDpc::new(params).with_epsilon(eps).run(&data, &thresholds).unwrap();
            assert_eq!(c.num_clusters(), 3, "ε = {eps}");
            for blob in 0..3 {
                let labels: Vec<i64> = (blob * 300..(blob + 1) * 300)
                    .map(|i| c.assignment[i])
                    .filter(|&l| l >= 0)
                    .collect();
                assert!(labels.windows(2).all(|w| w[0] == w[1]), "blob {blob} split (ε = {eps})");
            }
        }
    }

    #[test]
    fn smaller_epsilon_means_more_range_searches_and_better_agreement() {
        let data = random_walk(4_000, 6, 1e4, 9);
        let params = DpcParams::new(60.0);
        let thresholds = Thresholds::new(3.0, 200.0).unwrap();
        let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
        let fine = SApproxDpc::new(params).with_epsilon(0.2).run(&data, &thresholds).unwrap();
        let coarse = SApproxDpc::new(params).with_epsilon(1.0).run(&data, &thresholds).unwrap();
        let agreement = |c: &Clustering| {
            c.assignment.iter().zip(exact.assignment.iter()).filter(|(a, b)| a == b).count() as f64
                / data.len() as f64
        };
        // Pair-counting agreement is evaluated properly by dpc-eval's Rand
        // index; label agreement is a cruder proxy but monotonicity in ε and a
        // high floor are still expected here.
        assert!(agreement(&fine) >= agreement(&coarse) - 0.05);
        assert!(agreement(&fine) > 0.6, "fine agreement too low: {}", agreement(&fine));
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = random_walk(2_000, 4, 1e4, 3);
        let params = DpcParams::new(80.0);
        let thresholds = Thresholds::new(2.0, 300.0).unwrap();
        let seq = SApproxDpc::new(params.with_threads(1)).with_epsilon(0.6).fit(&data).unwrap();
        let par = SApproxDpc::new(params.with_threads(4)).with_epsilon(0.6).fit(&data).unwrap();
        assert_eq!(seq.rho(), par.rho());
        assert_eq!(seq.delta(), par.delta());
        assert_eq!(seq.dependent(), par.dependent());
        assert_eq!(seq.extract(&thresholds).assignment, par.extract(&thresholds).assignment);
    }

    #[test]
    fn approx_and_sapprox_select_similar_centres_on_clean_data() {
        let centers = [(0.0, 0.0), (200.0, 200.0)];
        let data = gaussian_blobs(&centers, 400, 5.0, 21);
        let params = DpcParams::new(10.0);
        let thresholds = Thresholds::new(5.0, 60.0).unwrap();
        let a = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
        let s = SApproxDpc::new(params).with_epsilon(0.4).run(&data, &thresholds).unwrap();
        assert_eq!(a.num_clusters(), 2);
        assert_eq!(s.num_clusters(), 2);
    }

    #[test]
    fn empty_single_and_degenerate_inputs() {
        let params = DpcParams::new(1.0);
        assert_eq!(
            SApproxDpc::new(params).fit(&Dataset::new(3)).unwrap_err(),
            DpcError::EmptyDataset
        );

        let thresholds = Thresholds::for_dcut(1.0);
        let single = Dataset::from_flat(3, vec![1.0, 2.0, 3.0]);
        let c = SApproxDpc::new(params).run(&single, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 1);

        // All points identical: one cell, one picked point, everything in one
        // cluster.
        let same = Dataset::from_flat(2, vec![5.0; 20]);
        let c = SApproxDpc::new(params).with_epsilon(0.5).run(&same, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 1);
        assert!(c.assignment.iter().all(|&l| l == 0));

        // ε and d_cut each valid, but the cell side ε·d_cut/√d overflows.
        let err = SApproxDpc::new(DpcParams::new(1e300))
            .with_epsilon(1e10)
            .fit(&uniform(20, 2, 10.0, 3))
            .unwrap_err();
        assert!(matches!(err, DpcError::InvalidParams { param: "epsilon", .. }), "{err:?}");
    }

    #[test]
    fn invalid_epsilon_is_an_error_not_a_panic() {
        let data = uniform(20, 2, 10.0, 1);
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err =
                SApproxDpc::new(DpcParams::new(1.0)).with_epsilon(bad).fit(&data).unwrap_err();
            assert!(
                matches!(err, DpcError::InvalidParams { param: "epsilon", .. }),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn exactly_one_infinite_delta_among_picked_points() {
        let data = uniform(500, 2, 80.0, 33);
        let m = SApproxDpc::new(DpcParams::new(5.0)).with_epsilon(0.8).fit(&data).unwrap();
        assert_eq!(m.delta().iter().filter(|d| d.is_infinite()).count(), 1);
    }
}
