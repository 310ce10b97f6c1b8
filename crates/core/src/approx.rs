//! Approx-DPC: grid-accelerated DPC with exact densities, approximate
//! dependent points, and full parallelisability (§4).
//!
//! Compared with Ex-DPC it changes two things:
//!
//! * **Joint range search** (§4.2) — points in the same grid cell (side
//!   `d_cut/√d`) have heavily overlapping query balls, so one kd-tree range
//!   search per *cell* (query = cell centre `cp_i`, radius
//!   `d_cut + dist(cp_i, p′)`) returns a superset of every per-point ball in
//!   the cell; exact densities are then computed by scanning that superset.
//!   The per-cell searches are one `dpc_index::batchq::search_grid_cells`
//!   call: neighbouring cells share one tree descent, the buckets fan out
//!   across the workers, and the supersets come back in cell order. A
//!   `d_cut` whose cell side underflows to zero is an `InvalidParams` error.
//!   The superset's coordinates are gathered into contiguous rows once per
//!   cell, so the per-member scans run on the batched (optionally SIMD)
//!   `dpc_geometry::batch` kernels with the shared closed-ball semantics.
//! * **Cell-based dependent-point approximation** (§4.3) — a point that is not
//!   the densest of its cell takes the cell's densest point `p*(c)` as its
//!   approximate dependent point (distance at most `d_cut`); the cell's densest
//!   point looks for a neighbouring cell whose minimum density is higher.
//!   Points for which neither rule applies (`P'`) get their **exact** dependent
//!   point through a density-ordered partition of `P` into `s` subsets with one
//!   kd-tree each — which is what preserves the cluster centres of Ex-DPC
//!   (Theorem 4).
//!
//! Both phases are parallelised with cost-based (LPT) partitioning, using the
//! cost models of §4.5.

use std::time::Instant;

use dpc_geometry::{batch, dist, Dataset};
use dpc_index::batchq;
use dpc_index::{Grid, KdTree};
use dpc_parallel::Executor;

use crate::error::DpcError;
use crate::framework::{ascending_density_order, grid_side, jittered_density, validate_dataset};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;
use crate::DpcAlgorithm;

/// Per-cell metadata produced by the local-density phase (§4.1).
struct CellMeta {
    /// The cell's densest point `p*(c)`.
    p_star: usize,
    /// The minimum (jittered) density among the cell's points.
    min_rho: f64,
    /// Cells containing a point `p ∉ P(c)` with `dist(p*(c), p) ≤ d_cut`.
    neighbors: Vec<usize>,
}

/// The Approx-DPC algorithm of §4.
#[derive(Clone, Copy, Debug)]
pub struct ApproxDpc {
    params: DpcParams,
}

impl ApproxDpc {
    /// Creates the algorithm with the given parameters (validated by `fit`).
    pub fn new(params: DpcParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &DpcParams {
        &self.params
    }

    /// Chooses the number `s` of density-ordered subsets used by the exact
    /// dependent-point fallback. Equation (2) balances one full-subset scan
    /// against `s − 1` per-subset nearest-neighbour searches, which gives
    /// `s ≈ n^{1/(d+1)}`.
    fn subset_count(n: usize, dim: usize) -> usize {
        if n < 4 {
            return 1;
        }
        let s = (n as f64).powf(1.0 / (dim as f64 + 1.0)).round() as usize;
        s.clamp(2, n)
    }

    /// Local-density phase: joint range searches, exact densities, and per-cell
    /// metadata on a grid of cell side `side`. Returns
    /// `(rho, grid, cell_meta, kd_tree_bytes)`.
    fn densities(
        &self,
        data: &Dataset,
        executor: &Executor,
        side: f64,
    ) -> (Vec<f64>, Grid, Vec<CellMeta>, usize) {
        let dcut = self.params.dcut;
        let seed = self.params.jitter_seed;
        let tree = KdTree::build_parallel(data, executor);
        // Bit-identical to the serial build at every thread count, so the
        // whole fit stays deterministic across --threads.
        let grid = Grid::build_parallel(data, side, executor);

        // Phase 1: one range search per cell (query = cell centre, radius
        // d_cut + the farthest member). Adjacent cells share one joint tree
        // descent, and each id list is bit-identical to a per-cell
        // `range_search`.
        let supersets =
            batchq::search_grid_cells(&tree.packed_parts(), &grid, executor, |cell, row| {
                let center = grid.center(cell);
                let radius_extra = grid
                    .points(cell)
                    .iter()
                    .map(|&p| dist(&center, data.point(p)))
                    .fold(0.0f64, f64::max);
                row.extend_from_slice(&center);
                dcut + radius_extra
            });

        // Phase 2: exact densities + cell metadata, partitioned by
        // cost_scan = |P(c)| · |R(cp, ·)|.
        let cost_scan: Vec<f64> = supersets
            .iter()
            .enumerate()
            .map(|(cell, superset)| (grid.points(cell).len() * superset.len().max(1)) as f64)
            .collect();
        let dcut_sq = dcut * dcut;
        let dim = data.dim();
        let (cell_results, _) = executor.map_partitioned(&cost_scan, |cell| {
            let members = grid.points(cell);
            let superset = &supersets[cell];
            // Gather the superset's coordinates into contiguous rows once:
            // every member of the cell scans the same superset, so the gather
            // amortises over |P(c)| batched closed-ball scans.
            let mut rows: Vec<f64> = Vec::with_capacity(superset.len() * dim);
            for &q in superset {
                rows.extend_from_slice(data.point(q));
            }
            let mut densities = Vec::with_capacity(members.len());
            let mut p_star = members[0];
            let mut best_rho = f64::NEG_INFINITY;
            let mut min_rho = f64::INFINITY;
            for &p in members {
                let pc = data.point(p);
                // The superset always contains p itself (its ball covers the
                // cell) and dist(p, p) = 0 always matches, so subtracting one
                // yields the Definition 1 count over `P \ {p}`.
                let count = batch::count_within(pc, &rows, dim, dcut_sq) - 1;
                let rho = jittered_density(count, p, seed);
                if rho > best_rho {
                    best_rho = rho;
                    p_star = p;
                }
                if rho < min_rho {
                    min_rho = rho;
                }
                densities.push((p, rho));
            }
            // N(c): cells of superset points within d_cut of p*(c) that are not
            // this cell.
            let star_coords = data.point(p_star);
            let mut hits: Vec<usize> = Vec::new();
            batch::search_within_into(star_coords, &rows, dim, dcut_sq, &mut hits);
            let mut neighbors: Vec<usize> = hits
                .into_iter()
                .map(|k| grid.cell_of(superset[k]))
                .filter(|&c2| c2 != cell)
                .collect();
            neighbors.sort_unstable();
            neighbors.dedup();
            (densities, CellMeta { p_star, min_rho, neighbors })
        });

        let mut rho = vec![0.0f64; data.len()];
        let mut metas: Vec<CellMeta> = Vec::with_capacity(grid.num_cells());
        for (densities, meta) in cell_results {
            for (p, r) in densities {
                rho[p] = r;
            }
            metas.push(meta);
        }
        (rho, grid, metas, tree.mem_usage())
    }

    /// Dependent-point phase (§4.3): the O(1) cell-based approximation plus the
    /// exact computation for the residual set `P'`. Returns
    /// `(dependent, delta, subset_tree_bytes)`.
    fn dependents(
        &self,
        data: &Dataset,
        executor: &Executor,
        rho: &[f64],
        grid: &Grid,
        metas: &[CellMeta],
    ) -> (Vec<usize>, Vec<f64>, usize) {
        let n = data.len();
        let dcut = self.params.dcut;
        let mut dependent: Vec<usize> = (0..n).collect();
        let mut delta = vec![f64::INFINITY; n];
        if n == 0 {
            return (dependent, delta, 0);
        }

        // Approximate rules — O(1) per point, evaluated in parallel.
        let approx: Vec<Option<usize>> = executor.map_dynamic(n, |p| {
            let cell = grid.cell_of(p);
            let meta = &metas[cell];
            if p != meta.p_star {
                return Some(meta.p_star);
            }
            // p is its cell's densest point: look for a neighbouring cell whose
            // minimum density exceeds ρ_p.
            metas[cell]
                .neighbors
                .iter()
                .find(|&&c2| metas[c2].min_rho > rho[p])
                .map(|&c2| metas[c2].p_star)
        });
        let mut residual: Vec<usize> = Vec::new();
        for (p, dep) in approx.into_iter().enumerate() {
            match dep {
                Some(q) => {
                    debug_assert!(rho[q] > rho[p]);
                    dependent[p] = q;
                    delta[p] = dcut;
                }
                None => residual.push(p),
            }
        }

        // Exact computation for P' (§4.3, "Exact computation").
        let order = ascending_density_order(rho);
        let mut rank = vec![0usize; n];
        for (r, &p) in order.iter().enumerate() {
            rank[p] = r;
        }
        let s = Self::subset_count(n, data.dim());
        let subset_size = n.div_ceil(s);
        let subsets: Vec<&[usize]> = order.chunks(subset_size).collect();
        let subset_trees: Vec<KdTree> =
            executor.map_dynamic(subsets.len(), |j| KdTree::build_subset(data, subsets[j]));
        let subset_bytes: usize = subset_trees.iter().map(|t| t.mem_usage()).sum();

        // Cost model of §4.5 for the residual points.
        let per_subset = subset_size as f64;
        let nn_cost = per_subset.powf(1.0 - 1.0 / data.dim() as f64);
        let costs: Vec<f64> = residual
            .iter()
            .map(|&p| {
                let j = rank[p] / subset_size;
                let higher_subsets = (subsets.len() - j).saturating_sub(1) as f64;
                let has_case_two = rank[p] % subset_size != subset_size - 1;
                if has_case_two {
                    per_subset + higher_subsets * nn_cost
                } else {
                    (higher_subsets + 1.0) * nn_cost
                }
            })
            .collect();

        let (exact, _) = executor.map_partitioned(&costs, |ri| {
            let p = residual[ri];
            let pc = data.point(p);
            let my_rank = rank[p];
            let my_subset = my_rank / subset_size;
            let mut best: Option<(usize, f64)> = None;
            // Case (ii): the subset containing p may mix higher and lower
            // densities — scan only the higher-density part.
            for &q in subsets[my_subset] {
                if rank[q] > my_rank {
                    let d = dist(pc, data.point(q));
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((q, d));
                    }
                }
            }
            // Case (i): every subset above contains only higher densities — one
            // nearest-neighbour search each.
            for (j, tree) in subset_trees.iter().enumerate().skip(my_subset + 1) {
                debug_assert!(j > my_subset);
                if let Some((q, d)) = tree.nearest_neighbor(pc, None) {
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((q, d));
                    }
                }
            }
            best
        });
        for (ri, found) in exact.into_iter().enumerate() {
            let p = residual[ri];
            if let Some((q, d)) = found {
                debug_assert!(rho[q] > rho[p]);
                dependent[p] = q;
                delta[p] = d;
            }
            // else: p is the globally densest point → keeps δ = ∞, q = itself.
        }
        (dependent, delta, subset_bytes)
    }
}

impl DpcAlgorithm for ApproxDpc {
    fn name(&self) -> &'static str {
        "Approx-DPC"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        validate_dataset(data)?;
        let executor = Executor::new(self.params.threads);
        let mut timings = Timings::default();

        let start = Instant::now();
        let side = grid_side(self.params.dcut, data.dim(), "d_cut", self.params.dcut)?;
        let (rho, grid, metas, tree_bytes) = self.densities(data, &executor, side);
        timings.rho_secs = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (dependent, delta, subset_bytes) =
            self.dependents(data, &executor, &rho, &grid, &metas);
        timings.delta_secs = start.elapsed().as_secs_f64();

        let index_bytes = tree_bytes + grid.mem_usage() + subset_bytes;
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
    use crate::params::Thresholds;
    use crate::ExDpc;
    use dpc_data::generators::{gaussian_blobs, random_walk, uniform};

    #[test]
    fn densities_are_exact() {
        // Approx-DPC computes exact local densities (required by Theorem 4).
        let data = uniform(500, 2, 100.0, 17);
        let params = DpcParams::new(7.0);
        let approx = ApproxDpc::new(params).fit(&data).unwrap();
        let exact = ExDpc::new(params).fit(&data).unwrap();
        assert_eq!(approx.rho(), exact.rho());
    }

    #[test]
    fn batched_supersets_leave_rho_bitwise_unchanged() {
        // The batched phase-1 searches must leave the model's densities
        // bitwise equal to the definitional per-point range counts, at every
        // thread count.
        let data = uniform(600, 2, 100.0, 47);
        let params = DpcParams::new(7.0);
        let tree = KdTree::build(&data);
        for threads in [1usize, 2, 4, 8] {
            let p = params.with_threads(threads);
            let model = ApproxDpc::new(p).fit(&data).unwrap();
            for i in 0..data.len() {
                let expected = jittered_density(
                    tree.range_count(data.point(i), p.dcut, Some(i)),
                    i,
                    p.jitter_seed,
                );
                assert_eq!(
                    model.rho()[i].to_bits(),
                    expected.to_bits(),
                    "point {i}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn same_cluster_centers_as_exdpc() {
        // Theorem 4: identical ρ_min / δ_min ⇒ identical centres.
        for seed in [1u64, 2, 3] {
            let data = random_walk(4_000, 6, 1e4, seed);
            let params = DpcParams::new(60.0);
            let thresholds = Thresholds::new(4.0, 200.0).unwrap();
            let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
            let approx = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
            assert_eq!(exact.centers, approx.centers, "seed {seed}");
        }
    }

    #[test]
    fn delta_is_exact_for_points_with_delta_above_dcut() {
        let data = uniform(400, 2, 100.0, 23);
        let params = DpcParams::new(5.0);
        let exact = ExDpc::new(params).fit(&data).unwrap();
        let approx = ApproxDpc::new(params).fit(&data).unwrap();
        for i in 0..data.len() {
            if exact.delta()[i] > params.dcut {
                assert!(
                    (exact.delta()[i] - approx.delta()[i]).abs() < 1e-9
                        || (exact.delta()[i].is_infinite() && approx.delta()[i].is_infinite()),
                    "point {i}: exact δ {} vs approx δ {}",
                    exact.delta()[i],
                    approx.delta()[i]
                );
            } else {
                // Approximated points report δ = d_cut, never more than the truth
                // by construction of the rules (a close higher-density point exists).
                assert!(approx.delta()[i] <= params.dcut + 1e-9);
            }
        }
    }

    #[test]
    fn dependent_points_always_have_higher_density() {
        let data = gaussian_blobs(&[(0.0, 0.0), (80.0, 80.0)], 200, 4.0, 31);
        let model = ApproxDpc::new(DpcParams::new(5.0)).fit(&data).unwrap();
        for i in 0..data.len() {
            let dep = model.dependent()[i];
            if dep != i {
                assert!(model.rho()[dep] > model.rho()[i]);
            } else {
                assert!(model.delta()[i].is_infinite());
            }
        }
    }

    #[test]
    fn high_agreement_with_exdpc_on_blobs() {
        let centers = [(0.0, 0.0), (100.0, 0.0), (0.0, 100.0), (100.0, 100.0)];
        let data = gaussian_blobs(&centers, 250, 3.0, 7);
        let params = DpcParams::new(6.0);
        let thresholds = Thresholds::new(5.0, 40.0).unwrap();
        let exact = ExDpc::new(params).run(&data, &thresholds).unwrap();
        let approx = ApproxDpc::new(params).run(&data, &thresholds).unwrap();
        assert_eq!(exact.num_clusters(), 4);
        assert_eq!(approx.num_clusters(), 4);
        let agree =
            exact.assignment.iter().zip(approx.assignment.iter()).filter(|(a, b)| a == b).count();
        assert!(agree as f64 / data.len() as f64 > 0.98, "agreement {agree}/{}", data.len());
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = random_walk(3_000, 5, 1e4, 4);
        let params = DpcParams::new(80.0);
        let thresholds = Thresholds::new(3.0, 300.0).unwrap();
        let seq = ApproxDpc::new(params.with_threads(1)).fit(&data).unwrap();
        let par = ApproxDpc::new(params.with_threads(4)).fit(&data).unwrap();
        assert_eq!(seq.rho(), par.rho());
        assert_eq!(seq.delta(), par.delta());
        assert_eq!(seq.dependent(), par.dependent());
        assert_eq!(seq.extract(&thresholds).assignment, par.extract(&thresholds).assignment);
    }

    #[test]
    fn empty_single_and_tiny_inputs() {
        let params = DpcParams::new(1.0);
        assert_eq!(
            ApproxDpc::new(params).fit(&Dataset::new(2)).unwrap_err(),
            DpcError::EmptyDataset
        );

        let thresholds = Thresholds::for_dcut(1.0);
        let single = Dataset::from_flat(2, vec![1.0, 2.0]);
        let c = ApproxDpc::new(params).run(&single, &thresholds).unwrap();
        assert_eq!(c.num_clusters(), 1);

        let two = Dataset::from_flat(2, vec![0.0, 0.0, 10.0, 10.0]);
        let c = ApproxDpc::new(params).run(&two, &thresholds).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.num_clusters(), 2); // both isolated → both centres

        // A valid d_cut whose 4-d cell side d_cut/2 underflows to zero.
        let four_d = uniform(20, 4, 10.0, 3);
        let err = ApproxDpc::new(DpcParams::new(5e-324)).fit(&four_d).unwrap_err();
        assert!(matches!(err, DpcError::InvalidParams { param: "d_cut", .. }), "{err:?}");
    }

    #[test]
    fn subset_count_grows_slowly_with_n() {
        assert_eq!(ApproxDpc::subset_count(1, 2), 1);
        assert!(ApproxDpc::subset_count(1_000, 2) >= 2);
        assert!(ApproxDpc::subset_count(1_000_000, 2) >= ApproxDpc::subset_count(1_000, 2));
        assert!(ApproxDpc::subset_count(1_000_000, 2) < 1_000);
    }

    #[test]
    fn index_bytes_accounts_for_grid_and_trees() {
        let data = uniform(500, 2, 50.0, 8);
        let approx = ApproxDpc::new(DpcParams::new(3.0)).fit(&data).unwrap();
        let exact = ExDpc::new(DpcParams::new(3.0)).fit(&data).unwrap();
        assert!(approx.index_bytes() > exact.index_bytes());
    }
}
