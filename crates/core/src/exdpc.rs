//! Ex-DPC: the exact kd-tree based algorithm (§3).
//!
//! * **Local density** — one range count per point with radius `d_cut` against
//!   the packed static [`KdTree`] (Lemma 1: `O(n(n^{1-1/d} + ρ_avg))`). The
//!   counts come from one call, `dpc_index::batchq::count_grid_points`: the
//!   points of neighbouring grid cells share one traversal, the buckets fan
//!   out across the workers, and the answer is in point order. `fit` and
//!   `fit_keyed` run this one engine and differ only in the key each point's
//!   density jitter is drawn from.
//! * **Dependent points** — the exact nearest higher-density point of every
//!   point (Lemma 2). The paper destroys the tree and re-inserts the points
//!   one at a time in decreasing density order, so that a nearest-neighbour
//!   query sees exactly the denser points; that pass is inherently
//!   sequential. Here the ρ tree is kept instead, a per-node maximum of ρ is
//!   computed in one pass over its nodes, and every point asks
//!   [`KdTree::nearest_denser`] for the nearest point with a higher ρ,
//!   skipping every subtree with no denser point. The queries are independent,
//!   so they spread across the workers. δ is the re-insertion pass's, bit
//!   for bit (the same `dist` of the same coordinates), and so is every
//!   dependent except on an exact distance tie, where the lowest id wins
//!   instead of whichever candidate a tree's shape reached first.

use std::time::Instant;

use dpc_geometry::Dataset;
use dpc_index::batchq;
use dpc_index::{Grid, KdTree};
use dpc_parallel::Executor;

use crate::error::DpcError;
use crate::framework::{
    grid_side, jittered_density, jittered_density_keyed, resolve_nearest_denser, validate_dataset,
};
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;
use crate::DpcAlgorithm;

/// The exact DPC algorithm of §3.
#[derive(Clone, Copy, Debug)]
pub struct ExDpc {
    params: DpcParams,
}

impl ExDpc {
    /// Creates the algorithm with the given parameters (validated by `fit`).
    pub fn new(params: DpcParams) -> Self {
        Self { params }
    }

    /// The configured parameters.
    pub fn params(&self) -> &DpcParams {
        &self.params
    }

    /// Computes the jittered local density of every point (the `ρ` phase on
    /// its own). Exposed so benchmarks can time the phases separately
    /// (Table 6).
    ///
    /// This is the batched default: queries are clustered into grid cells
    /// (side `d_cut/√d`), and `dpc_index::batchq::count_grid_points` sends
    /// each cell bucket down the tree once, with the buckets fanned out
    /// across the configured worker threads. Results are bit-identical to
    /// [`ExDpc::local_densities_per_point`] at every thread count — batched
    /// counts equal single-query counts exactly, and the bucket order is
    /// fixed by the grid's CSR layout, which is itself thread-invariant.
    pub fn local_densities(&self, data: &Dataset, tree: &KdTree) -> Vec<f64> {
        let grid = self.query_grid(data, &Executor::new(self.params.threads));
        self.local_densities_with_grid(data, tree, &grid)
    }

    /// [`ExDpc::local_densities`] against a caller-built grid (cell side
    /// `d_cut/√d`). Splitting the grid construction out lets callers that
    /// already hold a grid — and benchmarks that account for index
    /// construction separately, as they do for the kd-tree — time or reuse
    /// the pure query phase.
    pub fn local_densities_with_grid(
        &self,
        data: &Dataset,
        tree: &KdTree,
        grid: &Grid,
    ) -> Vec<f64> {
        self.keyed_densities(data, tree, grid, |p| p as u64)
    }

    /// The grid whose cells group the ρ queries into buckets. Counts never
    /// depend on the cell side — the grid only decides which query balls
    /// share a traversal — so a side the grid cannot take (a degenerate
    /// `d_cut`, or `d_cut/√d` underflowing to zero) becomes the smallest
    /// positive normal float instead of a different code path.
    fn query_grid(&self, data: &Dataset, executor: &Executor) -> Grid {
        let dcut = self.params.dcut;
        let side = grid_side(dcut, data.dim(), "d_cut", dcut).unwrap_or(f64::MIN_POSITIVE);
        Grid::build_parallel(data, side, executor)
    }

    /// The batched ρ engine, jittering point `p` on `key(p)`.
    fn keyed_densities(
        &self,
        data: &Dataset,
        tree: &KdTree,
        grid: &Grid,
        key: impl Fn(usize) -> u64,
    ) -> Vec<f64> {
        debug_assert_eq!(grid.dim(), data.dim());
        let executor = Executor::new(self.params.threads);
        let counts =
            batchq::count_grid_points(&tree.packed_parts(), grid, self.params.dcut, &executor);
        let seed = self.params.jitter_seed;
        counts.iter().enumerate().map(|(p, &c)| jittered_density_keyed(c, key(p), seed)).collect()
    }

    /// The per-point reference ρ loop: one `range_count` traversal per point,
    /// dynamically scheduled. No fit runs it; it is the baseline the batched
    /// engine is pinned against (tests) and benchmarked against
    /// (`local_density` trajectory).
    pub fn local_densities_per_point(&self, data: &Dataset, tree: &KdTree) -> Vec<f64> {
        let executor = Executor::new(self.params.threads);
        let dcut = self.params.dcut;
        let seed = self.params.jitter_seed;
        executor.map_dynamic(data.len(), |i| {
            let count = tree.range_count(data.point(i), dcut, Some(i));
            jittered_density(count, i, seed)
        })
    }

    /// [`DpcAlgorithm::fit`] with the jitter keyed on caller-supplied stable
    /// ids instead of dataset indices (`keys[i]` jitters point `i`).
    ///
    /// This is the reference a [`StreamingDpc`](crate::StreamingDpc) state is
    /// compared against: the streaming engine jitters every ρ on the point's
    /// stable external id, so a fresh fit of the surviving window keyed on the
    /// same ids must reproduce the incrementally maintained ρ and δ exactly.
    /// With `keys = 0..n` this is identical to `fit` (same body, same jitter
    /// function).
    pub fn fit_keyed(&self, data: &Dataset, keys: &[u64]) -> Result<DpcModel, DpcError> {
        if keys.len() != data.len() {
            return Err(DpcError::InvalidParams {
                param: "jitter keys",
                value: keys.len() as f64,
                requirement: "one stable id per dataset point",
            });
        }
        self.fit_with_keys(data, |p| keys[p])
    }

    /// The one fit body behind [`DpcAlgorithm::fit`] (`key(p) = p`) and
    /// [`ExDpc::fit_keyed`] (`key(p) = keys[p]`).
    fn fit_with_keys(
        &self,
        data: &Dataset,
        key: impl Fn(usize) -> u64,
    ) -> Result<DpcModel, DpcError> {
        self.params.validate()?;
        validate_dataset(data)?;
        let mut timings = Timings::default();

        let start = Instant::now();
        let executor = Executor::new(self.params.threads);
        let tree = KdTree::build_parallel(data, &executor);
        let grid = self.query_grid(data, &executor);
        let rho = self.keyed_densities(data, &tree, &grid, key);
        timings.rho_secs = start.elapsed().as_secs_f64();
        let index_bytes = tree.mem_usage();

        let start = Instant::now();
        let (dependent, delta) = self.dependents_on(&tree, data, &rho);
        timings.delta_secs = start.elapsed().as_secs_f64();

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

    /// Computes dependent points and distances given the local densities (the
    /// `δ` phase on its own, on a kd-tree it builds for the call; `fit` reuses
    /// its ρ tree instead). Returns `(dependent, delta)`: `dependent[i]` is the
    /// nearest point with a higher ρ, the lowest id among equally near ones,
    /// and the densest point depends on itself with `δ = ∞`.
    pub fn dependent_points(&self, data: &Dataset, rho: &[f64]) -> (Vec<usize>, Vec<f64>) {
        let tree = KdTree::build_parallel(data, &Executor::new(self.params.threads));
        self.dependents_on(&tree, data, rho)
    }

    /// The δ phase on a kd-tree over `data`: one nearest-denser query per
    /// point, across the configured workers.
    fn dependents_on(&self, tree: &KdTree, data: &Dataset, rho: &[f64]) -> (Vec<usize>, Vec<f64>) {
        let n = data.len();
        let mut dependent: Vec<usize> = (0..n).collect();
        let mut delta = vec![f64::INFINITY; n];
        let executor = Executor::new(self.params.threads);
        let points: Vec<usize> = (0..n).collect();
        resolve_nearest_denser(tree, data, rho, &points, &executor, &mut dependent, &mut delta);
        (dependent, delta)
    }
}

impl DpcAlgorithm for ExDpc {
    fn name(&self) -> &'static str {
        "Ex-DPC"
    }

    fn fit(&self, data: &Dataset) -> Result<DpcModel, DpcError> {
        self.fit_with_keys(data, |p| p as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::Thresholds;
    use dpc_data::generators::{gaussian_blobs, uniform};
    use dpc_geometry::dist;

    /// Brute-force reference: exact ρ and δ per the definitions, jittering
    /// point `i` on `key(i)`.
    fn brute_force(
        data: &Dataset,
        params: &DpcParams,
        key: impl Fn(usize) -> u64,
    ) -> (Vec<f64>, Vec<f64>, Vec<usize>) {
        let n = data.len();
        let rho: Vec<f64> = (0..n)
            .map(|i| {
                let count = (0..n)
                    .filter(|&j| j != i && dist(data.point(i), data.point(j)) <= params.dcut)
                    .count();
                jittered_density_keyed(count, key(i), params.jitter_seed)
            })
            .collect();
        let mut delta = vec![f64::INFINITY; n];
        let mut dependent: Vec<usize> = (0..n).collect();
        for i in 0..n {
            for j in 0..n {
                if rho[j] > rho[i] {
                    let d = dist(data.point(i), data.point(j));
                    if d < delta[i] {
                        delta[i] = d;
                        dependent[i] = j;
                    }
                }
            }
        }
        (rho, delta, dependent)
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        let data = uniform(400, 2, 100.0, 3);
        let params = DpcParams::new(8.0);
        let model = ExDpc::new(params).fit(&data).unwrap();
        let (rho, delta, _) = brute_force(&data, &params, |i| i as u64);
        for i in 0..data.len() {
            assert!((model.rho()[i] - rho[i]).abs() < 1e-9, "ρ mismatch at {i}");
            if delta[i].is_finite() {
                assert!(
                    (model.delta()[i] - delta[i]).abs() < 1e-9,
                    "δ mismatch at {i}: {} vs {}",
                    model.delta()[i],
                    delta[i]
                );
            } else {
                assert!(model.delta()[i].is_infinite());
            }
        }
    }

    #[test]
    fn exactly_one_infinite_delta() {
        let data = uniform(300, 3, 50.0, 9);
        let model = ExDpc::new(DpcParams::new(5.0)).fit(&data).unwrap();
        let infinite = model.delta().iter().filter(|d| d.is_infinite()).count();
        assert_eq!(infinite, 1);
        // And it belongs to the globally densest point.
        let densest = (0..data.len())
            .max_by(|&a, &b| model.rho()[a].partial_cmp(&model.rho()[b]).unwrap())
            .unwrap();
        assert!(model.delta()[densest].is_infinite());
        assert_eq!(model.dependent()[densest], densest);
    }

    #[test]
    fn dependent_always_has_higher_density() {
        let data = gaussian_blobs(&[(0.0, 0.0), (60.0, 60.0)], 150, 3.0, 5);
        let model = ExDpc::new(DpcParams::new(4.0)).fit(&data).unwrap();
        for i in 0..data.len() {
            let dep = model.dependent()[i];
            if dep != i {
                assert!(model.rho()[dep] > model.rho()[i]);
                assert!((dist(data.point(i), data.point(dep)) - model.delta()[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn finds_well_separated_blobs() {
        let centers = [(0.0, 0.0), (100.0, 0.0), (50.0, 100.0)];
        let data = gaussian_blobs(&centers, 120, 2.5, 11);
        let thresholds = Thresholds::new(5.0, 30.0).unwrap();
        let clustering = ExDpc::new(DpcParams::new(6.0)).run(&data, &thresholds).unwrap();
        assert_eq!(clustering.num_clusters(), 3);
        // Points generated from the same blob must share a label (excluding the
        // rare noise point).
        for blob in 0..3 {
            let labels: Vec<i64> = (blob * 120..(blob + 1) * 120)
                .map(|i| clustering.assignment[i])
                .filter(|&l| l >= 0)
                .collect();
            assert!(!labels.is_empty());
            assert!(labels.windows(2).all(|w| w[0] == w[1]), "blob {blob} split across clusters");
        }
    }

    #[test]
    fn batched_rho_is_bit_identical_to_per_point_loop() {
        // The batched default ρ phase (grid buckets + joint traversals) must
        // reproduce the per-point reference loop bit for bit, at every thread
        // count — the model-level determinism contract of the batched engine.
        let sets = [
            uniform(700, 2, 100.0, 31),
            uniform(500, 3, 60.0, 32),
            uniform(240, 8, 30.0, 33),
            // Duplicates: 600 points in 4 locations.
            Dataset::from_flat(
                2,
                (0..600).flat_map(|i| [(i % 4) as f64 * 30.0, (i % 4) as f64 * 30.0]).collect(),
            ),
        ];
        for (s, data) in sets.iter().enumerate() {
            let params = DpcParams::new(8.0);
            for threads in [1usize, 2, 4, 8] {
                let exdpc = ExDpc::new(params.with_threads(threads));
                let tree = KdTree::build_parallel(data, &Executor::new(threads));
                let batched = exdpc.local_densities(data, &tree);
                let per_point = exdpc.local_densities_per_point(data, &tree);
                assert_eq!(batched.len(), per_point.len());
                for i in 0..batched.len() {
                    assert_eq!(
                        batched[i].to_bits(),
                        per_point[i].to_bits(),
                        "set {s}, threads {threads}, point {i}: {} vs {}",
                        batched[i],
                        per_point[i]
                    );
                }
            }
        }
    }

    #[test]
    fn degenerate_dcut_still_batches_on_a_valid_grid() {
        // Cutoffs `fit` rejects, and one whose 8-d cell side underflows to
        // zero, must still match the per-point loop.
        let data = uniform(240, 8, 30.0, 33);
        for dcut in [5e-324, f64::INFINITY, f64::NAN, -1.0] {
            for threads in [1usize, 4] {
                let exdpc = ExDpc::new(DpcParams::new(dcut).with_threads(threads));
                let tree = KdTree::build(&data);
                let batched = exdpc.local_densities(&data, &tree);
                let per_point = exdpc.local_densities_per_point(&data, &tree);
                assert_eq!(
                    batched.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                    per_point.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                    "d_cut {dcut}, threads {threads}"
                );
            }
        }
    }

    #[test]
    fn fit_keyed_with_identity_keys_matches_fit() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let sets = [
            uniform(500, 2, 100.0, 44),
            // Duplicates: 600 points in 4 locations, so every δ below the
            // top of a location is an exact-distance tie at 0.
            Dataset::from_flat(
                2,
                (0..600).flat_map(|i| [(i % 4) as f64 * 30.0, (i % 4) as f64 * 30.0]).collect(),
            ),
        ];
        let params = DpcParams::new(7.0);
        for (s, data) in sets.iter().enumerate() {
            let n = data.len();
            let keys: Vec<u64> = (0..n as u64).collect();
            // Shifted keys change every jitter (and thus potentially
            // tie-breaks); the keyed fit must still be exact.
            let shifted: Vec<u64> = (0..n as u64).map(|k| k + 1_000_000).collect();
            let (rho, delta, dependent) = brute_force(data, &params, |i| shifted[i]);
            for threads in [1usize, 4] {
                let ex = ExDpc::new(params.with_threads(threads));
                let plain = ex.fit(data).unwrap();
                let keyed = ex.fit_keyed(data, &keys).unwrap();
                assert!(plain.layout_eq(&keyed), "set {s}, threads {threads}");
                let other = ex.fit_keyed(data, &shifted).unwrap();
                assert_eq!(bits(other.rho()), bits(&rho), "set {s}, threads {threads}");
                assert_eq!(bits(other.delta()), bits(&delta), "set {s}, threads {threads}");
                // The tie rule: among equally near denser points (the
                // duplicates' δ = 0 ties) the lowest id is the dependent, as
                // in the brute-force scan.
                assert_eq!(other.dependent(), &dependent[..], "set {s}, threads {threads}");
                for i in 0..n {
                    assert_ne!(plain.rho()[i], other.rho()[i], "jitter must depend on the key");
                }
            }
        }
        let err = ExDpc::new(params).fit_keyed(&sets[0], &[0; 10]).unwrap_err();
        assert!(matches!(err, DpcError::InvalidParams { param: "jitter keys", .. }));
    }

    #[test]
    fn parallel_fit_is_identical_to_sequential() {
        let data = uniform(600, 2, 100.0, 21);
        let params = DpcParams::new(6.0);
        let thresholds = Thresholds::new(1.0, 15.0).unwrap();
        let seq = ExDpc::new(params.with_threads(1)).fit(&data).unwrap();
        let par = ExDpc::new(params.with_threads(4)).fit(&data).unwrap();
        assert_eq!(seq.rho(), par.rho());
        assert_eq!(seq.delta(), par.delta());
        let (seq, par) = (seq.extract(&thresholds), par.extract(&thresholds));
        assert_eq!(seq.assignment, par.assignment);
        assert_eq!(seq.centers, par.centers);
    }

    #[test]
    fn empty_dataset_is_an_error_and_single_point_fits() {
        let params = DpcParams::new(1.0);
        let empty = Dataset::new(2);
        assert_eq!(ExDpc::new(params).fit(&empty).unwrap_err(), DpcError::EmptyDataset);
        assert!(ExDpc::new(params).local_densities(&empty, &KdTree::build(&empty)).is_empty());

        let single = Dataset::from_flat(2, vec![3.0, 4.0]);
        let model = ExDpc::new(params).fit(&single).unwrap();
        assert_eq!(model.len(), 1);
        assert!(model.delta()[0].is_infinite());
        let c = model.extract(&Thresholds::for_dcut(1.0));
        assert_eq!(c.num_clusters(), 1);
    }

    #[test]
    fn invalid_dcut_is_an_error() {
        let data = uniform(10, 2, 1.0, 1);
        let err = ExDpc::new(DpcParams::new(-1.0)).fit(&data).unwrap_err();
        assert!(matches!(err, DpcError::InvalidParams { param: "d_cut", .. }), "{err:?}");
    }

    #[test]
    fn identical_points_do_not_break_tie_handling() {
        let data = Dataset::from_flat(2, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let model = ExDpc::new(DpcParams::new(0.5)).fit(&data).unwrap();
        // All densities distinct thanks to the jitter, exactly one ∞ δ, all
        // other points have δ = 0 (their dependent point coincides).
        assert_eq!(model.delta().iter().filter(|d| d.is_infinite()).count(), 1);
        assert_eq!(model.delta().iter().filter(|d| **d == 0.0).count(), 3);
        let clustering = model.extract(&Thresholds::for_dcut(0.5));
        assert_eq!(clustering.num_clusters(), 1);
        assert!(clustering.assignment.iter().all(|&l| l == 0));
    }

    #[test]
    fn timings_and_index_bytes_are_populated() {
        let data = uniform(200, 2, 10.0, 2);
        let model = ExDpc::new(DpcParams::new(1.0)).fit(&data).unwrap();
        assert!(model.fit_timings().rho_secs >= 0.0);
        assert!(model.fit_timings().delta_secs >= 0.0);
        assert!(model.index_bytes() > 0);
        let clustering = model.extract(&Thresholds::for_dcut(1.0));
        assert!(clustering.timings.assign_secs >= 0.0);
        assert_eq!(clustering.index_bytes, model.index_bytes());
    }
}
