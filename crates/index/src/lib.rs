//! Spatial indexes used by the fast-dpc algorithms.
//!
//! * [`KdTree`] — the workhorse of Ex-DPC / Approx-DPC / S-Approx-DPC: a
//!   **packed, static, leaf-bucketed** kd-tree (contiguous permuted ids and
//!   coordinates, flat preorder nodes carrying subtree counts and bounding
//!   boxes). Range counting gets three-way pruning — a subtree whose box lies
//!   entirely inside the query ball contributes its size without visiting a
//!   point — and all query paths are allocation-free. Construction fans out
//!   across worker threads ([`KdTree::build_parallel`]) with a bit-identical
//!   result at every thread count. Its `nearest_denser` query answers every
//!   δ search. See the module docs of [`kdtree`] for the layout.
//! * [`IncrementalKdTree`] — the one-point-per-node arena tree supporting
//!   **insertion and deletion**, kept alive across a stream by the streaming
//!   engine. Also retains the seed's bulk construction so benches and
//!   property tests can compare the packed tree against the original layout.
//! * [`RTree`] — an STR bulk-loaded R-tree used by the `R-tree + Scan` baseline
//!   of the paper's evaluation (Table 6).
//! * [`Grid`] — the uniform grid with cell side `d_cut/√d` (Approx-DPC) or
//!   `ε·d_cut/√d` (S-Approx-DPC). Cells are created online, only for occupied
//!   regions, exactly as §4.1 describes. Construction shards across worker
//!   threads ([`Grid::build_parallel`]) with a byte-for-byte identical CSR
//!   layout at every thread count (the [`Grid::layout_eq`] contract).
//! * [`batchq`] — batched range queries over the packed tree: a bucket of
//!   query balls (typically one grid cell's points, via
//!   [`Grid::query_buckets`]) descends the tree **once**, pruning with the
//!   bucket's joint bounding box and feeding each leaf's contiguous rows to
//!   the SIMD batch kernels per still-active query. Two grid-wide functions run
//!   it over a whole grid across an executor — `count_grid_points` (one count
//!   per point) and `search_grid_cells` (one search per cell) — and answer in
//!   point or cell order. Every result is bit-identical to the corresponding
//!   single-query call — see the module's determinism contract.

#![forbid(unsafe_code)]

pub mod batchq;
pub mod grid;
pub mod incremental;
pub mod kdtree;
pub mod rtree;

pub use batchq::{BatchRangeCount, BatchRangeSearch};
pub use grid::{CellId, Grid, QueryBuckets};
pub use incremental::IncrementalKdTree;
pub use kdtree::{canonical_node_layout, packed_node_count, KdTree, PackedNode, PackedParts};
pub use rtree::RTree;

/// Brute-force reference implementations shared by the kd-tree test modules.
#[cfg(test)]
pub(crate) mod test_util {
    use dpc_geometry::{dist, Dataset};
    use dpc_rng::StdRng;

    /// A deterministic dataset of `n` uniform points in `[0, 100)^dim`.
    pub fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..100.0)).collect();
        Dataset::from_flat(dim, coords)
    }

    /// `O(n)` reference range count (closed ball) with optional exclusion.
    pub fn brute_range_count(ds: &Dataset, q: &[f64], r: f64, exclude: Option<usize>) -> usize {
        ds.iter().filter(|(id, p)| Some(*id) != exclude && dist(q, p) <= r).count()
    }

    /// `O(n)` reference nearest neighbour with optional exclusion.
    pub fn brute_nn(ds: &Dataset, q: &[f64], exclude: Option<usize>) -> Option<(usize, f64)> {
        ds.iter()
            .filter(|(id, _)| Some(*id) != exclude)
            .map(|(id, p)| (id, dist(q, p)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
    }
}
