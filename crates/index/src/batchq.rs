//! Batched range queries over a packed kd-tree.
//!
//! The ρ phase of every DPC variant issues one range query per point (or per
//! grid cell), and spatially adjacent queries share almost their entire
//! traversal: the upper levels of the tree are identical, and nearby leaves
//! are visited by most of the bucket. [`BatchRangeCount`] and
//! [`BatchRangeSearch`] exploit that by descending the tree **once per
//! bucket** of query balls:
//!
//! - at every node, a joint test against the bucket's bounding box (plus the
//!   largest radius) prunes the whole bucket in `O(d)` before any per-query
//!   work, and a joint containment test (against the smallest radius) resolves
//!   the whole bucket as fully-inside;
//! - queries that survive the joint tests are filtered with exactly the
//!   per-query min/max-distance tests of the single-query traversal, so each
//!   query only pays for the nodes it would have visited on its own;
//! - each leaf's contiguous coordinate rows are handed to the
//!   [`dpc_geometry::batch`] kernels once per still-active query — the row
//!   block stays cache-hot across the bucket instead of being re-fetched by
//!   `n` independent traversals.
//!
//! The fits call two grid-wide functions, not the engines:
//! [`count_grid_points`] (one count per point, Ex-DPC's ρ) and
//! [`search_grid_cells`] (one search per cell, Approx-DPC and S-Approx-DPC).
//! Both form the grid's query buckets, fan them out over an [`Executor`], and
//! answer in point or cell order.
//!
//! # Determinism contract
//!
//! Every query's result is **bit-identical** to the corresponding single-query
//! call — [`PackedParts::range_count`](crate::kdtree::PackedParts::range_count)
//! for counts, [`PackedParts::range_search_into`][rsi] (same ids, same order)
//! for searches — regardless of how queries are grouped into buckets. Counts
//! are integer sums over the same node set; searches preserve order because
//! the batched recursion visits children right-subtree-first, mirroring the
//! single-query stack discipline, and emits fully-inside runs and leaf hits at
//! the same traversal points. Consumers may therefore re-bucket, chunk, or
//! parallelize freely without perturbing results.
//!
//! [rsi]: crate::kdtree::PackedParts::range_search_into

use dpc_geometry::batch;
use dpc_geometry::distance::{dist_sq, max_dist_sq_to_rect, min_dist_sq_to_rect};
use dpc_parallel::Executor;

use crate::grid::{CellId, Grid};
use crate::kdtree::{PackedParts, NONE};

/// Sentinel for "no exclusion" in a [`BatchRangeCount`] exclusion slice
/// (same encoding as the packed tree's internal `NO_CHILD`).
pub const NO_EXCLUDE: u32 = NONE;

/// Subtree spans at or below this many points are counted as one contiguous
/// SIMD row-block per still-active query instead of being descended further
/// (a "virtual leaf"). Counting is order-independent — the block scan finds
/// exactly the points the remaining descent would have found — so this only
/// trades tree bookkeeping for wide distance evaluation; the search path
/// keeps descending to real leaves because its output order is part of the
/// determinism contract. 256 rows ≈ one `d_cut` ball at the densities the ρ
/// phase sees, past the point where per-node pruning can retire enough of
/// the block to beat scanning it.
const VIRTUAL_LEAF_SPAN: usize = 256;

/// Squared minimum distance between the rects `[qlo, qhi]` and `[lo, hi]`.
///
/// A lower bound on `min_dist_sq_to_rect(q, lo, hi)` for every point `q`
/// inside `[qlo, qhi]`, so a joint prune implies every individual query would
/// have pruned.
#[inline]
fn min_dist_sq_rect_rect(qlo: &[f64], qhi: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for a in 0..qlo.len() {
        let d = (lo[a] - qhi[a]).max(qlo[a] - hi[a]).max(0.0);
        acc += d * d;
    }
    acc
}

/// Squared maximum distance between the rects `[qlo, qhi]` and `[lo, hi]`.
///
/// An upper bound on `max_dist_sq_to_rect(q, lo, hi)` for every point `q`
/// inside `[qlo, qhi]`, so a joint containment implies every individual query
/// covers the node.
#[inline]
fn max_dist_sq_rect_rect(qlo: &[f64], qhi: &[f64], lo: &[f64], hi: &[f64]) -> f64 {
    let mut acc = 0.0;
    for a in 0..qlo.len() {
        // Both rects are non-empty, so the max of the two spans is ≥ 0.
        let d = (hi[a] - qlo[a]).max(qhi[a] - lo[a]);
        acc += d * d;
    }
    acc
}

/// Shared scratch for one batched traversal: the bucket's joint bounding box,
/// per-query squared radii, and a pool of recycled active-query lists (one
/// live list per recursion level, depth ≤ the tree's `STACK_CAP` bound).
#[derive(Debug, Default)]
struct Scratch {
    qlo: Vec<f64>,
    qhi: Vec<f64>,
    r_sq: Vec<f64>,
    pool: Vec<Vec<u32>>,
    /// Root active set + joint bounds; `None` when no query can match anything.
    r_max_sq: f64,
    r_min_sq: f64,
    /// `r_max_sq.sqrt()` — the inflation margin of the enclosure shortcut.
    r_max: f64,
}

impl Scratch {
    /// Validates the bucket, fills `r_sq`, the joint bbox, and the root active
    /// list. Queries with NaN or negative radius are left out of the active
    /// set (their result is 0 / empty, matching the single-query calls).
    fn prepare(&mut self, dim: usize, queries: &[f64], radii: &[f64]) -> Vec<u32> {
        assert!(dim > 0, "batched query on a zero-dimensional tree");
        assert_eq!(
            queries.len(),
            radii.len() * dim,
            "query rows/radii length mismatch (rows = {}, k = {}, dim = {})",
            queries.len(),
            radii.len(),
            dim
        );
        let k = radii.len();
        self.r_sq.clear();
        self.r_sq.extend(radii.iter().map(|r| r * r));
        self.qlo.clear();
        self.qlo.resize(dim, f64::INFINITY);
        self.qhi.clear();
        self.qhi.resize(dim, f64::NEG_INFINITY);
        self.r_max_sq = f64::NEG_INFINITY;
        self.r_min_sq = f64::INFINITY;
        let mut active = self.pool.pop().unwrap_or_default();
        active.clear();
        for q in 0..k {
            // Same admission rule as the single-query traversals: a NaN or
            // negative radius matches nothing.
            if radii[q].is_nan() || radii[q] < 0.0 {
                continue;
            }
            active.push(q as u32);
            let row = &queries[q * dim..(q + 1) * dim];
            for (a, &coord) in row.iter().enumerate() {
                self.qlo[a] = self.qlo[a].min(coord);
                self.qhi[a] = self.qhi[a].max(coord);
            }
            self.r_max_sq = self.r_max_sq.max(self.r_sq[q]);
            self.r_min_sq = self.r_min_sq.min(self.r_sq[q]);
        }
        self.r_max = if active.is_empty() { 0.0 } else { self.r_max_sq.sqrt() };
        active
    }

    /// Whether the node rect `[lo, hi]` encloses every active query ball
    /// (the joint bbox inflated by the largest radius). Inside such a node a
    /// per-query test can neither prune (each query sits in the rect, min
    /// distance 0) nor cover it (the rect extends ≥ r past each query), so
    /// the recursion may descend with the active set unchanged.
    #[inline]
    fn encloses(&self, lo: &[f64], hi: &[f64]) -> bool {
        for a in 0..lo.len() {
            if lo[a] > self.qlo[a] - self.r_max || hi[a] < self.qhi[a] + self.r_max {
                return false;
            }
        }
        true
    }
}

/// Batched range **counting** with per-query exclusion ids.
///
/// Reusable across buckets: the internal scratch (joint bbox, radius table,
/// active-list pool) is recycled, so a long-lived instance per worker thread
/// performs no steady-state allocation.
#[derive(Debug, Default)]
pub struct BatchRangeCount {
    scratch: Scratch,
}

impl BatchRangeCount {
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts, for each of the `k` query balls, the points of `parts` within
    /// its (closed) radius. `queries` is `k` row-major rows of `parts.dim()`
    /// coordinates; `radii` has length `k`. `exclude` is either empty (no
    /// exclusions) or length `k`, with [`NO_EXCLUDE`] meaning "count
    /// everything" and any other value naming one point id to leave out
    /// (mirroring the `exclude` argument of `range_count`).
    ///
    /// `counts` is cleared and filled with `k` entries, each bit-identical to
    /// `parts.range_count(row, radius, exclude)`.
    pub fn run(
        &mut self,
        parts: &PackedParts<'_>,
        queries: &[f64],
        radii: &[f64],
        exclude: &[u32],
        counts: &mut Vec<usize>,
    ) {
        let k = radii.len();
        assert!(
            exclude.is_empty() || exclude.len() == k,
            "exclusion slice must be empty or one id per query"
        );
        counts.clear();
        counts.resize(k, 0);
        let active = self.scratch.prepare(parts.dim, queries, radii);
        if !active.is_empty() && !parts.nodes.is_empty() {
            let ctx = CountCtx { parts, queries, exclude, dim: parts.dim };
            count_rec(&ctx, 0, &active, &mut self.scratch, counts);
        }
        self.scratch.pool.push(active);
    }
}

struct CountCtx<'a, 't> {
    parts: &'a PackedParts<'t>,
    queries: &'a [f64],
    exclude: &'a [u32],
    dim: usize,
}

impl CountCtx<'_, '_> {
    #[inline]
    fn excl(&self, q: usize) -> u32 {
        if self.exclude.is_empty() {
            NONE
        } else {
            self.exclude[q]
        }
    }
}

fn count_rec(
    ctx: &CountCtx<'_, '_>,
    node_idx: usize,
    active: &[u32],
    scratch: &mut Scratch,
    counts: &mut [usize],
) {
    let parts = ctx.parts;
    let dim = ctx.dim;
    let (lo, hi) = parts.node_bounds(node_idx);
    // Joint prune: the whole bucket misses this subtree.
    if min_dist_sq_rect_rect(&scratch.qlo, &scratch.qhi, lo, hi) > scratch.r_max_sq {
        return;
    }
    let node = &parts.nodes[node_idx];
    let (start, end) = (node.start as usize, node.end as usize);
    // Joint containment: every query in the bucket covers the whole node.
    if max_dist_sq_rect_rect(&scratch.qlo, &scratch.qhi, lo, hi) <= scratch.r_min_sq {
        for &q in active {
            let q = q as usize;
            counts[q] += end - start;
            if parts.excluded_row(start, end, ctx.excl(q)).is_some() {
                counts[q] -= 1;
            }
        }
        return;
    }
    // Enclosure shortcut: while the node still encloses every query ball,
    // per-query tests are foregone conclusions (nothing prunes, nothing is
    // covered) — descend with the active set as is. Counting is
    // order-independent, so resolving a ball-boundary node here or one level
    // deeper yields the same integers.
    if node.right != NONE && end - start > VIRTUAL_LEAF_SPAN && scratch.encloses(lo, hi) {
        count_rec(ctx, node.right as usize, active, scratch, counts);
        count_rec(ctx, node_idx + 1, active, scratch, counts);
        return;
    }
    // Per-query tests — identical to the single-query traversal.
    let mut still = scratch.pool.pop().unwrap_or_default();
    still.clear();
    for &q in active {
        let qi = q as usize;
        let query = &ctx.queries[qi * dim..(qi + 1) * dim];
        let r_sq = scratch.r_sq[qi];
        if min_dist_sq_to_rect(query, lo, hi) > r_sq {
            continue;
        }
        if max_dist_sq_to_rect(query, lo, hi) <= r_sq {
            counts[qi] += end - start;
            if parts.excluded_row(start, end, ctx.excl(qi)).is_some() {
                counts[qi] -= 1;
            }
            continue;
        }
        still.push(q);
    }
    if !still.is_empty() {
        if node.right == NONE || end - start <= VIRTUAL_LEAF_SPAN {
            let rows = &parts.coords[start * dim..end * dim];
            for &q in &still {
                let qi = q as usize;
                let query = &ctx.queries[qi * dim..(qi + 1) * dim];
                let r_sq = scratch.r_sq[qi];
                counts[qi] += batch::count_within(query, rows, dim, r_sq);
                if let Some(p) = parts.excluded_row(start, end, ctx.excl(qi)) {
                    let row = &parts.coords[p * dim..(p + 1) * dim];
                    if dist_sq(query, row) <= r_sq {
                        counts[qi] -= 1;
                    }
                }
            }
        } else {
            // Right subtree first: the single-query stack pushes left then
            // right and pops the right child first.
            count_rec(ctx, node.right as usize, &still, scratch, counts);
            count_rec(ctx, node_idx + 1, &still, scratch, counts);
        }
    }
    scratch.pool.push(still);
}

/// Batched range **search**: per-query id lists, bit-identical (content *and*
/// order) to [`PackedParts::range_search_into`][rsi] for each query.
///
/// [rsi]: crate::kdtree::PackedParts::range_search_into
#[derive(Debug, Default)]
pub struct BatchRangeSearch {
    scratch: Scratch,
}

impl BatchRangeSearch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Collects, for each of the `k` query balls, the ids of the points of
    /// `parts` within its (closed) radius. `queries` is `k` row-major rows;
    /// `radii` has length `k`; `out` must have exactly `k` slots (each is
    /// cleared, then filled in the same order as the single-query search —
    /// capacity is reused across calls).
    pub fn run(
        &mut self,
        parts: &PackedParts<'_>,
        queries: &[f64],
        radii: &[f64],
        out: &mut [Vec<usize>],
    ) {
        let k = radii.len();
        assert_eq!(out.len(), k, "one output slot per query");
        for slot in out.iter_mut() {
            slot.clear();
        }
        let active = self.scratch.prepare(parts.dim, queries, radii);
        if !active.is_empty() && !parts.nodes.is_empty() {
            let ctx = SearchCtx { parts, queries, dim: parts.dim };
            search_rec(&ctx, 0, &active, &mut self.scratch, out);
        }
        self.scratch.pool.push(active);
    }
}

struct SearchCtx<'a, 't> {
    parts: &'a PackedParts<'t>,
    queries: &'a [f64],
    dim: usize,
}

fn search_rec(
    ctx: &SearchCtx<'_, '_>,
    node_idx: usize,
    active: &[u32],
    scratch: &mut Scratch,
    out: &mut [Vec<usize>],
) {
    let parts = ctx.parts;
    let dim = ctx.dim;
    let (lo, hi) = parts.node_bounds(node_idx);
    if min_dist_sq_rect_rect(&scratch.qlo, &scratch.qhi, lo, hi) > scratch.r_max_sq {
        return;
    }
    let node = &parts.nodes[node_idx];
    let (start, end) = (node.start as usize, node.end as usize);
    if max_dist_sq_rect_rect(&scratch.qlo, &scratch.qhi, lo, hi) <= scratch.r_min_sq {
        for &q in active {
            out[q as usize].extend(parts.ids[start..end].iter().map(|&id| id as usize));
        }
        return;
    }
    let mut still = scratch.pool.pop().unwrap_or_default();
    still.clear();
    for &q in active {
        let qi = q as usize;
        let query = &ctx.queries[qi * dim..(qi + 1) * dim];
        let r_sq = scratch.r_sq[qi];
        if min_dist_sq_to_rect(query, lo, hi) > r_sq {
            continue;
        }
        if max_dist_sq_to_rect(query, lo, hi) <= r_sq {
            out[qi].extend(parts.ids[start..end].iter().map(|&id| id as usize));
            continue;
        }
        still.push(q);
    }
    if !still.is_empty() {
        if node.right == NONE {
            let rows = &parts.coords[start * dim..end * dim];
            for &q in &still {
                let qi = q as usize;
                let query = &ctx.queries[qi * dim..(qi + 1) * dim];
                let r_sq = scratch.r_sq[qi];
                let slot = &mut out[qi];
                let base = slot.len();
                batch::search_within_into(query, rows, dim, r_sq, slot);
                for v in &mut slot[base..] {
                    *v = parts.ids[start + *v] as usize;
                }
            }
        } else {
            search_rec(ctx, node.right as usize, &still, scratch, out);
            search_rec(ctx, node_idx + 1, &still, scratch, out);
        }
    }
    scratch.pool.push(still);
}

/// Upper bound on the number of query balls handed to one batched traversal
/// by [`count_grid_points`]. A degenerate grid (every point in one cell)
/// would otherwise make the per-node active sets — and the traversal scratch
/// — grow with `n`; counts are query-independent, so chunking is
/// behaviour-neutral.
const BATCH_CHUNK: usize = 512;

/// For every point `p` of `grid`, in point-id order, the number of other
/// points of `parts` within `radius` of `p` — bit-identical to
/// `parts.range_count(p's row, radius, Some(p))`. `grid` and `parts` must
/// index the same dataset. Each bucket's points share one
/// [`BatchRangeCount`] descent per `BATCH_CHUNK` balls.
pub fn count_grid_points(
    parts: &PackedParts<'_>,
    grid: &Grid,
    radius: f64,
    executor: &Executor,
) -> Vec<usize> {
    let dim = grid.dim();
    let radii = vec![radius; BATCH_CHUNK];
    let fill = |state: &mut (BatchRangeCount, Vec<f64>, Vec<u32>, Vec<usize>),
                bucket: &[CellId],
                out: &mut [usize]| {
        let (engine, rows, exclude, counts) = state;
        rows.clear();
        exclude.clear();
        for &cell in bucket {
            rows.extend_from_slice(grid.coords(cell));
            exclude.extend(grid.points(cell).iter().map(|&p| p as u32));
        }
        for (c, chunk) in out.chunks_mut(BATCH_CHUNK).enumerate() {
            let (first, last) = (c * BATCH_CHUNK, c * BATCH_CHUNK + chunk.len());
            let queries = &rows[first * dim..last * dim];
            engine.run(parts, queries, &radii[..chunk.len()], &exclude[first..last], counts);
            chunk.copy_from_slice(counts);
        }
    };
    fan_out_buckets(grid, executor, |cell| grid.points(cell).iter().copied(), fill)
}

/// For every cell of `grid`, in cell-id order, the ids of the points of
/// `parts` inside the cell's query ball: `ball(cell, row)` appends the
/// ball's centre to `row` and returns its radius. Each list is bit-identical
/// (content and order) to `parts.range_search_into(centre, radius, ..)`.
pub fn search_grid_cells(
    parts: &PackedParts<'_>,
    grid: &Grid,
    executor: &Executor,
    ball: impl Fn(CellId, &mut Vec<f64>) -> f64 + Sync,
) -> Vec<Vec<usize>> {
    let fill = |state: &mut (BatchRangeSearch, Vec<f64>, Vec<f64>),
                bucket: &[CellId],
                out: &mut [Vec<usize>]| {
        let (engine, rows, radii) = state;
        rows.clear();
        radii.clear();
        radii.extend(bucket.iter().map(|&cell| ball(cell, rows)));
        engine.run(parts, rows, radii, out);
    };
    fan_out_buckets(grid, executor, std::iter::once, fill)
}

/// The bucket fan-out behind both grid-wide functions. Bucket `b` of
/// `grid.query_buckets()` fills one output slot per id its cells yield
/// through `ids`; the buckets are split into contiguous runs balanced by
/// point count ([`balanced_ranges`]), and one task per run calls
/// `fill(state, bucket, slots)` bucket by bucket with a `state` of its own.
/// The slots are then scattered to id order. Both the partition and every
/// batched result are fixed by the grid layout (module docs), so the answer
/// is bit-identical at every thread count.
fn fan_out_buckets<T, S, I>(
    grid: &Grid,
    executor: &Executor,
    ids: impl Fn(CellId) -> I,
    fill: impl Fn(&mut S, &[CellId], &mut [T]) + Sync,
) -> Vec<T>
where
    T: Clone + Default + Send,
    S: Default,
    I: ExactSizeIterator<Item = usize>,
{
    let buckets = grid.query_buckets();
    let (mut slot_prefix, mut weight_prefix) = (vec![0usize], vec![0usize]);
    let (mut slots, mut points) = (0usize, 0usize);
    for bucket in buckets.iter() {
        slots += bucket.iter().map(|&c| ids(c).len()).sum::<usize>();
        points += bucket.iter().map(|&c| grid.points(c).len()).sum::<usize>();
        slot_prefix.push(slots);
        weight_prefix.push(points);
    }
    let mut out = vec![T::default(); slots];
    let bounds = balanced_ranges(&weight_prefix, executor.threads());
    let (buckets_ref, slot_prefix, fill) = (&buckets, &slot_prefix, &fill);
    let mut tasks = Vec::with_capacity(bounds.len() - 1);
    let mut rest: &mut [T] = &mut out;
    for run in bounds.windows(2) {
        let (lo, hi) = (run[0], run[1]);
        let (mine, tail) = rest.split_at_mut(slot_prefix[hi] - slot_prefix[lo]);
        rest = tail;
        tasks.push(move || {
            let mut state = S::default();
            for b in lo..hi {
                let span = slot_prefix[b] - slot_prefix[lo]..slot_prefix[b + 1] - slot_prefix[lo];
                fill(&mut state, buckets_ref.bucket(b), &mut mine[span]);
            }
        });
    }
    executor.fan_out(tasks);
    let mut by_id = vec![T::default(); out.len()];
    for (id, value) in buckets.flat_cells().iter().flat_map(|&c| ids(c)).zip(out) {
        by_id[id] = value;
    }
    by_id
}

/// Splits `prefix.len() - 1` weighted buckets into at most `workers`
/// contiguous ranges of roughly equal cumulative weight. `prefix` is the
/// exclusive prefix sum of per-bucket weights (so `prefix[0] == 0` and
/// `prefix[b + 1] - prefix[b]` is bucket `b`'s weight). Returns monotone
/// bounds `[0, …, num_buckets]`; consecutive bounds may coincide (an empty
/// range) when a single bucket dominates.
///
/// The returned partition depends only on `prefix` and `workers`, and batched
/// results are bucket-independent (see the module docs), so callers fanning
/// out one task per range get bit-identical results at every thread count.
pub(crate) fn balanced_ranges(prefix: &[usize], workers: usize) -> Vec<usize> {
    assert!(!prefix.is_empty(), "prefix sum must at least contain the leading 0");
    let num_buckets = prefix.len() - 1;
    let total = prefix[num_buckets];
    let workers = workers.max(1).min(num_buckets.max(1));
    let mut bounds = Vec::with_capacity(workers + 1);
    bounds.push(0usize);
    for w in 1..workers {
        let target = w * total / workers;
        let b = prefix.partition_point(|&o| o < target).min(num_buckets);
        bounds.push(b.max(*bounds.last().unwrap()));
    }
    bounds.push(num_buckets);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kdtree::KdTree;
    use crate::test_util::random_dataset;
    use dpc_geometry::Dataset;

    fn gather_rows(data: &Dataset, ids: &[usize]) -> Vec<f64> {
        let mut rows = Vec::with_capacity(ids.len() * data.dim());
        for &i in ids {
            rows.extend_from_slice(data.point(i));
        }
        rows
    }

    #[test]
    fn batched_count_matches_single_queries() {
        for &(n, dim, seed) in &[(257usize, 2usize, 11u64), (300, 3, 12), (180, 8, 13)] {
            let data = random_dataset(n, dim, seed);
            let tree = KdTree::build(&data);
            let parts = tree.packed_parts();
            let ids: Vec<usize> = (0..n).step_by(3).collect();
            let rows = gather_rows(&data, &ids);
            let radii: Vec<f64> = ids.iter().map(|i| 0.05 + 0.3 * ((i % 7) as f64)).collect();
            let exclude: Vec<u32> =
                ids.iter().map(|&i| if i % 2 == 0 { i as u32 } else { NO_EXCLUDE }).collect();
            let mut counts = Vec::new();
            let mut engine = BatchRangeCount::new();
            engine.run(&parts, &rows, &radii, &exclude, &mut counts);
            for (k, &i) in ids.iter().enumerate() {
                let excl = if i % 2 == 0 { Some(i) } else { None };
                let expected = tree.range_count(data.point(i), radii[k], excl);
                assert_eq!(counts[k], expected, "query {i} (dim {dim})");
            }
        }
    }

    #[test]
    fn batched_search_matches_single_queries_in_order() {
        for &(n, dim, seed) in &[(223usize, 2usize, 21u64), (150, 3, 22), (90, 8, 23)] {
            let data = random_dataset(n, dim, seed);
            let tree = KdTree::build(&data);
            let parts = tree.packed_parts();
            let ids: Vec<usize> = (0..n).step_by(2).collect();
            let rows = gather_rows(&data, &ids);
            let mut out = vec![Vec::new(); ids.len()];
            let mut engine = BatchRangeSearch::new();
            engine.run(&parts, &rows, &vec![0.4; ids.len()], &mut out);
            let mut expected = Vec::new();
            for (k, &i) in ids.iter().enumerate() {
                tree.range_search_into(data.point(i), 0.4, &mut expected);
                assert_eq!(out[k], expected, "query {i} (dim {dim})");
            }
        }
    }

    #[test]
    fn nan_and_negative_radii_match_single_query_semantics() {
        let data = random_dataset(64, 2, 31);
        let tree = KdTree::build(&data);
        let parts = tree.packed_parts();
        let rows = gather_rows(&data, &[0, 1, 2]);
        let radii = [f64::NAN, -1.0, 0.5];
        let mut counts = Vec::new();
        BatchRangeCount::new().run(&parts, &rows, &radii, &[], &mut counts);
        assert_eq!(counts[0], 0);
        assert_eq!(counts[1], 0);
        assert_eq!(counts[2], tree.range_count(data.point(2), 0.5, None));
        let mut out = vec![Vec::new(); 3];
        BatchRangeSearch::new().run(&parts, &rows, &radii, &mut out);
        assert!(out[0].is_empty() && out[1].is_empty());
        let mut expected = Vec::new();
        tree.range_search_into(data.point(2), 0.5, &mut expected);
        assert_eq!(out[2], expected);
    }

    #[test]
    fn empty_bucket_is_a_no_op() {
        let data = random_dataset(32, 3, 41);
        let tree = KdTree::build(&data);
        let parts = tree.packed_parts();
        let mut counts = vec![99usize];
        BatchRangeCount::new().run(&parts, &[], &[], &[], &mut counts);
        assert!(counts.is_empty());
        let mut out: Vec<Vec<usize>> = Vec::new();
        BatchRangeSearch::new().run(&parts, &[], &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn balanced_ranges_partition_all_buckets() {
        for workers in 1..10 {
            let weights = [3usize, 0, 7, 1, 1, 20, 2, 5];
            let mut prefix = vec![0usize];
            for w in weights {
                prefix.push(prefix.last().unwrap() + w);
            }
            let bounds = balanced_ranges(&prefix, workers);
            assert_eq!(bounds[0], 0);
            assert_eq!(*bounds.last().unwrap(), weights.len());
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
            assert!(bounds.len() <= workers + 1);
        }
        assert_eq!(balanced_ranges(&[0], 4), vec![0, 0]);
    }
}
