//! A packed, static, leaf-bucketed kd-tree over a [`Dataset`].
//!
//! This is the workhorse index of the local-density phase — the dominant cost
//! of every algorithm in the paper (Ex-DPC issues one range count per point,
//! Approx-DPC/S-Approx-DPC one range search per cell/seed) — so its layout is
//! chosen for query throughput rather than for updatability:
//!
//! * **Packed leaf buckets.** Bulk construction permutes the point identifiers
//!   into one contiguous array, recursively median-split until a subtree holds
//!   at most [`LEAF_BUCKET`] points. The coordinates of the permuted points
//!   are copied into a matching row-major buffer, so scanning a leaf reads one
//!   contiguous memory strip instead of chasing one arena node per point.
//! * **Flat inner nodes.** Nodes live in a preorder `Vec`: a node's left child
//!   is always the next node, only the right child index is stored. Every node
//!   records its packed range `start..end` (hence its subtree size `end −
//!   start`) and its exact bounding box (in a parallel `bounds` buffer,
//!   `2·dim` values per node).
//! * **Three-way pruning on counting.** A range count visits a node and
//!   compares the query ball against the node's box: fully outside → skip,
//!   fully inside → add `end − start` without visiting a single point,
//!   otherwise descend (scanning the bucket when the node is a leaf). The
//!   fully-inside case is what a counting query admits over a reporting one,
//!   and on clustered data it removes most leaf scans.
//! * **Closed-ball semantics.** All range queries use the paper's Definition 1
//!   predicate `dist ≤ radius` (see the `dpc_geometry` crate docs): a point at
//!   distance exactly `d_cut` counts, and the pruning tests are aligned with
//!   that (`min_dist > r²` skips, `max_dist ≤ r²` takes the whole subtree).
//! * **Allocation-free queries.** Traversal uses a fixed-size explicit stack
//!   (the tree is balanced, so its depth is at most `⌈log₂(n / LEAF_BUCKET)⌉ +
//!   1 < 32` for any `n` addressable by `u32`), and reporting queries append
//!   into a caller-reusable buffer via [`KdTree::range_search_into`]. Leaf
//!   scans go through the batched kernels of `dpc_geometry::batch` — one query
//!   against the bucket's contiguous rows — which are SIMD-accelerated when
//!   the `simd` feature of `dpc-geometry` is enabled.
//!
//! The index stores `O(n)` identifiers plus `O(n·d)` packed coordinates and
//! `O(n/LEAF_BUCKET)` nodes — `O(n)` space for fixed `d`, as the paper's space
//! analysis (Theorem 3) requires.
//!
//! * **Parallel construction.** After a median split the two child ranges are
//!   completely independent, so [`KdTree::build_parallel`] fans the top
//!   `⌈log₂ threads⌉` levels of the recursion out across workers with
//!   [`Executor::join`]. The preorder node index and packed range of every
//!   subtree are pure functions of the subtree's size (a median split puts
//!   `⌊m/2⌋` points left), so the whole `nodes`/`bounds`/`ids`/`coords`
//!   storage is allocated up front and each worker writes its disjoint
//!   pre-reserved slice — the resulting tree is **bit-identical** to the
//!   serial build at every thread count.
//!
//! * **Nearest denser point.** [`KdTree::nearest_denser`] is the one δ query
//!   of every algorithm and of serve `Assign`: the nearest point whose rank
//!   (its ρ) exceeds a bound, with ties at equal distance going to the lowest
//!   id. A per-node maximum of the ranks ([`KdTree::node_max`], one pass over
//!   the nodes) lets it skip every subtree holding no denser point. The
//!   answers equal those of the §3 re-insertion pass over an incremental tree
//!   that this query replaced.
//!
//! The tree is immutable. The streaming engine, which needs insertion and
//! deletion, uses the separate [`IncrementalKdTree`](crate::IncrementalKdTree)
//! arena tree; keeping mutation out of this type is what allows the packed
//! layout.

use dpc_geometry::batch;
use dpc_geometry::distance::{dist_sq, max_dist_sq_to_rect, min_dist_sq_to_rect};
use dpc_geometry::Dataset;
use dpc_parallel::Executor;

/// Maximum number of points per leaf bucket. Buckets are scanned linearly, so
/// the value trades tree depth (build cost, inner-node overhead) against scan
/// length; 16 keeps a 2-d bucket within two cache lines of coordinates.
pub const LEAF_BUCKET: usize = 16;

/// Capacity of the fixed traversal stacks. A balanced tree over `u32`-indexed
/// points has depth ≤ ⌈log₂(2³² / 16)⌉ + 1 = 29, and a depth-first traversal
/// that pushes both children keeps at most depth + 1 entries. Shared with the
/// batched traversals of [`crate::batchq`], whose recursion depth obeys the
/// same bound.
pub(crate) const STACK_CAP: usize = 64;

pub(crate) const NONE: u32 = PackedNode::NO_CHILD;

/// Minimum number of points in a range before the build forks it: below this
/// the ~10–30 µs cost of spawning a scoped thread exceeds the work handed
/// over. Also gates [`KdTree::build_parallel`] as a whole — a dataset smaller
/// than this builds inline with zero spawns regardless of the executor.
const MIN_FORK_POINTS: usize = 1024;

/// Upper bound on fork depth (2⁸ = 256 leaf tasks), a guard against executors
/// reporting absurd thread counts; real fan-out is `⌈log₂ threads⌉` levels.
const MAX_FORK_LEVELS: usize = 8;

/// One flat tree node. The node covers packed positions `start..end`; its
/// subtree size is `end - start`. Inner nodes have their left child at the
/// next node index (preorder layout) and `right` holds the right child; leaves
/// have `right == `[`PackedNode::NO_CHILD`].
///
/// The type is `#[repr(C)]` with three `u32` fields — 12 bytes, no padding,
/// every bit pattern a valid value — so a persisted node array can be
/// reinterpreted from raw bytes (the zero-copy load path of `dpc-persist`)
/// before semantic validation runs.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PackedNode {
    /// First packed position covered by this node's subtree.
    pub start: u32,
    /// One past the last packed position covered by this node's subtree.
    pub end: u32,
    /// Preorder index of the right child, or [`PackedNode::NO_CHILD`] for a
    /// leaf. The left child is always at the next preorder index.
    pub right: u32,
}

impl PackedNode {
    /// Sentinel `right` value marking a leaf (and, in position maps, a point
    /// that is not indexed).
    pub const NO_CHILD: u32 = u32::MAX;

    /// Whether this node is a leaf bucket (no children).
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.right == Self::NO_CHILD
    }
}

/// A packed static kd-tree over the points of a [`Dataset`]. The tree owns a
/// copy of the coordinates it indexes (`coords`), so it outlives the dataset
/// it was built from and every query reads only its own storage.
pub struct KdTree {
    dim: usize,
    /// Point identifiers in packed (partition) order.
    ids: Vec<u32>,
    /// Coordinates of `ids` in the same order, row-major. Leaf scans read this
    /// buffer sequentially.
    coords: Vec<f64>,
    /// `pos[id]` = packed position of dataset point `id`, or `NONE` when the
    /// point is not indexed. Only materialised by [`KdTree::build`] (it would
    /// cost `O(data.len())` per subset tree otherwise); used for the `O(1)`
    /// "is the excluded point inside this subtree" test.
    pos: Option<Vec<u32>>,
    nodes: Vec<PackedNode>,
    /// Per-node bounding boxes: `dim` lows then `dim` highs per node.
    bounds: Vec<f64>,
}

impl KdTree {
    /// Builds the packed tree over every point of `data`, serially.
    pub fn build(data: &Dataset) -> Self {
        Self::build_parallel(data, &Executor::single())
    }

    /// Builds the packed tree over every point of `data`, fanning the top
    /// `⌈log₂ threads⌉` levels of the median-split recursion out across the
    /// executor's workers via [`Executor::join`].
    ///
    /// The result is **bit-identical** to [`KdTree::build`] at every thread
    /// count: every subtree's preorder node index, packed range and storage
    /// extent are pure functions of the subtree's size, so workers fill
    /// disjoint pre-reserved slices of the same arrays the serial build
    /// fills, with the same deterministic median selection. Datasets smaller
    /// than a fork threshold build inline with zero spawns.
    pub fn build_parallel(data: &Dataset, executor: &Executor) -> Self {
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let mut tree = Self::build_from_ids(data, ids, executor);
        let mut pos = vec![NONE; data.len()];
        for (p, &id) in tree.ids.iter().enumerate() {
            pos[id as usize] = p as u32;
        }
        tree.pos = Some(pos);
        tree
    }

    /// Builds the packed tree over a subset of point identifiers, serially and
    /// without a position map. No fit builds one any more; the persisted tree
    /// format still admits such trees (`pos: None`), so the build stays for
    /// the format's tests.
    pub fn build_subset(data: &Dataset, ids: &[usize]) -> Self {
        let ids: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
        Self::build_from_ids(data, ids, &Executor::single())
    }

    fn build_from_ids(data: &Dataset, mut ids: Vec<u32>, executor: &Executor) -> Self {
        let dim = data.dim();
        let n = ids.len();
        if n == 0 {
            return Self {
                dim,
                ids,
                coords: Vec::new(),
                pos: None,
                nodes: Vec::new(),
                bounds: Vec::new(),
            };
        }
        // The preorder layout of every subtree is determined by its size, so
        // all storage can be reserved exactly and written in place — which is
        // what lets independent subtrees be built by different workers.
        let total_nodes = subtree_nodes(n);
        let mut nodes = vec![PackedNode { start: 0, end: 0, right: NONE }; total_nodes];
        let mut bounds = vec![0.0f64; total_nodes * 2 * dim];
        let mut coords = vec![0.0f64; n * dim];
        let fork_levels = fork_levels(executor.threads(), n);
        let written = build_rec(
            &BuildCtx { data, dim, executor },
            Subtree {
                ids: &mut ids,
                coords: &mut coords,
                nodes: &mut nodes,
                bounds: &mut bounds,
                offset: 0,
                node_base: 0,
            },
            fork_levels,
        );
        debug_assert_eq!(written, total_nodes, "preorder node count must be exact");
        Self { dim, ids, coords, pos: None, nodes, bounds }
    }

    /// Number of points in the tree.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Borrowed view of the packed storage: everything a query needs, nothing
    /// that owns an allocation. Queries on the view answer identically to the
    /// same queries on the tree — the tree's own query methods delegate to it
    /// — and `dpc-persist` builds the same view over a decoded byte buffer to
    /// serve queries zero-copy, straight off the artifact bytes.
    pub fn packed_parts(&self) -> PackedParts<'_> {
        PackedParts {
            dim: self.dim,
            ids: &self.ids,
            coords: &self.coords,
            pos: self.pos.as_deref(),
            nodes: &self.nodes,
            bounds: &self.bounds,
        }
    }

    /// Counts points whose distance to `query` is **at most** `radius` (closed
    /// ball, Definition 1), **excluding** the point whose identifier equals
    /// `exclude` (pass `None` to count every point).
    ///
    /// This is the local-density primitive: Ex-DPC calls it once per point with
    /// `exclude = Some(i)` so that a point does not count itself. A negative or
    /// NaN radius counts nothing; radius `0` counts exact duplicates.
    pub fn range_count(&self, query: &[f64], radius: f64, exclude: Option<usize>) -> usize {
        self.packed_parts().range_count(query, radius, exclude)
    }

    /// Collects the identifiers of points whose distance to `query` is at most
    /// `radius` (closed ball). The query point itself (if it is indexed) is
    /// included because its distance is zero; callers that need to exclude it
    /// filter by id.
    pub fn range_search(&self, query: &[f64], radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.range_search_into(query, radius, &mut out);
        out
    }

    /// Same as [`KdTree::range_search`] but appends into a caller-provided
    /// buffer, allowing reuse across many queries (the joint range search of
    /// Approx-DPC issues one query per cell). The buffer is cleared first.
    ///
    /// Result order follows the packed layout, not point-identifier order.
    pub fn range_search_into(&self, query: &[f64], radius: f64, out: &mut Vec<usize>) {
        self.packed_parts().range_search_into(query, radius, out);
    }

    /// Finds the nearest neighbour of `query` among the indexed points,
    /// excluding the point whose identifier equals `exclude` (if given).
    ///
    /// Returns `(point id, distance)` or `None` when the tree is empty (or only
    /// contains the excluded point).
    pub fn nearest_neighbor(&self, query: &[f64], exclude: Option<usize>) -> Option<(usize, f64)> {
        self.packed_parts().nearest_neighbor(query, exclude)
    }

    /// The maximum of `rank[id]` over the points of each node, in preorder
    /// node order: the pruning bound [`KdTree::nearest_denser`] takes.
    /// `rank` is indexed by point id and must cover every indexed id.
    pub fn node_max(&self, rank: &[f64]) -> Vec<f64> {
        self.packed_parts().node_max(rank)
    }

    /// Finds the point `j` minimising `(dist(query, j), j)` among the indexed
    /// points with `rank[j] > above`: the nearest point denser than the query,
    /// ties at equal distance going to the lowest id. `node_max` must be
    /// [`KdTree::node_max`] of the same `rank`.
    ///
    /// Returns `(j, distance)`, or `None` when no indexed point out-ranks
    /// `above`. This is the dependent-point query of Definition 2.
    pub fn nearest_denser(
        &self,
        query: &[f64],
        above: f64,
        rank: &[f64],
        node_max: &[f64],
    ) -> Option<(usize, f64)> {
        self.packed_parts().nearest_denser(query, above, rank, node_max)
    }

    /// Whether two trees have bit-identical packed layouts: same permuted
    /// identifiers, packed coordinate rows, preorder nodes and bounding boxes
    /// (floats compared by bit pattern, so even a `-0.0` vs `0.0` discrepancy
    /// fails). This is the property the parallel build guarantees against the
    /// serial build at every thread count, and what the determinism tests
    /// assert.
    pub fn layout_eq(&self, other: &Self) -> bool {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && std::iter::zip(a, b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.dim == other.dim
            && self.ids == other.ids
            && bits_eq(&self.coords, &other.coords)
            && self.nodes == other.nodes
            && bits_eq(&self.bounds, &other.bounds)
            && self.pos == other.pos
    }

    /// Approximate heap memory used by the index, in bytes (packed ids and
    /// coordinates, position map, nodes, and bounding boxes; the original
    /// coordinates belong to the dataset).
    pub fn mem_usage(&self) -> usize {
        self.ids.capacity() * std::mem::size_of::<u32>()
            + self.coords.capacity() * std::mem::size_of::<f64>()
            + self.pos.as_ref().map_or(0, |p| p.capacity() * std::mem::size_of::<u32>())
            + self.nodes.capacity() * std::mem::size_of::<PackedNode>()
            + self.bounds.capacity() * std::mem::size_of::<f64>()
    }

    /// Reassembles a tree from decoded packed storage — the loader
    /// counterpart of [`KdTree::build`], used by `dpc-persist`.
    ///
    /// Nothing is trusted. The node array must equal
    /// [`canonical_node_layout`] for the point count exactly (the build's
    /// shape is a pure function of `n`, so every genuine artifact matches it
    /// — and a canonical shape is what keeps the fixed traversal stacks in
    /// bounds on decoded input); `ids` must index distinct points of `data`;
    /// every packed coordinate row must equal its dataset row bitwise; the
    /// position map, when present, must be the exact inverse of `ids`; and
    /// every node's bounding box must be the box the build computes over the
    /// node's packed range. A tree that passes is [`KdTree::layout_eq`] to a
    /// fresh build over the same points.
    ///
    /// # Errors
    /// A static description of the first violated invariant, for the caller
    /// to wrap in its own error type.
    pub fn from_packed_parts(
        data: &Dataset,
        ids: Vec<u32>,
        coords: Vec<f64>,
        pos: Option<Vec<u32>>,
        nodes: Vec<PackedNode>,
        bounds: Vec<f64>,
    ) -> Result<Self, &'static str> {
        let dim = data.dim();
        let n = ids.len();
        if coords.len() != n * dim {
            return Err("packed coordinate buffer length disagrees with the id count");
        }
        if nodes != canonical_node_layout(n) {
            return Err("node array is not the canonical layout for the point count");
        }
        if bounds.len() != nodes.len() * 2 * dim {
            return Err("bounds buffer length disagrees with the node count");
        }
        let mut seen = vec![false; data.len()];
        for (k, &id) in ids.iter().enumerate() {
            let Some(slot) = seen.get_mut(id as usize) else {
                return Err("packed id out of range of the dataset");
            };
            if std::mem::replace(slot, true) {
                return Err("duplicate packed id");
            }
            let row = &coords[k * dim..(k + 1) * dim];
            let point = data.point(id as usize);
            if std::iter::zip(row, point).any(|(a, b)| a.to_bits() != b.to_bits()) {
                return Err("packed coordinate row disagrees with its dataset point");
            }
        }
        if let Some(pos) = &pos {
            if pos.len() != data.len() {
                return Err("position map length disagrees with the dataset");
            }
            let mut expected = vec![NONE; data.len()];
            for (k, &id) in ids.iter().enumerate() {
                expected[id as usize] = k as u32;
            }
            if *pos != expected {
                return Err("position map is not the inverse of the packed ids");
            }
        }
        // Recompute every node's box the way the build does and demand
        // agreement. Bitwise except for one carve-out: the build folds its
        // min/max over pre-split id order, this check over packed order, and
        // the two can keep different representatives of a `±0.0` tie — so a
        // numerically equal bound is accepted too (`0.0 == -0.0`, while any
        // actually-different bound compares unequal both ways).
        let bound_eq = |a: f64, b: f64| a.to_bits() == b.to_bits() || a == b;
        let mut lo = vec![0.0f64; dim];
        let mut hi = vec![0.0f64; dim];
        for (idx, node) in nodes.iter().enumerate() {
            lo.fill(f64::INFINITY);
            hi.fill(f64::NEG_INFINITY);
            let rows = &coords[node.start as usize * dim..node.end as usize * dim];
            for row in rows.chunks_exact(dim) {
                for a in 0..dim {
                    if row[a] < lo[a] {
                        lo[a] = row[a];
                    }
                    if row[a] > hi[a] {
                        hi[a] = row[a];
                    }
                }
            }
            let b = &bounds[idx * 2 * dim..(idx + 1) * 2 * dim];
            let lo_ok = std::iter::zip(&lo, &b[..dim]).all(|(&w, &g)| bound_eq(w, g));
            let hi_ok = std::iter::zip(&hi, &b[dim..]).all(|(&w, &g)| bound_eq(w, g));
            if !lo_ok || !hi_ok {
                return Err("node bounding box disagrees with its packed points");
            }
        }
        Ok(Self { dim, ids, coords, pos, nodes, bounds })
    }
}

/// A borrowed view of a packed kd-tree's storage — the five flat buffers plus
/// the dimensionality, with no owning allocation in sight. All three query
/// algorithms live here; [`KdTree`] delegates to its own view, and the
/// zero-copy decoded views of `dpc-persist` construct one directly over
/// artifact bytes to answer queries without materialising a tree.
///
/// The view does **not** re-validate its buffers — constructing one from
/// untrusted data without the checks [`KdTree::from_packed_parts`] performs
/// can give wrong answers or panic on out-of-bounds indices (never undefined
/// behaviour). Obtain views from [`KdTree::packed_parts`] or from a decoder
/// that has already validated the storage.
#[derive(Clone, Copy)]
pub struct PackedParts<'t> {
    /// Point dimensionality; coordinate rows and per-node boxes are `dim` and
    /// `2·dim` values wide respectively.
    pub dim: usize,
    /// Point identifiers in packed (partition) order.
    pub ids: &'t [u32],
    /// Coordinates of `ids` in the same order, row-major.
    pub coords: &'t [f64],
    /// `pos[id]` = packed position of point `id`, [`PackedNode::NO_CHILD`]
    /// when unindexed; `None` on subset trees.
    pub pos: Option<&'t [u32]>,
    /// Preorder node array.
    pub nodes: &'t [PackedNode],
    /// Per-node bounding boxes: `dim` lows then `dim` highs per node.
    pub bounds: &'t [f64],
}

impl PackedParts<'_> {
    /// The bounding box `(lo, hi)` of node `idx`.
    #[inline]
    pub(crate) fn node_bounds(&self, idx: usize) -> (&[f64], &[f64]) {
        let b = &self.bounds[idx * 2 * self.dim..(idx + 1) * 2 * self.dim];
        b.split_at(self.dim)
    }

    /// Packed position of the excluded point (by identifier) if it lies in
    /// positions `start..end`. `O(1)` on full trees; subset trees fall back to
    /// scanning the range (the exclude path is unused on subset trees in
    /// practice).
    #[inline]
    pub(crate) fn excluded_row(&self, start: usize, end: usize, excl_id: u32) -> Option<usize> {
        if excl_id == NONE {
            return None;
        }
        match self.pos {
            Some(pos) => match pos.get(excl_id as usize) {
                Some(&p) if p != NONE && (p as usize) >= start && (p as usize) < end => {
                    Some(p as usize)
                }
                _ => None,
            },
            None => self.ids[start..end].iter().position(|&id| id == excl_id).map(|k| start + k),
        }
    }

    /// Counts points whose distance to `query` is at most `radius` (closed
    /// ball), excluding the point whose identifier equals `exclude`. See
    /// [`KdTree::range_count`].
    pub fn range_count(&self, query: &[f64], radius: f64, exclude: Option<usize>) -> usize {
        if self.ids.is_empty() || radius.is_nan() || radius < 0.0 {
            return 0;
        }
        let r_sq = radius * radius;
        let dim = self.dim;
        let excl = exclude.map(|e| e as u32).unwrap_or(NONE);
        let mut count = 0usize;
        let mut stack = [0u32; STACK_CAP];
        stack[0] = 0;
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node_idx = stack[top] as usize;
            let (lo, hi) = self.node_bounds(node_idx);
            if min_dist_sq_to_rect(query, lo, hi) > r_sq {
                continue; // box fully outside the ball
            }
            let node = &self.nodes[node_idx];
            let (start, end) = (node.start as usize, node.end as usize);
            if max_dist_sq_to_rect(query, lo, hi) <= r_sq {
                // Box fully inside the ball: the whole subtree contributes its
                // size without a single point visit (subtree-count pruning).
                count += end - start;
                if self.excluded_row(start, end, excl).is_some() {
                    count -= 1;
                }
            } else if node.right == NONE {
                let rows = &self.coords[start * dim..end * dim];
                count += batch::count_within(query, rows, dim, r_sq);
                if let Some(p) = self.excluded_row(start, end, excl) {
                    let row = &self.coords[p * dim..(p + 1) * dim];
                    if dist_sq(query, row) <= r_sq {
                        count -= 1;
                    }
                }
            } else {
                stack[top] = node_idx as u32 + 1;
                stack[top + 1] = node.right;
                top += 2;
            }
        }
        count
    }

    /// Appends the identifiers of points whose distance to `query` is at most
    /// `radius` (closed ball) into `out`, clearing it first. See
    /// [`KdTree::range_search_into`].
    pub fn range_search_into(&self, query: &[f64], radius: f64, out: &mut Vec<usize>) {
        out.clear();
        if self.ids.is_empty() || radius.is_nan() || radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        let dim = self.dim;
        let mut stack = [0u32; STACK_CAP];
        stack[0] = 0;
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let node_idx = stack[top] as usize;
            let (lo, hi) = self.node_bounds(node_idx);
            if min_dist_sq_to_rect(query, lo, hi) > r_sq {
                continue;
            }
            let node = &self.nodes[node_idx];
            let (start, end) = (node.start as usize, node.end as usize);
            if max_dist_sq_to_rect(query, lo, hi) <= r_sq {
                // Whole subtree inside: report every id without distance checks.
                out.extend(self.ids[start..end].iter().map(|&id| id as usize));
            } else if node.right == NONE {
                let rows = &self.coords[start * dim..end * dim];
                // The batch kernel appends bucket-local row indices; remap
                // them to point identifiers in place.
                let base = out.len();
                batch::search_within_into(query, rows, dim, r_sq, out);
                for v in &mut out[base..] {
                    *v = self.ids[start + *v] as usize;
                }
            } else {
                stack[top] = node_idx as u32 + 1;
                stack[top + 1] = node.right;
                top += 2;
            }
        }
    }

    /// Finds the nearest neighbour of `query` among the indexed points,
    /// excluding the point whose identifier equals `exclude` (if given). See
    /// [`KdTree::nearest_neighbor`].
    pub fn nearest_neighbor(&self, query: &[f64], exclude: Option<usize>) -> Option<(usize, f64)> {
        if self.ids.is_empty() {
            return None;
        }
        let excl = exclude.map(|e| e as u32).unwrap_or(NONE);
        let dim = self.dim;
        let mut best_id = NONE;
        let mut best_d = f64::INFINITY;
        let mut stack = [(0u32, 0.0f64); STACK_CAP];
        {
            let (lo, hi) = self.node_bounds(0);
            stack[0] = (0, min_dist_sq_to_rect(query, lo, hi));
        }
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let (node_idx, min_d) = stack[top];
            if min_d >= best_d {
                continue;
            }
            let node = &self.nodes[node_idx as usize];
            if node.right == NONE {
                let (start, end) = (node.start as usize, node.end as usize);
                let rows = &self.coords[start * dim..end * dim];
                let skip = self.excluded_row(start, end, excl).map(|p| p - start);
                if let Some((k, d)) = batch::nearest_in_bucket(query, rows, dim, skip) {
                    if d < best_d {
                        best_d = d;
                        best_id = self.ids[start + k];
                    }
                }
            } else {
                let left = node_idx + 1;
                let right = node.right;
                let (llo, lhi) = self.node_bounds(left as usize);
                let (rlo, rhi) = self.node_bounds(right as usize);
                let ld = min_dist_sq_to_rect(query, llo, lhi);
                let rd = min_dist_sq_to_rect(query, rlo, rhi);
                // Push the farther child first so the nearer one is explored
                // first, tightening `best_d` before the far box is reconsidered.
                if ld <= rd {
                    stack[top] = (right, rd);
                    stack[top + 1] = (left, ld);
                } else {
                    stack[top] = (left, ld);
                    stack[top + 1] = (right, rd);
                }
                top += 2;
            }
        }
        if best_id == NONE {
            None
        } else {
            Some((best_id as usize, best_d.sqrt()))
        }
    }

    /// Per-node maximum of `rank` over each node's points. See
    /// [`KdTree::node_max`]. Children follow their parent in preorder, so one
    /// reverse pass sees both children before the parent.
    pub fn node_max(&self, rank: &[f64]) -> Vec<f64> {
        let mut max = vec![f64::NEG_INFINITY; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate().rev() {
            max[idx] = if node.is_leaf() {
                self.ids[node.start as usize..node.end as usize]
                    .iter()
                    .fold(f64::NEG_INFINITY, |m, &id| m.max(rank[id as usize]))
            } else {
                max[idx + 1].max(max[node.right as usize])
            };
        }
        max
    }

    /// The nearest point out-ranking `above`, lowest id among equal
    /// distances. See [`KdTree::nearest_denser`].
    pub fn nearest_denser(
        &self,
        query: &[f64],
        above: f64,
        rank: &[f64],
        node_max: &[f64],
    ) -> Option<(usize, f64)> {
        if self.ids.is_empty() || node_max[0] <= above {
            return None;
        }
        let dim = self.dim;
        let mut best_id = NONE;
        let mut best_d = f64::INFINITY;
        let mut stack = [(0u32, 0.0f64); STACK_CAP];
        let mut top = 1usize;
        while top > 0 {
            top -= 1;
            let (node_idx, min_d) = stack[top];
            // `>`, not `>=`: a box exactly at the best distance may still
            // hold a lower id at that distance.
            if min_d > best_d {
                continue;
            }
            let node = &self.nodes[node_idx as usize];
            if node.is_leaf() {
                for k in node.start as usize..node.end as usize {
                    let id = self.ids[k];
                    if rank[id as usize] > above {
                        let d = dist_sq(query, &self.coords[k * dim..(k + 1) * dim]);
                        if d < best_d || (d == best_d && id < best_id) {
                            best_d = d;
                            best_id = id;
                        }
                    }
                }
                continue;
            }
            // Push the children that hold a denser point, the farther one
            // first so the nearer one is explored first.
            let visit = |child: u32| {
                (node_max[child as usize] > above).then(|| {
                    let (lo, hi) = self.node_bounds(child as usize);
                    (child, min_dist_sq_to_rect(query, lo, hi))
                })
            };
            let (mut first, mut second) = (visit(node_idx + 1), visit(node.right));
            if let (Some(l), Some(r)) = (first, second) {
                if l.1 <= r.1 {
                    (first, second) = (second, first);
                }
            }
            for child in [first, second].into_iter().flatten() {
                stack[top] = child;
                top += 1;
            }
        }
        (best_id != NONE).then(|| (best_id as usize, best_d.sqrt()))
    }
}

/// Number of preorder nodes a packed subtree over `m` points occupies. A
/// median split puts `⌊m/2⌋` points in the left child, so the recursion shape
/// — and with it every subtree's storage extent — depends only on `m`. This is
/// what allows the parallel build to reserve disjoint output slices before
/// descending.
fn subtree_nodes(m: usize) -> usize {
    if m <= LEAF_BUCKET {
        1
    } else {
        let left = m / 2;
        1 + subtree_nodes(left) + subtree_nodes(m - left)
    }
}

/// Number of preorder nodes a build over `n` points creates (zero for an
/// empty tree) — the public counterpart of the internal recursion count, so
/// decoders can size-check a persisted node array up front.
pub fn packed_node_count(n: usize) -> usize {
    if n == 0 {
        0
    } else {
        subtree_nodes(n)
    }
}

/// The exact preorder node array a build over `n` points produces. The median
/// split always puts `⌊m/2⌋` points in the left child, so every node's packed
/// range and right-child index is a pure function of `n` alone — no
/// coordinates involved. [`KdTree::from_packed_parts`] compares a persisted
/// node array against this layout, which rejects every structurally corrupt
/// tree in one stroke and is what keeps the fixed traversal stacks in bounds
/// on decoded input.
pub fn canonical_node_layout(n: usize) -> Vec<PackedNode> {
    fn rec(nodes: &mut Vec<PackedNode>, offset: usize, m: usize) {
        let here = nodes.len();
        nodes.push(PackedNode {
            start: offset as u32,
            end: (offset + m) as u32,
            right: PackedNode::NO_CHILD,
        });
        if m > LEAF_BUCKET {
            let mid = m / 2;
            rec(nodes, offset, mid);
            nodes[here].right = nodes.len() as u32;
            rec(nodes, offset + mid, m - mid);
        }
    }
    let mut nodes = Vec::with_capacity(packed_node_count(n));
    if n > 0 {
        rec(&mut nodes, 0, n);
    }
    nodes
}

/// Fork depth for a parallel build: `⌈log₂ threads⌉` levels, so every
/// configured worker receives a subtree (capped, and zero for inputs too
/// small to amortise a spawn). For a non-power-of-two thread count the
/// frontier has up to `2^⌈log₂ t⌉ < 2t` tasks, i.e. some workers process two
/// subtrees — bounded oversubscription in exchange for no idle workers.
fn fork_levels(threads: usize, n: usize) -> usize {
    if threads <= 1 || n < MIN_FORK_POINTS {
        0
    } else {
        (threads.next_power_of_two().trailing_zeros() as usize).min(MAX_FORK_LEVELS)
    }
}

/// Build inputs shared by every recursion frame.
struct BuildCtx<'a, 'e> {
    data: &'a Dataset,
    dim: usize,
    executor: &'e Executor,
}

/// One subtree's slice of the build output: its range of the permuted `ids`
/// (starting at packed position `offset`), the matching rows of `coords`, and
/// its preorder run of `nodes`/`bounds` (whose first node has global index
/// `node_base`). Disjoint by construction, so a frame can be handed to a
/// forked worker.
struct Subtree<'t> {
    ids: &'t mut [u32],
    coords: &'t mut [f64],
    nodes: &'t mut [PackedNode],
    bounds: &'t mut [f64],
    offset: usize,
    node_base: u32,
}

/// Recursive packed construction: records the subtree's root node (preorder)
/// with its bounding box, median-splits on the box's widest axis until the
/// range fits a leaf bucket, and copies leaf coordinate rows into place.
/// Returns the number of nodes written.
///
/// While `fork_levels > 0` the two children after the split are built by
/// [`Executor::join`] into pre-reserved disjoint halves of the output slices,
/// which keeps the result bit-identical to the inline recursion.
fn build_rec(ctx: &BuildCtx<'_, '_>, sub: Subtree<'_>, fork_levels: usize) -> usize {
    let dim = ctx.dim;
    let m = sub.ids.len();
    sub.nodes[0] =
        PackedNode { start: sub.offset as u32, end: (sub.offset + m) as u32, right: NONE };
    let (bbox, child_bounds) = sub.bounds.split_at_mut(2 * dim);
    bbox[..dim].fill(f64::INFINITY);
    bbox[dim..].fill(f64::NEG_INFINITY);
    for &id in sub.ids.iter() {
        let p = ctx.data.point(id as usize);
        for a in 0..dim {
            if p[a] < bbox[a] {
                bbox[a] = p[a];
            }
            if p[a] > bbox[dim + a] {
                bbox[dim + a] = p[a];
            }
        }
    }
    if m <= LEAF_BUCKET {
        // The range is final: no split below a leaf re-partitions it, so the
        // packed coordinate rows can be written here (in parallel across
        // forked subtrees) instead of in a serial pass after construction.
        for (k, &id) in sub.ids.iter().enumerate() {
            sub.coords[k * dim..(k + 1) * dim].copy_from_slice(ctx.data.point(id as usize));
        }
        return 1;
    }
    // Split on the widest axis of the exact bounding box: on clustered data
    // this keeps boxes closer to cubes than depth-cycling, which is what makes
    // the fully-inside/fully-outside tests fire early.
    let mut axis = 0usize;
    let mut widest = f64::NEG_INFINITY;
    for a in 0..dim {
        let w = bbox[dim + a] - bbox[a];
        if w > widest {
            widest = w;
            axis = a;
        }
    }
    let mid = m / 2;
    sub.ids.select_nth_unstable_by(mid, |&x, &y| {
        let cx = ctx.data.point(x as usize)[axis];
        let cy = ctx.data.point(y as usize)[axis];
        cx.partial_cmp(&cy).unwrap_or(std::cmp::Ordering::Equal)
    });
    let (left_ids, right_ids) = sub.ids.split_at_mut(mid);
    let (left_coords, right_coords) = sub.coords.split_at_mut(mid * dim);
    let child_nodes = &mut sub.nodes[1..];
    if fork_levels > 0 && m >= MIN_FORK_POINTS {
        // Both children's node counts are known up front, so their output
        // slices can be split off before either child runs.
        let left_nodes = subtree_nodes(mid);
        let (ln, rn) = child_nodes.split_at_mut(left_nodes);
        let (lb, rb) = child_bounds.split_at_mut(left_nodes * 2 * dim);
        let right_base = sub.node_base + 1 + left_nodes as u32;
        let left = Subtree {
            ids: left_ids,
            coords: left_coords,
            nodes: ln,
            bounds: lb,
            offset: sub.offset,
            node_base: sub.node_base + 1,
        };
        let right = Subtree {
            ids: right_ids,
            coords: right_coords,
            nodes: rn,
            bounds: rb,
            offset: sub.offset + mid,
            node_base: right_base,
        };
        let (used_l, used_r) = ctx.executor.join(
            || build_rec(ctx, left, fork_levels - 1),
            || build_rec(ctx, right, fork_levels - 1),
        );
        debug_assert_eq!(used_l, left_nodes, "left subtree must fill its reserved run exactly");
        sub.nodes[0].right = right_base;
        1 + used_l + used_r
    } else {
        let used_l = build_rec(
            ctx,
            Subtree {
                ids: left_ids,
                coords: left_coords,
                nodes: &mut child_nodes[..],
                bounds: &mut child_bounds[..],
                offset: sub.offset,
                node_base: sub.node_base + 1,
            },
            0,
        );
        let (_, rn) = child_nodes.split_at_mut(used_l);
        let (_, rb) = child_bounds.split_at_mut(used_l * 2 * dim);
        let right_base = sub.node_base + 1 + used_l as u32;
        let used_r = build_rec(
            ctx,
            Subtree {
                ids: right_ids,
                coords: right_coords,
                nodes: rn,
                bounds: rb,
                offset: sub.offset + mid,
                node_base: right_base,
            },
            0,
        );
        sub.nodes[0].right = right_base;
        1 + used_l + used_r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{brute_nn, brute_range_count, random_dataset};
    use dpc_geometry::dist;
    use dpc_rng::StdRng;

    #[test]
    fn empty_tree_behaves() {
        let ds = Dataset::new(2);
        let tree = KdTree::build(&ds);
        assert!(tree.is_empty());
        assert_eq!(tree.range_count(&[0.0, 0.0], 10.0, None), 0);
        assert!(tree.range_search(&[0.0, 0.0], 10.0).is_empty());
        assert!(tree.nearest_neighbor(&[0.0, 0.0], None).is_none());
    }

    #[test]
    fn single_point() {
        let ds = Dataset::from_flat(2, vec![5.0, 5.0]);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.range_count(&[5.0, 5.0], 1.0, None), 1);
        assert_eq!(tree.range_count(&[5.0, 5.0], 1.0, Some(0)), 0);
        assert_eq!(
            tree.nearest_neighbor(&[0.0, 0.0], None),
            Some((0, dist(&[0.0, 0.0], &[5.0, 5.0])))
        );
        assert!(tree.nearest_neighbor(&[0.0, 0.0], Some(0)).is_none());
    }

    #[test]
    fn range_count_matches_brute_force() {
        for dim in [2usize, 3, 4, 8] {
            let ds = random_dataset(300, dim, 42 + dim as u64);
            let tree = KdTree::build(&ds);
            let mut rng = StdRng::seed_from_u64(7);
            for _ in 0..50 {
                let q: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..100.0)).collect();
                let r = rng.gen_range(1.0..40.0);
                assert_eq!(tree.range_count(&q, r, None), brute_range_count(&ds, &q, r, None));
            }
        }
    }

    #[test]
    fn range_count_excludes_query_point() {
        let ds = random_dataset(200, 2, 1);
        let tree = KdTree::build(&ds);
        for id in 0..20 {
            let q = ds.point(id).to_vec();
            assert_eq!(
                tree.range_count(&q, 15.0, Some(id)),
                brute_range_count(&ds, &q, 15.0, Some(id))
            );
        }
    }

    #[test]
    fn whole_tree_inside_ball_uses_subtree_counts() {
        // A radius covering the entire dataset exercises the fully-inside
        // branch at (or near) the root, including the exclusion adjustment.
        let ds = random_dataset(500, 2, 77);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.range_count(&[50.0, 50.0], 1e6, None), 500);
        assert_eq!(tree.range_count(&[50.0, 50.0], 1e6, Some(123)), 499);
        let found = tree.range_search(&[50.0, 50.0], 1e6);
        assert_eq!(found.len(), 500);
    }

    #[test]
    fn range_search_matches_brute_force() {
        let ds = random_dataset(250, 3, 11);
        let tree = KdTree::build(&ds);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..30 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..100.0)).collect();
            let r = rng.gen_range(5.0..50.0);
            let mut got = tree.range_search(&q, r);
            got.sort_unstable();
            let mut want: Vec<usize> =
                ds.iter().filter(|(_, p)| dist(&q, p) <= r).map(|(id, _)| id).collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn zero_radius_matches_exact_duplicates_only() {
        // Closed-ball semantics: radius 0 finds coincident points, nothing else.
        let ds = random_dataset(50, 2, 5);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.range_count(ds.point(0), 0.0, None), 1);
        assert_eq!(tree.range_count(ds.point(0), 0.0, Some(0)), 0);
        assert_eq!(tree.range_search(ds.point(0), 0.0), vec![0]);
        // Negative and NaN radii find nothing.
        assert_eq!(tree.range_count(ds.point(0), -1.0, None), 0);
        assert_eq!(tree.range_count(ds.point(0), f64::NAN, None), 0);
        assert!(tree.range_search(ds.point(0), -1.0).is_empty());
    }

    #[test]
    fn points_exactly_at_the_radius_are_counted() {
        // Definition 1 is a closed ball: a point at distance exactly d_cut
        // counts. The 3-4-5 triangle keeps every distance exact in f64.
        let ds = Dataset::from_flat(
            2,
            vec![0.0, 0.0, 3.0, 4.0, -3.0, 4.0, 4.0, 3.0, 5.0, 0.0, 3.0, 4.0000001, 6.0, 0.0],
        );
        let tree = KdTree::build(&ds);
        // Points 1..=4 are at distance exactly 5 from the origin.
        assert_eq!(tree.range_count(&[0.0, 0.0], 5.0, None), 5);
        assert_eq!(tree.range_count(&[0.0, 0.0], 5.0, Some(0)), 4);
        let mut found = tree.range_search(&[0.0, 0.0], 5.0);
        found.sort_unstable();
        assert_eq!(found, vec![0, 1, 2, 3, 4]);
        assert_eq!(
            tree.range_count(&[0.0, 0.0], 5.0, None),
            brute_range_count(&ds, &[0.0, 0.0], 5.0, None)
        );
    }

    #[test]
    fn nearest_neighbor_matches_brute_force() {
        let ds = random_dataset(400, 2, 99);
        let tree = KdTree::build(&ds);
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..60 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..100.0)).collect();
            let (got_id, got_d) = tree.nearest_neighbor(&q, None).unwrap();
            let (want_id, want_d) = brute_nn(&ds, &q, None).unwrap();
            assert!((got_d - want_d).abs() < 1e-9, "distance mismatch");
            // Ties are possible with random data but vanishingly unlikely;
            // compare distances rather than ids to stay robust.
            assert!((dist(&q, ds.point(got_id)) - dist(&q, ds.point(want_id))).abs() < 1e-9);
        }
    }

    #[test]
    fn build_subset_only_indexes_subset() {
        let ds = random_dataset(120, 2, 31);
        let ids: Vec<usize> = (0..120).step_by(3).collect();
        let tree = KdTree::build_subset(&ds, &ids);
        assert_eq!(tree.len(), ids.len());
        let found = tree.range_search(&[50.0, 50.0], 1000.0);
        assert_eq!(found.len(), ids.len());
        for id in found {
            assert!(ids.contains(&id));
        }
    }

    #[test]
    fn build_subset_honours_exclusion() {
        // Subset trees take the slow membership fallback on the fully-inside
        // branch; exclusion must still be exact, and excluding a point that is
        // not in the subset must be a no-op.
        let ds = random_dataset(90, 2, 8);
        let ids: Vec<usize> = (0..90).step_by(2).collect();
        let tree = KdTree::build_subset(&ds, &ids);
        assert_eq!(tree.range_count(&[50.0, 50.0], 1e6, None), ids.len());
        assert_eq!(tree.range_count(&[50.0, 50.0], 1e6, Some(0)), ids.len() - 1);
        assert_eq!(tree.range_count(&[50.0, 50.0], 1e6, Some(1)), ids.len());
        let sub = ds.select(&ids);
        for id in ids.iter().take(10) {
            let q = ds.point(*id);
            let want = sub.iter().filter(|(_, p)| dist(q, p) <= 20.0).count();
            assert_eq!(tree.range_count(q, 20.0, None), want);
            assert_eq!(tree.range_count(q, 20.0, Some(*id)), want - 1);
        }
    }

    #[test]
    fn duplicate_coordinates_are_all_counted() {
        let ds = Dataset::from_flat(2, vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0, 9.0]);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.range_count(&[1.0, 1.0], 0.5, None), 3);
        assert_eq!(tree.range_count(&[1.0, 1.0], 0.5, Some(0)), 2);
    }

    #[test]
    fn many_duplicates_split_cleanly() {
        // More duplicates than a leaf bucket: the widest-axis split degenerates
        // to zero extent but the median split must still terminate and count
        // exactly.
        let n = 5 * LEAF_BUCKET;
        let ds = Dataset::from_flat(2, vec![3.0; 2 * n]);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.len(), n);
        assert_eq!(tree.range_count(&[3.0, 3.0], 0.1, None), n);
        assert_eq!(tree.range_count(&[3.0, 3.0], 0.1, Some(7)), n - 1);
        assert_eq!(tree.range_search(&[3.0, 3.0], 0.1).len(), n);
        assert_eq!(tree.nearest_neighbor(&[0.0, 0.0], None).map(|(_, d)| d < 5.0), Some(true));
    }

    #[test]
    fn collinear_points_are_handled() {
        let n = 4 * LEAF_BUCKET + 3;
        let coords: Vec<f64> = (0..n).flat_map(|i| [i as f64, 0.0]).collect();
        let ds = Dataset::from_flat(2, coords);
        let tree = KdTree::build(&ds);
        for (q, r, want) in
            [([10.0, 0.0], 2.5, 5usize), ([0.0, 0.0], 1.5, 2), ([n as f64, 0.0], 3.5, 3)]
        {
            assert_eq!(tree.range_count(&q, r, None), want);
            assert_eq!(tree.range_search(&q, r).len(), want);
        }
        let (nn, d) = tree.nearest_neighbor(&[5.4, 1.0], None).unwrap();
        assert_eq!(nn, 5);
        assert!((d - dist(&[5.4, 1.0], &[5.0, 0.0])).abs() < 1e-12);
    }

    #[test]
    fn smaller_than_one_bucket() {
        let ds = random_dataset(LEAF_BUCKET - 3, 3, 21);
        let tree = KdTree::build(&ds);
        assert_eq!(tree.len(), ds.len());
        for id in 0..ds.len() {
            let q = ds.point(id);
            assert_eq!(
                tree.range_count(q, 30.0, Some(id)),
                brute_range_count(&ds, q, 30.0, Some(id))
            );
            let (_, d) = tree.nearest_neighbor(q, Some(id)).unwrap();
            let (_, want) = brute_nn(&ds, q, Some(id)).unwrap();
            assert!((d - want).abs() < 1e-12);
        }
    }

    #[test]
    fn range_search_into_reuses_buffer() {
        let ds = random_dataset(300, 2, 4);
        let tree = KdTree::build(&ds);
        let mut buf = vec![999usize; 10]; // stale content must be cleared
        tree.range_search_into(&[50.0, 50.0], 25.0, &mut buf);
        let mut got = buf.clone();
        got.sort_unstable();
        let mut want: Vec<usize> =
            ds.iter().filter(|(_, p)| dist(&[50.0, 50.0], p) <= 25.0).map(|(id, _)| id).collect();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn subtree_nodes_counts_the_serial_recursion() {
        // Directly check the closed-form count against a reference recursion.
        fn reference(m: usize) -> usize {
            if m <= LEAF_BUCKET {
                1
            } else {
                1 + reference(m / 2) + reference(m - m / 2)
            }
        }
        for m in 1..2_000 {
            assert_eq!(subtree_nodes(m), reference(m), "m = {m}");
        }
        for (n, seed) in [(5usize, 1u64), (100, 2), (4096, 3), (5000, 4)] {
            let ds = random_dataset(n, 2, seed);
            let tree = KdTree::build(&ds);
            assert_eq!(tree.nodes.len(), subtree_nodes(n), "n = {n}");
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        // Large enough to fork several levels (MIN_FORK_POINTS = 1024), plus
        // degenerate shapes: duplicates and fewer points than the threshold.
        let sets = [
            random_dataset(5_000, 2, 11),
            random_dataset(4_099, 3, 12), // odd size: uneven splits at every level
            Dataset::from_flat(2, vec![7.0; 2 * 3000]), // duplicates only
            random_dataset(300, 2, 13),   // below the fork threshold
        ];
        for (i, ds) in sets.iter().enumerate() {
            let serial = KdTree::build(ds);
            for threads in [1usize, 2, 3, 4, 8] {
                let par = KdTree::build_parallel(ds, &Executor::new(threads));
                assert!(par.layout_eq(&serial), "set {i}, threads {threads}");
                assert!(serial.layout_eq(&par), "set {i}, threads {threads} (symmetric)");
            }
        }
    }

    #[test]
    fn parallel_build_answers_queries_identically() {
        let ds = random_dataset(4_000, 2, 44);
        let tree = KdTree::build_parallel(&ds, &Executor::new(4));
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..40 {
            let q = [rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)];
            let r = rng.gen_range(1.0..30.0);
            assert_eq!(tree.range_count(&q, r, None), brute_range_count(&ds, &q, r, None));
        }
    }

    #[test]
    fn layout_eq_detects_differences() {
        let (ds_a, ds_b, ds_c) =
            (random_dataset(200, 2, 1), random_dataset(200, 2, 2), random_dataset(150, 2, 1));
        let a = KdTree::build(&ds_a);
        let b = KdTree::build(&ds_b);
        let c = KdTree::build(&ds_c);
        assert!(!a.layout_eq(&b));
        assert!(!a.layout_eq(&c));
        assert!(a.layout_eq(&a));
    }

    type OwnedParts = (Vec<u32>, Vec<f64>, Option<Vec<u32>>, Vec<PackedNode>, Vec<f64>);

    /// Destructure a tree into owned copies of its packed storage, the way a
    /// decoder hands parts back to [`KdTree::from_packed_parts`].
    fn parts_of(tree: &KdTree) -> OwnedParts {
        let p = tree.packed_parts();
        (
            p.ids.to_vec(),
            p.coords.to_vec(),
            p.pos.map(<[u32]>::to_vec),
            p.nodes.to_vec(),
            p.bounds.to_vec(),
        )
    }

    #[test]
    fn canonical_node_layout_matches_real_builds() {
        assert!(canonical_node_layout(0).is_empty());
        assert_eq!(packed_node_count(0), 0);
        for (n, seed) in
            [(1usize, 1u64), (LEAF_BUCKET, 2), (LEAF_BUCKET + 1, 3), (500, 4), (4099, 5)]
        {
            let ds = random_dataset(n, 2, seed);
            let tree = KdTree::build(&ds);
            let canon = canonical_node_layout(n);
            assert_eq!(canon.len(), packed_node_count(n), "n = {n}");
            assert_eq!(tree.nodes, canon, "n = {n}");
        }
    }

    #[test]
    fn from_packed_parts_round_trips_builds() {
        for (n, dim, seed) in [(0usize, 2usize, 1u64), (7, 3, 2), (500, 2, 3), (2000, 8, 4)] {
            let ds = random_dataset(n, dim, seed);
            let tree = KdTree::build(&ds);
            let (ids, coords, pos, nodes, bounds) = parts_of(&tree);
            let rebuilt = KdTree::from_packed_parts(&ds, ids, coords, pos, nodes, bounds).unwrap();
            assert!(rebuilt.layout_eq(&tree), "n = {n}, dim = {dim}");
        }
        // Subset trees (no position map) round-trip too.
        let ds = random_dataset(120, 2, 9);
        let subset: Vec<usize> = (0..120).step_by(3).collect();
        let tree = KdTree::build_subset(&ds, &subset);
        let (ids, coords, pos, nodes, bounds) = parts_of(&tree);
        assert!(pos.is_none());
        let rebuilt = KdTree::from_packed_parts(&ds, ids, coords, pos, nodes, bounds).unwrap();
        assert!(rebuilt.layout_eq(&tree));
    }

    #[test]
    fn from_packed_parts_round_trips_signed_zero_and_duplicates() {
        // ±0.0 coordinates: the bounds check must accept the build's own
        // boxes whichever zero representative they kept.
        let mut coords = vec![0.0f64; 2 * 4 * LEAF_BUCKET];
        for (i, c) in coords.iter_mut().enumerate() {
            if i % 3 == 0 {
                *c = -0.0;
            }
        }
        coords.extend_from_slice(&[1.0, -1.0, 5.0e-324, -5.0e-324]); // subnormals
        let ds = Dataset::from_flat(2, coords);
        let tree = KdTree::build(&ds);
        let (ids, coords, pos, nodes, bounds) = parts_of(&tree);
        let rebuilt = KdTree::from_packed_parts(&ds, ids, coords, pos, nodes, bounds).unwrap();
        assert!(rebuilt.layout_eq(&tree));
    }

    #[test]
    fn from_packed_parts_rejects_tampered_storage() {
        let ds = random_dataset(300, 2, 6);
        let tree = KdTree::build(&ds);
        let parts = parts_of(&tree);

        // Baseline sanity: unmodified parts are accepted.
        let (i0, c0, p0, n0, b0) = parts.clone();
        assert!(KdTree::from_packed_parts(&ds, i0, c0, p0, n0, b0).is_ok());

        // A duplicated id.
        let (mut ids, c, p, n, b) = parts.clone();
        ids[0] = ids[1];
        assert!(KdTree::from_packed_parts(&ds, ids, c, p, n, b).is_err());

        // An out-of-range id.
        let (mut ids, c, p, n, b) = parts.clone();
        ids[5] = 300;
        assert!(KdTree::from_packed_parts(&ds, ids, c, p, n, b).is_err());

        // A coordinate that disagrees with the dataset (single bit flip).
        let (i, mut c, p, n, b) = parts.clone();
        c[17] = f64::from_bits(c[17].to_bits() ^ 1);
        assert!(KdTree::from_packed_parts(&ds, i, c, p, n, b).is_err());

        // A non-canonical node (range widened by one).
        let (i, c, p, mut n, b) = parts.clone();
        n[1].end += 1;
        assert!(KdTree::from_packed_parts(&ds, i, c, p, n, b).is_err());

        // A right-child index pointing at itself (would loop forever if run).
        let (i, c, p, mut n, b) = parts.clone();
        n[0].right = 0;
        assert!(KdTree::from_packed_parts(&ds, i, c, p, n, b).is_err());

        // A bounding box that no longer covers its points.
        let (i, c, p, n, mut b) = parts.clone();
        b[0] += 1.0;
        assert!(KdTree::from_packed_parts(&ds, i, c, p, n, b).is_err());

        // A corrupted position map entry.
        let (i, c, p, n, b) = parts.clone();
        let mut p = p.unwrap();
        p.swap(0, 1);
        assert!(KdTree::from_packed_parts(&ds, i, c, Some(p), n, b).is_err());

        // Truncated buffers.
        let (i, mut c, p, n, b) = parts.clone();
        c.pop();
        assert!(KdTree::from_packed_parts(&ds, i, c, p, n, b).is_err());
        let (i, c, p, n, mut b) = parts.clone();
        b.pop();
        assert!(KdTree::from_packed_parts(&ds, i, c, p, n, b).is_err());
    }

    #[test]
    fn packed_parts_view_answers_like_the_tree() {
        let ds = random_dataset(600, 3, 23);
        let tree = KdTree::build(&ds);
        let view = tree.packed_parts();
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = Vec::new();
        for _ in 0..40 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..100.0)).collect();
            let r = rng.gen_range(1.0..40.0);
            assert_eq!(view.range_count(&q, r, Some(3)), tree.range_count(&q, r, Some(3)));
            view.range_search_into(&q, r, &mut buf);
            assert_eq!(buf, tree.range_search(&q, r));
            assert_eq!(view.nearest_neighbor(&q, None), tree.nearest_neighbor(&q, None));
        }
    }

    #[test]
    fn mem_usage_scales_with_len() {
        let ds = random_dataset(128, 2, 2);
        let tree = KdTree::build(&ds);
        assert!(tree.mem_usage() >= 128 * std::mem::size_of::<u32>());
    }

    /// `O(n)` reference for `nearest_denser`: the lowest id among the
    /// nearest points with `rank > above`.
    fn brute_denser(ds: &Dataset, q: &[f64], above: f64, rank: &[f64]) -> Option<(usize, f64)> {
        ds.iter()
            .filter(|&(j, _)| rank[j] > above)
            .map(|(j, p)| (j, dist(q, p)))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Checks `nearest_denser` on the tree and on its packed view against
    /// [`brute_denser`], bit for bit, from every point (above its own rank)
    /// and from random off-dataset queries.
    fn assert_denser_matches_brute_force(ds: &Dataset, rank: &[f64], seed: u64) {
        let tree = KdTree::build(ds);
        let node_max = tree.node_max(rank);
        let view = tree.packed_parts();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries: Vec<(Vec<f64>, f64)> =
            (0..ds.len()).map(|i| (ds.point(i).to_vec(), rank[i])).collect();
        for _ in 0..100 {
            let q = (0..ds.dim()).map(|_| rng.gen_range(-20.0..120.0)).collect();
            queries.push((q, rng.gen_range(-1.0..40.0)));
        }
        let bits = |r: Option<(usize, f64)>| r.map(|(j, d)| (j, d.to_bits()));
        for (k, (q, above)) in queries.iter().enumerate() {
            let want = bits(brute_denser(ds, q, *above, rank));
            let got = bits(tree.nearest_denser(q, *above, rank, &node_max));
            assert_eq!(got, want, "seed {seed}, dim {}, query {k}", ds.dim());
            assert_eq!(bits(view.nearest_denser(q, *above, rank, &node_max)), want);
        }
    }

    #[test]
    fn nearest_denser_matches_brute_force() {
        for (dim, n) in [(2usize, 700usize), (3, 500), (8, 300)] {
            let seed = 60 + dim as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let rank: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..30.0)).collect();
            assert_denser_matches_brute_force(&random_dataset(n, dim, seed), &rank, seed);
            // Lattice-snapped duplicates with integer ranks: equal distances
            // and equal ranks everywhere, so the lowest-id rule and the
            // strict `rank > above` decide most answers.
            let mut snapped = random_dataset(n, dim, seed + 100);
            snapped = Dataset::from_flat(
                dim,
                snapped.flat().iter().map(|c| (c / 25.0).floor() * 25.0).collect(),
            );
            let int_rank: Vec<f64> = rank.iter().map(|r| r.floor()).collect();
            assert_denser_matches_brute_force(&snapped, &int_rank, seed + 100);
        }
    }

    #[test]
    fn nearest_denser_honours_a_masked_rank() {
        // Only every third point carries a rank, the rest are masked with
        // −∞ and may never be returned, not even for `above = −∞`.
        let ds = random_dataset(600, 2, 71);
        let rank: Vec<f64> =
            (0..600).map(|j| if j % 3 == 0 { j as f64 } else { f64::NEG_INFINITY }).collect();
        assert_denser_matches_brute_force(&ds, &rank, 71);
        let tree = KdTree::build(&ds);
        let node_max = tree.node_max(&rank);
        for i in 0..40 {
            let (j, _) =
                tree.nearest_denser(ds.point(i), f64::NEG_INFINITY, &rank, &node_max).unwrap();
            assert_eq!(j % 3, 0, "query {i} returned masked point {j}");
        }
    }

    #[test]
    fn nearest_denser_finds_nothing_above_the_maximum_rank() {
        let ds = random_dataset(300, 3, 72);
        let rank: Vec<f64> = (0..300).map(|j| (j % 50) as f64).collect();
        let tree = KdTree::build(&ds);
        let node_max = tree.node_max(&rank);
        assert_eq!(node_max[0], 49.0);
        for above in [49.0, 50.0, f64::INFINITY] {
            assert!(tree.nearest_denser(&[50.0; 3], above, &rank, &node_max).is_none());
        }
        // Just below the maximum only the rank-49 points qualify.
        let (j, _) = tree.nearest_denser(&[50.0; 3], 48.5, &rank, &node_max).unwrap();
        assert_eq!(rank[j], 49.0);
    }

    #[test]
    fn nearest_denser_on_an_empty_tree_and_a_single_point() {
        let empty = KdTree::build(&Dataset::new(2));
        let node_max = empty.node_max(&[]);
        assert!(node_max.is_empty());
        assert!(empty.nearest_denser(&[0.0, 0.0], f64::NEG_INFINITY, &[], &node_max).is_none());

        let ds = Dataset::from_flat(2, vec![3.0, 4.0]);
        let tree = KdTree::build(&ds);
        let node_max = tree.node_max(&[1.0]);
        assert_eq!(tree.nearest_denser(&[0.0, 0.0], 0.5, &[1.0], &node_max), Some((0, 5.0)));
        assert!(tree.nearest_denser(&[0.0, 0.0], 1.0, &[1.0], &node_max).is_none());
    }
}
