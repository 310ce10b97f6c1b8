//! The pointer-arena kd-tree with **incremental insertion and deletion**.
//!
//! The streaming maintenance engine (`StreamingDpc` in `dpc-core`) keeps one
//! of these alive across a stream, inserting arrivals and removing points as
//! a sliding window advances; its δ searches are
//! [`IncrementalKdTree::nearest_denser`] queries and its ρ updates range
//! searches. The paper's §3 dependent-point procedure also
//! runs on it — points inserted in descending local-density order, so a
//! nearest-neighbour query before each insertion sees exactly the denser
//! points — and the property tests keep that procedure as the oracle of the
//! packed tree's `nearest_denser` query. The tree supports `remove` via
//! tombstones with a
//! compaction threshold: a removed node stays in place (its subtree links are
//! still needed for traversal) until tombstones reach a sixteenth of the live
//! points, at which point the live set is re-bulk-loaded into a balanced tree.
//!
//! The tree owns a copy of each inserted point's coordinates, keyed by a
//! caller-chosen `usize` identifier. Identifiers are expected to be dense
//! (they index an internal id → node map): `StreamingDpc` uses slot numbers,
//! the §3 oracle dataset indices.
//!
//! Two maintenance policies keep long-lived mutable trees (the streaming
//! sliding window) query-efficient: tombstones are compacted away once they
//! reach a sixteenth of the live points (the rebuild also restores the
//! cache-friendly preorder arena layout), and an insertion whose descent
//! exceeds a logarithmic depth bound triggers the same rebuild
//! scapegoat-style (rate-limited so rebuilds amortize), so
//! coordinate-drifting streams cannot degenerate the tree into deep spines.
//!
//! Traversals are **iterative** with an explicit stack. The seed used direct
//! recursion, which overflows the thread stack when insertion order is
//! adversarial: stream-order insertion of coordinate-drifting data (a sensor
//! whose readings trend upward, say) degenerates the unbalanced tree into a
//! path of depth `n`, and a recursive query then needs `n` stack frames. The
//! explicit stack keeps memory on the heap and degrades to `O(n)` time, not a
//! crash; `degenerate_insertion_order_is_stack_safe` pins this.
//!
//! The static, bulk-built index used by the local-density phase is the packed
//! [`KdTree`](crate::KdTree); it is immutable by design, which is what allows
//! its contiguous leaf-bucket layout. This arena tree keeps the seed's
//! one-point-per-node representation **and** the seed's balanced bulk
//! construction ([`IncrementalKdTree::build`]), so it doubles as the reference
//! implementation that benches and property tests compare the packed tree
//! against.

use dpc_geometry::distance::dist_sq;
use dpc_geometry::Dataset;

const NONE: u32 = u32::MAX;

/// Tombstones trigger a compacting rebuild once there are more than
/// `COMPACT_MIN_DEAD` of them **and** they reach a sixteenth of the live
/// points. The absolute floor keeps small trees from rebuilding on every
/// removal; the ratio keeps a churning sliding window close to its
/// tombstone-free (and cache-friendly, preorder-laid-out) shape — the
/// rebuild is `O(n log n)` every `n/16` removals, well under the cost of
/// the queries it speeds up (a drifting window degrades measurably within a
/// few thousand skewed arrivals, so frequent cheap rebuilds win).
const COMPACT_MIN_DEAD: usize = 64;

/// Rebuild-rate denominator: both the tombstone compaction and the
/// scapegoat rebalance re-trigger only after `live / COMPACT_RATE` further
/// operations, bounding total rebuild work at a constant factor of the
/// stream.
const COMPACT_RATE: usize = 16;

/// One arena node. `left`/`right` are arena indices (`NONE` when absent).
#[derive(Clone, Debug)]
struct Node {
    /// Caller-supplied point identifier.
    id: u32,
    /// Splitting axis of this node.
    axis: u8,
    /// Tombstone flag: the node still routes traversals but no longer
    /// represents a live point.
    deleted: bool,
    left: u32,
    right: u32,
}

/// A one-point-per-node kd-tree that owns its coordinates, supporting
/// incremental insertion and removal by point identifier.
pub struct IncrementalKdTree {
    dim: usize,
    nodes: Vec<Node>,
    /// Coordinate rows, parallel to `nodes` (`dim` values per node; tombstoned
    /// rows are retained until compaction because their split planes still
    /// route traversals).
    coords: Vec<f64>,
    /// Dense id → arena-index map (`NONE` when the id is not in the tree).
    node_of: Vec<u32>,
    root: u32,
    live: usize,
    dead: usize,
    /// Insertions since the last rebuild; rate-limits the scapegoat rebuild
    /// so a drifting stream that re-trips the depth bound immediately after
    /// a rebalance cannot rebuild on every arrival.
    since_rebuild: usize,
}

impl IncrementalKdTree {
    /// Creates an empty tree for `dim`-dimensional points; points are added
    /// with [`IncrementalKdTree::insert`].
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        Self {
            dim,
            nodes: Vec::new(),
            coords: Vec::new(),
            node_of: Vec::new(),
            root: NONE,
            live: 0,
            dead: 0,
            since_rebuild: 0,
        }
    }

    /// Builds a balanced tree over every point of `data` by recursive median
    /// splitting (split axis cycles through the dimensions), with point `i`
    /// keyed by identifier `i`. This is the seed construction; kept as the
    /// baseline the packed tree is measured against.
    pub fn build(data: &Dataset) -> Self {
        let mut tree = Self::new(data.dim());
        tree.nodes.reserve(data.len());
        tree.coords.reserve(data.len() * data.dim());
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        tree.bulk_load(&ids, data.flat());
        tree
    }

    /// Rebuilds the arena as a balanced tree over `ids` whose coordinate rows
    /// are `rows` (row `k` belongs to `ids[k]`). The arena must be empty.
    fn bulk_load(&mut self, ids: &[u32], rows: &[f64]) {
        debug_assert_eq!(self.live, 0);
        debug_assert_eq!(ids.len() * self.dim, rows.len());
        if ids.is_empty() {
            return;
        }
        let mut order: Vec<u32> = (0..ids.len() as u32).collect();
        self.root = self.bulk_rec(&mut order, ids, rows, 0);
    }

    /// Median-split construction over `order` (indices into `ids`/`rows`).
    /// Unlike the query traversals this may recurse: the median split halves
    /// the slice at every level, so the depth is `O(log n)` by construction.
    /// Nodes land in the arena in DFS preorder, which keeps descents on
    /// nearby cache lines — part of why compaction pays for itself.
    fn bulk_rec(&mut self, order: &mut [u32], ids: &[u32], rows: &[f64], depth: usize) -> u32 {
        let axis = depth % self.dim;
        let mid = order.len() / 2;
        order.select_nth_unstable_by(mid, |&a, &b| {
            let ca = rows[a as usize * self.dim + axis];
            let cb = rows[b as usize * self.dim + axis];
            ca.total_cmp(&cb)
        });
        let row = order[mid] as usize;
        let node_idx =
            self.push_node(ids[row], axis as u8, &rows[row * self.dim..(row + 1) * self.dim]);
        let (lo, rest) = order.split_at_mut(mid);
        let hi = &mut rest[1..];
        let left = if lo.is_empty() { NONE } else { self.bulk_rec(lo, ids, rows, depth + 1) };
        let right = if hi.is_empty() { NONE } else { self.bulk_rec(hi, ids, rows, depth + 1) };
        let node = &mut self.nodes[node_idx as usize];
        node.left = left;
        node.right = right;
        node_idx
    }

    /// Appends a live node to the arena and registers it in the id map.
    fn push_node(&mut self, id: u32, axis: u8, row: &[f64]) -> u32 {
        let idx = self.nodes.len() as u32;
        self.nodes.push(Node { id, axis, deleted: false, left: NONE, right: NONE });
        self.coords.extend_from_slice(row);
        if self.node_of.len() <= id as usize {
            self.node_of.resize(id as usize + 1, NONE);
        }
        self.node_of[id as usize] = idx;
        self.live += 1;
        idx
    }

    #[inline]
    fn node_coords(&self, idx: u32) -> &[f64] {
        &self.coords[idx as usize * self.dim..(idx as usize + 1) * self.dim]
    }

    /// Number of live points currently in the tree.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the tree holds no live points.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dimensionality of the indexed points.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether point `id` is currently live in the tree.
    pub fn contains(&self, id: usize) -> bool {
        self.node_of.get(id).is_some_and(|&idx| idx != NONE)
    }

    /// Inserts `point` under identifier `id`. The identifier must not be live
    /// in the tree (remove it first to relocate a point).
    ///
    /// Insertion follows the usual kd-tree rule: at a node splitting on `axis`,
    /// descend left when the new point's coordinate is strictly smaller than the
    /// node's coordinate and right otherwise. Ex-DPC inserts points in
    /// local-density order, which is essentially random with respect to the
    /// coordinates, so the expected depth stays `O(log n)` as the paper's
    /// analysis assumes. Skewed insertion orders (a drifting stream, or the
    /// outright sorted adversarial case) are caught scapegoat-style: when an
    /// insertion path exceeds a logarithmic depth bound the live points are
    /// re-bulk-loaded into a balanced tree, so queries stay `O(log n)`
    /// amortised instead of degrading towards `O(n)`.
    ///
    /// # Panics
    /// Panics if `point.len() != self.dim()` or (in debug builds) if `id` is
    /// already live.
    pub fn insert(&mut self, id: usize, point: &[f64]) {
        assert_eq!(point.len(), self.dim, "point dimensionality mismatch");
        debug_assert!(!self.contains(id), "id {id} is already in the tree");
        if self.root == NONE {
            self.root = self.push_node(id as u32, 0, point);
            return;
        }
        let mut cur = self.root;
        let mut depth = 1usize;
        loop {
            let node = &self.nodes[cur as usize];
            let axis = node.axis as usize;
            let node_coord = self.coords[cur as usize * self.dim + axis];
            let go_left = point[axis] < node_coord;
            let child = if go_left { node.left } else { node.right };
            if child == NONE {
                let child_axis = ((axis + 1) % self.dim) as u8;
                let new_idx = self.push_node(id as u32, child_axis, point);
                let node = &mut self.nodes[cur as usize];
                if go_left {
                    node.left = new_idx;
                } else {
                    node.right = new_idx;
                }
                break;
            }
            cur = child;
            depth += 1;
        }
        // Scapegoat check: a path this long only exists in a badly skewed
        // tree (sorted or drifting insertion order); rebalance it away. The
        // rate limit keeps the rebuild amortised: a hotspot insertion
        // pattern (a drifting stream always appending at one edge) re-trips
        // the depth bound almost immediately, and rebuilding the whole tree
        // each time would dominate the workload. Between rebuilds the tree
        // is "balanced plus at most `live/8` skewed arrivals", which keeps
        // queries near their balanced cost.
        self.since_rebuild += 1;
        if depth > Self::depth_limit(self.live)
            && self.since_rebuild >= (self.live / COMPACT_RATE).max(COMPACT_MIN_DEAD)
        {
            self.compact();
        }
    }

    /// Insertion paths longer than this trigger a rebalancing rebuild: a
    /// generous multiple of the balanced depth, so random-order insertion
    /// (the Ex-DPC fit path) essentially never rebuilds, while sustained
    /// skew (streaming drift) is repaired after `O(log n)` extra levels.
    fn depth_limit(live: usize) -> usize {
        2 * (usize::BITS - live.leading_zeros()) as usize + 16
    }

    /// Removes point `id` from the tree. Returns `false` when `id` is not
    /// live. The node is tombstoned in place; once tombstones pass the
    /// compaction threshold the live points are re-bulk-loaded into a
    /// balanced tree (which also re-amortises any adversarial insertion
    /// order accumulated so far).
    pub fn remove(&mut self, id: usize) -> bool {
        let Some(&idx) = self.node_of.get(id) else { return false };
        if idx == NONE {
            return false;
        }
        self.nodes[idx as usize].deleted = true;
        self.node_of[id] = NONE;
        self.live -= 1;
        self.dead += 1;
        if self.dead > COMPACT_MIN_DEAD && self.dead * COMPACT_RATE >= self.live {
            self.compact();
        }
        true
    }

    /// Rebuilds the arena from the live nodes only, dropping every tombstone.
    fn compact(&mut self) {
        let mut ids: Vec<u32> = Vec::with_capacity(self.live);
        let mut rows: Vec<f64> = Vec::with_capacity(self.live * self.dim);
        for (idx, node) in self.nodes.iter().enumerate() {
            if !node.deleted {
                ids.push(node.id);
                rows.extend_from_slice(&self.coords[idx * self.dim..(idx + 1) * self.dim]);
            }
        }
        self.nodes.clear();
        self.coords.clear();
        self.root = NONE;
        self.live = 0;
        self.dead = 0;
        self.since_rebuild = 0;
        self.bulk_load(&ids, &rows);
    }

    /// Counts live points whose distance to `query` is **at most** `radius`
    /// (closed ball, Definition 1), **excluding** the point whose identifier
    /// equals `exclude` (pass `None` to count every point).
    pub fn range_count(&self, query: &[f64], radius: f64, exclude: Option<usize>) -> usize {
        if self.root == NONE || self.live == 0 || radius.is_nan() || radius < 0.0 {
            return 0;
        }
        let r_sq = radius * radius;
        let excl = exclude.map(|e| e as u32).unwrap_or(u32::MAX);
        let mut count = 0usize;
        let mut stack: Vec<u32> = Vec::with_capacity(32);
        stack.push(self.root);
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            let coords = self.node_coords(idx);
            if !node.deleted && node.id != excl && dist_sq(query, coords) <= r_sq {
                count += 1;
            }
            let axis = node.axis as usize;
            let diff = query[axis] - coords[axis];
            // The near side always has to be visited; the far side only when
            // the splitting plane is within `radius` of the query (inclusive:
            // a point on the plane can be at distance exactly `radius`).
            let (near, far) =
                if diff < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
            if far != NONE && diff.abs() <= radius {
                stack.push(far);
            }
            if near != NONE {
                stack.push(near);
            }
        }
        count
    }

    /// Collects the identifiers of live points whose distance to `query` is at
    /// most `radius` (closed ball).
    pub fn range_search(&self, query: &[f64], radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.range_search_into(query, radius, &mut out);
        out
    }

    /// Same as [`IncrementalKdTree::range_search`] but collects into a
    /// caller-provided buffer (cleared first).
    pub fn range_search_into(&self, query: &[f64], radius: f64, out: &mut Vec<usize>) {
        out.clear();
        if self.root == NONE || self.live == 0 || radius.is_nan() || radius < 0.0 {
            return;
        }
        let r_sq = radius * radius;
        let mut stack: Vec<u32> = Vec::with_capacity(32);
        stack.push(self.root);
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            let coords = self.node_coords(idx);
            if !node.deleted && dist_sq(query, coords) <= r_sq {
                out.push(node.id as usize);
            }
            let axis = node.axis as usize;
            let diff = query[axis] - coords[axis];
            let (near, far) =
                if diff < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
            if far != NONE && diff.abs() <= radius {
                stack.push(far);
            }
            if near != NONE {
                stack.push(near);
            }
        }
    }

    /// Finds the nearest live neighbour of `query` among the indexed points,
    /// excluding the point whose identifier equals `exclude` (if given).
    ///
    /// Returns `(point id, distance)` or `None` when the tree is empty (or only
    /// contains the excluded point).
    pub fn nearest_neighbor(&self, query: &[f64], exclude: Option<usize>) -> Option<(usize, f64)> {
        if self.root == NONE || self.live == 0 {
            return None;
        }
        let excl = exclude.map(|e| e as u32).unwrap_or(u32::MAX);
        let mut best: Option<(u32, f64)> = None;
        // Each entry carries the squared distance from the query to the
        // splitting plane that guards the subtree; re-checking it against the
        // current best at pop time prunes branches that were still promising
        // when pushed but have been beaten since.
        let mut stack: Vec<(u32, f64)> = Vec::with_capacity(32);
        stack.push((self.root, 0.0));
        while let Some((idx, plane_sq)) = stack.pop() {
            if best.is_some_and(|(_, b)| plane_sq >= b) {
                continue;
            }
            let node = &self.nodes[idx as usize];
            let coords = self.node_coords(idx);
            if !node.deleted && node.id != excl {
                let d_sq = dist_sq(query, coords);
                if best.is_none_or(|(_, b)| d_sq < b) {
                    best = Some((node.id, d_sq));
                }
            }
            let axis = node.axis as usize;
            let diff = query[axis] - coords[axis];
            let (near, far) =
                if diff < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
            // Push the far side first so the near side is explored first
            // (LIFO), shrinking `best` before the far bound is re-checked.
            if far != NONE {
                stack.push((far, diff * diff));
            }
            if near != NONE {
                stack.push((near, plane_sq));
            }
        }
        best.map(|(id, d_sq)| (id as usize, d_sq.sqrt()))
    }

    /// The nearest live point `j` with `rank[j] > above`, as `(j, distance)`;
    /// `None` when no live point ranks above `above`. Among equally near
    /// points the **lowest id** wins, and the distance is
    /// `dist_sq(..).sqrt()`, bit for bit the `dist` kernel. `rank` is indexed
    /// by point id and must cover every id in the tree.
    ///
    /// This is the arena twin of [`KdTree::nearest_denser`](crate::KdTree::nearest_denser)
    /// and serves the same δ search (`rank` = ρ, `above` = the query's own
    /// ρ, so the query point never qualifies). A mutable tree keeps no
    /// subtree rank maxima, so only the split planes prune, and a subtree is
    /// skipped only when its plane lies strictly farther than the best
    /// distance so far (an equally near lower id may still be behind it).
    pub fn nearest_denser(&self, query: &[f64], above: f64, rank: &[f64]) -> Option<(usize, f64)> {
        if self.root == NONE {
            return None;
        }
        let mut best_id = NONE;
        let mut best_d = f64::INFINITY;
        let mut stack: Vec<(u32, f64)> = Vec::with_capacity(32);
        stack.push((self.root, 0.0));
        while let Some((idx, plane_sq)) = stack.pop() {
            if plane_sq > best_d {
                continue;
            }
            let node = &self.nodes[idx as usize];
            let coords = self.node_coords(idx);
            if !node.deleted && rank[node.id as usize] > above {
                let d = dist_sq(query, coords);
                if d < best_d || (d == best_d && node.id < best_id) {
                    best_d = d;
                    best_id = node.id;
                }
            }
            let axis = node.axis as usize;
            let diff = query[axis] - coords[axis];
            let (near, far) =
                if diff < 0.0 { (node.left, node.right) } else { (node.right, node.left) };
            if far != NONE {
                stack.push((far, plane_sq.max(diff * diff)));
            }
            if near != NONE {
                stack.push((near, plane_sq));
            }
        }
        (best_id != NONE).then(|| (best_id as usize, best_d.sqrt()))
    }

    /// Approximate heap memory used by the index, in bytes (arena nodes, the
    /// owned coordinate rows, and the id map).
    pub fn mem_usage(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.coords.capacity() * std::mem::size_of::<f64>()
            + self.node_of.capacity() * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{brute_nn, brute_range_count, random_dataset};
    use dpc_geometry::dist;
    use dpc_rng::StdRng;

    fn insert_all(ds: &Dataset) -> IncrementalKdTree {
        let mut tree = IncrementalKdTree::new(ds.dim());
        for id in 0..ds.len() {
            tree.insert(id, ds.point(id));
        }
        tree
    }

    #[test]
    fn empty_tree_behaves() {
        let tree = IncrementalKdTree::new(2);
        assert!(tree.is_empty());
        assert_eq!(tree.range_count(&[0.0, 0.0], 10.0, None), 0);
        assert!(tree.range_search(&[0.0, 0.0], 10.0).is_empty());
        assert!(tree.nearest_neighbor(&[0.0, 0.0], None).is_none());
        assert!(!tree.contains(0));
    }

    #[test]
    fn incremental_insert_matches_bulk_queries() {
        let ds = random_dataset(300, 3, 123);
        let bulk = IncrementalKdTree::build(&ds);
        let inc = insert_all(&ds);
        assert_eq!(inc.len(), bulk.len());
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..40 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..100.0)).collect();
            let r = rng.gen_range(5.0..30.0);
            assert_eq!(inc.range_count(&q, r, None), bulk.range_count(&q, r, None));
            let a = inc.nearest_neighbor(&q, None).unwrap();
            let b = bulk.nearest_neighbor(&q, None).unwrap();
            assert!((a.1 - b.1).abs() < 1e-9);
        }
    }

    #[test]
    fn incremental_insert_partial_tree_sees_only_inserted_points() {
        let ds = random_dataset(100, 2, 9);
        let mut tree = IncrementalKdTree::new(ds.dim());
        for id in 0..50 {
            tree.insert(id, ds.point(id));
        }
        let q = ds.point(75).to_vec();
        let sub = ds.select(&(0..50).collect::<Vec<_>>());
        let want = brute_nn(&sub, &q, None).unwrap();
        let got = tree.nearest_neighbor(&q, None).unwrap();
        assert!((got.1 - want.1).abs() < 1e-9);
        assert!(got.0 < 50, "must only return inserted ids");
    }

    #[test]
    fn nearest_neighbor_matches_brute_force() {
        let ds = random_dataset(400, 2, 99);
        let tree = IncrementalKdTree::build(&ds);
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
    fn exclusion_is_honoured() {
        let mut tree = IncrementalKdTree::new(2);
        tree.insert(0, &[5.0, 5.0]);
        assert_eq!(tree.range_count(&[5.0, 5.0], 1.0, None), 1);
        assert_eq!(tree.range_count(&[5.0, 5.0], 1.0, Some(0)), 0);
        assert!(tree.nearest_neighbor(&[0.0, 0.0], Some(0)).is_none());
    }

    #[test]
    fn mem_usage_scales_with_len() {
        let ds = random_dataset(128, 2, 2);
        let tree = IncrementalKdTree::build(&ds);
        assert!(tree.mem_usage() >= 128 * std::mem::size_of::<u32>());
    }

    /// Removal must hide points from every query form; the ids stay free for
    /// re-insertion (possibly at new coordinates).
    #[test]
    fn removal_matches_brute_force_on_survivors() {
        let ds = random_dataset(400, 3, 31);
        let mut tree = IncrementalKdTree::build(&ds);
        let removed: Vec<usize> = (0..ds.len()).filter(|i| i % 3 == 0).collect();
        for &id in &removed {
            assert!(tree.remove(id));
            assert!(!tree.remove(id), "double removal must report absence");
            assert!(!tree.contains(id));
        }
        let survivors: Vec<usize> = (0..ds.len()).filter(|i| i % 3 != 0).collect();
        assert_eq!(tree.len(), survivors.len());
        let sub = ds.select(&survivors);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..40 {
            let q: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..100.0)).collect();
            let r = rng.gen_range(5.0..30.0);
            assert_eq!(tree.range_count(&q, r, None), brute_range_count(&sub, &q, r, None));
            let mut hits = tree.range_search(&q, r);
            hits.sort_unstable();
            let mut want: Vec<usize> =
                survivors.iter().copied().filter(|&i| dist(&q, ds.point(i)) <= r).collect();
            want.sort_unstable();
            assert_eq!(hits, want);
            let got = tree.nearest_neighbor(&q, None).unwrap();
            let brute = brute_nn(&sub, &q, None).unwrap();
            assert!((got.1 - brute.1).abs() < 1e-9);
        }
        // Freed ids can be reused at new coordinates.
        tree.insert(0, &[1000.0, 1000.0, 1000.0]);
        assert!(tree.contains(0));
        let (id, d) = tree.nearest_neighbor(&[1000.0, 1000.0, 1000.0], None).unwrap();
        assert_eq!(id, 0);
        assert_eq!(d, 0.0);
    }

    /// Mass removal crosses the compaction threshold; queries must be
    /// unaffected and the tombstones actually dropped.
    #[test]
    fn compaction_preserves_queries() {
        let ds = random_dataset(600, 2, 5);
        let mut tree = IncrementalKdTree::build(&ds);
        for id in 0..500 {
            assert!(tree.remove(id));
        }
        assert_eq!(tree.len(), 100);
        assert!(tree.dead <= COMPACT_MIN_DEAD, "compaction must keep tombstones bounded");
        assert_eq!(tree.nodes.len(), tree.live + tree.dead);
        assert!(tree.nodes.len() <= 100 + COMPACT_MIN_DEAD, "arena must have been compacted");
        let survivors: Vec<usize> = (500..600).collect();
        let sub = ds.select(&survivors);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..30 {
            let q: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..100.0)).collect();
            let r = rng.gen_range(5.0..40.0);
            assert_eq!(tree.range_count(&q, r, None), brute_range_count(&sub, &q, r, None));
            let got = tree.nearest_neighbor(&q, None).unwrap();
            let brute = brute_nn(&sub, &q, None).unwrap();
            assert!((got.1 - brute.1).abs() < 1e-9);
            assert!(got.0 >= 500, "tombstoned ids must never be reported");
        }
    }

    #[test]
    fn duplicate_coordinates_are_removable_by_id() {
        let mut tree = IncrementalKdTree::new(2);
        for id in 0..5 {
            tree.insert(id, &[3.0, 4.0]);
        }
        assert_eq!(tree.range_count(&[3.0, 4.0], 0.0, None), 5);
        assert!(tree.remove(2));
        assert_eq!(tree.range_count(&[3.0, 4.0], 0.0, None), 4);
        let hits = tree.range_search(&[3.0, 4.0], 0.0);
        assert!(!hits.contains(&2));
        assert_eq!(hits.len(), 4);
        let (id, d) = tree.nearest_neighbor(&[3.0, 4.0], Some(0)).unwrap();
        assert_ne!(id, 0);
        assert_ne!(id, 2);
        assert_eq!(d, 0.0);
    }

    /// A churning sliding window: coordinate-drifting insertion order plus
    /// batched trailing-edge removals. The scapegoat depth check and the
    /// tombstone-ratio compaction must together keep every query exact
    /// through sustained drift (this is the streaming engine's access
    /// pattern; without rebalancing the tree degenerates into a spine).
    #[test]
    fn drifting_window_churn_stays_exact() {
        let window = 600usize;
        let batch = 50usize;
        let dim = 2usize;
        let mut tree = IncrementalKdTree::new(dim);
        let mut rng = StdRng::seed_from_u64(404);
        let mut pts: Vec<Vec<f64>> = Vec::new();
        let mut oldest = 0usize;
        let point = |i: usize, rng: &mut StdRng| -> Vec<f64> {
            // Strong drift in x: each arrival is to the right of the last.
            vec![i as f64 * 0.5 + rng.gen_range(0.0..2.0), rng.gen_range(0.0..40.0)]
        };
        for i in 0..window {
            let p = point(i, &mut rng);
            tree.insert(i, &p);
            pts.push(p);
        }
        for round in 0..20 {
            for _ in 0..batch {
                let i = pts.len();
                let p = point(i, &mut rng);
                tree.insert(i, &p);
                pts.push(p);
            }
            for _ in 0..batch {
                assert!(tree.remove(oldest));
                oldest += 1;
            }
            assert_eq!(tree.len(), window);
            let live: Vec<usize> = (oldest..pts.len()).collect();
            let q = pts[oldest + (round * 37) % window].clone();
            let r = 5.0;
            let want = live.iter().filter(|&&i| dist(&q, &pts[i]) <= r).count();
            assert_eq!(tree.range_count(&q, r, None), want);
            let (nn, nd) = tree.nearest_neighbor(&q, Some(oldest + (round * 37) % window)).unwrap();
            assert!(live.contains(&nn));
            let brute = live
                .iter()
                .filter(|&&i| i != oldest + (round * 37) % window)
                .map(|&i| dist(&q, &pts[i]))
                .fold(f64::INFINITY, f64::min);
            assert!((nd - brute).abs() < 1e-9);
        }
    }

    /// `O(n)` reference for `nearest_denser` over the live ids of `tree`:
    /// the lowest id among the nearest points with `rank > above`.
    fn brute_denser(
        tree: &IncrementalKdTree,
        ds: &Dataset,
        q: &[f64],
        above: f64,
        rank: &[f64],
    ) -> Option<(usize, f64)> {
        (0..ds.len())
            .filter(|&j| tree.contains(j) && rank[j] > above)
            .map(|j| (j, dist(q, ds.point(j))))
            .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))
    }

    /// Checks `nearest_denser` against [`brute_denser`], id and δ bits, from
    /// every point of `ds` (live or removed, above its own rank) and from
    /// random off-dataset queries.
    fn assert_denser_matches_brute_force(
        tree: &IncrementalKdTree,
        ds: &Dataset,
        rank: &[f64],
        seed: u64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut queries: Vec<(Vec<f64>, f64)> =
            (0..ds.len()).map(|i| (ds.point(i).to_vec(), rank[i])).collect();
        for _ in 0..100 {
            let q = (0..ds.dim()).map(|_| rng.gen_range(-20.0..120.0)).collect();
            queries.push((q, rng.gen_range(-1.0..40.0)));
        }
        let bits = |r: Option<(usize, f64)>| r.map(|(j, d)| (j, d.to_bits()));
        for (k, (q, above)) in queries.iter().enumerate() {
            let want = bits(brute_denser(tree, ds, q, *above, rank));
            let got = bits(tree.nearest_denser(q, *above, rank));
            assert_eq!(got, want, "seed {seed}, dim {}, query {k}", ds.dim());
        }
    }

    /// The two tree states a stream leaves behind: a third of the points
    /// tombstoned in place (below the compaction threshold), and a third of
    /// a larger tree removed, which compacts it.
    fn assert_denser_after_removals(ds: &Dataset, rank: &[f64], seed: u64) {
        let mut tombstoned = IncrementalKdTree::new(ds.dim());
        for id in 0..180 {
            tombstoned.insert(id, ds.point(id));
        }
        for id in (0..180).step_by(3) {
            assert!(tombstoned.remove(id));
        }
        assert_eq!(tombstoned.dead, 60, "the removals must stay tombstones");
        assert_denser_matches_brute_force(&tombstoned, ds, rank, seed);

        let mut compacted = IncrementalKdTree::build(ds);
        for id in (0..ds.len()).step_by(3) {
            assert!(compacted.remove(id));
        }
        assert!(compacted.nodes.len() < ds.len(), "the removals must have compacted the arena");
        assert_denser_matches_brute_force(&compacted, ds, rank, seed + 1);
    }

    #[test]
    fn nearest_denser_matches_brute_force() {
        for dim in [2usize, 3, 8] {
            let n = 600;
            let seed = 80 + dim as u64;
            let mut rng = StdRng::seed_from_u64(seed);
            let rank: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..30.0)).collect();
            assert_denser_after_removals(&random_dataset(n, dim, seed), &rank, seed);
            // Lattice-snapped duplicates with integer ranks: equal distances
            // and equal ranks everywhere, so the lowest-id rule and the
            // strict `rank > above` decide most answers.
            let snapped = Dataset::from_flat(
                dim,
                random_dataset(n, dim, seed + 100)
                    .flat()
                    .iter()
                    .map(|c| (c / 25.0).floor() * 25.0)
                    .collect(),
            );
            let int_rank: Vec<f64> = rank.iter().map(|r| r.floor()).collect();
            assert_denser_after_removals(&snapped, &int_rank, seed + 100);
        }
    }

    #[test]
    fn nearest_denser_honours_a_masked_rank_and_the_maximum() {
        // Only every third point carries a rank; the rest are masked with
        // −∞ and may never be returned, not even for `above = −∞`.
        let ds = random_dataset(600, 2, 91);
        let masked: Vec<f64> =
            (0..600).map(|j| if j % 3 == 0 { j as f64 } else { f64::NEG_INFINITY }).collect();
        let mut tree = IncrementalKdTree::build(&ds);
        for id in (1..600).step_by(7) {
            tree.remove(id);
        }
        assert_denser_matches_brute_force(&tree, &ds, &masked, 91);
        for i in 0..40 {
            let (j, _) = tree.nearest_denser(ds.point(i), f64::NEG_INFINITY, &masked).unwrap();
            assert_eq!(j % 3, 0, "query {i} returned masked point {j}");
        }
        // Nothing ranks above the maximum rank.
        let rank: Vec<f64> = (0..600).map(|j| (j % 50) as f64).collect();
        for above in [49.0, 50.0, f64::INFINITY] {
            assert!(tree.nearest_denser(&[50.0; 2], above, &rank).is_none());
        }
        let (j, _) = tree.nearest_denser(&[50.0; 2], 48.5, &rank).unwrap();
        assert_eq!(rank[j], 49.0);
    }

    #[test]
    fn nearest_denser_on_an_empty_tree_and_a_single_point() {
        let empty = IncrementalKdTree::new(2);
        assert!(empty.nearest_denser(&[0.0, 0.0], f64::NEG_INFINITY, &[]).is_none());

        let mut tree = IncrementalKdTree::new(2);
        tree.insert(0, &[3.0, 4.0]);
        assert_eq!(tree.nearest_denser(&[0.0, 0.0], 0.5, &[1.0]), Some((0, 5.0)));
        assert!(tree.nearest_denser(&[0.0, 0.0], 1.0, &[1.0]).is_none());
        // A tombstone still routes the traversal but is never an answer.
        tree.remove(0);
        assert!(tree.nearest_denser(&[0.0, 0.0], 0.5, &[1.0]).is_none());
    }

    /// Regression for the recursive traversals of the seed: inserting points
    /// in sorted coordinate order degenerates the unbalanced tree into a path,
    /// and a recursive query then needs one stack frame per point. Run the
    /// whole scenario on a deliberately small (256 KiB) stack — the old code
    /// overflows it at this size; the explicit-stack traversals must not.
    #[test]
    fn degenerate_insertion_order_is_stack_safe() {
        let handle = std::thread::Builder::new()
            .name("tiny-stack".into())
            .stack_size(256 * 1024)
            .spawn(|| {
                let n = 8_000usize;
                let mut tree = IncrementalKdTree::new(2);
                for i in 0..n {
                    // Strictly increasing in both axes: every insert descends
                    // the full right spine, so the tree is a path of depth n.
                    tree.insert(i, &[i as f64, i as f64]);
                }
                assert_eq!(tree.len(), n);
                let q = [n as f64 / 2.0, n as f64 / 2.0];
                let want = (0..n).filter(|&i| dist(&q, &[i as f64, i as f64]) <= 10.0).count();
                assert_eq!(tree.range_count(&q, 10.0, None), want);
                assert_eq!(tree.range_search(&q, 10.0).len(), want);
                let (id, d) = tree.nearest_neighbor(&q, None).unwrap();
                assert_eq!(id, n / 2);
                assert!(d.abs() < 1e-12);
                // Removal along the path keeps the (still degenerate)
                // structure traversable.
                for i in (0..n).step_by(2) {
                    assert!(tree.remove(i));
                }
                assert_eq!(tree.len(), n / 2);
                let (id, _) = tree.nearest_neighbor(&q, None).unwrap();
                assert!(id % 2 == 1);
            })
            .expect("spawn tiny-stack thread");
        handle.join().expect("degenerate-order traversals must not overflow the stack");
    }
}
