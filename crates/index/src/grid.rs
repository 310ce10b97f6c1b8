//! The uniform grid used by Approx-DPC and S-Approx-DPC.
//!
//! Cells are `d`-dimensional squares with a caller-chosen side length
//! (`d_cut/√d` for Approx-DPC, `ε·d_cut/√d` for S-Approx-DPC, §4.1/§5). The grid
//! is built online: a cell exists only if at least one point falls inside it, so
//! the number of cells is at most `n` and the space stays `O(n)`.
//!
//! The storage is CSR (compressed sparse row), mirroring what the packed
//! kd-tree did for leaf buckets:
//!
//! * **Packed membership.** One `offsets` array plus one packed `point id`
//!   array hold every cell's membership: cell `c` covers
//!   `packed[offsets[c]..offsets[c + 1]]`, ascending point id. Cell iteration
//!   reads one contiguous strip — no per-cell `Vec`, no per-cell heap
//!   allocation after the build.
//! * **Packed coordinate rows.** The coordinates of `packed` are copied into a
//!   matching row-major buffer (exactly like the kd-tree's leaf buckets), so a
//!   distance scan over a cell ([`Grid::coords`], [`Grid::count_within_cell`])
//!   reads one contiguous strip and can go through the batched — optionally
//!   SIMD — kernels of `dpc_geometry::batch`.
//! * **Interned keys.** Integer cell keys live in one flat `i64` buffer (`dim`
//!   values per cell, cell-id order) instead of one boxed slice per cell.
//! * **Open-addressing key table.** Key → cell-id probes go through a small
//!   linear-probing table whose slots store only cell ids; comparisons read
//!   the interned key buffer. Probe keys are computed into caller-reusable
//!   scratch, so lookups allocate nothing.
//! * **Counting-sort build.** One pass assigns cell ids (in first-appearance
//!   order) and counts members, a prefix sum turns counts into `offsets`, and
//!   a stable scatter pass fills `packed`.
//! * **Parallel construction.** [`Grid::build_parallel`] shards the
//!   key-assignment pass over contiguous point ranges (one splitmix64
//!   linear-probing table per shard), merges the shard tables into the global
//!   cell-id assignment in global first-appearance order, and scatters the
//!   CSR arrays in parallel per cell range. The **determinism contract**,
//!   pinned by the grid layout-identity test suite: the result is
//!   **byte-for-byte identical** to [`Grid::build`] — same interned key
//!   buffer, key table, CSR `offsets`/packed ids/coordinate rows and
//!   point→cell map, floats compared by bit pattern — at every thread count
//!   ([`Grid::layout_eq`] is the bitwise comparison). Every caller (the
//!   Approx-DPC and S-Approx-DPC fit paths) can therefore adopt the parallel
//!   build with no behavioural change whatsoever.
//!
//! The grid stores the point membership of every cell and the reverse mapping
//! from point id to cell id. Algorithm-specific per-cell metadata (the maximum
//! density point `p*(c)`, `min ρ`, the neighbour set `N(c)`) lives with the
//! algorithms in `dpc-core`, because it depends on local densities that are only
//! known mid-run.

use dpc_geometry::Dataset;
use dpc_parallel::Executor;

use crate::batchq::balanced_ranges;

/// Identifier of a grid cell (dense index, `0..grid.num_cells()`).
pub type CellId = usize;

/// Integer cell coordinates (per-dimension floor of `(x - origin) / side`).
pub type CellKey = Box<[i64]>;

/// Empty slot marker of the open-addressing key table.
const EMPTY: u32 = u32::MAX;

/// Minimum dataset size before [`Grid::build_parallel`] shards the build:
/// below this the scoped spawns cost more than the per-point hashing they
/// hand out, so the build runs serially (bit-identical either way).
const MIN_PARALLEL_POINTS: usize = 4096;

/// Bucket-formation target of [`Grid::query_buckets`]: cells keep merging
/// neighbours until a bucket covers at least this many points (a bucket
/// anchored on a larger cell stays a singleton). Large enough to amortize a
/// shared traversal, small enough to keep per-node active sets cheap.
pub const MIN_BUCKET_POINTS: usize = 64;

/// Above this dimensionality [`Grid::query_buckets`] skips the `3^d − 1`
/// Chebyshev neighbour enumeration (whose count explodes with `d`) and merges
/// small cells by consecutive cell id only.
const NEIGHBOR_MERGE_MAX_DIM: usize = 4;

/// How many consecutive cell ids past the anchor [`Grid::query_buckets`]
/// scans for additional small cells after the Chebyshev pass. Cell ids are
/// assigned in first-appearance order, which tracks data locality, so nearby
/// ids are usually nearby cells; the bound keeps the sweep `O(num_cells)`
/// overall.
const CONSECUTIVE_MERGE_WINDOW: usize = 64;

/// A uniform grid over the points of a dataset.
#[derive(Debug)]
pub struct Grid {
    dim: usize,
    side: f64,
    origin: Vec<f64>,
    /// Interned cell keys: `dim` values per cell, in cell-id order.
    keys: Vec<i64>,
    /// CSR offsets: cell `c` covers `packed[offsets[c]..offsets[c + 1]]`.
    /// `num_cells() + 1` entries once built — `[0]` for an empty dataset;
    /// only the transient value inside `build`'s first pass is empty.
    offsets: Vec<usize>,
    /// Point identifiers grouped by cell, ascending within each cell.
    packed: Vec<usize>,
    /// Coordinates of `packed` in the same order, row-major (`dim` values per
    /// point): cell `c`'s rows are `coord_rows[offsets[c]·dim..offsets[c+1]·dim]`.
    coord_rows: Vec<f64>,
    /// Linear-probing key table: each slot holds a cell id or [`EMPTY`].
    /// Power-of-two length, load factor ≤ 3/4.
    table: Vec<u32>,
    /// `point_cell[p]` is the cell containing point `p`.
    point_cell: Vec<CellId>,
}

/// Deterministic hash of an integer cell key (a splitmix64 finalizer per
/// lane): adjacent lattice keys differ only in low bits, so every lane is
/// fully mixed before it is folded into the accumulator.
fn hash_key(key: &[i64]) -> u64 {
    let mut h = 0x9e37_79b9_7f4a_7c15u64;
    for &v in key {
        let mut x = (v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        h = (h ^ (x ^ (x >> 31))).wrapping_mul(0xff51_afd7_ed55_8ccd);
    }
    h
}

/// Computes the integer cell key of `coords` into a reused buffer.
fn fill_key_into(coords: &[f64], origin: &[f64], side: f64, key: &mut Vec<i64>) {
    debug_assert_eq!(coords.len(), origin.len());
    key.clear();
    key.extend(coords.iter().zip(origin.iter()).map(|(&c, &o)| ((c - o) / side).floor() as i64));
}

/// Looks `key` up in a linear-probing `table` whose slots index the flat
/// interned `keys` buffer. Allocation-free.
fn probe_table(keys: &[i64], table: &[u32], dim: usize, key: &[i64]) -> Option<usize> {
    if table.is_empty() {
        return None;
    }
    let mask = table.len() - 1;
    let mut i = hash_key(key) as usize & mask;
    loop {
        let slot = table[i];
        if slot == EMPTY {
            return None;
        }
        let cid = slot as usize;
        if &keys[cid * dim..(cid + 1) * dim] == key {
            return Some(cid);
        }
        i = (i + 1) & mask;
    }
}

/// Appends `key` to the flat `keys` buffer as the next cell id and inserts it
/// into `table`, growing (and rehashing from the interned keys) when the load
/// factor would exceed 3/4. Returns the new id.
///
/// Every build path — the serial single pass, the shard-local tables of the
/// parallel build, and its merge — interns through this one function, so the
/// growth schedule (and with it the final table bytes) depends only on the
/// sequence of interned keys, never on who interned them.
fn intern_key(keys: &mut Vec<i64>, table: &mut Vec<u32>, dim: usize, key: &[i64]) -> usize {
    let cid = keys.len() / dim;
    keys.extend_from_slice(key);
    if (cid + 1) * 4 > table.len() * 3 {
        let capacity = (table.len() * 2).max(16);
        let mask = capacity - 1;
        let mut grown = vec![EMPTY; capacity];
        for existing in 0..cid {
            let mut i = hash_key(&keys[existing * dim..(existing + 1) * dim]) as usize & mask;
            while grown[i] != EMPTY {
                i = (i + 1) & mask;
            }
            grown[i] = existing as u32;
        }
        *table = grown;
    }
    let mask = table.len() - 1;
    let mut i = hash_key(key) as usize & mask;
    while table[i] != EMPTY {
        i = (i + 1) & mask;
    }
    table[i] = cid as u32;
    cid
}

/// CSR offsets from per-cell counts: `counts.len() + 1` entries starting at 0.
fn prefix_sum(counts: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(counts.len() + 1);
    let mut acc = 0usize;
    offsets.push(0);
    for &c in counts {
        acc += c;
        offsets.push(acc);
    }
    offsets
}

/// One shard of the parallel key-assignment pass: the keys met in one
/// contiguous point range, interned in shard-local first-appearance order.
struct Shard {
    /// Flat interned keys, `dim` values per local cell.
    keys: Vec<i64>,
    /// Members of each local cell within the shard's range.
    counts: Vec<usize>,
    /// Local cell id of every point of the range, in point order.
    point_local: Vec<u32>,
    /// Global index of the first point of each local cell (the point that
    /// interned it). Feeds the global first-appearance table that lets the
    /// scatter pass skip straight to each cell range's first point.
    first_seen: Vec<usize>,
}

impl Grid {
    /// Shared construction prologue: validates `side`, fixes the origin at the
    /// dataset's bounding-box low corner, and returns a grid with empty
    /// storage.
    ///
    /// # Panics
    /// Panics if `side` is not strictly positive and finite.
    fn empty_shell(data: &Dataset, side: f64) -> Self {
        assert!(side.is_finite() && side > 0.0, "cell side must be positive and finite");
        let dim = data.dim();
        let origin = match data.bounding_rect() {
            Some(rect) => rect.lo().to_vec(),
            None => vec![0.0; dim],
        };
        Self {
            dim,
            side,
            origin,
            keys: Vec::new(),
            offsets: Vec::new(),
            packed: Vec::new(),
            coord_rows: Vec::new(),
            table: Vec::new(),
            point_cell: Vec::new(),
        }
    }

    /// Builds the grid for `data` with the given cell side length, serially.
    /// This is the reference layout [`Grid::build_parallel`] reproduces
    /// byte for byte.
    ///
    /// # Panics
    /// Panics if `side` is not strictly positive and finite.
    pub fn build(data: &Dataset, side: f64) -> Self {
        let mut grid = Self::empty_shell(data, side);
        let (dim, n) = (grid.dim, data.len());
        grid.point_cell.reserve_exact(n);
        // Pass 1: assign cell ids in first-appearance order, counting members.
        // The probe key is computed into one reused scratch buffer and only
        // interned (appended to the flat key buffer) when it names a brand-new
        // cell, so this pass allocates O(#cells) key storage rather than O(n).
        let mut counts: Vec<usize> = Vec::new();
        let mut scratch: Vec<i64> = Vec::with_capacity(dim);
        for (_, coords) in data.iter() {
            fill_key_into(coords, &grid.origin, grid.side, &mut scratch);
            let cell_id = match probe_table(&grid.keys, &grid.table, dim, &scratch) {
                Some(cid) => cid,
                None => {
                    let cid = intern_key(&mut grid.keys, &mut grid.table, dim, &scratch);
                    counts.push(0);
                    cid
                }
            };
            counts[cell_id] += 1;
            grid.point_cell.push(cell_id);
        }
        // Pass 2: prefix-sum the counts into CSR offsets, then scatter the
        // point ids stably (ascending id within each cell).
        let offsets = prefix_sum(&counts);
        let mut cursor: Vec<usize> = offsets[..counts.len()].to_vec();
        let mut packed = vec![0usize; n];
        let mut coord_rows = vec![0.0f64; n * dim];
        for (p, &c) in grid.point_cell.iter().enumerate() {
            let slot = cursor[c];
            packed[slot] = p;
            coord_rows[slot * dim..(slot + 1) * dim].copy_from_slice(data.point(p));
            cursor[c] += 1;
        }
        grid.offsets = offsets;
        grid.packed = packed;
        grid.coord_rows = coord_rows;
        grid
    }

    /// Builds the grid for `data` in parallel on the executor's workers:
    /// the key-assignment pass is sharded over contiguous point ranges (one
    /// local splitmix64 linear-probing table each), the shard tables are
    /// merged into the global cell-id assignment in global first-appearance
    /// order, and the counting-sort scatter runs in parallel per cell range.
    ///
    /// The result is **byte-for-byte identical** to [`Grid::build`] at every
    /// thread count (see [`Grid::layout_eq`]):
    ///
    /// * walking the shards in point order and each shard's local cells in
    ///   local first-appearance order visits every distinct key exactly in
    ///   the order the serial single pass first meets it, so interning the
    ///   merged keys through the shared intern routine reproduces the serial
    ///   cell ids, flat key buffer and table bytes;
    /// * a contiguous cell range owns a contiguous span of `packed`, and each
    ///   scatter task fills its span by one pass over the point→cell map in
    ///   ascending point order — the same stable order as the serial scatter.
    ///
    /// Datasets below a size threshold (or a single-threaded executor) take
    /// the serial path directly with zero spawns.
    ///
    /// # Panics
    /// Panics if `side` is not strictly positive and finite.
    pub fn build_parallel(data: &Dataset, side: f64, executor: &Executor) -> Self {
        let n = data.len();
        if executor.threads() == 1 || n < MIN_PARALLEL_POINTS {
            return Self::build(data, side);
        }
        let mut grid = Self::empty_shell(data, side);
        let dim = grid.dim;

        // Pass 1 (parallel): shard the key assignment over contiguous point
        // ranges; each shard resolves its points against its own local table.
        let origin = &grid.origin;
        let shards: Vec<Shard> = executor.map_chunks(n, |range| {
            let mut keys: Vec<i64> = Vec::new();
            let mut table: Vec<u32> = Vec::new();
            let mut counts: Vec<usize> = Vec::new();
            let mut point_local: Vec<u32> = Vec::with_capacity(range.len());
            let mut first_seen: Vec<usize> = Vec::new();
            let mut scratch: Vec<i64> = Vec::with_capacity(dim);
            for p in range {
                fill_key_into(data.point(p), origin, side, &mut scratch);
                let lid = match probe_table(&keys, &table, dim, &scratch) {
                    Some(lid) => lid,
                    None => {
                        let lid = intern_key(&mut keys, &mut table, dim, &scratch);
                        counts.push(0);
                        first_seen.push(p);
                        lid
                    }
                };
                counts[lid] += 1;
                point_local.push(lid as u32);
            }
            Shard { keys, counts, point_local, first_seen }
        });

        // Merge (serial, O(Σ distinct local cells) — #cells · #shards at
        // worst, not O(n)): intern the shard keys into the global table in
        // global first-appearance order and accumulate the global counts.
        // `first_global[gid]` is the index of the first point of cell `gid` —
        // shards are walked in point order, so the first shard that knows a
        // key holds its global first appearance; cell ids are assigned in that
        // same order, making `first_global` strictly increasing.
        let mut counts: Vec<usize> = Vec::new();
        let mut first_global: Vec<usize> = Vec::new();
        let mut local_to_global: Vec<Vec<u32>> = Vec::with_capacity(shards.len());
        for shard in &shards {
            let mut map = Vec::with_capacity(shard.counts.len());
            for (lid, &local_count) in shard.counts.iter().enumerate() {
                let key = &shard.keys[lid * dim..(lid + 1) * dim];
                let gid = match probe_table(&grid.keys, &grid.table, dim, key) {
                    Some(gid) => gid,
                    None => {
                        let gid = intern_key(&mut grid.keys, &mut grid.table, dim, key);
                        counts.push(0);
                        first_global.push(shard.first_seen[lid]);
                        gid
                    }
                };
                counts[gid] += local_count;
                map.push(gid as u32);
            }
            local_to_global.push(map);
        }

        // Point→cell map (parallel): translate each shard's local ids through
        // its merge map into the shard's disjoint slice of the global array.
        let mut point_cell = vec![0usize; n];
        {
            let mut tasks = Vec::with_capacity(shards.len());
            let mut rest: &mut [usize] = &mut point_cell;
            for (shard, map) in shards.iter().zip(&local_to_global) {
                let (mine, tail) = rest.split_at_mut(shard.point_local.len());
                rest = tail;
                tasks.push(move || {
                    for (dst, &lid) in mine.iter_mut().zip(&shard.point_local) {
                        *dst = map[lid as usize] as usize;
                    }
                });
            }
            executor.fan_out(tasks);
        }
        grid.point_cell = point_cell;

        // Pass 2 (parallel): prefix-sum offsets, then scatter per cell range.
        // The packed span of a contiguous cell range is itself contiguous, so
        // every task owns disjoint slices of `packed`/`coord_rows`; range
        // boundaries are chosen on cell borders so the spans balance by
        // point count (`balanced_ranges` over the offsets). Each task scans only the point→cell slice that can
        // contain its cells: cell ids follow first-appearance order, so every
        // point before `first_global[lo]` belongs to a cell below `lo`, and
        // the scan stops as soon as the task's span is full — the same
        // ascending point order (hence byte-identical layout) as before, at a
        // fraction of the map reads.
        let offsets = prefix_sum(&counts);
        let mut packed = vec![0usize; n];
        let mut coord_rows = vec![0.0f64; n * dim];
        {
            let bounds = balanced_ranges(&offsets, executor.threads());
            let point_cell = &grid.point_cell;
            let mut tasks = Vec::with_capacity(bounds.len() - 1);
            let mut packed_rest: &mut [usize] = &mut packed;
            let mut coord_rest: &mut [f64] = &mut coord_rows;
            for run in bounds.windows(2) {
                let (lo, hi) = (run[0], run[1]);
                let span = offsets[hi] - offsets[lo];
                let (packed_mine, packed_tail) = packed_rest.split_at_mut(span);
                packed_rest = packed_tail;
                let (coords_mine, coords_tail) = coord_rest.split_at_mut(span * dim);
                coord_rest = coords_tail;
                if span == 0 {
                    continue;
                }
                let base = offsets[lo];
                let start_p = first_global[lo];
                let mut cursor: Vec<usize> = offsets[lo..hi].to_vec();
                tasks.push(move || {
                    let mut remaining = span;
                    for (off, &c) in point_cell[start_p..].iter().enumerate() {
                        if c < lo || c >= hi {
                            continue;
                        }
                        let p = start_p + off;
                        let slot = cursor[c - lo] - base;
                        cursor[c - lo] += 1;
                        packed_mine[slot] = p;
                        coords_mine[slot * dim..(slot + 1) * dim].copy_from_slice(data.point(p));
                        remaining -= 1;
                        if remaining == 0 {
                            break;
                        }
                    }
                });
            }
            executor.fan_out(tasks);
        }
        grid.offsets = offsets;
        grid.packed = packed;
        grid.coord_rows = coord_rows;
        grid
    }

    /// Computes the integer cell key of `coords` into a reused buffer.
    fn fill_key(&self, coords: &[f64], key: &mut Vec<i64>) {
        debug_assert_eq!(coords.len(), self.dim);
        fill_key_into(coords, &self.origin, self.side, key);
    }

    /// The interned key of cell `cid` (valid for any already-interned id).
    #[inline]
    fn interned_key(&self, cid: usize) -> &[i64] {
        &self.keys[cid * self.dim..(cid + 1) * self.dim]
    }

    /// Looks `key` up in the open-addressing table. Allocation-free.
    fn probe(&self, key: &[i64]) -> Option<CellId> {
        probe_table(&self.keys, &self.table, self.dim, key)
    }

    /// The integer cell key of an arbitrary coordinate (allocating convenience
    /// form of the scratch-buffer lookup the hot paths use).
    pub fn key_of(&self, coords: &[f64]) -> CellKey {
        let mut key = Vec::with_capacity(self.dim);
        self.fill_key(coords, &mut key);
        key.into_boxed_slice()
    }

    /// The cell containing an arbitrary coordinate, if such a cell exists
    /// (i.e. if at least one dataset point shares that cell).
    pub fn cell_at(&self, coords: &[f64]) -> Option<CellId> {
        let mut scratch = Vec::with_capacity(self.dim);
        self.cell_at_scratch(coords, &mut scratch)
    }

    /// Same as [`Grid::cell_at`] but computes the probe key into a
    /// caller-reusable buffer, so repeated probes (point→cell lookups,
    /// neighbour enumeration) are allocation-free: the probe hashes the
    /// scratch slice and compares it against the interned flat key buffer
    /// without boxing anything.
    pub fn cell_at_scratch(&self, coords: &[f64], scratch: &mut Vec<i64>) -> Option<CellId> {
        self.fill_key(coords, scratch);
        self.probe(scratch)
    }

    /// The cell containing dataset point `point_id`.
    ///
    /// # Panics
    /// Panics if `point_id` is out of range.
    pub fn cell_of(&self, point_id: usize) -> CellId {
        self.point_cell[point_id]
    }

    /// Looks up a cell id by its integer key.
    pub fn cell_by_key(&self, key: &[i64]) -> Option<CellId> {
        if key.len() != self.dim {
            return None;
        }
        self.probe(key)
    }

    /// Number of non-empty cells.
    pub fn num_cells(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Dimensionality of the grid.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Cell side length.
    pub fn side(&self) -> f64 {
        self.side
    }

    /// Identifiers of the points covered by cell `cell` (`P(c)` in the paper),
    /// ascending. A contiguous slice of the packed CSR array.
    pub fn points(&self, cell: CellId) -> &[usize] {
        &self.packed[self.offsets[cell]..self.offsets[cell + 1]]
    }

    /// Row-major coordinates of [`Grid::points`]`(cell)`, in the same order —
    /// one contiguous strip, ready for the batched kernels of
    /// `dpc_geometry::batch`.
    pub fn coords(&self, cell: CellId) -> &[f64] {
        &self.coord_rows[self.offsets[cell] * self.dim..self.offsets[cell + 1] * self.dim]
    }

    /// Number of points of cell `cell` within the **closed** ball of `radius`
    /// around `query` (`dist ≤ radius`, Definition 1 semantics), scanned over
    /// the cell's contiguous coordinate rows with the batch kernel. A negative
    /// or NaN radius counts nothing.
    pub fn count_within_cell(&self, cell: CellId, query: &[f64], radius: f64) -> usize {
        if radius.is_nan() || radius < 0.0 {
            return 0;
        }
        dpc_geometry::batch::count_within(query, self.coords(cell), self.dim, radius * radius)
    }

    /// Integer key of cell `cell` — a slice of the interned flat key buffer.
    pub fn key(&self, cell: CellId) -> &[i64] {
        assert!(cell < self.num_cells(), "cell id {cell} out of range");
        self.interned_key(cell)
    }

    /// The centre coordinate of cell `cell` (the query point `cp_i` of the joint
    /// range search, §4.2).
    pub fn center(&self, cell: CellId) -> Vec<f64> {
        self.key(cell)
            .iter()
            .zip(self.origin.iter())
            .map(|(&k, &o)| o + (k as f64 + 0.5) * self.side)
            .collect()
    }

    /// Iterates over all cell identifiers.
    pub fn cell_ids(&self) -> impl Iterator<Item = CellId> {
        0..self.num_cells()
    }

    /// Existing (non-empty) cells whose integer key differs from `cell`'s key by
    /// at most `chebyshev` in every dimension, excluding `cell` itself.
    ///
    /// With side `d_cut/√d`, every point within `d_cut` of a point in `cell`
    /// lies in a cell within Chebyshev distance `⌈√d⌉` — a constant for fixed
    /// `d`, which is what makes `|N(c)| = O(1)` in the paper's analysis.
    pub fn neighbors_within(&self, cell: CellId, chebyshev: i64) -> Vec<CellId> {
        let key = self.key(cell);
        let mut out = Vec::new();
        let mut offset = vec![-chebyshev; self.dim];
        let mut probe: Vec<i64> = vec![0; self.dim];
        loop {
            let mut all_zero = true;
            let mut in_range = true;
            for i in 0..self.dim {
                if offset[i] != 0 {
                    all_zero = false;
                }
                match key[i].checked_add(offset[i]) {
                    Some(k) => probe[i] = k,
                    // A key component at the i64 extreme has no representable
                    // neighbour on that side — and no cell past it either.
                    None => {
                        in_range = false;
                        break;
                    }
                }
            }
            if !all_zero && in_range {
                if let Some(cid) = self.probe(&probe) {
                    out.push(cid);
                }
            }
            // Advance the mixed-radix counter over offsets.
            let mut axis = 0;
            loop {
                if axis == self.dim {
                    return out;
                }
                offset[axis] += 1;
                if offset[axis] <= chebyshev {
                    break;
                }
                offset[axis] = -chebyshev;
                axis += 1;
            }
        }
    }

    /// Whether two grids have bit-identical layouts: same geometry (side and
    /// origin compared by float bit pattern, so even a `-0.0` vs `0.0`
    /// discrepancy fails), interned key buffer, key table, CSR
    /// `offsets`/packed point ids/coordinate rows, and point→cell map. This
    /// is the property [`Grid::build_parallel`] guarantees against
    /// [`Grid::build`] at every thread count, and what the grid
    /// layout-identity test suite asserts.
    pub fn layout_eq(&self, other: &Self) -> bool {
        let bits_eq = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && std::iter::zip(a, b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        self.dim == other.dim
            && self.side.to_bits() == other.side.to_bits()
            && bits_eq(&self.origin, &other.origin)
            && self.keys == other.keys
            && self.table == other.table
            && self.offsets == other.offsets
            && self.packed == other.packed
            && bits_eq(&self.coord_rows, &other.coord_rows)
            && self.point_cell == other.point_cell
    }

    /// Groups the grid's cells into **query buckets** for the batched range
    /// engine (`dpc_index::batchq`): each bucket is a set of spatially
    /// adjacent cells whose points (or centres) form one bucket of query
    /// balls sharing a single tree descent.
    ///
    /// Formation is a deterministic greedy sweep in cell-id order: a cell
    /// with at least [`MIN_BUCKET_POINTS`] points anchors a singleton bucket;
    /// a smaller cell absorbs still-unassigned small neighbours (Chebyshev
    /// distance 1, enumerated in the fixed [`Grid::neighbors_within`] order;
    /// consecutive cell ids instead when `d` makes `3^d` enumeration too
    /// wide) until the bucket reaches the target. Every cell lands in exactly
    /// one bucket.
    ///
    /// The result depends only on the grid layout — which is byte-identical
    /// at every thread count — so bucket order, and the within-bucket query
    /// order derived from the CSR point order, are fixed inputs to the
    /// deterministic batched traversals.
    pub fn query_buckets(&self) -> QueryBuckets {
        let num_cells = self.num_cells();
        let mut assigned = vec![false; num_cells];
        let mut cells: Vec<CellId> = Vec::with_capacity(num_cells);
        let mut offsets: Vec<usize> = Vec::with_capacity(num_cells / 2 + 2);
        offsets.push(0);
        let cell_len = |c: CellId| self.offsets[c + 1] - self.offsets[c];
        for c in 0..num_cells {
            if assigned[c] {
                continue;
            }
            assigned[c] = true;
            cells.push(c);
            let mut size = cell_len(c);
            if size < MIN_BUCKET_POINTS {
                if self.dim <= NEIGHBOR_MERGE_MAX_DIM {
                    for nb in self.neighbors_within(c, 1) {
                        if size >= MIN_BUCKET_POINTS {
                            break;
                        }
                        if assigned[nb] || cell_len(nb) >= MIN_BUCKET_POINTS {
                            continue;
                        }
                        assigned[nb] = true;
                        cells.push(nb);
                        size += cell_len(nb);
                    }
                }
                // Consecutive-id fallback (the only pass above
                // `NEIGHBOR_MERGE_MAX_DIM`): absorb small unassigned cells
                // from a bounded id window past the anchor — ids are
                // assigned in first-appearance order, so the window tracks
                // data locality even when the Chebyshev shell is exhausted.
                let window_end = num_cells.min(c + 1 + CONSECUTIVE_MERGE_WINDOW);
                for (nb, taken) in assigned.iter_mut().enumerate().take(window_end).skip(c + 1) {
                    if size >= MIN_BUCKET_POINTS {
                        break;
                    }
                    if *taken {
                        continue;
                    }
                    if cell_len(nb) >= MIN_BUCKET_POINTS {
                        break;
                    }
                    *taken = true;
                    cells.push(nb);
                    size += cell_len(nb);
                }
            }
            offsets.push(cells.len());
        }
        QueryBuckets { offsets, cells }
    }

    /// Approximate heap memory used by the grid, in bytes. Everything is flat:
    /// the interned key buffer, the CSR offsets and packed point ids, the key
    /// table, and the point→cell map.
    pub fn mem_usage(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<i64>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
            + self.packed.capacity() * std::mem::size_of::<usize>()
            + self.coord_rows.capacity() * std::mem::size_of::<f64>()
            + self.table.capacity() * std::mem::size_of::<u32>()
            + self.point_cell.capacity() * std::mem::size_of::<CellId>()
            + self.origin.capacity() * std::mem::size_of::<f64>()
    }
}

/// A partition of a grid's cells into query buckets, produced by
/// [`Grid::query_buckets`]. CSR layout: bucket `b` covers
/// `cells()[offsets[b]..offsets[b + 1]]`, and concatenating the buckets
/// enumerates every cell exactly once.
#[derive(Debug, Clone)]
pub struct QueryBuckets {
    offsets: Vec<usize>,
    cells: Vec<CellId>,
}

impl QueryBuckets {
    /// Number of buckets.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no buckets (empty grid).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cells of bucket `b`, anchor cell first.
    pub fn bucket(&self, b: usize) -> &[CellId] {
        &self.cells[self.offsets[b]..self.offsets[b + 1]]
    }

    /// All cells in bucket-concatenation order (a permutation of the grid's
    /// cell ids); `flat_cells()[k]` is the cell behind flat slot `k`.
    pub fn flat_cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Iterates over the buckets in order.
    pub fn iter(&self) -> impl Iterator<Item = &[CellId]> + '_ {
        (0..self.len()).map(move |b| self.bucket(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_rng::StdRng;

    fn square_dataset() -> Dataset {
        // Nine points on a 3×3 lattice with spacing 10.
        let mut ds = Dataset::new(2);
        for x in 0..3 {
            for y in 0..3 {
                ds.push(&[x as f64 * 10.0, y as f64 * 10.0]);
            }
        }
        ds
    }

    #[test]
    fn every_point_is_assigned_to_exactly_one_cell() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        let total: usize = grid.cell_ids().map(|c| grid.points(c).len()).sum();
        assert_eq!(total, ds.len());
        for id in 0..ds.len() {
            let cell = grid.cell_of(id);
            assert!(grid.points(cell).contains(&id));
        }
    }

    #[test]
    fn no_empty_cells_are_created() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 1.0);
        for c in grid.cell_ids() {
            assert!(!grid.points(c).is_empty());
        }
        // Points are 10 apart and cells are 1 wide: every point gets its own cell.
        assert_eq!(grid.num_cells(), ds.len());
    }

    #[test]
    fn large_cells_merge_points() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 100.0);
        assert_eq!(grid.num_cells(), 1);
        assert_eq!(grid.points(0).len(), 9);
    }

    #[test]
    fn cell_at_and_key_round_trip() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        for (id, coords) in ds.iter() {
            assert_eq!(grid.cell_at(coords), Some(grid.cell_of(id)));
            let key = grid.key_of(coords).to_vec();
            assert_eq!(grid.cell_by_key(&key), Some(grid.cell_of(id)));
        }
        assert_eq!(grid.cell_at(&[-500.0, -500.0]), None);
        // A key of the wrong dimensionality finds nothing (and terminates).
        assert_eq!(grid.cell_by_key(&[0]), None);
        assert_eq!(grid.cell_by_key(&[0, 0, 0]), None);
    }

    #[test]
    fn cell_at_scratch_matches_cell_at() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 7.0);
        let mut scratch = Vec::new();
        for (_, coords) in ds.iter() {
            assert_eq!(grid.cell_at_scratch(coords, &mut scratch), grid.cell_at(coords));
        }
        assert_eq!(grid.cell_at_scratch(&[-500.0, -500.0], &mut scratch), None);
        // The scratch buffer holds the last probed key.
        assert_eq!(scratch.as_slice(), grid.key_of(&[-500.0, -500.0]).as_ref());
    }

    #[test]
    fn center_lies_inside_cell() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 7.0);
        for c in grid.cell_ids() {
            let center = grid.center(c);
            assert_eq!(grid.key_of(&center).as_ref(), grid.key(c));
        }
    }

    #[test]
    fn points_in_same_cell_are_within_side_times_sqrt_d() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut ds = Dataset::new(3);
        for _ in 0..500 {
            ds.push(&[
                rng.gen_range(0.0..50.0),
                rng.gen_range(0.0..50.0),
                rng.gen_range(0.0..50.0),
            ]);
        }
        let side = 4.0;
        let grid = Grid::build(&ds, side);
        let max_dist = side * (3.0f64).sqrt() + 1e-9;
        for c in grid.cell_ids() {
            let pts = grid.points(c);
            for &a in pts {
                for &b in pts {
                    assert!(dpc_geometry::dist(ds.point(a), ds.point(b)) <= max_dist);
                }
            }
        }
    }

    #[test]
    fn neighbors_within_finds_adjacent_cells() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        // The centre point (10,10) has all 8 surrounding lattice cells occupied.
        let centre_cell = grid.cell_at(&[10.0, 10.0]).unwrap();
        let n1 = grid.neighbors_within(centre_cell, 1);
        assert_eq!(n1.len(), 8);
        assert!(!n1.contains(&centre_cell));
        // A corner cell has only 3 occupied neighbours.
        let corner = grid.cell_at(&[0.0, 0.0]).unwrap();
        assert_eq!(grid.neighbors_within(corner, 1).len(), 3);
    }

    #[test]
    fn neighbors_within_larger_radius() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        let corner = grid.cell_at(&[0.0, 0.0]).unwrap();
        assert_eq!(grid.neighbors_within(corner, 2).len(), 8);
    }

    #[test]
    fn empty_dataset_builds_empty_grid() {
        let ds = Dataset::new(2);
        let grid = Grid::build(&ds, 5.0);
        assert_eq!(grid.num_cells(), 0);
        assert_eq!(grid.cell_at(&[1.0, 1.0]), None);
    }

    #[test]
    #[should_panic(expected = "cell side must be positive")]
    fn zero_side_panics() {
        let ds = square_dataset();
        let _ = Grid::build(&ds, 0.0);
    }

    #[test]
    fn mem_usage_reported() {
        let ds = square_dataset();
        let grid = Grid::build(&ds, 10.0);
        assert!(grid.mem_usage() > 0);
    }

    #[test]
    fn csr_layout_is_compact_and_sorted() {
        let mut rng = StdRng::seed_from_u64(71);
        let mut ds = Dataset::new(2);
        for _ in 0..800 {
            ds.push(&[rng.gen_range(0.0..60.0), rng.gen_range(0.0..60.0)]);
        }
        let grid = Grid::build(&ds, 4.5);
        // Offsets are monotone and cover every point exactly once.
        assert_eq!(grid.offsets.len(), grid.num_cells() + 1);
        assert_eq!(*grid.offsets.first().unwrap(), 0);
        assert_eq!(*grid.offsets.last().unwrap(), ds.len());
        assert!(grid.offsets.windows(2).all(|w| w[0] < w[1]), "no cell may be empty");
        // The packed array is a permutation of 0..n, ascending within a cell.
        let mut seen = vec![false; ds.len()];
        for c in grid.cell_ids() {
            let pts = grid.points(c);
            assert!(pts.windows(2).all(|w| w[0] < w[1]), "cell {c} not ascending");
            for &p in pts {
                assert!(!seen[p]);
                seen[p] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
        // The interned key buffer holds exactly one key per cell.
        assert_eq!(grid.keys.len(), grid.num_cells() * grid.dim());
    }

    #[test]
    fn coord_rows_match_packed_points() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut ds = Dataset::new(3);
        for _ in 0..400 {
            ds.push(&[
                rng.gen_range(0.0..40.0),
                rng.gen_range(0.0..40.0),
                rng.gen_range(0.0..40.0),
            ]);
        }
        let grid = Grid::build(&ds, 6.0);
        for c in grid.cell_ids() {
            let pts = grid.points(c);
            let rows = grid.coords(c);
            assert_eq!(rows.len(), pts.len() * grid.dim());
            for (k, &p) in pts.iter().enumerate() {
                assert_eq!(&rows[k * 3..(k + 1) * 3], ds.point(p));
            }
        }
    }

    #[test]
    fn count_within_cell_is_inclusive_at_the_boundary() {
        // One cell holding the origin, a 3-4-5 boundary point, and a far point.
        let ds = Dataset::from_flat(2, vec![0.0, 0.0, 3.0, 4.0, 9.0, 9.0]);
        let grid = Grid::build(&ds, 100.0);
        assert_eq!(grid.num_cells(), 1);
        assert_eq!(grid.count_within_cell(0, &[0.0, 0.0], 5.0), 2);
        assert_eq!(grid.count_within_cell(0, &[0.0, 0.0], 5.0 - 1e-9), 1);
        assert_eq!(grid.count_within_cell(0, &[0.0, 0.0], 0.0), 1);
        assert_eq!(grid.count_within_cell(0, &[0.0, 0.0], -1.0), 0);
        assert_eq!(grid.count_within_cell(0, &[0.0, 0.0], f64::NAN), 0);
    }

    #[test]
    fn cell_ids_follow_first_appearance_order() {
        // Cell ids are assigned in order of each cell's first point, exactly
        // as the previous per-cell-Vec layout did — downstream code (e.g.
        // S-Approx-DPC's "first point of the cell is the picked point") relies
        // on this.
        let mut ds = Dataset::new(2);
        for &x in &[5.0, 55.0, 5.0, 105.0, 55.0, 5.0] {
            ds.push(&[x, 0.0]);
        }
        let grid = Grid::build(&ds, 50.0);
        assert_eq!(grid.num_cells(), 3);
        assert_eq!(grid.cell_of(0), 0);
        assert_eq!(grid.cell_of(1), 1);
        assert_eq!(grid.cell_of(3), 2);
        assert_eq!(grid.points(0), &[0, 2, 5]);
        assert_eq!(grid.points(1), &[1, 4]);
        assert_eq!(grid.points(2), &[3]);
    }

    #[test]
    fn duplicate_heavy_input_interns_each_key_once() {
        // 600 points in 4 distinct locations: 4 cells, 4 interned keys, and
        // the key table keeps resolving every point after several growths of
        // unrelated cells would have been possible.
        let mut ds = Dataset::new(2);
        for i in 0..600 {
            let corner = (i % 4) as f64;
            ds.push(&[corner * 30.0, corner * 30.0]);
        }
        let grid = Grid::build(&ds, 10.0);
        assert_eq!(grid.num_cells(), 4);
        assert_eq!(grid.keys.len(), 4 * 2);
        let total: usize = grid.cell_ids().map(|c| grid.points(c).len()).sum();
        assert_eq!(total, 600);
        for id in 0..ds.len() {
            assert_eq!(grid.cell_of(id), id % 4);
        }
    }

    /// A dataset large enough to clear MIN_PARALLEL_POINTS, with `dim`
    /// coordinates drawn uniformly from `[0, extent)`.
    fn parallel_sized_dataset(n: usize, dim: usize, extent: f64, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut row = vec![0.0f64; dim];
        for _ in 0..n {
            for v in row.iter_mut() {
                *v = rng.gen_range(0.0..extent);
            }
            ds.push(&row);
        }
        ds
    }

    #[test]
    fn parallel_build_is_bit_identical_to_serial() {
        use dpc_parallel::Executor;
        let sets = [
            // Many cells, forked shards.
            (parallel_sized_dataset(6_000, 2, 100.0, 3), 4.0),
            // 3-d, odd size (uneven shard splits at every thread count).
            (parallel_sized_dataset(5_003, 3, 80.0, 4), 7.5),
            // Every point in one cell.
            (parallel_sized_dataset(5_000, 2, 5.0, 5), 1_000.0),
            // Below the parallel threshold: the serial fallback path.
            (parallel_sized_dataset(500, 2, 100.0, 6), 4.0),
        ];
        for (i, (ds, side)) in sets.iter().enumerate() {
            let serial = Grid::build(ds, *side);
            for threads in [1usize, 2, 3, 4, 8] {
                let par = Grid::build_parallel(ds, *side, &Executor::new(threads));
                assert!(par.layout_eq(&serial), "set {i}, threads {threads}");
                assert!(serial.layout_eq(&par), "set {i}, threads {threads} (symmetric)");
            }
        }
    }

    #[test]
    fn parallel_build_answers_lookups_identically() {
        use dpc_parallel::Executor;
        let ds = parallel_sized_dataset(8_000, 2, 200.0, 9);
        let grid = Grid::build_parallel(&ds, 6.0, &Executor::new(4));
        let reference = Grid::build(&ds, 6.0);
        let mut scratch = Vec::new();
        for (id, coords) in ds.iter() {
            assert_eq!(grid.cell_of(id), reference.cell_of(id));
            assert_eq!(grid.cell_at_scratch(coords, &mut scratch), Some(grid.cell_of(id)));
        }
        for c in grid.cell_ids() {
            assert_eq!(grid.points(c), reference.points(c));
            assert_eq!(grid.coords(c), reference.coords(c));
            assert_eq!(grid.neighbors_within(c, 1), reference.neighbors_within(c, 1));
        }
    }

    #[test]
    fn layout_eq_detects_differences() {
        // Mirrors kdtree.rs::layout_eq_detects_differences: a mutated layout
        // in any array — keys, packed ids, coordinate rows, reverse map or
        // geometry — must be detected.
        let ds = parallel_sized_dataset(300, 2, 60.0, 11);
        let grid = Grid::build(&ds, 4.0);
        assert!(grid.layout_eq(&grid));

        let other = Grid::build(&parallel_sized_dataset(300, 2, 60.0, 12), 4.0);
        assert!(!grid.layout_eq(&other), "different dataset must differ");
        let coarser = Grid::build(&ds, 9.0);
        assert!(!grid.layout_eq(&coarser), "different side must differ");

        let mut mutated = Grid::build(&ds, 4.0);
        mutated.packed.swap(0, 1);
        assert!(!grid.layout_eq(&mutated), "swapped packed ids must differ");

        let mut mutated = Grid::build(&ds, 4.0);
        mutated.coord_rows[0] = -mutated.coord_rows[0];
        assert!(!grid.layout_eq(&mutated), "flipped coordinate bit must differ");

        let mut mutated = Grid::build(&ds, 4.0);
        mutated.keys[0] += 1;
        assert!(!grid.layout_eq(&mutated), "mutated interned key must differ");

        let mut mutated = Grid::build(&ds, 4.0);
        let last = mutated.point_cell.len() - 1;
        mutated.point_cell.swap(0, last);
        assert!(!grid.layout_eq(&mutated), "permuted reverse map must differ");

        // -0.0 vs 0.0 in the geometry is a bit difference, not an equality
        // (the lattice dataset's origin is exactly 0.0).
        let lattice = Grid::build(&square_dataset(), 10.0);
        let mut mutated = Grid::build(&square_dataset(), 10.0);
        mutated.origin[0] = -0.0;
        assert_eq!(mutated.origin[0], lattice.origin[0]);
        assert!(!lattice.layout_eq(&mutated), "-0.0 origin must differ bitwise");
    }

    #[test]
    fn query_buckets_partition_every_cell_exactly_once() {
        for (ds, side) in [
            (parallel_sized_dataset(3_000, 2, 100.0, 21), 4.0),
            (parallel_sized_dataset(2_000, 3, 60.0, 22), 5.0),
            // High-d: the consecutive-id merge path.
            (parallel_sized_dataset(800, 8, 30.0, 23), 8.0),
            // One giant cell.
            (parallel_sized_dataset(500, 2, 5.0, 24), 1_000.0),
        ] {
            let grid = Grid::build(&ds, side);
            let buckets = grid.query_buckets();
            let mut seen = vec![false; grid.num_cells()];
            for bucket in buckets.iter() {
                assert!(!bucket.is_empty());
                for &c in bucket {
                    assert!(!seen[c], "cell {c} assigned twice");
                    seen[c] = true;
                }
            }
            assert!(seen.into_iter().all(|s| s));
            assert_eq!(buckets.flat_cells().len(), grid.num_cells());
        }
    }

    #[test]
    fn query_buckets_merge_small_neighbor_cells() {
        // A fine grid over a lattice: every cell holds one point, so buckets
        // must merge neighbours instead of staying singletons.
        let mut ds = Dataset::new(2);
        for x in 0..8 {
            for y in 0..8 {
                ds.push(&[x as f64, y as f64]);
            }
        }
        let grid = Grid::build(&ds, 1.0);
        assert_eq!(grid.num_cells(), 64);
        let buckets = grid.query_buckets();
        assert!(buckets.len() < grid.num_cells(), "small cells must merge");
        // Deterministic: two sweeps agree exactly.
        let again = grid.query_buckets();
        assert_eq!(buckets.flat_cells(), again.flat_cells());
        assert_eq!(buckets.len(), again.len());
    }

    #[test]
    fn query_buckets_on_empty_grid() {
        let grid = Grid::build(&Dataset::new(2), 5.0);
        let buckets = grid.query_buckets();
        assert!(buckets.is_empty());
        assert_eq!(buckets.iter().count(), 0);
    }

    #[test]
    fn table_growth_keeps_all_cells_resolvable() {
        // Enough distinct cells to force several grow-and-rehash rounds
        // (initial capacity 16, load factor 3/4).
        let mut ds = Dataset::new(2);
        for x in 0..40 {
            for y in 0..40 {
                ds.push(&[x as f64 * 10.0, y as f64 * 10.0]);
            }
        }
        let grid = Grid::build(&ds, 10.0);
        assert_eq!(grid.num_cells(), 1600);
        assert!(grid.table.len() >= 1600 * 4 / 3);
        assert!(grid.table.len().is_power_of_two());
        for (id, coords) in ds.iter() {
            assert_eq!(grid.cell_at(coords), Some(grid.cell_of(id)));
        }
    }
}
