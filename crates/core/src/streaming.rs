//! Streaming DPC: incremental insert/delete with localized ρ updates and lazy
//! δ repair.
//!
//! The batch pipeline treats the dataset as static — any change costs a full
//! refit, even though an insert or delete only perturbs ρ inside the `d_cut`
//! ball of the touched point (Definition 1 is a local count) and δ along a
//! bounded set of dependency chains. [`StreamingDpc`] maintains the exact
//! Ex-DPC model under point insertions and removals:
//!
//! * **ρ maintenance** is one `d_cut` range query: every live point inside the
//!   ball gets `count ± 1` and is re-jittered deterministically on its
//!   **stable external id** (the monotonically increasing id handed out by
//!   [`StreamingDpc::insert`]). Because the jitter is a pure function of
//!   `(count, stable id, seed)`, the maintained ρ is bit-identical to a fresh
//!   [`ExDpc::fit_keyed`](crate::ExDpc::fit_keyed) of the surviving window
//!   keyed on the same ids.
//! * **δ repair is lazy and localized.** Exactly three kinds of points can
//!   have a stale δ/dependent after an update, and each set is enumerable
//!   without touching the rest of the window:
//!   1. the touched point itself (full recompute);
//!   2. points whose dependent was deleted, or whose dependent's ρ fell to or
//!      below their own (found via the maintained reverse-dependent lists);
//!   3. points whose δ ordering is invalidated by a ρ change **crossing their
//!      own ρ**: when a ball neighbour `q` moves from `count` to `count ± 1`,
//!      only points whose ρ lies in the open interval between `q`'s old and
//!      new ρ change their "is `q` denser than me?" answer.
//!
//!   Case 3 is enumerated **spatially**, never by scanning the ρ order (at
//!   uniform density a width-1 ρ interval holds `Θ(n / max count)` points, so
//!   an index over ρ degrades the repair to a near-linear sweep). Insert and
//!   delete share one **merged frontier**: a single range query of radius
//!   `d_cut + far_cut` around the touched point yields both the `d_cut` ball
//!   and the case-3 candidates. On insert, every point that gained a denser
//!   point did so through the arrival or a bumped neighbour — all within
//!   `d_cut` of the arrival — so a repairable `x` satisfies
//!   `dist(x, arrival) < δ_x + d_cut`: candidates with δ ≤ `far_cut` are in
//!   the frontier, and the rest — the heavy right tail of the δ
//!   distribution, too spread out for any spatial pruning to pay — are
//!   mirrored in a flat **far list** (coordinates and δ stored contiguously)
//!   and swept sequentially. The tail of a DPC δ distribution is small by
//!   construction (a point with large δ is a local density peak, and a
//!   window has few peaks), so the sweep touches a few percent of the
//!   window through a fraction of its cache lines. On delete, only a bumped
//!   neighbour `q` itself can gain denser points (the crossed interval is
//!   *below* everyone else), and any improvement lies strictly inside its
//!   current δ ball, hence within `δ_q + d_cut` of the removed point: for
//!   δ_q ≤ `far_cut` the candidates are in the frontier, and a `q` above
//!   `far_cut` (the rare local peaks) gets a full nearest-denser search.
//!
//!   A candidate meets the crossing intervals through one lookup on a list
//!   sorted by the interval's low end. ρ is `count + jitter` with a fixed
//!   per-point jitter in (0, 1), so every interval spans one count and only
//!   the intervals starting in `[ρ_x − 2, ρ_x)` can contain ρ_x; a binary
//!   search finds that window and the exact test runs inside it.
//!
//!   Either way the stale value is a one-sided bound (on insert nobody's δ
//!   can grow except through its dependent, on delete nobody's δ can shrink
//!   except through new denser points), so a single distance comparison per
//!   candidate repairs it; only cases 1–2 and the delete side's peaks pay a
//!   nearest-denser search
//!   ([`IncrementalKdTree::nearest_denser`], one branch-and-bound descent).
//!
//! A sliding-window mode ([`StreamingDpc::with_window`]) batches expiry of
//! the oldest points: once the window overflows by a full batch, the oldest
//! live points are removed (each through the same exact delete path) until
//! the window is back at capacity.

use std::collections::{HashMap, VecDeque};

use dpc_geometry::distance::dist_sq;
use dpc_geometry::{dist, Dataset};
use dpc_index::IncrementalKdTree;

use crate::error::DpcError;
use crate::framework::jittered_density_keyed;
use crate::model::DpcModel;
use crate::params::DpcParams;
use crate::result::Timings;

/// δ threshold `far_cut`, as a multiple of `d_cut`. It sets the radius
/// `d_cut + far_cut` of the merged frontier query on both sides: on insert a
/// point with δ above it is tracked in the flat far list instead of being
/// found by the frontier, and on delete a bumped neighbour with δ above it
/// gets a full nearest-denser search instead of a frontier repair. Raising
/// it shrinks the far list and the searches but widens (quadratically, in
/// area) the range query; `1×` balances the two for ball populations in the
/// localized-repair regime.
const FAR_FACTOR: f64 = 1.0;

/// Slot marker for "not in the far list".
const NO_POS: u32 = u32::MAX;

/// Exact streaming maintenance of an Ex-DPC model over a mutable window of
/// points.
///
/// ```
/// use dpc_core::{DpcParams, StreamingDpc};
///
/// let mut engine = StreamingDpc::new(DpcParams::new(2.0), 2).unwrap();
/// let a = engine.insert(&[0.0, 0.0]).unwrap();
/// let b = engine.insert(&[1.0, 0.0]).unwrap();
/// engine.insert(&[0.5, 0.5]).unwrap();
/// assert_eq!(engine.len(), 3);
/// assert!(engine.remove(a));
/// let (window, ids, model) = engine.to_parts().unwrap();
/// assert_eq!(window.len(), 2);
/// assert_eq!(ids, vec![b, 2]);
/// assert_eq!(model.n(), 2);
/// ```
pub struct StreamingDpc {
    dim: usize,
    dcut: f64,
    seed: u64,
    // ---- per-slot state (slot = dense internal index, reused after removal)
    /// Coordinate rows, `dim` values per slot.
    coords: Vec<f64>,
    /// Stable external id of each slot.
    stable: Vec<u64>,
    /// Integer `d_cut`-ball count (excluding the point itself).
    count: Vec<usize>,
    /// Jittered local density.
    rho: Vec<f64>,
    /// Distance to the dependent point (∞ for the densest point).
    delta: Vec<f64>,
    /// Dependent slot; equals the slot itself when no denser point exists.
    dep: Vec<u32>,
    /// Reverse-dependent lists: slots `y` with `dep[y] == slot`.
    children: Vec<Vec<u32>>,
    alive: Vec<bool>,
    /// Scratch mark bits, one per slot (cleared after every operation).
    mark: Vec<bool>,
    free: Vec<u32>,
    live: usize,
    // ---- lookup and spatial index
    id_to_slot: HashMap<u64, u32>,
    /// Holds every live point, keyed by slot.
    tree: IncrementalKdTree,
    // ---- far list: live slots with δ > FAR_FACTOR · d_cut (the local
    // density peaks), mirrored contiguously so the insert frontier can sweep
    // them sequentially instead of chasing them through the tree.
    /// Slots in the far list, in arbitrary (swap-remove) order.
    far_slots: Vec<u32>,
    /// Coordinate mirror, `dim` values per far entry (rows never move while
    /// a slot is live, so the mirror cannot go stale).
    far_coords: Vec<f64>,
    /// δ mirror, kept current by [`StreamingDpc::set_dep`].
    far_delta: Vec<f64>,
    /// Slot → position in `far_slots` (`NO_POS` when absent).
    far_pos: Vec<u32>,
    /// Stable ids in arrival order. Ids removed out of order linger until
    /// they reach the front and are skipped lazily (`id_to_slot` miss).
    arrivals: VecDeque<u64>,
    /// `(capacity, batch)` for sliding-window mode.
    window: Option<(usize, usize)>,
    /// Stable ids expired by the window since the last `drain_expired`.
    expired: Vec<u64>,
    next_id: u64,
    // ---- query scratch (kept to avoid per-operation allocation)
    scratch_ball: Vec<usize>,
    scratch_near: Vec<usize>,
    scratch_far: Vec<usize>,
    /// Per-bumped-neighbour `(slot, lo, hi)` crossing intervals between the
    /// old and the new ρ, sorted by `lo` (see [`crossing`]).
    scratch_ivals: Vec<(u32, f64, f64)>,
}

impl StreamingDpc {
    /// Creates an empty engine for `dim`-dimensional points. `params`
    /// contributes `d_cut` and the jitter seed; `threads` is ignored (the
    /// maintenance path is sequential — updates are sub-millisecond and
    /// order-dependent).
    pub fn new(params: DpcParams, dim: usize) -> Result<Self, DpcError> {
        params.validate()?;
        if dim == 0 {
            return Err(DpcError::InvalidParams {
                param: "dim",
                value: 0.0,
                requirement: "streaming dimensionality must be positive",
            });
        }
        Ok(Self {
            dim,
            dcut: params.dcut,
            seed: params.jitter_seed,
            coords: Vec::new(),
            stable: Vec::new(),
            count: Vec::new(),
            rho: Vec::new(),
            delta: Vec::new(),
            dep: Vec::new(),
            children: Vec::new(),
            alive: Vec::new(),
            mark: Vec::new(),
            free: Vec::new(),
            live: 0,
            id_to_slot: HashMap::new(),
            tree: IncrementalKdTree::new(dim),
            far_slots: Vec::new(),
            far_coords: Vec::new(),
            far_delta: Vec::new(),
            far_pos: Vec::new(),
            arrivals: VecDeque::new(),
            window: None,
            expired: Vec::new(),
            next_id: 0,
            scratch_ball: Vec::new(),
            scratch_near: Vec::new(),
            scratch_far: Vec::new(),
            scratch_ivals: Vec::new(),
        })
    }

    /// Enables sliding-window mode: once the live size reaches
    /// `capacity + batch`, the oldest live points are expired (exact delete
    /// path each) until the window is back at `capacity`. Batching amortises
    /// the expiry work instead of paying one delete per insert.
    ///
    /// # Panics
    /// Panics if `capacity == 0` or `batch == 0`.
    pub fn with_window(mut self, capacity: usize, batch: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        assert!(batch > 0, "expiry batch must be positive");
        self.window = Some((capacity, batch));
        self
    }

    /// Number of live points in the window.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Dimensionality of the stream.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The cutoff distance `d_cut`.
    pub fn dcut(&self) -> f64 {
        self.dcut
    }

    /// Whether stable id `id` is live in the window.
    pub fn contains(&self, id: u64) -> bool {
        self.id_to_slot.contains_key(&id)
    }

    /// Stable ids expired by the sliding window since the last call (oldest
    /// first). Explicit [`StreamingDpc::remove`]s are not reported here.
    pub fn drain_expired(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.expired)
    }

    #[inline]
    fn row(&self, slot: u32) -> &[f64] {
        &self.coords[slot as usize * self.dim..(slot as usize + 1) * self.dim]
    }

    #[inline]
    fn jitter(&self, count: usize, slot: u32) -> f64 {
        jittered_density_keyed(count, self.stable[slot as usize], self.seed)
    }

    /// Changes slot `q`'s ball count by ±1 and re-jitters its ρ.
    fn bump_count(&mut self, q: u32, up: bool) {
        let qi = q as usize;
        self.count[qi] = if up { self.count[qi] + 1 } else { self.count[qi] - 1 };
        self.rho[qi] = self.jitter(self.count[qi], q);
    }

    /// Points `x`'s dependent at slot `j` with distance `d`, maintaining the
    /// reverse-dependent lists and the far-list mirror of δ. `j == x` clears
    /// the dependent (`d` must then be ∞).
    fn set_dep(&mut self, x: u32, j: u32, d: f64) {
        let xi = x as usize;
        let old = self.dep[xi];
        if old != x {
            let list = &mut self.children[old as usize];
            if let Some(pos) = list.iter().position(|&y| y == x) {
                list.swap_remove(pos);
            }
        }
        self.dep[xi] = j;
        self.delta[xi] = d;
        if j != x {
            self.children[j as usize].push(x);
        }
        self.far_sync(x);
    }

    /// Re-syncs slot `x`'s far-list membership (and δ mirror) with its
    /// current δ.
    fn far_sync(&mut self, x: u32) {
        let xi = x as usize;
        let pos = self.far_pos[xi];
        if self.delta[xi] > self.dcut * FAR_FACTOR {
            if pos == NO_POS {
                self.far_pos[xi] = self.far_slots.len() as u32;
                self.far_slots.push(x);
                self.far_coords.extend_from_slice(&self.coords[xi * self.dim..(xi + 1) * self.dim]);
                self.far_delta.push(self.delta[xi]);
            } else {
                self.far_delta[pos as usize] = self.delta[xi];
            }
        } else if pos != NO_POS {
            self.far_drop(x);
        }
    }

    /// Removes slot `x` from the far list if present (swap-remove, keeping
    /// the mirrors dense).
    fn far_drop(&mut self, x: u32) {
        let xi = x as usize;
        let pos = self.far_pos[xi] as usize;
        if self.far_pos[xi] == NO_POS {
            return;
        }
        let last = self.far_slots.len() - 1;
        self.far_slots.swap_remove(pos);
        self.far_delta.swap_remove(pos);
        for k in 0..self.dim {
            self.far_coords[pos * self.dim + k] = self.far_coords[last * self.dim + k];
        }
        self.far_coords.truncate(last * self.dim);
        if pos < self.far_slots.len() {
            self.far_pos[self.far_slots[pos] as usize] = pos as u32;
        }
        self.far_pos[xi] = NO_POS;
    }

    /// Exact δ recompute for live slot `x`: one nearest-denser query on the
    /// tree (the nearest live point with a strictly higher ρ; none means `x`
    /// is the densest point, δ = ∞).
    fn recompute_delta(&mut self, x: u32) {
        match self.tree.nearest_denser(self.row(x), self.rho[x as usize], &self.rho) {
            Some((j, d)) => self.set_dep(x, j as u32, d),
            None => self.set_dep(x, x, f64::INFINITY),
        }
    }

    /// The merged frontier query of `insert` and `remove`: every live point
    /// within `d_cut + far_cut` of `point` into `near` (the padding absorbs
    /// the strict case-3 inequality's rounding headroom), and those within
    /// `d_cut` (the closed ball of Definition 1) into `ball`.
    fn frontier_into(&self, point: &[f64], near: &mut Vec<usize>, ball: &mut Vec<usize>) {
        let far_cut = self.dcut * FAR_FACTOR;
        self.tree.range_search_into(point, (self.dcut + far_cut) * (1.0 + 1e-9), near);
        let r_sq = self.dcut * self.dcut;
        ball.clear();
        ball.extend(near.iter().copied().filter(|&x| dist_sq(point, self.row(x as u32)) <= r_sq));
    }

    /// Inserts a point and returns its stable id. Exact maintenance:
    ///
    /// 1. ρ: one merged frontier query of radius `d_cut + far_cut`; every
    ///    neighbour within `d_cut` gets `count + 1` and the new point's own
    ///    count is the ball size.
    /// 2. δ of the new point (nearest denser ball member, else one
    ///    nearest-denser query), and a nearest-denser query for every
    ///    neighbour whose dependent is no longer strictly denser (its own ρ
    ///    rose past it).
    /// 3. Frontier repair: a neighbour `q` whose ρ rose from `old` to `new`
    ///    becomes a *new* denser point exactly for the unbumped points whose
    ///    ρ lies in `(old, new)`, and the new point itself is a candidate
    ///    denser point for anything less dense. Every such new denser point
    ///    lies within `d_cut` of the arrival, so a repairable `x` satisfies
    ///    `dist(x, arrival) < δ_x + d_cut`. Candidates with δ ≤ `far_cut`
    ///    are therefore in the frontier from step 1; the rest are exactly the
    ///    far list, swept sequentially. Each candidate meets its crossing
    ///    intervals through `crossing` and repairs with one distance
    ///    comparison per interval — on insert a stale δ is always an upper
    ///    bound.
    pub fn insert(&mut self, point: &[f64]) -> Result<u64, DpcError> {
        if point.len() != self.dim {
            return Err(DpcError::DimensionMismatch {
                what: "streaming point",
                expected: self.dim,
                got: point.len(),
            });
        }
        if let Some(axis) = point.iter().position(|v| !v.is_finite()) {
            return Err(DpcError::NonFiniteCoordinate { point: self.live, axis });
        }

        let id = self.next_id;
        self.next_id += 1;

        // The merged frontier, *before* the new point enters the tree: the
        // ball, and the near half of the case-3 candidates (a candidate with
        // δ ≤ far_cut is repairable only within `d_cut + far_cut` of the
        // arrival).
        let mut near = std::mem::take(&mut self.scratch_near);
        let mut ball = std::mem::take(&mut self.scratch_ball);
        self.frontier_into(point, &mut near, &mut ball);

        let s = self.alloc_slot(id, point);
        for &q in &ball {
            self.bump_count(q as u32, true);
        }
        let si = s as usize;
        self.count[si] = ball.len();
        self.rho[si] = self.jitter(self.count[si], s);
        self.tree.insert(si, point);
        self.arrivals.push_back(id);

        self.mark[si] = true;
        for &q in &ball {
            self.mark[q] = true;
        }

        // Case 1: δ of the arrival. A denser neighbour inside the ball in
        // hand beats every point beyond `d_cut`, so the tree is only
        // consulted when the arrival out-densifies its whole neighbourhood.
        let mut best: Option<(u32, f64)> = None;
        for &j in &ball {
            if self.rho[j] > self.rho[si] {
                let d = dist(point, self.row(j as u32));
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((j as u32, d));
                }
            }
        }
        match best {
            Some((j, d)) => self.set_dep(s, j, d),
            None => self.recompute_delta(s),
        }

        // Case 2: neighbours whose dependent stopped being strictly denser
        // when their own ρ rose (the arrival is already in the tree, so the
        // search sees it).
        for &qi in &ball {
            let d = self.dep[qi] as usize;
            if d != qi && self.rho[d] <= self.rho[qi] {
                self.recompute_delta(qi as u32);
            }
        }

        // Case 3 for the ball itself: the new point as a denser candidate for
        // its less dense neighbours (bumped-vs-bumped needs no check — equal
        // count changes preserve their relative order).
        for &q in &ball {
            if self.rho[q] < self.rho[si] {
                let d = dist(self.row(q as u32), point);
                if d < self.delta[q] {
                    self.set_dep(q as u32, s, d);
                }
            }
        }

        // Case 3 outside the ball: candidates with a small δ are already in
        // `near`; the heavy δ tail is swept off the flat far list. The far
        // candidates are collected before repairing (a repair edits the far
        // list under the sweep); both sets are then re-filtered with the
        // exact interval and distance tests.
        let mut ivals = std::mem::take(&mut self.scratch_ivals);
        ivals.clear();
        for &q in &ball {
            let q = q as u32;
            let qi = q as usize;
            ivals.push((q, self.jitter(self.count[qi] - 1, q), self.rho[qi]));
        }
        ivals.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        let mut far = std::mem::take(&mut self.scratch_far);
        far.clear();
        for k in 0..self.far_slots.len() {
            let xi = self.far_slots[k] as usize;
            if self.mark[xi] {
                continue;
            }
            let reach = (self.far_delta[k] + self.dcut) * (1.0 + 1e-9);
            let c = &self.far_coords[k * self.dim..(k + 1) * self.dim];
            if dist_sq(point, c) <= reach * reach {
                far.push(xi);
            }
        }
        for ci in 0..near.len() + far.len() {
            let xi = if ci < near.len() { near[ci] } else { far[ci - near.len()] };
            if self.mark[xi] {
                continue; // the arrival and its ball were handled above
            }
            let x = xi as u32;
            let rx = self.rho[xi];
            if rx < self.rho[si] {
                let d = dist(self.row(x), point);
                if d < self.delta[xi] {
                    self.set_dep(x, s, d);
                }
            }
            for q in crossing(&ivals, rx) {
                let d = dist(self.row(x), self.row(q));
                if d < self.delta[xi] {
                    self.set_dep(x, q, d);
                }
            }
        }
        far.clear();
        self.scratch_far = far;
        near.clear();
        self.scratch_near = near;
        self.scratch_ivals = ivals;

        self.mark[si] = false;
        for &q in &ball {
            self.mark[q] = false;
        }
        ball.clear();
        self.scratch_ball = ball;

        if let Some((capacity, batch)) = self.window {
            if self.live >= capacity + batch {
                while self.live > capacity {
                    let oldest = self.pop_oldest_live().expect("live > capacity > 0");
                    self.expired.push(oldest);
                }
            }
        }
        Ok(id)
    }

    /// Removes the point with stable id `id`. Returns `false` when the id is
    /// not live. Exact maintenance mirrors `insert`:
    ///
    /// 1. ρ: one merged frontier query of radius `d_cut + far_cut` around
    ///    the removed coordinates; every neighbour within `d_cut` gets
    ///    `count - 1`.
    /// 2. A nearest-denser query for every point whose dependent was the
    ///    removed point, and for every follower of a neighbour whose ρ fell
    ///    to or below the follower's.
    /// 3. Frontier repair: a neighbour `q` whose ρ fell from `old` to `new`
    ///    gains as denser points exactly the unbumped points in `(new, old)`
    ///    — only δ_q itself can shrink, and any improvement lies strictly
    ///    inside its current δ ball, hence within `δ_q + d_cut` of the
    ///    removed point. For δ_q ≤ `far_cut` the candidates are in the
    ///    frontier from step 1 and meet `q`'s interval through `crossing`;
    ///    a `q` above `far_cut` gets a nearest-denser query instead. On
    ///    delete a stale δ is always attained by a surviving denser point,
    ///    so it can only improve.
    pub fn remove(&mut self, id: u64) -> bool {
        let Some(&slot) = self.id_to_slot.get(&id) else { return false };
        self.remove_slot(slot);
        true
    }

    /// Pops the oldest live stable id off the arrival queue and removes it.
    fn pop_oldest_live(&mut self) -> Option<u64> {
        while let Some(id) = self.arrivals.pop_front() {
            if let Some(&slot) = self.id_to_slot.get(&id) {
                self.remove_slot(slot);
                return Some(id);
            }
            // Removed out of order earlier; skip lazily.
        }
        None
    }

    fn remove_slot(&mut self, slot: u32) {
        let si = slot as usize;
        debug_assert!(self.alive[si]);

        // Detach the slot from every structure first, so the queries below
        // see exactly the surviving window.
        self.tree.remove(si);
        self.far_drop(slot);
        let dep = self.dep[si];
        if dep != slot {
            let list = &mut self.children[dep as usize];
            if let Some(pos) = list.iter().position(|&y| y == slot) {
                list.swap_remove(pos);
            }
        }
        let orphans = std::mem::take(&mut self.children[si]);
        self.id_to_slot.remove(&self.stable[si]);
        self.alive[si] = false;
        self.live -= 1;
        self.free.push(slot);

        // The merged frontier around the removed coordinates (the freed
        // slot keeps its row until it is reused): the ball, and the case-3
        // candidates of every bumped `q` with δ_q ≤ far_cut.
        let mut near = std::mem::take(&mut self.scratch_near);
        let mut ball = std::mem::take(&mut self.scratch_ball);
        self.frontier_into(self.row(slot), &mut near, &mut ball);
        for &q in &ball {
            self.bump_count(q as u32, false);
            self.mark[q] = true;
        }

        // Case 2 repairs. Collect before recomputing: recomputes edit the
        // reverse-dependent lists being walked. The sets are disjoint (a
        // point has one dependent), so a plain concatenation is dedup-free.
        let mut stale: Vec<u32> = orphans;
        for &q in &ball {
            for &y in &self.children[q] {
                if self.rho[q] <= self.rho[y as usize] {
                    stale.push(y);
                }
            }
        }
        for &y in &stale {
            self.recompute_delta(y);
        }

        // Case 3: each bumped neighbour fell past the unbumped points in
        // (new ρ, old ρ) — those points are now denser than it, so only δ_q
        // can shrink, and any improvement is strictly inside the current δ_q
        // ball. Below far_cut that ball lies inside the frontier; above it
        // (local peaks, the tail of the δ distribution) one nearest-denser
        // query answers directly.
        let far_cut = self.dcut * FAR_FACTOR;
        let mut ivals = std::mem::take(&mut self.scratch_ivals);
        ivals.clear();
        for &qi in &ball {
            let q = qi as u32;
            if self.delta[qi] <= far_cut {
                ivals.push((q, self.rho[qi], self.jitter(self.count[qi] + 1, q)));
            } else {
                self.recompute_delta(q);
            }
        }
        ivals.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        for &xi in &near {
            if self.mark[xi] {
                continue; // bumped alongside q — relative order unchanged
            }
            let x = xi as u32;
            for q in crossing(&ivals, self.rho[xi]) {
                let d = dist(self.row(x), self.row(q));
                if d < self.delta[q as usize] {
                    self.set_dep(q, x, d);
                }
            }
        }
        self.scratch_ivals = ivals;
        near.clear();
        self.scratch_near = near;

        for &q in &ball {
            self.mark[q] = false;
        }
        ball.clear();
        self.scratch_ball = ball;
    }

    /// Allocates (or reuses) a slot for stable id `id`, leaving ρ/δ at their
    /// pre-insert placeholders.
    fn alloc_slot(&mut self, id: u64, point: &[f64]) -> u32 {
        let slot = match self.free.pop() {
            Some(slot) => {
                let si = slot as usize;
                self.coords[si * self.dim..(si + 1) * self.dim].copy_from_slice(point);
                self.stable[si] = id;
                slot
            }
            None => {
                let slot = self.stable.len() as u32;
                self.coords.extend_from_slice(point);
                self.stable.push(id);
                self.count.push(0);
                self.rho.push(0.0);
                self.delta.push(0.0);
                self.dep.push(0);
                self.children.push(Vec::new());
                self.alive.push(false);
                self.mark.push(false);
                self.far_pos.push(NO_POS);
                slot
            }
        };
        let si = slot as usize;
        self.count[si] = 0;
        self.rho[si] = 0.0;
        self.delta[si] = f64::INFINITY;
        self.dep[si] = slot;
        debug_assert!(self.children[si].is_empty());
        debug_assert_eq!(self.far_pos[si], NO_POS);
        self.alive[si] = true;
        self.live += 1;
        self.id_to_slot.insert(id, slot);
        slot
    }

    /// Exports the surviving window in arrival order as
    /// `(dataset, stable ids, model)`. The model is what
    /// [`ExDpc::fit_keyed`](crate::ExDpc::fit_keyed) would produce on that
    /// dataset with those ids as keys (bit-identical ρ and δ); dependent
    /// identifiers are remapped from internal slots to arrival positions.
    ///
    /// Returns [`DpcError::EmptyDataset`] when the window is empty.
    pub fn to_parts(&self) -> Result<(Dataset, Vec<u64>, DpcModel), DpcError> {
        if self.live == 0 {
            return Err(DpcError::EmptyDataset);
        }
        let mut data = Dataset::with_capacity(self.dim, self.live);
        let mut ids = Vec::with_capacity(self.live);
        let mut slots = Vec::with_capacity(self.live);
        let mut pos_of_slot = vec![u32::MAX; self.stable.len()];
        for &id in &self.arrivals {
            if let Some(&slot) = self.id_to_slot.get(&id) {
                pos_of_slot[slot as usize] = slots.len() as u32;
                data.push(self.row(slot));
                ids.push(id);
                slots.push(slot);
            }
        }
        debug_assert_eq!(slots.len(), self.live);
        let rho: Vec<f64> = slots.iter().map(|&s| self.rho[s as usize]).collect();
        let delta: Vec<f64> = slots.iter().map(|&s| self.delta[s as usize]).collect();
        let dependent: Vec<usize> = slots
            .iter()
            .enumerate()
            .map(|(pos, &s)| {
                let d = self.dep[s as usize];
                if d == s {
                    pos
                } else {
                    pos_of_slot[d as usize] as usize
                }
            })
            .collect();
        let model = DpcModel::from_parts(
            "Streaming-DPC",
            self.dcut,
            rho,
            delta,
            dependent,
            Timings::default(),
            self.tree.mem_usage(),
        )?;
        Ok((data, ids, model))
    }

    /// Approximate heap memory used by the engine, in bytes: every per-slot
    /// array, the reverse-dependent lists, the id map, the arrival queue,
    /// the far list and the tree, each counted by capacity.
    pub fn mem_usage(&self) -> usize {
        use std::mem::size_of;
        self.tree.mem_usage()
            + (self.coords.capacity() + self.rho.capacity() + self.delta.capacity())
                * size_of::<f64>()
            + self.stable.capacity() * size_of::<u64>()
            + self.count.capacity() * size_of::<usize>()
            + (self.dep.capacity() + self.free.capacity()) * size_of::<u32>()
            + (self.alive.capacity() + self.mark.capacity()) * size_of::<bool>()
            + self.children.capacity() * size_of::<Vec<u32>>()
            + self.children.iter().map(|c| c.capacity() * size_of::<u32>()).sum::<usize>()
            + self.id_to_slot.capacity() * size_of::<(u64, u32)>()
            + self.arrivals.capacity() * size_of::<u64>()
            + self.far_coords.capacity() * size_of::<f64>()
            + (self.far_slots.capacity() + self.far_pos.capacity()) * size_of::<u32>()
            + self.far_delta.capacity() * size_of::<f64>()
    }
}

/// Slots `q` of the crossing intervals `(q, lo, hi)` that strictly contain
/// `rx`, from a list sorted by `lo`. ρ is `count + jitter` with a fixed
/// per-point jitter in (0, 1), so an interval between two consecutive counts
/// has `hi − lo ≤ 2` even after rounding, and only the intervals with `lo` in
/// `[rx − 2, rx)` can contain `rx`: two binary searches bound that window and
/// the exact test runs inside it.
fn crossing(ivals: &[(u32, f64, f64)], rx: f64) -> impl Iterator<Item = u32> + '_ {
    let start = ivals.partition_point(|iv| iv.1 < rx - 2.0);
    let end = ivals.partition_point(|iv| iv.1 < rx);
    ivals[start..end].iter().filter(move |&&(_, lo, hi)| lo < rx && rx < hi).map(|iv| iv.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::select_and_assign;
    use crate::params::Thresholds;
    use dpc_rng::StdRng;

    /// Brute-force oracle: exact ρ/δ per the definitions, jittered on the
    /// stable ids.
    fn brute(points: &[Vec<f64>], keys: &[u64], dcut: f64, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let n = points.len();
        let rho: Vec<f64> = (0..n)
            .map(|i| {
                let count =
                    (0..n).filter(|&j| j != i && dist(&points[i], &points[j]) <= dcut).count();
                jittered_density_keyed(count, keys[i], seed)
            })
            .collect();
        let delta: Vec<f64> = (0..n)
            .map(|i| {
                (0..n)
                    .filter(|&j| rho[j] > rho[i])
                    .map(|j| dist(&points[i], &points[j]))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        (rho, delta)
    }

    /// Asserts the engine state equals the brute-force oracle on the live
    /// window: bitwise ρ, bitwise δ, and a dependent that actually attains δ
    /// with strictly higher ρ.
    fn assert_matches_oracle(engine: &StreamingDpc, seed: u64) {
        let (data, ids, model) = engine.to_parts().unwrap();
        let points: Vec<Vec<f64>> = (0..data.len()).map(|i| data.point(i).to_vec()).collect();
        let (rho, delta) = brute(&points, &ids, engine.dcut(), seed);
        for i in 0..data.len() {
            assert_eq!(model.rho()[i].to_bits(), rho[i].to_bits(), "ρ mismatch at {i}");
            assert_eq!(model.delta()[i].to_bits(), delta[i].to_bits(), "δ mismatch at {i}");
            let dep = model.dependent()[i];
            if dep == i {
                assert!(model.delta()[i].is_infinite(), "self-dependent must have δ = ∞");
            } else {
                assert!(model.rho()[dep] > model.rho()[i], "dependent must be denser at {i}");
                assert_eq!(
                    dist(data.point(i), data.point(dep)).to_bits(),
                    model.delta()[i].to_bits(),
                    "dependent must attain δ at {i}"
                );
            }
        }
    }

    #[test]
    fn insert_only_matches_oracle() {
        let params = DpcParams::new(6.0).with_jitter_seed(0xfeed);
        let mut engine = StreamingDpc::new(params, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for step in 0..150 {
            let p = [rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)];
            engine.insert(&p).unwrap();
            if step % 25 == 24 {
                assert_matches_oracle(&engine, 0xfeed);
            }
        }
        assert_matches_oracle(&engine, 0xfeed);
    }

    #[test]
    fn interleaved_insert_remove_matches_oracle() {
        let params = DpcParams::new(5.0).with_jitter_seed(7);
        let mut engine = StreamingDpc::new(params, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut live_ids: Vec<u64> = Vec::new();
        let mut recent: Vec<Vec<f64>> = Vec::new();
        for step in 0..400 {
            if live_ids.is_empty() || rng.gen_range(0.0..1.0) < 0.65 {
                // Occasionally duplicate an existing point exactly.
                let p: Vec<f64> = if !recent.is_empty() && rng.gen_range(0.0..1.0) < 0.2 {
                    recent[rng.gen_range(0..recent.len())].clone()
                } else {
                    (0..3).map(|_| rng.gen_range(0.0..30.0)).collect()
                };
                let id = engine.insert(&p).unwrap();
                live_ids.push(id);
                recent.push(p);
                if recent.len() > 32 {
                    recent.remove(0);
                }
            } else {
                let k = rng.gen_range(0..live_ids.len());
                let id = live_ids.swap_remove(k);
                assert!(engine.remove(id));
                assert!(!engine.remove(id), "double remove must be rejected");
            }
            if step % 50 == 49 && !engine.is_empty() {
                assert_matches_oracle(&engine, 7);
            }
        }
        assert_eq!(engine.len(), live_ids.len());
    }

    #[test]
    fn sliding_window_expires_oldest_in_batches() {
        let params = DpcParams::new(4.0);
        let mut engine = StreamingDpc::new(params, 2).unwrap().with_window(50, 10);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..200 {
            let p = [rng.gen_range(0.0..20.0), rng.gen_range(0.0..20.0)];
            engine.insert(&p).unwrap();
            assert!(engine.len() < 50 + 10, "window must never exceed capacity + batch");
        }
        let expired = engine.drain_expired();
        assert_eq!(expired.len() + engine.len(), 200);
        // Oldest-first expiry: everything expired is older than everything live.
        let oldest_live = (0..200u64).find(|id| engine.contains(*id)).unwrap();
        assert!(expired.iter().all(|&id| id < oldest_live));
        let mut sorted = expired.clone();
        sorted.sort_unstable();
        assert_eq!(expired, sorted, "expiry reports oldest first");
        assert_matches_oracle(&engine, DpcParams::new(4.0).jitter_seed);
        assert!(engine.drain_expired().is_empty(), "drain must reset the log");
    }

    #[test]
    fn removing_the_densest_point_promotes_a_new_root() {
        // A tight clump (dense) plus a spread ring; remove the clump centre
        // repeatedly and re-verify exactness each time.
        let params = DpcParams::new(3.0);
        let mut engine = StreamingDpc::new(params, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut ids = Vec::new();
        for _ in 0..40 {
            let p = [10.0 + rng.gen_range(-0.5..0.5), 10.0 + rng.gen_range(-0.5..0.5)];
            ids.push(engine.insert(&p).unwrap());
        }
        for _ in 0..20 {
            let p = [rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)];
            ids.push(engine.insert(&p).unwrap());
        }
        for _ in 0..30 {
            let (_, _, model) = engine.to_parts().unwrap();
            let densest =
                (0..model.n()).max_by(|&a, &b| model.rho()[a].total_cmp(&model.rho()[b])).unwrap();
            assert!(model.delta()[densest].is_infinite());
            let (_, window_ids, _) = engine.to_parts().unwrap();
            assert!(engine.remove(window_ids[densest]));
            assert_matches_oracle(&engine, params.jitter_seed);
        }
    }

    #[test]
    fn labels_match_a_fresh_extract() {
        // End to end: engine labels (via exported model) on two blobs.
        let params = DpcParams::new(5.0);
        let mut engine = StreamingDpc::new(params, 2).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for i in 0..120 {
            let (cx, cy) = if i % 2 == 0 { (0.0, 0.0) } else { (50.0, 50.0) };
            let p = [cx + rng.gen_range(-2.0..2.0), cy + rng.gen_range(-2.0..2.0)];
            engine.insert(&p).unwrap();
        }
        let (_, _, model) = engine.to_parts().unwrap();
        let thresholds = Thresholds::new(2.0, 20.0).unwrap();
        let clustering = model.extract(&thresholds);
        assert_eq!(clustering.num_clusters(), 2);
        let order = crate::framework::descending_density_order(model.rho());
        let (_, assignment) =
            select_and_assign(&thresholds, model.rho(), model.delta(), model.dependent(), &order);
        assert_eq!(clustering.assignment, assignment);
    }

    /// `mem_usage` must cover every per-slot array, the free list, the id
    /// map and the arrival queue, not only the coordinates: their lengths
    /// give a floor that a capacity count can only exceed.
    #[test]
    fn mem_usage_counts_every_per_slot_array() {
        use std::mem::size_of;
        let mut engine = StreamingDpc::new(DpcParams::new(3.0), 2).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut ids = Vec::new();
        for _ in 0..400 {
            let p = [rng.gen_range(0.0..40.0), rng.gen_range(0.0..40.0)];
            ids.push(engine.insert(&p).unwrap());
        }
        for &id in ids.iter().step_by(4) {
            assert!(engine.remove(id));
        }
        let per_slot = 2 * size_of::<f64>() // coords
            + size_of::<u64>() // stable
            + size_of::<usize>() // count
            + 2 * size_of::<f64>() // rho, delta
            + 2 * size_of::<u32>() // dep, far_pos
            + 2 * size_of::<bool>() // alive, mark
            + size_of::<Vec<u32>>(); // children
        let floor = engine.tree.mem_usage()
            + engine.stable.len() * per_slot
            + engine.free.len() * size_of::<u32>()
            + engine.id_to_slot.len() * size_of::<(u64, u32)>()
            + engine.arrivals.len() * size_of::<u64>();
        assert!(engine.mem_usage() >= floor, "{} < {floor}", engine.mem_usage());
    }

    #[test]
    fn rejects_bad_input() {
        let mut engine = StreamingDpc::new(DpcParams::new(1.0), 2).unwrap();
        assert!(matches!(
            engine.insert(&[1.0]),
            Err(DpcError::DimensionMismatch { what: "streaming point", .. })
        ));
        assert!(matches!(
            engine.insert(&[1.0, f64::NAN]),
            Err(DpcError::NonFiniteCoordinate { .. })
        ));
        assert!(!engine.remove(0));
        assert!(matches!(engine.to_parts(), Err(DpcError::EmptyDataset)));
        assert!(StreamingDpc::new(DpcParams::new(-1.0), 2).is_err());
        assert!(StreamingDpc::new(DpcParams::new(1.0), 0).is_err());
    }
}
