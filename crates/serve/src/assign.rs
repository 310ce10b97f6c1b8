//! Classifying an incoming point against a snapshot without refitting.
//!
//! The assignment mirrors the model's own semantics (Definitions 1–3 of the
//! paper) as if the query had been part of the fit:
//!
//! 1. **Density.** `ρ_q` is the `d_cut` range count over the snapshot's
//!    kd-tree. The fitted points carry a deterministic tie-breaking jitter in
//!    `(0, 1)` on top of their integer counts, so a *new* query gets the
//!    interval midpoint `count + 0.5` — it compares against every fitted
//!    density exactly as an equal integer count "on average", and strictly
//!    between the counts below and above it. A query that coincides with a
//!    fitted point (nearest neighbour at distance exactly `0`) short-circuits
//!    to that point's own fitted `ρ`/`δ`/dependent/label, making assignment
//!    of in-dataset points exact by construction.
//! 2. **Dependent point.** The nearest snapshot point with `ρ > ρ_q`, found
//!    by one [`KdTree::nearest_denser`](dpc_index::KdTree::nearest_denser)
//!    query that skips every subtree whose maximum fitted ρ is at most `ρ_q`
//!    (the snapshot holds that per-node maximum). Among equally near denser
//!    points the lowest id wins. When no fitted point out-ranks the query it
//!    gets `δ = ∞` and no dependent, exactly like the globally densest fitted
//!    point. This single query replaced an expanding-radius search with the
//!    same answers.
//! 3. **Label.** The dependent point's label under the snapshot's default
//!    thresholds, read from the cached [`Clustering`](dpc_core::Clustering)
//!    in `O(1)` — label propagation follows dependency chains, so one hop
//!    lands on the already-propagated answer. Noise stays noise, and a query
//!    with `ρ_q < ρ_min` is noise itself (Definition 4).

use dpc_core::{DpcError, NOISE};

use crate::error::{Deadline, ServeError};
use crate::request::AssignResponse;
use crate::snapshot::Snapshot;

/// Classifies `point` against `snapshot`. See the module docs for the exact
/// density/dependent/label semantics. Equivalent to [`classify_within`] with
/// no deadline.
///
/// # Errors
/// * [`DpcError::DimensionMismatch`] when `point` is not `snapshot.dim()`
///   coordinates long;
/// * [`DpcError::NonFiniteCoordinate`] when any coordinate is NaN or ±∞
///   (non-finite queries would silently defeat the kd-tree's bounding-box
///   pruning and return a wrong density instead of failing).
pub fn classify(snapshot: &Snapshot, point: &[f64]) -> Result<AssignResponse, DpcError> {
    classify_within(snapshot, point, &Deadline::none()).map_err(|e| match e {
        ServeError::Dpc(e) => e,
        // Without a deadline the only failures are the Dpc validation errors.
        other => unreachable!("deadline-free classify cannot fail with {other:?}"),
    })
}

/// [`classify`] under a per-request time budget: the deadline is checked once,
/// up front, before any index work — a classification is two bounded tree
/// queries plus a range count, with no rounds left to abandon between. A
/// request that trips the deadline returns [`ServeError::DeadlineExceeded`]
/// and **no** partial answer.
///
/// # Errors
/// The [`classify`] validation errors (wrapped in [`ServeError::Dpc`]), plus
/// [`ServeError::DeadlineExceeded`].
pub fn classify_within(
    snapshot: &Snapshot,
    point: &[f64],
    deadline: &Deadline,
) -> Result<AssignResponse, ServeError> {
    classify_prepared(snapshot, point, deadline, None)
}

/// [`classify_within`] with an optionally precomputed query density.
///
/// The batch path groups concurrent `Assign` points by grid cell and answers
/// their `d_cut` range counts with one joint kd-tree descent per group
/// (`dpc_index::batchq`); it hands the resulting `count + 0.5` in here so the
/// classification skips its solo `range_count`. The batched engine's
/// determinism contract makes the precomputed value bit-identical to the solo
/// count, so batched and solo assignment agree exactly. `None` means "compute
/// it here" — the solo path. A query that coincides with a fitted point still
/// short-circuits to that point's fitted quantities before `rho` is ever
/// looked at, on both paths.
pub(crate) fn classify_prepared(
    snapshot: &Snapshot,
    point: &[f64],
    deadline: &Deadline,
    precomputed_rho: Option<f64>,
) -> Result<AssignResponse, ServeError> {
    deadline.check()?;
    if point.len() != snapshot.dim() {
        return Err(DpcError::DimensionMismatch {
            what: "query point",
            expected: snapshot.dim(),
            got: point.len(),
        }
        .into());
    }
    if let Some(axis) = point.iter().position(|c| !c.is_finite()) {
        return Err(DpcError::NonFiniteCoordinate { point: 0, axis }.into());
    }

    let model = snapshot.model();
    let clustering = snapshot.clustering();
    let thresholds = snapshot.thresholds();
    let tree = snapshot.tree();
    let n = snapshot.n();

    // A snapshot always covers at least one point (fit rejects empty data).
    let (nn, nn_dist) =
        tree.nearest_neighbor(point, None).expect("snapshot datasets are never empty");

    if nn_dist == 0.0 {
        // The query *is* a fitted point: answer with its fitted quantities so
        // in-dataset assignment agrees bit-for-bit with `extract`.
        let rho = model.rho_at(nn);
        let delta = model.delta_at(nn);
        let dependent = model.dependent_at(nn);
        return Ok(AssignResponse {
            epoch: snapshot.epoch(),
            n,
            rho,
            delta,
            dependent: if dependent == nn { None } else { Some(dependent) },
            label: clustering.assignment[nn],
            would_be_center: rho >= thresholds.rho_min && delta >= thresholds.delta_min,
        });
    }

    let rho = precomputed_rho
        .unwrap_or_else(|| tree.range_count(point, snapshot.dcut(), None) as f64 + 0.5);

    let (dependent, delta) =
        match tree.nearest_denser(point, rho, model.rho(), &snapshot.rho_node_max) {
            Some((j, d)) => (Some(j), d),
            None => (None, f64::INFINITY),
        };

    let label = match dependent {
        Some(j) if rho >= thresholds.rho_min => clustering.assignment[j],
        _ => NOISE,
    };
    Ok(AssignResponse {
        epoch: snapshot.epoch(),
        n,
        rho,
        delta,
        dependent,
        label,
        would_be_center: rho >= thresholds.rho_min && delta >= thresholds.delta_min,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::{DpcAlgorithm, DpcParams, ExDpc, Thresholds};
    use dpc_data::generators::gaussian_blobs;
    use dpc_parallel::Executor;
    use std::sync::Arc;

    fn snapshot() -> Snapshot {
        let data = Arc::new(gaussian_blobs(&[(0.0, 0.0), (80.0, 80.0)], 100, 2.0, 21));
        let model = ExDpc::new(DpcParams::new(4.0)).fit(&data).unwrap();
        Snapshot::new(data, model, Thresholds::new(2.0, 10.0).unwrap(), &Executor::single())
    }

    #[test]
    fn in_dataset_points_get_their_own_fitted_answer() {
        let snap = snapshot();
        for i in (0..snap.n()).step_by(13) {
            let r = classify(&snap, snap.data().point(i)).unwrap();
            assert_eq!(r.rho.to_bits(), snap.model().rho_at(i).to_bits());
            assert_eq!(r.delta.to_bits(), snap.model().delta_at(i).to_bits());
            assert_eq!(r.label, snap.clustering().assignment[i]);
        }
    }

    #[test]
    fn a_point_near_a_blob_joins_that_blob() {
        let snap = snapshot();
        // Find the label each blob's centre region carries.
        let near_origin = classify(&snap, &[0.5, -0.5]).unwrap();
        let near_far = classify(&snap, &[79.5, 80.5]).unwrap();
        assert_ne!(near_origin.label, NOISE);
        assert_ne!(near_far.label, NOISE);
        assert_ne!(near_origin.label, near_far.label);
        assert!(near_origin.delta.is_finite());
        assert!(near_origin.dependent.is_some());
        assert!(!near_origin.would_be_center);
    }

    #[test]
    fn a_far_away_sparse_point_is_noise() {
        let snap = snapshot();
        // Far from both blobs: zero in-range neighbours → ρ = 0.5 < ρ_min = 2.
        let r = classify(&snap, &[-200.0, 300.0]).unwrap();
        assert_eq!(r.rho, 0.5);
        assert_eq!(r.label, NOISE);
        assert!(r.delta.is_finite(), "some fitted point is denser than ρ=0.5");
        assert!(!r.would_be_center);
    }

    #[test]
    fn a_far_outlier_gets_the_nearest_denser_point_or_infinity() {
        let snap = snapshot();
        let deadline = Deadline::none();
        // Far outside the dataset's bounding box on every axis.
        let q = [-1.0e6, 1.0e6];
        let r = classify_prepared(&snap, &q, &deadline, None).unwrap();
        assert_eq!(r.rho, 0.5);
        assert_eq!(r.label, NOISE);
        assert!(r.delta.is_finite(), "some fitted point out-ranks ρ = 0.5");

        // Same far query pretending to out-rank the whole dataset: it is the
        // globally densest point, with no dependent.
        let r = classify_prepared(&snap, &q, &deadline, Some(1.0e9)).unwrap();
        assert!(r.delta.is_infinite());
        assert_eq!(r.dependent, None);
    }

    #[test]
    fn off_dataset_queries_match_an_exhaustive_scan() {
        let snap = snapshot();
        let (data, model) = (snap.data(), snap.model());
        let mut rng = dpc_rng::StdRng::seed_from_u64(5);
        let mut queries: Vec<[f64; 2]> =
            (0..200).map(|_| [rng.gen_range(-10.0..90.0), rng.gen_range(-10.0..90.0)]).collect();
        // Midpoints of fitted pairs: two candidates at (nearly) one distance.
        queries.extend((0..20).map(|i| {
            let (a, b) = (data.point(i), data.point(i + 100));
            [(a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0]
        }));
        for q in &queries {
            let r = classify(&snap, q).unwrap();
            let dists: Vec<f64> =
                (0..snap.n()).map(|j| dpc_geometry::dist(q, data.point(j))).collect();
            if dists.contains(&0.0) {
                continue; // in-dataset: answered by the fitted quantities
            }
            let rho = dists.iter().filter(|&&d| d <= snap.dcut()).count() as f64 + 0.5;
            // Lowest id among the nearest denser points.
            let want = (0..snap.n())
                .filter(|&j| model.rho_at(j) > rho)
                .min_by(|&a, &b| dists[a].total_cmp(&dists[b]).then(a.cmp(&b)));
            let label = match want {
                Some(j) if rho >= snap.thresholds().rho_min => snap.clustering().assignment[j],
                _ => NOISE,
            };
            assert_eq!(r.rho.to_bits(), rho.to_bits(), "query {q:?}");
            assert_eq!(r.dependent, want, "query {q:?}");
            let delta = want.map_or(f64::INFINITY, |j| dists[j]);
            assert_eq!(r.delta.to_bits(), delta.to_bits(), "query {q:?}");
            assert_eq!(r.label, label, "query {q:?}");
        }
    }

    #[test]
    fn the_densest_query_outranks_everyone() {
        // Three isolated points: each fitted ρ is jitter-only (count 0), so
        // any query whose range count is ≥ 1 out-ranks the whole dataset.
        let data =
            Arc::new(dpc_geometry::Dataset::from_flat(2, vec![0.0, 0.0, 100.0, 0.0, 0.0, 100.0]));
        let model = ExDpc::new(DpcParams::new(5.0)).fit(&data).unwrap();
        let snap =
            Snapshot::new(data, model, Thresholds::new(0.0, 10.0).unwrap(), &Executor::single());
        let r = classify(&snap, &[1.0, 1.0]).unwrap();
        assert_eq!(r.rho, 1.5);
        assert!(r.delta.is_infinite());
        assert_eq!(r.dependent, None);
        assert_eq!(r.label, NOISE, "no dependent point to inherit a label from");
        assert!(r.would_be_center, "ρ ≥ 0 and δ = ∞ ≥ δ_min");
    }

    #[test]
    fn an_expired_deadline_aborts_classification_with_no_partial_answer() {
        let snap = snapshot();
        let expired = Deadline::start(Some(std::time::Duration::ZERO));
        let err = classify_within(&snap, &[0.5, -0.5], &expired).unwrap_err();
        assert!(matches!(err, ServeError::DeadlineExceeded { .. }), "{err:?}");
        // A generous deadline changes nothing about the answer.
        let generous = Deadline::start(Some(std::time::Duration::from_secs(3600)));
        let within = classify_within(&snap, &[0.5, -0.5], &generous).unwrap();
        let free = classify(&snap, &[0.5, -0.5]).unwrap();
        assert_eq!(within, free);
    }

    #[test]
    fn malformed_queries_are_errors_not_panics() {
        let snap = snapshot();
        assert_eq!(
            classify(&snap, &[1.0]).unwrap_err(),
            DpcError::DimensionMismatch { what: "query point", expected: 2, got: 1 }
        );
        assert_eq!(
            classify(&snap, &[1.0, f64::NAN]).unwrap_err(),
            DpcError::NonFiniteCoordinate { point: 0, axis: 1 }
        );
        assert_eq!(
            classify(&snap, &[f64::INFINITY, 0.0]).unwrap_err(),
            DpcError::NonFiniteCoordinate { point: 0, axis: 0 }
        );
    }
}
