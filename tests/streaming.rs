//! Property tests for the streaming maintenance engine: after **any**
//! interleaving of inserts and deletes, the incrementally maintained state
//! must equal a fresh `ExDpc::fit_keyed` on the surviving window under the
//! stable-id mapping — bitwise for ρ and δ, label-exact for the extraction.
//!
//! The jitter contract makes this comparison exact rather than approximate:
//! both sides compute `count + jitter(stable id ^ seed)`, and both sides
//! derive δ from the same `dist` kernel, so any drift in the incremental
//! repair shows up as a bit difference, not an epsilon.
//!
//! Dependent identifiers are compared as *valid minimizers* (the dependent is
//! strictly denser and attains δ) rather than by exact id: with injected
//! duplicate points several candidates can sit at distance exactly δ (e.g.
//! 0), and which one a kd-tree traversal reports is tie-order dependent in
//! both implementations.

use fast_dpc::prelude::*;
use fast_dpc::rng::StdRng;

/// Asserts the engine state equals a fresh keyed fit of the surviving window
/// at each requested thread count.
fn assert_matches_fresh_fit(engine: &StreamingDpc, params: DpcParams, label: &str) {
    let (window, ids, streamed) = engine.to_parts().expect("non-empty window");
    for threads in [1usize, 4] {
        let fresh =
            ExDpc::new(params.with_threads(threads)).fit_keyed(&window, &ids).expect("fresh fit");
        assert_eq!(fresh.n(), streamed.n(), "{label}: window size");
        for i in 0..fresh.n() {
            assert_eq!(
                streamed.rho()[i].to_bits(),
                fresh.rho()[i].to_bits(),
                "{label}: ρ mismatch at {i} (threads {threads})"
            );
            assert_eq!(
                streamed.delta()[i].to_bits(),
                fresh.delta()[i].to_bits(),
                "{label}: δ mismatch at {i} (threads {threads})"
            );
            // Valid-minimizer check for the dependent (ids can differ only
            // among equidistant candidates, which both sides may pick freely).
            let dep = streamed.dependent()[i];
            if dep == i {
                assert!(
                    streamed.delta()[i].is_infinite(),
                    "{label}: self-dependent needs δ = ∞ at {i}"
                );
            } else {
                assert!(
                    streamed.rho()[dep] > streamed.rho()[i],
                    "{label}: dependent not denser at {i}"
                );
                assert_eq!(
                    fast_dpc::geometry::dist(window.point(i), window.point(dep)).to_bits(),
                    streamed.delta()[i].to_bits(),
                    "{label}: dependent does not attain δ at {i}"
                );
            }
        }
        // Extraction labels: integer ρ_min keeps coincident duplicates (equal
        // counts, different jitter) on the same side of the noise threshold.
        let thresholds = Thresholds::new(2.0, params.dcut * 2.0).unwrap();
        let a = streamed.extract(&thresholds);
        let b = fresh.extract(&thresholds);
        assert_eq!(a.assignment, b.assignment, "{label}: labels (threads {threads})");
        assert_eq!(a.centers, b.centers, "{label}: centers (threads {threads})");
    }
}

/// Drives `ops` random operations (inserts, duplicates, deletes) through the
/// engine and cross-checks against fresh fits along the way and at the end.
fn run_interleaving(dim: usize, dcut: f64, span: f64, ops: usize, seed: u64) {
    let params = DpcParams::new(dcut).with_jitter_seed(0x5eed ^ seed);
    let mut engine = StreamingDpc::new(params, dim).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut recent: Vec<Vec<f64>> = Vec::new();
    let mut checks = 0usize;
    for step in 0..ops {
        let insert = live.len() < 4 || rng.gen_range(0.0..1.0) < 0.62;
        if insert {
            // 20% exact duplicates of a recent point — coincident coordinates
            // exercise the distance-0 δ ties and the closed-ball boundary.
            let p: Vec<f64> = if !recent.is_empty() && rng.gen_range(0.0..1.0) < 0.2 {
                recent[rng.gen_range(0..recent.len())].clone()
            } else {
                (0..dim).map(|_| rng.gen_range(0.0..span)).collect()
            };
            let id = engine.insert(&p).unwrap();
            live.push(id);
            recent.push(p);
            if recent.len() > 48 {
                recent.remove(0);
            }
        } else {
            let k = rng.gen_range(0..live.len());
            let id = live.swap_remove(k);
            assert!(engine.remove(id), "live id must be removable");
        }
        assert_eq!(engine.len(), live.len(), "dim {dim} step {step}");
        // Periodic mid-stream checks (the interesting states are the ones in
        // the middle of churn, not just the final window).
        if step % 120 == 119 && !engine.is_empty() {
            assert_matches_fresh_fit(&engine, params, &format!("dim {dim} step {step}"));
            checks += 1;
        }
    }
    assert!(!engine.is_empty(), "interleaving must end non-empty");
    assert_matches_fresh_fit(&engine, params, &format!("dim {dim} final"));
    assert!(checks >= 3, "expected several mid-stream checks, got {checks}");
}

#[test]
fn random_interleaving_matches_fresh_fit_2d() {
    run_interleaving(2, 6.0, 60.0, 550, 11);
}

#[test]
fn random_interleaving_matches_fresh_fit_3d() {
    run_interleaving(3, 7.0, 45.0, 550, 22);
}

#[test]
fn random_interleaving_matches_fresh_fit_8d() {
    run_interleaving(8, 14.0, 25.0, 520, 33);
}

/// Sliding-window mode: expiry is part of the interleaving. After the stream
/// settles, the surviving window must still match a fresh keyed fit, and the
/// expired ids must be exactly the oldest ones.
#[test]
fn sliding_window_stream_matches_fresh_fit() {
    let params = DpcParams::new(5.0);
    let mut engine = StreamingDpc::new(params, 2).unwrap().with_window(180, 40);
    let mut rng = StdRng::seed_from_u64(44);
    let total = 600u64;
    for i in 0..total {
        // A drifting blob: the window's content changes qualitatively as old
        // regions expire.
        let c = i as f64 * 0.1;
        let p = [c + rng.gen_range(-3.0..3.0), c + rng.gen_range(-3.0..3.0)];
        engine.insert(&p).unwrap();
        assert!(engine.len() < 180 + 40, "window overflow at {i}");
    }
    let expired = engine.drain_expired();
    assert_eq!(expired.len() + engine.len(), total as usize);
    let mut sorted = expired.clone();
    sorted.sort_unstable();
    assert_eq!(expired, sorted, "expiry must be oldest-first");
    let (_, ids, _) = engine.to_parts().unwrap();
    let min_live = ids.iter().min().unwrap();
    assert!(expired.iter().all(|id| id < min_live), "expired ids predate the window");
    assert_matches_fresh_fit(&engine, params, "sliding window final");
}

/// Interleaving with explicit removals *and* window expiry racing each other
/// on the id space (removed ids linger in the arrival queue and must be
/// skipped, not double-expired).
#[test]
fn explicit_removals_compose_with_window_expiry() {
    let params = DpcParams::new(4.0).with_jitter_seed(99);
    let mut engine = StreamingDpc::new(params, 2).unwrap().with_window(120, 25);
    let mut rng = StdRng::seed_from_u64(55);
    let mut live: Vec<u64> = Vec::new();
    for step in 0..520 {
        if live.len() < 4 || rng.gen_range(0.0..1.0) < 0.7 {
            let p = [rng.gen_range(0.0..35.0), rng.gen_range(0.0..35.0)];
            live.push(engine.insert(&p).unwrap());
        } else {
            // Bias explicit removals toward the *oldest* ids so they collide
            // with what the window is about to expire.
            let k = rng.gen_range(0..live.len().min(8));
            let id = live.remove(k);
            assert!(engine.remove(id), "step {step}");
        }
        for id in engine.drain_expired() {
            let pos = live.iter().position(|&x| x == id).expect("expired id was live");
            live.remove(pos);
        }
        assert_eq!(engine.len(), live.len(), "step {step}");
    }
    assert_matches_fresh_fit(&engine, params, "mixed removal/expiry final");
}

/// One exported window state in arrival order: stable ids, coordinates, δ
/// and the dependent's stable id, plus the position of each stable id.
struct WindowState {
    id: Vec<u64>,
    point: Vec<Vec<f64>>,
    delta: Vec<f64>,
    dep: Vec<u64>,
    pos: std::collections::HashMap<u64, usize>,
}

fn window_state(engine: &StreamingDpc) -> WindowState {
    let (window, ids, model) = engine.to_parts().expect("non-empty window");
    WindowState {
        id: ids.clone(),
        point: (0..window.len()).map(|i| window.point(i).to_vec()).collect(),
        delta: model.delta().to_vec(),
        dep: model.dependent().iter().map(|&j| ids[j]).collect(),
        pos: ids.iter().enumerate().map(|(i, &id)| (id, i)).collect(),
    }
}

/// How often each delete- and insert-side repair visibly changed a δ.
#[derive(Default, Debug)]
struct RepairEvents {
    /// A bumped neighbour with δ ≤ far_cut shrank its δ on delete: only the
    /// merged delete frontier can do that.
    delete_frontier: usize,
    /// A bumped neighbour with δ > far_cut shrank its δ on delete: only its
    /// nearest-denser recompute can do that.
    delete_far_recompute: usize,
    /// A point with δ > far_cut beyond the insert frontier shrank its δ on
    /// insert: only the far-list sweep can do that.
    insert_far_list: usize,
}

/// A 4-d skewed window: three blobs whose spreads differ by 6× over a
/// uniform background, in random order, through a 1,500-point sliding window
/// that expires in batches of 25. The sizes are chosen so that every case-3
/// repair path changes some δ, which the test observes on a twin engine that
/// performs the same inserts and expiries as explicit calls and is
/// snapshotted around each of them.
#[test]
fn skewed_4d_sliding_window_matches_fresh_fit() {
    const DIM: usize = 4;
    const CAPACITY: usize = 1500;
    const BATCH: usize = 25;
    let dcut = 1.0;
    // The engine's far cut is `FAR_FACTOR · d_cut` with a factor of one.
    let far_cut = dcut;
    let params = DpcParams::new(dcut).with_jitter_seed(0x4d);
    let mut rng = StdRng::seed_from_u64(404);
    let mut point = move || -> Vec<f64> {
        let (centre, spread) = match rng.gen_range(0..20usize) {
            0..=2 => return (0..DIM).map(|_| rng.gen_range(0.0..24.0)).collect(),
            3..=8 => (4.0, 0.25),
            9..=14 => (12.0, 0.8),
            _ => (18.0, 1.5),
        };
        (0..DIM).map(|_| centre + spread * rng.gen_standard_normal()).collect()
    };

    let mut windowed = StreamingDpc::new(params, DIM).unwrap().with_window(CAPACITY, BATCH);
    let mut twin = StreamingDpc::new(params, DIM).unwrap();
    for _ in 0..CAPACITY + BATCH - 1 {
        let p = point();
        windowed.insert(&p).unwrap();
        twin.insert(&p).unwrap();
    }
    assert!(windowed.drain_expired().is_empty());

    let mut events = RepairEvents::default();
    let reach = (dcut + far_cut) * (1.0 + 1e-9);
    for batch in 0..6 {
        for _ in 0..BATCH {
            let p = point();
            windowed.insert(&p).unwrap();
            let before = window_state(&twin);
            twin.insert(&p).unwrap();
            let after = window_state(&twin);
            for (i, x) in before.point.iter().enumerate() {
                let j = after.pos[&before.id[i]];
                if before.delta[i] > far_cut
                    && fast_dpc::geometry::dist(x, &p) > reach
                    && after.delta[j] < before.delta[i]
                {
                    events.insert_far_list += 1;
                }
            }
            for id in windowed.drain_expired() {
                let before = window_state(&twin);
                let removed = &before.point[before.pos[&id]];
                assert!(twin.remove(id));
                let after = window_state(&twin);
                for (i, y) in before.point.iter().enumerate() {
                    let key = before.id[i];
                    if key == id
                        || before.dep[i] == id
                        || fast_dpc::geometry::dist(y, removed) > dcut
                    {
                        continue; // the removed point itself, an orphan, or outside the ball
                    }
                    if after.delta[after.pos[&key]] < before.delta[i] {
                        if before.delta[i] > far_cut {
                            events.delete_far_recompute += 1;
                        } else {
                            events.delete_frontier += 1;
                        }
                    }
                }
            }
        }
        let (_, ids, model) = windowed.to_parts().unwrap();
        let (_, twin_ids, twin_model) = twin.to_parts().unwrap();
        assert_eq!(ids, twin_ids, "batch {batch}: expiry must equal explicit removal");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(model.delta()), bits(twin_model.delta()), "batch {batch}: δ");
        assert_matches_fresh_fit(&windowed, params, &format!("skewed 4-d batch {batch}"));
    }
    assert!(events.delete_frontier > 0, "{events:?}");
    assert!(events.delete_far_recompute > 0, "{events:?}");
    assert!(events.insert_far_list > 0, "{events:?}");
}
