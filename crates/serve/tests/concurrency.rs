//! Concurrent snapshot semantics under epoch churn, and the Assign
//! ground-truth property.
//!
//! The serving layer's whole contract is "every response is computed against
//! exactly one epoch, and swapping epochs never tears, blocks or corrupts
//! in-flight readers". These tests drive that contract with real threads: a
//! writer installs a sequence of *distinguishable* epochs (each with a
//! different cardinality and cluster count) while reader threads hammer the
//! request API and check every answer against the per-epoch expectation
//! table.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dpc_core::{DpcAlgorithm, DpcParams, ExDpc, Thresholds, NOISE};
use dpc_data::generators::gaussian_blobs;
use dpc_parallel::Executor;
use dpc_serve::{DpcServer, Request, Response, Snapshot};

/// Blob centres for epoch `e` (1-based): epoch `e` has `e + 1` well-separated
/// blobs, so its expected cluster count *and* its cardinality are unique.
fn epoch_centers(epoch: usize) -> Vec<(f64, f64)> {
    (0..=epoch).map(|b| (200.0 * b as f64, 150.0 * (b % 2) as f64)).collect()
}

fn epoch_dataset(epoch: usize) -> dpc_geometry::Dataset {
    // 40 extra points per epoch keeps every epoch's `n` distinct.
    gaussian_blobs(&epoch_centers(epoch), 40 + 10 * epoch, 2.0, epoch as u64)
}

const DCUT: f64 = 4.0;

fn thresholds() -> Thresholds {
    Thresholds::new(2.0, 10.0).unwrap()
}

/// N readers hammer `Relabel`/`Assign`/`Stats` while a writer installs five
/// further epochs. Every response must be internally consistent with exactly
/// one epoch: its `epoch` field keys a table of per-epoch facts (`n`, cluster
/// count) that every field of the response must match — a torn read (fields
/// from two epochs) or a half-installed snapshot would mismatch the table.
#[test]
fn readers_see_exactly_one_epoch_per_response_under_swap_churn() {
    const EPOCHS: usize = 6;
    const READERS: usize = 4;

    // Expectation table, indexed by epoch: (n, num_clusters).
    let mut expected: HashMap<u64, (usize, usize)> = HashMap::new();
    for e in 1..=EPOCHS {
        let n = epoch_dataset(e).len();
        expected.insert(e as u64, (n, e + 1));
    }
    let expected = &expected;

    let executor = Executor::single();
    let server = DpcServer::fit(
        &ExDpc::new(DpcParams::new(DCUT)),
        epoch_dataset(1),
        thresholds(),
        &executor,
    )
    .unwrap();
    let server = &server;
    // Sanity: the fit itself matches the table before any concurrency.
    assert_eq!(server.snapshot().clustering().num_clusters(), 2);

    let writer_done = AtomicBool::new(false);
    let writer_done = &writer_done;

    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            for e in 2..=EPOCHS {
                let epoch = server
                    .store()
                    .refit(
                        &ExDpc::new(DpcParams::new(DCUT)),
                        epoch_dataset(e),
                        thresholds(),
                        &Executor::single(),
                    )
                    .unwrap();
                assert_eq!(epoch, e as u64, "writer installs sequentially");
            }
            writer_done.store(true, Ordering::Release);
        });

        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                scope.spawn(move || {
                    let mut seen_epochs = 0u64;
                    let mut requests = 0usize;
                    // Keep reading until the writer has finished *and* we have
                    // observed the final epoch at least once.
                    loop {
                        let done = writer_done.load(Ordering::Acquire);
                        for variant in 0..3 {
                            let request = match (variant + r) % 3 {
                                0 => Request::Stats,
                                // δ_min high enough that every blob centre
                                // still qualifies (δ between blobs ≥ 150).
                                1 => Request::Relabel(Thresholds::new(2.0, 100.0).unwrap()),
                                _ => Request::Assign(vec![1.0 + r as f64 * 0.1, -1.0]),
                            };
                            let response = server.handle(&request).unwrap();
                            let epoch = response.epoch();
                            let &(n, clusters) = expected
                                .get(&epoch)
                                .unwrap_or_else(|| panic!("response from unknown epoch {epoch}"));
                            match response {
                                Response::Stats(s) => {
                                    assert_eq!(s.epoch, epoch);
                                    assert_eq!(s.n, n, "Stats.n torn across epochs");
                                    assert_eq!(s.num_clusters, clusters);
                                    assert_eq!(s.dim, 2);
                                    assert_eq!(s.dcut, DCUT);
                                }
                                Response::Relabel(rr) => {
                                    assert_eq!(rr.n, n, "Relabel.n torn across epochs");
                                    assert_eq!(rr.num_clusters, clusters);
                                    assert_eq!(
                                        rr.centers.len(),
                                        clusters,
                                        "centers list from a different epoch than the count"
                                    );
                                }
                                Response::Assign(a) => {
                                    assert_eq!(a.n, n, "Assign.n torn across epochs");
                                    // The query sits inside blob 0, present in
                                    // every epoch, so its density clears ρ_min
                                    // comfortably in all of them.
                                    assert!(a.rho >= 2.0, "blob-core query read a torn tree");
                                    match a.dependent {
                                        Some(dep) => {
                                            assert!(dep < n, "dependent id from another epoch");
                                            assert!(a.delta.is_finite());
                                            assert!(
                                                a.label == NOISE || (a.label as usize) < clusters,
                                                "label {} outside epoch {epoch}'s {clusters} clusters",
                                                a.label
                                            );
                                        }
                                        // A core query can out-rank every
                                        // fitted point; then it has no
                                        // dependent and inherits no label.
                                        None => {
                                            assert!(a.delta.is_infinite());
                                            assert_eq!(a.label, NOISE);
                                        }
                                    }
                                }
                                Response::Health(_) | Response::Ingest(_) => {
                                    unreachable!("no Health or Ingest request was sent")
                                }
                            }
                            seen_epochs = seen_epochs.max(epoch);
                            requests += 1;
                        }
                        if done && seen_epochs == EPOCHS as u64 {
                            break;
                        }
                    }
                    requests
                })
            })
            .collect();

        writer.join().unwrap();
        for reader in readers {
            let requests = reader.join().unwrap();
            assert!(requests >= 3, "each reader exercised the API");
        }
    });

    assert_eq!(server.epoch(), EPOCHS as u64);
}

/// One ingest writer streams a drifting point sequence through a
/// sliding-window server (so publishes *and* expiry happen mid-test) while
/// readers hammer `Stats`/`Relabel`/`Assign`. The window arithmetic is
/// deterministic for a single writer, so the per-epoch window size is
/// precomputed into an expectation table; every response must match the
/// table entry of the epoch it claims, and each reader's observed epoch
/// sequence must be monotone — a torn publish or a response mixing two
/// epochs' windows would violate one of the two.
#[test]
fn streaming_ingest_publishes_consistent_epochs_under_reader_churn() {
    const SEED_N: usize = 60;
    const INGESTS: usize = 360;
    const PUBLISH_EVERY: usize = 40;
    const CAP: usize = 220;
    const BATCH: usize = 30;

    // Expectation table, indexed by epoch: the streamed window's size. The
    // replayed arithmetic is exactly the engine's: +1 per ingest, and a batch
    // expiry back to `CAP` whenever the overshoot reaches `BATCH`.
    let mut expected: HashMap<u64, usize> = HashMap::new();
    expected.insert(1, SEED_N);
    {
        let mut live = SEED_N;
        let mut epoch = 1u64;
        for i in 0..INGESTS {
            live += 1;
            if live >= CAP + BATCH {
                live = CAP;
            }
            if (i + 1) % PUBLISH_EVERY == 0 {
                epoch += 1;
                expected.insert(epoch, live);
            }
        }
    }
    let expected = &expected;
    let final_epoch = 1 + (INGESTS / PUBLISH_EVERY) as u64;

    let server = DpcServer::fit(
        &ExDpc::new(DpcParams::new(DCUT)),
        gaussian_blobs(&[(0.0, 0.0)], SEED_N, 2.0, 5),
        thresholds(),
        &Executor::single(),
    )
    .unwrap()
    .with_streaming(DpcParams::new(DCUT), Some((CAP, BATCH)), PUBLISH_EVERY)
    .unwrap();
    let server = &server;
    let writer_done = AtomicBool::new(false);
    let writer_done = &writer_done;

    std::thread::scope(|scope| {
        let writer = scope.spawn(move || {
            let mut last_epoch = 1u64;
            for i in 0..INGESTS {
                // A drifting stream: by the end, the window's content shares
                // nothing with the seeded blob, so expiry is doing real work.
                let c = i as f64 * 0.05;
                let r = match server.handle(&Request::Ingest(vec![c, c * 0.5])).unwrap() {
                    Response::Ingest(r) => r,
                    other => panic!("{other:?}"),
                };
                assert_eq!(r.id, (SEED_N + i) as u64, "stable ids are the arrival numbering");
                if r.published {
                    assert_eq!(r.epoch, last_epoch + 1, "publishes install sequential epochs");
                    last_epoch = r.epoch;
                    assert_eq!(Some(&r.n), expected.get(&r.epoch), "published window size");
                } else {
                    assert_eq!(r.epoch, last_epoch, "sole writer: epoch moves only on publish");
                }
            }
            writer_done.store(true, Ordering::Release);
            last_epoch
        });

        let readers: Vec<_> = (0..3)
            .map(|rd| {
                scope.spawn(move || {
                    let mut last_seen = 0u64;
                    loop {
                        let done = writer_done.load(Ordering::Acquire);
                        for variant in 0..3 {
                            let request = match (variant + rd) % 3 {
                                0 => Request::Stats,
                                1 => Request::Relabel(thresholds()),
                                _ => Request::Assign(vec![0.5 + rd as f64 * 0.1, 0.2]),
                            };
                            let response = server.handle(&request).unwrap();
                            let epoch = response.epoch();
                            assert!(
                                epoch >= last_seen,
                                "epoch went backwards: {last_seen} → {epoch}"
                            );
                            last_seen = epoch;
                            let &n = expected
                                .get(&epoch)
                                .unwrap_or_else(|| panic!("response from unknown epoch {epoch}"));
                            match response {
                                Response::Stats(s) => {
                                    assert_eq!(s.n, n, "Stats.n torn across epochs");
                                    assert_eq!(s.dim, 2);
                                    let algorithm =
                                        if epoch == 1 { "Ex-DPC" } else { "Streaming-DPC" };
                                    assert_eq!(s.algorithm, algorithm);
                                }
                                Response::Relabel(rr) => {
                                    assert_eq!(rr.n, n, "Relabel.n torn across epochs");
                                }
                                Response::Assign(a) => {
                                    assert_eq!(a.n, n, "Assign.n torn across epochs");
                                }
                                other => unreachable!("{other:?}"),
                            }
                        }
                        if done && last_seen == final_epoch {
                            break;
                        }
                    }
                    last_seen
                })
            })
            .collect();

        assert_eq!(writer.join().unwrap(), final_epoch);
        for reader in readers {
            assert_eq!(reader.join().unwrap(), final_epoch, "every reader saw the final epoch");
        }
    });
}

/// Pinned snapshots outlive any number of swaps: a reader holding an epoch-1
/// `Arc<Snapshot>` keeps getting epoch-1 answers (bit-identical to before the
/// churn) after the store has moved on.
#[test]
fn a_pinned_snapshot_is_immortal_and_immutable_across_swaps() {
    let executor = Executor::single();
    let server = DpcServer::fit(
        &ExDpc::new(DpcParams::new(DCUT)),
        epoch_dataset(1),
        thresholds(),
        &executor,
    )
    .unwrap();

    let pinned: Arc<Snapshot> = server.snapshot();
    let probe = Request::Relabel(Thresholds::new(2.0, 100.0).unwrap());
    let before = DpcServer::handle_on(&pinned, &probe).unwrap();

    for e in 2..=4 {
        server
            .store()
            .refit(&ExDpc::new(DpcParams::new(DCUT)), epoch_dataset(e), thresholds(), &executor)
            .unwrap();
    }
    assert_eq!(server.epoch(), 4);
    assert_eq!(server.handle(&probe).unwrap().epoch(), 4);

    let after = DpcServer::handle_on(&pinned, &probe).unwrap();
    assert_eq!(before, after, "a drained epoch changed its answers");
    assert_eq!(after.epoch(), 1);
}

/// The Assign ground-truth property: classifying a point that is already in
/// the dataset returns exactly that point's own quantities and cluster label
/// from the snapshot's cached `extract` — for every point, including noise
/// points and the centres themselves.
#[test]
fn assigning_an_in_dataset_point_returns_its_own_extract_label() {
    let executor = Executor::single();
    // Two dense blobs plus a handful of isolated stragglers (noise under
    // ρ_min = 2): the property must hold for all three point kinds.
    let mut data = gaussian_blobs(&[(0.0, 0.0), (120.0, 0.0)], 70, 2.5, 77);
    for k in 0..5 {
        data.push(&[-300.0 - 40.0 * k as f64, 500.0]);
    }
    let model = ExDpc::new(DpcParams::new(DCUT)).fit(&data).unwrap();
    let ground_truth = model.extract(&thresholds());
    let server =
        DpcServer::fit(&ExDpc::new(DpcParams::new(DCUT)), data, thresholds(), &executor).unwrap();

    let snap = server.snapshot();
    assert!(ground_truth.noise_count() >= 5, "stragglers are noise");
    for i in 0..snap.n() {
        let point = snap.data().point(i).to_vec();
        let Response::Assign(a) = server.handle(&Request::Assign(point)).unwrap() else {
            panic!("assign request answered with a different kind")
        };
        assert_eq!(
            a.label, ground_truth.assignment[i],
            "point {i}: served label diverged from extract"
        );
        assert_eq!(a.rho.to_bits(), model.rho()[i].to_bits());
        assert_eq!(a.delta.to_bits(), model.delta()[i].to_bits());
        match a.dependent {
            Some(dep) => assert_eq!(dep, model.dependent()[i]),
            None => assert_eq!(model.dependent()[i], i, "only self-dependent points"),
        }
    }
}
