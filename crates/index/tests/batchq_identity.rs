//! Property tests for the batched query engine (`dpc_index::batchq`).
//!
//! The determinism contract under test: **every** query's batched result is
//! bit-identical to the corresponding single-query traversal — counts equal
//! to `range_count` (with the same per-query exclusion handling), searches
//! equal to `range_search_into` in content *and order* — no matter how the
//! queries are grouped into buckets. The suite sweeps 2/3/8 dimensions,
//! duplicate-heavy and exact-boundary-radius datasets, grid-derived buckets
//! and adversarial groupings, and runs identically under the default (scalar)
//! and `simd` feature builds.

use dpc_geometry::{dist, Dataset};
use dpc_index::batchq::{self, BatchRangeCount, BatchRangeSearch};
use dpc_index::{Grid, KdTree};
use dpc_parallel::Executor;
use dpc_rng::StdRng;

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let coords: Vec<f64> = (0..n * dim).map(|_| rng.gen_range(0.0..100.0)).collect();
    Dataset::from_flat(dim, coords)
}

/// A dataset where many points coincide exactly (ties in every traversal).
fn duplicate_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let distinct: Vec<Vec<f64>> =
        (0..8).map(|_| (0..dim).map(|_| rng.gen_range(0.0..50.0)).collect()).collect();
    let mut ds = Dataset::new(dim);
    for _ in 0..n {
        ds.push(&distinct[rng.gen_range(0..distinct.len())]);
    }
    ds
}

fn gather_rows(data: &Dataset, ids: &[usize]) -> Vec<f64> {
    let mut rows = Vec::with_capacity(ids.len() * data.dim());
    for &i in ids {
        rows.extend_from_slice(data.point(i));
    }
    rows
}

/// Asserts the batched count/search of `queries` (dataset point ids) against
/// the single-query traversals, for the given radii and exclusions.
fn assert_bucket_identity(
    data: &Dataset,
    tree: &KdTree,
    query_ids: &[usize],
    radii: &[f64],
    exclude: &[u32],
) {
    let parts = tree.packed_parts();
    let rows = gather_rows(data, query_ids);
    let mut counts = Vec::new();
    BatchRangeCount::new().run(&parts, &rows, radii, exclude, &mut counts);
    let mut out = vec![Vec::new(); query_ids.len()];
    BatchRangeSearch::new().run(&parts, &rows, radii, &mut out);
    let mut expected = Vec::new();
    for (k, &i) in query_ids.iter().enumerate() {
        let excl = match exclude.get(k) {
            Some(&e) if e != batchq::NO_EXCLUDE => Some(e as usize),
            _ => None,
        };
        assert_eq!(
            counts[k],
            tree.range_count(data.point(i), radii[k], excl),
            "count mismatch for query point {i}"
        );
        tree.range_search_into(data.point(i), radii[k], &mut expected);
        assert_eq!(out[k], expected, "search mismatch (content or order) for query point {i}");
    }
}

#[test]
fn grid_buckets_are_bit_identical_to_per_point_queries() {
    // Besides the random sets (cell side d_cut/√d): one cell of more than
    // 2 × 512 points, wider than d_cut, so `count_grid_points` splits its bucket
    // into chunks with counts that differ per point; and an empty dataset.
    let mut rng = StdRng::seed_from_u64(104);
    let one_cell = Dataset::from_flat(2, (0..1100 * 2).map(|_| rng.gen_range(0.0..40.0)).collect());
    let dcut = 8.0;
    let sets = [
        (random_dataset(900, 2, 101), dcut / 2f64.sqrt()),
        (random_dataset(700, 3, 102), dcut / 3f64.sqrt()),
        (random_dataset(300, 8, 103), dcut / 8f64.sqrt()),
        (one_cell, 64.0),
        (Dataset::new(2), dcut / 2f64.sqrt()),
    ];
    for (data, side) in &sets {
        let (n, dim) = (data.len(), data.dim());
        let tree = KdTree::build_parallel(data, &Executor::new(4));
        let grid = Grid::build(data, *side);
        let buckets = grid.query_buckets();
        for bucket in buckets.iter() {
            let mut ids: Vec<usize> = Vec::new();
            for &cell in bucket {
                ids.extend_from_slice(grid.points(cell));
            }
            let radii = vec![dcut; ids.len()];
            let exclude: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
            assert_bucket_identity(data, &tree, &ids, &radii, &exclude);
        }
        // Both grid-wide functions, in point and cell order, at every thread
        // count. The cell radii vary so a misplaced answer cannot match by
        // accident.
        let parts = tree.packed_parts();
        let cell_radius = |cell: usize| dcut + (cell % 3) as f64;
        let mut expected = Vec::new();
        for threads in [1usize, 2, 4] {
            let executor = Executor::new(threads);
            let counts = batchq::count_grid_points(&parts, &grid, dcut, &executor);
            assert_eq!(counts.len(), n);
            for (p, &count) in counts.iter().enumerate() {
                assert_eq!(count, tree.range_count(data.point(p), dcut, Some(p)), "point {p}");
            }
            let found = batchq::search_grid_cells(&parts, &grid, &executor, |cell, row| {
                row.extend_from_slice(&grid.center(cell));
                cell_radius(cell)
            });
            assert_eq!(found.len(), grid.num_cells());
            for (cell, ids) in found.iter().enumerate() {
                tree.range_search_into(&grid.center(cell), cell_radius(cell), &mut expected);
                assert_eq!(*ids, expected, "cell {cell} (dim {dim}, threads {threads})");
            }
        }
    }
}

#[test]
fn duplicate_heavy_datasets_keep_tie_handling_identical() {
    for &dim in &[2usize, 3, 8] {
        let data = duplicate_dataset(400, dim, 7 + dim as u64);
        let tree = KdTree::build(&data);
        let ids: Vec<usize> = (0..data.len()).step_by(5).collect();
        // Radius 0 hits exact duplicates only; a positive radius spans the
        // duplicate clusters.
        for radius in [0.0, 30.0] {
            let radii = vec![radius; ids.len()];
            let exclude: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
            assert_bucket_identity(&data, &tree, &ids, &radii, &exclude);
        }
    }
}

#[test]
fn exact_boundary_radii_stay_closed_ball() {
    // Query balls whose radius equals an exact point distance: the closed-ball
    // `dist ≤ r` contract must make batched and single-query agree on the
    // boundary points (3-4-5 triangles have exactly representable distances).
    let mut ds = Dataset::new(2);
    ds.push(&[0.0, 0.0]);
    ds.push(&[3.0, 4.0]);
    ds.push(&[6.0, 8.0]);
    ds.push(&[30.0, 40.0]);
    for i in 0..40 {
        ds.push(&[10.0 + (i % 7) as f64, 20.0 + (i % 5) as f64]);
    }
    let tree = KdTree::build(&ds);
    let ids: Vec<usize> = (0..ds.len()).collect();
    let radii: Vec<f64> = ids.iter().map(|&i| if i < 4 { 5.0 } else { 2.0 }).collect();
    let exclude: Vec<u32> = ids.iter().map(|&i| i as u32).collect();
    assert_bucket_identity(&ds, &tree, &ids, &radii, &exclude);
    // Sanity: the boundary really is exercised.
    assert_eq!(dist(ds.point(0), ds.point(1)), 5.0);
    assert_eq!(tree.range_count(ds.point(0), 5.0, Some(0)), 1);
}

#[test]
fn adversarial_groupings_do_not_change_results() {
    // The same queries grouped three different ways — per-point singletons,
    // one giant bucket, random shuffles — must all equal the single-query
    // reference (so any consumer's bucketing policy is behaviour-neutral).
    let data = random_dataset(500, 3, 210);
    let tree = KdTree::build(&data);
    let parts = tree.packed_parts();
    let mut rng = StdRng::seed_from_u64(211);
    let mut ids: Vec<usize> = (0..data.len()).collect();
    // Shuffle so bucket membership is spatially incoherent.
    rng.shuffle(&mut ids);
    let radii: Vec<f64> = ids.iter().map(|&i| 1.0 + (i % 13) as f64).collect();
    let exclude: Vec<u32> =
        ids.iter().map(|&i| if i % 3 == 0 { i as u32 } else { batchq::NO_EXCLUDE }).collect();
    // Giant bucket.
    assert_bucket_identity(&data, &tree, &ids, &radii, &exclude);
    // Singletons and uneven chunks.
    let mut engine = BatchRangeCount::new();
    let mut counts = Vec::new();
    for chunk in [1usize, 7, 64] {
        for (k0, group) in ids.chunks(chunk).enumerate() {
            let base = k0 * chunk;
            let rows = gather_rows(&data, group);
            engine.run(
                &parts,
                &rows,
                &radii[base..base + group.len()],
                &exclude[base..base + group.len()],
                &mut counts,
            );
            for (j, &i) in group.iter().enumerate() {
                let excl = if i % 3 == 0 { Some(i) } else { None };
                assert_eq!(counts[j], tree.range_count(data.point(i), radii[base + j], excl));
            }
        }
    }
}

#[test]
fn subset_trees_answer_batched_queries_identically() {
    // `KdTree::build_subset` trees index a subset of ids (the exclusion
    // lookup falls back to scanning the packed range): batched results must
    // match the single-query traversals there too.
    let data = random_dataset(400, 2, 301);
    let ids: Vec<usize> = (0..data.len()).filter(|i| i % 3 != 0).collect();
    let tree = KdTree::build_subset(&data, &ids);
    let queries: Vec<usize> = (0..data.len()).step_by(4).collect();
    let radii: Vec<f64> = queries.iter().map(|&i| 2.0 + (i % 9) as f64).collect();
    let exclude: Vec<u32> = queries.iter().map(|&i| i as u32).collect();
    assert_bucket_identity(&data, &tree, &queries, &radii, &exclude);
}

#[test]
fn off_dataset_queries_and_extreme_radii() {
    // Queries that are not dataset points, zero/huge radii, and an empty
    // exclusion slice.
    let data = random_dataset(600, 2, 401);
    let tree = KdTree::build(&data);
    let parts = tree.packed_parts();
    let mut rng = StdRng::seed_from_u64(402);
    let k = 64;
    let rows: Vec<f64> = (0..k * 2).map(|_| rng.gen_range(-20.0..120.0)).collect();
    let radii: Vec<f64> = (0..k).map(|q| [0.0, 1e-3, 5.0, 1e6][q % 4]).collect();
    let mut counts = Vec::new();
    BatchRangeCount::new().run(&parts, &rows, &radii, &[], &mut counts);
    let mut out = vec![Vec::new(); k];
    BatchRangeSearch::new().run(&parts, &rows, &radii, &mut out);
    let mut expected = Vec::new();
    for q in 0..k {
        let query = &rows[q * 2..(q + 1) * 2];
        assert_eq!(counts[q], tree.range_count(query, radii[q], None));
        tree.range_search_into(query, radii[q], &mut expected);
        assert_eq!(out[q], expected);
    }
}
