//! Round-trip property tests: `from_bytes ∘ to_bytes == id`, **bitwise**
//! (`layout_eq`), across dimensionalities, duplicates, subnormals, signed
//! zeros, empty and subset trees — plus the misaligned-slice decode that
//! exercises the documented copy fallback.

use dpc_core::framework::descending_density_order;
use dpc_core::{DpcModel, Thresholds, Timings};
use dpc_geometry::Dataset;
use dpc_index::KdTree;
use dpc_persist::{PersistModel, PersistTree, SnapshotArtifact};
use dpc_rng::StdRng;

fn random_dataset(n: usize, dim: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Dataset::new(dim);
    for _ in 0..n {
        let p: Vec<f64> = (0..dim).map(|_| rng.gen_range(-50.0..50.0)).collect();
        data.push(&p);
    }
    data
}

/// A valid random model: densities drawn at random (including the edge
/// floats the format must carry bit-exactly), each dependent point a random
/// strictly denser point or the point itself, density order derived by
/// `from_parts` itself.
fn random_model(n: usize, seed: u64) -> DpcModel {
    let mut rng = StdRng::seed_from_u64(seed);
    let rho: Vec<f64> = (0..n)
        .map(|i| match i % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => 5.0e-324, // subnormal
            _ => rng.gen_range(0.0..100.0),
        })
        .collect();
    let delta: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..10.0)).collect();
    let order = descending_density_order(&rho);
    let mut dependent: Vec<usize> = (0..n).collect();
    for k in 1..n {
        let q = order[(rng.next_u64() % k as u64) as usize];
        if rho[q] > rho[order[k]] {
            dependent[order[k]] = q;
        }
    }
    let timings =
        Timings { rho_secs: rng.gen_f64(), delta_secs: rng.gen_f64(), assign_secs: rng.gen_f64() };
    DpcModel::from_parts("Ex-DPC", rng.gen_range(0.5..5.0), rho, delta, dependent, timings, 1234)
        .unwrap()
}

#[test]
fn models_round_trip_bitwise() {
    for (n, seed) in [(1, 1), (2, 2), (17, 3), (128, 4), (501, 5)] {
        let model = random_model(n, seed);
        let bytes = model.to_bytes();
        let back = DpcModel::from_bytes(&bytes).unwrap();
        assert!(back.layout_eq(&model), "n={n} seed={seed}: decoded model diverged");
        // Timings are carried too (provenance), just excluded from layout_eq.
        assert_eq!(back.fit_timings(), model.fit_timings());
        // Re-encoding the decode reproduces the bytes: the format is a
        // canonical function of the content.
        assert_eq!(back.to_bytes(), bytes, "n={n} seed={seed}: re-encode drifted");
    }
}

#[test]
fn model_view_is_zero_copy_on_aligned_input_and_copies_misaligned() {
    let model = random_model(64, 9);
    let bytes = model.to_bytes();
    let view = DpcModel::view(&bytes).unwrap();
    assert!(view.is_zero_copy(), "Vec<u8> buffers must take the borrow path");
    assert_eq!(view.rho(), model.rho());

    // Shift the artifact one byte into a buffer: every 8-byte field is now
    // misaligned, forcing the documented copy fallback — same values.
    let mut shifted = vec![0u8; bytes.len() + 1];
    shifted[1..].copy_from_slice(&bytes);
    let view = DpcModel::view(&shifted[1..]).unwrap();
    assert!(!view.is_zero_copy(), "misaligned input must take the copy fallback");
    let back = view.to_model().unwrap();
    assert!(back.layout_eq(&model));
}

#[test]
fn trees_round_trip_bitwise_across_dimensionalities() {
    for (n, dim, seed) in [(1, 2, 10), (16, 2, 11), (17, 3, 12), (300, 3, 13), (96, 8, 14)] {
        let data = random_dataset(n, dim, seed);
        let tree = KdTree::build(&data);
        let bytes = tree.to_bytes();
        let back = KdTree::from_bytes(&data, &bytes).unwrap();
        assert!(back.layout_eq(&tree), "n={n} dim={dim}: decoded tree diverged");
        assert_eq!(back.to_bytes(), bytes, "n={n} dim={dim}: re-encode drifted");
    }
}

#[test]
fn trees_with_duplicates_signed_zeros_and_subnormals_round_trip() {
    let mut data = Dataset::new(2);
    for i in 0..40 {
        match i % 5 {
            0 => data.push(&[0.0, -0.0]),
            1 => data.push(&[-0.0, 0.0]),
            2 => data.push(&[5.0e-324, -5.0e-324]),
            3 => data.push(&[1.0, 1.0]), // deliberate duplicates
            _ => data.push(&[i as f64, -(i as f64)]),
        };
    }
    let tree = KdTree::build(&data);
    let bytes = tree.to_bytes();
    let back = KdTree::from_bytes(&data, &bytes).unwrap();
    assert!(back.layout_eq(&tree));
    // The zero-copy view answers queries straight off the bytes, with no
    // dataset at all — identically to the owned tree.
    let view = KdTree::view(&bytes).unwrap();
    assert!(view.is_zero_copy());
    for i in 0..data.len() {
        let q = data.point(i);
        assert_eq!(view.range_count(q, 3.0, Some(i)), tree.range_count(q, 3.0, Some(i)));
        assert_eq!(view.nearest_neighbor(q, Some(i)), tree.nearest_neighbor(q, Some(i)));
    }
}

#[test]
fn subset_trees_round_trip_without_a_position_map() {
    let data = random_dataset(120, 3, 77);
    let ids: Vec<usize> = (0..data.len()).step_by(3).collect();
    let tree = KdTree::build_subset(&data, &ids);
    let bytes = tree.to_bytes();
    let back = KdTree::from_bytes(&data, &bytes).unwrap();
    assert!(back.layout_eq(&tree));
    let view = KdTree::view(&bytes).unwrap();
    assert_eq!(view.len(), ids.len());
}

#[test]
fn empty_tree_round_trips() {
    let data = Dataset::new(2);
    let tree = KdTree::build(&data);
    let bytes = tree.to_bytes();
    let back = KdTree::from_bytes(&data, &bytes).unwrap();
    assert!(back.layout_eq(&tree));
    let view = KdTree::view(&bytes).unwrap();
    assert!(view.is_empty());
    assert_eq!(view.range_count(&[0.0, 0.0], 1.0, None), 0);
    assert_eq!(view.nearest_neighbor(&[0.0, 0.0], None), None);
}

#[test]
fn misaligned_tree_decode_takes_the_copy_fallback() {
    let data = random_dataset(60, 2, 31);
    let tree = KdTree::build(&data);
    let bytes = tree.to_bytes();
    let mut shifted = vec![0u8; bytes.len() + 1];
    shifted[1..].copy_from_slice(&bytes);
    let view = KdTree::view(&shifted[1..]).unwrap();
    assert!(!view.is_zero_copy());
    let back = view.to_tree(&data).unwrap();
    assert!(back.layout_eq(&tree));
}

#[test]
fn snapshot_artifact_round_trips_and_is_a_superset() {
    let data = random_dataset(150, 2, 55);
    let model = random_model(150, 56);
    let tree = KdTree::build(&data);
    let thresholds = Thresholds::new(1.0, 2.0).unwrap();
    let bytes = SnapshotArtifact::encode(&data, &model, &tree, &thresholds);

    let artifact = SnapshotArtifact::from_bytes(&bytes).unwrap();
    assert_eq!(artifact.n(), 150);
    assert_eq!(artifact.dim(), 2);
    assert_eq!(artifact.thresholds(), thresholds);
    assert!(artifact.model().is_zero_copy() && artifact.tree().is_zero_copy());
    assert!(artifact.model().to_model().unwrap().layout_eq(&model));
    assert!(artifact.tree().to_tree(&data).unwrap().layout_eq(&tree));
    let revived = artifact.dataset();
    assert_eq!(revived.flat(), data.flat());

    // Superset property: the combined buffer also decodes through the
    // standalone decoders, which ignore sections they do not need.
    assert!(DpcModel::from_bytes(&bytes).unwrap().layout_eq(&model));
    assert!(KdTree::from_bytes(&data, &bytes).unwrap().layout_eq(&tree));
}

#[test]
fn tree_decode_rejects_a_different_dataset() {
    // A tree persisted against one dataset must not revive against another:
    // the packed coordinate rows are validated bitwise.
    let data = random_dataset(50, 2, 91);
    let other = random_dataset(50, 2, 92);
    let bytes = KdTree::build(&data).to_bytes();
    assert!(KdTree::from_bytes(&data, &bytes).is_ok());
    assert!(matches!(
        KdTree::from_bytes(&other, &bytes),
        Err(dpc_core::DpcError::Corrupt { section: "tree", .. })
    ));
}
