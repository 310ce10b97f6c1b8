//! An immutable, self-contained serving snapshot: one fitted epoch.
//!
//! A [`Snapshot`] bundles everything a request needs to be answered without
//! touching shared mutable state: the dataset the model was fitted on, the
//! fitted [`DpcModel`], a packed [`KdTree`] over the same data (for the
//! point-assignment queries), the snapshot's default [`Thresholds`] and the
//! [`Clustering`] cached for them, and the epoch number the store stamped at
//! install time. Readers hold a snapshot through an `Arc`, so an epoch that
//! has been replaced in the [`ModelStore`](crate::ModelStore) stays fully
//! usable until its last reader drops it — old epochs drain naturally, and no
//! request can observe half of one epoch and half of another.

use std::sync::Arc;

use dpc_core::{Clustering, DpcError, DpcModel, Thresholds, Timings};
use dpc_geometry::Dataset;
use dpc_index::KdTree;
use dpc_parallel::Executor;
use dpc_persist::SnapshotArtifact;

/// One served epoch: a fitted model, its dataset, the packed kd-tree over the
/// permuted coordinates, and the clustering cached for the snapshot's default
/// thresholds. Immutable after construction; shared by `Arc`.
pub struct Snapshot {
    data: Arc<Dataset>,
    tree: KdTree,
    model: DpcModel,
    /// The clustering extracted at `thresholds`, cached so `Assign` can walk
    /// a dependency chain in `O(1)` (the `O(n)` label propagation already
    /// happened once, at snapshot construction).
    clustering: Clustering,
    thresholds: Thresholds,
    /// Stamped by `ModelStore::install`; `0` until the snapshot is installed.
    pub(crate) epoch: u64,
}

impl Snapshot {
    /// Assembles a snapshot from a fitted model and the dataset it was fitted
    /// on: builds the packed kd-tree over the data (fanning construction out
    /// across `executor`'s workers) and caches the clustering for
    /// `thresholds`. The epoch is `0` until
    /// [`ModelStore::install`](crate::ModelStore) stamps it.
    ///
    /// # Panics
    /// Panics if `model.n() != data.len()` — the model must describe exactly
    /// this dataset, otherwise every per-point lookup would be garbage.
    pub fn new(
        data: Arc<Dataset>,
        model: DpcModel,
        thresholds: Thresholds,
        executor: &Executor,
    ) -> Self {
        assert_eq!(
            model.n(),
            data.len(),
            "model covers {} points but the dataset has {}",
            model.n(),
            data.len()
        );
        let tree = KdTree::build_parallel(&data, executor);
        let clustering = model.extract(&thresholds);
        Self { data, tree, model, clustering, thresholds, epoch: 0 }
    }

    /// Serialises this epoch into a single snapshot artifact buffer
    /// ([`SnapshotArtifact::encode`]): dataset, model, packed kd-tree and the
    /// default thresholds, checksummed and versioned. The epoch number is
    /// deliberately *not* persisted — epochs are an identity the installing
    /// store stamps, not part of the fitted state.
    pub fn to_artifact_bytes(&self) -> Vec<u8> {
        SnapshotArtifact::encode(&self.data, &self.model, &self.tree, &self.thresholds)
    }

    /// Rebuilds a serving snapshot from a snapshot artifact **without
    /// refitting and without rebuilding the kd-tree**: the packed tree
    /// storage is decoded (and exhaustively validated against the decoded
    /// dataset) instead of being reconstructed, which is what makes cold
    /// starts cheap. Only the `O(n)` label propagation for the persisted
    /// thresholds runs at load time. The epoch is `0` until
    /// [`ModelStore::install`](crate::ModelStore) stamps it.
    ///
    /// The result is indistinguishable from the snapshot that was saved:
    /// model and tree decode `layout_eq` to the originals, so every
    /// `Relabel`/`Assign`/`Stats` answer is identical.
    ///
    /// # Errors
    /// Every artifact defect — truncation, checksum mismatch, version or
    /// endianness mismatch, or a payload violating the structural invariants
    /// of model or tree — surfaces as a typed [`DpcError`]; never a panic.
    pub fn from_artifact_bytes(bytes: &[u8]) -> Result<Self, DpcError> {
        let artifact = SnapshotArtifact::from_bytes(bytes)?;
        let data = Arc::new(artifact.dataset());
        let model = artifact.model().to_model()?;
        let thresholds = artifact.thresholds();
        let tree = artifact.tree().to_tree(&data)?;
        let clustering = model.extract(&thresholds);
        Ok(Self { data, tree, model, clustering, thresholds, epoch: 0 })
    }

    /// The epoch this snapshot was installed as (unique and monotonically
    /// increasing per store; `0` for a snapshot never installed).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The dataset the model was fitted on.
    pub fn data(&self) -> &Dataset {
        &self.data
    }

    /// A shared handle to the dataset (cheap clone; used by refit pipelines
    /// that want to derive the next window from the current one).
    pub fn data_arc(&self) -> Arc<Dataset> {
        Arc::clone(&self.data)
    }

    /// The fitted model.
    pub fn model(&self) -> &DpcModel {
        &self.model
    }

    /// The packed kd-tree over the snapshot's dataset.
    pub fn tree(&self) -> &KdTree {
        &self.tree
    }

    /// The snapshot's default thresholds — the ones `Assign` classifies
    /// against and [`Snapshot::clustering`] was extracted with.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// The clustering cached for [`Snapshot::thresholds`].
    pub fn clustering(&self) -> &Clustering {
        &self.clustering
    }

    /// Number of points in the snapshot's dataset.
    pub fn n(&self) -> usize {
        self.model.n()
    }

    /// Dimensionality of the snapshot's dataset.
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// The cutoff distance the model was fitted with.
    pub fn dcut(&self) -> f64 {
        self.model.dcut()
    }

    /// Wall-clock of the fit phases that produced the model.
    pub fn fit_timings(&self) -> Timings {
        self.model.fit_timings()
    }

    /// Approximate heap bytes of the index structures this snapshot pins in
    /// memory: the fit-time indexes accounted in the model plus the serving
    /// kd-tree.
    pub fn index_bytes(&self) -> usize {
        self.model.index_bytes() + self.tree.mem_usage()
    }
}

// `Snapshot` is shared across reader and writer threads through `Arc`; all
// fields are immutable after construction and every field is `Send + Sync`.
// The explicit assertions keep a future non-Sync field from compiling.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Snapshot>()
};

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::{DpcAlgorithm, DpcParams, ExDpc};
    use dpc_data::generators::gaussian_blobs;

    fn fit_snapshot() -> Snapshot {
        let data = Arc::new(gaussian_blobs(&[(0.0, 0.0), (60.0, 60.0)], 80, 2.0, 7));
        let model = ExDpc::new(DpcParams::new(4.0)).fit(&data).unwrap();
        Snapshot::new(data, model, Thresholds::new(3.0, 12.0).unwrap(), &Executor::single())
    }

    #[test]
    fn snapshot_bundles_model_tree_and_cached_clustering() {
        let snap = fit_snapshot();
        assert_eq!(snap.epoch(), 0); // not installed
        assert_eq!(snap.n(), 160);
        assert_eq!(snap.dim(), 2);
        assert_eq!(snap.tree().len(), snap.n());
        assert_eq!(snap.clustering().len(), snap.n());
        assert_eq!(snap.clustering().num_clusters(), 2);
        assert!(snap.index_bytes() > snap.model().index_bytes());
        assert_eq!(snap.dcut(), 4.0);
        // The cached clustering is exactly what a fresh extract produces.
        let fresh = snap.model().extract(&snap.thresholds());
        assert_eq!(fresh.assignment, snap.clustering().assignment);
        assert_eq!(fresh.centers, snap.clustering().centers);
    }

    #[test]
    fn tree_queries_read_the_snapshot_dataset() {
        let snap = fit_snapshot();
        // Every point finds itself at distance zero.
        for i in (0..snap.n()).step_by(17) {
            let (nn, d) = snap.tree().nearest_neighbor(snap.data().point(i), None).unwrap();
            assert_eq!(d, 0.0);
            assert_eq!(snap.data().point(nn), snap.data().point(i));
        }
    }

    #[test]
    fn snapshot_survives_outliving_external_data_handles() {
        // The Arc inside the snapshot is the only thing keeping the dataset
        // alive — dropping the caller's handle must not invalidate the tree.
        let data = Arc::new(gaussian_blobs(&[(0.0, 0.0)], 64, 1.5, 3));
        let model = ExDpc::new(DpcParams::new(2.0)).fit(&data).unwrap();
        let snap =
            Snapshot::new(Arc::clone(&data), model, Thresholds::for_dcut(2.0), &Executor::single());
        drop(data);
        assert_eq!(snap.tree().range_count(snap.data().point(0), 2.0, Some(0)), {
            let q = snap.data().point(0);
            (0..snap.n())
                .filter(|&j| j != 0 && dpc_geometry::dist(q, snap.data().point(j)) <= 2.0)
                .count()
        });
    }

    #[test]
    fn artifact_round_trip_reproduces_the_snapshot() {
        let snap = fit_snapshot();
        let bytes = snap.to_artifact_bytes();
        let revived = Snapshot::from_artifact_bytes(&bytes).unwrap();
        assert_eq!(revived.epoch(), 0, "epochs are stamped at install, not persisted");
        assert!(revived.model().layout_eq(snap.model()));
        assert!(revived.tree().layout_eq(snap.tree()));
        assert_eq!(revived.thresholds(), snap.thresholds());
        assert_eq!(revived.data().flat(), snap.data().flat());
        assert_eq!(revived.clustering().assignment, snap.clustering().assignment);
        assert_eq!(revived.clustering().centers, snap.clustering().centers);
        // And the revived snapshot re-encodes to the exact same bytes.
        assert_eq!(revived.to_artifact_bytes(), bytes);
    }

    #[test]
    fn corrupt_artifact_is_a_typed_error() {
        let mut bytes = fit_snapshot().to_artifact_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Snapshot::from_artifact_bytes(&bytes),
            Err(dpc_core::DpcError::Corrupt { .. })
        ));
        bytes[last] ^= 0x40;
        // Truncation mid-payload is caught by the whole-file checksum
        // (Corrupt); truncation into the fixed header reports itself.
        let mut torn = bytes.clone();
        torn.truncate(bytes.len() / 2);
        assert!(matches!(
            Snapshot::from_artifact_bytes(&torn),
            Err(dpc_core::DpcError::Corrupt { .. })
        ));
        bytes.truncate(24);
        assert!(matches!(
            Snapshot::from_artifact_bytes(&bytes),
            Err(dpc_core::DpcError::TruncatedArtifact { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "model covers")]
    fn mismatched_model_and_dataset_panic() {
        let data = Arc::new(gaussian_blobs(&[(0.0, 0.0)], 32, 1.0, 1));
        let model = ExDpc::new(DpcParams::new(2.0)).fit(&data).unwrap();
        let truncated = Arc::new(data.select(&[0, 1, 2]));
        let _ = Snapshot::new(truncated, model, Thresholds::for_dcut(2.0), &Executor::single());
    }
}
