//! The combined snapshot artifact: dataset + model + kd-tree + fit
//! thresholds in one buffer, so a serving process can install an epoch from
//! disk without refitting — the "fit on one box, serve from many" path.

use std::borrow::Cow;

use dpc_core::{DpcError, DpcModel, Thresholds};
use dpc_geometry::Dataset;
use dpc_index::KdTree;

use crate::format::{kind, parse_sections, view_slice, ArtifactWriter, Cursor, PayloadExt};
use crate::model::{write_model_sections, ModelRef};
use crate::tree::{write_tree_sections, KdTreeRef};

/// A parsed snapshot artifact: zero-copy views of the model and tree plus the
/// dataset coordinates and the fit thresholds, all mutually consistent
/// (same point count, same dimensionality — validated at parse time).
///
/// The artifact is a superset of the standalone model and tree artifacts: the
/// same buffer also decodes through `DpcModel::from_bytes` and
/// `KdTree::from_bytes`, because decoders ignore sections they do not need.
pub struct SnapshotArtifact<'a> {
    model: ModelRef<'a>,
    tree: KdTreeRef<'a>,
    dataset_dim: usize,
    dataset_coords: Cow<'a, [f64]>,
    thresholds: Thresholds,
}

impl<'a> SnapshotArtifact<'a> {
    /// Encodes one serving state — dataset, fitted model, packed tree and the
    /// thresholds of the cached extraction — into a single artifact buffer.
    ///
    /// # Panics
    /// Panics if the parts are inconsistent (model/tree/dataset point counts
    /// or dimensionality disagree): encoding garbage would defeat every
    /// validation the decode side performs.
    pub fn encode(
        data: &Dataset,
        model: &DpcModel,
        tree: &KdTree,
        thresholds: &Thresholds,
    ) -> Vec<u8> {
        assert_eq!(model.n(), data.len(), "model and dataset point counts disagree");
        assert_eq!(tree.len(), data.len(), "tree and dataset point counts disagree");
        let mut writer = ArtifactWriter::new();
        let mut data_meta = Vec::new();
        data_meta.put_u64(data.dim() as u64);
        data_meta.put_u64(data.len() as u64);
        writer.section(kind::DATA_META, data_meta);
        let mut coords = Vec::new();
        coords.put_f64_slice(data.flat());
        writer.section(kind::DATA_COORDS, coords);
        write_model_sections(&mut writer, model);
        write_tree_sections(&mut writer, tree);
        let mut snap = Vec::new();
        snap.put_f64(thresholds.rho_min);
        snap.put_f64(thresholds.delta_min);
        writer.section(kind::SNAP_META, snap);
        writer.finish()
    }

    /// Validates the container and every constituent section, plus the
    /// cross-section consistency a serving install relies on: model, tree and
    /// dataset must agree on the point count, tree and dataset on the
    /// dimensionality, and the thresholds must be valid.
    pub fn from_bytes(bytes: &'a [u8]) -> Result<Self, DpcError> {
        let corrupt = |what: &'static str| DpcError::Corrupt { section: "snapshot", what };
        let sections = parse_sections(bytes)?;
        let mut meta = Cursor::new(sections.require(kind::DATA_META, "dataset")?, "dataset");
        let dataset_dim = meta.read_len()?;
        let dataset_len = meta.read_len()?;
        meta.finish()?;
        if dataset_dim == 0 {
            return Err(DpcError::Corrupt { section: "dataset", what: "zero dimensionality" });
        }
        let dataset_coords =
            view_slice::<f64>(sections.require(kind::DATA_COORDS, "dataset")?, "dataset")?;
        let coord_len = dataset_len
            .checked_mul(dataset_dim)
            .ok_or(DpcError::Corrupt { section: "dataset", what: "point count overflows" })?;
        if dataset_coords.len() != coord_len {
            return Err(DpcError::Corrupt {
                section: "dataset",
                what: "coordinate buffer length disagrees with metadata",
            });
        }
        let model = ModelRef::from_sections(&sections)?;
        let tree = KdTreeRef::from_sections(&sections)?;
        let mut snap = Cursor::new(sections.require(kind::SNAP_META, "snapshot")?, "snapshot");
        let rho_min = snap.read_f64()?;
        let delta_min = snap.read_f64()?;
        snap.finish()?;
        let thresholds =
            Thresholds::new(rho_min, delta_min).map_err(|_| corrupt("invalid thresholds"))?;
        if model.n() != dataset_len {
            return Err(corrupt("model and dataset point counts disagree"));
        }
        if tree.len() != dataset_len {
            return Err(corrupt("tree and dataset point counts disagree"));
        }
        if tree.dim() != dataset_dim {
            return Err(corrupt("tree and dataset dimensionality disagree"));
        }
        Ok(Self { model, tree, dataset_dim, dataset_coords, thresholds })
    }

    /// The zero-copy model view.
    pub fn model(&self) -> &ModelRef<'a> {
        &self.model
    }

    /// The zero-copy tree view (queries answer straight off the bytes).
    pub fn tree(&self) -> &KdTreeRef<'a> {
        &self.tree
    }

    /// The thresholds of the extraction that was serving when the snapshot
    /// was taken.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Number of points in the snapshot.
    pub fn n(&self) -> usize {
        self.model.n()
    }

    /// Dataset dimensionality.
    pub fn dim(&self) -> usize {
        self.dataset_dim
    }

    /// The persisted dataset coordinates, row-major (zero-copy view).
    pub fn dataset_coords(&self) -> &[f64] {
        &self.dataset_coords
    }

    /// Materialises an owned [`Dataset`] from the persisted coordinates.
    pub fn dataset(&self) -> Dataset {
        Dataset::from_flat(self.dataset_dim, self.dataset_coords.to_vec())
    }
}
