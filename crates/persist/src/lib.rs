//! Versioned, checksummed, zero-copy on-disk artifacts for fitted DPC models
//! and packed kd-trees — the "fit on one box, serve from many" unlock.
//!
//! A fitted [`DpcModel`] and the packed [`KdTree`] are already flat
//! contiguous buffers; this crate writes them into a single artifact
//! (magic + format version + endianness tag + section table, with
//! per-section and whole-file checksums — see [`mod@format`] for the byte
//! layout) that a serving process decodes by **borrowing**, not by
//! deserialising: [`ModelRef`] and [`KdTreeRef`] validate the container and
//! then serve reads — including full kd-tree range/NN queries — straight off
//! the byte slice. The cast is alignment-checked with a documented
//! element-copy fallback for misaligned input, so any `&[u8]` works; a
//! buffer read from disk takes the zero-copy path.
//!
//! Three artifact flavours share one container:
//!
//! * a **model artifact** ([`PersistModel::to_bytes`] /
//!   `DpcModel::from_bytes`),
//! * a **tree artifact** ([`PersistTree::to_bytes`] /
//!   `KdTree::from_bytes(data, bytes)`),
//! * a **snapshot artifact** ([`SnapshotArtifact`]) bundling dataset +
//!   model + tree + fit thresholds, which is what `dpc-serve`'s
//!   `ModelStore::load` installs as a serving epoch without refitting.
//!
//! Every decode failure — truncation, bit flip, bad magic or version,
//! foreign endianness, checksum mismatch, or a payload violating the
//! structural invariants of the decoded type — is a typed
//! [`DpcError`], never a panic and never undefined behaviour: the parser is
//! fully bounds-checked before any cast, and the owned constructors
//! (`DpcModel::from_saved_parts`, `KdTree::from_packed_parts`) re-validate
//! structure on top. Round-trips are **bitwise**: a decoded model/tree passes
//! `layout_eq` against the original, which the golden artifacts under
//! `tests/golden/` pin in CI (bump [`FORMAT_VERSION`] to change them).

use std::path::Path;

use dpc_core::{DpcError, DpcModel};
use dpc_geometry::Dataset;
use dpc_index::KdTree;

pub mod format;
mod model;
mod snapshot;
mod tree;

pub use format::{ENDIAN_TAG, FORMAT_VERSION, MAGIC};
pub use model::ModelRef;
pub use snapshot::SnapshotArtifact;
pub use tree::KdTreeRef;

use format::parse_sections;

/// Persistence for [`DpcModel`]: `model.to_bytes()` and
/// `DpcModel::from_bytes(&bytes)` (import the trait to use them).
pub trait PersistModel: Sized {
    /// Encodes the model into a standalone artifact buffer.
    fn to_bytes(&self) -> Vec<u8>;

    /// Decodes a model from an artifact, validating container and structure.
    /// Accepts any artifact carrying the model sections — including a
    /// combined [`SnapshotArtifact`] buffer.
    ///
    /// # Errors
    /// [`DpcError::TruncatedArtifact`] when the buffer is shorter than its
    /// header or sections claim, [`DpcError::Corrupt`] for every other
    /// validation failure.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DpcError>;

    /// Parses a zero-copy borrowed view instead of materialising the model.
    fn view(bytes: &[u8]) -> Result<ModelRef<'_>, DpcError>;
}

impl PersistModel for DpcModel {
    fn to_bytes(&self) -> Vec<u8> {
        let mut writer = format::ArtifactWriter::new();
        model::write_model_sections(&mut writer, self);
        writer.finish()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, DpcError> {
        Self::view(bytes)?.to_model()
    }

    fn view(bytes: &[u8]) -> Result<ModelRef<'_>, DpcError> {
        ModelRef::from_sections(&parse_sections(bytes)?)
    }
}

/// Persistence for [`KdTree`]: `tree.to_bytes()` and
/// `KdTree::from_bytes(&data, &bytes)` (import the trait to use them).
/// Decoding validates the packed storage against the dataset the tree
/// indexes — it must agree with `data` bitwise, which
/// [`KdTree::from_packed_parts`] enforces — and returns a tree that owns its
/// storage; `data` is read only during the call.
pub trait PersistTree: Sized {
    /// Encodes the tree's packed storage into a standalone artifact buffer.
    fn to_bytes(&self) -> Vec<u8>;

    /// Decodes a tree over `data` from an artifact, validating container,
    /// structure, and bitwise agreement with the dataset. Accepts any
    /// artifact carrying the tree sections — including a combined
    /// [`SnapshotArtifact`] buffer.
    ///
    /// # Errors
    /// [`DpcError::TruncatedArtifact`] when the buffer is shorter than its
    /// header or sections claim, [`DpcError::Corrupt`] for every other
    /// validation failure.
    fn from_bytes(data: &Dataset, bytes: &[u8]) -> Result<Self, DpcError>;

    /// Parses a zero-copy borrowed view that answers queries straight off
    /// `bytes`, with no dataset needed.
    fn view(bytes: &[u8]) -> Result<KdTreeRef<'_>, DpcError>;
}

impl PersistTree for KdTree {
    fn to_bytes(&self) -> Vec<u8> {
        let mut writer = format::ArtifactWriter::new();
        tree::write_tree_sections(&mut writer, self);
        writer.finish()
    }

    fn from_bytes(data: &Dataset, bytes: &[u8]) -> Result<Self, DpcError> {
        Self::view(bytes)?.to_tree(data)
    }

    fn view(bytes: &[u8]) -> Result<KdTreeRef<'_>, DpcError> {
        KdTreeRef::from_sections(&parse_sections(bytes)?)
    }
}

/// Reads an artifact file into memory, mapping I/O failures to
/// [`DpcError::Io`]. The returned buffer starts allocation-aligned, so
/// decoding it takes the zero-copy path.
pub fn read_artifact_file(path: &Path) -> Result<Vec<u8>, DpcError> {
    std::fs::read(path)
        .map_err(|e| DpcError::Io { op: "read artifact file", message: e.to_string() })
}

/// Writes an artifact buffer to `path` atomically: the bytes land in a
/// sibling temporary file which is then renamed over the target, so a crash
/// mid-write leaves either the old artifact or none — never a torn one (a
/// torn artifact would still be *detected* by the checksums, but never
/// installed).
pub fn write_artifact_file(path: &Path, bytes: &[u8]) -> Result<(), DpcError> {
    let io = |message: std::io::Error| DpcError::Io {
        op: "write artifact file",
        message: message.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, bytes).map_err(io)?;
    std::fs::rename(&tmp, path).map_err(io)
}
