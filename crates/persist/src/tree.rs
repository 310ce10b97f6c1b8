//! Kd-tree persistence: encoding the packed storage into artifact sections,
//! and the zero-copy [`KdTreeRef`] view that can answer range/NN queries
//! straight off the artifact bytes.

use std::borrow::Cow;

use dpc_core::DpcError;
use dpc_geometry::Dataset;
use dpc_index::{canonical_node_layout, KdTree, PackedNode, PackedParts};

use crate::format::{kind, view_slice, ArtifactWriter, Cursor, PayloadExt, Sections};

/// Appends the tree sections to an artifact under construction. Shared by the
/// standalone tree artifact and the combined snapshot artifact.
pub(crate) fn write_tree_sections(writer: &mut ArtifactWriter, tree: &KdTree) {
    let parts = tree.packed_parts();
    let mut meta = Vec::new();
    meta.put_u64(parts.dim as u64);
    meta.put_u64(parts.ids.len() as u64);
    meta.put_u64(parts.nodes.len() as u64);
    meta.put_u64(u64::from(parts.pos.is_some()));
    writer.section(kind::TREE_META, meta);

    let mut ids = Vec::new();
    ids.put_u32_slice(parts.ids);
    writer.section(kind::TREE_IDS, ids);
    let mut coords = Vec::new();
    coords.put_f64_slice(parts.coords);
    writer.section(kind::TREE_COORDS, coords);
    let mut nodes = Vec::new();
    for node in parts.nodes {
        nodes.put_u32_slice(&[node.start, node.end, node.right]);
    }
    writer.section(kind::TREE_NODES, nodes);
    if let Some(pos) = parts.pos {
        let mut buf = Vec::new();
        buf.put_u32_slice(pos);
        writer.section(kind::TREE_POS, buf);
    }
    let mut bounds = Vec::new();
    bounds.put_f64_slice(parts.bounds);
    writer.section(kind::TREE_BOUNDS, bounds);
}

/// A zero-copy view of a persisted packed kd-tree. Parsing validates enough
/// structure to make every query panic-free — most importantly that the node
/// array equals the canonical layout for the point count, which bounds
/// traversal depth and every packed range — and the view then answers
/// [`range_count`](KdTreeRef::range_count) /
/// [`range_search_into`](KdTreeRef::range_search_into) /
/// [`nearest_neighbor`](KdTreeRef::nearest_neighbor) directly over the
/// artifact bytes through the same [`PackedParts`] algorithms the owned tree
/// uses. No dataset is needed: the packed coordinate rows are part of the
/// artifact.
///
/// Buffers borrow from the input whenever their sections sit suitably aligned
/// in memory (guaranteed by the writer for any buffer that itself starts
/// 8-aligned — every `Vec<u8>` read from disk); a misaligned input slice pays
/// a documented copy fallback instead of failing
/// ([`KdTreeRef::is_zero_copy`] tells which path was taken).
///
/// Materialising an owned [`KdTree`] with [`KdTreeRef::to_tree`] re-runs the
/// exhaustive validation of [`KdTree::from_packed_parts`] against the target
/// dataset (bitwise coordinate agreement, bounding-box agreement, position
/// map inversion), so the result is `layout_eq` to the tree that was
/// persisted.
pub struct KdTreeRef<'a> {
    dim: usize,
    ids: Cow<'a, [u32]>,
    coords: Cow<'a, [f64]>,
    pos: Option<Cow<'a, [u32]>>,
    nodes: Cow<'a, [PackedNode]>,
    bounds: Cow<'a, [f64]>,
}

impl<'a> KdTreeRef<'a> {
    /// Parses the tree sections out of a validated section table.
    pub(crate) fn from_sections(sections: &Sections<'a>) -> Result<Self, DpcError> {
        let corrupt = |what: &'static str| DpcError::Corrupt { section: "tree", what };
        let mut meta = Cursor::new(sections.require(kind::TREE_META, "tree")?, "tree");
        let dim = meta.read_len()?;
        let n = meta.read_len()?;
        let node_count = meta.read_len()?;
        let has_pos = meta.read_u64()?;
        meta.finish()?;
        if dim == 0 {
            return Err(corrupt("zero dimensionality"));
        }
        if has_pos > 1 {
            return Err(corrupt("position-map flag is not boolean"));
        }

        let ids = view_slice::<u32>(sections.require(kind::TREE_IDS, "tree")?, "tree")?;
        let coords = view_slice::<f64>(sections.require(kind::TREE_COORDS, "tree")?, "tree")?;
        let nodes = view_slice::<PackedNode>(sections.require(kind::TREE_NODES, "tree")?, "tree")?;
        let bounds = view_slice::<f64>(sections.require(kind::TREE_BOUNDS, "tree")?, "tree")?;
        if ids.len() != n {
            return Err(corrupt("id count disagrees with metadata"));
        }
        let coord_len = n.checked_mul(dim).ok_or_else(|| corrupt("point count overflows"))?;
        if coords.len() != coord_len {
            return Err(corrupt("coordinate buffer length disagrees with metadata"));
        }
        if nodes.len() != node_count {
            return Err(corrupt("node count disagrees with metadata"));
        }
        // The canonical-shape comparison is the load-bearing check: it pins
        // every node's packed range inside `0..n`, every right-child index
        // inside the array, and the exact balanced shape whose depth the
        // fixed traversal stacks are sized for.
        if *nodes != canonical_node_layout(n) {
            return Err(corrupt("node array is not the canonical layout for the point count"));
        }
        if bounds.len() != node_count * 2 * dim {
            return Err(corrupt("bounds buffer length disagrees with metadata"));
        }
        let pos = if has_pos == 1 {
            let pos = view_slice::<u32>(sections.require(kind::TREE_POS, "tree")?, "tree")?;
            // The position map must be the exact inverse of the packed ids
            // (which also proves the ids duplicate-free and in range): the
            // O(1) exclusion fast path indexes it without further checks.
            let mut expected = vec![PackedNode::NO_CHILD; pos.len()];
            for (k, &id) in ids.iter().enumerate() {
                let slot = expected
                    .get_mut(id as usize)
                    .ok_or_else(|| corrupt("packed id out of range of the position map"))?;
                *slot = k as u32;
            }
            if *pos != expected {
                return Err(corrupt("position map is not the inverse of the packed ids"));
            }
            Some(pos)
        } else {
            if sections.get(kind::TREE_POS).is_some() {
                return Err(corrupt("position map present but flagged absent"));
            }
            None
        };
        Ok(Self { dim, ids, coords, pos, nodes, bounds })
    }

    /// Number of points in the tree.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the tree holds no points.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Point dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether every buffer of this view borrows from the artifact bytes
    /// (see the type-level docs for when the copy fallback triggers).
    pub fn is_zero_copy(&self) -> bool {
        matches!(self.ids, Cow::Borrowed(_))
            && matches!(self.coords, Cow::Borrowed(_))
            && matches!(self.nodes, Cow::Borrowed(_))
            && matches!(self.bounds, Cow::Borrowed(_))
            && self.pos.as_ref().is_none_or(|p| matches!(p, Cow::Borrowed(_)))
    }

    /// The borrowed query view over this storage — the same [`PackedParts`]
    /// the owned tree queries through.
    pub fn packed_parts(&self) -> PackedParts<'_> {
        PackedParts {
            dim: self.dim,
            ids: &self.ids,
            coords: &self.coords,
            pos: self.pos.as_deref(),
            nodes: &self.nodes,
            bounds: &self.bounds,
        }
    }

    /// Counts points within the closed ball, straight off the artifact bytes.
    /// See `KdTree::range_count`.
    pub fn range_count(&self, query: &[f64], radius: f64, exclude: Option<usize>) -> usize {
        self.packed_parts().range_count(query, radius, exclude)
    }

    /// Reports points within the closed ball into `out` (cleared first),
    /// straight off the artifact bytes. See `KdTree::range_search_into`.
    pub fn range_search_into(&self, query: &[f64], radius: f64, out: &mut Vec<usize>) {
        self.packed_parts().range_search_into(query, radius, out);
    }

    /// Nearest indexed neighbour of `query`, straight off the artifact bytes.
    /// See `KdTree::nearest_neighbor`.
    pub fn nearest_neighbor(&self, query: &[f64], exclude: Option<usize>) -> Option<(usize, f64)> {
        self.packed_parts().nearest_neighbor(query, exclude)
    }

    /// Materialises an owned [`KdTree`], validated against `data` through the
    /// exhaustive [`KdTree::from_packed_parts`] — the decoded storage must
    /// agree with `data` bitwise, so a tree persisted against one dataset
    /// cannot be silently revived against another.
    pub fn to_tree(&self, data: &Dataset) -> Result<KdTree, DpcError> {
        KdTree::from_packed_parts(
            data,
            self.ids.to_vec(),
            self.coords.to_vec(),
            self.pos.as_ref().map(|p| p.to_vec()),
            self.nodes.to_vec(),
            self.bounds.to_vec(),
        )
        .map_err(|what| DpcError::Corrupt { section: "tree", what })
    }
}
