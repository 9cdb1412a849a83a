//! The edge-attribute vocabulary of the graph partition table.
//!
//! Paper §4 organizes graph partitioning around *edge attributes*: values
//! attached to each edge (directly or through its endpoint vertices) that
//! indexing operations use to address memory. The partition table (Figure 6)
//! rows are exactly these attributes.

use std::fmt;

/// The kinds of edge attributes WiseGraph can restrict on.
///
/// `EdgeId`, `SrcId`, `DstId` and `EdgeType` are *indexing* attributes when
/// the model's DFG uses them to address tensors; degrees are *inherent*
/// attributes (never indexed but performance-relevant, §4.2); vertex types
/// stand in for attributes a model may leave *unused*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AttrKind {
    /// The edge's own identifier (position in the edge list).
    EdgeId,
    /// Identifier of the source vertex.
    SrcId,
    /// Identifier of the destination vertex.
    DstId,
    /// Relation type of the edge (used by RGCN to select weights).
    EdgeType,
    /// In-degree of the destination vertex (inherent).
    DstDegree,
    /// Out-degree of the source vertex (inherent).
    SrcDegree,
    /// Type of the source vertex (unused by the evaluated models).
    SrcVertexType,
    /// Type of the destination vertex (unused by the evaluated models).
    DstVertexType,
}

impl AttrKind {
    /// All attribute kinds, in a stable order.
    pub const ALL: [AttrKind; 8] = [
        AttrKind::EdgeId,
        AttrKind::SrcId,
        AttrKind::DstId,
        AttrKind::EdgeType,
        AttrKind::DstDegree,
        AttrKind::SrcDegree,
        AttrKind::SrcVertexType,
        AttrKind::DstVertexType,
    ];
}

impl fmt::Display for AttrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            AttrKind::EdgeId => "edge-id",
            AttrKind::SrcId => "src-id",
            AttrKind::DstId => "dst-id",
            AttrKind::EdgeType => "edge-type",
            AttrKind::DstDegree => "dst-degree",
            AttrKind::SrcDegree => "src-degree",
            AttrKind::SrcVertexType => "src-vertex-type",
            AttrKind::DstVertexType => "dst-vertex-type",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(AttrKind::SrcId.to_string(), "src-id");
        assert_eq!(AttrKind::DstDegree.to_string(), "dst-degree");
    }

    #[test]
    fn all_is_exhaustive_and_unique() {
        let mut v = AttrKind::ALL.to_vec();
        v.sort();
        v.dedup();
        assert_eq!(v.len(), 8);
    }
}
