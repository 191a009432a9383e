//! Span kinds: the levels of the `query → stage → operator → pass`
//! hierarchy.
//!
//! Higher layers open the enclosing spans (query, plan stage, operator)
//! through [`crate::device::Gpu::span_begin`]; the device opens a leaf
//! around every costed operation (draw, readback, upload). Both land in
//! the [`crate::log::DeviceLog`], stamped on the modeled clock, and
//! `gpudb_obs::SpanTree::from_log` assembles them into a tree.

use serde::{Deserialize, Serialize};

/// The level of a span in the `query → stage → operator → pass` hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpanKind {
    /// A whole query execution.
    Query,
    /// A plan stage within a query (selection, one aggregate, ...).
    Stage,
    /// One database operator invocation (what a `MetricsRecord` covers).
    Operator,
    /// One rendering pass (a draw call, or an on-card copy).
    Pass,
    /// A device → host transfer (buffer readback, occlusion sync).
    Readback,
    /// A host → device transfer (texture upload).
    Upload,
    /// Anything else.
    Other,
}

impl SpanKind {
    /// Human-readable name, stable across versions (used in exports).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Query => "query",
            SpanKind::Stage => "stage",
            SpanKind::Operator => "operator",
            SpanKind::Pass => "pass",
            SpanKind::Readback => "readback",
            SpanKind::Upload => "upload",
            SpanKind::Other => "other",
        }
    }

    /// Depth of this kind in the canonical hierarchy; used to filter by
    /// detail level without tracking parents.
    pub fn depth(self) -> u8 {
        match self {
            SpanKind::Query => 0,
            SpanKind::Stage => 1,
            SpanKind::Operator => 2,
            SpanKind::Pass | SpanKind::Readback | SpanKind::Upload | SpanKind::Other => 3,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_distinct() {
        let kinds = [
            SpanKind::Query,
            SpanKind::Stage,
            SpanKind::Operator,
            SpanKind::Pass,
            SpanKind::Readback,
            SpanKind::Upload,
            SpanKind::Other,
        ];
        let names: std::collections::HashSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
        assert!(SpanKind::Query.depth() < SpanKind::Stage.depth());
        assert!(SpanKind::Stage.depth() < SpanKind::Operator.depth());
        assert!(SpanKind::Operator.depth() < SpanKind::Pass.depth());
    }
}
