//! Pre-execution static verification of partition plans and repairs.
//!
//! WiseGraph's correctness rests on one invariant that the rest of the
//! workspace checks only dynamically, if at all: every partition plan must
//! cover each edge exactly once while honoring its `uniq(attr)`
//! restrictions (paper §4.2). This crate proves that property of a
//! caller's plan or repair *before* a single epoch runs, and fails fast
//! with a precise, structured [`Diagnostic`] instead of silently training
//! on a corrupt partition. A DFG needs no pass here: `Dfg`'s builder
//! rejects an out-of-range id and infers every shape, so a DFG that exists
//! is well-formed. Checks of the repository's own code are tests, not
//! passes here: register and fusion legality (§5.2) hold because
//! `micro::compile` made the program, the §5.1 rewrites are checked
//! against `dfg::interp`, and span coverage is checked by capturing the
//! spans the entry points record.
//!
//! Two passes:
//!
//! - [`plan`]: exact-once edge coverage, `Exact`/`Min` restriction
//!   satisfaction, non-empty and monotone gTask bounds (codes `P...`);
//! - [`repair`]: incremental-repair equivalence — a repaired plan must
//!   verify identically to a from-scratch partition of the same live edge
//!   set (code `C001`).

pub mod plan;
pub mod repair;

use std::fmt;

/// How bad a finding is. `Error` findings reject the plan or repair;
/// `Warning` findings are advisory.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not provably wrong.
    Warning,
    /// A proven invariant violation: executing would be incorrect.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// Stable diagnostic codes, one per invariant family. The string forms
/// (`P001`, `C001`, ...) are part of the tool's interface: tests assert
/// them and DESIGN.md §8 documents them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Code {
    /// An edge is missing from, duplicated across, or out of range for
    /// the plan's gTasks.
    PlanEdgeCoverage,
    /// A gTask violates (or disagrees with) a table restriction.
    PlanRestriction,
    /// A gTask holds no edges.
    PlanEmptyTask,
    /// gTask edges are not monotone in the partitioner's sort-key order.
    PlanTaskOrder,
    /// An incrementally repaired plan diverges from a from-scratch
    /// partition of the same live edge set: different coverage, a violated
    /// restriction, or a different verification verdict.
    RepairDivergence,
}

impl Code {
    /// The stable short form used in output and tests.
    pub const fn as_str(self) -> &'static str {
        match self {
            Code::PlanEdgeCoverage => "P001",
            Code::PlanRestriction => "P002",
            Code::PlanEmptyTask => "P003",
            Code::PlanTaskOrder => "P004",
            Code::RepairDivergence => "C001",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where in the verified artifact a finding is anchored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// The artifact as a whole.
    Global,
    /// One gTask, by index in the plan.
    Task(usize),
    /// One edge, by id.
    Edge(usize),
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Global => f.write_str("global"),
            Span::Task(i) => write!(f, "task {i}"),
            Span::Edge(e) => write!(f, "edge {e}"),
        }
    }
}

/// One structured finding of a verifier pass.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The invariant family violated.
    pub code: Code,
    /// Anchor within the artifact.
    pub span: Span,
    /// What exactly is wrong, with the observed values.
    pub message: String,
    /// How to fix it, when the pass can tell.
    pub suggestion: Option<String>,
}

impl Diagnostic {
    /// An error finding.
    pub fn error(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Error,
            code,
            span,
            message: message.into(),
            suggestion: None,
        }
    }

    /// A warning finding.
    pub fn warning(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Self::error(code, span, message)
        }
    }

    /// Attaches a fix suggestion.
    pub fn with_suggestion(mut self, s: impl Into<String>) -> Self {
        self.suggestion = Some(s.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {}: {}",
            self.severity, self.code, self.span, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " (help: {s})")?;
        }
        Ok(())
    }
}

/// Caps a burst of same-code findings: the first [`DIAG_CAP`] are kept
/// verbatim; the rest collapse into one summarizing finding so a
/// million-edge coverage failure stays readable.
pub(crate) fn push_capped(out: &mut Vec<Diagnostic>, found: Vec<Diagnostic>) {
    /// Per-category finding cap.
    const DIAG_CAP: usize = 8;
    let extra = found.len().saturating_sub(DIAG_CAP);
    let tail = found.get(DIAG_CAP.saturating_sub(1)).map(|d| (d.severity, d.code));
    out.extend(found.into_iter().take(DIAG_CAP));
    if let (Some((severity, code)), true) = (tail, extra > 0) {
        out.push(Diagnostic {
            severity,
            code,
            span: Span::Global,
            message: format!("... and {extra} more findings of this kind"),
            suggestion: None,
        });
    }
}

/// The passes and their finding types, for callers composing their own
/// pipelines.
pub mod prelude {
    pub use crate::plan::verify_plan;
    pub use crate::repair::verify_repair;
    pub use crate::{Code, Diagnostic, Severity, Span};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_rendering_includes_code_span_and_suggestion() {
        let d = Diagnostic::error(
            Code::PlanEdgeCoverage,
            Span::Edge(7),
            "edge 7 is not covered by any gTask",
        )
        .with_suggestion("re-run the greedy partitioner");
        let s = d.to_string();
        assert!(s.contains("error[P001]"), "{s}");
        assert!(s.contains("edge 7"), "{s}");
        assert!(s.contains("help:"), "{s}");
    }

    #[test]
    fn capping_collapses_bursts() {
        let mk = |i| {
            Diagnostic::error(Code::PlanEdgeCoverage, Span::Edge(i), format!("edge {i}"))
        };
        let mut out = Vec::new();
        push_capped(&mut out, (0..20).map(mk).collect());
        assert_eq!(out.len(), 9, "8 kept + 1 summary");
        assert!(out[8].message.contains("12 more"), "{}", out[8].message);
        let mut small = Vec::new();
        push_capped(&mut small, (0..3).map(mk).collect());
        assert_eq!(small.len(), 3);
    }
}
