//! Pre-execution static verification.
//!
//! WiseGraph's correctness rests on invariants that the rest of the
//! workspace checks only dynamically, if at all: every partition plan must
//! cover each edge exactly once while honoring its `uniq(attr)`
//! restrictions (paper §4.2), and a DFG must be well-formed with shapes
//! that inference reproduces. This crate proves those properties of a
//! caller's plan, DFG or repair *before* a single epoch runs, and fails
//! fast with a precise, structured [`Diagnostic`] instead of silently
//! training on a corrupt partition. Checks of the repository's own code
//! are tests, not passes here: register and fusion legality (§5.2) hold
//! because `micro::compile` made the program, the §5.1 rewrites are
//! checked against `dfg::interp`, and span coverage is checked by
//! capturing the spans the entry points record.
//!
//! Three passes:
//!
//! - [`plan`]: exact-once edge coverage, `Exact`/`Min` restriction
//!   satisfaction, non-empty and monotone gTask bounds (codes `P...`);
//! - [`dfgcheck`]: DFG well-formedness (acyclicity, no dangling node ids)
//!   and full dimension inference (codes `D...`);
//! - [`repair`]: incremental-repair equivalence — a repaired plan must
//!   verify identically to a from-scratch partition of the same live edge
//!   set (code `C001`).
//!
//! [`verify_execution`] composes the DFG and plan passes with
//! compile-ability for one (DFG, graph, plan) combination.

pub mod dfgcheck;
pub mod plan;
pub mod repair;

use std::fmt;
use wisegraph_dfg::{Binding, Dfg};
use wisegraph_graph::Graph;
use wisegraph_gtask::PartitionPlan;
use wisegraph_kernels::micro::compile;

/// How bad a finding is. `Error` findings make a [`Report`] fail;
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
/// (`P001`, `D002`, ...) are part of the tool's interface: tests assert
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
    /// Dangling node ids, forward references, or dangling outputs; or a
    /// DFG the micro-kernel compiler rejects.
    DfgIllFormed,
    /// Dimension inference disagrees with a stored shape, or a symbolic
    /// dimension cannot be evaluated under the binding.
    DfgShapeMismatch,
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
            Code::DfgIllFormed => "D001",
            Code::DfgShapeMismatch => "D002",
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
    /// One DFG node, by index.
    Node(usize),
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Global => f.write_str("global"),
            Span::Task(i) => write!(f, "task {i}"),
            Span::Edge(e) => write!(f, "edge {e}"),
            Span::Node(n) => write!(f, "node {n}"),
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

/// An ordered collection of diagnostics with severity accounting.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// All findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one finding.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends a pass's findings.
    pub fn extend(&mut self, ds: Vec<Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Number of `Error` findings.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning` findings.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }

    /// `true` when no finding is an error (warnings allowed).
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0
    }

    /// The distinct codes present, in canonical order.
    pub fn codes(&self) -> Vec<Code> {
        let mut out: Vec<Code> = self.diagnostics.iter().map(|d| d.code).collect();
        out.sort();
        out.dedup();
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        write!(
            f,
            "{} error(s), {} warning(s)",
            self.error_count(),
            self.warning_count()
        )
    }
}

/// Runs every applicable pass for executing `dfg` over `plan` on `g`: DFG
/// well-formedness and dimension inference, plan legality, and
/// compile-ability. A compiled program is legal by construction and runs
/// on any plan at any thread count.
///
/// A DFG that does not compile to a per-task program is reported as a
/// [`Code::DfgIllFormed`] error (there is no legal way to run it under
/// this execution model), so the report stays purely static.
pub fn verify_execution(dfg: &Dfg, g: &Graph, plan: &PartitionPlan) -> Report {
    let mut report = Report::new();
    let binding = Binding::from_graph(g);
    report.extend(dfgcheck::verify_dfg(dfg, Some(&binding)));
    report.extend(plan::verify_plan(g, plan));
    if let Err(e) = compile(dfg, g) {
        report.push(Diagnostic::error(
            Code::DfgIllFormed,
            Span::Global,
            format!("the DFG does not compile to a per-task program: {e}"),
        ));
    }
    report
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

/// Bundles `Binding` lookups the passes share; re-exported for callers
/// composing their own pipelines.
pub mod prelude {
    pub use crate::dfgcheck::verify_dfg;
    pub use crate::plan::verify_plan;
    pub use crate::repair::verify_repair;
    pub use crate::{Code, Diagnostic, Report, Severity, Span};
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
    fn report_counts_and_cleanliness() {
        let mut r = Report::new();
        assert!(r.is_clean());
        r.push(Diagnostic::warning(Code::PlanRestriction, Span::Task(0), "w"));
        assert!(r.is_clean());
        r.push(Diagnostic::error(Code::DfgIllFormed, Span::Node(1), "e"));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warning_count(), 1);
        assert_eq!(r.codes(), vec![Code::PlanRestriction, Code::DfgIllFormed]);
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
