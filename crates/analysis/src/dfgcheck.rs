//! DFG verification (codes `D001` and `D002`).
//!
//! Two questions are answered before any execution:
//!
//! 1. Is the graph *well-formed*? Node inputs must reference earlier nodes
//!    (the `Dfg` vector order is the topological order, so a forward
//!    reference is a cycle or corruption) and outputs must exist (`D001`).
//! 2. Do the stored shapes agree with a full re-run of shape inference,
//!    and is every symbolic dimension evaluable under the scope's
//!    [`Binding`] (`D002`)?
//!
//! Whether a rewrite (`cse`, `prune_dead`, unique extraction, indexing
//! swap) computes what the original did is a question for the
//! interpreter, not for this pass: `tests/properties.rs` runs every
//! rewrite against `dfg::interp`.

use crate::{push_capped, Code, Diagnostic, Span};
use wisegraph_dfg::dim::{Binding, Dim};
use wisegraph_dfg::{Dfg, NodeId, OpKind};

/// Statically verifies one DFG. `binding` enables dimension-evaluability
/// checks (`None` skips them: pure structural verification).
pub fn verify_dfg(dfg: &Dfg, binding: Option<&Binding>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let n = dfg.len();

    // --- D001: well-formedness ---------------------------------------
    // Nodes whose inputs are broken: shape inference over them would read
    // garbage, so they are excluded from the D002 pass below.
    let mut bad = vec![false; n];
    let mut form_diags = Vec::new();
    for (i, node) in dfg.nodes().iter().enumerate() {
        for &NodeId(p) in &node.inputs {
            if p >= n {
                bad[i] = true;
                form_diags.push(Diagnostic::error(
                    Code::DfgIllFormed,
                    Span::Node(i),
                    format!("input NodeId({p}) is dangling (the DFG has {n} nodes)"),
                ));
            } else if p >= i {
                bad[i] = true;
                form_diags.push(
                    Diagnostic::error(
                        Code::DfgIllFormed,
                        Span::Node(i),
                        format!(
                            "input NodeId({p}) does not precede its consumer; node order \
                             must be topological, so this is a cycle or a forward reference"
                        ),
                    )
                    .with_suggestion("build DFGs through the checked builder API"),
                );
            }
        }
    }
    for &NodeId(o) in dfg.outputs() {
        if o >= n {
            form_diags.push(Diagnostic::error(
                Code::DfgIllFormed,
                Span::Global,
                format!("output NodeId({o}) is dangling (the DFG has {n} nodes)"),
            ));
        }
    }
    if dfg.outputs().is_empty() {
        form_diags.push(Diagnostic::warning(
            Code::DfgIllFormed,
            Span::Global,
            "the DFG declares no outputs; every node is dead",
        ));
    }
    push_capped(&mut out, form_diags);

    // --- D002: shape inference and dimension evaluability ------------
    let mut shape_diags = Vec::new();
    for (i, node) in dfg.nodes().iter().enumerate() {
        if bad[i] {
            continue;
        }
        // Inputs/EdgeAttr streams carry declared shapes; everything else
        // must match re-inference from its (already validated) inputs.
        if !node.inputs.is_empty() || !matches!(node.kind, OpKind::Input { .. }) {
            let in_shapes: Vec<_> = node
                .inputs
                .iter()
                .map(|&NodeId(p)| dfg.node(NodeId(p)).shape.clone())
                .collect();
            match node.kind.output_shape(&in_shapes) {
                Ok(inferred) => {
                    if inferred != node.shape {
                        shape_diags.push(
                            Diagnostic::error(
                                Code::DfgShapeMismatch,
                                Span::Node(i),
                                format!(
                                    "stored shape {:?} disagrees with inferred shape {:?}",
                                    node.shape, inferred
                                ),
                            )
                            .with_suggestion("re-infer shapes instead of storing them by hand"),
                        );
                    }
                }
                Err(e) => {
                    shape_diags.push(Diagnostic::error(
                        Code::DfgShapeMismatch,
                        Span::Node(i),
                        format!("shape inference fails for {:?}: {e}", node.kind),
                    ));
                }
            }
        }
        if let Some(b) = binding {
            for &d in &node.shape {
                if let Dim::Unique(a) = d {
                    if !b.unique.contains_key(&a) {
                        shape_diags.push(
                            Diagnostic::error(
                                Code::DfgShapeMismatch,
                                Span::Node(i),
                                format!(
                                    "dimension uniq({a}) cannot be evaluated: the binding \
                                     records no unique count for {a}"
                                ),
                            )
                            .with_suggestion("build the binding with Binding::from_graph"),
                        );
                    }
                }
            }
        }
    }
    push_capped(&mut out, shape_diags);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wisegraph_graph::AttrKind;

    fn gcn_like() -> Dfg {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(8)]);
        let w = d.input("W", vec![Dim::Lit(8), Dim::Lit(4)]);
        let src = d.edge_attr(AttrKind::SrcId);
        let dst = d.edge_attr(AttrKind::DstId);
        let hw = d.linear(h, w);
        let gathered = d.index(hw, src);
        let agg = d.index_add(gathered, dst, Dim::Vertices);
        let norm = d.scale_by_degree_inv(agg);
        let out = d.relu(norm);
        d.mark_output(out);
        d
    }

    #[test]
    fn builder_output_is_clean() {
        let d = gcn_like();
        assert!(verify_dfg(&d, None).is_empty());
        let mut b = Binding::default();
        b.unique.insert(AttrKind::SrcId, 3);
        assert!(verify_dfg(&d, Some(&b)).is_empty());
    }

    #[test]
    fn dangling_and_forward_inputs_are_d001() {
        let mut d = Dfg::new();
        d.add_node_unchecked(OpKind::Relu, vec![NodeId(7)], vec![Dim::Edges]);
        let mut fwd = Dfg::new();
        fwd.add_node_unchecked(OpKind::Relu, vec![NodeId(1)], vec![Dim::Edges]);
        fwd.add_node_unchecked(OpKind::Relu, vec![NodeId(0)], vec![Dim::Edges]);
        for (dfg, what) in [(&d, "dangling"), (&fwd, "forward")] {
            let diags = verify_dfg(dfg, None);
            assert!(
                diags.iter().any(|x| x.code == Code::DfgIllFormed
                    && x.severity == crate::Severity::Error),
                "{what}: {diags:#?}"
            );
        }
    }

    #[test]
    fn dangling_output_is_d001() {
        let mut d = gcn_like();
        d.mark_output(NodeId(99));
        let diags = verify_dfg(&d, None);
        assert!(diags.iter().any(|x| x.code == Code::DfgIllFormed
            && x.message.contains("output NodeId(99)")));
    }

    #[test]
    fn no_outputs_is_a_d001_warning() {
        let mut d = Dfg::new();
        d.input("h", vec![Dim::Vertices, Dim::Lit(4)]);
        let diags = verify_dfg(&d, None);
        assert!(diags.iter().any(|x| x.code == Code::DfgIllFormed
            && x.severity == crate::Severity::Warning));
    }

    #[test]
    fn stored_shape_disagreement_is_d002() {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Vertices, Dim::Lit(8)]);
        // Relu preserves shape; claim it doesn't.
        let r = d.add_node_unchecked(OpKind::Relu, vec![h], vec![Dim::Vertices, Dim::Lit(2)]);
        d.mark_output(r);
        let diags = verify_dfg(&d, None);
        assert!(diags.iter().any(|x| x.code == Code::DfgShapeMismatch
            && x.message.contains("disagrees")));
    }

    #[test]
    fn uninferable_shape_is_d002() {
        let mut d = Dfg::new();
        let a = d.input("a", vec![Dim::Vertices, Dim::Lit(3)]);
        let b = d.input("b", vec![Dim::Vertices, Dim::Lit(5)]);
        // Add of mismatched widths: the checked builder would panic.
        let s = d.add_node_unchecked(OpKind::Add, vec![a, b], vec![Dim::Vertices, Dim::Lit(3)]);
        d.mark_output(s);
        let diags = verify_dfg(&d, None);
        assert!(diags.iter().any(|x| x.code == Code::DfgShapeMismatch
            && x.message.contains("shape inference fails")));
    }

    #[test]
    fn unevaluable_unique_dim_is_d002() {
        let mut d = Dfg::new();
        let h = d.input("h", vec![Dim::Unique(AttrKind::SrcId), Dim::Lit(4)]);
        d.mark_output(h);
        // Binding::default() records no unique counts.
        let diags = verify_dfg(&d, Some(&Binding::default()));
        assert!(diags.iter().any(|x| x.code == Code::DfgShapeMismatch
            && x.message.contains("cannot be evaluated")));
    }
}
