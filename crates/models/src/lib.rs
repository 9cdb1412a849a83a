//! The five evaluated GNN models (paper §7.1): RGCN, GAT, SAGE-LSTM, SAGE,
//! and GCN.
//!
//! Each model exists in two forms:
//!
//! - a **DFG builder** ([`kind::ModelKind::layer_dfg`]) producing the
//!   operation data-flow graph of one layer, consumed by the partition
//!   planner, the DFG transformer, and the simulator;
//! - a **trainable implementation** (for GCN, SAGE, GAT and RGCN) built on
//!   the autograd tape, used by the accuracy experiments of Figure 14. The
//!   dense gates (projections, bias, activations, softmax, degree scaling)
//!   are tape operations; every graph aggregation is one
//!   `wisegraph_kernels::train` op, a walk over the graph's in-edge CSR
//!   rows forward and its out-edge CSR rows backward.
//!   SAGE-LSTM is forward-only (executed through the DFG interpreter), as
//!   the paper's accuracy study covers GAT and SAGE.
//!
//! RGCN, GAT and SAGE-LSTM perform complex neural computations (MLP,
//! attention, LSTM); SAGE and GCN reduce to additions — the split the
//! paper's Figure 13 analysis is organized around.

pub mod gat;
pub mod gcn;
pub mod kind;
pub mod rgcn;
pub mod sage;
pub mod trainable;

pub use gat::Gat;
pub use gcn::Gcn;
pub use kind::ModelKind;
pub use rgcn::Rgcn;
pub use sage::Sage;
pub use trainable::{
    accuracy, accuracy_ws, features_tensor, train_epoch, train_epoch_ws, GnnModel,
    ModelOutput,
};
