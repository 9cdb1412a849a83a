//! Dense tensor library with reverse-mode automatic differentiation.
//!
//! This crate is the numeric substrate of the WiseGraph reproduction. It
//! provides:
//!
//! - [`Tensor`]: a dense, row-major `f32` tensor of arbitrary rank;
//! - eager operations (matrix multiply, element-wise math, row gather /
//!   scatter-add, segment softmax) in [`ops`];
//! - a tape-based reverse-mode autograd engine in [`autograd`] used by the
//!   trainable GNN models for the paper's accuracy experiments (Figure 14);
//! - parameter initializers in [`init`] and optimizers in [`optim`].
//!
//! The eager operations are deliberately written as straightforward loops:
//! they double as the reference implementations against which the composed
//! micro-kernels in `wisegraph-kernels` are validated.
//!
//! # Examples
//!
//! ```
//! use wisegraph_tensor::{Tape, Tensor};
//!
//! let tape = Tape::new();
//! let x = tape.input(Tensor::from_vec(vec![1.0, 2.0], &[1, 2]));
//! let w = tape.param(Tensor::from_vec(vec![3.0, 4.0], &[2, 1]));
//! let y = tape.matmul(x, w);
//! let loss = tape.sum(y);
//! tape.backward(loss);
//! assert_eq!(tape.grad(w).unwrap().data(), &[1.0, 2.0]);
//! ```

pub mod autograd;
pub mod init;
pub mod ops;
pub mod optim;
pub mod shape;
pub mod tensor;
pub mod workspace;

pub use autograd::{Ctx, Tape, Var};
pub use init::{kaiming_uniform, xavier_uniform, zeros_like};
pub use optim::{Adam, Optimizer, Sgd};
pub use shape::Shape;
pub use tensor::Tensor;
pub use workspace::Workspace;
