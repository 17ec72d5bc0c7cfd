//! # bfl-ml
//!
//! Learning substrate for the FAIR-BFL reproduction: dense linear algebra,
//! the classification model, its loss, and the mini-batch SGD loop that
//! each federated client runs locally (paper Procedure-I / Equation 3).
//!
//! The paper's evaluation trains an unspecified "local model" on MNIST; this
//! crate trains multinomial softmax regression
//! ([`linear::SoftmaxRegression`]), 7850 parameters at MNIST scale, over a
//! small, BLAS-free batched GEMM kernel set ([`tensor`]). Whole minibatches
//! and evaluation sets move through cache-blocked matrix-matrix kernels
//! that parallelize over output row blocks ([`par`]), with one reusable
//! [`tensor::Scratch`] workspace per thread keeping the hot loops
//! allocation-free.
//! The original per-sample implementations stay as oracles — plain
//! functions that only tests call ([`Model::loss_and_grad_reference`],
//! [`optimizer::train_local_reference`],
//! [`metrics::accuracy_reference`]; `tests/batched_equivalence.rs` holds
//! the batched paths to them) — and nothing in this crate switches
//! behaviour at run time. On hosts with AVX2+FMA the GEMM family
//! additionally dispatches to a hand-written vector tier ([`simd`]) that
//! reproduces the scalar kernels bit-for-bit (`BFL_SIMD=off` pins the
//! scalar tier).
//!
//! The quantity clients upload in FAIR-BFL (the "gradient" `w^i_{r+1}` of
//! Algorithm 1) is the *updated parameter vector* after `E` local epochs,
//! exactly as in FedAvg; [`gradient`] provides the flat-vector utilities
//! (cosine distance, norms, weighted averaging) that the aggregation and
//! contribution-identification machinery in `bfl-core` builds on.

#![warn(missing_docs)]

pub mod activation;
pub mod gradient;
pub mod init;
pub mod linear;
pub mod loss;
pub mod metrics;
pub mod model;
pub mod optimizer;
pub mod par;
pub mod simd;
pub mod tensor;

pub use gradient::GradientVector;
pub use linear::SoftmaxRegression;
pub use metrics::accuracy;
pub use model::{Model, ModelKind};
pub use optimizer::{LocalTrainingConfig, Sgd};
pub use tensor::{Matrix, Scratch, Vector};
