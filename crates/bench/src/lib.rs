//! # bfl-bench
//!
//! The paper's evaluation section as code. The [`experiments`] module
//! builds the configurations for every system in the paper's comparison
//! (FAIR-BFL, FAIR-Discard, FedAvg, FedProx, pure blockchain) and runs
//! the parameter sweeps behind every table and figure; [`report`] renders
//! the results as the markdown tables recorded in EXPERIMENTS.md;
//! [`alloc`] provides the counting global allocator the allocation tests
//! under `tests/` install. Performance numbers do not come from this
//! crate: the canonical end-to-end benchmark is the `benchmark/` package
//! at the repository root.
//!
//! Each figure/table has a dedicated binary (`fig4`, `fig5`, `fig6`,
//! `fig7`, `table2`, `all_experiments`) accepting a `--scale
//! {smoke|medium|paper}` argument.

#![warn(missing_docs)]

pub mod alloc;
pub mod experiments;
pub mod report;

pub use alloc::{AllocDelta, AllocSnapshot, CountingAllocator};
pub use experiments::{Scale, SystemLabel};
