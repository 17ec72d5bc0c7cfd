//! # bfl-bench
//!
//! The counting global allocator ([`alloc`]) and, under `tests/`, the
//! allocation contracts that install it: heap tracks participants and
//! rounds × one block, a warm round nets zero, a local pass allocates its
//! upload, sealing a round costs one block, an upload allocates its
//! signature and a fan-out its results, and Algorithm 2's θ scoring
//! allocates nothing. Performance numbers do not
//! come from this crate (the canonical end-to-end benchmark is the
//! `benchmark/` package at the repository root), and neither does the
//! paper's evaluation: its figures and tables are the manifests under
//! `scenarios/`, run by `bflharness`.

#![warn(missing_docs)]

pub mod alloc;

pub use alloc::{AllocDelta, AllocSnapshot, CountingAllocator};
