//! # bfl-harness
//!
//! Manifest-driven experiment fleets for the FAIR-BFL reproduction.
//!
//! A JSON [`manifest`](manifest::Manifest) names a base scenario, a grid
//! of override axes (cross-producting into labelled cells), and a seed
//! fleet. The [`runner`] expands cells × seeds into a canonical job
//! list, fans it across cores with `bfl_ml::par`'s order-stable
//! fork/join map (this is the workspace's one fleet runner), steps each
//! run ([`bfl_core::SimulationRun::step`]) to read a per-round KPI row
//! into per-seed CSV/JSON series plus a cross-seed `summary.json`
//! ([`stats::Stats`] per KPI per cell).
//!
//! Fleets also shard across *processes* with zero coordination: shard
//! `i` of `N` owns every job whose global index is `≡ i (mod N)`, and
//! [`merge`] folds the shard outputs into a summary byte-identical to
//! the one an unsharded run writes — the statistics are computed by one
//! shared function over values that round-trip through JSON bit-exactly,
//! in an order fixed by the manifest rather than by execution.
//!
//! The `bflharness` binary is the CLI: `bflharness run --manifest m.json
//! --out dir/ [--shard i/N] [--threads T]`, `bflharness merge
//! <dirs...> --out dir/` and `bflharness report dir/` (the summary as a
//! markdown table, [`report`]). The manifests of the paper's figures and
//! tables live in `scenarios/`; `REPRODUCTION.md` records what they show.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod manifest;
pub mod merge;
pub mod report;
pub mod runner;
pub mod stats;

pub use manifest::{CellSpec, DatasetSpec, Manifest, ManifestError};
pub use merge::merge_shards;
pub use runner::{
    run_fleet, summarize, write_outputs, CellSummary, FinalMetrics, FleetFile, HarnessError,
    RoundRow, RunRecord, RunSidecar, Shard, Summary,
};
pub use stats::Stats;
