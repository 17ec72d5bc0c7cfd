//! # bfl-data
//!
//! Dataset substrate for the FAIR-BFL reproduction.
//!
//! The paper evaluates on MNIST. MNIST itself is not redistributable inside
//! this offline build, so [`synth_mnist`] procedurally generates an
//! MNIST-shaped surrogate: 28x28 grayscale images of ten digit-like glyph
//! classes, rendered from stroke prototypes with per-sample translation,
//! thickness, intensity and pixel-noise jitter. The evaluation only relies
//! on (a) a ten-class task a small model can learn to high accuracy, (b)
//! IID and non-IID partitionability across clients, and (c) gradient
//! geometry that separates honest from forged updates — all of which the
//! surrogate provides (see DESIGN.md, "substitutions").
//!
//! [`partition`] implements the three federated splits used by the
//! experiments: IID, shard-based non-IID (the McMahan-style label-sorted
//! shards; the paper's default), and Dirichlet label skew for ablations.

#![warn(missing_docs)]

pub mod dataset;
pub mod partition;
pub mod synth_mnist;

pub use dataset::Dataset;
pub use partition::{dirichlet_partition, iid_partition, shard_non_iid_partition, Partition};
pub use synth_mnist::{SynthMnist, SynthMnistConfig};
