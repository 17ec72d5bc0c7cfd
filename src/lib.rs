//! # fair-bfl
//!
//! A from-scratch Rust reproduction of **FAIR-BFL: Flexible and Incentive
//! Redesign for Blockchain-based Federated Learning** (Xu, Pokhrel, Lan,
//! Li — ICPP 2022, arXiv:2206.12899).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`crypto`] — SHA-256, big integers, RSA sign/verify, key store.
//! * [`chain`] — proof-of-work blocks, mempool, fork model, consensus.
//! * [`ml`] — tensors, softmax regression, SGD, gradient utilities.
//! * [`data`] — the synthetic MNIST surrogate and federated partitioners.
//! * [`cluster`] — DBSCAN / k-means / agglomerative clustering.
//! * [`net`] — simulated clock, link-delay models, topology.
//! * [`fl`] — clients, data partitioning, selection, attacks.
//! * [`core`] — FAIR-BFL itself: the five procedures, Algorithm 2,
//!   Equation 1, the delay model, detection, and the simulation driver.
//!
//! ## Quickstart
//!
//! A scenario is a [`core::BflConfig`], written in the nesting a
//! `bflharness` manifest uses and validated by
//! [`core::Scenario::from_config`]; it runs either in one shot or round by
//! round through the stepwise engine, and grids of them fan out across
//! cores and processes through `bflharness` (`crates/harness`):
//!
//! ```no_run
//! use fair_bfl::core::{AggregationAnchor, BflConfig, Scenario};
//! use fair_bfl::data::{SynthMnist, SynthMnistConfig};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(42);
//! let (train, test) = SynthMnist::new(SynthMnistConfig::default()).generate(&mut rng);
//! let mut config = BflConfig {
//!     anchor: AggregationAnchor::Median,
//!     ..BflConfig::default()
//! };
//! config.fl.clients = 20;
//! config.fl.rounds = 10;
//! let scenario = Scenario::from_config(config).unwrap();
//! let result = scenario.run(&train, &test).unwrap();
//! println!(
//!     "final accuracy {:.3}, mean delay {:.2}s",
//!     result.final_accuracy().unwrap_or(0.0),
//!     result.mean_delay()
//! );
//! ```
//!
//! See `examples/` for runnable scenarios. The paper's evaluation is
//! data: `scenarios/fig4.json` … `table2_clustering.json` are manifests
//! `bflharness run` executes and `bflharness report` tabulates, and
//! `REPRODUCTION.md` is the ledger of what each one shows.

#![warn(missing_docs)]

pub use bfl_chain as chain;
pub use bfl_cluster as cluster;
pub use bfl_core as core;
pub use bfl_crypto as crypto;
pub use bfl_data as data;
pub use bfl_fl as fl;
pub use bfl_ml as ml;
pub use bfl_net as net;

/// Version of the reproduction, mirroring the workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_exposed() {
        assert!(!super::VERSION.is_empty());
    }
}
