//! # bfl-fl
//!
//! Federated-learning client machinery.
//!
//! FAIR-BFL is evaluated against three baselines (paper Section 5.1): a
//! pure blockchain (no learning), FedAvg (McMahan et al. 2017) and FedProx
//! (Li et al. 2020). The learning baselines are configurations of
//! `bfl-core`'s engine (`mode: FlOnly`; FedProx adds
//! `fl.local.proximal_mu` and `fl.drop_percent`), not loops of their own;
//! this crate implements the learning-side pieces they and FAIR-BFL share:
//!
//! * [`client`] — a federated client owning a shard of the training data,
//!   able to run Procedure-I's local SGD pass and, if compromised, to forge
//!   its upload ([`attack`]).
//! * [`selection`] — the random λ·n client selection of Algorithm 1 line 3.
//! * [`aggregation`] — staleness decay and sample-weighted averaging
//!   (FAIR-BFL's contribution-weighted rule lives in `bfl-core`).
//! * [`config`] — the learning side of a scenario ([`FlConfig`]).
//! * [`trainer`] — partitions the training data into the client
//!   population ([`FlTrainer::build_clients`]).

#![warn(missing_docs)]

pub mod aggregation;
pub mod attack;
pub mod client;
pub mod config;
pub mod implicit;
pub mod selection;
pub mod trainer;

pub use attack::AttackKind;
pub use client::Client;
pub use config::FlConfig;
pub use trainer::{FlAlgorithm, FlTrainer};
