//! # bfl-core — FAIR-BFL
//!
//! The paper's primary contribution: a blockchain-based federated-learning
//! framework in which blockchain and FL are *tightly coupled* (one block
//! per synchronized communication round, Assumption 1), blocks carry only
//! the round's global gradient and reward list (Assumption 2), client
//! contributions are identified by clustering the uploaded gradients
//! (Algorithm 2), rewards are distributed proportionally to each client's
//! cosine-distance share (the incentive mechanism), and the global model is
//! aggregated with contribution weights (Equation 1, "fair aggregation").
//!
//! The five procedures of Algorithm 1 map onto this crate as follows:
//!
//! | Procedure | Paper section | Module |
//! |---|---|---|
//! | I — Local learning and update | 4.1 | [`procedures::local_update`] |
//! | II — Uploading the gradient for mining | 4.2 | [`procedures::upload`] |
//! | III — Exchanging gradients | 4.3 | [`procedures::exchange`] |
//! | IV — Computing global updates | 4.4 | [`procedures::global_update`] + [`contribution`] + [`aggregation`] |
//! | V — Block mining and consensus | 4.5 | [`procedures::mining`] (over `bfl-chain`) |
//!
//! [`flexibility`] implements the functional scaling of Section 4.6:
//! dropping Procedures I+IV degrades FAIR-BFL to a pure blockchain,
//! dropping III+V degrades it to pure FL. [`delay_model`] implements the
//! per-procedure delay decomposition `T(n,m) = T_local + T_up + T_ex +
//! T_gl + T_bl` (plus the queuing and forking penalties that only the
//! vanilla baselines pay), [`detection`] implements the Table 2 bookkeeping,
//! and [`theory`] evaluates the Theorem 3.1 convergence bound.
//!
//! ## The Scenario API
//!
//! A scenario *is* a [`BflConfig`]: write one in the nesting its serde
//! form — and so a `bflharness` manifest — uses (`BflConfig { miners: 4,
//! fl: FlConfig { clients: 20, ..fl }, ..BflConfig::default() }`),
//! validate it with [`Scenario::from_config`], and the stepwise round
//! engine [`engine::SimulationRun`] executes it, one
//! [`step`](engine::SimulationRun::step) — one [`RoundOutcome`], the
//! run's only per-round record — per communication round. The
//! pluggable seams live in [`policy`]: the [`policy::AggregationAnchor`]
//! Algorithm 2 measures against (mean / median / trimmed mean), the
//! [`policy::RewardPolicy`] that turns θ scores into payouts, and the
//! event engine's staleness, retry and reorg policies. A caller that
//! watches or stops a run round by round steps it itself: `step` lends
//! the round's outcome, and the run its detection table, reward ledger
//! and chain.
//! A scenario's run depends on nothing but the scenario and the shared
//! datasets, so grids of them fan out across cores and processes with
//! order-stable, thread-count-invariant results — that is `bfl-harness`
//! (`bflharness run`), the one fleet runner.

#![warn(missing_docs)]

pub mod aggregation;
pub mod config;
pub mod contribution;
pub mod delay_model;
pub mod detection;
pub mod engine;
pub mod error;
pub mod events;
pub mod flexibility;
mod history;
pub mod policy;
pub(crate) mod population;
pub mod procedures;
pub mod reward;
pub mod scenario;
pub mod simulation;
pub mod strategy;
pub mod theory;

pub use aggregation::{contribution_weights, fair_aggregate};
pub use config::{
    AggregationMode, AttackConfig, BflConfig, ProfileConfig, ProvisioningMode, SyncMode,
};
pub use contribution::ContributionReport;
pub use delay_model::{DelayBreakdown, DelayModel};
pub use detection::{DetectionRow, DetectionTable};
pub use engine::SimulationRun;
pub use error::CoreError;
pub use events::EventRecord;
pub use flexibility::FlexibilityMode;
pub use policy::{
    AggregationAnchor, ProportionalReward, ReorgPolicy, RetryPolicy, RewardPolicy, StalenessPolicy,
};
pub use reward::{gini, RewardEntry};
pub use scenario::Scenario;
pub use simulation::{KpiRow, RoundOutcome, SimulationResult};
pub use strategy::LowContributionStrategy;
pub use theory::TheoremParams;
