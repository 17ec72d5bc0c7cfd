//! The Scenario API: compose a point of FAIR-BFL's redesign space and
//! drive it.
//!
//! A [`Scenario`] is a *validated* configuration — building one can fail
//! with [`CoreError::InvalidConfig`], running one cannot fail for
//! configuration reasons. Scenarios are cheap values (`Copy`,
//! serializable), which is what lets `bflharness` fan whole grids of
//! them across cores and processes.
//!
//! ```no_run
//! use bfl_core::{AggregationAnchor, FlexibilityMode, Scenario};
//! # let (train, test): (bfl_data::Dataset, bfl_data::Dataset) = unimplemented!();
//! let scenario = Scenario::builder()
//!     .mode(FlexibilityMode::FullBfl)
//!     .clients(20)
//!     .rounds(10)
//!     .anchor(AggregationAnchor::Median)
//!     .seed(7)
//!     .build()?;
//! let result = scenario.run(&train, &test)?;
//! # Ok::<(), bfl_core::CoreError>(())
//! ```
//!
//! For round-by-round control, [`Scenario::start`] hands back the
//! stepwise [`SimulationRun`]; [`Scenario::run_observed`] keeps the loop
//! but streams every round through a [`RoundObserver`] that may stop the
//! run early.

use crate::config::{
    AggregationMode, AttackConfig, BflConfig, ProfileConfig, ProvisioningMode, SyncMode,
};
use crate::delay_model::DelayModel;
use crate::engine::SimulationRun;
use crate::error::CoreError;
use crate::flexibility::FlexibilityMode;
use crate::policy::{
    AggregationAnchor, ObserverControl, ReorgPolicy, RetryPolicy, RewardPolicy, RoundEvent,
    RoundObserver, StalenessPolicy,
};
use crate::simulation::SimulationResult;
use crate::strategy::LowContributionStrategy;
use bfl_cluster::{ClusteringAlgorithm, DistanceMetric};
use bfl_data::Dataset;
use bfl_fl::config::{FlConfig, PartitionKind};
use serde::{Deserialize, Serialize};

/// One validated point of the FAIR-BFL design space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    config: BflConfig,
}

impl Scenario {
    /// Starts composing a scenario from the paper's defaults.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            config: BflConfig::default(),
        }
    }

    /// Wraps an existing configuration, validating it.
    pub fn from_config(config: BflConfig) -> Result<Scenario, CoreError> {
        config.validate()?;
        Ok(Scenario { config })
    }

    /// The validated configuration.
    pub fn config(&self) -> &BflConfig {
        &self.config
    }

    /// Provisions a stepwise [`SimulationRun`] over the given data.
    pub fn start<'a>(
        &self,
        train: &'a Dataset,
        test: &'a Dataset,
    ) -> Result<SimulationRun<'a>, CoreError> {
        SimulationRun::new(self.config, train, test)
    }

    /// Runs the scenario to completion — the stepwise engine, stepped
    /// until every configured round has run.
    pub fn run(&self, train: &Dataset, test: &Dataset) -> Result<SimulationResult, CoreError> {
        let mut run = self.start(train, test)?;
        run.run_to_completion()?;
        Ok(run.into_result())
    }

    /// Runs the scenario with a custom [`RewardPolicy`] in place of the
    /// default proportional incentive.
    pub fn run_with_reward(
        &self,
        train: &Dataset,
        test: &Dataset,
        reward: Box<dyn RewardPolicy>,
    ) -> Result<SimulationResult, CoreError> {
        let mut run = self.start(train, test)?.with_reward_policy(reward);
        run.run_to_completion()?;
        Ok(run.into_result())
    }

    /// Runs the scenario, streaming every completed round to `observer`.
    /// The observer sees the round outcome, the round's detection row
    /// (when Algorithm 2 ran) and the sealed block (when the mode mines),
    /// and can stop the run early; the result then covers the completed
    /// rounds only.
    pub fn run_observed(
        &self,
        train: &Dataset,
        test: &Dataset,
        observer: &mut dyn RoundObserver,
    ) -> Result<SimulationResult, CoreError> {
        let mut run = self.start(train, test)?;
        while let Some(outcome) = run.step()? {
            let event = RoundEvent {
                detection: run.detection().rows.last(),
                block: if outcome.block_hash.is_some() {
                    run.chain().map(|c| c.tip())
                } else {
                    None
                },
                kpi: outcome.kpi,
                reward_totals: run.reward_totals(),
                outcome: &outcome,
            };
            if observer.on_round(&event) == ObserverControl::Stop {
                break;
            }
        }
        Ok(run.into_result())
    }
}

/// Fluent composition of a [`Scenario`]. Every setter has the paper's
/// Section 5.1 value as its default; [`build`](Self::build) validates the
/// final configuration instead of panicking.
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    config: BflConfig,
}

impl ScenarioBuilder {
    /// Seeds the builder from an existing configuration.
    pub fn from_config(config: BflConfig) -> Self {
        ScenarioBuilder { config }
    }

    /// Which procedures run (full BFL, FL-only, chain-only).
    pub fn mode(mut self, mode: FlexibilityMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Number of clients `n`.
    pub fn clients(mut self, clients: usize) -> Self {
        self.config.fl.clients = clients;
        self
    }

    /// Number of communication rounds.
    pub fn rounds(mut self, rounds: usize) -> Self {
        self.config.fl.rounds = rounds;
        self
    }

    /// Number of miners `m`.
    pub fn miners(mut self, miners: usize) -> Self {
        self.config.miners = miners;
        self
    }

    /// Fraction λ of clients selected per round.
    pub fn participation_ratio(mut self, ratio: f64) -> Self {
        self.config.fl.participation_ratio = ratio;
        self
    }

    /// Data partition scheme.
    pub fn partition(mut self, partition: PartitionKind) -> Self {
        self.config.fl.partition = partition;
        self
    }

    /// Local epochs `E`.
    pub fn local_epochs(mut self, epochs: usize) -> Self {
        self.config.fl.local.epochs = epochs;
        self
    }

    /// Local learning rate η.
    pub fn learning_rate(mut self, learning_rate: f64) -> Self {
        self.config.fl.local.learning_rate = learning_rate;
        self
    }

    /// Local mini-batch size `B`.
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.fl.local.batch_size = batch_size;
        self
    }

    /// Seed for every random choice in the run.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.fl.seed = seed;
        self
    }

    /// Low-contribution strategy (keep or discard).
    pub fn strategy(mut self, strategy: LowContributionStrategy) -> Self {
        self.config.strategy = strategy;
        self
    }

    /// Clustering backend for Algorithm 2.
    pub fn clustering(mut self, clustering: ClusteringAlgorithm) -> Self {
        self.config.clustering = clustering;
        self
    }

    /// Distance metric for clustering and θ scores.
    pub fn metric(mut self, metric: DistanceMetric) -> Self {
        self.config.metric = metric;
        self
    }

    /// The anchor gradient Algorithm 2 measures against.
    pub fn anchor(mut self, anchor: AggregationAnchor) -> Self {
        self.config.anchor = anchor;
        self
    }

    /// Equation 1 fair aggregation on or off.
    pub fn fair_aggregation(mut self, enabled: bool) -> Self {
        self.config.fair_aggregation = enabled;
        self
    }

    /// Per-round reward pool (the `base` of Algorithm 2).
    pub fn reward_base(mut self, base: f64) -> Self {
        self.config.reward_base = base;
        self
    }

    /// Malicious-client injection.
    pub fn attack(mut self, attack: AttackConfig) -> Self {
        self.config.attack = attack;
        self
    }

    /// Whether miners verify RSA signatures on uploads.
    pub fn verify_signatures(mut self, enabled: bool) -> Self {
        self.config.verify_signatures = enabled;
        self
    }

    /// RSA modulus size used when provisioning client keys.
    pub fn rsa_modulus_bits(mut self, bits: usize) -> Self {
        self.config.rsa_modulus_bits = bits;
        self
    }

    /// Rounds a discarded client sits out before becoming selectable.
    pub fn discard_cooldown_rounds(mut self, rounds: usize) -> Self {
        self.config.discard_cooldown_rounds = rounds;
        self
    }

    /// PoW nonce-search worker threads (0 = one per core, 1 = serial).
    pub fn mining_threads(mut self, threads: usize) -> Self {
        self.config.mining_threads = threads;
        self
    }

    /// When a round's block seals: lockstep or after a flexible quota of
    /// uploads on the event-driven engine.
    pub fn sync(mut self, sync: SyncMode) -> Self {
        self.config.sync = sync;
        self
    }

    /// Shorthand for [`sync`](Self::sync) with
    /// [`SyncMode::FlexibleQuota`]: seal each block after `quota` uploads.
    pub fn flexible_quota(self, quota: usize) -> Self {
        self.sync(SyncMode::FlexibleQuota { quota })
    }

    /// What happens to uploads that arrive after their round's block was
    /// sealed (event-driven engine only).
    pub fn staleness(mut self, staleness: StalenessPolicy) -> Self {
        self.config.staleness = staleness;
        self
    }

    /// The client population's heterogeneity: compute spread, uplink
    /// latency, churn (event-driven engine only).
    pub fn profiles(mut self, profiles: ProfileConfig) -> Self {
        self.config.profiles = profiles;
        self
    }

    /// Deterministic fault injection: link drops/duplicates/corruption,
    /// miner crashes, mesh partitions (event-driven engine only).
    pub fn fault(mut self, fault: bfl_net::FaultPlan) -> Self {
        self.config.fault = fault;
        self
    }

    /// What a client does when its upload is lost in transit.
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// What becomes of uploads stranded on the losing branch of a fork.
    pub fn reorg(mut self, reorg: ReorgPolicy) -> Self {
        self.config.reorg = reorg;
        self
    }

    /// Delay-model calibration.
    pub fn delay(mut self, delay: DelayModel) -> Self {
        self.config.delay = delay;
        self
    }

    /// Replaces the whole learning-side configuration.
    pub fn fl(mut self, fl: FlConfig) -> Self {
        self.config.fl = fl;
        self
    }

    /// How client state (shards, RSA keys) comes into existence: eager
    /// population-sized vectors, or lazy derivation under an O(active)
    /// cache budget (requires an implicit partition).
    pub fn provisioning(mut self, provisioning: ProvisioningMode) -> Self {
        self.config.provisioning = provisioning;
        self
    }

    /// How Procedure IV folds uploads into the global update: materialize
    /// the whole round, or stream fixed-size chunks through Algorithm 2
    /// (event-driven engine, `Mean` anchor, fault-free plans only).
    pub fn aggregation(mut self, aggregation: AggregationMode) -> Self {
        self.config.aggregation = aggregation;
        self
    }

    /// Validates the composed configuration into a [`Scenario`].
    pub fn build(self) -> Result<Scenario, CoreError> {
        Scenario::from_config(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_match_the_plain_config() {
        let scenario = Scenario::builder().build().unwrap();
        assert_eq!(*scenario.config(), BflConfig::default());
    }

    #[test]
    fn builder_setters_land_in_the_config() {
        let scenario = Scenario::builder()
            .mode(FlexibilityMode::FlOnly)
            .clients(12)
            .rounds(4)
            .miners(3)
            .anchor(AggregationAnchor::Median)
            .strategy(LowContributionStrategy::Discard)
            .fair_aggregation(false)
            .seed(99)
            .build()
            .unwrap();
        let config = scenario.config();
        assert_eq!(config.mode, FlexibilityMode::FlOnly);
        assert_eq!(config.fl.clients, 12);
        assert_eq!(config.fl.rounds, 4);
        assert_eq!(config.miners, 3);
        assert_eq!(config.anchor, AggregationAnchor::Median);
        assert_eq!(config.strategy, LowContributionStrategy::Discard);
        assert!(!config.fair_aggregation);
        assert_eq!(config.fl.seed, 99);
    }

    #[test]
    fn builder_surfaces_typed_validation_errors() {
        let err = Scenario::builder().miners(0).build().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        assert!(err.to_string().contains("at least one miner"));

        let err = Scenario::builder()
            .anchor(AggregationAnchor::TrimmedMean { trim_ratio: 0.8 })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("trim_ratio"));

        let err = Scenario::builder().clients(0).build().unwrap_err();
        assert!(err.to_string().contains("at least one client"));

        let err = Scenario::builder()
            .participation_ratio(1.5)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("participation ratio"));
    }

    #[test]
    fn async_setters_land_in_the_config_and_validate() {
        let scenario = Scenario::builder()
            .flexible_quota(4)
            .staleness(StalenessPolicy::DecayedInclude { decay: 0.7 })
            .profiles(ProfileConfig {
                straggler_fraction: 0.2,
                straggler_slowdown: 6.0,
                ..ProfileConfig::default()
            })
            .build()
            .unwrap();
        let config = scenario.config();
        assert_eq!(config.sync, SyncMode::FlexibleQuota { quota: 4 });
        assert_eq!(
            config.staleness,
            StalenessPolicy::DecayedInclude { decay: 0.7 }
        );
        assert_eq!(config.profiles.straggler_slowdown, 6.0);

        let err = Scenario::builder().flexible_quota(0).build().unwrap_err();
        assert!(err.to_string().contains("quota"));
        let err = Scenario::builder()
            .mode(FlexibilityMode::ChainOnly)
            .flexible_quota(2)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("chain-only"));
        let err = Scenario::builder()
            .staleness(StalenessPolicy::DecayedInclude { decay: 0.0 })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("staleness decay"));
    }

    #[test]
    fn fault_setters_land_in_the_config_and_validate() {
        let mut fault = bfl_net::FaultPlan::default();
        fault.uplink.drop_rate = 0.25;
        fault.partition = Some(bfl_net::Partition {
            start_s: 1.0,
            duration_s: 4.0,
            boundary: 1,
        });
        let scenario = Scenario::builder()
            .flexible_quota(4)
            .fault(fault)
            .retry(RetryPolicy::Backoff {
                max_attempts: 3,
                timeout_s: 1.0,
                base_s: 0.5,
                factor: 2.0,
                jitter_s: 0.1,
            })
            .reorg(ReorgPolicy::Salvage)
            .build()
            .unwrap();
        let config = scenario.config();
        assert_eq!(config.fault, fault);
        assert_eq!(config.reorg, ReorgPolicy::Salvage);
        assert!(matches!(config.retry, RetryPolicy::Backoff { .. }));

        // Faults without the event engine are rejected at build time.
        let err = Scenario::builder().fault(fault).build().unwrap_err();
        assert!(err.to_string().contains("event-driven engine"));
    }

    #[test]
    fn scenarios_are_values() {
        let a = Scenario::builder().seed(1).build().unwrap();
        let b = a; // Copy
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
