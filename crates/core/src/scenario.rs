//! The Scenario API: validate a point of FAIR-BFL's redesign space and
//! drive it.
//!
//! A scenario is a [`BflConfig`] — written in the nesting its serde form
//! (and so a `bflharness` manifest) uses — that has passed validation:
//! [`Scenario::from_config`] can fail with [`CoreError::InvalidConfig`],
//! running one cannot fail for configuration reasons. Scenarios are cheap
//! values (`Copy`, serializable), which is what lets `bflharness` fan
//! whole grids of them across cores and processes.
//!
//! ```no_run
//! use bfl_core::{AggregationAnchor, BflConfig, Scenario};
//! # let (train, test): (bfl_data::Dataset, bfl_data::Dataset) = unimplemented!();
//! let mut config = BflConfig {
//!     anchor: AggregationAnchor::Median,
//!     ..BflConfig::default()
//! };
//! config.fl.clients = 20;
//! config.fl.rounds = 10;
//! config.fl.seed = 7;
//! let result = Scenario::from_config(config)?.run(&train, &test)?;
//! # Ok::<(), bfl_core::CoreError>(())
//! ```
//!
//! For round-by-round control — logging, early stopping — [`Scenario::start`]
//! hands back the stepwise [`SimulationRun`]: each
//! [`step`](SimulationRun::step) lends the round's outcome, and the run
//! its detection table, reward ledger and chain between steps.

use crate::config::BflConfig;
use crate::engine::SimulationRun;
use crate::error::CoreError;
use crate::simulation::SimulationResult;
use bfl_data::Dataset;
use serde::{Deserialize, Serialize};

/// One validated point of the FAIR-BFL design space.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    config: BflConfig,
}

impl Scenario {
    /// Validates `config` into a scenario.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ProfileConfig, SyncMode};
    use crate::flexibility::FlexibilityMode;
    use crate::policy::{AggregationAnchor, ReorgPolicy, RetryPolicy, StalenessPolicy};
    use bfl_fl::config::FlConfig;

    fn flexible(quota: usize) -> BflConfig {
        BflConfig {
            sync: SyncMode::FlexibleQuota { quota },
            ..BflConfig::default()
        }
    }

    fn rejected(config: BflConfig) -> String {
        let err = Scenario::from_config(config).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        err.to_string()
    }

    // (Three names below date from the fluent builder these tests used to
    // go through; they stay so the tests keep their ids.)

    #[test]
    fn builder_surfaces_typed_validation_errors() {
        let default = BflConfig::default();
        assert!(rejected(BflConfig {
            miners: 0,
            ..default
        })
        .contains("at least one miner"));
        assert!(rejected(BflConfig {
            anchor: AggregationAnchor::TrimmedMean { trim_ratio: 0.8 },
            ..default
        })
        .contains("trim_ratio"));
        assert!(rejected(BflConfig {
            fl: FlConfig {
                clients: 0,
                ..default.fl
            },
            ..default
        })
        .contains("at least one client"));
        assert!(rejected(BflConfig {
            fl: FlConfig {
                participation_ratio: 1.5,
                ..default.fl
            },
            ..default
        })
        .contains("participation ratio"));
    }

    #[test]
    fn async_setters_land_in_the_config_and_validate() {
        let config = BflConfig {
            staleness: StalenessPolicy::DecayedInclude { decay: 0.7 },
            profiles: ProfileConfig {
                straggler_fraction: 0.2,
                straggler_slowdown: 6.0,
                ..ProfileConfig::default()
            },
            ..flexible(4)
        };
        let scenario = Scenario::from_config(config).unwrap();
        assert_eq!(*scenario.config(), config);

        assert!(rejected(flexible(0)).contains("quota"));
        assert!(rejected(BflConfig {
            mode: FlexibilityMode::ChainOnly,
            ..flexible(2)
        })
        .contains("chain-only"));
        assert!(rejected(BflConfig {
            staleness: StalenessPolicy::DecayedInclude { decay: 0.0 },
            ..BflConfig::default()
        })
        .contains("staleness decay"));
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
        let config = BflConfig {
            fault,
            retry: RetryPolicy::Backoff {
                max_attempts: 3,
                timeout_s: 1.0,
                base_s: 0.5,
                factor: 2.0,
                jitter_s: 0.1,
            },
            reorg: ReorgPolicy::Salvage,
            ..flexible(4)
        };
        let scenario = Scenario::from_config(config).unwrap();
        assert_eq!(*scenario.config(), config);

        // Faults without the event engine are rejected.
        assert!(rejected(BflConfig {
            fault,
            ..BflConfig::default()
        })
        .contains("event-driven engine"));
    }

    #[test]
    fn scenarios_are_values() {
        let mut config = BflConfig::default();
        config.fl.seed = 1;
        let a = Scenario::from_config(config).unwrap();
        let b = a; // Copy
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }
}
