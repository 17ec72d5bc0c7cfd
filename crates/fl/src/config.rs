//! Top-level federated-learning run configuration.

use bfl_ml::model::ModelKind;
use bfl_ml::optimizer::LocalTrainingConfig;
use serde::{Deserialize, Serialize};

/// How client data is split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PartitionKind {
    /// Uniform random split.
    Iid,
    /// Label-sorted shards (the paper's non-IID default).
    ShardNonIid {
        /// Shards handed to each client.
        shards_per_client: usize,
    },
    /// Dirichlet label skew with concentration α.
    Dirichlet {
        /// Concentration parameter; smaller means more skew.
        alpha: f64,
    },
    /// Implicit IID population: client `i`'s shard is derived on demand
    /// from a pure per-index RNG stream ([`crate::implicit`]) instead of
    /// being materialized for the whole population up front. Shards sample
    /// the training set uniformly *with replacement*, so the population may
    /// vastly exceed the dataset size — this is the partition kind that
    /// unlocks million-client runs.
    ImplicitIid {
        /// Samples drawn (with replacement) for each client's shard.
        samples_per_client: usize,
    },
}

impl Default for PartitionKind {
    fn default() -> Self {
        PartitionKind::ShardNonIid {
            shards_per_client: 2,
        }
    }
}

/// Configuration shared by every learning system in the comparison
/// (defaults follow paper Section 5.1: n = 100, η = 0.01, E = 5, B = 10,
/// non-IID, 100 communication rounds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlConfig {
    /// Number of clients `n`.
    pub clients: usize,
    /// Fraction λ of clients selected per round.
    pub participation_ratio: f64,
    /// Number of communication rounds to run.
    pub rounds: usize,
    /// The shape of the softmax-regression model the clients train:
    /// `features` must equal the data's width and `classes` cover its
    /// labels, which is checked where a run meets its data.
    pub model: ModelKind,
    /// Local training hyper-parameters (E, B, η, μ).
    pub local: LocalTrainingConfig,
    /// Data partition scheme.
    pub partition: PartitionKind,
    /// Fraction of selected clients dropped as stragglers each round
    /// (FedProx's `drop_percent`; 0 for every other system).
    pub drop_percent: f64,
    /// Seed for every random choice in the run.
    pub seed: u64,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            clients: 100,
            participation_ratio: 0.1,
            rounds: 100,
            model: ModelKind::default_mnist(),
            local: LocalTrainingConfig::default(),
            partition: PartitionKind::default(),
            drop_percent: 0.0,
            seed: 0xBF1_2022,
        }
    }
}

impl FlConfig {
    /// Number of clients selected each round (at least one).
    pub fn selected_per_round(&self) -> usize {
        ((self.clients as f64 * self.participation_ratio).round() as usize).clamp(1, self.clients)
    }

    /// Validates parameter ranges, returning a description of the first
    /// inconsistency found (callers that want a panic can `unwrap`).
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 {
            return Err("need at least one client".into());
        }
        if !(self.participation_ratio > 0.0 && self.participation_ratio <= 1.0) {
            return Err("participation ratio must be in (0, 1]".into());
        }
        if self.rounds == 0 {
            return Err("need at least one round".into());
        }
        if !(0.0..1.0).contains(&self.drop_percent) {
            return Err("drop_percent must be in [0, 1)".into());
        }
        if self.local.batch_size == 0 || self.local.epochs == 0 {
            return Err("batch size and local epochs must be positive".into());
        }
        let lr = self.local.learning_rate;
        if !(lr.is_finite() && lr > 0.0) {
            return Err(format!(
                "learning rate must be finite and positive, got {lr}"
            ));
        }
        let ModelKind::SoftmaxRegression { features, classes } = self.model;
        if features == 0 || classes < 2 {
            return Err(format!(
                "the model needs at least 1 feature and 2 classes, got {features} features and \
                 {classes} classes"
            ));
        }
        let mu = self.local.proximal_mu;
        if !(mu.is_finite() && mu >= 0.0) {
            return Err(format!(
                "proximal_mu must be finite and non-negative, got {mu}"
            ));
        }
        match self.partition {
            PartitionKind::ShardNonIid {
                shards_per_client: 0,
            } => Err("shard partition needs shards_per_client >= 1, got 0".into()),
            PartitionKind::ShardNonIid { shards_per_client }
                if self.clients.checked_mul(shards_per_client).is_none() =>
            {
                Err(format!(
                    "shard partition needs clients × shards_per_client to fit in usize, got {} \
                     clients × shards_per_client {shards_per_client}",
                    self.clients
                ))
            }
            PartitionKind::Dirichlet { alpha } if !(alpha.is_finite() && alpha > 0.0) => Err(
                format!("Dirichlet concentration alpha must be finite and positive, got {alpha}"),
            ),
            PartitionKind::ImplicitIid {
                samples_per_client: 0,
            } => Err("implicit partition needs samples_per_client >= 1".into()),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_5_1() {
        let c = FlConfig::default();
        assert_eq!(c.clients, 100);
        assert_eq!(c.rounds, 100);
        assert_eq!(c.local.epochs, 5);
        assert_eq!(c.local.batch_size, 10);
        assert!((c.local.learning_rate - 0.01).abs() < 1e-12);
        assert_eq!(c.drop_percent, 0.0);
        assert!(matches!(
            c.partition,
            PartitionKind::ShardNonIid {
                shards_per_client: 2
            }
        ));
        c.validate().unwrap();
    }

    #[test]
    fn selected_per_round_is_clamped() {
        let mut c = FlConfig::default();
        assert_eq!(c.selected_per_round(), 10);
        c.participation_ratio = 0.001;
        assert_eq!(c.selected_per_round(), 1);
        c.participation_ratio = 1.0;
        assert_eq!(c.selected_per_round(), 100);
    }

    #[test]
    fn invalid_configurations_are_rejected_with_typed_errors() {
        let cases: Vec<(FlConfig, &str)> = vec![
            (
                FlConfig {
                    clients: 0,
                    ..Default::default()
                },
                "at least one client",
            ),
            (
                FlConfig {
                    participation_ratio: 1.5,
                    ..Default::default()
                },
                "participation ratio",
            ),
            (
                FlConfig {
                    participation_ratio: 0.0,
                    ..Default::default()
                },
                "participation ratio",
            ),
            (
                FlConfig {
                    rounds: 0,
                    ..Default::default()
                },
                "at least one round",
            ),
            (
                FlConfig {
                    drop_percent: 1.0,
                    ..Default::default()
                },
                "drop_percent",
            ),
            (
                FlConfig {
                    model: ModelKind::SoftmaxRegression {
                        features: 0,
                        classes: 10,
                    },
                    ..Default::default()
                },
                "got 0 features and 10 classes",
            ),
            (
                FlConfig {
                    model: ModelKind::SoftmaxRegression {
                        features: 784,
                        classes: 1,
                    },
                    ..Default::default()
                },
                "got 784 features and 1 classes",
            ),
        ];
        for (config, needle) in cases {
            let err = config.validate().expect_err("configuration is invalid");
            assert!(err.contains(needle), "error `{err}` mentions `{needle}`");
        }

        let mut bad_local = FlConfig::default();
        bad_local.local.epochs = 0;
        assert!(bad_local.validate().unwrap_err().contains("epochs"));
        for lr in [0.0, -0.01, f64::NAN, f64::INFINITY] {
            let mut bad_lr = FlConfig::default();
            bad_lr.local.learning_rate = lr;
            assert!(bad_lr.validate().unwrap_err().contains("learning rate"));
        }
        for mu in [-0.1, f64::NAN, f64::INFINITY] {
            let mut bad_mu = FlConfig::default();
            bad_mu.local.proximal_mu = mu;
            assert!(bad_mu.validate().unwrap_err().contains("proximal_mu"));
        }
    }

    /// Ranges the partitioners themselves only `assert!`: a hostile
    /// configuration must stop here, with the offending number in the
    /// message, instead of panicking inside `bfl_data::partition`.
    #[test]
    fn degenerate_partitions_are_rejected_before_they_reach_a_partitioner() {
        let with = |partition| FlConfig {
            partition,
            ..Default::default()
        };
        let err = with(PartitionKind::ShardNonIid {
            shards_per_client: 0,
        })
        .validate()
        .unwrap_err();
        assert!(
            err.contains("shards_per_client") && err.contains('0'),
            "{err}"
        );
        // A product that wraps would divide by zero (or split the wrong
        // shard count) inside the partitioner.
        let huge = 1 << (usize::BITS - 1);
        let err = FlConfig {
            clients: 2,
            ..with(PartitionKind::ShardNonIid {
                shards_per_client: huge,
            })
        }
        .validate()
        .unwrap_err();
        assert!(
            err.contains(&format!("2 clients × shards_per_client {huge}")),
            "{err}"
        );
        for alpha in [0.0, -1.5, f64::NAN, f64::INFINITY] {
            let err = with(PartitionKind::Dirichlet { alpha })
                .validate()
                .unwrap_err();
            assert!(
                err.contains("alpha") && err.contains(&alpha.to_string()),
                "{err}"
            );
        }
        with(PartitionKind::Dirichlet { alpha: 0.3 })
            .validate()
            .unwrap();
    }
}
