//! The client population of a federated run.
//!
//! [`FlTrainer::build_clients`] partitions the training data under the
//! configured [`PartitionKind`] and hands back one honest [`Client`] per
//! shard. The round loop is not here: an FL baseline is `bfl-core`'s
//! engine under `mode: FlOnly` (FedAvg with `fair_aggregation: false`,
//! FedProx by also setting `fl.local.proximal_mu` and `fl.drop_percent`),
//! so every system of Figure 4/6/7 is trained and timed by one loop.

use crate::client::Client;
use crate::config::{FlConfig, PartitionKind};
use bfl_data::partition::{dirichlet_partition, iid_partition, shard_non_iid_partition};
use bfl_data::Dataset;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Which baseline algorithm the trainer stands for.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FlAlgorithm {
    /// FedAvg (McMahan et al., 2017): plain local SGD + averaging.
    FedAvg,
}

/// Builds the client population of a run.
#[derive(Debug, Clone)]
pub struct FlTrainer {
    /// Run configuration (paper Section 5.1 defaults).
    pub config: FlConfig,
    /// Baseline algorithm.
    pub algorithm: FlAlgorithm,
}

impl FlTrainer {
    /// Creates a trainer.
    pub fn new(config: FlConfig, algorithm: FlAlgorithm) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid FL configuration: {e}"));
        FlTrainer { config, algorithm }
    }

    /// Partitions the training data and builds the (honest) client population.
    pub fn build_clients(&self, train: &Dataset, rng: &mut StdRng) -> Vec<Client> {
        let partition = match self.config.partition {
            PartitionKind::Iid => iid_partition(train.len(), self.config.clients, rng),
            PartitionKind::ShardNonIid { shards_per_client } => {
                shard_non_iid_partition(&train.labels, self.config.clients, shards_per_client, rng)
            }
            PartitionKind::Dirichlet { alpha } => {
                dirichlet_partition(&train.labels, self.config.clients, alpha, rng)
            }
            // Derived per index from a dedicated stream — consumes zero
            // draws from `rng`, so eager and lazy provisioning leave the
            // learning stream in identical states.
            PartitionKind::ImplicitIid { samples_per_client } => {
                return (0..self.config.clients)
                    .map(|i| {
                        crate::implicit::implicit_client(
                            self.config.seed,
                            i as u64,
                            samples_per_client,
                            train.len(),
                        )
                    })
                    .collect();
            }
        };
        partition
            .into_iter()
            .enumerate()
            .map(|(id, shard)| Client::honest(id as u64, shard))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_data::synth_mnist::{SynthMnist, SynthMnistConfig};
    use rand::SeedableRng;

    fn tiny_train() -> Dataset {
        let gen = SynthMnist::new(SynthMnistConfig {
            train_samples: 300,
            test_samples: 100,
            noise_std: 0.05,
            max_translation: 1.0,
        });
        gen.generate(&mut StdRng::seed_from_u64(7)).0
    }

    fn trainer(partition: PartitionKind) -> FlTrainer {
        let config = FlConfig {
            clients: 10,
            partition,
            ..FlConfig::default()
        };
        FlTrainer::new(config, FlAlgorithm::FedAvg)
    }

    #[test]
    fn build_clients_partitions_all_samples() {
        let train = tiny_train();
        let trainer = trainer(PartitionKind::Iid);
        let mut rng = StdRng::seed_from_u64(1);
        let clients = trainer.build_clients(&train, &mut rng);
        assert_eq!(clients.len(), 10);
        let total: usize = clients.iter().map(Client::sample_count).sum();
        assert_eq!(total, train.len());
    }

    #[test]
    fn build_clients_is_a_function_of_the_partition_and_the_rng() {
        let train = tiny_train();
        for partition in [
            PartitionKind::Iid,
            PartitionKind::ShardNonIid {
                shards_per_client: 2,
            },
            PartitionKind::Dirichlet { alpha: 0.5 },
            PartitionKind::ImplicitIid {
                samples_per_client: 12,
            },
        ] {
            let build =
                |seed| trainer(partition).build_clients(&train, &mut StdRng::seed_from_u64(seed));
            let clients = build(1);
            assert_eq!(clients.len(), 10, "{partition:?}");
            assert!(clients.iter().enumerate().all(|(i, c)| c.id == i as u64));
            assert_eq!(clients, build(1), "{partition:?} reproduces under one seed");
            // The implicit population derives from `fl.seed`, not `rng`.
            let implicit = matches!(partition, PartitionKind::ImplicitIid { .. });
            assert_eq!(clients == build(2), implicit, "{partition:?}");
        }
    }
}
