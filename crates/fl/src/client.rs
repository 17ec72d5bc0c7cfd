//! Federated clients.
//!
//! A client is an id and a shard of the training data (indices into the
//! shared dataset). It runs Procedure-I's local SGD pass starting from the
//! latest global parameters and returns its updated parameter vector. The
//! round engine designates a round's attackers; a designated client
//! forges its upload with the [`AttackKind`] it is handed.

use crate::attack::AttackKind;
use bfl_ml::gradient;
use bfl_ml::model::ModelKind;
use bfl_ml::optimizer::{local_pass, LocalTrainingConfig, LocalTrainingStats};
use bfl_ml::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// One federated client (a "worker" in the paper's terminology).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Client {
    /// Stable identifier, also used as the RSA key identity.
    pub id: u64,
    /// Row indices of the shared training set owned by this client (D_i).
    pub shard: Vec<usize>,
}

/// The result of one local update pass.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalUpdate {
    /// Client that produced the update.
    pub client_id: u64,
    /// The uploaded parameter vector (possibly forged).
    pub params: Vec<f64>,
    /// Whether the upload was forged.
    pub forged: bool,
    /// Training statistics of the honest pass (also present for forged
    /// uploads: the attacker trains honestly, then forges the upload).
    pub stats: LocalTrainingStats,
    /// Whether every coordinate of `params` is finite (no NaN, no ±∞):
    /// Procedure II's finite check, formed by [`LocalUpdate::new`] over
    /// the vector the pass returns, on the thread that ran the pass. A
    /// miner reads it at admission instead of scanning the upload again.
    pub finite: bool,
}

impl LocalUpdate {
    /// The update `client_id` uploads, with its verdict derived from
    /// `params`.
    pub fn new(client_id: u64, params: Vec<f64>, forged: bool, stats: LocalTrainingStats) -> Self {
        let finite = gradient::all_finite(&params);
        LocalUpdate {
            client_id,
            params,
            forged,
            stats,
            finite,
        }
    }
}

impl Client {
    /// Creates a client owning `shard`.
    pub fn honest(id: u64, shard: Vec<usize>) -> Self {
        Client { id, shard }
    }

    /// Number of local samples |D_i| (what vanilla BFL would have clients
    /// self-report for rewards).
    pub fn sample_count(&self) -> usize {
        self.shard.len()
    }

    /// Runs Procedure-I under this round's designation (`attack` is
    /// `Some` when the round engine made this client an attacker): starts
    /// from `global_params`, trains for the configured epochs/batches on
    /// the local shard, and returns the upload, forged when designated,
    /// with its finite verdict formed here, while the vector is still
    /// warm in this core's cache. The pass runs in the thread's training
    /// workspace (`bfl_ml`'s), so a worker training many clients reuses
    /// its buffers across all of them.
    ///
    /// The per-client RNG is derived from `(round_seed, client id)` so runs
    /// are reproducible regardless of scheduling order; this also allows
    /// clients to be trained in parallel.
    #[allow(clippy::too_many_arguments)]
    pub fn local_update_as(
        &self,
        attack: Option<AttackKind>,
        model_kind: ModelKind,
        global_params: &[f64],
        features: &Matrix,
        labels: &[usize],
        config: &LocalTrainingConfig,
        round_seed: u64,
    ) -> LocalUpdate {
        let mut rng =
            StdRng::seed_from_u64(round_seed ^ (self.id.wrapping_mul(0x9E3779B97F4A7C15)));
        // No model is built: the pass steps the global snapshot straight
        // into its upload, its one model-sized allocation, and the
        // generator skips the draws `build` would have made.
        model_kind.skip_build(&mut rng);
        let (honest_params, stats) = local_pass(
            model_kind,
            global_params,
            features,
            labels,
            &self.shard,
            config,
            &mut rng,
        );
        let params = match attack {
            None => honest_params,
            Some(attack) => attack.forge(&honest_params, &mut rng),
        };
        LocalUpdate::new(self.id, params, attack.is_some(), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_data::synth_mnist::{SynthMnist, SynthMnistConfig};
    use bfl_ml::gradient::cosine_distance;
    use bfl_ml::model::Model;

    fn small_data() -> bfl_data::Dataset {
        let gen = SynthMnist::new(SynthMnistConfig {
            train_samples: 100,
            test_samples: 10,
            noise_std: 0.05,
            max_translation: 1.0,
        });
        gen.generate_split(100, &mut StdRng::seed_from_u64(1))
    }

    fn kind() -> ModelKind {
        ModelKind::SoftmaxRegression {
            features: 784,
            classes: 10,
        }
    }

    #[test]
    fn constructors_and_accessors() {
        let client = Client::honest(3, vec![0, 1, 2]);
        assert_eq!(client.id, 3);
        assert_eq!(client.shard, vec![0, 1, 2]);
        assert_eq!(client.sample_count(), 3);
    }

    #[test]
    fn honest_update_moves_parameters_and_is_deterministic() {
        let data = small_data();
        let kind = kind();
        let global = vec![0.0; kind.num_params()];
        let client = Client::honest(0, (0..50).collect());
        let config = LocalTrainingConfig {
            epochs: 2,
            batch_size: 10,
            learning_rate: 0.05,
            proximal_mu: 0.0,
        };
        let update = |round_seed| {
            client.local_update_as(
                None,
                kind,
                &global,
                &data.features,
                &data.labels,
                &config,
                round_seed,
            )
        };
        let a = update(7);
        let b = update(7);
        assert!(!a.forged);
        assert_eq!(a.params, b.params, "same seed must give the same update");
        assert_ne!(a.params, global);

        let different_seed = update(8);
        assert_ne!(a.params, different_seed.params);
    }

    /// The composition `local_update_as` replaced — initialise a model,
    /// overwrite it with the global parameters, train it, copy the result
    /// out — kept as the oracle for it: the pass builds no model, copies
    /// nothing and skips the initialiser's draws instead of making them.
    /// (That its first step, written fresh from the snapshot, has the
    /// bits of a step over a copy is held by `bfl-ml`'s
    /// `the_fused_pass_keeps_the_unfused_passs_bits` and
    /// `the_fresh_step_writes_every_element_with_the_in_place_bits`.)
    fn local_update_oracle(
        client: &Client,
        attack: Option<AttackKind>,
        model_kind: ModelKind,
        global_params: &[f64],
        data: &bfl_data::Dataset,
        config: &LocalTrainingConfig,
        round_seed: u64,
    ) -> LocalUpdate {
        let mut rng =
            StdRng::seed_from_u64(round_seed ^ (client.id.wrapping_mul(0x9E3779B97F4A7C15)));
        let mut model = model_kind.build(&mut rng);
        model.set_params(global_params);
        let stats = bfl_ml::optimizer::train_local(
            &mut model,
            &data.features,
            &data.labels,
            &client.shard,
            config,
            &mut rng,
        );
        let honest_params = model.params();
        let params = match attack {
            None => honest_params,
            Some(attack) => attack.forge(&honest_params, &mut rng),
        };
        LocalUpdate::new(client.id, params, attack.is_some(), stats)
    }

    #[test]
    fn local_update_equals_the_build_then_overwrite_composition_bit_for_bit() {
        let data = small_data();
        let attacks = [
            None,
            Some(AttackKind::SignFlip),
            Some(AttackKind::Scaling { factor: 4.0 }),
            Some(AttackKind::GaussianNoise { std: 0.5 }),
            Some(AttackKind::AdditiveNoise { std: 0.1 }),
        ];
        // Shard sizes on both sides of the batch size and exactly on it,
        // visited in an order that grows and shrinks the reused
        // workspace's buffers. At one epoch the last two are one step
        // each, first and last at once: 8 samples is `pop1m_streaming`'s
        // shape.
        let clients = [
            Client::honest(11, (0..25).collect()),
            Client::honest(12, (25..28).collect()),
            Client::honest(13, (28..78).collect()),
            Client::honest(14, (78..85).collect()),
            Client::honest(15, (85..95).collect()),
            Client::honest(16, (92..100).collect()),
        ];
        let model_kind = kind();
        let global: Vec<f64> = (0..model_kind.num_params())
            .map(|i| (i as f64 * 0.013).sin() * 0.05)
            .collect();
        for (epochs, proximal_mu) in [(2, 0.0), (2, 0.3), (1, 0.0), (1, 0.3)] {
            let config = LocalTrainingConfig {
                epochs,
                batch_size: 10,
                learning_rate: 0.05,
                proximal_mu,
            };
            for (round_seed, attack) in attacks.into_iter().enumerate() {
                for client in &clients {
                    let update = client.local_update_as(
                        attack,
                        model_kind,
                        &global,
                        &data.features,
                        &data.labels,
                        &config,
                        round_seed as u64,
                    );
                    let oracle = local_update_oracle(
                        client,
                        attack,
                        model_kind,
                        &global,
                        &data,
                        &config,
                        round_seed as u64,
                    );
                    let context = format!(
                        "E {epochs}, mu {proximal_mu}, {attack:?}, client {}",
                        client.id
                    );
                    // Bit patterns, not `==`: the noise forgeries must
                    // agree to the last bit too.
                    let bits = |params: &[f64]| -> Vec<u64> {
                        params.iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&update.params), bits(&oracle.params), "{context}");
                    assert_eq!(update.stats.steps, oracle.stats.steps, "{context}");
                    assert_eq!(
                        update.stats.final_epoch_loss.to_bits(),
                        oracle.stats.final_epoch_loss.to_bits(),
                        "{context}"
                    );
                    assert_eq!(update.forged, oracle.forged, "{context}");
                    assert_eq!(update.finite, oracle.finite, "{context}");
                    assert_eq!(update.client_id, oracle.client_id, "{context}");
                }
            }
        }
    }

    #[test]
    fn malicious_update_is_far_from_honest_one() {
        let data = small_data();
        let kind = kind();
        let global = vec![0.0; kind.num_params()];
        let config = LocalTrainingConfig {
            epochs: 1,
            batch_size: 10,
            learning_rate: 0.05,
            proximal_mu: 0.0,
        };
        let client = Client::honest(1, (0..50).collect());
        let update = |attack| {
            client.local_update_as(
                attack,
                kind,
                &global,
                &data.features,
                &data.labels,
                &config,
                9,
            )
        };
        let honest_update = update(None);
        let forged_update = update(Some(AttackKind::SignFlip));
        assert!(forged_update.forged);
        let distance = cosine_distance(&honest_update.params, &forged_update.params);
        assert!(
            distance > 1.9,
            "sign-flip should be nearly opposite (distance {distance})"
        );
    }

    #[test]
    fn different_clients_produce_different_updates() {
        let data = small_data();
        let kind = kind();
        let global = vec![0.0; kind.num_params()];
        let config = LocalTrainingConfig {
            epochs: 1,
            batch_size: 10,
            learning_rate: 0.05,
            proximal_mu: 0.0,
        };
        let update = |client: Client| {
            client.local_update_as(
                None,
                kind,
                &global,
                &data.features,
                &data.labels,
                &config,
                3,
            )
        };
        let a = update(Client::honest(0, (0..50).collect()));
        let b = update(Client::honest(1, (50..100).collect()));
        assert_ne!(a.params, b.params);
    }
}
