//! Procedure-I: local learning and update (paper Section 4.1).
//!
//! Every selected client reads the global gradient from the latest block,
//! runs `E` epochs of mini-batch SGD on its own shard, and produces its
//! updated parameter vector. Clients are independent, so the pass runs in
//! parallel — one fork/join task per participant, each pass in the
//! training workspace of the thread that runs it (`bfl_ml` keeps one per
//! thread), so the batched GEMM engine stays allocation-free for the
//! whole round.
//!
//! Both round engines go through the one fan-out here (`fan_out`, by way
//! of `LearningState::train_selection`), which hands each finished update
//! to the caller's `finish` on the worker that trained it. The event
//! engine's clients *sign* there: a client signs what it sends when it
//! sends it (Procedure-II, Figure 2), and the only batch of a
//! flexible-quota round is this one — so the round's private-key
//! operations run in parallel instead of one at a time on the event pump.

use bfl_data::Dataset;
use bfl_fl::attack::AttackKind;
use bfl_fl::client::{Client, LocalUpdate};
use bfl_ml::model::ModelKind;
use bfl_ml::optimizer::{local_step_count, LocalTrainingConfig};
use bfl_ml::par;

/// Runs Procedure-I for the given participants.
///
/// `participants` are indices into `clients`; `attacks` holds the round's
/// attack designation per participant (aligned with `participants`).
/// Returns one [`LocalUpdate`] per participant, in the same order.
///
/// Public because the benchmark's lockstep replay (`benchmark/`) rebuilds
/// a round from the procedures and calls it; the engines reach the same
/// fan-out through `LearningState::train_selection`.
#[allow(clippy::too_many_arguments)]
pub fn run_local_updates_with_attacks(
    clients: &[Client],
    participants: &[usize],
    attacks: &[Option<AttackKind>],
    model: ModelKind,
    global_params: &[f64],
    train: &Dataset,
    local: &LocalTrainingConfig,
    round_seed: u64,
) -> Vec<LocalUpdate> {
    fan_out(
        clients,
        participants,
        attacks,
        model,
        global_params,
        train,
        local,
        round_seed,
        |update| update,
    )
}

/// The round's one fork/join over its participants: trains each under its
/// attack designation and hands the update to `finish` on the same
/// worker.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fan_out<U: Send>(
    clients: &[Client],
    participants: &[usize],
    attacks: &[Option<AttackKind>],
    model: ModelKind,
    global_params: &[f64],
    train: &Dataset,
    local: &LocalTrainingConfig,
    round_seed: u64,
    finish: impl Fn(LocalUpdate) -> U + Sync,
) -> Vec<U> {
    assert_eq!(
        participants.len(),
        attacks.len(),
        "one attack designation per participant required"
    );
    par::par_map(participants, 1, |position, &idx| {
        finish(clients[idx].local_update_as(
            attacks[position],
            model,
            global_params,
            &train.features,
            &train.labels,
            local,
            round_seed,
        ))
    })
}

/// The number of SGD steps taken by the slowest participant — the quantity
/// T_local is proportional to (Section 4.1: complexity O(E·|D_i|/B)).
///
/// Public because the benchmark's lockstep replay calls it; the engines
/// read shard sizes off their `ClientPool` instead.
pub fn max_local_steps(
    clients: &[Client],
    participants: &[usize],
    local: &LocalTrainingConfig,
) -> usize {
    participants
        .iter()
        .map(|&idx| local_step_count(clients[idx].sample_count(), local))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_data::synth_mnist::{SynthMnist, SynthMnistConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Dataset, Vec<Client>, ModelKind) {
        let gen = SynthMnist::new(SynthMnistConfig {
            train_samples: 120,
            test_samples: 10,
            noise_std: 0.05,
            max_translation: 1.0,
        });
        let data = gen.generate_split(120, &mut StdRng::seed_from_u64(1));
        let clients = vec![
            Client::honest(0, (0..40).collect()),
            Client::honest(1, (40..80).collect()),
            Client::honest(2, (80..120).collect()),
        ];
        let kind = ModelKind::SoftmaxRegression {
            features: 784,
            classes: 10,
        };
        (data, clients, kind)
    }

    /// The designation the tests' rounds make: client 2 flips its signs.
    fn designate(participants: &[usize]) -> Vec<Option<AttackKind>> {
        participants
            .iter()
            .map(|&i| (i == 2).then_some(AttackKind::SignFlip))
            .collect()
    }

    #[test]
    fn produces_one_update_per_participant_in_order() {
        let (data, clients, kind) = setup();
        let local = LocalTrainingConfig {
            epochs: 1,
            batch_size: 10,
            learning_rate: 0.05,
            proximal_mu: 0.0,
        };
        let global = vec![0.0; kind.num_params()];
        let updates = run_local_updates_with_attacks(
            &clients,
            &[0, 2],
            &designate(&[0, 2]),
            kind,
            &global,
            &data,
            &local,
            99,
        );
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].client_id, 0);
        assert_eq!(updates[1].client_id, 2);
        assert!(!updates[0].forged);
        assert!(updates[1].forged);
    }

    #[test]
    fn parallel_execution_matches_sequential_results() {
        let (data, clients, kind) = setup();
        let local = LocalTrainingConfig {
            epochs: 1,
            batch_size: 10,
            learning_rate: 0.05,
            proximal_mu: 0.0,
        };
        let global = vec![0.0; kind.num_params()];
        let parallel = run_local_updates_with_attacks(
            &clients,
            &[0, 1, 2],
            &designate(&[0, 1, 2]),
            kind,
            &global,
            &data,
            &local,
            5,
        );
        let sequential: Vec<_> = clients
            .iter()
            .zip(designate(&[0, 1, 2]))
            .map(|(client, attack)| {
                client.local_update_as(
                    attack,
                    kind,
                    &global,
                    &data.features,
                    &data.labels,
                    &local,
                    5,
                )
            })
            .collect();
        for (p, s) in parallel.iter().zip(sequential.iter()) {
            assert_eq!(p.params, s.params);
        }
    }

    #[test]
    fn attack_overrides_replace_the_clients_own_designation() {
        let (data, clients, kind) = setup();
        let local = LocalTrainingConfig {
            epochs: 1,
            batch_size: 10,
            learning_rate: 0.05,
            proximal_mu: 0.0,
        };
        let global = vec![0.0; kind.num_params()];
        // Client 0 is designated this round; client 2, the other rounds'
        // attacker, is not.
        let updates = run_local_updates_with_attacks(
            &clients,
            &[0, 2],
            &[Some(AttackKind::SignFlip), None],
            kind,
            &global,
            &data,
            &local,
            7,
        );
        assert!(updates[0].forged);
        assert!(!updates[1].forged);
        // The honest result is the pass the client runs on its own, before
        // it flips the signs.
        let own = clients[2].local_update_as(
            Some(AttackKind::SignFlip),
            kind,
            &global,
            &data.features,
            &data.labels,
            &local,
            7,
        );
        assert_eq!(updates[1].stats, own.stats);
        let flipped: Vec<f64> = updates[1].params.iter().map(|v| -v).collect();
        assert_eq!(flipped, own.params);
    }

    #[test]
    fn max_steps_uses_the_largest_shard() {
        let (_, clients, _) = setup();
        let local = LocalTrainingConfig {
            epochs: 5,
            batch_size: 10,
            ..Default::default()
        };
        // Every shard has 40 samples -> 4 batches x 5 epochs = 20 steps.
        assert_eq!(max_local_steps(&clients, &[0, 1, 2], &local), 20);
        assert_eq!(max_local_steps(&clients, &[], &local), 0);
    }
}
