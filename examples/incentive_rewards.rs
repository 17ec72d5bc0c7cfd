//! The contribution-based incentive mechanism in action.
//!
//! Clients hold shards of very different sizes and quality (one client's
//! data is mostly mislabelled). The example shows how Algorithm 2's θ
//! scores translate into on-chain rewards without any client self-reporting
//! — the mislabelled client earns its share purely from how its gradients
//! relate to the global update, and the ledger records every payout.
//!
//! Run with: `cargo run --release --example incentive_rewards`

use fair_bfl::core::{BflConfig, Scenario};
use fair_bfl::data::{Dataset, SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::PartitionKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(31);
    let (train, test) = SynthMnist::new(SynthMnistConfig {
        train_samples: 1200,
        test_samples: 200,
        ..SynthMnistConfig::default()
    })
    .generate(&mut rng);

    // Corrupt a slice of the training labels to create a low-quality data
    // region; whichever clients end up holding it will contribute noisier
    // gradients.
    let mut corrupted = train.clone();
    for label in corrupted.labels.iter_mut().take(200) {
        *label = (*label + 5) % 10;
    }
    let corrupted = Dataset::new(corrupted.features, corrupted.labels, corrupted.classes);

    let mut config = BflConfig::default();
    config.fl.clients = 12;
    config.fl.rounds = 12;
    config.fl.participation_ratio = 1.0;
    config.fl.local.epochs = 2;
    config.fl.partition = PartitionKind::Iid;
    config.reward_base = 100.0;

    let result = Scenario::from_config(config)
        .expect("configuration is valid")
        .run(&corrupted, &test)
        .expect("simulation should complete");

    println!(
        "per-client cumulative rewards after {} rounds:",
        config.fl.rounds
    );
    println!("{:<8} {:>16} {:>12}", "client", "reward (milli)", "share");
    let total: u64 = result.reward_totals.values().sum();
    let mut rows: Vec<(u64, u64)> = result.reward_totals.iter().map(|(k, v)| (*k, *v)).collect();
    rows.sort_by_key(|(_, amount)| std::cmp::Reverse(*amount));
    for (client, amount) in &rows {
        println!(
            "{:<8} {:>16} {:>11.1}%",
            client,
            amount,
            100.0 * *amount as f64 / total.max(1) as f64
        );
    }

    // Cross-check against the ledger: the chain's reward bookkeeping must
    // match the simulation's.
    let chain = result.chain.as_ref().expect("FAIR-BFL mines a ledger");
    assert_eq!(chain.reward_totals(), result.reward_totals);
    println!("\nledger audit: on-chain reward totals match the simulation ✓");
    println!(
        "total paid out: {} milli-units over {} blocks",
        total,
        chain.height()
    );
    println!(
        "final accuracy: {:.3}",
        result.final_accuracy().unwrap_or(0.0)
    );
}
