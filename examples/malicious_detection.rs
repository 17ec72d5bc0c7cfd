//! Malicious-client detection (the Table 2 scenario).
//!
//! Ten clients, one to three of which forge their gradients each round;
//! the winning miner runs Algorithm 2 with DBSCAN and the discard strategy,
//! and we report which attackers were caught, round by round, for both the
//! non-IID and IID partitions.
//!
//! Run with: `cargo run --release --example malicious_detection`

use fair_bfl::core::{AttackConfig, BflConfig, LowContributionStrategy, Scenario};
use fair_bfl::data::{SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::PartitionKind;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run(partition: PartitionKind, label: &str) {
    let mut rng = StdRng::seed_from_u64(99);
    let (train, test) = SynthMnist::new(SynthMnistConfig {
        train_samples: 1200,
        test_samples: 200,
        ..SynthMnistConfig::default()
    })
    .generate(&mut rng);

    let mut config = BflConfig::default();
    config.fl.clients = 10;
    config.fl.participation_ratio = 1.0;
    config.fl.rounds = 10;
    config.fl.local.epochs = 2;
    config.fl.partition = partition;
    config.strategy = LowContributionStrategy::Discard;
    config.attack = AttackConfig::table2();

    let result = Scenario::from_config(config)
        .expect("configuration is valid")
        .run(&train, &test)
        .expect("simulation should complete");

    println!("\n=== {label} ===");
    println!(
        "{:<6} {:<18} {:<18} {:>14}",
        "Round", "Attacker Index", "Drop Index", "Detection Rate"
    );
    for row in &result.detection.rows {
        let rate = row
            .detection_rate
            .map(|r| format!("{:.2}%", r * 100.0))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<6} {:<18} {:<18} {:>14}",
            row.round,
            format!("{:?}", row.attacker_ids),
            format!("{:?}", row.dropped_ids),
            rate
        );
    }
    println!(
        "Average Detection Rate: {:.2}%",
        result.detection.average_detection_rate() * 100.0
    );
    println!(
        "Mean false positives per round: {:.2}",
        result.detection.mean_false_positives()
    );
    println!(
        "Final accuracy despite the attacks: {:.3}",
        result.final_accuracy().unwrap_or(0.0)
    );
}

fn main() {
    run(
        PartitionKind::ShardNonIid {
            shards_per_client: 2,
        },
        "Non-IID partition",
    );
    run(PartitionKind::Iid, "IID partition");
}
