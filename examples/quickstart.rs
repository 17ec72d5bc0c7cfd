//! Quickstart: write a small FAIR-BFL scenario as a `BflConfig`,
//! step it round by round while it runs, and inspect the results —
//! accuracy trajectory, per-procedure delays, the ledger, and the
//! rewards the incentive mechanism paid out.
//!
//! Run with: `cargo run --release --example quickstart`

use fair_bfl::core::{BflConfig, LowContributionStrategy, Scenario};
use fair_bfl::data::{SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::{FlConfig, PartitionKind};
use fair_bfl::ml::optimizer::LocalTrainingConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. Generate the synthetic MNIST surrogate (see DESIGN.md for why this
    //    stands in for MNIST in an offline reproduction).
    let mut rng = StdRng::seed_from_u64(2022);
    let dataset = SynthMnist::new(SynthMnistConfig {
        train_samples: 1500,
        test_samples: 300,
        ..SynthMnistConfig::default()
    });
    let (train, test) = dataset.generate(&mut rng);
    println!(
        "dataset: {} train / {} test samples, {} features",
        train.len(),
        test.len(),
        train.feature_count()
    );

    // 2. Write the scenario: 20 clients, 2 miners, non-IID shards, the
    //    contribution-weighted (Equation 1) aggregation, and DBSCAN-based
    //    contribution identification with the keep strategy. The nesting
    //    is the one a `bflharness` manifest uses (`fl.local.epochs`);
    //    `from_config` validates it and returns a typed error instead of
    //    panicking on an inconsistent one.
    let config = BflConfig {
        fl: FlConfig {
            clients: 20,
            rounds: 15,
            participation_ratio: 0.5,
            partition: PartitionKind::ShardNonIid {
                shards_per_client: 2,
            },
            local: LocalTrainingConfig {
                epochs: 2,
                ..LocalTrainingConfig::default()
            },
            ..FlConfig::default()
        },
        strategy: LowContributionStrategy::Keep,
        ..BflConfig::default()
    };
    let scenario = Scenario::from_config(config).expect("scenario is consistent");

    // 3. Run it, watching every round as it completes: `start()` returns
    //    a stepwise run whose `step()` lends each round's outcome (in
    //    mining modes, with its sealed block's hash) the moment the round
    //    finishes — no waiting for the whole run.
    println!("\nround  accuracy  delay(s)   T_local  T_up   T_gl   T_bl   block");
    let mut run = scenario.start(&train, &test).expect("run provisions");
    while let Some(o) = run.step().expect("simulation should complete") {
        println!(
            "{:>5}  {:>8.3}  {:>8.2}   {:>6.2}  {:>5.2}  {:>5.2}  {:>5.2}   {}",
            o.round,
            o.accuracy,
            o.breakdown.total(),
            o.breakdown.t_local,
            o.breakdown.t_up,
            o.breakdown.t_gl,
            o.breakdown.t_bl,
            o.block_hash.as_deref().map_or("", |hash| &hash[..10])
        );
    }
    let result = run.into_result();

    // 4. Inspect what happened.
    println!(
        "\nfinal accuracy     : {:.3}",
        result.final_accuracy().unwrap_or(0.0)
    );
    println!("mean round delay   : {:.2} s", result.mean_delay());
    if let Some(round) = result.convergence_round() {
        println!("converged at round : {round}");
    }

    let chain = result.chain.as_ref().expect("full BFL mines a ledger");
    println!("\nledger height      : {}", chain.height());
    println!("empty blocks       : {}", chain.empty_block_count());
    println!("tip hash           : {}", chain.tip().hash_hex());

    println!("\ntop rewarded clients (milli-units of the base):");
    let mut rewards: Vec<(u64, u64)> = result.reward_totals.iter().map(|(k, v)| (*k, *v)).collect();
    rewards.sort_by_key(|(_, amount)| std::cmp::Reverse(*amount));
    for (client, amount) in rewards.iter().take(5) {
        println!("  client {client:>3}: {amount}");
    }

    // 5. Stepping is also how a run stops early: break out of the loop,
    //    and the result covers the completed rounds.
    let mut run = scenario.start(&train, &test).expect("run provisions");
    while let Some(outcome) = run.step().expect("round completes") {
        if outcome.accuracy > 0.8 {
            break; // good enough — stop paying for more rounds
        }
    }
    let early = run.into_result();
    println!(
        "\nstep-driven rerun stopped after {} rounds at accuracy {:.3}",
        early.outcomes.len(),
        early.final_accuracy().unwrap_or(0.0)
    );
}
