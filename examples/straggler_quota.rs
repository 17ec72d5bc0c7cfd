//! Straggler quota: FAIR-BFL's flexible block size on the event-driven
//! engine.
//!
//! The paper's flexibility redesign lets a block aggregate a *flexible
//! number* of local updates, so miners seal blocks without waiting for
//! the slowest client. This example builds a heterogeneous population —
//! a slow straggler tail, a jittery uplink, and a churn schedule under
//! which some clients periodically leave and rejoin (the dynamic-join
//! property) — and runs the same scenario twice: once waiting for every
//! participant (the synchronous behaviour) and once with a flexible
//! block quota plus decayed staleness carry-over, comparing the
//! simulated makespans.
//!
//! Run with: `cargo run --release --example straggler_quota`

use fair_bfl::core::events::EventKind;
use fair_bfl::core::{
    BflConfig, ProfileConfig, Scenario, SimulationResult, StalenessPolicy, SyncMode,
};
use fair_bfl::data::{SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::{FlConfig, PartitionKind};
use fair_bfl::ml::optimizer::LocalTrainingConfig;
use fair_bfl::net::DelayDistribution;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(2022);
    let dataset = SynthMnist::new(SynthMnistConfig {
        train_samples: 1000,
        test_samples: 200,
        ..SynthMnistConfig::default()
    });
    let (train, test) = dataset.generate(&mut rng);

    // A heterogeneous population of 10 clients: the slowest 30% train up
    // to 8x slower than the rest, every uplink is jittery, and 20% of
    // the clients churn — they drop out mid-run and rejoin later.
    let profiles = ProfileConfig {
        straggler_slowdown: 8.0,
        straggler_fraction: 0.3,
        uplink: DelayDistribution::Normal {
            mean: 0.08,
            std: 0.03,
        },
        churn_fraction: 0.2,
        churn_online_s: 8.0,
        churn_offline_s: 6.0,
    };
    let base = BflConfig {
        fl: FlConfig {
            clients: 10,
            rounds: 8,
            participation_ratio: 1.0,
            partition: PartitionKind::Iid,
            local: LocalTrainingConfig {
                epochs: 1,
                ..LocalTrainingConfig::default()
            },
            seed: 7,
            ..FlConfig::default()
        },
        verify_signatures: false,
        profiles,
        ..BflConfig::default()
    };

    // Waiting for everyone: the block quota equals the population, so
    // every round is gated by the 8x straggler.
    let waiting = Scenario::from_config(BflConfig {
        sync: SyncMode::FlexibleQuota { quota: 10 },
        ..base
    })
    .expect("scenario is consistent")
    .run(&train, &test)
    .expect("run completes");

    // The flexible block size: each block seals after 6 uploads; late
    // uploads are carried into the next block, decayed toward the
    // current global model by 0.5 per round of staleness.
    let scenario = Scenario::from_config(BflConfig {
        sync: SyncMode::FlexibleQuota { quota: 6 },
        staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
        ..base
    })
    .expect("scenario is consistent");
    let mut run = scenario.start(&train, &test).expect("run provisions");

    println!("round  accuracy  participants  stale  round-delay(s)  elapsed(s)");
    while let Some(outcome) = run.step().expect("round completes") {
        println!(
            "{:>5}  {:>8.3}  {:>12}  {:>5}  {:>14.2}  {:>10.2}",
            outcome.round,
            outcome.accuracy,
            outcome.participants,
            outcome.stale_included,
            outcome.breakdown.total(),
            outcome.elapsed_s,
        );
    }

    // The deterministic event trace shows the churn schedule at work:
    // lost uploads, stale carry-overs, and the quota firing per round.
    let mut lost = 0usize;
    let mut stale = 0usize;
    for event in run.event_trace() {
        match event.kind {
            EventKind::UploadLost => lost += 1,
            EventKind::StaleIncluded => stale += 1,
            _ => {}
        }
    }
    let flexible = run.into_result();

    let makespan =
        |result: &SimulationResult| result.outcomes.last().map(|o| o.elapsed_s).unwrap_or(0.0);
    println!("\nuploads lost to churn       : {lost}");
    println!("stale uploads carried over  : {stale}");
    println!(
        "final accuracy              : {:.3}",
        flexible.final_accuracy().unwrap_or(0.0)
    );
    println!(
        "simulated makespan          : {:.2}s (flexible quota) vs {:.2}s (wait for everyone)",
        makespan(&flexible),
        makespan(&waiting),
    );
    println!(
        "the flexible block size cut the straggler-gated makespan by {:.2}x",
        makespan(&waiting) / makespan(&flexible)
    );
}
