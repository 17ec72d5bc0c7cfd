//! Fault storm: FAIR-BFL riding out packet loss and a network partition.
//!
//! The deterministic fault-injection subsystem drives the event engine
//! through a hostile network: every fifth upload is dropped on the
//! uplink (and retransmitted under exponential backoff), and midway
//! through the run a partition splits the three-miner mesh so each side
//! mines its own branch. When the partition heals, the longest chain
//! wins, the losing branch's blocks are orphaned, and their uploads are
//! salvaged through the staleness policy — the fork's resolution time is
//! charged to the healing round as `T_fork`. The whole storm replays
//! bit-identically from the same seed.
//!
//! Run with: `cargo run --release --example fault_storm`

use fair_bfl::core::events::EventKind;
use fair_bfl::core::{
    BflConfig, ProfileConfig, ReorgPolicy, RetryPolicy, Scenario, StalenessPolicy, SyncMode,
};
use fair_bfl::data::{SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::{FlConfig, PartitionKind};
use fair_bfl::ml::optimizer::LocalTrainingConfig;
use fair_bfl::net::{DelayDistribution, FaultPlan, LinkFaults, Partition};
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

    // The storm: 20% uplink loss for the whole run, and a partition that
    // cleaves miner 2 away from miners {0, 1} across the middle rounds.
    let storm = FaultPlan {
        uplink: LinkFaults {
            drop_rate: 0.2,
            ..LinkFaults::default()
        },
        partition: Some(Partition {
            start_s: 2.0,
            duration_s: 4.0,
            boundary: 2,
        }),
        ..FaultPlan::default()
    };

    let scenario = Scenario::from_config(BflConfig {
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
        miners: 3,
        verify_signatures: false,
        profiles: ProfileConfig {
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        sync: SyncMode::FlexibleQuota { quota: 7 },
        staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
        fault: storm,
        retry: RetryPolicy::Backoff {
            max_attempts: 3,
            timeout_s: 0.5,
            base_s: 0.5,
            factor: 2.0,
            jitter_s: 0.1,
        },
        reorg: ReorgPolicy::Salvage,
        ..BflConfig::default()
    })
    .expect("scenario is consistent");

    let mut run = scenario.start(&train, &test).expect("run provisions");
    println!("round  accuracy  participants  stale  t_fork(s)  elapsed(s)");
    while let Some(outcome) = run.step().expect("round completes") {
        println!(
            "{:>5}  {:>8.3}  {:>12}  {:>5}  {:>9.2}  {:>10.2}",
            outcome.round,
            outcome.accuracy,
            outcome.participants,
            outcome.stale_included,
            outcome.breakdown.t_fork,
            outcome.elapsed_s,
        );
    }

    // The event trace is the storm's flight recorder.
    let mut dropped = 0usize;
    let mut retried = 0usize;
    let mut stranded = 0usize;
    let mut healed = 0usize;
    for event in run.event_trace() {
        match event.kind {
            EventKind::UploadDropped => dropped += 1,
            EventKind::UploadRetried => retried += 1,
            EventKind::UploadStranded => stranded += 1,
            EventKind::ForkHealed => healed += 1,
            _ => {}
        }
    }
    let result = run.into_result();
    let chain = result.chain.as_ref().expect("mining is on");
    chain.validate_all().expect("the healed chain verifies");

    println!("\nuploads dropped on the uplink : {dropped}");
    println!("retransmissions               : {retried}");
    println!("uploads stranded by the split : {stranded}");
    println!("forks healed                  : {healed}");
    println!(
        "canonical chain               : {} blocks, one tip",
        chain.height()
    );
    println!(
        "final accuracy                : {:.3}",
        result.final_accuracy().unwrap_or(0.0)
    );
}
