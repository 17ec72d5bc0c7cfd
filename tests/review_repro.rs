mod common;

use common::{full_participation_fl, small_config, small_dataset};
use fair_bfl::core::{
    BflConfig, CoreError, ProfileConfig, ReorgPolicy, RetryPolicy, Scenario, StalenessPolicy,
    SyncMode,
};
use fair_bfl::net::{DelayDistribution, FaultPlan, LinkFaults, TimeWindow};

#[test]
fn identical_configs_reproduce_the_run_exactly() {
    let (train, test) = small_dataset();
    let config = small_config(2);
    let first = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    let second = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    assert_eq!(first.final_params, second.final_params);
    assert_eq!(first.reward_totals, second.reward_totals);
}

#[test]
fn total_loss_without_retry_does_not_panic() {
    let (train, test) = small_dataset();
    let fault = FaultPlan {
        uplink: LinkFaults {
            drop_rate: 1.0,
            duplicate_rate: 0.0,
            corrupt_rate: 0.0,
            window: TimeWindow::default(),
        },
        crash: None,
        partition: None,
        deadline_s: 0.0,
    };
    let scenario = Scenario::from_config(BflConfig {
        fl: full_participation_fl(8, 2, 42),
        miners: 3,
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota: 3 },
        staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
        profiles: ProfileConfig {
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        fault,
        retry: RetryPolicy::None,
        reorg: ReorgPolicy::Discard,
        ..BflConfig::default()
    })
    .unwrap();
    // Every upload of round 1 is dropped and nothing retries: the round
    // ends empty, as an error the caller can handle.
    let result = scenario.run(&train, &test);
    assert_eq!(result.err(), Some(CoreError::EmptyRound { round: 1 }));
}
