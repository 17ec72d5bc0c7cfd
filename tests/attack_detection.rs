//! Integration tests for the security mechanism: malicious clients forging
//! gradients are identified by Algorithm 2 and excluded by the discard
//! strategy, and the model survives the attack (Table 2 / Section 5.4).

mod common;

use common::{small_config, small_dataset};
use fair_bfl::core::{AggregationAnchor, AttackConfig, LowContributionStrategy, Scenario};
use fair_bfl::fl::attack::AttackKind;
use fair_bfl::fl::config::PartitionKind;

fn attacked_config(rounds: usize, partition: PartitionKind) -> fair_bfl::core::BflConfig {
    let mut config = small_config(rounds);
    config.fl.partition = partition;
    config.fl.participation_ratio = 1.0;
    config.strategy = LowContributionStrategy::Discard;
    config.attack = AttackConfig::table2();
    config
}

#[test]
fn sign_flip_attackers_are_detected_at_a_high_rate() {
    let (train, test) = small_dataset();
    let config = attacked_config(6, PartitionKind::Iid);
    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();

    assert_eq!(result.detection.len(), 6);
    let (total, caught) = result.detection.totals();
    assert!(total >= 6, "at least one attacker per round");
    let rate = result.detection.average_detection_rate();
    assert!(
        rate >= 0.6,
        "detection rate should be high for blatant forgeries: {rate} ({caught}/{total})"
    );
}

#[test]
fn detection_works_under_non_iid_too_and_iid_is_not_worse() {
    let (train, test) = small_dataset();
    let non_iid = attacked_config(
        6,
        PartitionKind::ShardNonIid {
            shards_per_client: 2,
        },
    );
    let iid = attacked_config(6, PartitionKind::Iid);

    let non_iid_rate = Scenario::from_config(non_iid)
        .unwrap()
        .run(&train, &test)
        .unwrap()
        .detection
        .average_detection_rate();
    let iid_rate = Scenario::from_config(iid)
        .unwrap()
        .run(&train, &test)
        .unwrap()
        .detection
        .average_detection_rate();

    assert!(
        non_iid_rate > 0.3,
        "non-IID detection still works: {non_iid_rate}"
    );
    // The paper reports IID detection >= non-IID detection; allow a small
    // slack because these are short stochastic runs.
    assert!(
        iid_rate + 0.2 >= non_iid_rate,
        "IID ({iid_rate}) should not be substantially worse than non-IID ({non_iid_rate})"
    );
}

#[test]
fn discarding_protects_accuracy_against_poisoning() {
    let (train, test) = small_dataset();

    // Same attack, with and without the discard defence. A single attacker
    // per round uploads a hugely negatively-scaled update: under plain
    // averaging it drags the model backwards and stalls learning, while
    // Algorithm 2 + discard isolates it. At -8x the attacker's amplified
    // deviation dominates the plain average — the mean anchor points
    // nowhere near the honest cluster — so the defended run anchors on
    // the coordinate-wise median, which the attacker cannot move.
    let mut defended = attacked_config(6, PartitionKind::Iid);
    defended.anchor = AggregationAnchor::Median;
    defended.attack.kind = AttackKind::Scaling { factor: -8.0 };
    defended.attack.min_attackers = 1;
    defended.attack.max_attackers = 1;
    let mut undefended = defended;
    undefended.strategy = LowContributionStrategy::Keep;
    undefended.anchor = AggregationAnchor::Mean;
    undefended.fair_aggregation = false;

    let defended_result = Scenario::from_config(defended)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    let undefended_result = Scenario::from_config(undefended)
        .unwrap()
        .run(&train, &test)
        .unwrap();

    let defended_acc = defended_result.final_accuracy().unwrap();
    let undefended_acc = undefended_result.final_accuracy().unwrap();
    assert!(
        defended_acc > undefended_acc,
        "discarding should protect the model: defended {defended_acc:.3} vs undefended {undefended_acc:.3}"
    );
    assert!(
        defended_acc > 0.5,
        "defended run should keep learning: accuracy {defended_acc:.3}"
    );
    let rate = defended_result.detection.average_detection_rate();
    assert!(
        rate > 0.8,
        "the median anchor should catch the -8x attacker nearly every round: {rate}"
    );
}

#[test]
fn robust_anchors_catch_the_scaling_attacker_that_defeats_the_mean() {
    let (train, test) = small_dataset();

    // The ROADMAP open item: a -8x scaling attacker against 9 honest
    // uploads corrupts the plain-average anchor itself, collapsing
    // Algorithm 2 into the keep-everyone fallback. Running the same
    // configuration with only `anchor` swapped shows the
    // mean anchor failing and both robust anchors succeeding.
    let scenario_with = |anchor: AggregationAnchor| {
        let mut config = attacked_config(6, PartitionKind::Iid);
        config.attack.kind = AttackKind::Scaling { factor: -8.0 };
        config.attack.min_attackers = 1;
        config.attack.max_attackers = 1;
        config.anchor = anchor;
        Scenario::from_config(config).unwrap()
    };

    let mean_rate = scenario_with(AggregationAnchor::Mean)
        .run(&train, &test)
        .unwrap()
        .detection
        .average_detection_rate();
    let median_rate = scenario_with(AggregationAnchor::Median)
        .run(&train, &test)
        .unwrap()
        .detection
        .average_detection_rate();
    let trimmed_rate = scenario_with(AggregationAnchor::TrimmedMean { trim_ratio: 0.2 })
        .run(&train, &test)
        .unwrap()
        .detection
        .average_detection_rate();

    assert!(
        mean_rate < 0.5,
        "-8x corrupts the mean anchor, detection should mostly fail: {mean_rate}"
    );
    assert!(
        median_rate > 0.8,
        "the median anchor should catch the -8x attacker: {median_rate}"
    );
    assert!(
        trimmed_rate > 0.8,
        "the trimmed-mean anchor should catch the -8x attacker: {trimmed_rate}"
    );
}

#[test]
fn attackers_that_are_caught_earn_no_rewards_that_round() {
    let (train, test) = small_dataset();
    let config = attacked_config(5, PartitionKind::Iid);
    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();

    // For every round, any attacker listed in the dropped set must not have
    // received a reward in that round's block.
    let chain = result.chain.as_ref().unwrap();
    for outcome in &result.outcomes {
        let block = chain.iter().nth(outcome.round).unwrap();
        let rewarded: Vec<u64> = block
            .transactions
            .iter()
            .filter_map(|tx| match &tx.kind {
                fair_bfl::chain::TransactionKind::Reward { client_id, .. } => Some(*client_id),
                _ => None,
            })
            .collect();
        for dropped in &outcome.dropped {
            assert!(
                !rewarded.contains(dropped),
                "round {}: dropped client {} must not be rewarded",
                outcome.round,
                dropped
            );
        }
    }
}

#[test]
fn a_non_finite_upload_is_rejected_at_admission_and_never_reaches_the_model() {
    use fair_bfl::core::events::EventKind;
    use fair_bfl::core::SyncMode;

    // One attacker per round scales its update by NaN. Under the median
    // anchor that used to panic the miner's sort; under the mean it
    // silently turned the global model into NaNs.
    let (train, test) = small_dataset();
    let rounds = 3;
    let mut config = attacked_config(rounds, PartitionKind::Iid);
    config.anchor = AggregationAnchor::Median;
    config.attack = AttackConfig {
        enabled: true,
        min_attackers: 1,
        max_attackers: 1,
        kind: AttackKind::Scaling { factor: f64::NAN },
    };
    let clients = config.fl.clients;

    // Lockstep engine: the attacker's upload never enters the round.
    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    assert_eq!(result.outcomes.len(), rounds);
    for outcome in &result.outcomes {
        assert_eq!(outcome.attackers.len(), 1);
        assert_eq!(outcome.participants, clients - 1, "round {}", outcome.round);
        assert!(outcome.accuracy.is_finite());
    }
    assert!(result.final_params.iter().all(|p| p.is_finite()));
    assert!(result.final_accuracy().unwrap() > 0.3);

    // Event engine: the miner refuses it like a bad signature.
    config.sync = SyncMode::FlexibleQuota { quota: clients - 1 };
    let scenario = Scenario::from_config(config).unwrap();
    let mut run = scenario.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let rejected = run
        .event_trace()
        .iter()
        .filter(|e| e.kind == EventKind::UploadRejected)
        .count();
    assert_eq!(rejected, rounds, "one refused upload per round");
    let result = run.into_result();
    assert_eq!(result.outcomes.len(), rounds);
    assert!(result
        .outcomes
        .iter()
        .all(|o| o.participants == clients - 1));
    assert!(result.final_params.iter().all(|p| p.is_finite()));
    assert!(result.final_accuracy().unwrap() > 0.3);
}
