//! End-to-end integration tests: a full FAIR-BFL run exercised through the
//! facade crate, with cross-crate invariants checked on the results (ledger
//! audit, reward accounting, determinism, convergence bookkeeping).

mod common;

use common::{small_config, small_dataset};
use fair_bfl::core::Scenario;
use fair_bfl::ml::gradient;

#[test]
fn full_run_produces_valid_ledger_and_matching_rewards() {
    let (train, test) = small_dataset();
    let config = small_config(4);
    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();

    // One block per communication round, none empty, all valid.
    let chain = result.chain.as_ref().expect("FAIR-BFL mines");
    assert_eq!(chain.height() as usize, config.fl.rounds);
    assert_eq!(chain.empty_block_count(), 0);
    chain.validate_all().unwrap();

    // Assumption 2: every block's gradient payload is a single global
    // gradient of the right dimensionality, and the latest one equals the
    // simulation's final parameters.
    for block in chain.iter().skip(1) {
        let (_, payload) = block
            .global_gradient_payload()
            .expect("every round block carries the global gradient");
        let params = gradient::from_bytes(payload).expect("payload is a valid gradient");
        assert_eq!(params.len(), config.fl.model.num_params());
    }
    let (_, latest) = chain.latest_global_gradient().unwrap();
    assert_eq!(gradient::from_bytes(&latest).unwrap(), result.final_params);

    // Reward audit: on-chain totals equal the simulation's bookkeeping, and
    // every round pays out (approximately) the configured base.
    assert_eq!(chain.reward_totals(), result.reward_totals);
    for outcome in &result.outcomes {
        let paid = outcome.rewards_paid_milli as i64;
        let base_milli = (config.reward_base * 1000.0) as i64;
        assert!(
            (paid - base_milli).abs() <= outcome.high_contributors as i64 + 1,
            "round {} paid {paid}, expected ~{base_milli}",
            outcome.round
        );
    }
}

#[test]
fn accuracy_improves_and_delays_accumulate_monotonically() {
    let (train, test) = small_dataset();
    let result = Scenario::from_config(small_config(6))
        .unwrap()
        .run(&train, &test)
        .unwrap();

    let first = result.outcomes.first().unwrap();
    let last = result.outcomes.last().unwrap();
    assert!(
        last.accuracy >= first.accuracy,
        "accuracy should not regress overall: {} -> {}",
        first.accuracy,
        last.accuracy
    );
    assert!(last.accuracy > 0.5, "the task is learnable in a few rounds");

    // The simulated clock is strictly increasing and consistent with the
    // per-round delays.
    assert_eq!(result.outcomes.len(), 6);
    let mut expected_elapsed = 0.0;
    for outcome in &result.outcomes {
        assert!(outcome.breakdown.total() > 0.0, "every round takes time");
        expected_elapsed += outcome.breakdown.total();
        assert!((outcome.elapsed_s - expected_elapsed).abs() < 1e-9);
    }
}

#[test]
fn runs_with_the_same_seed_are_bit_identical() {
    let (train, test) = small_dataset();
    let config = small_config(3);
    let a = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    let b = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.reward_totals, b.reward_totals);
    assert_eq!(
        a.chain.as_ref().unwrap().tip().hash(),
        b.chain.as_ref().unwrap().tip().hash()
    );
}

#[test]
fn different_seeds_give_different_runs() {
    let (train, test) = small_dataset();
    let mut config_a = small_config(3);
    config_a.fl.seed = 1;
    let mut config_b = small_config(3);
    config_b.fl.seed = 2;
    let a = Scenario::from_config(config_a)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    let b = Scenario::from_config(config_b)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    assert_ne!(a.final_params, b.final_params);
}

#[test]
fn training_loss_falls_over_a_full_participation_run() {
    let (train, test) = small_dataset();
    let mut config = small_config(8);
    config.fl.participation_ratio = 1.0;
    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();

    // The loss decreases overall (not necessarily monotonically, SGD is
    // noisy).
    let first_loss = result.outcomes.first().unwrap().train_loss;
    let last_loss = result.outcomes.last().unwrap().train_loss;
    assert!(last_loss < first_loss);
}
