//! Integration tests for the flexibility (functional-scaling) design:
//! the degraded modes must behave like the systems they claim to be
//! equivalent to, and their delay budgets must reflect the procedures they
//! actually run.

mod common;

use common::{small_config, small_dataset};
use fair_bfl::core::{FlexibilityMode, Scenario};
use fair_bfl::fl::config::PartitionKind;
use fair_bfl::fl::trainer::{FlAlgorithm, FlTrainer};

#[test]
fn fl_only_mode_matches_a_standalone_fedavg_trainer_in_quality() {
    let (train, test) = small_dataset();

    // FAIR-BFL degraded to FL-only, with fair aggregation disabled so the
    // aggregation rule is exactly FedAvg's simple average.
    let mut config = small_config(5);
    config.mode = FlexibilityMode::FlOnly;
    config.fair_aggregation = false;
    config.verify_signatures = false;
    let degraded = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();

    // The standalone FedAvg baseline on the same data and scale.
    let mut fl_config = config.fl;
    fl_config.partition = PartitionKind::Iid;
    let fedavg = FlTrainer::new(fl_config, FlAlgorithm::FedAvg).run(&train, &test);

    // They are distinct implementations with independent randomness, so we
    // compare capability, not bits: both learn the task to a similar level.
    let degraded_acc = degraded.final_accuracy().unwrap();
    let fedavg_acc = fedavg.history.final_accuracy().unwrap();
    assert!(
        degraded_acc > 0.5,
        "degraded FL-only mode learns ({degraded_acc})"
    );
    assert!(fedavg_acc > 0.5, "standalone FedAvg learns ({fedavg_acc})");
    assert!(
        (degraded_acc - fedavg_acc).abs() < 0.25,
        "FL-only mode ({degraded_acc:.3}) should be in the same quality class as FedAvg ({fedavg_acc:.3})"
    );

    // And no ledger is produced.
    assert!(degraded.chain.is_none());
}

#[test]
fn chain_only_mode_produces_a_ledger_and_no_model() {
    let (train, test) = small_dataset();
    let mut config = small_config(3);
    config.mode = FlexibilityMode::ChainOnly;
    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();

    let chain = result.chain.as_ref().unwrap();
    chain.validate_all().unwrap();
    assert!(chain.height() >= 3);
    assert!(result.final_params.is_empty());
    assert_eq!(result.final_accuracy(), Some(0.0));
    // Every block carries the submitted worker transactions.
    let transactions: usize = chain.iter().skip(1).map(|b| b.transactions.len()).sum();
    assert_eq!(transactions, config.fl.clients * config.fl.rounds);
}

#[test]
fn delay_budgets_reflect_the_active_procedures() {
    let (train, test) = small_dataset();

    let mut full = small_config(3);
    full.fl.clients = 10;
    let mut fl_only = full;
    fl_only.mode = FlexibilityMode::FlOnly;
    let mut chain_only = full;
    chain_only.mode = FlexibilityMode::ChainOnly;

    let full_result = Scenario::from_config(full)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    let fl_result = Scenario::from_config(fl_only)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    let chain_result = Scenario::from_config(chain_only)
        .unwrap()
        .run(&train, &test)
        .unwrap();

    // Full BFL pays for every procedure.
    for outcome in &full_result.outcomes {
        assert!(outcome.breakdown.t_local > 0.0);
        assert!(outcome.breakdown.t_up > 0.0);
        assert!(outcome.breakdown.t_gl > 0.0);
        assert!(outcome.breakdown.t_bl > 0.0);
    }
    // FL-only never mines or exchanges.
    for outcome in &fl_result.outcomes {
        assert_eq!(outcome.breakdown.t_bl, 0.0);
        assert_eq!(outcome.breakdown.t_ex, 0.0);
        assert!(outcome.breakdown.t_local > 0.0);
    }
    // Chain-only never trains.
    for outcome in &chain_result.outcomes {
        assert_eq!(outcome.breakdown.t_local, 0.0);
        assert!(outcome.breakdown.t_bl > 0.0);
    }

    // Removing procedures can only reduce the round delay relative to the
    // full system at the same scale.
    assert!(fl_result.mean_delay() < full_result.mean_delay());
}
