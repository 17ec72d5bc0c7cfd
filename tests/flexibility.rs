//! Integration tests for the flexibility (functional-scaling) design:
//! the degraded modes must behave like the systems they claim to be
//! equivalent to, and their delay budgets must reflect the procedures they
//! actually run.

mod common;

use common::{small_config, small_dataset};
use fair_bfl::core::{BflConfig, FlexibilityMode, Scenario, SimulationResult};

/// The FedAvg baseline as a configuration: FAIR-BFL degraded to FL-only,
/// with fair aggregation disabled so the aggregation rule is exactly
/// FedAvg's simple average (Figure 4's `fedavg` cell at test scale).
fn fedavg(rounds: usize) -> BflConfig {
    BflConfig {
        mode: FlexibilityMode::FlOnly,
        fair_aggregation: false,
        verify_signatures: false,
        ..small_config(rounds)
    }
}

fn run(config: BflConfig) -> SimulationResult {
    let (train, test) = small_dataset();
    Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap()
}

/// (The name dates from the standalone `FlTrainer` round loop this test
/// used to compare against; the FL-only mode is the FedAvg baseline now,
/// and the name stays so the test keeps its id.)
#[test]
fn fl_only_mode_matches_a_standalone_fedavg_trainer_in_quality() {
    let result = run(fedavg(5));
    let first = result.outcomes.first().unwrap().accuracy;
    let last = result.final_accuracy().unwrap();
    assert!(
        last > first && last > 0.5,
        "FL-only with plain averaging learns: round 1 {first} -> round 5 {last}"
    );
    assert_eq!(result.final_params.len(), 7850);

    // And no ledger is produced.
    assert!(result.chain.is_none());
    assert!(result.outcomes.iter().all(|o| o.block_hash.is_none()));
}

/// FedProx is two more fields of the same configuration. The first:
/// `fl.local.proximal_mu > 0` pulls every local pass toward the global
/// model, so the trajectory moves.
#[test]
fn a_proximal_term_changes_the_fl_only_trajectory() {
    let mut fedprox = fedavg(3);
    fedprox.fl.local.proximal_mu = 1.0;
    assert_ne!(run(fedprox).final_params, run(fedavg(3)).final_params);
}

/// The second: `fl.drop_percent` drops stragglers out of every selection.
#[test]
fn drop_percent_shrinks_fl_only_participation() {
    let selected = fedavg(3).fl.selected_per_round();
    let everyone = run(fedavg(3));
    assert!(everyone.outcomes.iter().all(|o| o.participants == selected));

    let mut dropping = fedavg(3);
    dropping.fl.drop_percent = 0.2;
    let result = run(dropping);
    assert_eq!(result.outcomes.len(), 3);
    assert!(result
        .outcomes
        .iter()
        .all(|o| o.participants >= 1 && o.participants < selected));
}

#[test]
fn fl_only_runs_are_reproducible_for_a_fixed_seed() {
    let mut fedprox = fedavg(3);
    fedprox.fl.local.proximal_mu = 0.1;
    fedprox.fl.drop_percent = 0.2;
    let a = run(fedprox);
    let b = run(fedprox);
    assert_eq!(a.final_params, b.final_params);
    assert_eq!(a.outcomes, b.outcomes);

    let mut reseeded = fedprox;
    reseeded.fl.seed ^= 1;
    assert_ne!(run(reseeded).final_params, a.final_params);
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
    assert_eq!(result.final_accuracy(), None);
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
