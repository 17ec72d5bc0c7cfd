//! Integration tests for the event-driven round engine (PR 5): the
//! synchronous mode's bit-identity with the PR 4 engine, the determinism
//! of flexible-quota runs (event traces and sweep thread-invariance), the
//! flexible block quota's straggler behaviour, staleness policies, and
//! churn schedules.

mod common;

use common::{
    assert_same_run, full_participation_fl, run_digest, run_grid, small_config, small_dataset,
};
use fair_bfl::core::events::EventKind;
use fair_bfl::core::{
    BflConfig, ProfileConfig, Scenario, SimulationResult, StalenessPolicy, SyncMode,
};
use fair_bfl::net::DelayDistribution;

/// The synchronous mode (the degenerate case of the event-driven
/// redesign: zero delays, quota = all participants) must stay
/// bit-identical to the PR 4 step engine. The digest below was captured
/// on the PR 4 engine *before* that refactor landed, over every artifact
/// the experiments read — per-round records, detection rows, reward
/// totals, final parameters, and every block hash.
///
/// ("Both engine modes" in the name dates from the process-wide
/// reference-arithmetic switch; one mode remains, and the name stays so
/// the test keeps its id.)
#[test]
fn synchronous_mode_is_bit_identical_to_the_pr4_engine_in_both_engine_modes() {
    const PR4_BATCHED: &str = "49e74382d7ab1bec34dbf20e11088ad99656afb8b2eb3f2c14036611cc0340dc";

    let (train, test) = small_dataset();
    let config = small_config(3);
    assert!(config.sync.is_synchronous(), "the default mode is lockstep");

    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    assert_eq!(
        run_digest(&result),
        PR4_BATCHED,
        "synchronous run diverged from the PR 4 engine"
    );
    assert!(result.outcomes.iter().all(|o| o.stale_included == 0));
}

/// A heterogeneous scenario: stragglers, jitter-free but non-zero uplink
/// latency, full participation.
fn straggler_scenario(quota: usize, staleness: StalenessPolicy, rounds: usize) -> Scenario {
    Scenario::from_config(BflConfig {
        fl: full_participation_fl(8, rounds, 42),
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota },
        staleness,
        profiles: ProfileConfig {
            straggler_slowdown: 8.0,
            straggler_fraction: 0.25,
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        ..BflConfig::default()
    })
    .unwrap()
}

#[test]
fn flexible_quota_runs_are_deterministic_with_identical_event_traces() {
    let (train, test) = small_dataset();
    let scenario = straggler_scenario(6, StalenessPolicy::DecayedInclude { decay: 0.5 }, 3);

    let mut traces = Vec::new();
    let mut results = Vec::new();
    for _ in 0..2 {
        let mut run = scenario.start(&train, &test).unwrap();
        run.run_to_completion().unwrap();
        traces.push(run.event_trace().to_vec());
        results.push(run.into_result());
    }
    assert!(!traces[0].is_empty(), "flexible runs schedule events");
    assert_eq!(traces[0], traces[1], "the event trace is deterministic");
    assert_same_run(&results[0], &results[1], "the run result is deterministic");
}

#[test]
fn flexible_sweeps_are_bit_identical_for_any_thread_count() {
    let (train, test) = small_dataset();
    let quotas = [8, 6, 4, 3, 2];
    let grid: Vec<Scenario> = quotas
        .into_iter()
        .map(|quota| straggler_scenario(quota, StalenessPolicy::DecayedInclude { decay: 0.5 }, 2))
        .collect();

    let serial = run_grid(&grid, 1, &train, &test);
    for workers in [2, 8] {
        let cells = run_grid(&grid, workers, &train, &test);
        assert_eq!(cells.len(), serial.len());
        for ((a, b), quota) in serial.iter().zip(cells.iter()).zip(quotas) {
            assert_same_run(
                a,
                b,
                &format!("cell `quota-{quota}` must not depend on sweep parallelism"),
            );
        }
    }
}

#[test]
fn flexible_quota_seals_blocks_without_waiting_for_stragglers() {
    let (train, test) = small_dataset();
    let rounds = 4;
    // Quota = all participants: every block waits for the 8x straggler.
    let waiting = straggler_scenario(8, StalenessPolicy::Discard, rounds)
        .run(&train, &test)
        .unwrap();
    // Quota of six: blocks seal once the fast clients have reported.
    let flexible = straggler_scenario(6, StalenessPolicy::Discard, rounds)
        .run(&train, &test)
        .unwrap();

    let makespan = |r: &SimulationResult| r.outcomes.last().unwrap().elapsed_s;
    assert!(
        makespan(&flexible) < makespan(&waiting),
        "the flexible quota must undercut the straggler-gated makespan \
         ({:.2}s vs {:.2}s)",
        makespan(&flexible),
        makespan(&waiting)
    );
    // Both modes still learn and still seal one block per round.
    assert_eq!(waiting.chain.as_ref().unwrap().height(), rounds as u64);
    assert_eq!(flexible.chain.as_ref().unwrap().height(), rounds as u64);
    flexible.chain.as_ref().unwrap().validate_all().unwrap();
    assert!(flexible.final_accuracy().unwrap() > 0.3);
}

#[test]
fn staleness_policies_govern_what_late_uploads_contribute() {
    let (train, test) = small_dataset();
    let rounds = 4;

    // Discard: stragglers' late uploads are dropped on arrival; no block
    // ever carries a stale gradient.
    let discard = straggler_scenario(6, StalenessPolicy::Discard, rounds);
    let mut run = discard.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let discard_trace = run.event_trace().to_vec();
    let discard_result = run.into_result();
    assert!(discard_result
        .outcomes
        .iter()
        .all(|o| o.stale_included == 0));
    assert!(
        discard_trace
            .iter()
            .any(|e| e.kind == EventKind::StaleDiscarded),
        "the 8x stragglers must miss the quota and arrive stale"
    );

    // DecayedInclude: the same stragglers are carried into later blocks.
    let include = straggler_scenario(6, StalenessPolicy::DecayedInclude { decay: 0.5 }, rounds);
    let mut run = include.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let include_trace = run.event_trace().to_vec();
    let include_result = run.into_result();
    assert!(
        include_trace
            .iter()
            .any(|e| e.kind == EventKind::StaleIncluded),
        "decayed stale uploads enter later blocks"
    );
    let carried: usize = include_result
        .outcomes
        .iter()
        .map(|o| o.stale_included)
        .sum();
    assert!(carried > 0, "at least one block aggregates a stale upload");
    // The carried gradients change the trajectory relative to discarding.
    assert_ne!(discard_result.final_params, include_result.final_params);
}

#[test]
fn churn_schedules_gate_selection_and_can_lose_in_flight_uploads() {
    let (train, test) = small_dataset();
    let rounds = 6;
    let scenario = Scenario::from_config(BflConfig {
        fl: full_participation_fl(6, rounds, 7),
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota: 4 },
        profiles: ProfileConfig {
            churn_fraction: 0.5,
            churn_online_s: 4.0,
            churn_offline_s: 50.0,
            ..ProfileConfig::default()
        },
        ..BflConfig::default()
    })
    .unwrap();

    let mut run = scenario.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let trace = run.event_trace().to_vec();
    let result = run.into_result();
    assert_eq!(result.outcomes.len(), rounds);

    // Offline clients are never selected: every scheduled pass respects
    // the profile's churn schedule.
    let profiles: Vec<_> = (0..6)
        .map(|i| scenario.config().profiles.profile_of(i, 6))
        .collect();
    for event in &trace {
        if event.kind == EventKind::TrainingScheduled {
            assert!(
                profiles[event.client_id as usize].is_online(event.time_s),
                "client {} was scheduled while offline at t={}",
                event.client_id,
                event.time_s
            );
        }
    }
    // The churners (clients 0-2) leave within seconds and stay away for
    // 50 simulated seconds, so they must miss rounds.
    let scheduled_rounds = |client: u64| {
        trace
            .iter()
            .filter(|e| e.kind == EventKind::TrainingScheduled && e.client_id == client)
            .count()
    };
    assert!(
        scheduled_rounds(0) < rounds,
        "churned client 0 participates in fewer than {rounds} rounds"
    );
    // The always-on clients participate far more often than the churners
    // (they can still sit out a selection while an earlier upload of
    // theirs is in flight beyond the quota).
    assert!(
        scheduled_rounds(0) < scheduled_rounds(5),
        "churned client 0 ({}) must participate less than always-on client 5 ({})",
        scheduled_rounds(0),
        scheduled_rounds(5)
    );
}

#[test]
fn a_fully_churning_population_fast_forwards_instead_of_aborting() {
    let (train, test) = small_dataset();
    // Every client churns with overlapping offline windows: rounds whose
    // start lands in an all-offline window must fast-forward the clock
    // to the next rejoin (the dynamic-join property), not abort the run.
    let rounds = 5;
    let scenario = Scenario::from_config(BflConfig {
        fl: full_participation_fl(4, rounds, 11),
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota: 2 },
        profiles: ProfileConfig {
            churn_fraction: 1.0,
            churn_online_s: 2.0,
            churn_offline_s: 3.0,
            ..ProfileConfig::default()
        },
        ..BflConfig::default()
    })
    .unwrap();
    let mut run = scenario.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let trace = run.event_trace().to_vec();
    let result = run.into_result();
    assert_eq!(result.outcomes.len(), rounds, "no round aborts");
    // Scheduling still respects every churn schedule.
    let profiles: Vec<_> = (0..4)
        .map(|i| scenario.config().profiles.profile_of(i, 4))
        .collect();
    for event in &trace {
        if event.kind == EventKind::TrainingScheduled {
            assert!(profiles[event.client_id as usize].is_online(event.time_s));
        }
    }
}

#[test]
fn flexible_quota_works_with_signatures_and_in_fl_only_mode() {
    let (train, test) = small_dataset();

    // Signatures on: uploads are signed by the client, verified at the
    // miner's mempool, and the sealed chain validates.
    let mut config = small_config(2);
    config.sync = SyncMode::FlexibleQuota { quota: 3 };
    let signed = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    assert_eq!(signed.outcomes.len(), 2);
    let chain = signed.chain.as_ref().unwrap();
    assert_eq!(chain.height(), 2);
    chain.validate_all().unwrap();
    assert!(signed
        .outcomes
        .iter()
        .all(|o| o.participants == 3 && o.block_hash.is_some()));

    // FL-only: the aggregator fires at the quota without any chain.
    let mut config = small_config(2);
    config.mode = fair_bfl::core::FlexibilityMode::FlOnly;
    config.verify_signatures = false;
    config.sync = SyncMode::FlexibleQuota { quota: 3 };
    let fl_only = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    assert!(fl_only.chain.is_none());
    assert!(fl_only
        .outcomes
        .iter()
        .all(|o| o.participants == 3 && o.block_hash.is_none() && o.breakdown.t_bl == 0.0));
}
