//! Integration tests for population-scale rounds (PR 7): lazy
//! O(participants) provisioning must reproduce the eager path bit for bit
//! on both engines, and streaming Procedure-IV
//! aggregation must match the materialized fold exactly where exactness
//! is defined (detection, rewards, participants) and to float-reorder
//! tolerance on the parameters themselves.

mod common;

use common::{assert_same_run, run_digest, small_config, small_dataset};
use fair_bfl::core::events::EventKind;
use fair_bfl::core::{
    AggregationMode, AttackConfig, BflConfig, EventRecord, KpiRow, LowContributionStrategy,
    ProfileConfig, ProvisioningMode, Scenario, SimulationResult, StalenessPolicy, SyncMode,
};
use fair_bfl::fl::attack::AttackKind;
use fair_bfl::fl::config::PartitionKind;
use fair_bfl::ml::par;
use fair_bfl::net::DelayDistribution;

/// The small test configuration re-based onto an implicit partition, so
/// the same population can be provisioned eagerly or lazily.
fn implicit_config(rounds: usize) -> BflConfig {
    let mut config = small_config(rounds);
    config.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 6,
    };
    config
}

fn run(config: BflConfig) -> SimulationResult {
    let (train, test) = small_dataset();
    Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap()
}

/// Lazy provisioning (the budgeted RSA key vault; clients are derived
/// where used under either mode) must be invisible in every artifact:
/// per-round records, block hashes, detection, rewards, final parameters.
/// Signatures stay on so the lazy key vault is actually exercised, and its
/// budget sits at the selection size so eviction happens.
///
/// ("Both engine modes" in the name dates from the process-wide
/// reference-arithmetic switch; one mode remains, and the name stays so
/// the test keeps its id.)
#[test]
fn lazy_provisioning_is_bit_identical_to_eager_in_both_engine_modes() {
    let eager = implicit_config(3);
    assert!(eager.verify_signatures, "the small config signs uploads");
    let mut lazy = eager;
    lazy.provisioning = ProvisioningMode::Lazy { cache_budget: 5 };

    assert_same_run(
        &run(eager),
        &run(lazy),
        "lazy provisioning diverged from the eager path",
    );
}

/// A flexible-quota population with stragglers and non-zero uplinks; the
/// event-driven selection, retry, and staleness paths must also be
/// provisioning-blind.
#[test]
fn lazy_provisioning_matches_eager_on_the_flexible_engine() {
    let mut eager = implicit_config(3);
    eager.fl.clients = 12;
    eager.fl.participation_ratio = 1.0;
    eager.verify_signatures = false;
    eager.sync = SyncMode::FlexibleQuota { quota: 9 };
    eager.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
    eager.profiles = ProfileConfig {
        straggler_slowdown: 6.0,
        straggler_fraction: 0.25,
        uplink: DelayDistribution::Constant(0.05),
        ..ProfileConfig::default()
    };
    let mut lazy = eager;
    lazy.provisioning = ProvisioningMode::Lazy { cache_budget: 12 };

    assert_same_run(
        &run(eager),
        &run(lazy),
        "lazy provisioning diverged on the flexible engine",
    );
}

/// With every upload folding in one committee, streaming Procedure IV is
/// the materialized computation re-associated: participants, detection
/// rows, and the reward ledger must match exactly; the parameters may
/// differ only by float re-ordering (Σθᵢuᵢ/Σθᵢ versus per-upload
/// weighting), bounded here at 1e-9 relative.
#[test]
fn streaming_single_chunk_matches_materialized_procedure_iv() {
    let mut materialized = small_config(3);
    materialized.fl.participation_ratio = 1.0;
    materialized.verify_signatures = false;
    materialized.sync = SyncMode::FlexibleQuota { quota: 8 };
    materialized.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
    materialized.strategy = LowContributionStrategy::Discard;
    materialized.attack = AttackConfig {
        enabled: true,
        ..AttackConfig::table2()
    };
    materialized.profiles = ProfileConfig {
        straggler_slowdown: 6.0,
        straggler_fraction: 0.25,
        uplink: DelayDistribution::Constant(0.05),
        ..ProfileConfig::default()
    };
    let mut streaming = materialized;
    streaming.aggregation = AggregationMode::Streaming { chunk: 64 };

    let base = run(materialized);
    let folded = run(streaming);

    assert_eq!(base.detection.rows, folded.detection.rows);
    assert_eq!(
        base.reward_totals, folded.reward_totals,
        "the integer reward ledger is order-free and must match exactly"
    );
    for (a, b) in base.outcomes.iter().zip(folded.outcomes.iter()) {
        assert_eq!(a.participants, b.participants, "round {}", a.round);
    }
    assert_eq!(base.final_params.len(), folded.final_params.len());
    for (i, (a, b)) in base
        .final_params
        .iter()
        .zip(folded.final_params.iter())
        .enumerate()
    {
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "parameter {i}: {a} vs {b}"
        );
    }
}

/// The full PR 7 composition — implicit population, lazy provisioning,
/// multi-committee streaming fold — must be bit-exactly repeatable and
/// must still learn (finite loss, everyone admitted up to the quota).
#[test]
fn streaming_multi_chunk_composition_is_deterministic() {
    let mut config = implicit_config(3);
    config.fl.clients = 12;
    config.fl.participation_ratio = 1.0;
    config.verify_signatures = false;
    config.sync = SyncMode::FlexibleQuota { quota: 10 };
    config.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
    config.provisioning = ProvisioningMode::Lazy { cache_budget: 12 };
    config.aggregation = AggregationMode::Streaming { chunk: 4 };
    config.profiles = ProfileConfig {
        straggler_slowdown: 6.0,
        straggler_fraction: 0.25,
        uplink: DelayDistribution::Constant(0.05),
        ..ProfileConfig::default()
    };

    let first = run(config);
    let second = run(config);
    assert_same_run(
        &first,
        &second,
        "streaming composition must be deterministic",
    );
    for round in &first.outcomes {
        assert!(round.participants >= 10, "quota admits ten per round");
        assert!(round.train_loss.is_finite());
    }
    assert!(first.final_params.iter().all(|p| p.is_finite()));
}

/// Under `StalenessPolicy::Discard` a late deferred upload is now dropped
/// before its local pass runs instead of after. The pass was a pure
/// function whose result was thrown away, so no artifact may move: a
/// streaming run with stragglers — signed, so the deferred tickets that
/// *are* admitted also sign at admission — keeps the digest recorded
/// before the change, and still discards stale uploads every round.
#[test]
fn streaming_rounds_that_discard_stale_uploads_unopened_keep_their_digest() {
    const GOLDEN: &str = "a2c94987bf1fc97e3c51512ee2d0492730e803aa72bf9f85c6808728e142e500";

    let mut config = implicit_config(4);
    config.fl.clients = 40;
    config.fl.participation_ratio = 0.3;
    config.sync = SyncMode::FlexibleQuota { quota: 8 };
    config.staleness = StalenessPolicy::Discard;
    config.provisioning = ProvisioningMode::Lazy { cache_budget: 12 };
    config.aggregation = AggregationMode::Streaming { chunk: 4 };
    config.profiles = ProfileConfig {
        straggler_slowdown: 6.0,
        straggler_fraction: 0.25,
        uplink: DelayDistribution::Constant(0.05),
        ..ProfileConfig::default()
    };
    assert!(config.verify_signatures);

    let result = run(config);
    let discarded: usize = result.outcomes.iter().map(|o| o.kpi.stale_discarded).sum();
    assert!(discarded > 0, "the stragglers' uploads arrive late");
    assert_eq!(run_digest(&result), GOLDEN);
}

/// Streaming rounds open deferred tickets a run at a time, across workers,
/// ahead of their admission. Nothing observable may depend on that: the
/// run digest, the event trace and every round's KPI row are identical
/// whether the runs resolve inline on the pump (one thread) or fan out
/// over two or eight workers.
///
/// The scenario is built to put every kind of run in front of the walk:
/// a constant uplink (whole cohorts arrive on one timestamp, so runs span
/// a timestamp and the later ones behind it), stragglers (late arrivals
/// interleave with the next round's `TrainingFinished` events, which end
/// a run), `DecayedInclude` (stale tickets are opened and carried), a
/// quota of 57 over chunks of 25 (full chunks and a partial one bound the
/// runs), and one to three `Scaling` attackers a round whose infinite
/// factor makes their upload fail the finite check — a rejection in the
/// middle of a run. Passes are sized (24 samples, 2 epochs) so a run of
/// 25 clears the fan-out's work gate on every worker count tried.
#[test]
fn streaming_run_ahead_is_invisible_at_any_thread_count() {
    let mut config = small_config(4);
    config.fl.clients = 200;
    config.fl.participation_ratio = 0.5;
    config.fl.local.epochs = 2;
    config.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 24,
    };
    config.sync = SyncMode::FlexibleQuota { quota: 57 };
    config.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
    config.provisioning = ProvisioningMode::Lazy { cache_budget: 100 };
    config.aggregation = AggregationMode::Streaming { chunk: 25 };
    config.attack = AttackConfig {
        enabled: true,
        kind: AttackKind::Scaling {
            factor: f64::INFINITY,
        },
        ..AttackConfig::table2()
    };
    config.profiles = ProfileConfig {
        straggler_slowdown: 6.0,
        straggler_fraction: 0.25,
        uplink: DelayDistribution::Constant(0.05),
        ..ProfileConfig::default()
    };
    assert!(config.verify_signatures, "admitted tickets sign too");
    let scenario = Scenario::from_config(config).unwrap();
    let (train, test) = small_dataset();

    let observe = |threads: usize| -> (SimulationResult, Vec<EventRecord>, Vec<KpiRow>) {
        par::with_thread_limit(threads, || {
            let mut run = scenario.start(&train, &test).unwrap();
            run.run_to_completion().unwrap();
            let trace = run.event_trace().to_vec();
            let kpis = run.outcomes().iter().map(|o| o.kpi).collect();
            (run.into_result(), trace, kpis)
        })
    };
    let (result, trace, kpis) = observe(1);

    // The scenario does what it was built to do.
    assert!(
        kpis.iter().map(|k| k.stale_included).sum::<usize>() > 0,
        "stragglers' uploads are carried into later blocks"
    );
    let rejected: Vec<usize> = trace
        .iter()
        .enumerate()
        .filter(|(_, e)| e.kind == EventKind::UploadRejected)
        .map(|(i, _)| i)
        .collect();
    assert!(
        !rejected.is_empty(),
        "the overflowing forgeries are refused"
    );
    assert!(
        rejected.iter().any(|&i| {
            let admitted = |e: &EventRecord| e.kind == EventKind::UploadArrived;
            admitted(&trace[i - 1]) && admitted(&trace[i + 1])
        }),
        "at least one refusal sits between two admissions of the same run"
    );
    assert!(
        kpis.iter().all(|k| k.mempool_depth_at_seal % 25 != 0),
        "every round seals on a partial chunk"
    );

    for threads in [2, 8] {
        let (r, t, k) = observe(threads);
        assert_same_run(&r, &result, &format!("{threads} threads"));
        assert_eq!(t, trace, "event trace at {threads} threads");
        assert_eq!(k, kpis, "KPI rows at {threads} threads");
    }
}

/// Streaming chunk committees big enough for Algorithm 2's row passes to
/// fan out (`par::plan_row_pass`): 110 uploads of the paper's 7850
/// parameters are three workers' worth of rows, so at three and eight
/// threads the mean anchor, the anchor search's first step, θ and the
/// running Equation 1 sum each split three ways, at two threads two ways,
/// and the seal's 30-upload partial chunk stays inline. The digest and
/// the KPI rows must not see it.
#[test]
fn streaming_committees_past_the_row_pass_threshold_are_invisible_at_any_thread_count() {
    let mut config = small_config(2);
    config.fl.clients = 600;
    config.fl.participation_ratio = 0.5;
    config.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 6,
    };
    config.verify_signatures = false;
    config.sync = SyncMode::FlexibleQuota { quota: 250 };
    config.provisioning = ProvisioningMode::Lazy { cache_budget: 300 };
    config.aggregation = AggregationMode::Streaming { chunk: 110 };
    let scenario = Scenario::from_config(config).unwrap();
    let (train, test) = small_dataset();
    assert_eq!(
        par::with_thread_limit(8, || par::plan_row_pass(110, 7850)),
        3
    );
    assert_eq!(
        par::with_thread_limit(8, || par::plan_row_pass(31, 7850)),
        1
    );

    let observe = |threads: usize| -> (SimulationResult, Vec<KpiRow>) {
        par::with_thread_limit(threads, || {
            let mut run = scenario.start(&train, &test).unwrap();
            run.run_to_completion().unwrap();
            for outcome in run.outcomes() {
                assert_eq!(
                    outcome.participants, 250,
                    "two full chunks and a partial one"
                );
                assert_eq!(outcome.kpi.mempool_depth_at_seal, 30, "the partial chunk");
            }
            let kpis = run.outcomes().iter().map(|o| o.kpi).collect();
            (run.into_result(), kpis)
        })
    };
    let (result, kpis) = observe(1);
    assert_eq!(kpis.len(), 2);
    for threads in [2, 3, 8] {
        let (r, k) = observe(threads);
        assert_same_run(&r, &result, &format!("{threads} threads"));
        assert_eq!(k, kpis, "KPI rows at {threads} threads");
    }
}
