//! Integration tests for the deterministic fault-injection subsystem
//! (PR 6): zero-fault bit-identity with the PR 5 engine, packet loss and
//! client retransmission, duplicate squashing, corruption detection via
//! signature verification, miner crashes, partition-driven forks healed
//! by longest-chain adoption, deadline degradation, and the determinism
//! gate (identical traces and results across runs and sweep thread
//! counts while a fault plan is active).

mod common;

use common::{
    assert_same_run, full_participation_fl, run_digest, run_grid, small_config, small_dataset,
};
use fair_bfl::core::events::EventKind;
use fair_bfl::core::{
    AggregationMode, BflConfig, EventRecord, ProfileConfig, ProvisioningMode, ReorgPolicy,
    RetryPolicy, Scenario, SimulationResult, StalenessPolicy, SyncMode,
};
use fair_bfl::fl::config::{FlConfig, PartitionKind};
use fair_bfl::ml::optimizer::LocalTrainingConfig;
use fair_bfl::net::{CrashSchedule, DelayDistribution, FaultPlan, LinkFaults, Partition};

/// A flexible-quota scenario with an (optional) fault plan, shared by
/// most tests here: 8 clients, full participation, no signatures.
fn faulted_scenario(
    quota: usize,
    rounds: usize,
    fault: FaultPlan,
    retry: RetryPolicy,
    reorg: ReorgPolicy,
) -> Scenario {
    Scenario::from_config(BflConfig {
        fl: full_participation_fl(8, rounds, 42),
        miners: 3,
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota },
        staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
        profiles: ProfileConfig {
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        fault,
        retry,
        reorg,
        ..BflConfig::default()
    })
    .unwrap()
}

/// Cumulative end-of-round times of a fault-free probe run, used to aim
/// crash and partition windows at specific rounds deterministically.
fn probe_round_ends(quota: usize, rounds: usize) -> Vec<f64> {
    let (train, test) = small_dataset();
    let result = faulted_scenario(
        quota,
        rounds,
        FaultPlan::default(),
        RetryPolicy::None,
        ReorgPolicy::Discard,
    )
    .run(&train, &test)
    .unwrap();
    result.outcomes.iter().map(|o| o.elapsed_s).collect()
}

/// The inactive fault plan is not allowed to change a single bit: the
/// synchronous path must still reproduce the PR 4/5 golden digest, and
/// the event engine must produce the identical trace and result with and
/// without the (default) plan threaded through the configuration.
#[test]
fn zero_fault_plan_replays_the_pr5_engine_bit_identically() {
    const PR4_BATCHED: &str = "49e74382d7ab1bec34dbf20e11088ad99656afb8b2eb3f2c14036611cc0340dc";

    let (train, test) = small_dataset();

    // Synchronous golden: explicitly threading the default plan through
    // the config reproduces the digest pinned before faults existed.
    let mut config = small_config(3);
    config.fault = FaultPlan::default();
    config.retry = RetryPolicy::None;
    config.reorg = ReorgPolicy::Discard;
    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    assert_eq!(
        run_digest(&result),
        PR4_BATCHED,
        "an inactive fault plan must not perturb the synchronous engine"
    );

    // Event engine: a run with the default plan is trace- and
    // digest-identical to the same scenario without fault fields set.
    let baseline = Scenario::from_config(BflConfig {
        fl: full_participation_fl(8, 3, 42),
        miners: 3,
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota: 6 },
        staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
        profiles: ProfileConfig {
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        ..BflConfig::default()
    })
    .unwrap();
    let mut base_run = baseline.start(&train, &test).unwrap();
    base_run.run_to_completion().unwrap();
    let base_trace = base_run.event_trace().to_vec();
    let base_result = base_run.into_result();

    let explicit = faulted_scenario(
        6,
        3,
        FaultPlan::default(),
        RetryPolicy::None,
        ReorgPolicy::Discard,
    );
    let mut run = explicit.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    assert_eq!(
        run.event_trace(),
        &base_trace[..],
        "an inactive plan draws nothing and schedules nothing extra"
    );
    assert_same_run(&run.into_result(), &base_result, "an inactive plan");
}

#[test]
fn dropped_uploads_are_retransmitted_under_the_backoff_policy() {
    let (train, test) = small_dataset();
    let fault = FaultPlan {
        uplink: LinkFaults {
            drop_rate: 0.4,
            ..LinkFaults::default()
        },
        ..FaultPlan::default()
    };
    let retry = RetryPolicy::Backoff {
        max_attempts: 3,
        timeout_s: 1.0,
        base_s: 0.5,
        factor: 2.0,
        jitter_s: 0.2,
    };
    let scenario = faulted_scenario(6, 3, fault, retry, ReorgPolicy::Discard);

    let mut traces = Vec::new();
    let mut results = Vec::new();
    for _ in 0..2 {
        let mut run = scenario.start(&train, &test).unwrap();
        run.run_to_completion().unwrap();
        traces.push(run.event_trace().to_vec());
        results.push(run.into_result());
    }
    assert_eq!(
        traces[0], traces[1],
        "faulted traces replay bit-identically"
    );
    assert_same_run(&results[0], &results[1], "faulted runs replay");

    let count = |kind: EventKind| traces[0].iter().filter(|e| e.kind == kind).count();
    assert!(count(EventKind::UploadDropped) > 0, "40% loss must strike");
    assert!(
        count(EventKind::UploadRetried) > 0,
        "the backoff policy must retransmit dropped uploads"
    );
    // Retransmission keeps the run learning through the loss.
    assert!(count(EventKind::UploadArrived) > 0);

    // Without retries the same losses are terminal: drops appear, resends
    // do not, and the rounds seal with whatever survived.
    let fatalist = faulted_scenario(
        6,
        3,
        FaultPlan {
            uplink: LinkFaults {
                drop_rate: 0.4,
                ..LinkFaults::default()
            },
            ..FaultPlan::default()
        },
        RetryPolicy::None,
        ReorgPolicy::Discard,
    );
    let mut run = fatalist.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let trace = run.event_trace().to_vec();
    assert!(trace.iter().any(|e| e.kind == EventKind::UploadDropped));
    assert!(trace.iter().all(|e| e.kind != EventKind::UploadRetried));
    assert_eq!(run.into_result().outcomes.len(), 3);
}

#[test]
fn duplicate_deliveries_are_squashed_and_never_double_count() {
    let (train, test) = small_dataset();
    let fault = FaultPlan {
        uplink: LinkFaults {
            duplicate_rate: 1.0,
            ..LinkFaults::default()
        },
        ..FaultPlan::default()
    };
    let scenario = faulted_scenario(6, 3, fault, RetryPolicy::None, ReorgPolicy::Discard);
    let mut run = scenario.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let trace = run.event_trace().to_vec();
    let result = run.into_result();

    assert!(
        trace.iter().any(|e| e.kind == EventKind::DuplicateIgnored),
        "every upload is duplicated, so redundant copies must be squashed"
    );
    // No commission is ever admitted twice.
    let mut admitted = std::collections::BTreeSet::new();
    for e in &trace {
        if matches!(e.kind, EventKind::UploadArrived | EventKind::StaleIncluded) {
            assert!(
                admitted.insert((e.born_round, e.client_id)),
                "client {} round {} admitted twice",
                e.client_id,
                e.born_round
            );
        }
    }
    // Every round still seals at most one upload per client.
    for outcome in &result.outcomes {
        assert!(outcome.participants <= 8);
    }
    assert_eq!(result.outcomes.len(), 3);
}

#[test]
fn corrupted_uploads_are_rejected_by_the_signature_check() {
    let (train, test) = small_dataset();
    let fault = FaultPlan {
        uplink: LinkFaults {
            corrupt_rate: 0.5,
            ..LinkFaults::default()
        },
        ..FaultPlan::default()
    };
    let scenario = Scenario::from_config(BflConfig {
        fl: full_participation_fl(6, 3, 11),
        miners: 2,
        verify_signatures: true,
        rsa_modulus_bits: 256,
        sync: SyncMode::FlexibleQuota { quota: 4 },
        profiles: ProfileConfig {
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        fault,
        retry: RetryPolicy::Backoff {
            max_attempts: 2,
            timeout_s: 1.0,
            base_s: 0.5,
            factor: 2.0,
            jitter_s: 0.0,
        },
        ..BflConfig::default()
    })
    .unwrap();

    let mut run = scenario.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let trace = run.event_trace().to_vec();
    let result = run.into_result();

    assert!(
        trace.iter().any(|e| e.kind == EventKind::UploadRejected),
        "flipped payload bytes must fail miner-side verification"
    );
    assert!(
        trace.iter().any(|e| e.kind == EventKind::UploadRetried),
        "rejected attempts retransmit under the backoff policy"
    );
    assert_eq!(result.outcomes.len(), 3);
    result.chain.as_ref().unwrap().validate_all().unwrap();
}

#[test]
fn a_miner_crash_loses_its_pool_and_the_mesh_recovers() {
    const CRASH_RUN: &str = "09fe0232d49e801f587791b9597387b26d9362220c1b7ce31f4b798b86881b70";
    let (train, test) = small_dataset();
    let quota = 6;
    let rounds = 4;
    let ends = probe_round_ends(quota, rounds);
    // Crash miner 1 just after round 1 seals; it stays down for about one
    // round and recovers before the run ends.
    let crash = CrashSchedule {
        miner: 1,
        crash_at_s: ends[0] * 0.5,
        down_for_s: (ends[1] - ends[0] * 0.5) + 0.5,
    };
    let fault = FaultPlan {
        crash: Some(crash),
        ..FaultPlan::default()
    };
    let retry = RetryPolicy::Backoff {
        max_attempts: 3,
        timeout_s: 0.5,
        base_s: 0.5,
        factor: 2.0,
        jitter_s: 0.1,
    };
    let scenario = faulted_scenario(quota, rounds, fault, retry, ReorgPolicy::Discard);

    let mut results = Vec::new();
    let mut trace = Vec::new();
    for _ in 0..2 {
        let mut run = scenario.start(&train, &test).unwrap();
        run.run_to_completion().unwrap();
        trace = run.event_trace().to_vec();
        results.push(run.into_result());
    }
    assert_same_run(&results[0], &results[1], "crash runs replay");
    // Pinned: the digest covers every block hash, so it pins who sealed.
    assert_eq!(run_digest(&results[0]), CRASH_RUN);

    // The downed miner swallows or loses uploads somewhere in the run.
    assert!(
        trace
            .iter()
            .any(|e| matches!(e.kind, EventKind::UploadDropped | EventKind::UploadLost)),
        "a crash mid-run must cost at least one upload"
    );
    // The run survives the crash: every round seals, the chain is whole.
    let result = scenario.run(&train, &test).unwrap();
    assert_eq!(result.outcomes.len(), rounds);
    let chain = result.chain.as_ref().unwrap();
    assert_eq!(chain.height(), rounds as u64);
    chain.validate_all().unwrap();
}

/// A run that ends while its replicas disagree returns the leading
/// replica's chain: miner 0 goes down at once and stays down past the
/// run, so every round seals on miner 1, whose chain must hold every
/// round's block and the rewards the run paid.
#[test]
fn a_run_that_ends_split_returns_the_leading_replica() {
    let (train, test) = small_dataset();
    let fault = FaultPlan {
        crash: Some(CrashSchedule {
            miner: 0,
            crash_at_s: 0.2,
            down_for_s: 100.0,
        }),
        ..FaultPlan::default()
    };
    let scenario = faulted_scenario(6, 6, fault, RetryPolicy::None, ReorgPolicy::Discard);
    let config = BflConfig {
        miners: 2,
        ..*scenario.config()
    };
    let scenario = Scenario::from_config(config).unwrap();
    let result = scenario.run(&train, &test).unwrap();
    let chain = result.chain.as_ref().unwrap();
    assert_eq!(chain.height(), 6);
    chain.validate_all().unwrap();
    assert_eq!(chain.reward_totals(), result.reward_totals);
}

/// The acceptance scenario: a partition splits the 3-miner mesh, both
/// components mine their own branch (a real fork), and the first round
/// after the window heals it by longest-chain adoption — one tip, the
/// losing branch's uploads salvaged through the staleness policy, and
/// the resolution cost charged as `T_fork`.
#[test]
fn a_partition_forks_the_mesh_and_heals_to_one_tip() {
    const PARTITION_RUN: &str = "e0eef325ededf052e286ab4c32e912cb52cb3c460d694bf64dab60d7560ccac6";
    let (train, test) = small_dataset();
    let quota = 8;
    let rounds = 5;
    let ends = probe_round_ends(quota, rounds);
    // Split {0, 1} | {2} for rounds 2-3; heal lands in a later prologue.
    let partition = Partition {
        start_s: ends[0] + 0.01,
        duration_s: ends[2] - ends[0],
        boundary: 2,
    };
    let fault = FaultPlan {
        partition: Some(partition),
        ..FaultPlan::default()
    };
    let scenario = faulted_scenario(
        quota,
        rounds,
        fault,
        RetryPolicy::None,
        ReorgPolicy::Salvage,
    );

    let mut results = Vec::new();
    let mut traces = Vec::new();
    for _ in 0..2 {
        let mut run = scenario.start(&train, &test).unwrap();
        run.run_to_completion().unwrap();
        traces.push(run.event_trace().to_vec());
        results.push(run.into_result());
    }
    assert_eq!(
        traces[0], traces[1],
        "partition runs replay bit-identically"
    );
    assert_same_run(&results[0], &results[1], "partition runs replay");
    assert_eq!(run_digest(&results[0]), PARTITION_RUN);

    let trace = &traces[0];
    assert!(
        trace.iter().any(|e| e.kind == EventKind::UploadStranded),
        "uploads associated with miner 2 must strand on the secondary side"
    );
    assert!(
        trace.iter().any(|e| e.kind == EventKind::ForkHealed),
        "the split mesh must produce a fork that heals"
    );

    let result = scenario.run(&train, &test).unwrap();
    // The fork's resolution cost lands in exactly the heal round.
    let fork_rounds: Vec<&fair_bfl::core::RoundOutcome> = result
        .outcomes
        .iter()
        .filter(|o| o.breakdown.t_fork > 0.0)
        .collect();
    assert_eq!(fork_rounds.len(), 1, "one heal, one T_fork charge");
    // Healed to a single valid tip of exactly one block per round: the
    // secondary branch's blocks were orphaned away.
    let chain = result.chain.as_ref().unwrap();
    assert_eq!(chain.height(), rounds as u64);
    chain.validate_all().unwrap();
    // Salvage pushed the stranded uploads through the staleness policy
    // into a post-heal block.
    let salvage_visible = result.outcomes.iter().any(|o| o.stale_included > 0)
        || trace.iter().any(|e| e.kind == EventKind::StaleDiscarded);
    assert!(
        salvage_visible,
        "the losing branch's uploads must pass through the reorg policy"
    );
}

/// The (born round, client) pairs of every record of `kind`, in trace
/// order.
fn commissions(trace: &[EventRecord], kind: EventKind) -> Vec<(usize, u64)> {
    trace
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| (e.born_round, e.client_id))
        .collect()
}

/// Under `ReorgPolicy::Discard` every upload stranded on the losing side
/// of a partition is wasted at the heal, and the waste shows: one
/// `StaleDiscarded` record per stranded commission, each counted in its
/// round's `KpiRow::stale_discarded`. Nothing else is discarded here (the
/// staleness policy includes late uploads), so the two sets are equal.
#[test]
fn stranded_uploads_discarded_at_the_heal_are_recorded_and_counted() {
    let (train, test) = small_dataset();
    let (quota, rounds) = (8, 5);
    let ends = probe_round_ends(quota, rounds);
    let fault = FaultPlan {
        partition: Some(Partition {
            start_s: ends[0] + 0.01,
            duration_s: ends[2] - ends[0],
            boundary: 2,
        }),
        ..FaultPlan::default()
    };
    let scenario = faulted_scenario(
        quota,
        rounds,
        fault,
        RetryPolicy::None,
        ReorgPolicy::Discard,
    );
    let mut run = scenario.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let trace = run.event_trace().to_vec();
    let result = run.into_result();

    let mut stranded = commissions(&trace, EventKind::UploadStranded);
    let mut discarded = commissions(&trace, EventKind::StaleDiscarded);
    assert!(!stranded.is_empty(), "the partition must strand uploads");
    assert!(
        trace.iter().any(|e| e.kind == EventKind::ForkHealed),
        "the mesh must heal inside the run"
    );
    stranded.sort_unstable();
    discarded.sort_unstable();
    assert_eq!(
        discarded, stranded,
        "each stranded upload is discarded once"
    );
    let counted: usize = result.outcomes.iter().map(|o| o.kpi.stale_discarded).sum();
    assert_eq!(counted, stranded.len());
}

/// A stale upload the staleness policy discards is settled: its
/// duplicate reads `DuplicateIgnored` and is never judged a second time,
/// so no commission is discarded twice.
#[test]
fn a_duplicate_of_a_discarded_stale_upload_is_ignored() {
    let (train, test) = small_dataset();
    let scenario = Scenario::from_config(BflConfig {
        fl: full_participation_fl(8, 4, 42),
        miners: 2,
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota: 5 },
        staleness: StalenessPolicy::Discard,
        profiles: ProfileConfig {
            straggler_slowdown: 6.0,
            straggler_fraction: 0.25,
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        fault: FaultPlan {
            uplink: LinkFaults {
                duplicate_rate: 1.0,
                ..LinkFaults::default()
            },
            ..FaultPlan::default()
        },
        ..BflConfig::default()
    })
    .unwrap();
    let mut run = scenario.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let trace = run.event_trace().to_vec();

    let discarded = commissions(&trace, EventKind::StaleDiscarded);
    assert!(!discarded.is_empty(), "stragglers must arrive stale");
    let mut settled = std::collections::BTreeSet::new();
    for commission in &discarded {
        assert!(
            settled.insert(*commission),
            "(born round, client) {commission:?} was discarded twice"
        );
    }
    let first_discard = |c: (usize, u64)| {
        trace
            .iter()
            .position(|e| e.kind == EventKind::StaleDiscarded && (e.born_round, e.client_id) == c)
    };
    let ignored_after_discard = trace.iter().enumerate().any(|(at, e)| {
        e.kind == EventKind::DuplicateIgnored
            && first_discard((e.born_round, e.client_id)).is_some_and(|d| d < at)
    });
    assert!(
        ignored_after_discard,
        "a discarded upload's duplicate must arrive and be ignored"
    );
}

#[test]
fn the_fault_deadline_seals_short_rounds_instead_of_waiting() {
    let (train, test) = small_dataset();
    // Every client must report (quota = 8) but a quarter of them are 8x
    // stragglers; without a deadline each round waits for them.
    let patient = Scenario::from_config(BflConfig {
        fl: full_participation_fl(8, 3, 42),
        miners: 2,
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota: 8 },
        staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
        profiles: ProfileConfig {
            straggler_slowdown: 8.0,
            straggler_fraction: 0.25,
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        ..BflConfig::default()
    })
    .unwrap();
    let patient_result = patient.run(&train, &test).unwrap();
    let round1_s = patient_result.outcomes[0].elapsed_s;

    let mut hurried_config = *patient.config();
    hurried_config.fault = FaultPlan {
        deadline_s: round1_s * 0.5,
        ..FaultPlan::default()
    };
    let hurried = Scenario::from_config(hurried_config).unwrap();
    let mut run = hurried.start(&train, &test).unwrap();
    run.run_to_completion().unwrap();
    let trace = run.event_trace().to_vec();
    let result = run.into_result();

    assert!(
        trace.iter().any(|e| e.kind == EventKind::DeadlineSealed),
        "the deadline must cut at least one round short"
    );
    assert!(
        result.outcomes.iter().any(|o| o.participants < 8),
        "a deadline-sealed round carries fewer than all uploads"
    );
    let makespan = |r: &SimulationResult| r.outcomes.last().unwrap().elapsed_s;
    assert!(
        makespan(&result) < makespan(&patient_result),
        "sealing at the deadline must undercut the straggler-gated makespan"
    );
}

/// The satellite determinism gate: with an active fault plan, sweeps are
/// bit-identical across thread counts — fault streams are per-run, so
/// parallelism cannot leak into the coin-flips.
#[test]
fn faulted_sweeps_are_bit_identical_for_any_thread_count() {
    let (train, test) = small_dataset();
    let loss = FaultPlan {
        uplink: LinkFaults {
            drop_rate: 0.3,
            duplicate_rate: 0.2,
            ..LinkFaults::default()
        },
        ..FaultPlan::default()
    };
    let retry = RetryPolicy::Backoff {
        max_attempts: 2,
        timeout_s: 0.5,
        base_s: 0.5,
        factor: 2.0,
        jitter_s: 0.1,
    };
    let split = FaultPlan {
        partition: Some(Partition {
            start_s: 2.0,
            duration_s: 25.0,
            boundary: 2,
        }),
        ..FaultPlan::default()
    };
    let labels = ["loss-retry", "partition-salvage", "fault-free"];
    let grid = [
        faulted_scenario(6, 2, loss, retry, ReorgPolicy::Discard),
        faulted_scenario(8, 3, split, RetryPolicy::None, ReorgPolicy::Salvage),
        faulted_scenario(
            6,
            2,
            FaultPlan::default(),
            RetryPolicy::None,
            ReorgPolicy::Discard,
        ),
    ];

    let serial = run_grid(&grid, 1, &train, &test);
    for workers in [2, 8] {
        let cells = run_grid(&grid, workers, &train, &test);
        assert_eq!(cells.len(), serial.len());
        for ((a, b), label) in serial.iter().zip(cells.iter()).zip(labels) {
            assert_same_run(
                a,
                b,
                &format!("cell `{label}` must not depend on sweep parallelism"),
            );
        }
    }
}

/// SHA-256 over the event trace, bit-exact in its times.
fn trace_digest(trace: &[EventRecord]) -> String {
    let mut canon = String::new();
    for e in trace {
        canon.push_str(&format!(
            "{:016x} {} {} {} {:?}\n",
            e.time_s.to_bits(),
            e.round,
            e.born_round,
            e.client_id,
            e.kind
        ));
    }
    let digest = fair_bfl::crypto::sha256::sha256(canon.as_bytes());
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// A signed scenario with stragglers, `DecayedInclude` and drop,
/// duplicate and corrupt faults under backoff retries: 30 implicit
/// clients, 40% of them a round.
fn signed_faulty_scenario(provisioning: ProvisioningMode) -> Scenario {
    Scenario::from_config(BflConfig {
        fl: FlConfig {
            clients: 30,
            rounds: 5,
            participation_ratio: 0.4,
            partition: PartitionKind::ImplicitIid {
                samples_per_client: 6,
            },
            local: LocalTrainingConfig {
                epochs: 1,
                batch_size: 10,
                ..LocalTrainingConfig::default()
            },
            seed: 29,
            ..FlConfig::default()
        },
        miners: 3,
        verify_signatures: true,
        rsa_modulus_bits: 256,
        provisioning,
        sync: SyncMode::FlexibleQuota { quota: 8 },
        staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
        profiles: ProfileConfig {
            straggler_slowdown: 6.0,
            straggler_fraction: 0.25,
            uplink: DelayDistribution::Constant(0.05),
            ..ProfileConfig::default()
        },
        fault: FaultPlan {
            uplink: LinkFaults {
                drop_rate: 0.15,
                duplicate_rate: 0.2,
                corrupt_rate: 0.25,
                ..LinkFaults::default()
            },
            ..FaultPlan::default()
        },
        retry: RetryPolicy::Backoff {
            max_attempts: 3,
            timeout_s: 1.0,
            base_s: 0.5,
            factor: 2.0,
            jitter_s: 0.1,
        },
        ..BflConfig::default()
    })
    .unwrap()
}

/// Procedure II moved: clients now sign inside Procedure I's fan-out and
/// the signature rides the upload through every fault, instead of the
/// event pump signing at each admission. Raw RSA draws no randomness, so
/// nothing observable may move — the run digest and the event trace of a
/// signed scenario under drop, duplicate and corrupt faults with backoff
/// retries equal the values recorded before the change, at any fan-out
/// width and under eager and lazy key provisioning (a budget of one
/// round's selection out of 30 clients, so stale and retried uploads
/// outlive their keys' cache residency).
#[test]
fn signed_faulty_rounds_replay_the_pre_change_goldens_at_any_fan_out_and_provisioning() {
    const RUN: &str = "09906e1ae30ef122328986e65455945c62b6d7a5ded0fa38e913fe56554b1673";
    const TRACE: &str = "3ee6f4f747f138e049dcfd59f1ae0dfc8b9851cc94247bc04f8526664a04ff01";

    let (train, test) = small_dataset();
    for provisioning in [
        ProvisioningMode::Eager,
        ProvisioningMode::Lazy { cache_budget: 12 },
    ] {
        for threads in [1usize, 2, 8] {
            let (trace, result) = fair_bfl::ml::par::with_thread_limit(threads, || {
                let mut run = signed_faulty_scenario(provisioning)
                    .start(&train, &test)
                    .unwrap();
                run.run_to_completion().unwrap();
                (run.event_trace().to_vec(), run.into_result())
            });
            for kind in [
                EventKind::UploadRejected,
                EventKind::UploadRetried,
                EventKind::DuplicateIgnored,
                EventKind::StaleIncluded,
            ] {
                assert!(
                    trace.iter().any(|e| e.kind == kind),
                    "the scenario exercises {kind:?}"
                );
            }
            // A corrupted delivery's retransmission is admitted later.
            assert!(trace.iter().any(|rejected| {
                rejected.kind == EventKind::UploadRejected
                    && trace.iter().any(|e| {
                        e.client_id == rejected.client_id
                            && e.born_round == rejected.born_round
                            && e.time_s > rejected.time_s
                            && matches!(e.kind, EventKind::UploadArrived | EventKind::StaleIncluded)
                    })
            }));
            let context = format!("{provisioning:?}, {threads} thread(s)");
            assert_eq!(run_digest(&result), RUN, "run digest, {context}");
            assert_eq!(trace_digest(&trace), TRACE, "event trace, {context}");
        }
    }
}

/// The trace agrees with the round record: for every round of an
/// event-engine run, each `KpiRow` counter equals the tally of the
/// `EventRecord` kinds it counts, and — none of these runs crashes a
/// miner, whose purge also records `UploadLost` — the uploads a block
/// carries are exactly the round's admissions, its stale ones exactly
/// the round's `StaleIncluded` records.
#[test]
fn kpi_counters_and_round_tallies_equal_the_trace() {
    use EventKind::*;
    let (train, test) = small_dataset();
    let stragglers = ProfileConfig {
        straggler_slowdown: 6.0,
        straggler_fraction: 0.25,
        uplink: DelayDistribution::Constant(0.05),
        ..ProfileConfig::default()
    };
    let materialized = BflConfig {
        fl: full_participation_fl(8, 4, 42),
        miners: 2,
        verify_signatures: false,
        sync: SyncMode::FlexibleQuota { quota: 5 },
        staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
        profiles: stragglers,
        ..BflConfig::default()
    };
    let streaming = BflConfig {
        aggregation: AggregationMode::Streaming { chunk: 2 },
        ..materialized
    };
    let partition = FaultPlan {
        partition: Some(Partition {
            start_s: 2.0,
            duration_s: 25.0,
            boundary: 2,
        }),
        ..FaultPlan::default()
    };
    // Quota 8 waits for the stragglers; a deadline at half the first
    // such round seals without them.
    let patient = BflConfig {
        sync: SyncMode::FlexibleQuota { quota: 8 },
        ..materialized
    };
    let patient_run = Scenario::from_config(patient).unwrap().run(&train, &test);
    let round1_s = patient_run.unwrap().outcomes[0].elapsed_s;
    let deadline = BflConfig {
        fault: FaultPlan {
            deadline_s: round1_s * 0.5,
            ..FaultPlan::default()
        },
        ..patient
    };
    // Each scenario, and a record kind it must produce.
    let cases = [
        (
            "materialized",
            Scenario::from_config(materialized).unwrap(),
            StaleIncluded,
        ),
        (
            "streaming",
            Scenario::from_config(streaming).unwrap(),
            StaleIncluded,
        ),
        (
            "signed-faulty",
            signed_faulty_scenario(ProvisioningMode::Eager),
            UploadRetried,
        ),
        (
            "partition-salvage",
            faulted_scenario(8, 3, partition, RetryPolicy::None, ReorgPolicy::Salvage),
            UploadStranded,
        ),
        (
            "deadline",
            Scenario::from_config(deadline).unwrap(),
            DeadlineSealed,
        ),
    ];
    for (label, scenario, exercised) in cases {
        let mut run = scenario.start(&train, &test).unwrap();
        run.run_to_completion().unwrap();
        let trace = run.event_trace().to_vec();
        let result = run.into_result();
        assert!(trace.iter().any(|e| e.kind == exercised), "{label}");
        for o in &result.outcomes {
            let count = |kinds: &[EventKind]| {
                trace
                    .iter()
                    .filter(|e| e.round == o.round && kinds.contains(&e.kind))
                    .count()
            };
            for (value, kinds) in [
                (o.kpi.stale_discarded, &[StaleDiscarded][..]),
                (o.kpi.dropped_uploads, &[UploadLost, UploadDropped]),
                (o.kpi.retried_uploads, &[UploadRetried]),
                (o.participants, &[UploadArrived, StaleIncluded]),
                (o.stale_included, &[StaleIncluded]),
                (o.kpi.stale_included, &[StaleIncluded]),
            ] {
                assert_eq!(value, count(kinds), "{label}, round {}, {kinds:?}", o.round);
            }
        }
    }
}
