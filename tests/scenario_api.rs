//! Integration tests for the Scenario API: `from_config`'s typed
//! validation, the stepwise engine's equivalence with the one-shot
//! run, step-driven early stopping, the proportional reward ledger, and the
//! parallel sweep runner — all exercised through the facade crate.

mod common;

use common::{run_grid, small_config, small_dataset};
use fair_bfl::core::{
    AggregationAnchor, BflConfig, CoreError, FlexibilityMode, Scenario, SimulationResult,
};
use fair_bfl::fl::config::FlConfig;

/// Asserts two results are bit-identical in every artifact the paper's
/// experiments read: per-round outcomes, detection table, reward totals,
/// final parameters, and the sealed chain.
fn assert_bit_identical(a: &SimulationResult, b: &SimulationResult) {
    assert_eq!(a.outcomes, b.outcomes);
    assert_eq!(a.detection, b.detection);
    assert_eq!(a.reward_totals, b.reward_totals);
    assert_eq!(a.final_params, b.final_params);
    let hashes = |r: &SimulationResult| {
        r.chain
            .as_ref()
            .map(|c| c.iter().map(|block| block.hash_hex()).collect::<Vec<_>>())
    };
    assert_eq!(hashes(a), hashes(b));
}

/// ("Both engine modes" in the name dates from the process-wide
/// reference-arithmetic switch; one mode remains, and the name stays so
/// the test keeps its id.)
#[test]
fn step_driven_run_is_bit_identical_to_one_shot_run_in_both_engine_modes() {
    let (train, test) = small_dataset();
    let config = small_config(3);
    let scenario = Scenario::from_config(config).unwrap();

    // The one-shot driver...
    let one_shot = scenario.run(&train, &test).unwrap();
    // ...and an explicitly step()-driven run of the same scenario.
    let mut run = scenario.start(&train, &test).unwrap();
    let mut rounds = 0;
    while let Some(outcome) = run.step().unwrap() {
        rounds += 1;
        assert_eq!(outcome.round, rounds);
        assert_eq!(run.outcomes().len(), rounds);
    }
    let stepped = run.into_result();

    assert_eq!(rounds, config.fl.rounds);
    assert_bit_identical(&one_shot, &stepped);
}

// (The two `observers_*` names date from the observer seam these tests
// used to go through; a caller now steps the run itself, and the names
// stay so the tests keep their ids.)

/// A step-driven run that stops early keeps the completed prefix of the
/// full run bit for bit, and its chain has the prefix's height.
#[test]
fn observers_stream_rounds_and_can_stop_early() {
    let (train, test) = small_dataset();
    let scenario = Scenario::from_config(small_config(5)).unwrap();
    let full = scenario.run(&train, &test).unwrap();

    let mut run = scenario.start(&train, &test).unwrap();
    let mut seen = Vec::new();
    while let Some(outcome) = run.step().unwrap() {
        let round = outcome.round;
        seen.push(round);
        assert_eq!(
            run.chain().map(|c| c.tip().hash_hex()),
            run.outcomes()[round - 1].block_hash,
            "the outcome references the block the round sealed"
        );
        assert_eq!(
            run.detection().rows.len(),
            round,
            "learning modes run Algorithm 2"
        );
        if round == 2 {
            break;
        }
    }
    let stopped = run.into_result();
    assert_eq!(seen, vec![1, 2]);
    assert_eq!(stopped.outcomes.len(), 2);
    assert_eq!(stopped.chain.as_ref().unwrap().height(), 2);
    // The completed prefix matches the full run exactly, block hashes
    // included.
    assert_eq!(stopped.outcomes, full.outcomes[..2]);
    assert_eq!(stopped.detection.rows, full.detection.rows[..2]);
}

/// What a caller reads between steps — the round's outcome (KPI row and
/// clock included), its detection row and the cumulative reward ledger —
/// is what the result keeps.
#[test]
fn observers_see_the_records_the_result_keeps() {
    let (train, test) = small_dataset();
    let scenario = Scenario::from_config(small_config(3)).unwrap();
    let mut run = scenario.start(&train, &test).unwrap();
    let mut streamed = Vec::new();
    while let Some(outcome) = run.step().unwrap() {
        let outcome = outcome.clone();
        let paid: u64 = run.reward_totals().values().sum();
        streamed.push((outcome, run.detection().rows.last().cloned(), paid));
    }
    let result = run.into_result();

    assert_eq!(streamed.len(), 3);
    let mut paid_so_far = 0;
    for (i, (outcome, detection, paid)) in streamed.iter().enumerate() {
        assert_eq!(*outcome, result.outcomes[i]);
        assert_eq!(outcome.kpi.makespan_s, outcome.breakdown.total());
        assert_eq!(detection.as_ref(), Some(&result.detection.rows[i]));
        paid_so_far += outcome.rewards_paid_milli;
        assert_eq!(*paid, paid_so_far, "the ledger is cumulative");
    }
    assert_eq!(result.reward_totals.values().sum::<u64>(), paid_so_far);
    assert!(streamed
        .windows(2)
        .all(|w| w[1].0.elapsed_s > w[0].0.elapsed_s));
}

#[test]
fn proportional_rewards_reach_the_ledger() {
    let (train, test) = small_dataset();
    let config = small_config(3);
    let base_milli = config.reward_base * 1000.0;
    let result = Scenario::from_config(config)
        .unwrap()
        .run(&train, &test)
        .unwrap();
    // The payouts are what the blocks actually record.
    let chain = result.chain.as_ref().unwrap();
    assert_eq!(chain.reward_totals(), result.reward_totals);
    assert!(result.outcomes.iter().any(|o| !o.rewards.is_empty()));
    for outcome in &result.outcomes {
        let paid: u64 = outcome.rewards.iter().map(|r| r.amount_milli).sum();
        assert_eq!(outcome.rewards_paid_milli, paid);
        // Each entry rounds its share of the pool once.
        let n = outcome.rewards.len();
        if n > 0 {
            assert!(
                (paid as f64 - base_milli).abs() <= n as f64,
                "{paid} vs {base_milli}"
            );
        }
    }
}

#[test]
fn sweep_runner_is_order_stable_and_thread_invariant_through_the_facade() {
    let (train, test) = small_dataset();
    let base = small_config(2);
    let grid: Vec<Scenario> = [
        AggregationAnchor::Mean,
        AggregationAnchor::Median,
        AggregationAnchor::TrimmedMean { trim_ratio: 0.2 },
    ]
    .into_iter()
    .map(|anchor| {
        let mut config = base;
        config.anchor = anchor;
        config.verify_signatures = false;
        Scenario::from_config(config).unwrap()
    })
    .collect();

    let serial = run_grid(&grid, 1, &train, &test);
    assert_eq!(serial.len(), 3);
    for workers in [2, 8] {
        let parallel = run_grid(&grid, workers, &train, &test);
        assert_eq!(parallel.len(), serial.len());
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_bit_identical(a, b);
        }
    }
    // Each cell equals its standalone run (seed isolation, grid order).
    for (scenario, cell) in grid.iter().zip(serial.iter()) {
        let standalone = scenario.run(&train, &test).unwrap();
        assert_bit_identical(&standalone, cell);
    }
}

#[test]
fn chain_only_scenarios_step_too() {
    let (train, test) = small_dataset();
    let scenario = Scenario::from_config(BflConfig {
        fl: FlConfig {
            clients: 10,
            rounds: 2,
            ..FlConfig::default()
        },
        mode: FlexibilityMode::ChainOnly,
        ..BflConfig::default()
    })
    .unwrap();
    let mut run = scenario.start(&train, &test).unwrap();
    let mut blocks = 0;
    while let Some(outcome) = run.step().unwrap() {
        assert!(outcome.block_hash.is_some(), "chain-only seals blocks");
        blocks += 1;
    }
    assert_eq!(blocks, 2);
    let result = run.into_result();
    assert_eq!(result.final_accuracy(), None);
    assert!(result.final_params.is_empty());
    result.chain.as_ref().unwrap().validate_all().unwrap();
}

#[test]
fn invalid_scenarios_surface_typed_errors_through_the_facade() {
    let err = Scenario::from_config(BflConfig {
        fl: FlConfig {
            rounds: 0,
            ..FlConfig::default()
        },
        ..BflConfig::default()
    })
    .unwrap_err();
    assert!(matches!(err, CoreError::InvalidConfig(_)));
    let err = Scenario::from_config(BflConfig {
        attack: fair_bfl::core::AttackConfig {
            enabled: true,
            min_attackers: 5,
            max_attackers: 2,
            kind: fair_bfl::fl::attack::AttackKind::SignFlip,
        },
        ..BflConfig::default()
    })
    .unwrap_err();
    assert!(err.to_string().contains("attacker range inverted"));
}

/// The configurations behind the manifests that used to panic inside a
/// partitioner or the local pass: the ones `Scenario::from_config` can
/// judge stop there; fewer training samples than clients, or a model the
/// data cannot feed, stop at `Scenario::start`, the first place that
/// sees the data. Each names the numbers involved.
#[test]
fn hostile_partitions_fail_with_a_diagnostic_instead_of_a_panic() {
    use fair_bfl::cluster::ClusteringAlgorithm;
    use fair_bfl::fl::config::PartitionKind;
    use fair_bfl::ml::ModelKind;
    let (train, test) = small_dataset();
    let mut config = small_config(1);

    config.fl.partition = PartitionKind::ShardNonIid {
        shards_per_client: 0,
    };
    let err = Scenario::from_config(config).unwrap_err();
    assert!(matches!(err, CoreError::InvalidConfig(_)));
    assert!(err.to_string().contains("shards_per_client >= 1, got 0"));

    for alpha in [0.0, -3.0, f64::NAN] {
        config.fl.partition = PartitionKind::Dirichlet { alpha };
        let err = Scenario::from_config(config).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        assert!(err
            .to_string()
            .contains(&format!("alpha must be finite and positive, got {alpha}")));
    }

    config.fl.partition = PartitionKind::Iid;
    for (features, classes, needle) in [
        (
            100,
            10,
            "the model reads 100 features but the training samples have 784",
        ),
        (
            784,
            5,
            "the model scores 5 classes but the training labels take 10",
        ),
    ] {
        config.fl.model = ModelKind::SoftmaxRegression { features, classes };
        let scenario = Scenario::from_config(config).expect("valid until it meets the data");
        let err = scenario.start(&train, &test).err().expect("unfed");
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        assert!(err.to_string().contains(needle), "{err}");
    }
    config.fl.model = ModelKind::SoftmaxRegression {
        features: 0,
        classes: 1,
    };
    let err = Scenario::from_config(config).unwrap_err();
    assert!(matches!(err, CoreError::InvalidConfig(_)));
    assert!(
        err.to_string()
            .contains("at least 1 feature and 2 classes, got 0 features and 1 classes"),
        "{err}"
    );
    config.fl.model = ModelKind::default_mnist();

    // A delay model the engines cannot run, a nonce search that is not
    // the serial one, clustering parameters the algorithms assert on, a
    // reward pool the milli-unit ledger cannot hold, a shard count that
    // overflows and a chain-only transaction no block can hold fail
    // validation instead of panicking mid-run.
    type Edit = fn(&mut BflConfig);
    let rows: [(Edit, &str); 12] = [
        (
            |c| c.delay.miner_hash_rate = 0.0,
            "delay.miner_hash_rate must be finite and positive, got 0",
        ),
        (
            |c| c.delay.uplink.bandwidth_bytes_per_s = 0.0,
            "delay.uplink.bandwidth_bytes_per_s must be finite and positive, got 0",
        ),
        (
            |c| {
                c.delay.uplink.latency =
                    fair_bfl::net::DelayDistribution::Uniform { min: 0.4, max: 0.1 }
            },
            "delay.uplink.latency: uniform delay bounds are inverted",
        ),
        (
            |c| c.delay.local_step_seconds = -1.0,
            "delay.local_step_seconds must be finite and non-negative, got -1",
        ),
        (|c| c.mining_threads = 0, "mining_threads must be 1"),
        (
            |c| {
                c.clustering = ClusteringAlgorithm::KMeans {
                    k: 0,
                    max_iterations: 5,
                }
            },
            "k-means k must be at least 1, got 0",
        ),
        (
            |c| {
                c.clustering = ClusteringAlgorithm::Agglomerative {
                    distance_threshold: -0.1,
                }
            },
            "agglomerative distance_threshold must be non-negative, got -0.1",
        ),
        (
            |c| {
                c.clustering = ClusteringAlgorithm::Dbscan {
                    eps: -1.0,
                    min_points: 2,
                }
            },
            "DBSCAN eps must be positive, got -1",
        ),
        (
            |c| {
                c.clustering = ClusteringAlgorithm::Dbscan {
                    eps: 0.3,
                    min_points: 0,
                }
            },
            "DBSCAN min_points must be at least 1, got 0",
        ),
        (
            |c| c.reward_base = 1e17,
            "reward_base 100000000000000000 pays",
        ),
        (
            |c| {
                c.fl.partition = PartitionKind::ShardNonIid {
                    shards_per_client: usize::MAX,
                }
            },
            "clients × shards_per_client to fit in usize",
        ),
        (
            |c| {
                c.mode = FlexibilityMode::ChainOnly;
                c.delay.baseline_tx_bytes = usize::MAX;
            },
            "delay.baseline_tx_bytes must fit in a block",
        ),
    ];
    for (edit, needle) in rows {
        let mut hostile = config;
        edit(&mut hostile);
        let err = Scenario::from_config(hostile).unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        assert!(err.to_string().contains(needle), "{err}");
    }

    config.fl.clients = train.len() + 1;
    let scenario = Scenario::from_config(config).expect("valid until it meets the data");
    let err = scenario.start(&train, &test).err().expect("starved");
    assert!(matches!(err, CoreError::InvalidConfig(_)));
    assert!(
        err.to_string()
            .contains("250 training samples cannot be partitioned over 251 clients"),
        "{err}"
    );
    // The same population trains nobody in chain-only mode, and starts.
    config.mode = FlexibilityMode::ChainOnly;
    assert!(Scenario::from_config(config)
        .unwrap()
        .start(&train, &test)
        .is_ok());

    // A block limit near `usize::MAX` lets through a transaction size no
    // allocator can serve (past `isize::MAX`, or past the address space):
    // the run fails naming it instead of aborting the process.
    for (max_block_bytes, baseline_tx_bytes) in [
        (usize::MAX, 18_446_744_073_709_551_000),
        (4_611_686_018_427_387_904, 4_611_686_018_427_387_904),
    ] {
        let mut chain = small_config(1);
        chain.fl.clients = 4;
        chain.mode = FlexibilityMode::ChainOnly;
        chain.delay.max_block_bytes = max_block_bytes;
        chain.delay.baseline_tx_bytes = baseline_tx_bytes;
        let scenario = Scenario::from_config(chain).expect("the transaction fits the block");
        let err = scenario
            .start(&train, &test)
            .unwrap()
            .run_to_completion()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
        let needle = format!("delay.baseline_tx_bytes = {baseline_tx_bytes} cannot be allocated");
        assert!(err.to_string().contains(&needle), "{err}");
    }
}

/// Delays each finite on its own but whose sums leave `f64`'s range end
/// the run with an error naming the round, in the lockstep, event and
/// chain-only engines alike, instead of panicking in the clock or the
/// event queue.
#[test]
fn simulated_time_past_the_finite_range_ends_the_run_with_an_error() {
    use fair_bfl::core::SyncMode;
    let (train, test) = small_dataset();
    let mut configs = [2, 3, 3, 2].map(small_config);
    configs[0].delay.local_step_seconds = 1e308;
    configs[1].profiles.uplink = fair_bfl::net::DelayDistribution::Constant(1e308);
    configs[2].profiles.straggler_slowdown = 1e308;
    configs[2].profiles.straggler_fraction = 1.0;
    for config in &mut configs[1..3] {
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
    }
    configs[3].mode = FlexibilityMode::ChainOnly;
    configs[3].delay.baseline_tx_process_s = 1e308;
    for config in configs {
        let scenario = Scenario::from_config(config).expect("every delay is finite");
        let mut run = scenario.start(&train, &test).unwrap();
        let err = run.run_to_completion().unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)), "{err}");
        let needle = "simulated time reached inf s, past the finite range";
        assert!(err.to_string().contains(needle), "{err}");
        assert!(err.to_string().contains("round "), "{err}");
        assert!(run.step().unwrap().is_none(), "the run ended");
    }
}
