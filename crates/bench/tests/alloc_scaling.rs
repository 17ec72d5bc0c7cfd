//! The memory contracts of a run, asserted in-process with the counting
//! allocator installed as this binary's global allocator.
//!
//! * **O(participants), not O(population):** running the same per-round
//!   working set against a population ten times larger must not move the
//!   heap high-water mark.
//! * **The rounds ladder — O(rounds × block), not O(rounds × miners ×
//!   block):** what a mining run retains grows by one sealed block a
//!   round however many miners hold a replica, because the replicas share
//!   the block.
//! * **No client is kept:** an implicit population derives each client
//!   where it is used, so what a run retains over its later rounds is the
//!   same under eager and lazy provisioning, and holds no block per client
//!   those rounds derived.

use bfl_bench::CountingAllocator;
use bfl_core::events::EventKind;
use bfl_core::{
    AggregationMode, BflConfig, FlexibilityMode, ProvisioningMode, Scenario, SimulationRun,
    SyncMode,
};
use bfl_fl::config::PartitionKind;
use bfl_harness::runner::generate_dataset;
use bfl_harness::DatasetSpec;
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// The allocator's counters are shared by the whole binary, so the tests
/// here take turns: nothing else may run beside a bracketed region.
static BRACKET: Mutex<()> = Mutex::new(());

/// Participants a round in every cell of the population ladder.
const PARTICIPANTS: usize = 64;

/// Peak heap of one cell of the population-scale ladder: an implicit
/// population of `population` clients from which the round samples
/// [`PARTICIPANTS`], each derived where it is used, provisioned lazily and
/// folded through streaming Procedure IV in 16-upload committees on the
/// event engine. The block quota sits at 80% of the participants so the
/// round seals without waiting for the slowest uplinks; signatures stay
/// off so the cell measures engine bookkeeping and training, not RSA.
fn peak_for(population: usize, data: &(bfl_data::Dataset, bfl_data::Dataset)) -> usize {
    let mut config = BflConfig::default();
    config.fl.clients = population;
    config.fl.participation_ratio = PARTICIPANTS as f64 / population as f64;
    config.fl.rounds = 1;
    config.fl.local.epochs = 1;
    config.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 8,
    };
    config.fl.seed = 0xBF1;
    config.verify_signatures = false;
    config.sync = SyncMode::FlexibleQuota {
        quota: PARTICIPANTS * 4 / 5,
    };
    config.provisioning = ProvisioningMode::Lazy {
        cache_budget: 2 * PARTICIPANTS,
    };
    config.aggregation = AggregationMode::Streaming { chunk: 16 };
    assert_eq!(config.fl.selected_per_round(), PARTICIPANTS);
    let scenario = Scenario::from_config(config).expect("cell is valid");
    ALLOC.reset_peak();
    let result = scenario.run(&data.0, &data.1).expect("cell completes");
    assert_eq!(result.outcomes.len(), 1);
    assert!(result.outcomes[0].participants > 0);
    ALLOC.peak_bytes()
}

#[test]
fn peak_heap_tracks_participants_not_population() {
    let _turn = BRACKET.lock().unwrap_or_else(PoisonError::into_inner);
    let data = generate_dataset(&DatasetSpec::default());
    // Warm-up run so one-time allocations (thread pools, caches) don't
    // land inside the first measured bracket.
    let _ = peak_for(50_000, &data);

    let small = peak_for(50_000, &data);
    let large = peak_for(500_000, &data);
    assert!(
        large as f64 <= small as f64 * 1.5,
        "population x10 moved the heap high-water: {small} -> {large} bytes \
         ({:.2}x; allocation proportional to population has crept back in)",
        large as f64 / small as f64
    );
}

/// Rounds per rung of the ladder.
const RUNG: usize = 8;

/// Heap a `FullBfl` run on `threads` workers retains over rounds
/// `RUNG + 1 ..= 2 * RUNG` while it is still alive (every replica
/// included), and the bytes of the blocks it sealed in them.
fn retained_over_second_rung(
    miners: usize,
    threads: usize,
    data: &(bfl_data::Dataset, bfl_data::Dataset),
) -> (usize, usize) {
    let mut config = BflConfig {
        mode: FlexibilityMode::FullBfl,
        miners,
        verify_signatures: false,
        ..BflConfig::default()
    };
    config.fl.clients = 16;
    config.fl.rounds = 2 * RUNG;
    config.fl.participation_ratio = 0.5;
    config.fl.partition = PartitionKind::Iid;
    config.fl.local.epochs = 1;
    config.fl.local.batch_size = 10;
    config.fl.seed = 21;
    let scenario = Scenario::from_config(config).expect("scenario is valid");
    bfl_ml::par::with_thread_limit(threads, || {
        let mut run = scenario.start(&data.0, &data.1).expect("run provisions");
        let mut live = [0usize; 2];
        for after_rung in &mut live {
            for _ in 0..RUNG {
                run.step().expect("round succeeds").expect("rounds remain");
            }
            *after_rung = ALLOC.current_bytes();
        }
        let retained = live[1] - live[0];

        let chain = run.chain().expect("FullBfl mines");
        assert_eq!(chain.height() as usize, 2 * RUNG);
        let sealed: usize = chain.iter().skip(1 + RUNG).map(|b| b.size_bytes()).sum();
        (retained, sealed)
    })
}

#[test]
fn retained_heap_grows_by_one_block_a_round_whatever_the_miner_count() {
    let _turn = BRACKET.lock().unwrap_or_else(PoisonError::into_inner);
    let data = generate_dataset(&DatasetSpec::default());
    // On one thread every fan-out runs inline; on two, chunks go to the
    // test thread's parked helper, which frees what it allocates before
    // each fan-out returns.
    for threads in [1, 2] {
        let (at_two, sealed) = retained_over_second_rung(2, threads, &data);
        let (at_six, sealed_at_six) = retained_over_second_rung(6, threads, &data);
        assert_eq!(
            sealed, sealed_at_six,
            "the miner count does not shape a block"
        );

        // A round's records and reward list ride along with its block;
        // they are a percent or two of the 63 KB gradient it carries.
        let ratio = at_two as f64 / sealed as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "{RUNG} more rounds at two miners and {threads} threads retained {at_two} bytes \
             for {sealed} bytes of sealed blocks ({ratio:.2}x; a per-replica copy of the \
             block has crept back in)"
        );
        let spread = at_six as f64 / at_two as f64;
        assert!(
            (0.9..=1.1).contains(&spread),
            "{RUNG} more rounds at {threads} threads retained {at_two} bytes at two miners \
             and {at_six} at six ({spread:.2}x; chain memory is growing with the miner \
             count again)"
        );
    }
}

/// Rounds in each half of the provisioning comparison.
const HALF: usize = 6;

/// Every client `run` has commissioned a local pass for so far.
fn commissioned(run: &SimulationRun<'_>) -> BTreeSet<u64> {
    run.event_trace()
        .iter()
        .filter(|record| record.kind == EventKind::TrainingScheduled)
        .map(|record| record.client_id)
        .collect()
}

/// What an unsigned `FlOnly` flexible-quota run over a million implicit
/// clients retains under `provisioning` over rounds `HALF + 1 ..= 2 *
/// HALF` while it is still alive — net live bytes and net live blocks —
/// and how many clients those rounds commissioned that no earlier round
/// had.
fn retained_over_second_half(
    provisioning: ProvisioningMode,
    data: &(bfl_data::Dataset, bfl_data::Dataset),
) -> (isize, isize, usize) {
    let population = 1_000_000;
    let mut config = BflConfig {
        mode: FlexibilityMode::FlOnly,
        verify_signatures: false,
        provisioning,
        ..BflConfig::default()
    };
    config.fl.clients = population;
    config.fl.participation_ratio = PARTICIPANTS as f64 / population as f64;
    config.fl.rounds = 2 * HALF;
    config.fl.local.epochs = 1;
    config.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 8,
    };
    config.fl.seed = 0xBF1;
    config.sync = SyncMode::FlexibleQuota {
        quota: PARTICIPANTS * 4 / 5,
    };
    assert_eq!(config.fl.selected_per_round(), PARTICIPANTS);
    let scenario = Scenario::from_config(config).expect("scenario is valid");
    bfl_ml::par::with_thread_limit(1, || {
        let mut run = scenario.start(&data.0, &data.1).expect("run provisions");
        for _ in 0..HALF {
            run.step().expect("round succeeds").expect("rounds remain");
        }
        let earlier = commissioned(&run);
        let start = ALLOC.snapshot();
        for _ in 0..HALF {
            run.step().expect("round succeeds").expect("rounds remain");
        }
        let retained = ALLOC.delta_since(&start);
        let fresh = commissioned(&run).difference(&earlier).count();
        (retained.net_bytes, retained.net_blocks, fresh)
    })
}

#[test]
fn an_implicit_run_keeps_no_client_under_either_provisioning_mode() {
    let _turn = BRACKET.lock().unwrap_or_else(PoisonError::into_inner);
    let data = generate_dataset(&DatasetSpec::default());
    let (eager_bytes, eager_blocks, fresh) =
        retained_over_second_half(ProvisioningMode::Eager, &data);
    let lazy = ProvisioningMode::Lazy {
        cache_budget: 2 * PARTICIPANTS,
    };
    let (lazy_bytes, lazy_blocks, lazy_fresh) = retained_over_second_half(lazy, &data);
    assert_eq!(
        fresh, lazy_fresh,
        "provisioning does not move the selection"
    );
    let window = format!("rounds {}..={}", HALF + 1, 2 * HALF);
    assert!(
        fresh >= HALF * PARTICIPANTS / 2,
        "{window} derived only {fresh} new clients"
    );

    // Unsigned, the two modes differ in nothing the engine keeps: within a
    // kilobyte, where keeping the clients the window derived would cost at
    // least `fresh` shards.
    assert!(
        eager_bytes.abs_diff(lazy_bytes) <= 1024,
        "over {window} eager provisioning retained {eager_bytes} bytes and lazy \
         {lazy_bytes}, with {fresh} clients derived for the first time (one mode keeps \
         the clients it derives)"
    );
    // What a run keeps per client it has seen — a reward total, a delivery
    // mark, trace records — lives in shared maps and vectors; a kept client
    // is at least a block of its own, its shard.
    for (mode, blocks) in [("eager", eager_blocks), ("lazy", lazy_blocks)] {
        assert!(
            blocks < fresh as isize,
            "{mode} provisioning retained {blocks} heap blocks over {window}, which \
             derived {fresh} new clients (a block per derived client: clients are kept)"
        );
    }
}
