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

use bfl_bench::CountingAllocator;
use bfl_core::{AggregationMode, BflConfig, FlexibilityMode, ProvisioningMode, Scenario, SyncMode};
use bfl_fl::config::PartitionKind;
use bfl_harness::runner::generate_dataset;
use bfl_harness::DatasetSpec;
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
/// [`PARTICIPANTS`], provisioned lazily under an O(participants) cache and
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
