//! The PR 10 allocation contract, asserted in-process: once the flexible
//! event engine's round loop is warm, a round allocates nothing it does
//! not free again except the reward list its outcome retains — net heap
//! growth of exactly that list's one block per round, in bytes **and**
//! blocks. Transient churn (gradient buffers, RSA preimages, queue events)
//! is allowed; what is not allowed is per-round growth creeping back into
//! the steady state (fresh pump buffers, per-ticket scratch spaces,
//! one-element association Vecs — the hot spots PR 10 moved into
//! [`AsyncRuntime`]'s reusable state).
//!
//! The *intentional* per-round growth is that reward list, the
//! deterministic event trace and the accumulated round records; the last
//! two grow by amortized doubling, and the warm-up below runs long enough
//! that the measured window sits inside their spare capacity. The reward
//! ledger grows only when a client is first paid; the warm-up pays every
//! client, and the bracket checks that the ledger gains no key.
//!
//! The run is made twice: on one thread, where every `bfl_ml::par`
//! fan-out takes its inline branch, and on two, where the fan-outs hand
//! chunks to the test thread's parked helper. Helpers outlive every
//! fan-out and finish their chunk before it returns, so whatever a
//! helper allocates in a round it frees in that round, and the bracket
//! holds for both.

use bfl_bench::CountingAllocator;
use bfl_core::{BflConfig, FlexibilityMode, RewardEntry, Scenario, SyncMode};
use bfl_fl::config::PartitionKind;
use bfl_harness::runner::generate_dataset;
use bfl_harness::DatasetSpec;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A small flexible-quota FL-only run: 16 clients, half commissioned per
/// round, signatures on (the signing/verify path is part of the loop
/// under test), no mining (a sealed block's hash string and transaction
/// list are retained per round, which is growth by design).
fn steady_scenario() -> Scenario {
    let mut config = BflConfig {
        mode: FlexibilityMode::FlOnly,
        miners: 2,
        sync: SyncMode::FlexibleQuota { quota: 8 },
        ..BflConfig::default()
    };
    config.fl.clients = 16;
    config.fl.rounds = WARMUP_ROUNDS + MEASURED_ROUNDS;
    config.fl.participation_ratio = 0.5;
    config.fl.partition = PartitionKind::Iid;
    config.fl.local.epochs = 1;
    config.fl.local.batch_size = 10;
    config.fl.seed = 11;
    Scenario::from_config(config).expect("scenario is valid")
}

// 48 warm-up rounds put the event trace just past its 1024-record
// capacity doubling (~25 records/round in this scenario), so the measured
// window sits well inside the doubled spare capacity.
const WARMUP_ROUNDS: usize = 48;
const MEASURED_ROUNDS: usize = 8;

/// One test, one binary: the global allocator's counters are shared, so
/// nothing else may run concurrently with the bracketed regions.
#[test]
fn flexible_round_loop_is_allocation_free_at_steady_state() {
    for threads in [1, 2] {
        bfl_ml::par::with_thread_limit(threads, || warm_up_then_measure(threads));
    }
}

fn warm_up_then_measure(threads: usize) {
    let (train, test) = generate_dataset(&DatasetSpec::default());
    let mut run = steady_scenario()
        .start(&train, &test)
        .expect("run provisions");

    // Warm-up: crosses the accumulating vectors' capacity boundaries,
    // fills the runtime's reusable buffers to their high-water sizes, and
    // touches every client's cached RSA identity.
    for _ in 0..WARMUP_ROUNDS {
        let outcome = run.step().expect("round succeeds").expect("rounds remain");
        assert!(outcome.participants > 0);
    }

    // Steady state: every measured round must leave the heap exactly
    // where it found it but for the reward list its outcome retains —
    // one block of `capacity × size_of::<RewardEntry>()` bytes when the
    // list is non-empty (an empty `Vec` never touches the heap): the
    // outcome `step` lends is the record the run keeps, inside capacity
    // the warm-up already grew.
    let payees = run.reward_totals().len();
    assert_eq!(
        payees,
        run.config().fl.clients,
        "the warm-up pays every client"
    );
    let mut paying_rounds = 0;
    for measured in 0..MEASURED_ROUNDS {
        let before = ALLOC.snapshot();
        let outcome = run.step().expect("round succeeds").expect("rounds remain");
        assert!(outcome.participants > 0);
        let delta = ALLOC.delta_since(&before);
        let list = outcome.rewards.capacity() * std::mem::size_of::<RewardEntry>();
        let expected = (list as isize, isize::from(list > 0));
        paying_rounds += usize::from(list > 0);
        assert_eq!(run.reward_totals().len(), payees, "the ledger gained a key");
        assert!(
            (delta.net_bytes, delta.net_blocks) == expected,
            "steady-state round {} at {threads} threads grew the heap: {} net bytes, \
             {} net blocks across {} allocation events, where the retained reward list \
             is {} bytes in {} blocks (per-round allocation has crept back into the \
             flexible engine)",
            WARMUP_ROUNDS + measured + 1,
            delta.net_bytes,
            delta.net_blocks,
            delta.allocations,
            expected.0,
            expected.1,
        );
    }
    assert!(paying_rounds > 0, "no measured round paid a reward");
}
