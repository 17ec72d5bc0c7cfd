//! Procedure V's allocation contract, asserted in-process: sealing a
//! round asks the allocator for one block, whatever the reward list's
//! length. Transaction ids stream into SHA-256 and the Merkle tree folds
//! inside its leaf buffer, so the calls inside
//! [`RoundConsensus::seal_round`] do not depend on how many transactions
//! the block carries; the sealed block is shared between the replicas,
//! so an extra miner adds its own validation's leaf buffer and nothing
//! else. The counting allocator is installed as this binary's global
//! allocator.

use bfl_bench::CountingAllocator;
use bfl_chain::{Miner, PowConfig, RoundConsensus, Transaction};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// Every replica's block list is a `Vec` that starts at genesis and
/// doubles at 4, 8, 16… blocks: four warm-up rounds leave room for the
/// measured ones, so no bracket contains a regrowth.
const WARMUP_ROUNDS: u64 = 4;

/// The round's body as Procedure V builds it: the global gradient, then
/// one reward transaction per rewarded client.
fn body(round: u64, rewards: u64) -> Vec<Transaction> {
    let mut txs = vec![Transaction::global_gradient(0, round, vec![7u8; 62_800])];
    txs.extend((0..rewards).map(|client| Transaction::reward(0, round, client, 1_000 + client)));
    txs
}

/// Allocator calls inside `seal_round` for a 10-reward and then a
/// 1,000-reward block, on a warm group of `miners`.
fn seal_calls(miners: u64) -> [usize; 2] {
    let group = (0..miners).map(|id| Miner::new(id, 1000.0)).collect();
    let mut consensus = RoundConsensus::new(group, PowConfig::new(16));
    for replica in &mut consensus.replicas {
        replica.max_block_bytes = 1 << 20;
    }
    let mut rng = StdRng::seed_from_u64(21);
    for round in 1..=WARMUP_ROUNDS {
        consensus
            .seal_round(body(round, 10), round * 1000, &mut rng)
            .expect("warm-up round seals");
    }
    [10u64, 1_000].map(|rewards| {
        let round = consensus.canonical_chain().height() + 1;
        let txs = body(round, rewards);
        let start = ALLOC.snapshot();
        let sealed = consensus.seal_round(txs, round * 1000, &mut rng);
        let delta = ALLOC.delta_since(&start);
        let sealed = sealed.expect("measured round seals");
        assert_eq!(sealed.block.transactions.len() as u64, rewards + 1);
        assert_eq!(consensus.agreed_height(), Some(round));
        delta.allocations
    })
}

/// One test, one binary: the global allocator's counters are shared, so
/// nothing else may run concurrently with the bracketed regions.
#[test]
fn sealing_a_round_costs_one_block_whatever_the_reward_list() {
    let [few, many] = seal_calls(2);
    assert!(
        few.abs_diff(many) <= 2,
        "sealing 10 rewards made {few} allocator calls, sealing 1,000 made {many}: \
         a per-transaction allocation has crept back into Procedure V"
    );
    assert!(
        many <= 8,
        "sealing one block at two miners made {many} allocator calls"
    );

    let [_, many_at_six] = seal_calls(6);
    assert!(
        many_at_six <= many + 4 * 2,
        "four extra miners took sealing from {many} to {many_at_six} allocator calls: \
         more than two per miner (its own validation's leaf buffer, and one spare)"
    );
}
