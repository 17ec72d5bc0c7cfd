//! Procedure-V: block mining and consensus (paper Section 4.5).
//!
//! The winning miner packs the round's global gradient (Assumption 2: the
//! block's *only* gradient payload) together with the reward list into a
//! new block, solves the PoW puzzle, and broadcasts; every miner verifies
//! and appends, so all replicas stay identical and no forks occur.
//!
//! A round seals one block and costs one block: the transaction list is
//! sized once, ids and the Merkle root are hashed without a buffer per
//! transaction, and the replicas append handles to the winner's block —
//! each after its own full validation — instead of copies of it.

use crate::error::CoreError;
use crate::reward::{reward_transactions, RewardEntry};
use bfl_chain::consensus::{ConsensusOutcome, RoundConsensus};
use bfl_chain::Transaction;
use bfl_ml::gradient;
use rand::Rng;

/// Builds the round's transaction list: the single global-gradient
/// transaction plus one reward transaction per rewarded client. The list
/// is the same whichever miner wins: `miner_id`, the submitter it records,
/// is bookkeeping (the block header records the winner).
fn build_block_transactions(
    miner_id: u64,
    round: u64,
    global_params: &[f64],
    rewards: &[RewardEntry],
) -> Vec<Transaction> {
    let mut transactions = Vec::with_capacity(1 + rewards.len());
    transactions.push(Transaction::global_gradient(
        miner_id,
        round,
        gradient::to_bytes(global_params),
    ));
    transactions.extend(reward_transactions(rewards, miner_id, round));
    transactions
}

/// Runs Procedure-V: seals one block carrying the global gradient and the
/// reward list through the synchronized consensus group.
pub fn mine_round<R: Rng + ?Sized>(
    consensus: &mut RoundConsensus,
    round: u64,
    global_params: &[f64],
    rewards: &[RewardEntry],
    timestamp_ms: u64,
    rng: &mut R,
) -> Result<ConsensusOutcome, CoreError> {
    let submitter = consensus.miners[0].id;
    let transactions = build_block_transactions(submitter, round, global_params, rewards);
    consensus
        .seal_round(transactions, timestamp_ms, rng)
        .map_err(CoreError::from)
}

/// Procedure-V for one mesh component: seals the component's block among
/// `members` only (see [`RoundConsensus::seal_round_among`]); the rest of
/// the mesh keeps its own tip until the fork heals. The event engine's
/// only sealing call: a fault-free round's members are every miner, which
/// draws exactly as [`mine_round`].
pub fn mine_round_among<R: Rng + ?Sized>(
    consensus: &mut RoundConsensus,
    members: &[usize],
    round: u64,
    global_params: &[f64],
    rewards: &[RewardEntry],
    timestamp_ms: u64,
    rng: &mut R,
) -> Result<ConsensusOutcome, CoreError> {
    let submitter = consensus.miners[members[0]].id;
    let transactions = build_block_transactions(submitter, round, global_params, rewards);
    consensus
        .seal_round_among(members, transactions, timestamp_ms, rng)
        .map_err(CoreError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::build_reward_list;
    use bfl_chain::miner::Miner;
    use bfl_chain::pow::PowConfig;
    use bfl_chain::TransactionKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn consensus(m: usize) -> RoundConsensus {
        let miners = (0..m as u64).map(|id| Miner::new(id, 1000.0)).collect();
        RoundConsensus::new(miners, PowConfig::new(8))
    }

    #[test]
    fn transactions_contain_global_gradient_and_rewards() {
        let rewards = build_reward_list(&[(1, 0.4), (2, 0.6)], 100.0);
        let txs = build_block_transactions(0, 7, &[1.0, 2.0, 3.0], &rewards);
        assert_eq!(txs.len(), 3);
        assert!(matches!(
            txs[0].kind,
            TransactionKind::GlobalGradient { .. }
        ));
        assert_eq!(txs[0].round(), 7);
        assert!(matches!(txs[1].kind, TransactionKind::Reward { .. }));
    }

    #[test]
    fn mined_block_records_the_global_gradient_readably() {
        let mut group = consensus(2);
        let mut rng = StdRng::seed_from_u64(1);
        let params = vec![0.5, -1.5, 2.25];
        let rewards = build_reward_list(&[(3, 1.0)], 10.0);
        let outcome = mine_round(&mut group, 1, &params, &rewards, 1000, &mut rng).unwrap();
        assert_eq!(outcome.height, 1);

        let chain = group.canonical_chain();
        let (round, payload) = chain.latest_global_gradient().unwrap();
        assert_eq!(round, 1);
        assert_eq!(gradient::from_bytes(&payload).unwrap(), params);
        // Rewards are on chain too.
        assert_eq!(chain.reward_totals()[&3], 10_000);
    }

    #[test]
    fn repeated_rounds_never_fork_and_never_produce_empty_blocks() {
        let mut group = consensus(3);
        let mut rng = StdRng::seed_from_u64(2);
        for round in 1..=5u64 {
            let params = vec![round as f64; 4];
            mine_round(&mut group, round, &params, &[], round * 500, &mut rng).unwrap();
            assert_eq!(group.agreed_height(), Some(round));
        }
        assert_eq!(group.canonical_chain().empty_block_count(), 0);
        group.canonical_chain().validate_all().unwrap();
    }
}
