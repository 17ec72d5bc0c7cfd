//! Round-synchronized consensus.
//!
//! Under FAIR-BFL's Assumptions 1 and 2 every communication round produces
//! exactly one block: all miners hold the same gradient set, the winner of
//! the mining competition packs the (identical) global gradient and reward
//! list, broadcasts, and everyone else stops and appends. There is no fork
//! to resolve because there is nothing for a second winner to add. The
//! [`RoundConsensus`] type drives that flow over a set of per-miner chain
//! replicas and checks the invariant that all replicas stay identical.
//!
//! A round seals *one* block: the winner's block is handed to every
//! member replica as a shared handle, and each replica runs the complete
//! [`Blockchain::validate_candidate`] on it — link, Merkle recomputation,
//! size limit, proof of work — before appending. Sharing changes what a
//! round stores (one block, not one per miner), never what a miner checks.

use crate::block::Block;
use crate::chain::Blockchain;
use crate::error::ChainError;
use crate::miner::{sample_competition, Miner, MiningOutcome};
use crate::pow::PowConfig;
use crate::transaction::Transaction;
use rand::Rng;
use std::sync::Arc;

/// The result of sealing one communication round.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsensusOutcome {
    /// Outcome of the mining competition (winner and timing).
    pub mining: MiningOutcome,
    /// The block every member replica appended (the one shared copy).
    pub block: Arc<Block>,
    /// Height the replicas agree on after the round.
    pub height: u64,
}

/// Synchronized-round consensus over a set of miner chain replicas.
#[derive(Debug, Clone)]
pub struct RoundConsensus {
    /// One chain replica per miner, indexed in lock-step with `miners`.
    pub replicas: Vec<Blockchain>,
    /// The participating miners.
    pub miners: Vec<Miner>,
    /// Proof-of-work configuration shared by all miners.
    pub pow: PowConfig,
}

impl RoundConsensus {
    /// Creates a consensus group of `miners`, each starting from genesis.
    pub fn new(miners: Vec<Miner>, pow: PowConfig) -> Self {
        assert!(!miners.is_empty(), "consensus needs at least one miner");
        let replicas = miners.iter().map(|_| Blockchain::new()).collect();
        RoundConsensus {
            replicas,
            miners,
            pow,
        }
    }

    /// Number of participating miners.
    pub fn miner_count(&self) -> usize {
        self.miners.len()
    }

    /// The common chain height, if all replicas agree; `None` otherwise.
    pub fn agreed_height(&self) -> Option<u64> {
        let first = self.replicas.first()?.height();
        self.replicas
            .iter()
            .all(|c| c.height() == first && c.tip().hash() == self.replicas[0].tip().hash())
            .then_some(first)
    }

    /// Seals one communication round: samples the mining competition, has
    /// the winner build and mine the block carrying `transactions`, then
    /// broadcasts it to every replica.
    ///
    /// `timestamp_ms` is the simulated time at which the block is produced.
    pub fn seal_round<R: Rng + ?Sized>(
        &mut self,
        transactions: Vec<Transaction>,
        timestamp_ms: u64,
        rng: &mut R,
    ) -> Result<ConsensusOutcome, ChainError> {
        let members: Vec<usize> = (0..self.miners.len()).collect();
        let outcome = self.seal_round_among(&members, transactions, timestamp_ms, rng)?;
        self.agreed_height().expect("replicas remain in agreement");
        Ok(outcome)
    }

    /// Seals one round among a *subset* of the miners — a mesh component
    /// during a partition, or the survivors of a miner crash. The
    /// competition runs over the member miners only, the block extends the
    /// first member's replica, and only member replicas append it; the
    /// rest of the mesh is unreachable and keeps its own tip.
    ///
    /// With every miner a member this is exactly [`seal_round`], drawing
    /// identically from `rng`.
    ///
    /// [`seal_round`]: RoundConsensus::seal_round
    pub fn seal_round_among<R: Rng + ?Sized>(
        &mut self,
        members: &[usize],
        transactions: Vec<Transaction>,
        timestamp_ms: u64,
        rng: &mut R,
    ) -> Result<ConsensusOutcome, ChainError> {
        assert!(!members.is_empty(), "a component needs at least one miner");
        let member_miners: Vec<Miner> = members.iter().map(|&i| self.miners[i].clone()).collect();
        let mining = sample_competition(&member_miners, &self.pow, rng);

        // The winner assembles and actually mines the block (bounded search
        // with a generous budget; difficulty in simulations is modest).
        let winner = member_miners
            .iter()
            .find(|m| m.id == mining.winner)
            .expect("winner is one of the members");
        let mut candidate = Block::candidate(
            self.replicas[members[0]].tip(),
            transactions,
            timestamp_ms,
            self.pow.difficulty,
            winner.id,
        );
        // The search budget is proportional to the difficulty so the round
        // always terminates; 64x the expectation makes failure probability
        // negligible (e^-64).
        let budget = (self.pow.difficulty.saturating_mul(64)).max(1024);
        winner
            .mine_block(&mut candidate, &self.pow, budget)
            .ok_or(ChainError::InsufficientWork)?;

        // Broadcast within the component: every member replica validates
        // the block for itself, then appends a handle to the one copy.
        let block = Arc::new(candidate);
        for &i in members {
            self.replicas[i].append(Arc::clone(&block))?;
        }

        let height = self.replicas[members[0]].height();
        Ok(ConsensusOutcome {
            mining,
            block,
            height,
        })
    }

    /// The fork-choice rule: the leader among `candidates` (replica
    /// indices) is the longest replica, ties broken toward the lowest
    /// index. Panics when there is no candidate.
    pub fn leader(&self, candidates: impl IntoIterator<Item = usize>) -> usize {
        candidates
            .into_iter()
            .max_by_key(|&i| (self.replicas[i].height(), std::cmp::Reverse(i)))
            .expect("fork choice needs at least one candidate")
    }

    /// Heals a fork after a partition or crash left the replicas on
    /// divergent tips: the [`leader`](Self::leader) of the whole mesh wins.
    /// Every other replica validates the winning chain under its *own*
    /// size limit and proof requirement, the rule its
    /// [`Blockchain::append`] applies, and adopts it (taking handles to
    /// its blocks) only if every block passes; a replica that refuses
    /// keeps its tip. The blocks the adopting replicas leave behind are
    /// returned (deduped by hash, in replica order) so the round engine
    /// can salvage or discard their contents per the configured reorg
    /// policy.
    ///
    /// A no-op returning an empty list when the replicas already agree.
    pub fn heal(&mut self) -> Vec<Arc<Block>> {
        if self.agreed_height().is_some() {
            return Vec::new();
        }
        // Handles only: the winner's blocks are shared, not copied.
        let winner = self.canonical_chain().clone();
        let winner_tip = winner.tip().hash();

        let mut orphans: Vec<Arc<Block>> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        let mut all_adopted = true;
        for replica in &mut self.replicas {
            // No replica is longer than the winner, so "strictly longer,
            // else equally long with another tip" is "another tip".
            if replica.tip().hash() == winner_tip {
                continue;
            }
            let lost = replica.orphaned_against(&winner);
            if !replica.adopt_if_valid(&winner) {
                all_adopted = false;
                continue;
            }
            for orphan in lost {
                if seen.insert(orphan.hash()) {
                    orphans.push(orphan);
                }
            }
        }
        debug_assert!(
            !all_adopted || self.agreed_height().is_some(),
            "replicas that all adopted agree"
        );
        orphans
    }

    /// The [`leader`](Self::leader)'s chain: while the replicas disagree,
    /// the longest one.
    pub fn canonical_chain(&self) -> &Blockchain {
        &self.replicas[self.leader(0..self.replicas.len())]
    }

    /// Dissolves the group into the [`leader`](Self::leader)'s chain,
    /// dropping the other replicas' handles.
    pub fn into_canonical_chain(mut self) -> Blockchain {
        let leader = self.leader(0..self.replicas.len());
        self.replicas.swap_remove(leader)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn group(m: usize) -> RoundConsensus {
        let miners = (0..m as u64).map(|id| Miner::new(id, 1000.0)).collect();
        RoundConsensus::new(miners, PowConfig::new(16))
    }

    #[test]
    #[should_panic(expected = "at least one miner")]
    fn empty_miner_set_is_rejected() {
        let _ = RoundConsensus::new(vec![], PowConfig::default());
    }

    #[test]
    fn replicas_start_in_agreement() {
        let consensus = group(3);
        assert_eq!(consensus.miner_count(), 3);
        assert_eq!(consensus.agreed_height(), Some(0));
    }

    #[test]
    fn sealing_rounds_keeps_replicas_identical() {
        let mut consensus = group(4);
        let mut rng = StdRng::seed_from_u64(5);
        for round in 1..=5u64 {
            let txs = vec![Transaction::global_gradient(0, round, vec![round as u8])];
            let outcome = consensus.seal_round(txs, round * 1000, &mut rng).unwrap();
            assert_eq!(outcome.height, round);
            assert_eq!(consensus.agreed_height(), Some(round));
            assert!(consensus
                .miners
                .iter()
                .any(|m| m.id == outcome.mining.winner));
        }
        // Every replica holds the same 6 blocks (genesis + 5 rounds).
        for replica in &consensus.replicas {
            assert_eq!(replica.len(), 6);
            replica.validate_all().unwrap();
        }
    }

    #[test]
    fn a_round_seals_one_block_that_every_member_replica_shares() {
        let mut consensus = group(4);
        let mut rng = StdRng::seed_from_u64(8);
        let txs = vec![Transaction::global_gradient(0, 1, vec![1; 64])];
        let all = consensus.seal_round(txs, 0, &mut rng).unwrap();
        // Four replicas and the outcome hold the one copy.
        assert_eq!(Arc::strong_count(&all.block), 5);

        // A component's block is shared by its members only...
        let txs = vec![Transaction::global_gradient(0, 2, vec![2; 64])];
        let part = consensus
            .seal_round_among(&[0, 1], txs, 1000, &mut rng)
            .unwrap();
        assert_eq!(Arc::strong_count(&part.block), 3);
        // ...until the fork heals and the others take handles to it.
        assert!(consensus.heal().is_empty());
        assert_eq!(Arc::strong_count(&part.block), 5);
        assert_eq!(consensus.agreed_height(), Some(2));

        // Dissolving the group leaves the canonical chain's handle.
        let chain = consensus.into_canonical_chain();
        assert_eq!(chain.tip().hash(), part.block.hash());
        assert_eq!(Arc::strong_count(&part.block), 2);
        assert_eq!(Arc::strong_count(&all.block), 2);
    }

    /// Sharing the block does not share the verdict: a replica that
    /// cannot accept the block refuses it although an earlier member
    /// already validated and appended the same handle.
    #[test]
    fn every_member_replica_validates_the_shared_block_itself() {
        let mut consensus = group(3);
        consensus.replicas[2].max_block_bytes = 256;
        let mut rng = StdRng::seed_from_u64(9);
        let txs = vec![Transaction::global_gradient(0, 1, vec![0; 1024])];
        assert!(matches!(
            consensus.seal_round_among(&[0, 1, 2], txs, 0, &mut rng),
            Err(ChainError::BlockTooLarge { limit: 256, .. })
        ));
        assert_eq!(consensus.replicas[0].height(), 1);
        assert_eq!(consensus.replicas[1].height(), 1);
        assert_eq!(consensus.replicas[2].height(), 0);
    }

    #[test]
    fn one_block_per_round_no_empty_blocks() {
        let mut consensus = group(2);
        let mut rng = StdRng::seed_from_u64(6);
        for round in 1..=3u64 {
            let txs = vec![Transaction::global_gradient(0, round, vec![1, 2, 3])];
            consensus.seal_round(txs, 0, &mut rng).unwrap();
        }
        assert_eq!(consensus.canonical_chain().empty_block_count(), 0);
        assert_eq!(consensus.canonical_chain().height(), 3);
    }

    #[test]
    fn full_membership_seal_matches_seal_round() {
        let mut via_seal = group(3);
        let mut via_among = group(3);
        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let txs = vec![Transaction::global_gradient(0, 1, vec![9])];
        let a = via_seal.seal_round(txs.clone(), 500, &mut rng_a).unwrap();
        let b = via_among
            .seal_round_among(&[0, 1, 2], txs, 500, &mut rng_b)
            .unwrap();
        assert_eq!(a.mining.winner, b.mining.winner);
        assert_eq!(a.block.hash(), b.block.hash());
        assert_eq!(a.height, b.height);
    }

    #[test]
    fn partitioned_components_fork_and_heal_to_one_tip() {
        let mut consensus = group(3);
        let mut rng = StdRng::seed_from_u64(12);

        // One shared round before the split.
        consensus
            .seal_round(
                vec![Transaction::global_gradient(0, 1, vec![1])],
                1000,
                &mut rng,
            )
            .unwrap();

        // Partition: {0, 1} and {2} each mine their own branch; the
        // primary component seals two rounds, the secondary one.
        for round in 2..=3u64 {
            consensus
                .seal_round_among(
                    &[0, 1],
                    vec![Transaction::global_gradient(0, round, vec![round as u8])],
                    round * 1000,
                    &mut rng,
                )
                .unwrap();
        }
        consensus
            .seal_round_among(
                &[2],
                vec![Transaction::global_gradient(2, 2, vec![99])],
                2500,
                &mut rng,
            )
            .unwrap();

        // A real fork: the replicas disagree; 0 and 1 tie longest, 0 leads.
        assert_eq!(consensus.agreed_height(), None);
        assert_eq!(consensus.leader([2, 1, 0]), 0);
        assert_eq!(consensus.replicas[0].height(), 3);
        assert_eq!(consensus.replicas[2].height(), 2);
        assert_ne!(
            consensus.replicas[0].tip().hash(),
            consensus.replicas[2].tip().hash()
        );

        // Heal: the longer primary branch wins, the secondary block is
        // orphaned and surfaced for the reorg policy.
        let orphans = consensus.heal();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].header.miner_id, 2);
        assert_eq!(consensus.agreed_height(), Some(3));
        for replica in &consensus.replicas {
            replica.validate_all().unwrap();
        }

        // Healing an agreed mesh is a no-op.
        assert!(consensus.heal().is_empty());
    }

    #[test]
    fn equal_length_fork_heals_toward_the_lowest_replica() {
        let mut consensus = group(2);
        let mut rng = StdRng::seed_from_u64(13);
        consensus
            .seal_round_among(
                &[0],
                vec![Transaction::global_gradient(0, 1, vec![1])],
                1000,
                &mut rng,
            )
            .unwrap();
        consensus
            .seal_round_among(
                &[1],
                vec![Transaction::global_gradient(1, 1, vec![2])],
                1100,
                &mut rng,
            )
            .unwrap();
        assert_eq!(consensus.agreed_height(), None);
        let expected_tip = consensus.replicas[0].tip().hash();
        let orphans = consensus.heal();
        assert_eq!(orphans.len(), 1);
        assert_eq!(consensus.agreed_height(), Some(1));
        assert_eq!(consensus.replicas[1].tip().hash(), expected_tip);
    }

    #[test]
    fn global_gradient_is_readable_from_latest_block() {
        let mut consensus = group(2);
        let mut rng = StdRng::seed_from_u64(7);
        consensus
            .seal_round(
                vec![Transaction::global_gradient(0, 1, vec![42])],
                0,
                &mut rng,
            )
            .unwrap();
        assert_eq!(
            consensus.canonical_chain().latest_global_gradient(),
            Some((1, vec![42]))
        );
    }
}
