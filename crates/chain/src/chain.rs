//! The validated, append-only blockchain.
//!
//! Every miner holds a replica of the chain. A sealed block is immutable,
//! so replicas hold it as a shared handle (`Arc<Block>`): the winner's
//! block exists once however many miners append it, and each replica
//! still runs the full [`Blockchain::validate_candidate`] on it before it
//! does. Under FAIR-BFL's synchronized design all replicas stay identical
//! (one block per communication round, no forks). A partition or a miner
//! crash can still leave replicas on competing tips; one fork-choice rule,
//! [`RoundConsensus::heal`](crate::consensus::RoundConsensus::heal),
//! resolves them: the longest replica wins, and each other replica adopts
//! it only when its own [`Blockchain::append`] would accept every block.

use crate::block::Block;
use crate::error::ChainError;
#[cfg(test)]
use crate::pow::PowConfig;
use crate::transaction::TransactionKind;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// An append-only chain of validated blocks starting at genesis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Blockchain {
    blocks: Vec<Arc<Block>>,
    /// Maximum accepted block size in bytes (the paper's "block size is
    /// limited" constraint that causes vanilla-BFL queuing).
    pub max_block_bytes: usize,
    /// Whether appended blocks must carry a valid proof of work.
    pub require_proof: bool,
}

/// Default block-size limit: large enough for one serialized global
/// gradient of the reference model plus a full reward list, small enough
/// that one hundred local gradients do not fit (driving Figure 6a).
pub const DEFAULT_MAX_BLOCK_BYTES: usize = 512 * 1024;

impl Default for Blockchain {
    fn default() -> Self {
        Self::new()
    }
}

impl Blockchain {
    /// Creates a chain containing only the genesis block.
    pub fn new() -> Self {
        Blockchain {
            blocks: vec![Arc::new(Block::genesis())],
            max_block_bytes: DEFAULT_MAX_BLOCK_BYTES,
            require_proof: true,
        }
    }

    /// Number of blocks including genesis.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Always false: a chain always contains at least genesis.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Height of the tip (genesis is height 0).
    pub fn height(&self) -> u64 {
        (self.blocks.len() - 1) as u64
    }

    /// The latest block.
    pub fn tip(&self) -> &Block {
        self.blocks.last().expect("chain always holds genesis")
    }

    /// Iterates over all blocks from genesis to tip.
    pub fn iter(&self) -> impl Iterator<Item = &Block> {
        self.blocks.iter().map(Arc::as_ref)
    }

    /// The one per-block rule of this chain: `block` extends `prev` when
    /// it carries the next index and `prev`'s hash, its Merkle root
    /// recomputes from its body, it fits the size limit and — when
    /// required — its proof of work meets its difficulty.
    fn validate_link(&self, prev: &Block, block: &Block) -> Result<(), ChainError> {
        if block.header.index != prev.header.index + 1 {
            return Err(ChainError::WrongIndex {
                expected: block.header.index,
                found: prev.header.index + 1,
            });
        }
        if block.header.previous_hash != prev.hash() {
            return Err(ChainError::BrokenLink {
                height: block.header.index,
            });
        }
        if !block.merkle_consistent() {
            return Err(ChainError::MerkleMismatch);
        }
        if block.size_bytes() > self.max_block_bytes {
            return Err(ChainError::BlockTooLarge {
                size: block.size_bytes(),
                limit: self.max_block_bytes,
            });
        }
        if self.require_proof && !block.proof_is_valid() {
            return Err(ChainError::InsufficientWork);
        }
        Ok(())
    }

    /// Validates a candidate block against the current tip without appending.
    pub fn validate_candidate(&self, block: &Block) -> Result<(), ChainError> {
        self.validate_link(self.tip(), block)
    }

    /// Validates and appends a block. A block other replicas hold too is
    /// passed as its shared handle; every replica validates it for itself.
    pub fn append(&mut self, block: impl Into<Arc<Block>>) -> Result<(), ChainError> {
        let block = block.into();
        self.validate_candidate(&block)?;
        self.blocks.push(block);
        Ok(())
    }

    /// Re-validates the entire chain from genesis, by the rule
    /// [`append`](Blockchain::append) applies.
    pub fn validate_all(&self) -> Result<(), ChainError> {
        self.validate_blocks(&self.blocks)
    }

    /// Checks every link of `blocks` under *this* chain's size limit and
    /// proof requirement.
    fn validate_blocks(&self, blocks: &[Arc<Block>]) -> Result<(), ChainError> {
        blocks
            .windows(2)
            .try_for_each(|window| self.validate_link(&window[0], &window[1]))
    }

    /// Replaces this replica's blocks with handles to `other`'s when every
    /// block of it is one this chain's [`append`](Blockchain::append) would
    /// have accepted — its own size limit and proof requirement, not
    /// `other`'s. Returns whether it did.
    pub(crate) fn adopt_if_valid(&mut self, other: &Blockchain) -> bool {
        let valid = self.validate_blocks(&other.blocks).is_ok();
        if valid {
            self.blocks.clone_from(&other.blocks);
        }
        valid
    }

    /// The blocks of `self` that do not appear in `canonical` (compared by
    /// hash): the orphaned branch left behind after a reorganisation.
    pub fn orphaned_against(&self, canonical: &Blockchain) -> Vec<Arc<Block>> {
        let canonical_hashes: std::collections::BTreeSet<[u8; 32]> =
            canonical.iter().map(Block::hash).collect();
        self.blocks
            .iter()
            .filter(|b| !canonical_hashes.contains(&b.hash()))
            .cloned()
            .collect()
    }

    /// The most recent global-gradient payload on the chain, if any,
    /// together with the round it was recorded for. This is what clients
    /// read at the start of Procedure-I ("read global gradient w_r from the
    /// latest block").
    pub fn latest_global_gradient(&self) -> Option<(u64, Vec<u8>)> {
        self.blocks.iter().rev().find_map(|block| {
            block
                .global_gradient_payload()
                .map(|(round, payload)| (round, payload.to_vec()))
        })
    }

    /// Sums the rewards recorded on chain per client.
    pub fn reward_totals(&self) -> std::collections::BTreeMap<u64, u64> {
        let mut totals = std::collections::BTreeMap::new();
        for block in self.iter() {
            for tx in &block.transactions {
                if let TransactionKind::Reward {
                    client_id,
                    amount_milli,
                    ..
                } = &tx.kind
                {
                    *totals.entry(*client_id).or_insert(0) += amount_milli;
                }
            }
        }
        totals
    }

    /// Counts blocks that record no transactions (the "empty blocks" that
    /// loosely-coupled vanilla BFL can produce).
    pub fn empty_block_count(&self) -> usize {
        self.blocks.iter().skip(1).filter(|b| b.is_empty()).count()
    }

    /// Builds, mines and appends a block containing `transactions` on top of
    /// the current tip. Returns the number of hash attempts spent mining.
    #[cfg(test)]
    pub fn mine_and_append(
        &mut self,
        transactions: Vec<crate::transaction::Transaction>,
        timestamp_ms: u64,
        config: &PowConfig,
        miner_id: u64,
    ) -> Result<u64, ChainError> {
        let mut candidate = Block::candidate(
            self.tip(),
            transactions,
            timestamp_ms,
            config.difficulty,
            miner_id,
        );
        let attempts = candidate.mine(config);
        self.append(candidate)?;
        Ok(attempts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::RoundConsensus;
    use crate::miner::Miner;
    use crate::transaction::Transaction;

    fn easy_pow() -> PowConfig {
        PowConfig::new(4)
    }

    /// A consensus group whose miner `i` holds `replicas[i]`.
    fn group_of(replicas: Vec<Blockchain>) -> RoundConsensus {
        let miners = (0..replicas.len() as u64)
            .map(|id| Miner::new(id, 1000.0))
            .collect();
        RoundConsensus {
            replicas,
            ..RoundConsensus::new(miners, easy_pow())
        }
    }

    #[test]
    fn new_chain_has_only_genesis() {
        let chain = Blockchain::new();
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.height(), 0);
        assert!(!chain.is_empty());
        assert!(chain.latest_global_gradient().is_none());
        assert_eq!(chain.empty_block_count(), 0);
        chain.validate_all().unwrap();
    }

    #[test]
    fn mine_and_append_extends_the_chain() {
        let mut chain = Blockchain::new();
        let txs = vec![Transaction::global_gradient(1, 1, vec![7, 8, 9])];
        let attempts = chain.mine_and_append(txs, 1000, &easy_pow(), 1).unwrap();
        assert!(attempts >= 1);
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.latest_global_gradient(), Some((1, vec![7, 8, 9])));
        chain.validate_all().unwrap();
    }

    #[test]
    fn append_rejects_wrong_index() {
        let mut chain = Blockchain::new();
        let mut block = Block::candidate(chain.tip(), vec![], 0, 1, 1);
        block.header.index = 5;
        assert!(matches!(
            chain.append(block),
            Err(ChainError::WrongIndex { .. })
        ));
    }

    #[test]
    fn append_rejects_broken_link() {
        let mut chain = Blockchain::new();
        let mut block = Block::candidate(chain.tip(), vec![], 0, 1, 1);
        block.header.previous_hash = [9u8; 32];
        block.mine(&easy_pow());
        assert!(matches!(
            chain.append(block),
            Err(ChainError::BrokenLink { .. })
        ));
    }

    #[test]
    fn append_rejects_merkle_mismatch() {
        let mut chain = Blockchain::new();
        let mut block = Block::candidate(chain.tip(), vec![], 0, 1, 1);
        block.transactions.push(Transaction::reward(1, 1, 2, 5));
        block.mine(&easy_pow());
        assert_eq!(chain.append(block), Err(ChainError::MerkleMismatch));
    }

    #[test]
    fn append_rejects_oversized_block() {
        let mut chain = Blockchain::new();
        chain.max_block_bytes = 1024;
        let big = vec![Transaction::local_gradient(1, 1, vec![0u8; 4096])];
        let mut block = Block::candidate(chain.tip(), big, 0, 1, 1);
        block.mine(&easy_pow());
        assert!(matches!(
            chain.append(block),
            Err(ChainError::BlockTooLarge { .. })
        ));
    }

    #[test]
    fn a_chain_holding_an_oversize_block_fails_validation_and_is_not_adopted() {
        // Sealed under a generous limit...
        let mut roomy = Blockchain::new();
        let big = vec![Transaction::local_gradient(1, 1, vec![0u8; 4096])];
        roomy.mine_and_append(big, 0, &easy_pow(), 1).unwrap();
        roomy.mine_and_append(vec![], 1, &easy_pow(), 1).unwrap();
        roomy.validate_all().unwrap();

        // ...the same blocks are not a valid chain under a tighter one:
        // `validate_all` applies the rule `append` applies.
        let mut strict = roomy.clone();
        strict.max_block_bytes = 1024;
        assert!(matches!(
            strict.validate_all(),
            Err(ChainError::BlockTooLarge { limit: 1024, .. })
        ));

        // A replica whose `append` would have refused the block does not
        // take it through a heal either, however long the chain; a peer
        // under the limit it was sealed with adopts it.
        let mut replica = Blockchain::new();
        replica.max_block_bytes = 1024;
        let mut group = group_of(vec![roomy.clone(), replica, Blockchain::new()]);
        assert!(group.heal().is_empty());
        assert_eq!(group.replicas[1].height(), 0);
        assert_eq!(group.replicas[2].height(), 2);
        assert_eq!(group.replicas[2].tip().hash(), roomy.tip().hash());
        assert_eq!(group.agreed_height(), None);
    }

    #[test]
    fn append_rejects_missing_proof_when_required() {
        let mut chain = Blockchain::new();
        // Use a high difficulty and do not mine: the zero nonce will
        // essentially never satisfy it.
        let block = Block::candidate(chain.tip(), vec![], 0, u64::MAX / 2, 1);
        assert_eq!(chain.append(block), Err(ChainError::InsufficientWork));
    }

    #[test]
    fn proof_not_required_when_disabled() {
        let mut chain = Blockchain::new();
        chain.require_proof = false;
        let block = Block::candidate(chain.tip(), vec![], 0, u64::MAX / 2, 1);
        chain.append(block).unwrap();
        assert_eq!(chain.height(), 1);
    }

    #[test]
    fn reward_totals_accumulate_across_blocks() {
        let mut chain = Blockchain::new();
        chain
            .mine_and_append(
                vec![
                    Transaction::reward(1, 1, 10, 500),
                    Transaction::reward(1, 1, 11, 300),
                ],
                0,
                &easy_pow(),
                1,
            )
            .unwrap();
        chain
            .mine_and_append(vec![Transaction::reward(1, 2, 10, 250)], 0, &easy_pow(), 1)
            .unwrap();
        let totals = chain.reward_totals();
        assert_eq!(totals[&10], 750);
        assert_eq!(totals[&11], 300);
        assert_eq!(totals.len(), 2);
    }

    #[test]
    fn empty_blocks_are_counted() {
        let mut chain = Blockchain::new();
        chain.mine_and_append(vec![], 0, &easy_pow(), 1).unwrap();
        chain
            .mine_and_append(vec![Transaction::reward(1, 1, 1, 1)], 0, &easy_pow(), 1)
            .unwrap();
        assert_eq!(chain.empty_block_count(), 1);
    }

    #[test]
    fn longest_chain_resolution_adopts_longer_valid_chain() {
        let mut a = Blockchain::new();
        let mut b = Blockchain::new();
        a.mine_and_append(vec![], 0, &easy_pow(), 1).unwrap();
        b.mine_and_append(vec![], 0, &easy_pow(), 2).unwrap();
        b.mine_and_append(vec![], 1, &easy_pow(), 2).unwrap();
        let mut group = group_of(vec![a.clone(), b.clone()]);
        let orphans = group.heal();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].hash(), a.tip().hash());
        assert_eq!(group.agreed_height(), Some(2));
        assert_eq!(group.replicas[0].tip().hash(), b.tip().hash());
        // A shorter chain is not adopted, whatever its replica's index.
        let mut group = group_of(vec![Blockchain::new(), b.clone()]);
        assert!(group.heal().is_empty());
        assert_eq!(group.replicas[1].tip().hash(), b.tip().hash());
        assert_eq!(group.agreed_height(), Some(2));
    }

    #[test]
    fn preferred_resolution_breaks_equal_length_ties() {
        let mut a = Blockchain::new();
        let mut b = Blockchain::new();
        a.mine_and_append(vec![], 0, &easy_pow(), 1).unwrap();
        b.mine_and_append(vec![], 1, &easy_pow(), 2).unwrap();
        assert_ne!(a.tip().hash(), b.tip().hash());

        // The lower replica's branch wins an equal-length fork.
        let mut group = group_of(vec![b.clone(), a.clone()]);
        let orphans = group.heal();
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].hash(), a.tip().hash());
        assert_eq!(group.replicas[1].tip().hash(), b.tip().hash());
        assert_eq!(group.agreed_height(), Some(1));
        // Re-healing is a no-op (same tip).
        assert!(group.heal().is_empty());
        assert_eq!(group.replicas[0].tip().hash(), b.tip().hash());
    }

    #[test]
    fn orphaned_against_lists_the_losing_branch() {
        let mut common = Blockchain::new();
        common.mine_and_append(vec![], 0, &easy_pow(), 1).unwrap();
        let mut winner = common.clone();
        let mut loser = common.clone();
        winner.mine_and_append(vec![], 1, &easy_pow(), 1).unwrap();
        winner.mine_and_append(vec![], 2, &easy_pow(), 1).unwrap();
        loser
            .mine_and_append(vec![Transaction::reward(2, 2, 7, 10)], 3, &easy_pow(), 2)
            .unwrap();

        let orphans = loser.orphaned_against(&winner);
        assert_eq!(orphans.len(), 1);
        assert_eq!(orphans[0].hash(), loser.tip().hash());
        // The winning branch has no orphans against itself.
        assert!(winner.orphaned_against(&winner).is_empty());
    }

    #[test]
    fn latest_global_gradient_returns_most_recent() {
        let mut chain = Blockchain::new();
        chain
            .mine_and_append(
                vec![Transaction::global_gradient(1, 1, vec![1])],
                0,
                &easy_pow(),
                1,
            )
            .unwrap();
        chain
            .mine_and_append(
                vec![Transaction::global_gradient(1, 2, vec![2])],
                0,
                &easy_pow(),
                1,
            )
            .unwrap();
        assert_eq!(chain.latest_global_gradient(), Some((2, vec![2])));
        assert_eq!(chain.iter().count(), 3);
    }

    #[test]
    fn serde_round_trip() {
        let mut chain = Blockchain::new();
        chain
            .mine_and_append(vec![Transaction::reward(1, 1, 5, 42)], 9, &easy_pow(), 3)
            .unwrap();
        let json = serde_json::to_string(&chain).unwrap();
        let back: Blockchain = serde_json::from_str(&json).unwrap();
        assert_eq!(back, chain);
        back.validate_all().unwrap();
    }

    #[test]
    fn blocks_shared_between_replicas_keep_the_wire_form() {
        let mut a = Blockchain::new();
        a.mine_and_append(
            vec![
                Transaction::global_gradient(1, 1, vec![7, 8, 9]),
                Transaction::reward(1, 1, 5, 42),
            ],
            9,
            &easy_pow(),
            3,
        )
        .unwrap();
        a.mine_and_append(vec![Transaction::reward(1, 2, 5, 8)], 10, &easy_pow(), 3)
            .unwrap();

        // `b` appends handles to `a`'s blocks, `deep` its own copies.
        let mut b = Blockchain::new();
        let mut deep = Blockchain::new();
        for block in &a.blocks[1..] {
            b.append(Arc::clone(block)).unwrap();
            deep.append(Block::clone(block)).unwrap();
        }
        assert!(Arc::ptr_eq(&a.blocks[2], &b.blocks[2]));
        assert!(!Arc::ptr_eq(&a.blocks[2], &deep.blocks[2]));

        // Sharing is invisible on the wire and survives a round trip.
        let json = serde_json::to_string(&b).unwrap();
        assert_eq!(json, serde_json::to_string(&a).unwrap());
        assert_eq!(json, serde_json::to_string(&deep).unwrap());
        assert!(json.starts_with("{\"blocks\":[{\"header\":{\"index\":0,"));
        let back: Blockchain = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        assert_eq!(back, b);
        back.validate_all().unwrap();
        assert_eq!(back.tip().hash(), a.tip().hash());
    }

    mod fork_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// After an arbitrary valid fork — a shared prefix plus two
            /// divergent branches of arbitrary lengths — a heal (longest
            /// branch, ties toward the lower replica) converges both
            /// replicas to one tip and orphans exactly the losing branch.
            #[test]
            fn resolution_converges_an_arbitrary_valid_fork(
                prefix_len in 0usize..3,
                a_len in 1usize..4,
                b_len in 1usize..4,
            ) {
                let pow = easy_pow();
                let mut common = Blockchain::new();
                for i in 0..prefix_len {
                    common.mine_and_append(vec![], i as u64, &pow, 1).unwrap();
                }
                let mut a = common.clone();
                let mut b = common;
                // Distinct miner ids + timestamps force distinct branch
                // blocks even at equal heights.
                for i in 0..a_len {
                    a.mine_and_append(vec![], 100 + i as u64, &pow, 1).unwrap();
                }
                for i in 0..b_len {
                    b.mine_and_append(vec![], 200 + i as u64, &pow, 2).unwrap();
                }
                prop_assert_ne!(a.tip().hash(), b.tip().hash());

                let (winner, loser) = if a_len >= b_len { (&a, &b) } else { (&b, &a) };
                let mut group = group_of(vec![a.clone(), b.clone()]);
                let orphans = group.heal();

                prop_assert_eq!(group.agreed_height(), Some(winner.height()));
                prop_assert_eq!(group.replicas[1].tip().hash(), winner.tip().hash());
                prop_assert_eq!(winner.height() as usize, prefix_len + a_len.max(b_len));
                for replica in &group.replicas {
                    replica.validate_all().unwrap();
                }
                let lost: Vec<[u8; 32]> = orphans.iter().map(|b| b.hash()).collect();
                let branch: Vec<[u8; 32]> =
                    loser.iter().skip(prefix_len + 1).map(Block::hash).collect();
                prop_assert_eq!(lost, branch);
            }
        }
    }
}
