//! Blocks and block headers.
//!
//! A block packs the transactions of one communication round behind a
//! header that commits to the previous block's hash, the Merkle root of the
//! body, a simulated timestamp, the PoW difficulty and the nonce found by
//! the winning miner. Under FAIR-BFL's Assumption 2 the body contains the
//! round's single global-gradient transaction plus reward transactions;
//! under vanilla BFL it contains whatever local-gradient transactions fit
//! below the block-size limit.

use crate::merkle::{merkle_root, merkle_root_in_place};
use crate::pow::{Difficulty, PowConfig};
use crate::transaction::Transaction;
use bfl_crypto::sha256::{sha256, to_hex, Digest, Sha256};
use serde::{Deserialize, Serialize};

/// Header committed to by the proof-of-work.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BlockHeader {
    /// Height of the block (genesis is 0).
    pub index: u64,
    /// Hash of the previous block's header.
    pub previous_hash: Digest,
    /// Merkle root of the transaction ids in the body.
    pub merkle_root: Digest,
    /// Simulated timestamp in milliseconds since the start of the run.
    pub timestamp_ms: u64,
    /// Difficulty the block was mined at.
    pub difficulty: Difficulty,
    /// Nonce found by the winning miner.
    pub nonce: u64,
    /// Identifier of the miner that produced the block.
    pub miner_id: u64,
}

/// Serialized header length in bytes: five `u64` fields plus two
/// 32-byte digests.
const HEADER_LEN: usize = 104;
/// Byte offset of the nonce — the final header field, so everything
/// before it is nonce-independent and can be absorbed into a midstate.
const NONCE_OFFSET: usize = HEADER_LEN - 8;

impl BlockHeader {
    /// Serializes the header with the given nonce substituted. The nonce
    /// is the **last** field so that mining can precompute the SHA-256
    /// midstate of the 96-byte prefix once and re-hash only the final
    /// padded block per nonce (Equation 4's `H(nonce + Block)`).
    fn serialize_with_nonce(&self, nonce: u64) -> [u8; HEADER_LEN] {
        let mut bytes = [0u8; HEADER_LEN];
        bytes[0..8].copy_from_slice(&self.index.to_be_bytes());
        bytes[8..40].copy_from_slice(&self.previous_hash);
        bytes[40..72].copy_from_slice(&self.merkle_root);
        bytes[72..80].copy_from_slice(&self.timestamp_ms.to_be_bytes());
        bytes[80..88].copy_from_slice(&self.difficulty.to_be_bytes());
        bytes[88..96].copy_from_slice(&self.miner_id.to_be_bytes());
        bytes[NONCE_OFFSET..].copy_from_slice(&nonce.to_be_bytes());
        bytes
    }

    /// Hashes the full header (with the given nonce substituted).
    ///
    /// This is the reference hash: [`PowMidstate::hash_with_nonce`] is
    /// pinned to it bit-for-bit by the equivalence tests.
    pub fn hash_with_nonce(&self, nonce: u64) -> Digest {
        sha256(&self.serialize_with_nonce(nonce))
    }

    /// Precomputes the SHA-256 midstate over the nonce-independent
    /// 96-byte header prefix. Per-nonce hashing through the midstate
    /// compresses one padded block instead of two and allocates nothing.
    ///
    /// The midstate commits to every header field except the nonce;
    /// mutate the header and the midstate is stale.
    pub fn pow_midstate(&self) -> PowMidstate {
        let bytes = self.serialize_with_nonce(0);
        let mut hasher = Sha256::new();
        hasher.update(&bytes[..NONCE_OFFSET]);
        PowMidstate { hasher }
    }

    /// Hash of the header with its recorded nonce.
    pub fn hash(&self) -> Digest {
        self.hash_with_nonce(self.nonce)
    }
}

/// SHA-256 midstate of a block header's nonce-independent prefix.
///
/// Cheap to clone (eight words of state plus half a block of buffered
/// bytes), so parallel miners hand each worker its own copy.
#[derive(Debug, Clone)]
pub struct PowMidstate {
    hasher: Sha256,
}

impl PowMidstate {
    /// Hashes the committed header with `nonce` appended — only the
    /// final padded SHA-256 block is processed.
    pub fn hash_with_nonce(&self, nonce: u64) -> Digest {
        let mut hasher = self.hasher.clone();
        hasher.update(&nonce.to_be_bytes());
        hasher.finalize()
    }
}

/// Merkle root of a block body: the transaction ids, folded inside the
/// one buffer they were collected into.
fn body_merkle_root(transactions: &[Transaction]) -> Digest {
    let mut leaves: Vec<Digest> = transactions.iter().map(Transaction::id).collect();
    merkle_root_in_place(&mut leaves)
}

/// A block: header plus transaction body.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Block {
    /// The proof-of-work header.
    pub header: BlockHeader,
    /// Transactions recorded in the block.
    pub transactions: Vec<Transaction>,
}

impl Block {
    /// Builds the genesis block (height 0, no transactions, zero difficulty).
    pub fn genesis() -> Block {
        let header = BlockHeader {
            index: 0,
            previous_hash: [0u8; 32],
            merkle_root: merkle_root(&[]),
            timestamp_ms: 0,
            difficulty: 1,
            nonce: 0,
            miner_id: 0,
        };
        Block {
            header,
            transactions: Vec::new(),
        }
    }

    /// Assembles an unmined candidate block on top of `previous`.
    pub fn candidate(
        previous: &Block,
        transactions: Vec<Transaction>,
        timestamp_ms: u64,
        difficulty: Difficulty,
        miner_id: u64,
    ) -> Block {
        let header = BlockHeader {
            index: previous.header.index + 1,
            previous_hash: previous.header.hash(),
            merkle_root: body_merkle_root(&transactions),
            timestamp_ms,
            difficulty,
            nonce: 0,
            miner_id,
        };
        Block {
            header,
            transactions,
        }
    }

    /// Hash of the block (its header hash).
    pub fn hash(&self) -> Digest {
        self.header.hash()
    }

    /// Hash rendered as hex, convenient for logs and examples.
    pub fn hash_hex(&self) -> String {
        to_hex(&self.hash())
    }

    /// Total serialized size of the block body in bytes.
    pub fn size_bytes(&self) -> usize {
        HEADER_LEN
            + self
                .transactions
                .iter()
                .map(Transaction::size_bytes)
                .sum::<usize>()
    }

    /// Recomputes the Merkle root from the body and compares with the header.
    pub fn merkle_consistent(&self) -> bool {
        body_merkle_root(&self.transactions) == self.header.merkle_root
    }

    /// True when the recorded nonce satisfies the block's own difficulty.
    pub fn proof_is_valid(&self) -> bool {
        PowConfig::new(self.header.difficulty).meets_target(&self.hash())
    }

    /// Mines the block in place: searches nonces from zero until the proof
    /// is valid ([`PowConfig::search_header`] with an unbounded budget).
    ///
    /// Returns the number of hash evaluations spent. Genesis-style blocks at
    /// difficulty 1 typically succeed on the first try.
    pub fn mine(&mut self, config: &PowConfig) -> u64 {
        self.header.difficulty = config.difficulty;
        let nonce = config
            .search_header(&self.header, 0, u64::MAX)
            .expect("some nonce below 2^64 meets any target");
        self.header.nonce = nonce;
        nonce + 1
    }

    /// True if the block records no transactions — the "empty block" the
    /// paper's tight-coupling assumption is designed to avoid.
    pub fn is_empty(&self) -> bool {
        self.transactions.is_empty()
    }

    /// Returns the global-gradient payload recorded in this block, if any.
    pub fn global_gradient_payload(&self) -> Option<(u64, &[u8])> {
        self.transactions.iter().find_map(|tx| match &tx.kind {
            crate::transaction::TransactionKind::GlobalGradient { round, payload } => {
                Some((*round, payload.as_slice()))
            }
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genesis_is_consistent() {
        let g = Block::genesis();
        assert_eq!(g.header.index, 0);
        assert!(g.is_empty());
        assert!(g.merkle_consistent());
        assert_eq!(g.header.previous_hash, [0u8; 32]);
        assert!(g.global_gradient_payload().is_none());
    }

    #[test]
    fn candidate_links_to_previous() {
        let g = Block::genesis();
        let txs = vec![Transaction::global_gradient(1, 1, vec![1, 2, 3])];
        let b = Block::candidate(&g, txs, 1500, 8, 1);
        assert_eq!(b.header.index, 1);
        assert_eq!(b.header.previous_hash, g.hash());
        assert_eq!(b.header.miner_id, 1);
        assert!(b.merkle_consistent());
        assert_eq!(b.global_gradient_payload(), Some((1, &[1u8, 2, 3][..])));
    }

    #[test]
    fn hash_changes_with_nonce_and_content() {
        let g = Block::genesis();
        let b1 = Block::candidate(&g, vec![Transaction::reward(1, 1, 2, 10)], 0, 1, 1);
        let mut b2 = b1.clone();
        b2.header.nonce = 42;
        assert_ne!(b1.hash(), b2.hash());

        let b3 = Block::candidate(&g, vec![Transaction::reward(1, 1, 2, 11)], 0, 1, 1);
        assert_ne!(b1.hash(), b3.hash());
    }

    #[test]
    fn tampering_with_body_breaks_merkle_consistency() {
        let g = Block::genesis();
        let mut b = Block::candidate(&g, vec![Transaction::reward(1, 1, 2, 10)], 0, 1, 1);
        assert!(b.merkle_consistent());
        b.transactions.push(Transaction::reward(1, 1, 3, 10));
        assert!(!b.merkle_consistent());
    }

    #[test]
    fn mining_produces_a_valid_proof() {
        let g = Block::genesis();
        let mut b = Block::candidate(&g, vec![Transaction::reward(1, 1, 2, 10)], 0, 64, 1);
        let config = PowConfig::new(64);
        let attempts = b.mine(&config);
        assert!(attempts >= 1);
        assert!(b.proof_is_valid());
        assert_eq!(b.header.difficulty, 64);
    }

    #[test]
    fn size_grows_with_payload() {
        let g = Block::genesis();
        let small = Block::candidate(&g, vec![Transaction::reward(1, 1, 2, 10)], 0, 1, 1);
        let large = Block::candidate(
            &g,
            vec![Transaction::local_gradient(1, 1, vec![0u8; 50_000])],
            0,
            1,
            1,
        );
        assert!(large.size_bytes() > small.size_bytes());
        assert!(large.size_bytes() > 50_000);
    }

    /// Pinned on the pre-streaming implementation (materialised id
    /// preimages, level-by-level Merkle tree): whatever id and root
    /// computation replaces them must seal this exact block.
    #[test]
    fn mined_block_hash_and_merkle_root_are_golden() {
        let payload: Vec<u8> = (0..200u32).map(|i| (i * 7 + 3) as u8).collect();
        let txs = vec![
            Transaction::global_gradient(0, 5, payload),
            Transaction::reward(0, 5, 11, 40_000),
            Transaction::reward(0, 5, 12, 35_000),
            Transaction::reward(0, 5, 13, 25_000),
        ];
        let mut b = Block::candidate(&Block::genesis(), txs, 1234, 64, 1);
        b.mine(&PowConfig::new(64));
        assert_eq!(b.header.nonce, 69);
        assert_eq!(
            to_hex(&b.header.merkle_root),
            "275ef120a96619ccd2d3f88c7ff00b5d43ad0ddb7cc13fa3de6ffade0cfef481"
        );
        assert_eq!(
            b.hash_hex(),
            "01b0c4333d52b8691110ce0b1831007e805e97e88606193d9a51360248dde7e7"
        );
        assert!(b.merkle_consistent());
    }

    #[test]
    fn hash_hex_is_64_chars() {
        assert_eq!(Block::genesis().hash_hex().len(), 64);
    }

    #[test]
    fn midstate_hash_matches_full_header_hash() {
        let g = Block::genesis();
        let b = Block::candidate(&g, vec![Transaction::reward(3, 2, 9, 11)], 123, 17, 4);
        let midstate = b.header.pow_midstate();
        for nonce in [0u64, 1, 42, u32::MAX as u64, u64::MAX] {
            assert_eq!(
                midstate.hash_with_nonce(nonce),
                b.header.hash_with_nonce(nonce),
                "midstate diverged at nonce {nonce}"
            );
        }
    }

    #[test]
    fn midstate_commits_to_all_prefix_fields() {
        let g = Block::genesis();
        let b = Block::candidate(&g, vec![Transaction::reward(1, 1, 2, 10)], 5, 8, 1);
        let before = b.header.pow_midstate().hash_with_nonce(7);
        let mut tampered = b.clone();
        tampered.header.timestamp_ms += 1;
        assert_ne!(tampered.header.pow_midstate().hash_with_nonce(7), before);
        let mut tampered = b;
        tampered.header.miner_id += 1;
        assert_ne!(tampered.header.pow_midstate().hash_with_nonce(7), before);
    }

    #[test]
    fn serde_round_trip() {
        let g = Block::genesis();
        let b = Block::candidate(&g, vec![Transaction::reward(1, 1, 2, 10)], 77, 4, 3);
        let json = serde_json::to_string(&b).unwrap();
        let back: Block = serde_json::from_str(&json).unwrap();
        assert_eq!(back, b);
        assert_eq!(back.hash(), b.hash());
    }
}
