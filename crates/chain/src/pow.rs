//! Proof-of-work: difficulty, targets, nonce search, and the analytic
//! expected-work model.
//!
//! The paper's Equation 4 defines the puzzle as
//! `H(nonce + Block) < Target = Target_1 / difficulty` where `Target_1` is
//! the maximum target (the all-ones 256-bit value). A miner wins a round by
//! finding a nonce whose block hash falls below the target; the probability
//! of success per hash is `1 / difficulty`, so the expected number of hashes
//! per block equals the difficulty. The delay model in `bfl-core` uses
//! [`PowConfig::expected_hashes`] together with a miner's hash rate to turn
//! difficulty into seconds; this module also implements the *actual* nonce
//! search so the ledger substrate is a real PoW chain, not a mock.
//!
//! There is one search, serial: a block at the engine's difficulty costs
//! about 64 hashes, far less than a thread spawn, so a parallel search
//! could only lose. [`PowConfig::search_header`] goes through the block
//! header's SHA-256 midstate ([`crate::block::BlockHeader::pow_midstate`]):
//! the nonce is the last header field, so the 96-byte prefix is compressed
//! once per mining attempt and each nonce costs one final padded block —
//! half the compressions of hashing the full header, with no per-nonce
//! allocation.

use crate::block::BlockHeader;
use bfl_crypto::sha256::Digest;

/// Mining difficulty, expressed as the expected number of hash evaluations
/// required to find a valid nonce (`Target = Target_1 / difficulty`).
pub type Difficulty = u64;

/// Proof-of-work configuration shared by all miners in a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowConfig {
    /// Difficulty: expected hashes per block. Must be at least 1.
    pub difficulty: Difficulty,
}

impl Default for PowConfig {
    fn default() -> Self {
        // A light default so unit tests and examples mine instantly.
        PowConfig {
            difficulty: 1 << 12,
        }
    }
}

impl PowConfig {
    /// Creates a configuration with the given difficulty (clamped to >= 1).
    pub fn new(difficulty: Difficulty) -> Self {
        PowConfig {
            difficulty: difficulty.max(1),
        }
    }

    /// Returns the configuration unchanged. The nonce search is serial,
    /// so `threads` must be 1; the method stays for callers that pass
    /// `BflConfig::mining_threads` through.
    pub fn with_mining_threads(self, threads: usize) -> Self {
        assert_eq!(
            threads, 1,
            "the nonce search is serial: mining_threads must be 1"
        );
        self
    }

    /// Expected number of hash evaluations to find a block at this difficulty.
    pub fn expected_hashes(&self) -> f64 {
        self.difficulty as f64
    }

    /// Checks whether `hash` satisfies the target implied by the difficulty.
    ///
    /// The hash is interpreted big-endian; its top 64 bits are compared with
    /// `u64::MAX / difficulty`, which realizes `H < Target_1 / difficulty`
    /// with enough resolution for any difficulty representable as `u64`.
    pub fn meets_target(&self, hash: &Digest) -> bool {
        let top = u64::from_be_bytes([
            hash[0], hash[1], hash[2], hash[3], hash[4], hash[5], hash[6], hash[7],
        ]);
        let target = u64::MAX / self.difficulty;
        top < target
    }

    /// Sequentially searches nonces in `[start_nonce, start_nonce + budget)`.
    ///
    /// `hash_with_nonce` must hash the candidate block with the provided
    /// nonce. Returns the first satisfying nonce, or `None` if the budget is
    /// exhausted.
    pub fn search<F>(&self, start_nonce: u64, budget: u64, mut hash_with_nonce: F) -> Option<u64>
    where
        F: FnMut(u64) -> Digest,
    {
        for offset in 0..budget {
            let nonce = start_nonce.wrapping_add(offset);
            if self.meets_target(&hash_with_nonce(nonce)) {
                return Some(nonce);
            }
        }
        None
    }

    /// Sequential nonce search over `header`, hashing through its
    /// precomputed midstate (one compression per nonce).
    pub fn search_header(
        &self,
        header: &BlockHeader,
        start_nonce: u64,
        budget: u64,
    ) -> Option<u64> {
        let midstate = header.pow_midstate();
        self.search(start_nonce, budget, |nonce| midstate.hash_with_nonce(nonce))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_crypto::sha256::sha256;

    fn header_hash(nonce: u64) -> Digest {
        let mut bytes = b"test-header".to_vec();
        bytes.extend_from_slice(&nonce.to_be_bytes());
        sha256(&bytes)
    }

    #[test]
    fn difficulty_one_accepts_almost_everything() {
        let config = PowConfig::new(1);
        // With difficulty 1 the target is u64::MAX, so any hash whose top
        // 64 bits are not all ones passes; a random hash essentially always does.
        assert!(config.meets_target(&header_hash(0)));
        assert!(config.meets_target(&header_hash(123_456)));
    }

    #[test]
    fn zero_difficulty_is_clamped() {
        assert_eq!(PowConfig::new(0).difficulty, 1);
    }

    #[test]
    fn higher_difficulty_is_strictly_harder() {
        let easy = PowConfig::new(4);
        let hard = PowConfig::new(1 << 20);
        // Every hash accepted by the hard config is accepted by the easy one.
        let mut hard_accepts = 0;
        for nonce in 0..20_000u64 {
            let h = header_hash(nonce);
            if hard.meets_target(&h) {
                hard_accepts += 1;
                assert!(easy.meets_target(&h));
            }
        }
        // The hard config should accept only a tiny fraction.
        assert!(
            hard_accepts < 10,
            "hard difficulty accepted {hard_accepts} of 20000"
        );
    }

    #[test]
    fn expected_hashes_equals_difficulty() {
        assert_eq!(PowConfig::new(500).expected_hashes(), 500.0);
        assert_eq!(PowConfig::default().expected_hashes(), 4096.0);
    }

    #[test]
    fn sequential_search_finds_valid_nonce() {
        let config = PowConfig::new(64);
        let nonce = config
            .search(0, 1_000_000, header_hash)
            .expect("a difficulty-64 puzzle must be solvable within a million hashes");
        assert!(config.meets_target(&header_hash(nonce)));
    }

    #[test]
    fn sequential_search_respects_budget() {
        let config = PowConfig::new(u64::MAX / 2); // essentially unsolvable
        assert_eq!(config.search(0, 100, header_hash), None);
    }

    #[test]
    fn search_is_deterministic_for_fixed_input() {
        let config = PowConfig::new(256);
        let a = config.search(0, 1_000_000, header_hash);
        let b = config.search(0, 1_000_000, header_hash);
        assert_eq!(a, b);
    }

    fn sample_header() -> crate::block::BlockHeader {
        let genesis = crate::block::Block::genesis();
        crate::block::Block::candidate(&genesis, vec![], 99, 1, 7).header
    }

    #[test]
    fn header_search_matches_full_header_search() {
        let header = sample_header();
        let config = PowConfig::new(64);
        let via_midstate = config.search_header(&header, 0, 1_000_000);
        let via_full = config.search(0, 1_000_000, |n| header.hash_with_nonce(n));
        assert_eq!(via_midstate, via_full);
        assert!(via_midstate.is_some());
    }
}
