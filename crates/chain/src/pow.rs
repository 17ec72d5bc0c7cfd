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
//! difficulty into seconds; this module also implements *actual* nonce
//! searches (sequential and multi-threaded) so the ledger substrate is a
//! real PoW chain, not a mock.
//!
//! The header searches ([`PowConfig::search_header`],
//! [`PowConfig::search_header_parallel_budget`]) go through the block header's
//! SHA-256 midstate ([`crate::block::BlockHeader::pow_midstate`]): the
//! nonce is the last header field, so the 96-byte prefix is compressed
//! once per mining attempt and each nonce costs one final padded block —
//! half the compressions of hashing the full header, with no per-nonce
//! allocation.

use crate::block::{BlockHeader, PowMidstate};
use bfl_crypto::sha256::Digest;
use std::sync::atomic::{AtomicU64, Ordering};

/// Mining difficulty, expressed as the expected number of hash evaluations
/// required to find a valid nonce (`Target = Target_1 / difficulty`).
pub type Difficulty = u64;

/// Nonces scanned per claim by each worker of the deterministic parallel
/// search. Small enough that workers notice a winner quickly, large
/// enough that the shared counter is off the hot path.
const PARALLEL_SEARCH_BLOCK: u64 = 4096;

/// Proof-of-work configuration shared by all miners in a deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PowConfig {
    /// Difficulty: expected hashes per block. Must be at least 1.
    pub difficulty: Difficulty,
    /// Worker threads the consensus nonce search uses: `1` keeps the
    /// serial loop, `0` means one worker per available core, and any
    /// other value is the exact worker count. The parallel search is
    /// deterministic (it returns the smallest satisfying nonce of the
    /// covered range), so this knob changes wall-clock time, never the
    /// mined block.
    pub mining_threads: usize,
}

impl Default for PowConfig {
    fn default() -> Self {
        // A light default so unit tests and examples mine instantly.
        PowConfig {
            difficulty: 1 << 12,
            mining_threads: 1,
        }
    }
}

impl PowConfig {
    /// Creates a configuration with the given difficulty (clamped to >= 1)
    /// and the serial nonce search.
    pub fn new(difficulty: Difficulty) -> Self {
        PowConfig {
            difficulty: difficulty.max(1),
            mining_threads: 1,
        }
    }

    /// Returns the configuration with the mining-thread knob set (see
    /// [`PowConfig::mining_threads`]).
    pub fn with_mining_threads(mut self, threads: usize) -> Self {
        self.mining_threads = threads;
        self
    }

    /// The worker count [`PowConfig::mining_threads`] resolves to: `0`
    /// becomes the machine's available parallelism.
    pub fn effective_mining_threads(&self) -> usize {
        match self.mining_threads {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            n => n,
        }
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

    /// Multi-threaded nonce search over `[0, threads * budget_per_thread)`
    /// with a **deterministic** winner: the returned nonce is the smallest
    /// satisfying nonce of the covered range, independent of thread
    /// scheduling, so parallel mining produces the same block a serial
    /// scan of the range would.
    ///
    /// The range is split into fixed-size blocks dealt round-robin to the
    /// workers. When a worker finds a satisfying nonce it publishes it
    /// with `fetch_min`; a worker abandons the race only when its next
    /// block starts above the published best, which guarantees every
    /// block below the final winner was fully scanned (the paper's
    /// mining competition, where "those who receive the message will stop
    /// their current computation" — except losers first finish anything
    /// that could still undercut the winner). Returns the winning nonce
    /// and the total number of hashes evaluated across all workers.
    pub fn search_parallel<F>(
        &self,
        threads: usize,
        budget_per_thread: u64,
        hash_with_nonce: F,
    ) -> (Option<u64>, u64)
    where
        F: Fn(u64) -> Digest + Sync,
    {
        let threads = threads.max(1);
        let total = (threads as u64).saturating_mul(budget_per_thread);
        self.search_range_parallel(threads, total, hash_with_nonce)
    }

    /// Deterministic parallel search over exactly `[0, total)` (the core
    /// behind [`Self::search_parallel`]; see there for the scheme). An
    /// exact total lets callers with a fixed hash budget keep it precise
    /// regardless of the worker count.
    fn search_range_parallel<F>(
        &self,
        threads: usize,
        total: u64,
        hash_with_nonce: F,
    ) -> (Option<u64>, u64)
    where
        F: Fn(u64) -> Digest + Sync,
    {
        let threads = threads.max(1);
        if threads == 1 {
            let found = self.search(0, total, &hash_with_nonce);
            // Mirror the parallel accounting: a found nonce means nonce+1
            // hashes were spent; exhaustion means the whole budget was.
            let hashes = found.map_or(total, |n| n + 1);
            return (found, hashes);
        }
        let per_thread = (total / threads as u64).max(1);
        let block = PARALLEL_SEARCH_BLOCK.min(per_thread);
        let blocks = total.div_ceil(block);
        let best = AtomicU64::new(u64::MAX);
        let total_hashes = AtomicU64::new(0);

        std::thread::scope(|scope| {
            for worker in 0..threads as u64 {
                let hash_fn = &hash_with_nonce;
                let best = &best;
                let total_hashes = &total_hashes;
                let config = *self;
                scope.spawn(move || {
                    let mut local_hashes = 0u64;
                    let mut index = worker;
                    while index < blocks {
                        let start = index * block;
                        // Nothing in this block (or any later one of this
                        // worker) can undercut the published winner.
                        if start > best.load(Ordering::Acquire) {
                            break;
                        }
                        let end = (start + block).min(total);
                        for nonce in start..end {
                            local_hashes += 1;
                            if config.meets_target(&hash_fn(nonce)) {
                                best.fetch_min(nonce, Ordering::AcqRel);
                                break;
                            }
                        }
                        index += threads as u64;
                    }
                    total_hashes.fetch_add(local_hashes, Ordering::Relaxed);
                });
            }
        });

        let winner = best.load(Ordering::Acquire);
        let winner = if winner == u64::MAX {
            None
        } else {
            Some(winner)
        };
        (winner, total_hashes.load(Ordering::Relaxed))
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

    /// Multi-threaded nonce search over `header` through its midstate
    /// (each worker hashes via a clone of it, so the 96-byte prefix is
    /// compressed once for the whole race), over exactly the nonce range
    /// `[0, budget)` — the same range the serial [`Self::search_header`]
    /// scans — so consensus mining covers an identical search space at
    /// every worker count.
    pub fn search_header_parallel_budget(
        &self,
        header: &BlockHeader,
        threads: usize,
        budget: u64,
    ) -> (Option<u64>, u64) {
        let midstate: PowMidstate = header.pow_midstate();
        self.search_range_parallel(threads, budget, move |nonce| {
            midstate.hash_with_nonce(nonce)
        })
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

    #[test]
    fn parallel_search_finds_valid_nonce_and_counts_hashes() {
        let config = PowConfig::new(64);
        let (nonce, hashes) = config.search_parallel(4, 250_000, header_hash);
        let nonce = nonce.expect("parallel search must find a difficulty-64 solution");
        assert!(config.meets_target(&header_hash(nonce)));
        assert!(hashes > 0);
    }

    #[test]
    fn parallel_search_is_deterministic_and_matches_serial() {
        let config = PowConfig::new(256);
        let serial = config.search(0, 1_000_000, header_hash);
        assert!(serial.is_some());
        // The deterministic parallel search returns the smallest
        // satisfying nonce of the covered range — i.e. exactly what the
        // serial scan finds — for every worker count.
        for threads in [1usize, 2, 3, 4] {
            let per_thread = 1_000_000u64.div_ceil(threads as u64);
            for _ in 0..3 {
                let (nonce, _) = config.search_parallel(threads, per_thread, header_hash);
                assert_eq!(nonce, serial, "threads={threads}");
            }
        }
    }

    #[test]
    fn mining_threads_knob_resolves() {
        assert_eq!(PowConfig::new(8).mining_threads, 1);
        assert_eq!(PowConfig::new(8).effective_mining_threads(), 1);
        let parallel = PowConfig::new(8).with_mining_threads(3);
        assert_eq!(parallel.effective_mining_threads(), 3);
        assert_eq!(parallel.difficulty, 8);
        // 0 resolves to the machine's parallelism, never zero.
        assert!(
            PowConfig::new(8)
                .with_mining_threads(0)
                .effective_mining_threads()
                >= 1
        );
    }

    #[test]
    fn parallel_search_with_impossible_target_exhausts_budget() {
        let config = PowConfig::new(u64::MAX / 2);
        let (nonce, hashes) = config.search_parallel(2, 50, header_hash);
        assert!(nonce.is_none());
        assert_eq!(hashes, 100);
    }

    #[test]
    fn parallel_search_with_zero_threads_is_clamped() {
        let config = PowConfig::new(16);
        let (nonce, _) = config.search_parallel(0, 100_000, header_hash);
        assert!(nonce.is_some());
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

    #[test]
    fn parallel_header_search_finds_valid_nonce() {
        let header = sample_header();
        let config = PowConfig::new(64);
        let (nonce, hashes) = config.search_header_parallel_budget(&header, 4, 1_000_000);
        let nonce = nonce.expect("difficulty 64 must be solvable");
        assert!(config.meets_target(&header.hash_with_nonce(nonce)));
        assert!(hashes > 0);
    }
}
