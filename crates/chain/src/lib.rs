//! # bfl-chain
//!
//! Proof-of-work blockchain ledger substrate for the FAIR-BFL reproduction.
//!
//! The paper's Procedure-V ("Block Mining and Consensus", Section 4.5) has
//! every miner race to solve `H(nonce + Block) < Target = Target_1 /
//! difficulty` (Equation 4); the winner packs the round's global gradient
//! plus the reward list into a new block and broadcasts it, and all miners
//! append it after verification. The vanilla-BFL baseline additionally
//! records *every local gradient* on chain, which makes block size, the
//! mempool queue and fork resolution matter — those effects drive Figures
//! 4a, 6a and 6b of the evaluation.
//!
//! Modules:
//!
//! * [`transaction`] — the three transaction kinds BFL ledgers carry
//!   (global gradients, local gradients, rewards) plus size accounting.
//! * [`merkle`] — Merkle root over transaction ids.
//! * [`block`] — block headers, block hashing, genesis construction.
//! * [`pow`] — difficulty/target arithmetic, the one (serial) nonce search,
//!   and the analytic expected-hash-count model.
//! * [`mempool`] — a size-limited pending-transaction pool that models the
//!   transaction queuing of vanilla BFL.
//! * [`chain`] — the append-only validated chain with reorg support;
//!   replicas share sealed blocks (`Arc<Block>`) and validate each for
//!   themselves.
//! * [`miner`] — a miner identity with a hash rate, used both for real
//!   nonce searches and for sampling simulated mining times.
//! * [`fork`] — the fork-probability and fork-resolution-delay model used
//!   by the vanilla-blockchain baseline (Figure 6b).
//! * [`consensus`] — round-synchronized winner selection and longest-chain
//!   resolution.

#![warn(missing_docs)]

pub mod block;
pub mod chain;
pub mod consensus;
pub mod error;
pub mod fork;
pub mod mempool;
pub mod merkle;
pub mod miner;
pub mod pow;
pub mod transaction;

pub use block::{Block, BlockHeader, PowMidstate};
pub use chain::Blockchain;
pub use consensus::{ConsensusOutcome, RoundConsensus};
pub use error::ChainError;
pub use fork::ForkModel;
pub use mempool::Mempool;
pub use miner::{Miner, MiningOutcome};
pub use pow::{Difficulty, PowConfig};
pub use transaction::{Transaction, TransactionKind};
