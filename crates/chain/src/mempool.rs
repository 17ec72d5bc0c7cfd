//! Pending-transaction pool with block-size-limited draining.
//!
//! Vanilla BFL records every local gradient on chain. When the number of
//! clients grows, the per-round transaction volume crosses the block-size
//! limit and transactions queue up across multiple blocks — the
//! "transaction queuing ... regarded as a scalability issue" that makes the
//! blockchain baseline's delay overtake FAIR-BFL in Figure 6a. The
//! [`Mempool`] models exactly that: admission, FIFO ordering, and draining
//! into block-sized batches. It does not check signatures: a miner
//! verifies an upload through its [`bfl_crypto::KeyStore`] before it
//! submits the transaction.
//!
//! It is the vanilla-BFL / chain-only queue and nothing else. FAIR-BFL's
//! own rounds never put a local gradient in a block (Assumption 2), so the
//! event engine's miners keep their pending uploads decoded, in the
//! engine's own per-client pool (`bfl_core::events`), and this type has no
//! part in them.

use crate::transaction::Transaction;
use std::collections::VecDeque;

/// A FIFO pool of transactions waiting to be packed into blocks.
#[derive(Debug, Clone, Default)]
pub struct Mempool {
    pending: VecDeque<Transaction>,
}

impl Mempool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending transactions.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits a transaction without verification.
    pub fn submit(&mut self, tx: Transaction) {
        self.pending.push_back(tx);
    }

    /// Drains the oldest transactions that fit within `max_block_bytes`
    /// (accounting for the block header overhead), preserving FIFO order.
    ///
    /// Always returns at least one transaction if the pool is non-empty,
    /// even if that single transaction exceeds the limit on its own —
    /// otherwise an oversized gradient would wedge the queue forever.
    pub fn drain_block(&mut self, max_block_bytes: usize) -> Vec<Transaction> {
        const HEADER_BYTES: usize = 104;
        let mut batch = Vec::new();
        let mut used = HEADER_BYTES;
        while let Some(tx) = self.pending.front() {
            let tx_size = tx.size_bytes();
            if batch.is_empty() || used + tx_size <= max_block_bytes {
                used += tx_size;
                batch.push(self.pending.pop_front().expect("front exists"));
                if used > max_block_bytes {
                    break;
                }
            } else {
                break;
            }
        }
        batch
    }

    /// Discards everything (used when a round is abandoned).
    pub fn clear(&mut self) {
        self.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient_tx(client: u64, bytes: usize) -> Transaction {
        Transaction::local_gradient(client, 1, vec![0u8; bytes])
    }

    #[test]
    fn submit_and_len() {
        let mut pool = Mempool::new();
        assert!(pool.is_empty());
        pool.submit(gradient_tx(1, 10));
        pool.submit(gradient_tx(2, 10));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn drain_respects_block_size_and_fifo_order() {
        let mut pool = Mempool::new();
        for client in 0..10u64 {
            pool.submit(gradient_tx(client, 1000));
        }
        // Each tx is ~1096 bytes; a 4 KiB block fits 3 of them.
        let batch = pool.drain_block(4096);
        assert_eq!(batch.len(), 3);
        match &batch[0].kind {
            crate::transaction::TransactionKind::LocalGradient { client_id, .. } => {
                assert_eq!(*client_id, 0)
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pool.len(), 7);
    }

    #[test]
    fn oversized_transaction_still_drains_alone() {
        let mut pool = Mempool::new();
        pool.submit(gradient_tx(1, 100_000));
        pool.submit(gradient_tx(2, 10));
        let batch = pool.drain_block(1024);
        assert_eq!(batch.len(), 1);
        assert_eq!(pool.len(), 1);
    }

    /// An unbounded block is a drain of everything. (`drain_all`, which the
    /// name comes from, went with the event engine's second pool.)
    #[test]
    fn drain_all_empties_the_pool_in_fifo_order() {
        let mut pool = Mempool::new();
        for client in 0..5u64 {
            pool.submit(gradient_tx(client, 100_000));
        }
        let drained = pool.drain_block(usize::MAX);
        assert!(pool.is_empty());
        let ids: Vec<u64> = drained.iter().map(|tx| tx.submitter).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(pool.drain_block(usize::MAX).is_empty());
    }

    #[test]
    fn clear_empties_the_pool() {
        let mut pool = Mempool::new();
        pool.submit(gradient_tx(1, 10));
        pool.clear();
        assert!(pool.is_empty());
    }
}
