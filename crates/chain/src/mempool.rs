//! Pending-transaction pool with block-size-limited draining.
//!
//! Vanilla BFL records every local gradient on chain. When the number of
//! clients grows, the per-round transaction volume crosses the block-size
//! limit and transactions queue up across multiple blocks — the
//! "transaction queuing ... regarded as a scalability issue" that makes the
//! blockchain baseline's delay overtake FAIR-BFL in Figure 6a. The
//! [`Mempool`] models exactly that: admission (with optional signature
//! verification against a [`bfl_crypto::KeyStore`]), FIFO ordering, and
//! draining into block-sized batches.

use crate::transaction::{Transaction, TransactionKind};
use bfl_crypto::{CryptoError, KeyStore, SignedMessage};
use std::collections::{BTreeSet, VecDeque};

/// A FIFO pool of transactions waiting to be packed into blocks.
///
/// Local-gradient uploads are additionally keyed by `(round, client)`:
/// when the network retries a lost upload *and* the original copy turns
/// out to have been delivered after all (or a faulty link duplicates the
/// send), the second arrival is recognised and ignored instead of
/// double-counting in aggregation.
#[derive(Debug, Clone, Default)]
pub struct Mempool {
    pending: VecDeque<Transaction>,
    /// `(round, client)` keys of the pending local-gradient uploads.
    upload_keys: BTreeSet<(u64, u64)>,
}

/// The `(round, client)` dedup key of a local-gradient upload; `None`
/// for transaction kinds that are never retransmitted.
fn upload_key(tx: &Transaction) -> Option<(u64, u64)> {
    match &tx.kind {
        TransactionKind::LocalGradient {
            round, client_id, ..
        } => Some((*round, *client_id)),
        _ => None,
    }
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

    /// Total size of all pending transactions in bytes.
    pub fn pending_bytes(&self) -> usize {
        self.pending.iter().map(Transaction::size_bytes).sum()
    }

    /// Admits a transaction without verification.
    pub fn submit(&mut self, tx: Transaction) {
        if let Some(key) = upload_key(&tx) {
            self.upload_keys.insert(key);
        }
        self.pending.push_back(tx);
    }

    /// Admits a transaction after verifying its carrier signature against
    /// the registered public key of the claimed signer.
    ///
    /// `envelope` is the signed message that carried `tx` over the network;
    /// the mempool does not interpret its payload, it only checks the
    /// signature (the paper's Figure 2 verification step).
    ///
    /// Returns `Ok(true)` when the transaction was admitted and
    /// `Ok(false)` when it was a retransmit of a pending local-gradient
    /// upload for the same `(round, client)` and was ignored.
    pub fn submit_signed(
        &mut self,
        tx: Transaction,
        envelope: &SignedMessage,
        keys: &KeyStore,
    ) -> Result<bool, CryptoError> {
        keys.verify(envelope)?;
        Ok(self.submit_verified(tx))
    }

    /// Admits a transaction whose carrier signature the caller has already
    /// verified against the signer's registered key — the event engine
    /// checks detached signatures itself
    /// ([`KeyStore::verify_detached`]) and builds the transaction only for
    /// uploads that pass. Returns `false` when `tx` is a retransmit of a
    /// pending local-gradient upload for the same `(round, client)` and was
    /// ignored.
    pub fn submit_verified(&mut self, tx: Transaction) -> bool {
        if let Some(key) = upload_key(&tx) {
            if !self.upload_keys.insert(key) {
                return false;
            }
        }
        self.pending.push_back(tx);
        true
    }

    /// Removes the pending local-gradient upload of `(round, client)`,
    /// returning it when one was pending. Models a miner crash losing
    /// (part of) its mempool.
    pub fn remove_upload(&mut self, round: u64, client: u64) -> Option<Transaction> {
        if !self.upload_keys.remove(&(round, client)) {
            return None;
        }
        let position = self
            .pending
            .iter()
            .position(|tx| upload_key(tx) == Some((round, client)))
            .expect("keyed upload is pending");
        self.pending.remove(position)
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
                let tx = self.pending.pop_front().expect("front exists");
                if let Some(key) = upload_key(&tx) {
                    self.upload_keys.remove(&key);
                }
                batch.push(tx);
                if used > max_block_bytes {
                    break;
                }
            } else {
                break;
            }
        }
        batch
    }

    /// Drains every pending transaction in FIFO order, regardless of
    /// block-size limits.
    ///
    /// This is the miner-side drain of FAIR-BFL's flexible-block round:
    /// under Assumption 2 the sealed block carries only the *global*
    /// gradient, so the pending local-gradient uploads are consumed as a
    /// working set when the quota fires rather than packed into blocks.
    pub fn drain_all(&mut self) -> Vec<Transaction> {
        self.upload_keys.clear();
        self.pending.drain(..).collect()
    }

    /// How many blocks of size `max_block_bytes` are needed to clear the
    /// current backlog. Used by the vanilla-BFL delay model.
    pub fn blocks_needed(&self, max_block_bytes: usize) -> usize {
        if self.pending.is_empty() {
            return 0;
        }
        let mut clone = self.clone();
        let mut blocks = 0;
        while !clone.is_empty() {
            clone.drain_block(max_block_bytes);
            blocks += 1;
        }
        blocks
    }

    /// Discards everything (used when a round is abandoned).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.upload_keys.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_crypto::signature::sign_message;
    use bfl_crypto::RsaKeyPair;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        assert!(pool.pending_bytes() > 20);
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

    #[test]
    fn blocks_needed_matches_manual_draining() {
        let mut pool = Mempool::new();
        for client in 0..20u64 {
            pool.submit(gradient_tx(client, 1000));
        }
        let needed = pool.blocks_needed(4096);
        let mut count = 0;
        while !pool.is_empty() {
            pool.drain_block(4096);
            count += 1;
        }
        assert_eq!(needed, count);
        assert_eq!(pool.blocks_needed(4096), 0);
    }

    #[test]
    fn drain_all_empties_the_pool_in_fifo_order() {
        let mut pool = Mempool::new();
        for client in 0..5u64 {
            pool.submit(gradient_tx(client, 100_000));
        }
        let drained = pool.drain_all();
        assert!(pool.is_empty());
        assert_eq!(drained.len(), 5);
        let ids: Vec<u64> = drained
            .iter()
            .map(|tx| match &tx.kind {
                crate::transaction::TransactionKind::LocalGradient { client_id, .. } => *client_id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert!(pool.drain_all().is_empty());
    }

    #[test]
    fn clear_empties_the_pool() {
        let mut pool = Mempool::new();
        pool.submit(gradient_tx(1, 10));
        pool.clear();
        assert!(pool.is_empty());
    }

    #[test]
    fn signed_submission_requires_valid_signature() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(42);
        let pairs = store.provision(&mut rng, &[1, 2], 256).unwrap();

        let mut pool = Mempool::new();
        let tx = gradient_tx(1, 16);
        let envelope = sign_message(1, b"serialized gradient", &pairs[&1].private);
        pool.submit_signed(tx.clone(), &envelope, &store).unwrap();
        assert_eq!(pool.len(), 1);

        // Client 2 forging client 1's identity is rejected.
        let forged = sign_message(1, b"poison", &pairs[&2].private);
        let err = pool.submit_signed(tx, &forged, &store).unwrap_err();
        assert_eq!(err, CryptoError::InvalidSignature);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn retransmitted_upload_is_deduplicated_by_round_and_client() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(44);
        let pairs = store.provision(&mut rng, &[1, 2], 256).unwrap();

        let mut pool = Mempool::new();
        let tx = gradient_tx(1, 16);
        let envelope = sign_message(1, b"upload r1", &pairs[&1].private);
        assert!(pool.submit_signed(tx.clone(), &envelope, &store).unwrap());
        // The retry + the duplicated link both deliver the same upload
        // again: recognised and ignored, not double-counted.
        assert!(!pool.submit_signed(tx.clone(), &envelope, &store).unwrap());
        assert!(!pool.submit_signed(tx, &envelope, &store).unwrap());
        assert_eq!(pool.len(), 1);

        // A different client or a different round is not a duplicate.
        let other_client = gradient_tx(2, 16);
        let env2 = sign_message(2, b"upload r1", &pairs[&2].private);
        assert!(pool.submit_signed(other_client, &env2, &store).unwrap());
        let later_round = Transaction::local_gradient(1, 2, vec![0u8; 16]);
        assert!(pool.submit_signed(later_round, &envelope, &store).unwrap());
        assert_eq!(pool.len(), 3);

        // Draining frees the keys: a fresh upload for the same round is
        // admissible again (a new block's working set).
        let drained = pool.drain_all();
        assert_eq!(drained.len(), 3);
        let tx = gradient_tx(1, 16);
        assert!(pool.submit_signed(tx, &envelope, &store).unwrap());
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn remove_upload_models_a_lost_mempool_entry() {
        let mut pool = Mempool::new();
        pool.submit(gradient_tx(1, 16));
        pool.submit(Transaction::local_gradient(2, 1, vec![0u8; 16]));
        pool.submit(Transaction::reward(9, 1, 2, 100));

        // Unknown key: no-op.
        assert!(pool.remove_upload(1, 7).is_none());
        assert_eq!(pool.len(), 3);

        let removed = pool.remove_upload(1, 2).unwrap();
        match &removed.kind {
            TransactionKind::LocalGradient { client_id, .. } => assert_eq!(*client_id, 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(pool.len(), 2);
        // Removed means re-admissible.
        pool.submit(Transaction::local_gradient(2, 1, vec![0u8; 16]));
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn unknown_signer_is_rejected() {
        let store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(43);
        let pair = RsaKeyPair::generate(&mut rng, 256).unwrap();
        let mut pool = Mempool::new();
        let envelope = sign_message(7, b"payload", &pair.private);
        let err = pool
            .submit_signed(gradient_tx(7, 4), &envelope, &store)
            .unwrap_err();
        assert_eq!(err, CryptoError::UnknownSigner(7));
    }

    mod corruption_properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// One provisioned signer shared across proptest cases (RSA key
        /// generation is the expensive part).
        fn signer() -> &'static (KeyStore, bfl_crypto::RsaKeyPair) {
            static SIGNER: OnceLock<(KeyStore, bfl_crypto::RsaKeyPair)> = OnceLock::new();
            SIGNER.get_or_init(|| {
                let mut store = KeyStore::new();
                let mut rng = StdRng::seed_from_u64(0xC0FFEE);
                let pairs = store.provision(&mut rng, &[1], 256).unwrap();
                let pair = pairs[&1].clone();
                (store, pair)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Any single-byte corruption of a signed upload in transit is
            /// rejected by `submit_signed` — the signature check is the
            /// fault detector for corrupt-bytes link faults.
            #[test]
            fn single_byte_corruption_is_rejected(
                payload in proptest::collection::vec(any::<u8>(), 1..64),
                index_seed in any::<usize>(),
                flip in 1u8..=255,
            ) {
                let (store, pair) = signer();
                let mut envelope = sign_message(1, &payload, &pair.private);
                let index = index_seed % envelope.payload.len();
                envelope.payload[index] ^= flip;

                let mut pool = Mempool::new();
                let err = pool
                    .submit_signed(gradient_tx(1, 16), &envelope, store)
                    .unwrap_err();
                prop_assert_eq!(err, CryptoError::InvalidSignature);
                prop_assert!(pool.is_empty());
            }
        }
    }
}
