//! BFL ledger transactions.
//!
//! Three kinds of payload appear in a BFL ledger:
//!
//! * **Global gradients** — under FAIR-BFL's Assumption 2, a block contains
//!   exactly one of these per communication round.
//! * **Local gradients** — only recorded by the *vanilla* BFL baseline,
//!   which writes every client's update on chain and therefore suffers from
//!   block-size-limited queuing (Section 5.2.3 / Figure 6a).
//! * **Rewards** — the ⟨client, θ_i/Σθ_k · base⟩ entries produced by the
//!   contribution-based incentive mechanism (Algorithm 2) and appended to
//!   the winner's block.
//!
//! Amounts are carried in milli-units of the reward `base` so that the
//! ledger stays integer-only and hash-stable.

use bfl_crypto::sha256::{Digest, Sha256};
use serde::{Deserialize, Serialize};

/// The payload variants a BFL transaction can carry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TransactionKind {
    /// The aggregated global gradient of a communication round.
    GlobalGradient {
        /// Communication round the gradient belongs to.
        round: u64,
        /// Serialized gradient payload (opaque to the ledger).
        payload: Vec<u8>,
    },
    /// A single client's local gradient (vanilla BFL only).
    LocalGradient {
        /// Communication round the gradient belongs to.
        round: u64,
        /// Uploading client.
        client_id: u64,
        /// Serialized gradient payload (opaque to the ledger).
        payload: Vec<u8>,
    },
    /// A reward issued to a client for its contribution in a round.
    Reward {
        /// Communication round the reward was earned in.
        round: u64,
        /// Rewarded client.
        client_id: u64,
        /// Reward amount in milli-units of the configured base.
        amount_milli: u64,
    },
}

/// A ledger transaction: a payload kind plus the id of its submitter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transaction {
    /// Entity that submitted the transaction (client or miner id).
    pub submitter: u64,
    /// The payload.
    pub kind: TransactionKind,
}

impl Transaction {
    /// Creates a global-gradient transaction (submitted by the winning miner).
    pub fn global_gradient(miner_id: u64, round: u64, payload: Vec<u8>) -> Self {
        Transaction {
            submitter: miner_id,
            kind: TransactionKind::GlobalGradient { round, payload },
        }
    }

    /// Creates a local-gradient transaction (vanilla BFL).
    pub fn local_gradient(client_id: u64, round: u64, payload: Vec<u8>) -> Self {
        Transaction {
            submitter: client_id,
            kind: TransactionKind::LocalGradient {
                round,
                client_id,
                payload,
            },
        }
    }

    /// Creates a reward transaction.
    pub fn reward(miner_id: u64, round: u64, client_id: u64, amount_milli: u64) -> Self {
        Transaction {
            submitter: miner_id,
            kind: TransactionKind::Reward {
                round,
                client_id,
                amount_milli,
            },
        }
    }

    /// The communication round this transaction belongs to.
    pub fn round(&self) -> u64 {
        match &self.kind {
            TransactionKind::GlobalGradient { round, .. }
            | TransactionKind::LocalGradient { round, .. }
            | TransactionKind::Reward { round, .. } => *round,
        }
    }

    /// Approximate serialized size in bytes, used for block-size accounting.
    ///
    /// The constant overhead models the transaction envelope (ids, round,
    /// signature) so that even payload-free reward transactions consume
    /// block space.
    pub fn size_bytes(&self) -> usize {
        const ENVELOPE_BYTES: usize = 96;
        let payload = match &self.kind {
            TransactionKind::GlobalGradient { payload, .. }
            | TransactionKind::LocalGradient { payload, .. } => payload.len(),
            TransactionKind::Reward { .. } => 16,
        };
        ENVELOPE_BYTES + payload
    }

    /// Stable content hash used as the transaction id and Merkle leaf:
    /// SHA-256 of `submitter ‖ tag ‖ round ‖ …` (all integers big-endian,
    /// a gradient's payload last). The fields are streamed into the hasher
    /// one by one — the payload from where it lies — so an id costs no
    /// allocation.
    pub fn id(&self) -> Digest {
        let mut hasher = Sha256::new();
        hasher.update(&self.submitter.to_be_bytes());
        match &self.kind {
            TransactionKind::GlobalGradient { round, payload } => {
                hasher.update(&[0]);
                hasher.update(&round.to_be_bytes());
                hasher.update(payload);
            }
            TransactionKind::LocalGradient {
                round,
                client_id,
                payload,
            } => {
                hasher.update(&[1]);
                hasher.update(&round.to_be_bytes());
                hasher.update(&client_id.to_be_bytes());
                hasher.update(payload);
            }
            TransactionKind::Reward {
                round,
                client_id,
                amount_milli,
            } => {
                hasher.update(&[2]);
                hasher.update(&round.to_be_bytes());
                hasher.update(&client_id.to_be_bytes());
                hasher.update(&amount_milli.to_be_bytes());
            }
        }
        hasher.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_crypto::sha256::sha256;
    use proptest::prelude::*;

    /// The id's preimage, materialised — the form `id()` had before it
    /// streamed, kept as its oracle.
    fn id_preimage(tx: &Transaction) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&tx.submitter.to_be_bytes());
        match &tx.kind {
            TransactionKind::GlobalGradient { round, payload } => {
                bytes.push(0);
                bytes.extend_from_slice(&round.to_be_bytes());
                bytes.extend_from_slice(payload);
            }
            TransactionKind::LocalGradient {
                round,
                client_id,
                payload,
            } => {
                bytes.push(1);
                bytes.extend_from_slice(&round.to_be_bytes());
                bytes.extend_from_slice(&client_id.to_be_bytes());
                bytes.extend_from_slice(payload);
            }
            TransactionKind::Reward {
                round,
                client_id,
                amount_milli,
            } => {
                bytes.push(2);
                bytes.extend_from_slice(&round.to_be_bytes());
                bytes.extend_from_slice(&client_id.to_be_bytes());
                bytes.extend_from_slice(&amount_milli.to_be_bytes());
            }
        }
        bytes
    }

    /// Payload lengths that put the 17- and 25-byte heads on either side
    /// of SHA-256's padding and block edges, plus the paper model's
    /// serialized gradient.
    const PAYLOAD_LENS: [usize; 11] = [0, 38, 39, 40, 55, 56, 57, 63, 64, 65, 62_800];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn streamed_id_is_sha256_of_the_materialised_preimage(
            submitter in any::<u64>(),
            round in any::<u64>(),
            client_id in any::<u64>(),
            amount_milli in any::<u64>(),
            fill in any::<u8>(),
        ) {
            let reward = Transaction::reward(submitter, round, client_id, amount_milli);
            prop_assert_eq!(reward.id(), sha256(&id_preimage(&reward)));
            for len in PAYLOAD_LENS {
                let payload: Vec<u8> = (0..len)
                    .map(|i| fill.wrapping_add((i as u8).wrapping_mul(31)))
                    .collect();
                let global = Transaction::global_gradient(submitter, round, payload.clone());
                let mut local = Transaction::local_gradient(client_id, round, payload);
                local.submitter = submitter;
                prop_assert_eq!(global.id(), sha256(&id_preimage(&global)), "global, {} bytes", len);
                prop_assert_eq!(local.id(), sha256(&id_preimage(&local)), "local, {} bytes", len);
            }
        }
    }

    #[test]
    fn constructors_set_fields() {
        let g = Transaction::global_gradient(1, 7, vec![1, 2, 3]);
        assert_eq!(g.round(), 7);
        assert_eq!(g.submitter, 1);
        assert!(matches!(g.kind, TransactionKind::GlobalGradient { .. }));

        let l = Transaction::local_gradient(5, 3, vec![9]);
        assert_eq!(l.round(), 3);
        match &l.kind {
            TransactionKind::LocalGradient { client_id, .. } => assert_eq!(*client_id, 5),
            other => panic!("unexpected kind {other:?}"),
        }

        let r = Transaction::reward(2, 4, 8, 1500);
        assert_eq!(r.round(), 4);
        assert!(matches!(r.kind, TransactionKind::Reward { .. }));
    }

    #[test]
    fn size_accounts_for_payload_and_envelope() {
        let small = Transaction::reward(1, 1, 1, 10);
        let big = Transaction::local_gradient(1, 1, vec![0u8; 10_000]);
        assert!(small.size_bytes() >= 96);
        assert!(big.size_bytes() > 10_000);
        assert!(big.size_bytes() < 10_000 + 200);
    }

    #[test]
    fn ids_are_stable_and_distinguish_content() {
        let a = Transaction::reward(1, 2, 3, 100);
        let b = Transaction::reward(1, 2, 3, 100);
        let c = Transaction::reward(1, 2, 3, 101);
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), c.id());

        let g = Transaction::global_gradient(1, 2, vec![3]);
        let l = Transaction::local_gradient(1, 2, vec![3]);
        assert_ne!(g.id(), l.id(), "kind tag must participate in the id");
    }

    #[test]
    fn serde_round_trip() {
        let tx = Transaction::local_gradient(11, 22, vec![1, 2, 3, 4]);
        let json = serde_json::to_string(&tx).unwrap();
        let back: Transaction = serde_json::from_str(&json).unwrap();
        assert_eq!(back, tx);
        assert_eq!(back.id(), tx.id());
    }
}
