//! Procedure-III: exchanging gradients among miners (paper Section 4.3).
//!
//! Every miner broadcasts its own gradient set and appends any transaction
//! it has not seen from the others; thanks to the tight coupling of
//! Assumption 1 there is no queuing, and at the end of the procedure every
//! miner holds the identical complete gradient set `W^k_{r+1}`.

use crate::procedures::upload::{UploadOutcome, VerifiedUpload};
use std::collections::BTreeMap;

/// The result of the exchange: every miner's now-identical gradient set.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeOutcome {
    /// The merged gradient set, ordered by client id.
    pub merged: Vec<VerifiedUpload>,
    /// Per-miner copies after the exchange (identical by construction; kept
    /// for invariant checking).
    pub per_miner: BTreeMap<usize, Vec<u64>>,
}

/// Runs Procedure-III over the per-miner upload sets for `miners` miners.
///
/// Miners that received no uploads still participate in the exchange and
/// end up with the full merged set. Consumes the upload outcome: the
/// merge moves each accepted upload (and its parameter vector) exactly
/// once instead of deep-cloning the round's gradient set.
pub fn exchange_gradients(uploads: UploadOutcome, miners: usize) -> ExchangeOutcome {
    let merged = uploads.into_all_accepted();
    let ids: Vec<u64> = merged.iter().map(|u| u.client_id).collect();
    let per_miner: BTreeMap<usize, Vec<u64>> =
        (0..miners.max(1)).map(|m| (m, ids.clone())).collect();
    ExchangeOutcome { merged, per_miner }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_net::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uploads(clients: usize, miners: usize) -> UploadOutcome {
        use bfl_fl::client::LocalUpdate;
        use bfl_ml::optimizer::LocalTrainingStats;
        let updates: Vec<LocalUpdate> = (0..clients as u64)
            .map(|id| {
                let stats = LocalTrainingStats {
                    steps: 1,
                    final_epoch_loss: 0.1,
                };
                LocalUpdate::new(id, vec![id as f64], false, stats)
            })
            .collect();
        let topology = Topology::new(clients.max(1), miners);
        let mut rng = StdRng::seed_from_u64(5);
        crate::procedures::upload::upload_gradients(&updates, &topology, None, None, &mut rng)
    }

    /// Procedure-III's postcondition: every miner holds the merged set's
    /// client ids.
    fn assert_every_miner_holds_the_merged_set(outcome: &ExchangeOutcome) {
        let merged: Vec<u64> = outcome.merged.iter().map(|u| u.client_id).collect();
        assert!(outcome.per_miner.values().all(|ids| *ids == merged));
    }

    #[test]
    fn all_miners_end_with_the_same_complete_set() {
        let outcome = exchange_gradients(uploads(20, 4), 4);
        assert_eq!(outcome.merged.len(), 20);
        assert_every_miner_holds_the_merged_set(&outcome);
        assert_eq!(outcome.per_miner.len(), 4);
        for ids in outcome.per_miner.values() {
            assert_eq!(ids.len(), 20);
        }
        // Merged set is ordered by client id with no duplicates.
        assert!(outcome
            .merged
            .windows(2)
            .all(|w| w[0].client_id < w[1].client_id));
    }

    #[test]
    fn empty_round_is_handled() {
        let outcome = exchange_gradients(UploadOutcome::default(), 3);
        assert!(outcome.merged.is_empty());
        assert_every_miner_holds_the_merged_set(&outcome);
    }

    #[test]
    fn single_miner_degenerate_case() {
        let outcome = exchange_gradients(uploads(5, 1), 1);
        assert_eq!(outcome.merged.len(), 5);
        assert_every_miner_holds_the_merged_set(&outcome);
    }
}
