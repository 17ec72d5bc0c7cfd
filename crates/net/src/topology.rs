//! Client/miner topology and the per-round client→miner association.
//!
//! Procedure-II: "the client C_i generates the miner's index k uniformly
//! and randomly, then it associates the miner S_k and uploads the updated
//! gradient" — each selected client talks to exactly one uniformly chosen
//! miner per round, and the miners form a full mesh among themselves.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// The static shape of the deployment: how many clients and miners exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    /// Number of federated clients (workers), `n` in the paper.
    pub clients: usize,
    /// Number of miners (servers), `m` in the paper.
    pub miners: usize,
}

impl Topology {
    /// Creates a topology; both counts must be positive.
    pub fn new(clients: usize, miners: usize) -> Self {
        assert!(clients > 0, "need at least one client");
        assert!(miners > 0, "need at least one miner");
        Topology { clients, miners }
    }

    /// Uniformly associates each of the given clients with a miner for one
    /// round. Returns `assignments[i] = miner index` aligned with `clients`.
    pub fn associate_clients<R: Rng + ?Sized>(&self, clients: &[u64], rng: &mut R) -> Vec<usize> {
        clients
            .iter()
            .map(|_| rng.gen_range(0..self.miners))
            .collect()
    }

    /// Associates a single client with a miner: the allocation-free form
    /// of [`associate_clients`](Self::associate_clients) for one-upload
    /// call sites (the event engine's send path). Draws exactly one
    /// `gen_range`, identical to a one-element batch, so traces and
    /// learning trajectories are unchanged.
    pub fn associate_one<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        rng.gen_range(0..self.miners)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "at least one miner")]
    fn zero_miners_rejected() {
        let _ = Topology::new(10, 0);
    }

    #[test]
    fn association_is_uniformish_and_in_range() {
        let t = Topology::new(1000, 4);
        let clients: Vec<u64> = (0..1000).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let assignment = t.associate_clients(&clients, &mut rng);
        assert_eq!(assignment.len(), 1000);
        let mut counts = vec![0usize; 4];
        for &m in &assignment {
            assert!(m < 4);
            counts[m] += 1;
        }
        // Each miner should get roughly a quarter of the clients.
        for &c in &counts {
            assert!(c > 150 && c < 350, "unbalanced assignment: {counts:?}");
        }
    }

    #[test]
    fn associate_one_matches_batch_draw_for_draw() {
        let t = Topology::new(100, 4);
        let clients: Vec<u64> = (0..50).collect();
        let mut batch_rng = StdRng::seed_from_u64(9);
        let mut single_rng = StdRng::seed_from_u64(9);
        let batch = t.associate_clients(&clients, &mut batch_rng);
        let singles: Vec<usize> = clients
            .iter()
            .map(|_| t.associate_one(&mut single_rng))
            .collect();
        assert_eq!(batch, singles);
    }
}
