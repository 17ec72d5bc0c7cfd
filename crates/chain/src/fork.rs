//! Forking model for the vanilla-blockchain baseline.
//!
//! The paper observes that in loosely-coupled BFL "forking is inevitable"
//! and that, as more miners join the competition, "the probability of
//! forking will significantly increase, which will take more time to merge
//! conflicts" — that is what makes the blockchain baseline's delay grow
//! roughly exponentially with the number of miners in Figure 6b.
//!
//! The model here is the standard race analysis: a fork happens when a
//! second miner solves the puzzle within the block-propagation window after
//! the first solution. With `m` miners of equal hash power `h`, total rate
//! `λ = m·h / difficulty`, and propagation delay `τ`, the probability that
//! at least one of the remaining `m−1` miners also solves within `τ` is
//! `1 − exp(−λ·τ·(m−1)/m)`. Each fork costs one extra consensus round
//! (re-mining plus propagation), and forks can cascade, giving an expected
//! resolution overhead of `p/(1−p)` extra block intervals.

use crate::miner::Miner;
use crate::pow::PowConfig;
use serde::{Deserialize, Serialize};

/// Parameters of the fork model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ForkModel {
    /// One-way block propagation delay between miners, in seconds.
    pub propagation_delay_s: f64,
    /// Extra coordination overhead per fork resolution, in seconds
    /// (ledger-conflict merging, abandoned-update recovery).
    pub resolution_overhead_s: f64,
}

impl Default for ForkModel {
    fn default() -> Self {
        ForkModel {
            propagation_delay_s: 1.0,
            resolution_overhead_s: 2.0,
        }
    }
}

impl ForkModel {
    /// Creates a fork model with the given propagation delay and resolution
    /// overhead (both in seconds, both must be non-negative).
    pub fn new(propagation_delay_s: f64, resolution_overhead_s: f64) -> Self {
        assert!(propagation_delay_s >= 0.0 && resolution_overhead_s >= 0.0);
        ForkModel {
            propagation_delay_s,
            resolution_overhead_s,
        }
    }

    /// Probability that a round forks, given the competing miners and the
    /// PoW difficulty.
    pub fn fork_probability(&self, miners: &[Miner], config: &PowConfig) -> f64 {
        if miners.len() < 2 {
            return 0.0;
        }
        let total_rate: f64 =
            miners.iter().map(|m| m.hash_rate).sum::<f64>() / config.expected_hashes();
        let others_fraction = (miners.len() - 1) as f64 / miners.len() as f64;
        1.0 - (-total_rate * self.propagation_delay_s * others_fraction).exp()
    }

    /// Expected number of *extra* block intervals spent resolving forks per
    /// produced block (`p / (1 - p)` for fork probability `p`, capped to
    /// keep the model finite when `p` approaches 1).
    pub fn expected_extra_rounds(&self, miners: &[Miner], config: &PowConfig) -> f64 {
        let p = self.fork_probability(miners, config).min(0.95);
        p / (1.0 - p)
    }

    /// Expected additional delay in seconds contributed by fork resolution,
    /// given the expected duration of one mining competition.
    pub fn expected_fork_delay(
        &self,
        miners: &[Miner],
        config: &PowConfig,
        block_interval_s: f64,
    ) -> f64 {
        let extra_rounds = self.expected_extra_rounds(miners, config);
        extra_rounds * (block_interval_s + self.resolution_overhead_s + self.propagation_delay_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(m: usize) -> Vec<Miner> {
        (0..m as u64).map(|id| Miner::new(id, 500.0)).collect()
    }

    #[test]
    fn single_miner_never_forks() {
        let model = ForkModel::default();
        let config = PowConfig::new(1000);
        assert_eq!(model.fork_probability(&fleet(1), &config), 0.0);
        assert_eq!(model.expected_extra_rounds(&fleet(1), &config), 0.0);
        assert_eq!(model.expected_fork_delay(&fleet(1), &config, 10.0), 0.0);
    }

    #[test]
    fn fork_probability_grows_with_miner_count() {
        let model = ForkModel::default();
        let config = PowConfig::new(5_000);
        let mut last = 0.0;
        for m in [2usize, 4, 6, 8, 10] {
            let p = model.fork_probability(&fleet(m), &config);
            assert!(p > last, "p({m}) = {p} should exceed {last}");
            assert!(p < 1.0);
            last = p;
        }
    }

    #[test]
    fn fork_probability_shrinks_with_difficulty() {
        let model = ForkModel::default();
        let easy = model.fork_probability(&fleet(4), &PowConfig::new(1_000));
        let hard = model.fork_probability(&fleet(4), &PowConfig::new(1_000_000));
        assert!(hard < easy);
    }

    #[test]
    fn expected_fork_delay_grows_superlinearly_with_miners() {
        let model = ForkModel::default();
        let config = PowConfig::new(5_000);
        let d2 = model.expected_fork_delay(&fleet(2), &config, 10.0);
        let d6 = model.expected_fork_delay(&fleet(6), &config, 10.0);
        let d10 = model.expected_fork_delay(&fleet(10), &config, 10.0);
        assert!(d6 > d2);
        assert!(d10 > d6);
        // Superlinear growth: the marginal cost of the last four miners
        // exceeds that of the first four.
        assert!(d10 - d6 > d6 - d2);
    }

    #[test]
    #[should_panic]
    fn negative_parameters_are_rejected() {
        let _ = ForkModel::new(-1.0, 0.0);
    }
}
