//! Miner identities, hash rates, and per-round mining outcomes.
//!
//! A miner in BFL plays two roles (paper Table 1: "the miner S_k in BFL and
//! blockchain, or a server in FL"): it aggregates gradients like a server
//! and competes in the PoW lottery. For the delay figures the interesting
//! quantity is *how long* the mining competition takes, which depends on the
//! difficulty and the competing hash power; this module provides both an
//! analytic sample (exponential race) and a real nonce search, the serial
//! [`PowConfig::search_header`].

use crate::block::Block;
use crate::pow::PowConfig;
use rand::Rng;

/// A mining participant with an identity and a hash rate.
#[derive(Debug, Clone, PartialEq)]
pub struct Miner {
    /// Stable identifier (also recorded in blocks this miner wins).
    pub id: u64,
    /// Hash evaluations per second this miner can sustain.
    pub hash_rate: f64,
}

/// The outcome of one mining competition.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningOutcome {
    /// Identifier of the winning miner.
    pub winner: u64,
    /// Time in seconds until the winner found a solution.
    pub time_seconds: f64,
    /// Expected number of hash evaluations spent network-wide.
    pub hashes_spent: f64,
}

impl Miner {
    /// Creates a miner with the given id and hash rate (hashes/second).
    pub fn new(id: u64, hash_rate: f64) -> Self {
        assert!(hash_rate > 0.0, "hash rate must be positive");
        Miner { id, hash_rate }
    }

    /// Performs a real bounded nonce search on `candidate` over `[0,
    /// budget)`, returning the number of hashes spent if a proof was
    /// found.
    pub fn mine_block(
        &self,
        candidate: &mut Block,
        config: &PowConfig,
        budget: u64,
    ) -> Option<u64> {
        candidate.header.difficulty = config.difficulty;
        candidate.header.miner_id = self.id;
        let nonce = config.search_header(&candidate.header, 0, budget)?;
        candidate.header.nonce = nonce;
        Some(nonce + 1)
    }
}

/// Samples the outcome of a mining race between `miners` at `config`'s
/// difficulty.
///
/// Each miner's time-to-solution is exponentially distributed with rate
/// `hash_rate / difficulty`; the minimum wins. This is the standard
/// memoryless model of PoW mining and is what the delay figures use so that
/// wall-clock time does not depend on the host machine.
pub fn sample_competition<R: Rng + ?Sized>(
    miners: &[Miner],
    config: &PowConfig,
    rng: &mut R,
) -> MiningOutcome {
    assert!(
        !miners.is_empty(),
        "a mining competition needs at least one miner"
    );
    let mut best_time = f64::INFINITY;
    let mut winner = miners[0].id;
    for miner in miners {
        let rate = miner.hash_rate / config.expected_hashes();
        // Inverse-CDF sample of Exp(rate); guard against u == 0.
        let u: f64 = rng.gen::<f64>().max(1e-12);
        let t = -u.ln() / rate;
        if t < best_time {
            best_time = t;
            winner = miner.id;
        }
    }
    let total_rate: f64 = miners.iter().map(|m| m.hash_rate).sum();
    MiningOutcome {
        winner,
        time_seconds: best_time,
        hashes_spent: best_time * total_rate,
    }
}

/// Expected duration of the competition: difficulty divided by the total
/// hash power (the minimum of exponentials is exponential with the summed
/// rate).
pub fn expected_competition_time(miners: &[Miner], config: &PowConfig) -> f64 {
    let total_rate: f64 = miners.iter().map(|m| m.hash_rate).sum();
    config.expected_hashes() / total_rate
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::Block;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    #[should_panic(expected = "hash rate must be positive")]
    fn zero_hash_rate_is_rejected() {
        let _ = Miner::new(1, 0.0);
    }

    #[test]
    fn expected_solo_time_scales_with_difficulty() {
        // A competition of one is a solo search.
        let solo = [Miner::new(1, 1000.0)];
        let slow = expected_competition_time(&solo, &PowConfig::new(10_000));
        let fast = expected_competition_time(&solo, &PowConfig::new(100));
        assert!(slow > fast);
        assert!((slow - 10.0).abs() < 1e-9);
        assert!((fast - 0.1).abs() < 1e-9);
    }

    #[test]
    fn mine_block_produces_valid_proof() {
        let miner = Miner::new(3, 1000.0);
        let genesis = Block::genesis();
        let mut candidate = Block::candidate(&genesis, vec![], 0, 1, 0);
        let config = PowConfig::new(32);
        let hashes = miner
            .mine_block(&mut candidate, &config, 1_000_000)
            .expect("difficulty 32 is solvable");
        assert!(hashes >= 1);
        assert!(candidate.proof_is_valid());
        assert_eq!(candidate.header.miner_id, 3);
    }

    #[test]
    fn mine_block_respects_budget() {
        let miner = Miner::new(3, 1000.0);
        let genesis = Block::genesis();
        let mut candidate = Block::candidate(&genesis, vec![], 0, 1, 0);
        let config = PowConfig::new(u64::MAX / 2);
        assert!(miner.mine_block(&mut candidate, &config, 16).is_none());
    }

    #[test]
    fn competition_winner_is_among_participants() {
        let mut rng = StdRng::seed_from_u64(9);
        let miners = vec![
            Miner::new(1, 100.0),
            Miner::new(2, 100.0),
            Miner::new(3, 100.0),
        ];
        let config = PowConfig::new(1000);
        for _ in 0..50 {
            let outcome = sample_competition(&miners, &config, &mut rng);
            assert!(miners.iter().any(|m| m.id == outcome.winner));
            assert!(outcome.time_seconds > 0.0);
            assert!(outcome.hashes_spent > 0.0);
        }
    }

    #[test]
    fn faster_miner_wins_more_often() {
        let mut rng = StdRng::seed_from_u64(10);
        let miners = vec![Miner::new(1, 1000.0), Miner::new(2, 10.0)];
        let config = PowConfig::new(1000);
        let mut wins = [0u32; 2];
        for _ in 0..500 {
            let outcome = sample_competition(&miners, &config, &mut rng);
            wins[(outcome.winner - 1) as usize] += 1;
        }
        assert!(
            wins[0] > wins[1] * 5,
            "fast miner won {} vs {}",
            wins[0],
            wins[1]
        );
    }

    #[test]
    fn expected_time_halves_with_double_hash_power() {
        let config = PowConfig::new(10_000);
        let one = vec![Miner::new(1, 100.0)];
        let two = vec![Miner::new(1, 100.0), Miner::new(2, 100.0)];
        let t1 = expected_competition_time(&one, &config);
        let t2 = expected_competition_time(&two, &config);
        assert!((t1 / t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn average_sampled_time_tracks_expectation() {
        let mut rng = StdRng::seed_from_u64(11);
        let miners = vec![Miner::new(1, 200.0), Miner::new(2, 300.0)];
        let config = PowConfig::new(5_000);
        let expected = expected_competition_time(&miners, &config);
        let n = 2000;
        let mean: f64 = (0..n)
            .map(|_| sample_competition(&miners, &config, &mut rng).time_seconds)
            .sum::<f64>()
            / n as f64;
        assert!(
            (mean - expected).abs() / expected < 0.15,
            "sampled mean {mean} vs expected {expected}"
        );
    }
}
