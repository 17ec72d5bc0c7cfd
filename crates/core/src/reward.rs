//! The reward list (the incentive half of Algorithm 2).
//!
//! For every high-contribution client the winning miner records the pair
//! `⟨C_i, θ_i / Σ_k θ_k · base⟩`; those pairs become reward transactions in
//! the round's block and are paid out once consensus is reached. Amounts
//! are carried in milli-units of `base` so the ledger stays integer-valued.

use bfl_chain::Transaction;
use serde::{Deserialize, Serialize};

/// One entry of the round's reward list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RewardEntry {
    /// The rewarded client.
    pub client_id: u64,
    /// The client's contribution score θ_i (cosine distance to the global
    /// update).
    pub theta: f64,
    /// The normalized share θ_i / Σ θ_k in `[0, 1]`.
    pub share: f64,
    /// The paid amount in milli-units of the reward base.
    pub amount_milli: u64,
}

/// Builds the reward list from the high-contribution scores.
///
/// `scores` are the (client, θ) pairs of the clients labelled high
/// contribution; `base` is the per-round reward pool (paper: "we can set a
/// base and multiply it by θ_i / Σ θ_k as the final reward").
pub fn build_reward_list(scores: &[(u64, f64)], base: f64) -> Vec<RewardEntry> {
    assert!(base >= 0.0, "reward base must be non-negative");
    if scores.is_empty() {
        return Vec::new();
    }
    let total: f64 = scores.iter().map(|(_, theta)| theta.max(0.0)).sum();
    scores
        .iter()
        .map(|&(client_id, theta)| {
            let theta = theta.max(0.0);
            let share = if total > 0.0 {
                theta / total
            } else {
                1.0 / scores.len() as f64
            };
            RewardEntry {
                client_id,
                theta,
                share,
                amount_milli: (share * base * 1000.0).round() as u64,
            }
        })
        .collect()
}

/// Gini coefficient of a reward ledger, computed exactly over the integer
/// milli-unit amounts.
///
/// Uses the rank formulation over the ascending-sorted amounts `x_(1) ≤ …
/// ≤ x_(n)`:
///
/// ```text
/// G = (2 · Σ_i i·x_(i) − (n + 1) · Σ_i x_(i)) / (n · Σ_i x_(i))
/// ```
///
/// All sums are accumulated in `u128`, so the only floating-point step is
/// the final division — two ledgers with the same multiset of amounts
/// always produce the bit-identical coefficient, which the harness's
/// shard-merge byte-identity relies on. Degenerate ledgers (empty, a
/// single holder, or an all-zero total) have no dispersion to measure and
/// return `0.0`.
pub fn gini(rewards: &[u64]) -> f64 {
    let n = rewards.len();
    if n <= 1 {
        return 0.0;
    }
    let mut sorted = rewards.to_vec();
    sorted.sort_unstable();
    let total: u128 = sorted.iter().map(|&x| u128::from(x)).sum();
    if total == 0 {
        return 0.0;
    }
    // Σ i·x_(i) with 1-based ranks; fits u128 for any realistic ledger
    // (amounts are u64, ranks are usize).
    let weighted: u128 = sorted
        .iter()
        .enumerate()
        .map(|(i, &x)| (i as u128 + 1) * u128::from(x))
        .sum();
    // Chebyshev's sum inequality guarantees 2·Σ i·x_(i) ≥ (n+1)·Σ x_(i)
    // for ascending x, so the numerator never underflows.
    let numerator = 2 * weighted - (n as u128 + 1) * total;
    numerator as f64 / (n as u128 * total) as f64
}

/// Converts a reward list into ledger transactions submitted by `miner_id`
/// for `round`.
pub fn reward_transactions(
    rewards: &[RewardEntry],
    miner_id: u64,
    round: u64,
) -> impl Iterator<Item = Transaction> + '_ {
    rewards
        .iter()
        .map(move |entry| Transaction::reward(miner_id, round, entry.client_id, entry.amount_milli))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_scores_give_empty_list() {
        assert!(build_reward_list(&[], 100.0).is_empty());
    }

    #[test]
    fn shares_are_proportional_and_sum_to_one() {
        let rewards = build_reward_list(&[(1, 0.2), (2, 0.6), (3, 0.2)], 100.0);
        assert_eq!(rewards.len(), 3);
        let share_sum: f64 = rewards.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
        assert!((rewards[1].share - 0.6).abs() < 1e-9);
        assert_eq!(rewards[1].amount_milli, 60_000);
        assert_eq!(rewards[0].amount_milli, 20_000);
        // Total payout equals the base (within rounding).
        let total: u64 = rewards.iter().map(|r| r.amount_milli).sum();
        assert!((total as i64 - 100_000).abs() <= 2);
    }

    #[test]
    fn zero_thetas_split_evenly() {
        let rewards = build_reward_list(&[(1, 0.0), (2, 0.0)], 10.0);
        assert!((rewards[0].share - 0.5).abs() < 1e-12);
        assert_eq!(rewards[0].amount_milli, 5_000);
    }

    #[test]
    fn negative_thetas_are_clamped() {
        let rewards = build_reward_list(&[(1, -0.5), (2, 1.0)], 10.0);
        assert_eq!(rewards[0].amount_milli, 0);
        assert_eq!(rewards[1].amount_milli, 10_000);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_base_panics() {
        let _ = build_reward_list(&[(1, 0.5)], -1.0);
    }

    #[test]
    fn transactions_carry_the_right_fields() {
        let rewards = build_reward_list(&[(7, 0.3), (9, 0.7)], 50.0);
        let txs: Vec<Transaction> = reward_transactions(&rewards, 2, 12).collect();
        assert_eq!(txs.len(), 2);
        for (tx, entry) in txs.iter().zip(rewards.iter()) {
            assert_eq!(tx.round(), 12);
            assert_eq!(tx.submitter, 2);
            match &tx.kind {
                bfl_chain::TransactionKind::Reward {
                    client_id,
                    amount_milli,
                    ..
                } => {
                    assert_eq!(*client_id, entry.client_id);
                    assert_eq!(*amount_milli, entry.amount_milli);
                }
                other => panic!("unexpected kind {other:?}"),
            }
        }
    }

    #[test]
    fn gini_degenerate_ledgers_are_zero() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[42]), 0.0);
        assert_eq!(gini(&[0, 0, 0]), 0.0);
    }

    #[test]
    fn gini_equal_ledger_is_zero() {
        assert_eq!(gini(&[5, 5, 5, 5]), 0.0);
    }

    #[test]
    fn gini_matches_hand_computed_values() {
        // One holder owns everything among n: G = (n-1)/n.
        assert!((gini(&[0, 0, 0, 100]) - 0.75).abs() < 1e-15);
        // [1, 2, 3]: Σx = 6, Σ i·x = 1 + 4 + 9 = 14, G = (28 - 24) / 18.
        assert!((gini(&[1, 2, 3]) - 4.0 / 18.0).abs() < 1e-15);
        // Order must not matter.
        assert_eq!(gini(&[3, 1, 2]), gini(&[1, 2, 3]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gini_is_bounded(amounts in proptest::collection::vec(0u64..1_000_000, 0..32)) {
            let g = gini(&amounts);
            prop_assert!((0.0..1.0).contains(&g) || g == 0.0, "gini {g} out of [0, 1)");
        }

        #[test]
        fn gini_is_permutation_invariant(amounts in proptest::collection::vec(0u64..1_000_000, 2..16)) {
            let mut reversed = amounts.clone();
            reversed.reverse();
            let mut rotated = amounts.clone();
            rotated.rotate_left(1);
            prop_assert_eq!(gini(&amounts), gini(&reversed));
            prop_assert_eq!(gini(&amounts), gini(&rotated));
        }

        #[test]
        fn gini_is_scale_invariant(amounts in proptest::collection::vec(0u64..1_000_000, 2..16), k in 1u64..1000) {
            let scaled: Vec<u64> = amounts.iter().map(|&x| x * k).collect();
            let base = gini(&amounts);
            let after = gini(&scaled);
            prop_assert!((base - after).abs() < 1e-12, "{base} vs {after}");
        }
    }
}
