//! Procedure-IV: computing global updates (paper Section 4.4).
//!
//! The miners first compute the round's anchor gradient (the simple
//! average of Algorithm 1 line 24 under the default mean anchor), then run
//! Algorithm 2 on the gradient set to identify contributions and build the
//! reward list, and finally produce the round's effective global
//! parameters — with Equation 1's fair (contribution-weighted) aggregation
//! by default, or plain averaging when the fair-aggregation ablation is
//! disabled. Every policy choice arrives through [`GlobalUpdatePolicy`],
//! the Scenario API's seam for this procedure.

use crate::aggregation::{contribution_weights, WEIGHT_FLOOR};
use crate::config::BflConfig;
use crate::contribution::{analyze_contributions, ContributionAnalysis, ContributionReport};
use crate::policy::{AggregationAnchor, ProportionalReward};
use crate::procedures::upload::VerifiedUpload;
use crate::strategy::LowContributionStrategy;
use bfl_cluster::{ClusteringAlgorithm, DistanceMetric};
use bfl_ml::gradient::weighted_average_refs;

/// The policy bundle Procedure-IV runs under — one round's view of the
/// scenario configuration.
pub struct GlobalUpdatePolicy<'a> {
    /// Clustering backend for Algorithm 2.
    pub clustering: &'a ClusteringAlgorithm,
    /// The clustering metric ([`DistanceMetric::Cosine`], the only one; θ
    /// is always the cosine distance).
    pub metric: DistanceMetric,
    /// Keep or discard low contributors.
    pub strategy: LowContributionStrategy,
    /// Equation 1 fair aggregation (`true`) or plain averaging (`false`).
    pub fair_aggregation: bool,
    /// The anchor gradient Algorithm 2 measures against.
    pub anchor: AggregationAnchor,
    /// The communication round (1-based). Procedure IV does not read it;
    /// the benchmark's frozen replay still sets it.
    pub round: usize,
    /// How θ scores become paid rewards.
    pub reward: &'a ProportionalReward,
}

impl<'a> GlobalUpdatePolicy<'a> {
    /// `round`'s view of the scenario configuration, paying out through
    /// `reward` — how both round engines build their policy.
    pub(crate) fn for_round(
        config: &'a BflConfig,
        round: usize,
        reward: &'a ProportionalReward,
    ) -> Self {
        GlobalUpdatePolicy {
            clustering: &config.clustering,
            metric: config.metric,
            strategy: config.strategy,
            fair_aggregation: config.fair_aggregation,
            anchor: config.anchor,
            round,
            reward,
        }
    }
}

/// The result of Procedure-IV.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalUpdateOutcome {
    /// Algorithm 2's report: contribution labels and the reward list.
    pub report: ContributionReport,
    /// The parameters recorded in the block and used by clients next round.
    pub global_params: Vec<f64>,
    /// Clients whose gradients were excluded from the aggregation.
    pub dropped: Vec<u64>,
}

/// Runs Procedure-IV over the merged gradient set.
pub fn compute_global_update(
    merged: &[VerifiedUpload],
    policy: &GlobalUpdatePolicy<'_>,
) -> GlobalUpdateOutcome {
    assert!(!merged.is_empty(), "Procedure-IV needs at least one upload");
    // Borrow the uploads straight out of the exchange result — Algorithm 2
    // and Equation 1 below never need their own copies.
    let uploads: Vec<(u64, &[f64])> = merged
        .iter()
        .map(|u| (u.client_id, u.params.as_slice()))
        .collect();

    let ContributionAnalysis {
        high_contribution,
        low_contribution,
        global_gradient,
        theta_by_upload,
    } = analyze_contributions(&uploads, policy.clustering, policy.metric, policy.anchor);
    let rewards = policy.reward.round_rewards(&high_contribution);
    let discards = policy.strategy.discards();

    let global_params = if policy.fair_aggregation {
        // Equation 1 over the uploads the strategy keeps, weighted by θ;
        // a kept-but-low upload (the keep strategy) weighs in at the floor.
        let (vectors, scores): (Vec<&[f64]>, Vec<f64>) = uploads
            .iter()
            .zip(&theta_by_upload)
            .filter(|(_, theta)| theta.is_some() || !discards)
            .map(|((_, g), theta)| (*g, theta.unwrap_or(WEIGHT_FLOOR)))
            .unzip();
        weighted_average_refs(&vectors, &contribution_weights(&scores))
    } else if discards && !low_contribution.is_empty() {
        // Plain averaging: the anchor over the kept uploads is the update.
        let kept: Vec<&[f64]> = uploads
            .iter()
            .zip(&theta_by_upload)
            .filter(|(_, theta)| theta.is_some())
            .map(|((_, g), _)| *g)
            .collect();
        policy.anchor.compute(&kept)
    } else {
        // Plain averaging that keeps every upload: the update is the
        // anchor Algorithm 2 already computed.
        global_gradient
    };

    let dropped = if discards {
        low_contribution.clone()
    } else {
        Vec::new()
    };
    GlobalUpdateOutcome {
        report: ContributionReport {
            high_contribution,
            low_contribution,
            rewards,
        },
        global_params,
        dropped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ProportionalReward;

    fn upload(client_id: u64, params: Vec<f64>, forged: bool) -> VerifiedUpload {
        VerifiedUpload {
            client_id,
            miner: 0,
            params,
            forged,
        }
    }

    fn honest_set() -> Vec<VerifiedUpload> {
        (0..6)
            .map(|i| {
                let t = i as f64 * 0.01;
                upload(i, vec![1.0 + t, 0.5 - t, 0.25], false)
            })
            .collect()
    }

    fn dbscan() -> ClusteringAlgorithm {
        ClusteringAlgorithm::default_dbscan()
    }

    /// The paper-default policy over the given clustering backend.
    fn policy<'a>(
        clustering: &'a ClusteringAlgorithm,
        strategy: LowContributionStrategy,
        fair_aggregation: bool,
        reward: &'a ProportionalReward,
    ) -> GlobalUpdatePolicy<'a> {
        GlobalUpdatePolicy {
            clustering,
            metric: DistanceMetric::Cosine,
            strategy,
            fair_aggregation,
            anchor: AggregationAnchor::Mean,
            round: 1,
            reward,
        }
    }

    const BASE_100: ProportionalReward = ProportionalReward { base: 100.0 };

    #[test]
    #[should_panic(expected = "at least one upload")]
    fn empty_merged_set_panics() {
        let clustering = dbscan();
        let _ = compute_global_update(
            &[],
            &policy(&clustering, LowContributionStrategy::Keep, true, &BASE_100),
        );
    }

    #[test]
    fn honest_round_keeps_everyone_and_aggregates_sensibly() {
        let merged = honest_set();
        let clustering = dbscan();
        let outcome = compute_global_update(
            &merged,
            &policy(&clustering, LowContributionStrategy::Keep, true, &BASE_100),
        );
        assert!(outcome.dropped.is_empty());
        assert_eq!(outcome.report.high_contribution.len(), 6);
        assert_eq!(outcome.global_params.len(), 3);
        // The aggregate lies inside the convex hull of the uploads.
        assert!(outcome.global_params[0] > 0.9 && outcome.global_params[0] < 1.1);
    }

    #[test]
    fn forged_uploads_are_dropped_under_discard_and_aggregation_recovers() {
        let mut merged = honest_set();
        merged.push(upload(10, vec![-1.0, -0.5, -0.25], true));
        merged.push(upload(11, vec![-1.02, -0.49, -0.26], true));

        let clustering = dbscan();
        let keep = compute_global_update(
            &merged,
            &policy(&clustering, LowContributionStrategy::Keep, true, &BASE_100),
        );
        let discard = compute_global_update(
            &merged,
            &policy(
                &clustering,
                LowContributionStrategy::Discard,
                true,
                &BASE_100,
            ),
        );
        assert!(keep.dropped.is_empty());
        assert_eq!(discard.dropped, vec![10, 11]);
        // Discarding the forged gradients pulls the aggregate back towards
        // the honest direction.
        assert!(discard.global_params[0] > keep.global_params[0]);
        assert!(discard.global_params[0] > 0.9);
    }

    #[test]
    fn fair_aggregation_differs_from_simple_average_when_contributions_differ() {
        // Two honest groups at different distances from the mean.
        let merged = vec![
            upload(0, vec![1.0, 0.0], false),
            upload(1, vec![1.0, 0.05], false),
            upload(2, vec![0.8, 0.6], false),
        ];
        let clustering = ClusteringAlgorithm::Agglomerative {
            distance_threshold: 2.0,
        };
        let fair = compute_global_update(
            &merged,
            &policy(&clustering, LowContributionStrategy::Keep, true, &BASE_100),
        );
        let simple = compute_global_update(
            &merged,
            &policy(&clustering, LowContributionStrategy::Keep, false, &BASE_100),
        );
        assert_ne!(fair.global_params, simple.global_params);
        // Both remain within the hull.
        for params in [&fair.global_params, &simple.global_params] {
            assert!(params[0] <= 1.0 + 1e-9 && params[0] >= 0.8 - 1e-9);
        }
    }

    #[test]
    fn rewards_cover_exactly_the_high_contributors() {
        let mut merged = honest_set();
        merged.push(upload(20, vec![-1.0, -0.5, -0.25], true));
        let clustering = dbscan();
        let reward = ProportionalReward { base: 50.0 };
        let outcome = compute_global_update(
            &merged,
            &policy(&clustering, LowContributionStrategy::Discard, true, &reward),
        );
        let rewarded: Vec<u64> = outcome.report.rewards.iter().map(|r| r.client_id).collect();
        assert_eq!(rewarded.len(), 6);
        assert!(!rewarded.contains(&20));
        let total: u64 = outcome.report.rewards.iter().map(|r| r.amount_milli).sum();
        assert!((total as i64 - 50_000).abs() <= 6);
    }

    /// Procedure-IV by client id, as it ran before Algorithm 2 kept an
    /// index-aligned view: Algorithm 2's id lists first, then every kept
    /// upload re-found in them by client id. Plain averaging re-runs the
    /// anchor over the kept uploads.
    fn outcome_by_id_lookup(
        merged: &[VerifiedUpload],
        policy: &GlobalUpdatePolicy<'_>,
    ) -> GlobalUpdateOutcome {
        let uploads: Vec<(u64, &[f64])> = merged
            .iter()
            .map(|u| (u.client_id, u.params.as_slice()))
            .collect();
        let analysis =
            analyze_contributions(&uploads, policy.clustering, policy.metric, policy.anchor);
        let dropped = if policy.strategy.discards() {
            analysis.low_contribution.clone()
        } else {
            Vec::new()
        };
        let kept: Vec<&(u64, &[f64])> = uploads
            .iter()
            .filter(|(id, _)| !dropped.contains(id))
            .collect();
        let vectors: Vec<&[f64]> = kept.iter().map(|(_, g)| *g).collect();
        let global_params = if policy.fair_aggregation {
            let scores: Vec<f64> = kept
                .iter()
                .map(|(id, _)| {
                    analysis
                        .high_contribution
                        .iter()
                        .find(|(hid, _)| hid == id)
                        .map_or(WEIGHT_FLOOR, |(_, theta)| *theta)
                })
                .collect();
            weighted_average_refs(&vectors, &contribution_weights(&scores))
        } else {
            policy.anchor.compute(&vectors)
        };
        GlobalUpdateOutcome {
            report: ContributionReport {
                rewards: policy.reward.round_rewards(&analysis.high_contribution),
                high_contribution: analysis.high_contribution,
                low_contribution: analysis.low_contribution,
            },
            global_params,
            dropped,
        }
    }

    #[test]
    fn every_strategy_aggregation_and_anchor_keeps_its_pre_change_outcome() {
        // Nine honest uploads (ids deliberately out of order), two
        // sign-flipped ones and a -8x scaler: the robust anchors drop
        // attackers, the mean anchor is dragged — all three must come out
        // exactly as the id-lookup form computed them.
        let mut merged: Vec<VerifiedUpload> = (0..9)
            .map(|i| {
                let t = i as f64 * 0.013;
                upload(
                    (i * 7 + 3) % 11,
                    vec![1.0 + t, 0.5 - t, 0.25 + 0.5 * t, -0.125],
                    false,
                )
            })
            .collect();
        merged.insert(2, upload(40, vec![-1.0, -0.5, -0.25, 0.125], true));
        merged.insert(7, upload(41, vec![-1.03, -0.48, -0.26, 0.12], true));
        merged.push(upload(42, vec![-8.4, -6.4, 0.4, 1.0], true));

        let clustering = dbscan();
        for strategy in [
            LowContributionStrategy::Discard,
            LowContributionStrategy::Keep,
        ] {
            for fair in [true, false] {
                for anchor in [
                    AggregationAnchor::Mean,
                    AggregationAnchor::Median,
                    AggregationAnchor::TrimmedMean { trim_ratio: 0.2 },
                ] {
                    let mut p = policy(&clustering, strategy, fair, &BASE_100);
                    p.anchor = anchor;
                    let context = format!("{strategy:?} fair={fair} {anchor:?}");
                    let now = compute_global_update(&merged, &p);
                    let before = outcome_by_id_lookup(&merged, &p);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&now.global_params),
                        bits(&before.global_params),
                        "{context}"
                    );
                    assert_eq!(now.dropped, before.dropped, "{context}");
                    assert_eq!(
                        now.report.high_contribution, before.report.high_contribution,
                        "{context}"
                    );
                    assert_eq!(
                        now.report.low_contribution, before.report.low_contribution,
                        "{context}"
                    );
                    assert_eq!(now.report.rewards, before.report.rewards, "{context}");
                    if strategy.discards() && !matches!(anchor, AggregationAnchor::Mean) {
                        assert!(!now.dropped.is_empty(), "{context} should drop attackers");
                    }
                }
            }
        }
    }

    #[test]
    fn median_anchor_drops_a_mean_corrupting_attacker() {
        // Six honest uploads plus one -8x-scaled deviating attacker; the
        // median anchor isolates it where the mean anchor cannot.
        let mut merged = honest_set();
        merged.push(upload(30, vec![-8.4, -6.4, 0.4], true));
        let clustering = dbscan();
        let mut robust = policy(
            &clustering,
            LowContributionStrategy::Discard,
            true,
            &BASE_100,
        );
        robust.anchor = AggregationAnchor::Median;
        let outcome = compute_global_update(&merged, &robust);
        assert_eq!(outcome.dropped, vec![30]);
        assert!(outcome.global_params[0] > 0.9);
    }
}
