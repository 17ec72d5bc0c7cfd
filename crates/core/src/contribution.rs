//! Client contribution identification — Algorithm 2.
//!
//! Input: the round's gradient set `W^k_{r+1}` (one upload per selected
//! client) plus the anchor gradient computed from it. The winning miner
//! clusters the combined set; clients whose uploads land in the same
//! cluster as the anchor are **high contribution** (their cosine distance
//! θ_i to the anchor becomes both their reward share and their Equation 1
//! aggregation weight), everyone else — including every point the
//! clustering marks as noise — is **low contribution** and is handled by
//! the configured [`LowContributionStrategy`](crate::LowContributionStrategy).
//!
//! [`analyze_contributions`] is the algorithm: anchor, clustering and θ.
//! Procedure IV
//! ([`compute_global_update`](crate::procedures::global_update::compute_global_update))
//! is its one caller in a run: it settles the rewards, applies the
//! strategy, aggregates, and returns the [`ContributionReport`].

use crate::aggregation::WEIGHT_FLOOR;
use crate::policy::AggregationAnchor;
use crate::reward::RewardEntry;
use bfl_cluster::{ClusteringAlgorithm, DistanceMetric};
use bfl_ml::gradient::{self, GradientVector};
use bfl_ml::tensor;
use serde::{Deserialize, Serialize};

/// The outcome of Algorithm 2 on one round's gradient set, as Procedure IV
/// reports it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContributionReport {
    /// (client id, θ_i) for every high-contribution client.
    pub high_contribution: Vec<(u64, f64)>,
    /// Client ids labelled low contribution.
    pub low_contribution: Vec<u64>,
    /// The reward list paid to the high contributors: ⟨C_i, θ_i/Σθ_k ·
    /// base⟩ ([`ProportionalReward`](crate::ProportionalReward)).
    pub rewards: Vec<RewardEntry>,
}

/// Algorithm 2 without rewards or a low-contribution strategy: anchor,
/// clustering, and θ scores.
///
/// Rewards are settled by the caller, so the streaming aggregation path
/// can run the analysis once per *chunk* (the chunk acts as the
/// clustering committee) while settling rewards exactly once per round
/// over the concatenated scores — per-chunk reward calls would
/// re-normalize each chunk's pool and change payouts.
#[derive(Debug, Clone)]
pub struct ContributionAnalysis {
    /// (client id, θ_i) for every high-contribution client.
    pub high_contribution: Vec<(u64, f64)>,
    /// Client ids labelled low contribution.
    pub low_contribution: Vec<u64>,
    /// The anchor gradient the analysis clustered against.
    pub global_gradient: GradientVector,
    /// The same labels aligned with the analysed `uploads` slice: entry
    /// `i` is `Some(θ_i)` when upload `i` is high contribution and `None`
    /// when it is low. Aggregation walks this next to the uploads instead
    /// of searching `high_contribution` by client id.
    pub theta_by_upload: Vec<Option<f64>>,
}

/// Runs Algorithm 2's analysis (anchor, clustering, θ) over `uploads`,
/// (client id, uploaded gradient) pairs.
///
/// The anchor gradient is computed over all uploads by `anchor` (the
/// simple average of Algorithm 1 line 24 under
/// [`AggregationAnchor::Mean`]) and appended to the set before
/// clustering, exactly as in the paper's Algorithm 2 (the anchor is the
/// last element of the clustered set). `metric` must be
/// [`DistanceMetric::Cosine`], the only metric.
pub fn analyze_contributions(
    uploads: &[(u64, &[f64])],
    algorithm: &ClusteringAlgorithm,
    metric: DistanceMetric,
    anchor: AggregationAnchor,
) -> ContributionAnalysis {
    assert!(!uploads.is_empty(), "Algorithm 2 needs at least one upload");
    let n = uploads.len();

    // The clustered set is the uploads plus the anchor gradient, appended
    // last — as borrowed rows: the clustering reads every vector where it
    // already lives. Only the anchor's cluster is read, so the default
    // DBSCAN forms only the distances that cluster's search tests.
    let mut clustered: Vec<&[f64]> = Vec::with_capacity(n + 1);
    clustered.extend(uploads.iter().map(|(_, g)| *g));
    let global_gradient = anchor.compute(&clustered);
    clustered.push(&global_gradient);
    let with_anchor = algorithm.anchor_cluster(&clustered, metric);

    // Degenerate case: if the clustering failed to place the anchor
    // gradient in any cluster (for example every point is noise under a
    // tiny eps), treat every client as high contribution rather than
    // discarding the whole round.
    let nobody_high = !with_anchor[..n].contains(&true);

    // Algorithm 2's θ weights: the cosine distance of an upload to the
    // anchor gradient, floored so Equation 1 never divides by zero. Only
    // high-contribution uploads are scored, gathered four at a time into
    // one `dots_and_squares_x4` pass: their dots with the anchor and their
    // squared norms come out in `tensor::dot`'s own order, so θ has the
    // bits of `gradient::cosine_distance`. A short last block repeats its
    // first upload in the spare slots and keeps only the θs it gathered.
    let global_norm = tensor::l2_norm(&global_gradient);
    let theta = |dot: f64, square: f64| -> f64 {
        (1.0 - gradient::cosine_from_parts(dot, square.sqrt(), global_norm)).max(WEIGHT_FLOOR)
    };
    let mut theta_by_upload: Vec<Option<f64>> = vec![None; n];
    let mut high = (0..n).filter(|&i| nobody_high || with_anchor[i]);
    while let Some(first) = high.next() {
        let mut block = [first; 4];
        let mut filled = 1;
        for slot in &mut block[1..] {
            let Some(i) = high.next() else { break };
            *slot = i;
            filled += 1;
        }
        let (dots, squares) =
            tensor::dots_and_squares_x4(block.map(|j| uploads[j].1), &global_gradient);
        for (r, &j) in block[..filled].iter().enumerate() {
            theta_by_upload[j] = Some(theta(dots[r], squares[r]));
        }
    }

    let mut high_contribution = Vec::new();
    let mut low_contribution = Vec::new();
    for ((client_id, _), theta) in uploads.iter().zip(&theta_by_upload) {
        match theta {
            Some(theta) => high_contribution.push((*client_id, *theta)),
            None => low_contribution.push(*client_id),
        }
    }

    ContributionAnalysis {
        high_contribution,
        low_contribution,
        global_gradient,
        theta_by_upload,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ProportionalReward;
    use crate::procedures::global_update::{
        compute_global_update, GlobalUpdateOutcome, GlobalUpdatePolicy,
    };
    use crate::procedures::upload::VerifiedUpload;
    use crate::strategy::LowContributionStrategy;

    /// Ten honest-looking uploads near +x plus `forged` sign-flipped ones.
    fn uploads_with_forgeries(honest: usize, forged: usize) -> Vec<(u64, GradientVector)> {
        let mut out = Vec::new();
        for i in 0..honest {
            let t = i as f64 * 0.01;
            out.push((i as u64, vec![1.0 + t, 0.5 - t, 0.2 + t]));
        }
        for i in 0..forged {
            let t = i as f64 * 0.01;
            out.push((
                (honest + i) as u64,
                vec![-(1.0 + t), -(0.5 - t), -(0.2 + t)],
            ));
        }
        out
    }

    fn dbscan() -> ClusteringAlgorithm {
        ClusteringAlgorithm::default_dbscan()
    }

    fn refs(uploads: &[(u64, GradientVector)]) -> Vec<(u64, &[f64])> {
        uploads.iter().map(|(id, g)| (*id, g.as_slice())).collect()
    }

    /// Procedure IV over `uploads` at round 1: Algorithm 2 under `anchor`,
    /// rewards from `reward`, Equation 1 when `fair`, plain averaging
    /// otherwise.
    fn procedure_iv(
        uploads: &[(u64, GradientVector)],
        algorithm: &ClusteringAlgorithm,
        strategy: LowContributionStrategy,
        fair_aggregation: bool,
        anchor: AggregationAnchor,
        reward: &ProportionalReward,
    ) -> GlobalUpdateOutcome {
        let merged: Vec<VerifiedUpload> = uploads
            .iter()
            .map(|(client_id, params)| VerifiedUpload {
                client_id: *client_id,
                miner: 0,
                params: params.clone(),
                forged: false,
            })
            .collect();
        compute_global_update(
            &merged,
            &GlobalUpdatePolicy {
                clustering: algorithm,
                metric: DistanceMetric::Cosine,
                strategy,
                fair_aggregation,
                anchor,
                round: 1,
                reward,
            },
        )
    }

    /// [`procedure_iv`] under the paper's defaults: mean anchor, Equation 1
    /// and proportional rewards out of `base`.
    fn paper_round(
        uploads: &[(u64, GradientVector)],
        algorithm: &ClusteringAlgorithm,
        strategy: LowContributionStrategy,
        base: f64,
    ) -> GlobalUpdateOutcome {
        procedure_iv(
            uploads,
            algorithm,
            strategy,
            true,
            AggregationAnchor::Mean,
            &ProportionalReward { base },
        )
    }

    #[test]
    #[should_panic(expected = "at least one upload")]
    fn empty_uploads_panic() {
        let _ = analyze_contributions(
            &[],
            &dbscan(),
            DistanceMetric::Cosine,
            AggregationAnchor::Mean,
        );
    }

    #[test]
    fn all_honest_clients_are_high_contribution() {
        let uploads = uploads_with_forgeries(8, 0);
        let outcome = paper_round(&uploads, &dbscan(), LowContributionStrategy::Keep, 100.0);
        assert_eq!(outcome.report.high_contribution.len(), 8);
        assert!(outcome.report.low_contribution.is_empty());
        assert_eq!(outcome.report.rewards.len(), 8);
        assert!(outcome.dropped.is_empty());
    }

    #[test]
    fn forged_gradients_are_labelled_low_contribution() {
        let uploads = uploads_with_forgeries(8, 2);
        let report = paper_round(&uploads, &dbscan(), LowContributionStrategy::Keep, 100.0).report;
        // The two sign-flipped uploads (ids 8 and 9) form their own cluster,
        // far from the global average which sits nearer the honest mass.
        assert!(report.low_contribution.contains(&8));
        assert!(report.low_contribution.contains(&9));
        assert_eq!(report.high_contribution.len(), 8);
        // Rewards only go to high contributors.
        assert!(report.rewards.iter().all(|r| r.client_id < 8));
    }

    #[test]
    fn the_index_aligned_view_agrees_with_the_id_lists() {
        // Forgeries interleaved with honest uploads, ids out of order.
        let mut uploads = uploads_with_forgeries(6, 2);
        uploads.swap(1, 6);
        uploads.swap(3, 7);
        let refs = refs(&uploads);
        let analysis = analyze_contributions(
            &refs,
            &dbscan(),
            DistanceMetric::Cosine,
            AggregationAnchor::Mean,
        );
        assert_eq!(analysis.theta_by_upload.len(), uploads.len());
        let mut high = analysis.high_contribution.iter();
        let mut low = analysis.low_contribution.iter();
        for ((id, _), theta) in refs.iter().zip(&analysis.theta_by_upload) {
            match theta {
                Some(theta) => assert_eq!(high.next(), Some(&(*id, *theta))),
                None => assert_eq!(low.next(), Some(id)),
            }
        }
        assert!(high.next().is_none() && low.next().is_none());
        assert_eq!(analysis.low_contribution, vec![6, 7]);
    }

    /// `honest` uploads with `forged` sign-flipped, shortened ones
    /// interleaved among them: forgery `j` goes right before (`leading`)
    /// or after honest upload `j`, and any past the last honest one go
    /// last. The high rows are then never contiguous.
    fn interleaved_forgeries(
        honest: usize,
        forged: usize,
        leading: bool,
    ) -> Vec<(u64, GradientVector)> {
        let row = |i: usize, scale: f64| -> GradientVector {
            (0..7)
                .map(|k| scale * (1.0 + 0.1 * k as f64 + 0.01 * (i * (k % 3)) as f64))
                .collect()
        };
        let mut rows = Vec::new();
        for i in 0..honest.max(forged) {
            let honest = (i < honest).then(|| row(i, 1.0));
            let forgery = (i < forged).then(|| row(i, -0.2));
            let (first, second) = if leading {
                (forgery, honest)
            } else {
                (honest, forgery)
            };
            rows.extend(first.into_iter().chain(second));
        }
        rows.into_iter()
            .enumerate()
            .map(|(id, g)| (id as u64, g))
            .collect()
    }

    /// θ of every high upload has the bits of the one-upload oracle, and
    /// every other upload is `None`.
    fn assert_theta_is_the_oracle(
        uploads: &[(u64, GradientVector)],
        analysis: &ContributionAnalysis,
        high: impl Fn(&[f64]) -> bool,
    ) {
        for ((id, upload), theta) in uploads.iter().zip(&analysis.theta_by_upload) {
            let oracle = high(upload).then(|| {
                gradient::cosine_distance(upload, &analysis.global_gradient).max(WEIGHT_FLOOR)
            });
            assert_eq!(
                theta.map(f64::to_bits),
                oracle.map(f64::to_bits),
                "upload {id} of {}",
                uploads.len()
            );
        }
    }

    #[test]
    fn theta_is_gathered_four_high_uploads_at_a_time_with_the_oracles_bits() {
        // 1–9 high uploads (every remainder mod 4), forgeries inside the
        // blocks of four.
        for honest in 1..=9 {
            for forged in 1..=3 {
                for leading in [false, true] {
                    let uploads = interleaved_forgeries(honest, forged, leading);
                    let refs = refs(&uploads);
                    let analysis = analyze_contributions(
                        &refs,
                        &dbscan(),
                        DistanceMetric::Cosine,
                        AggregationAnchor::Mean,
                    );
                    // Forgeries point against every honest upload.
                    assert_eq!(analysis.high_contribution.len(), honest);
                    assert_theta_is_the_oracle(&uploads, &analysis, |g| g[0] > 0.0);

                    // Nobody shares the anchor's cluster, so everyone is
                    // scored: the fallback goes through the same gather.
                    let everyone = analyze_contributions(
                        &refs,
                        &ClusteringAlgorithm::Dbscan {
                            eps: 1e-9,
                            min_points: uploads.len() + 2,
                        },
                        DistanceMetric::Cosine,
                        AggregationAnchor::Mean,
                    );
                    assert!(everyone.low_contribution.is_empty());
                    assert_theta_is_the_oracle(&uploads, &everyone, |_| true);
                }
            }
        }
    }

    #[test]
    fn discard_strategy_recomputes_the_global_update() {
        // Under plain averaging the round's update is the anchor: over
        // every upload when keeping, over the high contributors when
        // discarding.
        let uploads = uploads_with_forgeries(8, 2);
        let plain = |strategy| {
            procedure_iv(
                &uploads,
                &dbscan(),
                strategy,
                false,
                AggregationAnchor::Mean,
                &ProportionalReward { base: 100.0 },
            )
        };
        let keep = plain(LowContributionStrategy::Keep);
        let discard = plain(LowContributionStrategy::Discard);
        let all: Vec<&[f64]> = refs(&uploads).iter().map(|(_, g)| *g).collect();
        let anchor = AggregationAnchor::Mean.compute(&all);
        assert_eq!(keep.global_params, anchor);
        assert_ne!(discard.global_params, anchor);
        // The discarded aggregate is closer to the honest direction: its
        // first coordinate should be larger (honest updates are ~ +1).
        assert!(discard.global_params[0] > keep.global_params[0]);
        assert_eq!(discard.dropped, vec![8, 9]);
        assert!(keep.dropped.is_empty());
    }

    #[test]
    fn reward_shares_sum_to_one_among_high_contributors() {
        let uploads = uploads_with_forgeries(6, 1);
        let report =
            paper_round(&uploads, &dbscan(), LowContributionStrategy::Discard, 10.0).report;
        let share_sum: f64 = report.rewards.iter().map(|r| r.share).sum();
        assert!((share_sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_clustering_falls_back_to_everyone_high() {
        // A single upload: DBSCAN with min_points=2 will mark both the
        // upload and the global gradient as one cluster (identical points),
        // but an aggressive configuration can fail; either way nobody is
        // discarded.
        let uploads = vec![(0u64, vec![1.0, 2.0, 3.0])];
        let report = paper_round(
            &uploads,
            &ClusteringAlgorithm::Dbscan {
                eps: 1e-9,
                min_points: 5,
            },
            LowContributionStrategy::Discard,
            100.0,
        )
        .report;
        assert_eq!(report.high_contribution.len(), 1);
        assert!(report.low_contribution.is_empty());
    }

    /// Nine honest uploads near the base direction plus one -8x scaling
    /// attacker. The attacker's own honest gradient deviates slightly from
    /// the crowd; amplified by -8 that deviation dominates the simple
    /// average, so the mean anchor points in an essentially arbitrary
    /// direction far (cosine-wise) from *both* clusters — the corruption
    /// the ROADMAP open item recorded.
    fn uploads_with_scaling_attacker() -> Vec<(u64, GradientVector)> {
        let mut out = Vec::new();
        for i in 0..9 {
            let t = i as f64 * 0.01;
            out.push((i as u64, vec![1.0 + t, 0.5 - t, 0.2 + t]));
        }
        // -8 x (1.05, 0.8, -0.05): a plausible honest gradient with a
        // modest deviation, scaled hard.
        out.push((9, vec![-8.4, -6.4, 0.4]));
        out
    }

    #[test]
    fn mean_anchor_is_corrupted_by_a_strong_scaling_attacker() {
        // With the plain-average anchor the -8x upload drags the anchor
        // onto itself: the anchor leaves the honest cluster and the
        // degenerate keep-everyone fallback (or a mislabelling) results.
        let uploads = uploads_with_scaling_attacker();
        let report =
            paper_round(&uploads, &dbscan(), LowContributionStrategy::Discard, 100.0).report;
        assert!(
            !report.low_contribution.contains(&9),
            "the mean anchor fails to isolate the -8x attacker (got low = {:?})",
            report.low_contribution
        );
    }

    #[test]
    fn robust_anchors_survive_the_scaling_attacker_that_corrupts_the_mean() {
        let uploads = uploads_with_scaling_attacker();
        for anchor in [
            AggregationAnchor::Median,
            AggregationAnchor::TrimmedMean { trim_ratio: 0.2 },
        ] {
            // Plain averaging: the update is the anchor recomputed over
            // the uploads the strategy keeps.
            let outcome = procedure_iv(
                &uploads,
                &dbscan(),
                LowContributionStrategy::Discard,
                false,
                anchor,
                &ProportionalReward { base: 100.0 },
            );
            assert_eq!(
                outcome.report.low_contribution,
                vec![9],
                "{anchor:?} should isolate exactly the attacker"
            );
            assert_eq!(outcome.report.high_contribution.len(), 9);
            // The recomputed anchor comes from the honest uploads and
            // stays in the honest direction.
            assert!(outcome.global_params[0] > 0.9);
            assert!(outcome.report.rewards.iter().all(|r| r.client_id < 9));
        }
    }

    #[test]
    fn alternative_clustering_backends_also_separate_forgeries() {
        let uploads = uploads_with_forgeries(8, 2);
        for algorithm in [
            ClusteringAlgorithm::KMeans {
                k: 2,
                max_iterations: 50,
            },
            ClusteringAlgorithm::Agglomerative {
                distance_threshold: 0.5,
            },
        ] {
            let report = paper_round(
                &uploads,
                &algorithm,
                LowContributionStrategy::Discard,
                100.0,
            )
            .report;
            assert!(
                report.low_contribution.contains(&8) && report.low_contribution.contains(&9),
                "{algorithm:?} should isolate the forged uploads, got {:?}",
                report.low_contribution
            );
        }
    }
}
