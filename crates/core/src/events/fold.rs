//! The round's one Procedure-IV fold.

use super::AsyncRuntime;
use crate::aggregation::WEIGHT_FLOOR;
use crate::config::{AggregationMode, BflConfig};
use crate::contribution::analyze_contributions;
use crate::engine::SealedRound;
use crate::policy::ProportionalReward;
use crate::procedures::global_update::{self, GlobalUpdatePolicy};
use crate::procedures::upload::VerifiedUpload;
use bfl_ml::gradient;

/// A flexible round's one Procedure-IV fold. Uploads enter it as they
/// leave the pending pool, and it tallies them: the admitted count the
/// quota reads, the stale count, the slowest own-round pass, the loss sum
/// and the forged ids.
///
/// [`AggregationMode`] decides only where Algorithm 2 runs. A materialized
/// round is one committee, analysed by `compute_global_update` at the
/// seal. A streaming round runs it on each full chunk as its own committee
/// and folds the kept uploads into one running `Σ wᵢ·uᵢ / Σ wᵢ` — w = θ
/// under fair aggregation (Equation 1, the composition the mean anchor
/// admits, which is why validation requires it), 1 under plain averaging
/// — so it never holds more than one chunk of gradients. Rewards settle
/// once, at [`RoundFold::seal`], over the concatenated θ scores: the
/// proportional policy normalizes per call.
pub(super) struct RoundFold {
    pub(super) round: usize,
    pub(super) round_start: f64,
    /// Uploads per committee: the streaming chunk, or `usize::MAX` for a
    /// materialized round, whose pool never fills before the seal.
    pub(super) chunk: usize,
    /// Uploads drained from the pool so far (they count toward the quota).
    admitted: usize,
    stale_included: usize,
    max_own_finish: f64,
    /// The round record averages the losses of the passes that entered
    /// the block, so a stale-heavy round reports its real training loss.
    loss_sum: f64,
    /// The detection row's ground truth: forged uploads in this block (a
    /// stale attacker counts in the round whose block it entered).
    forged: Vec<u64>,
    /// Σ wᵢ·uᵢ over kept uploads (streaming only; empty when
    /// materialized).
    weighted_sum: Vec<f64>,
    /// Σ wᵢ over kept uploads (streaming only).
    weight_sum: f64,
    /// Concatenated (id, θ) high-contribution pairs across chunks.
    scores: Vec<(u64, f64)>,
    /// Concatenated low-contribution ids across chunks.
    low: Vec<u64>,
}

impl RoundFold {
    pub(super) fn new(config: &BflConfig, round: usize, round_start: f64, dim: usize) -> Self {
        let (chunk, dim) = match config.aggregation {
            AggregationMode::Streaming { chunk } => (chunk, dim),
            AggregationMode::Materialized => (usize::MAX, 0),
        };
        RoundFold {
            round,
            round_start,
            chunk,
            admitted: 0,
            stale_included: 0,
            max_own_finish: 0.0,
            loss_sum: 0.0,
            forged: Vec::new(),
            weighted_sum: vec![0.0; dim],
            weight_sum: 0.0,
            scores: Vec::new(),
            low: Vec::new(),
        }
    }

    /// Uploads the round holds: the pending pool plus what it has drained.
    pub(super) fn pending(&self, rt: &AsyncRuntime) -> usize {
        rt.arrived.len() + self.admitted
    }

    /// Drains the pending pool into the round's tally and returns its
    /// uploads, ordered by client id.
    pub(super) fn drain(&mut self, rt: &mut AsyncRuntime) -> Vec<VerifiedUpload> {
        let pool = std::mem::take(&mut rt.arrived);
        self.admitted += pool.len();
        self.stale_included += pool.values().filter(|a| a.born_round < self.round).count();
        self.max_own_finish = pool
            .values()
            .filter(|a| a.born_round == self.round)
            .map(|a| a.train_finished_s - self.round_start)
            .fold(self.max_own_finish, f64::max);
        self.loss_sum += pool.values().map(|a| a.final_epoch_loss).sum::<f64>();
        let uploads: Vec<VerifiedUpload> = pool.into_values().map(|a| a.upload).collect();
        self.forged
            .extend(uploads.iter().filter(|u| u.forged).map(|u| u.client_id));
        uploads
    }

    /// Streaming: absorbs one chunk committee into the running sum.
    pub(super) fn absorb(&mut self, uploads: Vec<VerifiedUpload>, config: &BflConfig) {
        if uploads.is_empty() {
            return;
        }
        let refs: Vec<(u64, &[f64])> = uploads
            .iter()
            .map(|u| (u.client_id, u.params.as_slice()))
            .collect();
        let analysis =
            analyze_contributions(&refs, &config.clustering, config.metric, config.anchor);
        let discards = config.strategy.discards();
        // Kept-but-low uploads (the keep strategy) weigh in at the floor,
        // mirroring `compute_global_update`; `None` is a discarded upload.
        let weight = |theta: &Option<f64>| match theta {
            None if discards => None,
            _ if !config.fair_aggregation => Some(1.0),
            Some(theta) => Some(*theta),
            None => Some(WEIGHT_FLOOR),
        };
        let kept = || {
            refs.iter()
                .zip(&analysis.theta_by_upload)
                .filter_map(|((_, params), theta)| Some((*params, weight(theta)?)))
        };
        gradient::add_weighted_rows(&mut self.weighted_sum, kept);
        self.weight_sum = kept().fold(self.weight_sum, |sum, (_, weight)| sum + weight);
        self.scores.extend(analysis.high_contribution);
        if discards {
            self.low.extend(analysis.low_contribution);
        }
    }

    /// Settles the round over what the pool still holds. Returns the
    /// hand-off with, beside it, the slowest counted own-round local pass
    /// (the event clock's `T_local`).
    pub(super) fn seal(mut self, rt: &mut AsyncRuntime, config: &BflConfig) -> (SealedRound, f64) {
        let reward = ProportionalReward {
            base: config.reward_base,
        };
        let uploads = self.drain(rt);
        let train_loss = self.loss_sum / self.admitted as f64;
        let sealed = if config.aggregation.is_streaming() {
            // The final partial chunk; then rewards are paid exactly once
            // over the concatenated θ scores, sorted by client id (the
            // materialized order).
            self.absorb(uploads, config);
            self.scores.sort_unstable_by_key(|entry| entry.0);
            self.low.sort_unstable();
            self.forged.sort_unstable();
            SealedRound {
                participants: self.admitted,
                stale_included: self.stale_included,
                train_loss,
                global_params: self
                    .weighted_sum
                    .iter()
                    .map(|&v| v / self.weight_sum)
                    .collect(),
                rewards: reward.round_rewards(&self.scores),
                high_contributors: self.scores.len(),
                attackers: self.forged,
                dropped: self.low,
            }
        } else {
            let policy = GlobalUpdatePolicy::for_round(config, self.round, &reward);
            let global = global_update::compute_global_update(&uploads, &policy);
            let (participants, stale) = (self.admitted, self.stale_included);
            SealedRound::from_global_update(global, participants, stale, train_loss, self.forged)
        };
        (sealed, self.max_own_finish)
    }
}
