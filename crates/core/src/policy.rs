//! The scenario's policies, set through `BflConfig` with the paper's
//! behaviour as the default.
//!
//! FAIR-BFL's contribution is a *redesign space*: which gradient the round
//! anchors on and what happens to stale, lost and stranded uploads are
//! design choices, not fixed code paths. The incentive is one rule, paid
//! from the configured `reward_base`:
//!
//! * [`AggregationAnchor`] — the reference gradient Algorithm 2 clusters
//!   against and measures θ from. The paper uses the plain average
//!   ([`AggregationAnchor::Mean`]); the median and trimmed-mean anchors
//!   survive scaling attackers strong enough to corrupt the mean itself.
//! * [`ProportionalReward`] — how a round's θ scores become paid rewards:
//!   the paper's `θ_i / Σ θ_k · base`.
//! * [`StalenessPolicy`], [`RetryPolicy`] and [`ReorgPolicy`] — the event
//!   engine's handling of late, lost and stranded uploads.
//!
//! A caller that wants each round as it completes steps the run itself
//! ([`crate::engine::SimulationRun::step`]).

use crate::error::CoreError;
use crate::reward::{build_reward_list, RewardEntry};
use bfl_ml::gradient::{average_refs, trimmed_mean_refs, GradientVector};
use serde::{Deserialize, Serialize};

/// The reference gradient of a round: what Algorithm 2 appends to the
/// clustered set, measures every upload's θ against, and (under the
/// discard strategy) recomputes from the kept uploads.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum AggregationAnchor {
    /// The simple average of all uploads — Algorithm 1 line 24, the
    /// paper's behaviour. Corruptible: a scaling attacker much stronger
    /// than the honest head-count drags the anchor onto itself.
    #[default]
    Mean,
    /// The coordinate-wise median. Robust to a minority of arbitrarily
    /// scaled uploads.
    Median,
    /// The coordinate-wise trimmed mean: `floor(trim_ratio · n)` values
    /// are discarded from each end of every coordinate before averaging.
    TrimmedMean {
        /// Fraction trimmed from each end, in `[0, 0.5]`.
        trim_ratio: f64,
    },
}

impl AggregationAnchor {
    /// Validates the anchor's parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            AggregationAnchor::TrimmedMean { trim_ratio } if !(0.0..=0.5).contains(trim_ratio) => {
                Err(CoreError::invalid(format!(
                    "trimmed-mean trim_ratio must be in [0, 0.5], got {trim_ratio}"
                )))
            }
            _ => Ok(()),
        }
    }

    /// Computes the anchor gradient over the given uploads.
    pub fn compute(&self, uploads: &[&[f64]]) -> GradientVector {
        assert!(!uploads.is_empty(), "cannot anchor on zero uploads");
        match self {
            AggregationAnchor::Mean => average_refs(uploads),
            AggregationAnchor::Median => trimmed_mean_refs(uploads, 0.5),
            AggregationAnchor::TrimmedMean { trim_ratio } => {
                trimmed_mean_refs(uploads, *trim_ratio)
            }
        }
    }
}

/// What the asynchronous engine does with a *stale* upload — one that was
/// commissioned in an earlier round but arrived after that round's
/// flexible block quota had already been reached and its block sealed.
///
/// The synchronous engine never produces stale uploads (a round waits for
/// every participant); under a flexible quota they are the normal fate of
/// stragglers, and the policy decides whether their work is wasted or
/// carried into the next block.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum StalenessPolicy {
    /// Drop stale uploads on arrival. Straggler work is wasted, but the
    /// aggregate only ever mixes gradients computed against the current
    /// global model.
    #[default]
    Discard,
    /// Carry stale uploads into the next block, decayed toward the
    /// current global parameters by `decay^age` (see
    /// [`bfl_fl::aggregation::decay_stale_update`]): an `age`-rounds-late
    /// upload contributes `global + decay^age · (upload − global)`.
    DecayedInclude {
        /// Per-round decay factor, in `(0, 1]`. `1` includes stale
        /// uploads verbatim; smaller values fade them toward the current
        /// global model the later they arrive.
        decay: f64,
    },
}

impl StalenessPolicy {
    /// Validates the policy's parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            StalenessPolicy::DecayedInclude { decay } if !(*decay > 0.0 && *decay <= 1.0) => Err(
                CoreError::invalid(format!("staleness decay must be in (0, 1], got {decay}")),
            ),
            _ => Ok(()),
        }
    }

    /// Applies the policy to a stale upload `age >= 1` rounds old:
    /// `None` discards it, `Some(params)` is what enters the block.
    pub fn apply(&self, global: &[f64], params: &[f64], age: usize) -> Option<Vec<f64>> {
        match *self {
            StalenessPolicy::Discard => None,
            StalenessPolicy::DecayedInclude { decay } => Some(
                bfl_fl::aggregation::decay_stale_update(global, params, decay, age),
            ),
        }
    }

    /// True when [`Self::apply`] returns `None` for every stale upload,
    /// whatever it carries — the miner can then drop a late arrival
    /// without opening it.
    pub fn discards_unseen(&self) -> bool {
        matches!(self, StalenessPolicy::Discard)
    }
}

/// What a client does when its upload is lost in transit (a link drop,
/// a corrupted delivery, or a send to a crashed miner).
///
/// Without retries, a lost upload simply never counts toward the round's
/// quota — the paper's edge clients are "difficult to guarantee" and the
/// round degrades. With exponential backoff, the client re-sends after a
/// per-attempt timeout plus a growing delay (jitter drawn from the
/// engine's dedicated fault RNG stream, so replays are bit-identical).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum RetryPolicy {
    /// Never retry: a lost upload is lost for the round.
    #[default]
    None,
    /// Retry with exponential backoff after each detected loss.
    Backoff {
        /// Total send attempts, including the first (>= 1).
        max_attempts: u32,
        /// Seconds after the send at which the client gives up waiting
        /// for an acknowledgement and declares the attempt lost.
        timeout_s: f64,
        /// Backoff before the second attempt, in seconds.
        base_s: f64,
        /// Multiplier applied to the backoff per further attempt (>= 1).
        factor: f64,
        /// Maximum uniform jitter added to each backoff, in seconds.
        jitter_s: f64,
    },
}

impl RetryPolicy {
    /// Validates the policy's parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        match *self {
            RetryPolicy::None => Ok(()),
            RetryPolicy::Backoff {
                max_attempts,
                timeout_s,
                base_s,
                factor,
                jitter_s,
            } => {
                if max_attempts == 0 {
                    return Err(CoreError::invalid("retry max_attempts must be >= 1"));
                }
                for (name, v) in [
                    ("timeout_s", timeout_s),
                    ("base_s", base_s),
                    ("jitter_s", jitter_s),
                ] {
                    if !(v.is_finite() && v >= 0.0) {
                        return Err(CoreError::invalid(format!(
                            "retry {name} must be finite and non-negative, got {v}"
                        )));
                    }
                }
                if !(factor.is_finite() && factor >= 1.0) {
                    return Err(CoreError::invalid(format!(
                        "retry factor must be finite and >= 1, got {factor}"
                    )));
                }
                Ok(())
            }
        }
    }

    /// Seconds from the (failed) send of attempt number `attempt`
    /// (1-based) until the retry send, or `None` when the attempt budget
    /// is spent. `jitter01` is a uniform draw in `[0, 1)` from the fault
    /// RNG stream.
    pub fn backoff_delay(&self, attempt: u32, jitter01: f64) -> Option<f64> {
        match *self {
            RetryPolicy::None => None,
            RetryPolicy::Backoff {
                max_attempts,
                timeout_s,
                base_s,
                factor,
                jitter_s,
            } => (attempt < max_attempts).then(|| {
                let backoff = base_s * factor.powi(attempt.saturating_sub(1) as i32);
                timeout_s + backoff + jitter01 * jitter_s
            }),
        }
    }
}

/// What becomes of the uploads stranded on the losing branch of a healed
/// fork. When a partition splits the miner mesh, the secondary component
/// keeps accepting uploads and mining its own blocks; at heal time the
/// longest chain wins and the losing branch's rounds are orphaned.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum ReorgPolicy {
    /// Orphaned uploads are dropped — their training work is wasted,
    /// exactly like a discarded stale upload.
    #[default]
    Discard,
    /// Orphaned uploads are re-submitted to the winning branch's mempool
    /// at heal time, subject to the run's staleness policy (they are by
    /// construction at least one round old).
    Salvage,
}

/// The paper's incentive mechanism: every high contributor is paid
/// `θ_i / Σ θ_k · base` (Algorithm 2's reward list).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProportionalReward {
    /// The per-round reward pool.
    pub base: f64,
}

impl ProportionalReward {
    /// Builds one round's reward list from the (client, θ) pairs of the
    /// clients labelled high contribution.
    pub fn round_rewards(&self, scores: &[(u64, f64)]) -> Vec<RewardEntry> {
        build_reward_list(scores, self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_anchor_matches_plain_average() {
        let uploads = [&[1.0, 2.0][..], &[3.0, 4.0][..]];
        assert_eq!(AggregationAnchor::Mean.compute(&uploads), vec![2.0, 3.0]);
    }

    #[test]
    fn median_anchor_ignores_a_wild_upload() {
        let uploads = [
            &[1.0][..],
            &[1.1][..],
            &[0.9][..],
            &[-80.0][..],
            &[1.05][..],
        ];
        let anchor = AggregationAnchor::Median.compute(&uploads);
        assert!((anchor[0] - 1.0).abs() < 0.11);
    }

    #[test]
    fn trimmed_mean_anchor_validates_its_ratio() {
        assert!(AggregationAnchor::TrimmedMean { trim_ratio: 0.25 }
            .validate()
            .is_ok());
        let err = AggregationAnchor::TrimmedMean { trim_ratio: 0.7 }
            .validate()
            .unwrap_err();
        assert!(matches!(err, CoreError::InvalidConfig(_)));
        assert!(AggregationAnchor::TrimmedMean { trim_ratio: -0.1 }
            .validate()
            .is_err());
        assert!(AggregationAnchor::Mean.validate().is_ok());
    }

    #[test]
    fn anchors_serialize_and_default_to_mean() {
        assert_eq!(AggregationAnchor::default(), AggregationAnchor::Mean);
        let json =
            serde_json::to_string(&AggregationAnchor::TrimmedMean { trim_ratio: 0.2 }).unwrap();
        let back: AggregationAnchor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, AggregationAnchor::TrimmedMean { trim_ratio: 0.2 });
    }

    #[test]
    fn staleness_policies_validate_and_apply() {
        assert!(StalenessPolicy::Discard.validate().is_ok());
        assert!(StalenessPolicy::DecayedInclude { decay: 0.5 }
            .validate()
            .is_ok());
        assert!(StalenessPolicy::DecayedInclude { decay: 0.0 }
            .validate()
            .is_err());
        assert!(StalenessPolicy::DecayedInclude { decay: 1.5 }
            .validate()
            .is_err());

        let global = [0.0, 0.0];
        let params = [4.0, -2.0];
        assert_eq!(StalenessPolicy::Discard.apply(&global, &params, 1), None);
        assert!(StalenessPolicy::Discard.discards_unseen());
        assert!(!StalenessPolicy::DecayedInclude { decay: 0.5 }.discards_unseen());
        assert_eq!(
            StalenessPolicy::DecayedInclude { decay: 0.5 }.apply(&global, &params, 1),
            Some(vec![2.0, -1.0])
        );
        assert_eq!(StalenessPolicy::default(), StalenessPolicy::Discard);
    }

    #[test]
    fn retry_policy_validates_and_schedules_backoff() {
        assert!(RetryPolicy::None.validate().is_ok());
        assert_eq!(RetryPolicy::default(), RetryPolicy::None);
        assert_eq!(RetryPolicy::None.backoff_delay(1, 0.5), None);

        let backoff = RetryPolicy::Backoff {
            max_attempts: 3,
            timeout_s: 2.0,
            base_s: 1.0,
            factor: 2.0,
            jitter_s: 0.5,
        };
        backoff.validate().unwrap();
        // First attempt fails: retry after timeout + base + jitter.
        assert_eq!(backoff.backoff_delay(1, 0.0), Some(3.0));
        // Second attempt fails: backoff doubles, jitter applies.
        assert_eq!(backoff.backoff_delay(2, 1.0), Some(2.0 + 2.0 + 0.5));
        // Attempt budget spent.
        assert_eq!(backoff.backoff_delay(3, 0.0), None);

        let bad = RetryPolicy::Backoff {
            max_attempts: 0,
            timeout_s: 1.0,
            base_s: 1.0,
            factor: 2.0,
            jitter_s: 0.0,
        };
        assert!(bad.validate().is_err());
        let bad_factor = RetryPolicy::Backoff {
            max_attempts: 2,
            timeout_s: 1.0,
            base_s: 1.0,
            factor: 0.5,
            jitter_s: 0.0,
        };
        assert!(bad_factor.validate().is_err());
        let bad_timeout = RetryPolicy::Backoff {
            max_attempts: 2,
            timeout_s: f64::INFINITY,
            base_s: 1.0,
            factor: 2.0,
            jitter_s: 0.0,
        };
        assert!(bad_timeout.validate().is_err());
    }

    #[test]
    fn reorg_policy_names_and_default() {
        assert_eq!(ReorgPolicy::default(), ReorgPolicy::Discard);
        let json = serde_json::to_string(&ReorgPolicy::Salvage).unwrap();
        let back: ReorgPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ReorgPolicy::Salvage);
    }

    #[test]
    fn proportional_reward_matches_the_reward_list() {
        let scores = [(1u64, 0.25), (2u64, 0.75)];
        let policy = ProportionalReward { base: 10.0 };
        assert_eq!(
            policy.round_rewards(&scores),
            build_reward_list(&scores, 10.0)
        );
    }
}
