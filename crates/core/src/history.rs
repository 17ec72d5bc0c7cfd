//! Run-level summaries over [`SimulationResult::outcomes`] and the
//! paper's convergence criterion.
//!
//! "We consider the model as converged when the accuracy in change is
//! within 0.5% for 5 consecutive communication rounds" (Section 5.2); the
//! same criterion is applied to every system in the comparison.

use crate::simulation::SimulationResult;

/// Accuracy-change tolerance of the convergence criterion (0.5 %).
const CONVERGENCE_TOLERANCE: f64 = 0.005;
/// Number of consecutive stable rounds required for convergence.
const CONVERGENCE_WINDOW: usize = 5;

impl SimulationResult {
    /// Mean per-round delay in seconds (0 for a run with no round).
    pub fn mean_delay(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let total: f64 = self.outcomes.iter().map(|o| o.breakdown.total()).sum();
        total / self.outcomes.len() as f64
    }

    /// Test accuracy after the last completed round; `None` when no round
    /// completed or the mode trains nothing (a chain-only run has no
    /// model, so it has no accuracy — not an accuracy of zero).
    pub fn final_accuracy(&self) -> Option<f64> {
        if !self.mode.learns() {
            return None;
        }
        self.outcomes.last().map(|o| o.accuracy)
    }

    /// First round (1-based) at which the convergence criterion is met, if
    /// any: accuracy changed by less than 0.5 percentage points for five
    /// consecutive rounds. A mode that trains nothing never converges.
    pub fn convergence_round(&self) -> Option<usize> {
        if !self.mode.learns() {
            return None;
        }
        let mut stable = 0usize;
        for w in self.outcomes.windows(2) {
            if (w[1].accuracy - w[0].accuracy).abs() < CONVERGENCE_TOLERANCE {
                stable += 1;
                if stable >= CONVERGENCE_WINDOW {
                    return Some(w[1].round);
                }
            } else {
                stable = 0;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay_model::DelayBreakdown;
    use crate::detection::DetectionTable;
    use crate::flexibility::FlexibilityMode;
    use crate::simulation::{KpiRow, RoundOutcome};
    use std::collections::BTreeMap;

    /// A learning run whose round `i + 1` ended at `accuracy`, `delay`.
    fn result(rounds: &[(f64, f64)]) -> SimulationResult {
        let outcomes = rounds
            .iter()
            .enumerate()
            .map(|(i, &(accuracy, delay))| RoundOutcome {
                round: i + 1,
                elapsed_s: delay * (i + 1) as f64,
                breakdown: DelayBreakdown {
                    t_local: delay,
                    ..DelayBreakdown::default()
                },
                accuracy,
                train_loss: 1.0 / (i + 1) as f64,
                participants: 10,
                stale_included: 0,
                attackers: Vec::new(),
                dropped: Vec::new(),
                high_contributors: 10,
                rewards_paid_milli: 0,
                rewards: Vec::new(),
                block_hash: None,
                kpi: KpiRow::default(),
            })
            .collect();
        SimulationResult {
            outcomes,
            chain: None,
            detection: DetectionTable::new(),
            reward_totals: BTreeMap::new(),
            final_params: Vec::new(),
            mode: FlexibilityMode::FlOnly,
        }
    }

    #[test]
    fn empty_history_defaults() {
        let r = result(&[]);
        assert_eq!(r.final_accuracy(), None);
        assert_eq!(r.mean_delay(), 0.0);
        assert!(r.convergence_round().is_none());
    }

    #[test]
    fn summary_statistics() {
        let r = result(&[(0.5, 2.0), (0.7, 4.0)]);
        assert!((r.final_accuracy().unwrap() - 0.7).abs() < 1e-12);
        assert!((r.mean_delay() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn final_accuracy_is_absent_when_the_mode_trains_nothing() {
        // Chain-only rounds record 0.0 in `accuracy`; that is a blank, not
        // a measurement — and eight equal blanks are not a plateau. The
        // delays still average.
        let mut r = result(&[(0.0, 3.0); 8]);
        r.mode = FlexibilityMode::ChainOnly;
        assert_eq!(r.final_accuracy(), None);
        assert_eq!(r.convergence_round(), None);
        assert!((r.mean_delay() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn convergence_requires_five_stable_rounds() {
        // Rapid growth then a plateau from round 6.
        let accuracies = [
            0.3, 0.5, 0.65, 0.75, 0.82, 0.90, 0.902, 0.903, 0.901, 0.902, 0.904,
        ];
        let rounds: Vec<(f64, f64)> = accuracies.iter().map(|&a| (a, 1.0)).collect();
        // Stable pairs start at (6,7); the fifth stable pair ends at round 11.
        assert_eq!(result(&rounds).convergence_round(), Some(11));
        // One round short of the fifth stable pair is not converged.
        assert_eq!(result(&rounds[..10]).convergence_round(), None);
    }

    #[test]
    fn no_convergence_when_accuracy_keeps_moving() {
        let rounds: Vec<(f64, f64)> = (1..=20).map(|r| (0.03 * r as f64, 1.0)).collect();
        assert!(result(&rounds).convergence_round().is_none());
    }
}
