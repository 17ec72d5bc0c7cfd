//! Per-round run records and the paper's convergence criterion.
//!
//! "We consider the model as converged when the accuracy in change is
//! within 0.5% for 5 consecutive communication rounds" (Section 5.2); the
//! same criterion is applied to every system in the comparison.

use serde::{Deserialize, Serialize};

/// Measurements taken at the end of one communication round.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Communication round index (1-based, matching the paper's figures).
    pub round: usize,
    /// Mean verification accuracy across clients at the end of the round.
    pub accuracy: f64,
    /// Mean training loss reported by the participating clients.
    pub train_loss: f64,
    /// Simulated wall-clock duration of this round in seconds.
    pub round_delay_s: f64,
    /// Simulated time elapsed since the start of the run, in seconds.
    pub elapsed_s: f64,
    /// Number of clients whose updates entered the aggregation.
    pub participants: usize,
}

/// The full history of a run plus convergence bookkeeping.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunHistory {
    /// Per-round records in order.
    pub rounds: Vec<RoundRecord>,
}

/// Accuracy-change tolerance of the convergence criterion (0.5 %).
pub const CONVERGENCE_TOLERANCE: f64 = 0.005;
/// Number of consecutive stable rounds required for convergence.
pub const CONVERGENCE_WINDOW: usize = 5;

impl RunHistory {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a round record.
    pub fn push(&mut self, record: RoundRecord) {
        self.rounds.push(record);
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when no rounds have been recorded.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Accuracy after the last recorded round, or `None` for an empty
    /// history (an empty run has no accuracy — callers that used to rely
    /// on the old `0.0` sentinel should decide explicitly what an empty
    /// run means for them).
    pub fn final_accuracy(&self) -> Option<f64> {
        self.rounds.last().map(|r| r.accuracy)
    }

    /// Mean per-round delay in seconds.
    pub fn mean_round_delay(&self) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        self.rounds.iter().map(|r| r.round_delay_s).sum::<f64>() / self.rounds.len() as f64
    }

    /// Cumulative average delay after each round — the series Figure 4a and
    /// Figure 7a plot against the communication round.
    pub fn cumulative_average_delay(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rounds.len());
        let mut total = 0.0;
        for (i, r) in self.rounds.iter().enumerate() {
            total += r.round_delay_s;
            out.push(total / (i + 1) as f64);
        }
        out
    }

    /// First round (1-based) at which the convergence criterion is met, if
    /// any: accuracy changed by less than 0.5 percentage points for five
    /// consecutive rounds.
    pub fn convergence_round(&self) -> Option<usize> {
        if self.rounds.len() < CONVERGENCE_WINDOW + 1 {
            return None;
        }
        let mut stable = 0usize;
        for w in self.rounds.windows(2) {
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

    fn record(round: usize, accuracy: f64, delay: f64) -> RoundRecord {
        RoundRecord {
            round,
            accuracy,
            train_loss: 1.0 / round as f64,
            round_delay_s: delay,
            elapsed_s: delay * round as f64,
            participants: 10,
        }
    }

    #[test]
    fn empty_history_defaults() {
        let h = RunHistory::new();
        assert!(h.is_empty());
        assert_eq!(h.final_accuracy(), None);
        assert_eq!(h.mean_round_delay(), 0.0);
        assert!(h.convergence_round().is_none());
        assert!(h.cumulative_average_delay().is_empty());
    }

    #[test]
    fn summary_statistics() {
        let mut h = RunHistory::new();
        h.push(record(1, 0.5, 2.0));
        h.push(record(2, 0.7, 4.0));
        assert_eq!(h.len(), 2);
        assert!((h.final_accuracy().unwrap() - 0.7).abs() < 1e-12);
        assert!((h.mean_round_delay() - 3.0).abs() < 1e-12);
        let cum = h.cumulative_average_delay();
        assert_eq!(cum, vec![2.0, 3.0]);
    }

    #[test]
    fn convergence_requires_five_stable_rounds() {
        let mut h = RunHistory::new();
        // Rapid growth then a plateau from round 6.
        let accuracies = [
            0.3, 0.5, 0.65, 0.75, 0.82, 0.90, 0.902, 0.903, 0.901, 0.902, 0.904,
        ];
        for (i, &a) in accuracies.iter().enumerate() {
            h.push(record(i + 1, a, 1.0));
        }
        // Stable pairs start at (6,7); the fifth stable pair ends at round 11.
        assert_eq!(h.convergence_round(), Some(11));
    }

    #[test]
    fn no_convergence_when_accuracy_keeps_moving() {
        let mut h = RunHistory::new();
        for round in 1..=20 {
            h.push(record(round, 0.03 * round as f64, 1.0));
        }
        assert!(h.convergence_round().is_none());
    }

    #[test]
    fn serde_round_trip() {
        let mut h = RunHistory::new();
        h.push(record(1, 0.4, 3.0));
        let json = serde_json::to_string(&h).unwrap();
        let back: RunHistory = serde_json::from_str(&json).unwrap();
        assert_eq!(back, h);
    }
}
