//! Run-level record types.
//!
//! The round loop itself lives in the stepwise engine
//! ([`crate::engine::SimulationRun`]); scenarios are composed and driven
//! through [`crate::scenario::Scenario`]. This module keeps the shared
//! result types ([`KpiRow`], [`RoundOutcome`], [`SimulationResult`]); a
//! result's summaries (mean delay, final accuracy, the paper's convergence
//! criterion) are implemented in `history.rs`.

use crate::delay_model::DelayBreakdown;
use crate::detection::DetectionTable;
use crate::flexibility::FlexibilityMode;
use crate::reward::RewardEntry;
use bfl_chain::Blockchain;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The per-round key performance indicators observers and the experiment
/// harness consume directly, without re-deriving them from the event
/// trace.
///
/// Every engine fills the row: the synchronous and chain-only engines
/// report the round makespan with all event-driven counters at zero
/// (nothing queues, goes stale, or retries there), while the flexible
/// event engine additionally snapshots its miners' pending pool and the
/// fault/staleness counters accumulated since the previous seal.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct KpiRow {
    /// Simulated wall-clock of the round, in seconds (the delay
    /// breakdown's total).
    pub makespan_s: f64,
    /// Verified uploads in the event engine's pending pool — the only pool
    /// its miners keep; no serialized copy sits in a `bfl_chain::Mempool`
    /// beside it — at the moment the quota or the deadline fired, before
    /// the seal drained them. Under streaming aggregation that is the
    /// un-flushed tail of the last chunk. 0 outside the event engine.
    pub mempool_depth_at_seal: usize,
    /// Stale uploads the staleness policy carried into this round's block.
    pub stale_included: usize,
    /// Stale uploads discarded this round.
    pub stale_discarded: usize,
    /// Uploads lost to the fault plan's drop/partition decisions this
    /// round.
    pub dropped_uploads: usize,
    /// Upload retransmissions scheduled by the retry policy this round.
    pub retried_uploads: usize,
}

/// Everything recorded about one communication round — the run's only
/// per-round record.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundOutcome {
    /// Communication round (1-based).
    pub round: usize,
    /// Simulated time elapsed since the start of the run when the round
    /// ended, in seconds.
    pub elapsed_s: f64,
    /// Per-procedure delay breakdown.
    pub breakdown: DelayBreakdown,
    /// Global-model accuracy on the held-out test set after the round.
    pub accuracy: f64,
    /// Mean final-epoch training loss across participants.
    pub train_loss: f64,
    /// Number of uploads that entered the aggregation.
    pub participants: usize,
    /// How many of those uploads were *stale* — commissioned in an
    /// earlier round and carried into this block by the staleness policy.
    /// Always zero in synchronous mode.
    pub stale_included: usize,
    /// Ground-truth attacker ids of the round.
    pub attackers: Vec<u64>,
    /// Clients dropped by the discard strategy this round.
    pub dropped: Vec<u64>,
    /// Number of clients labelled high contribution.
    pub high_contributors: usize,
    /// Total reward paid this round, in milli-units of the base.
    pub rewards_paid_milli: u64,
    /// The round's full reward list (what the block records), so
    /// observers can stream payouts without re-reading the ledger.
    pub rewards: Vec<RewardEntry>,
    /// Hash of the block sealed this round (when mining is active).
    pub block_hash: Option<String>,
    /// The round's KPI row (makespan, mempool depth, stale/drop/retry
    /// counters), typed so observers don't re-derive it from the trace.
    pub kpi: KpiRow,
}

/// The complete result of a simulation run.
#[derive(Debug, Clone)]
pub struct SimulationResult {
    /// Per-round outcomes, in round order.
    pub outcomes: Vec<RoundOutcome>,
    /// The canonical ledger (when the mode mines).
    pub chain: Option<Blockchain>,
    /// Attacker-detection table (Table 2 bookkeeping).
    pub detection: DetectionTable,
    /// Cumulative rewards per client, in milli-units.
    pub reward_totals: BTreeMap<u64, u64>,
    /// Final global parameters (empty for the chain-only mode).
    pub final_params: Vec<f64>,
    /// The flexibility mode the run used.
    pub mode: FlexibilityMode,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AttackConfig, BflConfig};
    use crate::scenario::Scenario;
    use crate::strategy::LowContributionStrategy;
    use bfl_data::synth_mnist::{SynthMnist, SynthMnistConfig};
    use bfl_data::Dataset;
    use bfl_fl::config::PartitionKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_data() -> (Dataset, Dataset) {
        let gen = SynthMnist::new(SynthMnistConfig {
            train_samples: 200,
            test_samples: 60,
            noise_std: 0.05,
            max_translation: 1.0,
        });
        let mut rng = StdRng::seed_from_u64(11);
        gen.generate(&mut rng)
    }

    fn run(config: BflConfig, train: &Dataset, test: &Dataset) -> SimulationResult {
        Scenario::from_config(config)
            .unwrap()
            .run(train, test)
            .unwrap()
    }

    fn base_config(rounds: usize) -> BflConfig {
        let mut config = BflConfig::small_test(rounds);
        config.fl.partition = PartitionKind::Iid;
        config
    }

    #[test]
    fn full_bfl_run_produces_consistent_artifacts() {
        let (train, test) = tiny_data();
        let config = base_config(3);
        let result = run(config, &train, &test);

        assert_eq!(result.outcomes.len(), 3);
        assert_eq!(result.mode, FlexibilityMode::FullBfl);
        // One block per round plus genesis, no empty blocks, valid chain.
        let chain = result.chain.as_ref().expect("full BFL mines");
        assert_eq!(chain.height(), 3);
        assert_eq!(chain.empty_block_count(), 0);
        chain.validate_all().unwrap();
        // The chain's latest global gradient matches the final parameters.
        let (round, payload) = chain.latest_global_gradient().unwrap();
        assert_eq!(round, 3);
        assert_eq!(
            bfl_ml::gradient::from_bytes(&payload).unwrap(),
            result.final_params
        );
        // Rewards recorded on chain agree with the totals we tracked, and
        // the per-round reward lists sum to the per-round totals.
        assert_eq!(chain.reward_totals(), result.reward_totals);
        for outcome in &result.outcomes {
            let listed: u64 = outcome.rewards.iter().map(|r| r.amount_milli).sum();
            assert_eq!(listed, outcome.rewards_paid_milli);
        }
        // Delays are positive and the clock is cumulative.
        assert!(result.outcomes.iter().all(|o| o.breakdown.total() > 0.0));
        let elapsed: Vec<f64> = result.outcomes.iter().map(|o| o.elapsed_s).collect();
        assert!(elapsed.windows(2).all(|w| w[1] > w[0]));
        // Accuracy is meaningful by round 3 on the tiny IID task.
        assert!(result.final_accuracy().unwrap() > 0.5);
    }

    #[test]
    fn step_lends_the_record_the_run_keeps() {
        let (train, test) = tiny_data();
        let scenario = Scenario::from_config(base_config(3)).unwrap();
        let mut run = scenario.start(&train, &test).unwrap();
        let mut clock = 0.0;
        for round in 1..=3 {
            let lent = run.step().unwrap().expect("rounds remain") as *const RoundOutcome;
            let kept = run.outcomes().last().unwrap();
            assert!(std::ptr::eq(lent, kept), "no second copy of the round");
            assert_eq!(kept.round, round);
            // The record carries the run's clock: the delays so far.
            clock += kept.breakdown.total();
            assert!((kept.elapsed_s - clock).abs() < 1e-9);
        }
        assert!(run.step().unwrap().is_none());
        assert_eq!(run.into_result().outcomes.len(), 3);
    }

    #[test]
    fn detection_rows_are_scored_from_the_outcome_in_learning_modes_only() {
        let (train, test) = tiny_data();
        let mut config = base_config(3);
        config.strategy = LowContributionStrategy::Discard;
        config.attack = AttackConfig::table2();
        config.fl.participation_ratio = 1.0;
        for mode in [FlexibilityMode::FullBfl, FlexibilityMode::FlOnly] {
            let result = run(BflConfig { mode, ..config }, &train, &test);
            assert_eq!(result.detection.len(), 3);
            for (row, outcome) in result.detection.rows.iter().zip(&result.outcomes) {
                assert_eq!(row.round, outcome.round);
                assert_eq!(row.attacker_ids, outcome.attackers);
                assert_eq!(row.dropped_ids, outcome.dropped);
            }
        }
        // Chain-only never runs Algorithm 2: no rows, not rows of zeros.
        let mode = FlexibilityMode::ChainOnly;
        let result = run(BflConfig { mode, ..config }, &train, &test);
        assert_eq!(result.outcomes.len(), 3);
        assert!(result.detection.is_empty());
    }

    #[test]
    fn fl_only_mode_produces_no_chain_and_no_mining_delay() {
        let (train, test) = tiny_data();
        let mut config = base_config(2);
        config.mode = FlexibilityMode::FlOnly;
        let result = run(config, &train, &test);
        assert!(result.chain.is_none());
        assert!(result.outcomes.iter().all(|o| o.block_hash.is_none()));
        assert!(result
            .outcomes
            .iter()
            .all(|o| o.breakdown.t_bl == 0.0 && o.breakdown.t_ex == 0.0));
        assert!(result.final_accuracy().unwrap() > 0.3);
    }

    #[test]
    fn chain_only_mode_builds_a_ledger_without_learning() {
        let (train, test) = tiny_data();
        let mut config = base_config(2);
        config.mode = FlexibilityMode::ChainOnly;
        let result = run(config, &train, &test);
        let chain = result.chain.as_ref().unwrap();
        assert!(chain.height() >= 2, "at least one block per round");
        chain.validate_all().unwrap();
        // Nothing was trained, so there is no accuracy to report.
        assert_eq!(result.final_accuracy(), None);
        assert!(result.final_params.is_empty());
        assert!(result.outcomes.iter().all(|o| o.breakdown.t_local == 0.0));
    }

    #[test]
    fn full_bfl_is_slower_than_fl_only_but_faster_than_chain_baseline_at_scale() {
        let (train, test) = tiny_data();
        let mut fair = base_config(3);
        fair.fl.clients = 10;
        let mut fl_only = fair;
        fl_only.mode = FlexibilityMode::FlOnly;
        let mut chain_only = fair;
        chain_only.mode = FlexibilityMode::ChainOnly;
        // The pure-blockchain baseline records every one of the 100 workers'
        // transactions; model that scale for the delay comparison.
        chain_only.fl.clients = 100;

        let fair_result = run(fair, &train, &test);
        let fl_result = run(fl_only, &train, &test);
        let chain_result = run(chain_only, &train, &test);

        assert!(fair_result.mean_delay() > fl_result.mean_delay());
        assert!(chain_result.mean_delay() > fair_result.mean_delay());
    }

    #[test]
    fn discard_strategy_detects_sign_flip_attackers() {
        let (train, test) = tiny_data();
        let mut config = base_config(5);
        config.strategy = LowContributionStrategy::Discard;
        config.attack = AttackConfig::table2();
        config.fl.participation_ratio = 1.0;
        let result = run(config, &train, &test);

        assert_eq!(result.detection.len(), 5);
        let (total_attackers, caught) = result.detection.totals();
        assert!(
            total_attackers >= 5,
            "1-3 attackers per round over 5 rounds"
        );
        let rate = result.detection.average_detection_rate();
        assert!(
            rate > 0.6,
            "sign-flip attackers should be caught most of the time (rate {rate}, {caught}/{total_attackers})"
        );
        // Dropped clients are excluded from the aggregation and the reward
        // list by construction: high contributors and dropped (low)
        // contributors partition the round's participants, and a non-empty
        // round always keeps at least one contributor.
        for outcome in &result.outcomes {
            assert!(
                outcome.high_contributors + outcome.dropped.len() <= outcome.participants,
                "round {}: {} high + {} dropped exceeds {} participants",
                outcome.round,
                outcome.high_contributors,
                outcome.dropped.len(),
                outcome.participants
            );
            assert!(
                outcome.high_contributors > 0,
                "round {}: a non-empty round must keep at least one contributor",
                outcome.round
            );
        }
    }

    #[test]
    fn signature_verification_can_be_disabled() {
        let (train, test) = tiny_data();
        let mut config = base_config(2);
        config.verify_signatures = false;
        let result = run(config, &train, &test);
        assert_eq!(result.outcomes.len(), 2);
    }

    #[test]
    fn runs_are_reproducible() {
        let (train, test) = tiny_data();
        let config = base_config(3);
        let a = run(config, &train, &test);
        let b = run(config, &train, &test);
        assert_eq!(a.final_params, b.final_params);
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.reward_totals, b.reward_totals);
    }

    #[test]
    fn fair_aggregation_ablation_changes_the_trajectory() {
        let (train, test) = tiny_data();
        let mut fair = base_config(3);
        fair.fair_aggregation = true;
        let mut simple = base_config(3);
        simple.fair_aggregation = false;
        let a = run(fair, &train, &test);
        let b = run(simple, &train, &test);
        assert_ne!(a.final_params, b.final_params);
    }
}
