//! The per-procedure delay decomposition of Section 4.6.
//!
//! `T(n, m) = T_local + T_up + T_ex + T_gl + T_bl`, where
//!
//! * `T_local` — Procedure-I local SGD, proportional to the number of SGD
//!   steps `E·|D_i|/B` of the slowest selected client (clients run in
//!   parallel, so the maximum matters).
//! * `T_up`   — Procedure-II uploads: one uplink transfer per participant
//!   plus the miner-side per-upload processing (RSA verification, queue
//!   handling), which is serialized at the miner.
//! * `T_ex`   — Procedure-III miner gradient exchange over the (small)
//!   miner mesh; "normally the number of miners will be scarce ... T_ex is
//!   insignificant".
//! * `T_gl`   — Procedure-IV aggregation plus Algorithm 2 clustering,
//!   `O(clustering)` in the number of gradient vectors.
//! * `T_bl`   — Procedure-V mining competition, expected `difficulty /
//!   (total hash rate)` seconds, plus consensus broadcast.
//!
//! The *vanilla* baselines additionally pay costs FAIR-BFL avoids by
//! design: the pure-blockchain baseline records every worker's transaction,
//! so when the per-round transaction volume crosses the block-size limit it
//! queues across multiple blocks (Figure 6a), and with more miners it pays
//! fork-resolution overhead (Figure 6b). FedAvg/FedProx pay only
//! `T_local + T_up` plus a small server aggregation cost.

use crate::error::CoreError;
use bfl_chain::fork::ForkModel;
use bfl_chain::miner::{expected_competition_time, Miner};
use bfl_chain::pow::PowConfig;
use bfl_net::delay::LinkModel;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-procedure breakdown of one round's simulated delay, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct DelayBreakdown {
    /// Procedure-I local training time.
    pub t_local: f64,
    /// Procedure-II upload + verification time.
    pub t_up: f64,
    /// Procedure-III miner exchange time.
    pub t_ex: f64,
    /// Procedure-IV aggregation + clustering time.
    pub t_gl: f64,
    /// Procedure-V mining + consensus time.
    pub t_bl: f64,
    /// Extra block intervals spent clearing a transaction backlog
    /// (vanilla blockchain only).
    pub t_queue: f64,
    /// Extra time spent resolving forks (vanilla blockchain only).
    pub t_fork: f64,
}

impl DelayBreakdown {
    /// Total round delay in seconds.
    pub fn total(&self) -> f64 {
        self.t_local + self.t_up + self.t_ex + self.t_gl + self.t_bl + self.t_queue + self.t_fork
    }
}

/// Calibrated parameters of the delay model. Every golden digest depends
/// on the defaults. What they give at the paper's Section 5.1 scale is
/// measured in `REPRODUCTION.md`, not assumed here: FedAvg is cheaper per
/// round than FAIR (9.76 vs 12.41 s); FAIR is *above* the pure-blockchain
/// baseline at two miners (12.41 vs 8.82 s), and the baseline, growing with
/// the miners, crosses FAIR between six and eight; FAIR-Discard equals FAIR
/// without attackers, since Algorithm 2 then drops nobody.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayModel {
    /// Seconds of client compute per SGD step (one mini-batch).
    pub local_step_seconds: f64,
    /// Client → miner uplink characteristics.
    pub uplink: LinkModel,
    /// Miner ↔ miner backbone characteristics.
    pub miner_link: LinkModel,
    /// Miner-side processing per accepted upload (signature verification,
    /// deduplication), serialized at the miner.
    pub upload_processing_s: f64,
    /// Clustering cost per gradient vector in Algorithm 2.
    pub clustering_seconds_per_vector: f64,
    /// Fixed cost of the aggregation itself (Equation 1 / simple average).
    pub aggregation_seconds: f64,
    /// Hash rate of each miner in hashes per second.
    pub miner_hash_rate: f64,
    /// Proof-of-work difficulty (expected hashes per block).
    pub pow_difficulty: u64,
    /// Consensus broadcast/validation overhead added to every mined block.
    pub consensus_overhead_s: f64,
    /// Fork model for the vanilla baseline.
    pub fork: ForkModel,
    /// Block size limit in bytes.
    pub max_block_bytes: usize,
    /// Serialized size of one model/gradient payload in bytes.
    pub gradient_bytes: usize,
    /// Transaction size of the pure-blockchain baseline in bytes.
    pub baseline_tx_bytes: usize,
    /// Per-transaction processing time of the pure-blockchain baseline.
    pub baseline_tx_process_s: f64,
}

impl Default for DelayModel {
    fn default() -> Self {
        DelayModel {
            local_step_seconds: 0.083,
            uplink: LinkModel::edge_uplink(),
            miner_link: LinkModel::miner_backbone(),
            upload_processing_s: 0.35,
            clustering_seconds_per_vector: 0.08,
            aggregation_seconds: 0.1,
            miner_hash_rate: 1000.0,
            pow_difficulty: 1600,
            consensus_overhead_s: 0.1,
            fork: ForkModel::new(0.3, 2.0),
            max_block_bytes: 512 * 1024,
            gradient_bytes: 7850 * 8,
            baseline_tx_bytes: 5000,
            baseline_tx_process_s: 0.07,
        }
    }
}

impl DelayModel {
    /// Validates what the engines sample, divide by and schedule with, so
    /// a model they cannot run fails here instead of panicking mid-run: a
    /// positive, finite hash rate and link bandwidths, valid latency
    /// distributions on both links, finite, non-negative seconds, and a
    /// chain-only transaction that fits in a block.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.baseline_tx_bytes > self.max_block_bytes {
            return Err(CoreError::invalid(format!(
                "delay.baseline_tx_bytes must fit in a block of delay.max_block_bytes = {}, got {}",
                self.max_block_bytes, self.baseline_tx_bytes
            )));
        }
        let check = |ok: bool, field: &str, want: &str, value: f64| {
            if ok {
                Ok(())
            } else {
                Err(CoreError::invalid(format!(
                    "delay.{field} must be {want}, got {value}"
                )))
            }
        };
        let positive =
            |field: &str, v: f64| check(v.is_finite() && v > 0.0, field, "finite and positive", v);
        positive("miner_hash_rate", self.miner_hash_rate)?;
        for (name, link) in [("uplink", &self.uplink), ("miner_link", &self.miner_link)] {
            positive(
                &format!("{name}.bandwidth_bytes_per_s"),
                link.bandwidth_bytes_per_s,
            )?;
            link.latency
                .validate()
                .map_err(|e| CoreError::invalid(format!("delay.{name}.latency: {e}")))?;
        }
        for (field, v) in [
            ("local_step_seconds", self.local_step_seconds),
            ("upload_processing_s", self.upload_processing_s),
            (
                "clustering_seconds_per_vector",
                self.clustering_seconds_per_vector,
            ),
            ("aggregation_seconds", self.aggregation_seconds),
            ("consensus_overhead_s", self.consensus_overhead_s),
            ("baseline_tx_process_s", self.baseline_tx_process_s),
            ("fork.propagation_delay_s", self.fork.propagation_delay_s),
            (
                "fork.resolution_overhead_s",
                self.fork.resolution_overhead_s,
            ),
        ] {
            check(
                v.is_finite() && v >= 0.0,
                field,
                "finite and non-negative",
                v,
            )?;
        }
        Ok(())
    }

    /// The PoW configuration implied by the model.
    pub fn pow_config(&self) -> PowConfig {
        PowConfig::new(self.pow_difficulty)
    }

    fn miners(&self, count: usize) -> Vec<Miner> {
        (0..count.max(1) as u64)
            .map(|id| Miner::new(id, self.miner_hash_rate))
            .collect()
    }

    /// Procedure-I delay: the slowest participant's local pass.
    pub fn t_local(&self, max_local_steps: usize) -> f64 {
        self.local_step_seconds * max_local_steps as f64
    }

    /// Procedure-II delay for `participants` gradient uploads.
    pub fn t_up<R: Rng + ?Sized>(&self, participants: usize, rng: &mut R) -> f64 {
        if participants == 0 {
            return 0.0;
        }
        // Uploads happen in parallel; the slowest transfer gates the round,
        // then the receiving miners process each accepted upload.
        let slowest_transfer = (0..participants)
            .map(|_| self.uplink.sample_transfer(self.gradient_bytes, rng))
            .fold(0.0f64, f64::max);
        slowest_transfer + participants as f64 * self.upload_processing_s
    }

    /// Procedure-III delay: each miner broadcasts its gradient set to the
    /// other miners over the backbone.
    pub fn t_ex<R: Rng + ?Sized>(&self, participants: usize, miners: usize, rng: &mut R) -> f64 {
        if miners <= 1 || participants == 0 {
            return 0.0;
        }
        let payload = participants * self.gradient_bytes / miners.max(1);
        (miners - 1) as f64 * self.miner_link.sample_transfer(payload, rng) / miners as f64
            + self.miner_link.sample_transfer(payload, rng)
    }

    /// Procedure-IV delay: aggregation plus Algorithm 2 clustering over
    /// `vectors` gradient vectors (participants + the global gradient).
    pub fn t_gl(&self, vectors: usize) -> f64 {
        self.aggregation_seconds + self.clustering_seconds_per_vector * vectors as f64
    }

    /// Procedure-V delay: the sampled mining competition plus consensus
    /// broadcast overhead.
    pub fn t_bl<R: Rng + ?Sized>(&self, miners: usize, rng: &mut R) -> f64 {
        let fleet = self.miners(miners);
        let outcome = bfl_chain::miner::sample_competition(&fleet, &self.pow_config(), rng);
        outcome.time_seconds + self.consensus_overhead_s
    }

    /// Expected (not sampled) Procedure-V delay.
    pub fn expected_t_bl(&self, miners: usize) -> f64 {
        expected_competition_time(&self.miners(miners), &self.pow_config())
            + self.consensus_overhead_s
    }

    /// Full FAIR-BFL round delay.
    ///
    /// * `participants` — clients whose uploads are processed this round
    ///   (after any discard-driven deselection).
    /// * `max_local_steps` — SGD steps of the slowest participant.
    /// * `miners` — number of miners.
    pub fn fair_round<R: Rng + ?Sized>(
        &self,
        participants: usize,
        max_local_steps: usize,
        miners: usize,
        rng: &mut R,
    ) -> DelayBreakdown {
        DelayBreakdown {
            t_local: self.t_local(max_local_steps),
            t_up: self.t_up(participants, rng),
            t_ex: self.t_ex(participants, miners, rng),
            t_gl: self.t_gl(participants + 1),
            t_bl: self.t_bl(miners, rng),
            t_queue: 0.0,
            t_fork: 0.0,
        }
    }

    /// FedAvg / FedProx round delay: local training, uploads, and a plain
    /// server-side aggregation — no exchange, no mining.
    pub fn federated_round<R: Rng + ?Sized>(
        &self,
        participants: usize,
        max_local_steps: usize,
        rng: &mut R,
    ) -> DelayBreakdown {
        DelayBreakdown {
            t_local: self.t_local(max_local_steps),
            t_up: self.t_up(participants, rng),
            t_ex: 0.0,
            t_gl: self.aggregation_seconds,
            t_bl: 0.0,
            t_queue: 0.0,
            t_fork: 0.0,
        }
    }

    /// Pure-blockchain baseline round delay for `workers` transaction
    /// submitters and `miners` miners.
    ///
    /// Every worker submits one transaction; miners process each, exchange,
    /// and mine as many blocks as the backlog requires. More workers means
    /// queuing once the volume crosses the block size; more miners means
    /// forking.
    pub fn blockchain_round<R: Rng + ?Sized>(
        &self,
        workers: usize,
        miners: usize,
        rng: &mut R,
    ) -> DelayBreakdown {
        let slowest_submit = (0..workers.max(1))
            .map(|_| self.uplink.sample_transfer(self.baseline_tx_bytes, rng))
            .fold(0.0f64, f64::max);
        let t_up = slowest_submit + workers as f64 * self.baseline_tx_process_s;

        let t_ex = if miners > 1 {
            self.miner_link
                .sample_transfer(workers * self.baseline_tx_bytes, rng)
        } else {
            0.0
        };

        // Blocks needed to clear the round's transactions.
        let total_bytes = workers * (self.baseline_tx_bytes + 96);
        let capacity = self.max_block_bytes.saturating_sub(104).max(1);
        let blocks_needed = total_bytes.div_ceil(capacity).max(1);

        let t_bl = self.t_bl(miners, rng);
        let t_queue = (blocks_needed - 1) as f64 * self.expected_t_bl(miners);

        // Fork resolution overhead (per produced block).
        let fleet = self.miners(miners);
        let block_interval = self.expected_t_bl(miners);
        let t_fork = blocks_needed as f64
            * self
                .fork
                .expected_fork_delay(&fleet, &self.pow_config(), block_interval);

        DelayBreakdown {
            t_local: 0.0,
            t_up,
            t_ex,
            t_gl: 0.0,
            t_bl,
            t_queue,
            t_fork,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xDE1A)
    }

    fn mean_total<F: FnMut(&mut StdRng) -> DelayBreakdown>(mut f: F) -> f64 {
        let mut r = rng();
        let n = 200;
        (0..n).map(|_| f(&mut r).total()).sum::<f64>() / n as f64
    }

    #[test]
    fn breakdown_total_sums_components() {
        let b = DelayBreakdown {
            t_local: 1.0,
            t_up: 2.0,
            t_ex: 0.5,
            t_gl: 0.25,
            t_bl: 3.0,
            t_queue: 1.5,
            t_fork: 0.75,
        };
        assert!((b.total() - 9.0).abs() < 1e-12);
        assert_eq!(DelayBreakdown::default().total(), 0.0);
    }

    #[test]
    fn paper_ordering_at_default_scale() {
        // n = 100 workers, 10 participants, 30 local steps, m = 2 miners:
        // FedAvg < FAIR < Blockchain (Figure 4a).
        let model = DelayModel::default();
        let fedavg = mean_total(|r| model.federated_round(10, 30, r));
        let fair = mean_total(|r| model.fair_round(10, 30, 2, r));
        let blockchain = mean_total(|r| model.blockchain_round(100, 2, r));
        assert!(
            fedavg < fair && fair < blockchain,
            "ordering violated: fedavg {fedavg:.2}, fair {fair:.2}, blockchain {blockchain:.2}"
        );
        // All in a plausible seconds range.
        assert!(fedavg > 2.0 && blockchain < 30.0);
    }

    #[test]
    fn discarding_participants_reduces_fair_delay_below_fedavg() {
        // Figure 7a: FAIR-Discard (fewer participants) ends up below FedAvg
        // (full participation).
        let model = DelayModel::default();
        let fedavg_full = mean_total(|r| model.federated_round(10, 30, r));
        let fair_discarded = mean_total(|r| model.fair_round(4, 30, 2, r));
        assert!(
            fair_discarded < fedavg_full,
            "FAIR with 4 participants ({fair_discarded:.2}) should undercut FedAvg with 10 ({fedavg_full:.2})"
        );
    }

    #[test]
    fn blockchain_delay_grows_with_workers_and_crosses_fair() {
        // Figure 6a: blockchain rises with n; FAIR stays flat; crossover
        // below n = 120.
        let model = DelayModel::default();
        let fair = mean_total(|r| model.fair_round(10, 30, 2, r));
        let mut previous = 0.0;
        let mut crossed = false;
        for &n in &[20usize, 40, 60, 80, 100, 120] {
            let blockchain = mean_total(|r| model.blockchain_round(n, 2, r));
            assert!(
                blockchain > previous,
                "blockchain delay must increase with workers (n={n}: {blockchain:.2} <= {previous:.2})"
            );
            if blockchain > fair {
                crossed = true;
            }
            previous = blockchain;
        }
        assert!(crossed, "blockchain delay never crossed FAIR ({fair:.2})");
        // At the small end, blockchain is cheaper than FAIR.
        let small = mean_total(|r| model.blockchain_round(20, 2, r));
        assert!(small < fair);
    }

    #[test]
    fn blockchain_delay_grows_superlinearly_with_miners_while_fair_is_flat() {
        // Figure 6b.
        let model = DelayModel::default();
        let mut blockchain_deltas = Vec::new();
        let mut previous = None;
        let mut fair_values = Vec::new();
        for &m in &[2usize, 4, 6, 8, 10] {
            let blockchain = mean_total(|r| model.blockchain_round(100, m, r));
            let fair = mean_total(|r| model.fair_round(10, 30, m, r));
            fair_values.push(fair);
            if let Some(prev) = previous {
                blockchain_deltas.push(blockchain - prev);
            }
            previous = Some(blockchain);
        }
        // Increasing and accelerating.
        assert!(blockchain_deltas.iter().all(|&d| d > 0.0));
        assert!(
            blockchain_deltas.last().unwrap() > blockchain_deltas.first().unwrap(),
            "fork overhead should accelerate: {blockchain_deltas:?}"
        );
        // FAIR moves by far less than blockchain over the same range.
        let fair_spread = fair_values
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
            - fair_values.iter().cloned().fold(f64::INFINITY, f64::min);
        let blockchain_spread =
            previous.unwrap() - mean_total(|r| model.blockchain_round(100, 2, r));
        assert!(fair_spread < blockchain_spread / 2.0);
    }

    #[test]
    fn learning_rate_does_not_enter_the_delay_model() {
        // Figure 5a: delay is unaffected by η. The model has no learning-rate
        // parameter at all; this test documents that invariant by checking
        // the delay only depends on the step count.
        let model = DelayModel::default();
        let a = model.t_local(30);
        let b = model.t_local(30);
        assert_eq!(a, b);
        assert!(model.t_local(60) > a);
    }

    #[test]
    fn component_helpers_behave() {
        let model = DelayModel::default();
        let mut r = rng();
        assert_eq!(model.t_up(0, &mut r), 0.0);
        assert!(model.t_up(10, &mut r) > model.t_up(2, &mut r));
        assert_eq!(model.t_ex(10, 1, &mut r), 0.0);
        assert!(model.t_ex(10, 4, &mut r) > 0.0);
        assert!(model.t_gl(11) > model.t_gl(5));
        assert!(model.expected_t_bl(4) < model.expected_t_bl(2));
        assert!(model.t_bl(2, &mut r) > 0.0);
    }

    /// Each system's round has its own shape. (Named for the
    /// `round_for_system` dispatcher it used to go through; the id is
    /// kept.)
    #[test]
    fn round_for_system_dispatches() {
        let model = DelayModel::default();
        let mut r = rng();
        let fair = model.fair_round(10, 30, 2, &mut r);
        let fed = model.federated_round(10, 30, &mut r);
        let chain = model.blockchain_round(100, 2, &mut r);
        assert!(fair.t_bl > 0.0 && fair.t_ex > 0.0);
        assert_eq!(fed.t_bl, 0.0);
        assert_eq!(fed.t_ex, 0.0);
        assert_eq!(chain.t_local, 0.0);
        assert!(chain.t_up > 0.0);
    }
}
