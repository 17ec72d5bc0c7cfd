//! FAIR-BFL run configuration.

use crate::delay_model::DelayModel;
use crate::error::CoreError;
use crate::flexibility::FlexibilityMode;
use crate::policy::{AggregationAnchor, ReorgPolicy, RetryPolicy, StalenessPolicy};
use crate::strategy::LowContributionStrategy;
use bfl_cluster::{ClusteringAlgorithm, DistanceMetric};
use bfl_fl::attack::AttackKind;
use bfl_fl::config::FlConfig;
use bfl_ml::model::ModelKind;
use bfl_net::{ChurnSchedule, DelayDistribution, FaultPlan, NodeProfile};
use serde::{Deserialize, Serialize};

/// When a round's block is sealed: the paper's flexible block size.
///
/// Vanilla BFL waits for *every* selected client before a block can be
/// mined, so one straggler gates the whole round. FAIR-BFL's flexibility
/// redesign lets a block aggregate a flexible number of local updates:
/// under [`SyncMode::FlexibleQuota`] the round engine runs on a
/// discrete-event scheduler and Procedures IV/V fire as soon as `quota`
/// uploads have arrived; the rest become stale and are handled by the
/// configured [`StalenessPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SyncMode {
    /// Lockstep rounds: every selected client reports before Procedure IV
    /// runs. This is the PR 4 engine, unchanged and bit-identical.
    #[default]
    Synchronous,
    /// Event-driven rounds: the block seals once `quota` uploads have
    /// arrived (capped at the number of outstanding uploads, so a small
    /// round still completes).
    FlexibleQuota {
        /// Uploads a block waits for before Procedures IV/V fire (>= 1).
        quota: usize,
    },
}

impl SyncMode {
    /// True for the lockstep mode.
    pub fn is_synchronous(&self) -> bool {
        matches!(self, SyncMode::Synchronous)
    }

    /// Validates the mode's parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        match self {
            SyncMode::FlexibleQuota { quota: 0 } => Err(CoreError::invalid(
                "flexible block quota must be at least one upload",
            )),
            _ => Ok(()),
        }
    }
}

/// Parametric description of the client population's heterogeneity, from
/// which per-client [`NodeProfile`]s are derived deterministically (no
/// RNG: straggler and churn assignments are pure functions of the client
/// index, so a scenario value fully determines the population).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfileConfig {
    /// Compute-time multiplier of the slowest straggler (>= 1; stragglers
    /// interpolate between the baseline rate and this).
    pub straggler_slowdown: f64,
    /// Fraction of clients that are stragglers, in `[0, 1]`. The slow
    /// tail is assigned to the *highest* client indices.
    pub straggler_fraction: f64,
    /// Per-upload one-way uplink latency of every client.
    pub uplink: DelayDistribution,
    /// Fraction of clients that churn (periodically leave and rejoin), in
    /// `[0, 1]`. Churners are assigned to the *lowest* client indices,
    /// with staggered first departures.
    pub churn_fraction: f64,
    /// Simulated seconds a churning client stays online between
    /// departures (> 0 whenever `churn_fraction > 0`).
    pub churn_online_s: f64,
    /// Simulated seconds a churning client stays offline per departure
    /// (> 0 whenever `churn_fraction > 0`).
    pub churn_offline_s: f64,
}

impl Default for ProfileConfig {
    /// The degenerate population: uniform compute, zero uplink latency,
    /// no churn — the event engine's behaviour collapses toward the
    /// synchronous one.
    fn default() -> Self {
        ProfileConfig {
            straggler_slowdown: 1.0,
            straggler_fraction: 0.0,
            uplink: DelayDistribution::Constant(0.0),
            churn_fraction: 0.0,
            churn_online_s: 60.0,
            churn_offline_s: 30.0,
        }
    }
}

impl ProfileConfig {
    /// Validates the profile parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(self.straggler_slowdown.is_finite() && self.straggler_slowdown >= 1.0) {
            return Err(CoreError::invalid(format!(
                "straggler_slowdown must be finite and >= 1, got {}",
                self.straggler_slowdown
            )));
        }
        for (name, fraction) in [
            ("straggler_fraction", self.straggler_fraction),
            ("churn_fraction", self.churn_fraction),
        ] {
            if !(0.0..=1.0).contains(&fraction) || !fraction.is_finite() {
                return Err(CoreError::invalid(format!(
                    "{name} must be in [0, 1], got {fraction}"
                )));
            }
        }
        self.uplink.validate().map_err(CoreError::invalid)?;
        if self.churn_fraction > 0.0 {
            // Delegate the churn-window checks to the schedule the
            // profiles will actually be built with, so the canonical
            // rules live in one place (`bfl_net::ChurnSchedule`).
            ChurnSchedule::Periodic {
                first_leave_s: 0.0,
                offline_s: self.churn_offline_s,
                online_s: self.churn_online_s,
            }
            .validate()
            .map_err(CoreError::invalid)?;
        }
        Ok(())
    }

    /// Derives client `i`'s profile out of a population of `clients`
    /// without materializing the rest — a pure per-index function, so the
    /// event engine can serve million-client populations in O(1) memory.
    ///
    /// Deterministic by construction: client `i` of `n` is a straggler
    /// iff `i >= n - round(straggler_fraction · n)` (multipliers ramp
    /// linearly up to `straggler_slowdown`), and a churner iff
    /// `i < round(churn_fraction · n)` (first departures staggered across
    /// the online period so the population never vanishes at once).
    pub fn profile_of(&self, i: usize, clients: usize) -> NodeProfile {
        let stragglers = ((clients as f64) * self.straggler_fraction).round() as usize;
        let churners = ((clients as f64) * self.churn_fraction).round() as usize;
        let compute_multiplier = if stragglers > 0 && i >= clients - stragglers {
            // Rank within the straggler tail, 1-based; the last
            // client gets the full slowdown.
            let rank = (i - (clients - stragglers) + 1) as f64;
            1.0 + (self.straggler_slowdown - 1.0) * rank / stragglers as f64
        } else {
            1.0
        };
        let churn = if i < churners {
            ChurnSchedule::Periodic {
                first_leave_s: self.churn_online_s * (1.0 + i as f64) / (churners as f64 + 1.0),
                offline_s: self.churn_offline_s,
                online_s: self.churn_online_s,
            }
        } else {
            ChurnSchedule::AlwaysOn
        };
        NodeProfile {
            compute_multiplier,
            uplink: self.uplink,
            churn,
        }
    }
}

/// How large a signing run's key vault is, and when it fills.
///
/// Every signing run holds its RSA key pairs in one
/// [`bfl_crypto::KeyVault`], which derives client `id`'s pair from a pure
/// per-id RNG stream, so a client's key bytes are the same under either
/// mode. Eager provisioning is the vault at a budget of the whole
/// population, filled at run start — O(population) memory and keygen
/// work, and no round derives. Lazy provisioning derives each pair on
/// first selection and caches at most `cache_budget` of them, so a round
/// costs O(participants) regardless of population size. Neither mode
/// provisions clients: an implicit partition ([`bfl_fl::implicit`])
/// derives each client where it is used, and any other partition builds
/// them all at run start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ProvisioningMode {
    /// Derive every key pair (when signing) at run start; no round
    /// derives one. Key bytes never enter a block, a reward or a round
    /// outcome, so results are bit-identical to those of the sequential
    /// keygen stream eager runs once drew from; the key bytes are not.
    #[default]
    Eager,
    /// Derive key pairs on demand; requires
    /// [`PartitionKind::ImplicitIid`](bfl_fl::config::PartitionKind).
    Lazy {
        /// Maximum key pairs kept cached (>= selected per round).
        cache_budget: usize,
    },
}

/// Where a flexible round runs Algorithm 2.
///
/// Either way the event engine's one fold drains the pending pool into
/// the round's tally (admitted and stale counts, losses, forged ids); the
/// mode decides only the committee. The materialized mode buffers every
/// admitted upload until the quota is met and runs Algorithm 2 once over
/// the full set — O(quota) gradient vectors held at peak. The streaming
/// mode runs it on each completed chunk and folds the kept uploads into
/// one running weighted sum, holding at most `chunk` gradients at a time,
/// so a 10k-participant round no longer needs 10k × dim floats of
/// residency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AggregationMode {
    /// Buffer the full round and analyse it as one committee at the seal,
    /// through `compute_global_update` — the synchronous engine's path.
    #[default]
    Materialized,
    /// Fold uploads chunk-by-chunk on the event engine. Algorithm 2's
    /// clustering and θ scores are computed per chunk (the chunk acts as
    /// the committee), contribution weights compose linearly across chunks
    /// because Equation 1 is a weighted mean (plain averaging is the θ = 1
    /// case), and rewards are settled once per round over the
    /// concatenated θ scores.
    Streaming {
        /// Uploads folded per chunk (>= 1).
        chunk: usize,
    },
}

impl AggregationMode {
    /// True for the streaming mode.
    pub fn is_streaming(&self) -> bool {
        matches!(self, AggregationMode::Streaming { .. })
    }
}

/// How malicious clients are injected into a run (the Table 2 experiment).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackConfig {
    /// Whether any attackers are injected at all.
    pub enabled: bool,
    /// Minimum number of attackers designated per round.
    pub min_attackers: usize,
    /// Maximum number of attackers designated per round.
    pub max_attackers: usize,
    /// The forgery the attackers apply.
    pub kind: AttackKind,
}

impl Default for AttackConfig {
    fn default() -> Self {
        AttackConfig {
            enabled: false,
            min_attackers: 1,
            max_attackers: 3,
            kind: AttackKind::default_poisoning(),
        }
    }
}

impl AttackConfig {
    /// The Table 2 setting: 1-3 attackers per round, gradient forging.
    pub fn table2() -> Self {
        AttackConfig {
            enabled: true,
            min_attackers: 1,
            max_attackers: 3,
            kind: AttackKind::default_poisoning(),
        }
    }
}

/// Complete configuration of a FAIR-BFL (or degraded-mode) run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BflConfig {
    /// Learning-side configuration (clients, rounds, model, partition, seed).
    pub fl: FlConfig,
    /// Number of miners `m` (paper default: 2).
    pub miners: usize,
    /// Which procedures run (full BFL, FL-only, chain-only).
    pub mode: FlexibilityMode,
    /// Low-contribution strategy (keep or discard).
    pub strategy: LowContributionStrategy,
    /// Clustering backend for Algorithm 2 (DBSCAN by default).
    pub clustering: ClusteringAlgorithm,
    /// The clustering metric: cosine, the only metric; kept for the frozen
    /// serde form.
    pub metric: DistanceMetric,
    /// The anchor gradient Algorithm 2 clusters against and measures θ
    /// from (the paper's plain mean by default; median/trimmed-mean resist
    /// anchor-corrupting scaling attackers).
    pub anchor: AggregationAnchor,
    /// Whether the final aggregation uses Equation 1's contribution weights
    /// (`true`) or plain simple averaging (`false`, an ablation).
    pub fair_aggregation: bool,
    /// Per-round reward pool (the `base` of Algorithm 2).
    pub reward_base: f64,
    /// Delay-model calibration.
    pub delay: DelayModel,
    /// Malicious-client injection.
    pub attack: AttackConfig,
    /// Whether miners verify RSA signatures on uploads.
    pub verify_signatures: bool,
    /// RSA modulus size used when provisioning client keys.
    pub rsa_modulus_bits: usize,
    /// Rounds a discarded client sits out before becoming selectable again
    /// (the "clients selection" effect of the discard strategy).
    pub discard_cooldown_rounds: usize,
    /// Worker threads of the PoW nonce search. Must be 1 (the search is
    /// serial); kept for the frozen serde form, which spells it.
    pub mining_threads: usize,
    /// When a round's block seals: lockstep ([`SyncMode::Synchronous`],
    /// the PR 4 engine) or after a flexible quota of uploads has arrived
    /// on the discrete-event scheduler.
    pub sync: SyncMode,
    /// What the event engine does with uploads that arrive after their
    /// round's block was sealed (ignored in synchronous mode, which never
    /// produces stale uploads).
    pub staleness: StalenessPolicy,
    /// The client population's heterogeneity (compute spread, uplink
    /// latency, churn), consulted only by the event-driven engine.
    pub profiles: ProfileConfig,
    /// Deterministic fault injection (link drops/duplicates/corruption,
    /// miner crashes, mesh partitions), consulted only by the event-driven
    /// engine. The default plan injects nothing and leaves runs
    /// bit-identical to a fault-free engine.
    pub fault: FaultPlan,
    /// What a client does when its upload is lost (link drop, corruption,
    /// crashed miner): give up for the round, or resend with exponential
    /// backoff.
    pub retry: RetryPolicy,
    /// What becomes of uploads stranded on the losing branch of a healed
    /// fork (discard, or salvage through the staleness policy).
    pub reorg: ReorgPolicy,
    /// Eager (whole-population) or lazy (on-first-selection, budgeted)
    /// provisioning of RSA key pairs.
    pub provisioning: ProvisioningMode,
    /// Materialized (full-round buffer) or streaming (chunked fold)
    /// Procedure-IV aggregation; streaming needs the event engine.
    pub aggregation: AggregationMode,
}

impl Default for BflConfig {
    fn default() -> Self {
        BflConfig {
            fl: FlConfig::default(),
            miners: 2,
            mode: FlexibilityMode::FullBfl,
            strategy: LowContributionStrategy::Keep,
            clustering: ClusteringAlgorithm::default_dbscan(),
            metric: DistanceMetric::Cosine,
            anchor: AggregationAnchor::Mean,
            fair_aggregation: true,
            reward_base: 100.0,
            delay: DelayModel::default(),
            attack: AttackConfig::default(),
            verify_signatures: true,
            rsa_modulus_bits: 256,
            discard_cooldown_rounds: 3,
            mining_threads: 1,
            sync: SyncMode::Synchronous,
            staleness: StalenessPolicy::Discard,
            profiles: ProfileConfig::default(),
            fault: FaultPlan::default(),
            retry: RetryPolicy::None,
            reorg: ReorgPolicy::Discard,
            provisioning: ProvisioningMode::Eager,
            aggregation: AggregationMode::Materialized,
        }
    }
}

impl BflConfig {
    /// Validates the configuration, returning
    /// [`CoreError::InvalidConfig`] describing the first inconsistency.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.fl.validate().map_err(CoreError::invalid)?;
        if self.miners < 1 {
            return Err(CoreError::invalid("need at least one miner"));
        }
        if self.reward_base.is_nan() || self.reward_base < 0.0 {
            return Err(CoreError::invalid(format!(
                "reward_base must be non-negative, got {}",
                self.reward_base
            )));
        }
        // Rewards are paid in u64 milli-units: past 2^53 a run's total is
        // no longer an exact integer in f64, and the ledger can overflow.
        let run_milli = self.reward_base * 1000.0 * self.fl.rounds as f64;
        if run_milli > 2f64.powi(53) {
            return Err(CoreError::invalid(format!(
                "reward_base {} pays {run_milli} milli-units over {} rounds, past 2^53",
                self.reward_base, self.fl.rounds
            )));
        }
        if self.rsa_modulus_bits < bfl_crypto::rsa::MIN_MODULUS_BITS {
            return Err(CoreError::invalid(format!(
                "RSA modulus too small: {} bits (minimum {})",
                self.rsa_modulus_bits,
                bfl_crypto::rsa::MIN_MODULUS_BITS
            )));
        }
        if self.rsa_modulus_bits > bfl_crypto::rsa::MAX_MODULUS_BITS {
            return Err(CoreError::invalid(format!(
                "rsa_modulus_bits {} is past the maximum {}",
                self.rsa_modulus_bits,
                bfl_crypto::rsa::MAX_MODULUS_BITS
            )));
        }
        if self.mining_threads != 1 {
            return Err(CoreError::invalid(format!(
                "mining_threads must be 1 (the nonce search is serial), got {}",
                self.mining_threads
            )));
        }
        self.delay.validate()?;
        self.clustering.validate().map_err(CoreError::invalid)?;
        self.anchor.validate()?;
        self.sync.validate()?;
        self.staleness.validate()?;
        self.profiles.validate()?;
        self.fault.validate().map_err(CoreError::invalid)?;
        self.retry.validate()?;
        if let Some(crash) = &self.fault.crash {
            if crash.miner >= self.miners {
                return Err(CoreError::invalid(format!(
                    "crash miner index {} out of range (have {} miners)",
                    crash.miner, self.miners
                )));
            }
        }
        if let Some(partition) = &self.fault.partition {
            if partition.boundary >= self.miners {
                return Err(CoreError::invalid(format!(
                    "partition boundary {} must split {} miners into two non-empty components",
                    partition.boundary, self.miners
                )));
            }
        }
        if self.fault.is_active() && self.sync.is_synchronous() {
            return Err(CoreError::invalid(
                "fault injection requires the event-driven engine; set a flexible quota",
            ));
        }
        if !self.sync.is_synchronous() && self.mode == FlexibilityMode::ChainOnly {
            return Err(CoreError::invalid(
                "flexible block quotas apply to learning modes; chain-only rounds have no \
                 upload quota",
            ));
        }
        if self.attack.enabled {
            if self.attack.min_attackers > self.attack.max_attackers {
                return Err(CoreError::invalid("attacker range inverted"));
            }
            if self.attack.max_attackers > self.fl.clients {
                return Err(CoreError::invalid("more attackers than clients"));
            }
        }
        if let ProvisioningMode::Lazy { cache_budget } = self.provisioning {
            if !matches!(
                self.fl.partition,
                bfl_fl::config::PartitionKind::ImplicitIid { .. }
            ) {
                return Err(CoreError::invalid(
                    "lazy provisioning needs an implicit partition (PartitionKind::ImplicitIid); \
                     materialized partitions are provisioned eagerly",
                ));
            }
            if cache_budget < self.fl.selected_per_round() {
                return Err(CoreError::invalid(format!(
                    "lazy cache budget {} is smaller than the {} clients selected per round",
                    cache_budget,
                    self.fl.selected_per_round()
                )));
            }
        }
        if let AggregationMode::Streaming { chunk } = self.aggregation {
            if chunk == 0 {
                return Err(CoreError::invalid("streaming chunk must be at least one"));
            }
            if self.sync.is_synchronous() {
                return Err(CoreError::invalid(
                    "streaming aggregation requires the event-driven engine; set a flexible quota",
                ));
            }
            if self.anchor != AggregationAnchor::Mean {
                return Err(CoreError::invalid(
                    "streaming aggregation composes only the Mean anchor across chunks; \
                     robust anchors need the materialized mode",
                ));
            }
            if self.fault.crash.is_some() || self.fault.partition.is_some() {
                return Err(CoreError::invalid(
                    "streaming aggregation cannot un-fold uploads purged by miner crashes or \
                     stranded by partitions; use the materialized mode with those faults",
                ));
            }
        }
        Ok(())
    }

    /// What [`validate`](Self::validate) cannot see: whether a training
    /// set of `train_samples` samples, each `features` wide and labelled
    /// with one of `classes` classes, can feed the configured model and
    /// population. The model must read exactly the data's width and score
    /// every label; every materialized partitioner needs a sample per
    /// client, while implicit shards sample with replacement. Chain-only
    /// rounds train nobody, so nothing is asked of their data. The engine
    /// asks when a run meets its data, the fleet harness per manifest
    /// cell.
    pub fn validate_for_dataset(
        &self,
        train_samples: usize,
        features: usize,
        classes: usize,
    ) -> Result<(), CoreError> {
        if self.mode == FlexibilityMode::ChainOnly {
            return Ok(());
        }
        let ModelKind::SoftmaxRegression {
            features: model_features,
            classes: model_classes,
        } = self.fl.model;
        if model_features != features {
            return Err(CoreError::invalid(format!(
                "the model reads {model_features} features but the training samples have \
                 {features}"
            )));
        }
        if model_classes < classes {
            return Err(CoreError::invalid(format!(
                "the model scores {model_classes} classes but the training labels take \
                 {classes}"
            )));
        }
        let implicit = matches!(
            self.fl.partition,
            bfl_fl::config::PartitionKind::ImplicitIid { .. }
        );
        if !implicit && train_samples < self.fl.clients {
            return Err(CoreError::invalid(format!(
                "{train_samples} training samples cannot be partitioned over {} clients: a \
                 materialized partition needs at least one sample per client",
                self.fl.clients
            )));
        }
        Ok(())
    }

    /// A configuration scaled down for fast unit/integration tests: ten
    /// clients, a handful of rounds, one local epoch.
    pub fn small_test(rounds: usize) -> Self {
        let mut config = BflConfig::default();
        config.fl.clients = 10;
        config.fl.participation_ratio = 0.5;
        config.fl.rounds = rounds;
        config.fl.local.epochs = 1;
        config.fl.local.batch_size = 10;
        config.fl.local.learning_rate = 0.05;
        config.fl.seed = 7;
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let config = BflConfig::default();
        config.validate().unwrap();
        assert_eq!(config.miners, 2);
        assert_eq!(config.fl.clients, 100);
        assert_eq!(config.fl.rounds, 100);
        assert!(config.fair_aggregation);
        assert_eq!(config.strategy, LowContributionStrategy::Keep);
        assert!(matches!(
            config.clustering,
            ClusteringAlgorithm::Dbscan { .. }
        ));
        assert!(!config.attack.enabled);
    }

    #[test]
    fn table2_attack_config() {
        let attack = AttackConfig::table2();
        assert!(attack.enabled);
        assert_eq!(attack.min_attackers, 1);
        assert_eq!(attack.max_attackers, 3);
    }

    #[test]
    fn small_test_config_is_valid() {
        let config = BflConfig::small_test(3);
        config.validate().unwrap();
        assert_eq!(config.fl.rounds, 3);
        assert_eq!(config.fl.clients, 10);
    }

    /// Asserts validation rejects `config` with an
    /// [`CoreError::InvalidConfig`] mentioning `needle`.
    fn assert_rejected(config: BflConfig, needle: &str) {
        match config.validate() {
            Err(CoreError::InvalidConfig(msg)) => {
                assert!(msg.contains(needle), "error `{msg}` mentions `{needle}`")
            }
            other => panic!("expected InvalidConfig({needle}), got {other:?}"),
        }
    }

    #[test]
    fn zero_miners_rejected() {
        assert_rejected(
            BflConfig {
                miners: 0,
                ..Default::default()
            },
            "at least one miner",
        );
    }

    #[test]
    fn negative_reward_base_rejected() {
        for (reward_base, needle) in [
            (-1.0, "reward_base must be non-negative, got -1"),
            (f64::NAN, "reward_base must be non-negative, got NaN"),
            (1e17, "reward_base 100000000000000000 pays"),
        ] {
            assert_rejected(
                BflConfig {
                    reward_base,
                    ..Default::default()
                },
                needle,
            );
        }
    }

    #[test]
    fn tiny_rsa_modulus_rejected() {
        assert_rejected(
            BflConfig {
                rsa_modulus_bits: 8,
                ..Default::default()
            },
            "RSA modulus too small",
        );
    }

    #[test]
    fn huge_rsa_modulus_rejected() {
        let bits = |rsa_modulus_bits| BflConfig {
            rsa_modulus_bits,
            ..Default::default()
        };
        assert!(bits(bfl_crypto::rsa::MAX_MODULUS_BITS).validate().is_ok());
        assert_rejected(
            bits(bfl_crypto::rsa::MAX_MODULUS_BITS + 1),
            "rsa_modulus_bits",
        );
        assert_rejected(bits(usize::MAX), "rsa_modulus_bits");
    }

    #[test]
    fn invalid_clustering_rejected() {
        for (clustering, needle) in [
            (
                ClusteringAlgorithm::KMeans {
                    k: 0,
                    max_iterations: 5,
                },
                "k-means k must be at least 1, got 0",
            ),
            (
                ClusteringAlgorithm::Agglomerative {
                    distance_threshold: -0.1,
                },
                "distance_threshold must be non-negative, got -0.1",
            ),
            (
                ClusteringAlgorithm::Dbscan {
                    eps: -1.0,
                    min_points: 2,
                },
                "eps must be positive, got -1",
            ),
            (
                ClusteringAlgorithm::Dbscan {
                    eps: 0.3,
                    min_points: 0,
                },
                "min_points must be at least 1, got 0",
            ),
        ] {
            assert_rejected(
                BflConfig {
                    clustering,
                    ..Default::default()
                },
                needle,
            );
        }
        // The boundary values the algorithms accept pass.
        for clustering in [
            ClusteringAlgorithm::KMeans {
                k: 1,
                max_iterations: 0,
            },
            ClusteringAlgorithm::Agglomerative {
                distance_threshold: 0.0,
            },
            ClusteringAlgorithm::Dbscan {
                eps: 1e-9,
                min_points: 1,
            },
        ] {
            let config = BflConfig {
                clustering,
                ..Default::default()
            };
            assert_eq!(config.validate(), Ok(()), "{clustering:?}");
        }
    }

    #[test]
    fn invalid_anchor_rejected() {
        assert_rejected(
            BflConfig {
                anchor: AggregationAnchor::TrimmedMean { trim_ratio: 0.9 },
                ..Default::default()
            },
            "trim_ratio",
        );
    }

    #[test]
    fn inverted_attacker_range_rejected() {
        let mut config = BflConfig::small_test(1);
        config.attack = AttackConfig {
            enabled: true,
            min_attackers: 3,
            max_attackers: 1,
            kind: AttackKind::SignFlip,
        };
        assert_rejected(config, "attacker range inverted");
    }

    #[test]
    fn too_many_attackers_rejected() {
        let mut config = BflConfig::small_test(1);
        config.attack = AttackConfig {
            enabled: true,
            min_attackers: 1,
            max_attackers: 50,
            kind: AttackKind::SignFlip,
        };
        assert_rejected(config, "more attackers than clients");
    }

    #[test]
    fn invalid_fl_settings_surface_as_invalid_config() {
        let mut config = BflConfig::default();
        config.fl.clients = 0;
        assert_rejected(config, "at least one client");
    }

    #[test]
    fn serde_round_trip() {
        let mut config = BflConfig {
            sync: SyncMode::FlexibleQuota { quota: 4 },
            staleness: StalenessPolicy::DecayedInclude { decay: 0.5 },
            ..Default::default()
        };
        config.profiles.straggler_fraction = 0.3;
        config.profiles.straggler_slowdown = 4.0;
        let json = serde_json::to_string(&config).unwrap();
        let back: BflConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn defaults_keep_the_synchronous_engine() {
        let config = BflConfig::default();
        assert_eq!(config.sync, SyncMode::Synchronous);
        assert!(config.sync.is_synchronous());
        assert_eq!(config.staleness, StalenessPolicy::Discard);
        assert_eq!(config.profiles, ProfileConfig::default());
    }

    #[test]
    fn zero_quota_rejected() {
        assert_rejected(
            BflConfig {
                sync: SyncMode::FlexibleQuota { quota: 0 },
                ..Default::default()
            },
            "quota",
        );
    }

    #[test]
    fn chain_only_mode_rejects_flexible_quotas() {
        assert_rejected(
            BflConfig {
                mode: FlexibilityMode::ChainOnly,
                sync: SyncMode::FlexibleQuota { quota: 2 },
                ..Default::default()
            },
            "chain-only",
        );
    }

    #[test]
    fn invalid_staleness_and_profiles_rejected() {
        assert_rejected(
            BflConfig {
                staleness: StalenessPolicy::DecayedInclude { decay: 2.0 },
                ..Default::default()
            },
            "staleness decay",
        );
        let mut config = BflConfig::default();
        config.profiles.straggler_slowdown = 0.5;
        assert_rejected(config, "straggler_slowdown");
        let mut config = BflConfig::default();
        config.profiles.churn_fraction = 1.5;
        assert_rejected(config, "churn_fraction");
        let mut config = BflConfig::default();
        config.profiles.churn_fraction = 0.5;
        config.profiles.churn_offline_s = 0.0;
        assert_rejected(config, "offline_s");
        let mut config = BflConfig::default();
        config.profiles.uplink = DelayDistribution::Uniform { min: 0.4, max: 0.1 };
        assert_rejected(config, "inverted");
    }

    #[test]
    fn mining_threads_other_than_one_rejected() {
        for threads in [0, 2] {
            let config = BflConfig {
                mining_threads: threads,
                ..Default::default()
            };
            assert_rejected(
                config,
                &format!("mining_threads must be 1 (the nonce search is serial), got {threads}"),
            );
        }
    }

    #[test]
    fn invalid_delay_models_rejected() {
        type Edit = fn(&mut DelayModel);
        let cases: [(Edit, &str); 9] = [
            (
                |d| d.miner_hash_rate = 0.0,
                "delay.miner_hash_rate must be finite and positive, got 0",
            ),
            (
                |d| d.miner_hash_rate = f64::INFINITY,
                "delay.miner_hash_rate",
            ),
            (
                |d| d.uplink.bandwidth_bytes_per_s = 0.0,
                "delay.uplink.bandwidth_bytes_per_s must be finite and positive, got 0",
            ),
            (
                |d| d.miner_link.bandwidth_bytes_per_s = -1.0,
                "delay.miner_link.bandwidth_bytes_per_s",
            ),
            (
                |d| d.uplink.latency = DelayDistribution::Uniform { min: 0.4, max: 0.1 },
                "delay.uplink.latency: uniform delay bounds are inverted",
            ),
            (
                |d| d.miner_link.latency = DelayDistribution::Exponential { mean: f64::NAN },
                "delay.miner_link.latency",
            ),
            (
                |d| d.local_step_seconds = -0.1,
                "delay.local_step_seconds must be finite and non-negative, got -0.1",
            ),
            (
                |d| d.fork.resolution_overhead_s = f64::NAN,
                "delay.fork.resolution_overhead_s",
            ),
            (
                |d| d.baseline_tx_bytes = 524_289,
                "delay.baseline_tx_bytes must fit in a block of delay.max_block_bytes = 524288, \
                 got 524289",
            ),
        ];
        for (edit, needle) in cases {
            let mut config = BflConfig::default();
            edit(&mut config.delay);
            assert_rejected(config, needle);
        }
        // Zero seconds are a valid (instant) cost.
        let mut config = BflConfig::default();
        config.delay.upload_processing_s = 0.0;
        config.delay.fork.propagation_delay_s = 0.0;
        config.validate().unwrap();
    }

    #[test]
    fn fault_plans_validate_against_the_topology_and_engine() {
        use bfl_net::{CrashSchedule, Partition};

        // Crash index must name an existing miner.
        let mut config = BflConfig::small_test(1);
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
        config.fault.crash = Some(CrashSchedule {
            miner: 5,
            crash_at_s: 1.0,
            down_for_s: 2.0,
        });
        assert_rejected(config, "crash miner index");

        // Partition boundary must leave both components non-empty.
        let mut config = BflConfig::small_test(1);
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
        config.fault.partition = Some(Partition {
            start_s: 0.0,
            duration_s: 5.0,
            boundary: 2,
        });
        assert_rejected(config, "partition boundary");

        // An active plan needs the event engine.
        let mut config = BflConfig::small_test(1);
        config.fault.uplink.drop_rate = 0.2;
        assert_rejected(config, "event-driven engine");

        // Bad rates are caught by the plan's own validation.
        let mut config = BflConfig::small_test(1);
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
        config.fault.uplink.drop_rate = 1.5;
        assert_rejected(config, "drop_rate");

        // Retry parameters are validated too.
        let mut config = BflConfig::small_test(1);
        config.retry = RetryPolicy::Backoff {
            max_attempts: 0,
            timeout_s: 1.0,
            base_s: 1.0,
            factor: 2.0,
            jitter_s: 0.0,
        };
        assert_rejected(config, "max_attempts");

        // A valid plan on the event engine passes.
        let mut config = BflConfig::small_test(1);
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
        config.fault.uplink.drop_rate = 0.2;
        config.fault.partition = Some(Partition {
            start_s: 0.0,
            duration_s: 5.0,
            boundary: 1,
        });
        config.retry = RetryPolicy::Backoff {
            max_attempts: 3,
            timeout_s: 1.0,
            base_s: 0.5,
            factor: 2.0,
            jitter_s: 0.1,
        };
        config.reorg = ReorgPolicy::Salvage;
        config.validate().unwrap();
    }

    #[test]
    fn provisioning_and_aggregation_modes_validate() {
        use bfl_fl::config::PartitionKind;

        // Lazy provisioning needs an implicit partition...
        let mut config = BflConfig::small_test(1);
        config.provisioning = ProvisioningMode::Lazy { cache_budget: 64 };
        assert_rejected(config, "implicit partition");

        // ...and a budget covering the per-round selection.
        let mut config = BflConfig::small_test(1);
        config.fl.partition = PartitionKind::ImplicitIid {
            samples_per_client: 8,
        };
        config.provisioning = ProvisioningMode::Lazy { cache_budget: 2 };
        assert_rejected(config, "cache budget");

        // Streaming needs the event engine and the Mean anchor, and
        // refuses crash/partition faults.
        let mut config = BflConfig::small_test(1);
        config.aggregation = AggregationMode::Streaming { chunk: 4 };
        assert_rejected(config, "event-driven engine");

        let mut config = BflConfig::small_test(1);
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
        config.aggregation = AggregationMode::Streaming { chunk: 0 };
        assert_rejected(config, "chunk");

        let mut config = BflConfig::small_test(1);
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
        config.anchor = AggregationAnchor::Median;
        config.aggregation = AggregationMode::Streaming { chunk: 4 };
        assert_rejected(config, "Mean anchor");

        let mut config = BflConfig::small_test(1);
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
        config.aggregation = AggregationMode::Streaming { chunk: 4 };
        config.fault.crash = Some(bfl_net::CrashSchedule {
            miner: 0,
            crash_at_s: 1.0,
            down_for_s: 2.0,
        });
        assert_rejected(config, "crash");

        // The valid combination passes, and the implicit shard size is
        // checked through the FL validation.
        let mut config = BflConfig::small_test(1);
        config.fl.partition = PartitionKind::ImplicitIid {
            samples_per_client: 8,
        };
        config.provisioning = ProvisioningMode::Lazy { cache_budget: 16 };
        config.sync = SyncMode::FlexibleQuota { quota: 3 };
        config.aggregation = AggregationMode::Streaming { chunk: 4 };
        config.validate().unwrap();

        let mut config = BflConfig::small_test(1);
        config.fl.partition = PartitionKind::ImplicitIid {
            samples_per_client: 0,
        };
        assert_rejected(config, "samples_per_client");

        // Serde: the new fields round-trip.
        let json = serde_json::to_string(&BflConfig::default()).unwrap();
        let back: BflConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back.provisioning, ProvisioningMode::Eager);
        assert_eq!(back.aggregation, AggregationMode::Materialized);
    }

    #[test]
    fn profile_population_is_deterministic_and_shaped() {
        let profiles = ProfileConfig {
            straggler_slowdown: 8.0,
            straggler_fraction: 0.3,
            churn_fraction: 0.2,
            churn_online_s: 100.0,
            churn_offline_s: 50.0,
            ..ProfileConfig::default()
        };
        profiles.validate().unwrap();
        let population: Vec<NodeProfile> = (0..10).map(|i| profiles.profile_of(i, 10)).collect();
        assert_eq!(profiles.profile_of(9, 10), population[9]);
        // The slow tail sits at the highest indices, ramping up to the
        // configured slowdown.
        assert_eq!(population[0].compute_multiplier, 1.0);
        assert_eq!(population[6].compute_multiplier, 1.0);
        assert!(population[7].compute_multiplier > 1.0);
        assert!(population[8].compute_multiplier > population[7].compute_multiplier);
        assert_eq!(population[9].compute_multiplier, 8.0);
        // Churners sit at the lowest indices with staggered departures.
        assert!(matches!(
            population[0].churn,
            bfl_net::ChurnSchedule::Periodic { .. }
        ));
        assert!(matches!(
            population[1].churn,
            bfl_net::ChurnSchedule::Periodic { .. }
        ));
        assert!(matches!(
            population[2].churn,
            bfl_net::ChurnSchedule::AlwaysOn
        ));
        if let (
            bfl_net::ChurnSchedule::Periodic {
                first_leave_s: a, ..
            },
            bfl_net::ChurnSchedule::Periodic {
                first_leave_s: b, ..
            },
        ) = (population[0].churn, population[1].churn)
        {
            assert!(a < b, "departures are staggered");
        }
        // The degenerate default population is uniform and always online.
        let uniform = ProfileConfig::default();
        assert!((0..5).all(|i| uniform.profile_of(i, 5) == NodeProfile::uniform()));
    }
}
