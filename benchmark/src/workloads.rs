//! The four frozen workloads.
//!
//! Each workload is built here in code, field by field, and must
//! serialize to exactly the bytes checked in under `workloads/` — so a
//! changed default in `BflConfig` (or anywhere below it) fails the run
//! instead of silently reshaping what the benchmark measures. The seed in
//! the frozen config is a placeholder: rep `i` of a run overwrites it with
//! `--seed + i`.

use bfl_cluster::{ClusteringAlgorithm, DistanceMetric};
use bfl_core::{
    AggregationAnchor, AggregationMode, AttackConfig, BflConfig, FlexibilityMode,
    LowContributionStrategy, ProvisioningMode, RetryPolicy, StalenessPolicy, SyncMode,
};
use bfl_fl::attack::AttackKind;
use bfl_fl::config::PartitionKind;
use bfl_net::DelayDistribution;
use serde::{Deserialize, Serialize};

/// One workload: a fixed scenario shape, its dataset sizes, and how much
/// of it one run measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    pub name: String,
    /// One line: why this workload is in the benchmark.
    pub why: String,
    pub train_samples: usize,
    pub test_samples: usize,
    /// Reps whose counts (accuracy, simulated makespan, allocation events,
    /// peak heap) are reported. A run always completes these and then
    /// keeps adding reps, for timings only, until `--seconds` is used up,
    /// so the counts do not depend on how fast the host is.
    pub reps: usize,
    /// Sanity gate on the final held-out accuracy of every rep, not a
    /// metric: well under the lowest accuracy seen over 78–127 seeds when
    /// the workload was sized (0.989 / 0.69 / 0.17 / 0.83 in file order),
    /// so that only a broken run trips it. A run makes dozens of reps and
    /// the driver hundreds of runs; a gate a seed can trip by chance would
    /// fail operations that did not fail.
    pub accuracy_floor: f64,
    /// The scenario; `config.fl.rounds` is the rounds of one rep.
    pub config: BflConfig,
}

impl Workload {
    pub fn rounds(&self) -> usize {
        self.config.fl.rounds
    }

    /// The scenario of one rep: the frozen shape under the rep's seed.
    pub fn config_for(&self, seed: u64) -> BflConfig {
        let mut config = self.config;
        config.fl.seed = seed;
        config
    }

    /// The `--quick` variant: one rep at a fifth of the rounds. Its
    /// numbers are not comparable with a full run's and the accuracy gate
    /// is off (a fifth of the training cannot reach it).
    pub fn quick(&self) -> Workload {
        let mut quick = self.clone();
        quick.reps = 1;
        quick.accuracy_floor = 0.0;
        quick.config.fl.rounds = (self.rounds() / 5).max(1);
        quick
    }

    /// The canonical serialization checked in under `workloads/`.
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_string_pretty(self).expect("a workload has no NaN fields");
        text.push('\n');
        text
    }
}

/// The paper's Section 5.1 settings, every field spelled out.
fn paper_base() -> BflConfig {
    let mut config = BflConfig::default();
    config.fl.clients = 100;
    config.fl.participation_ratio = 0.1;
    config.fl.rounds = 100;
    config.fl.local.epochs = 5;
    config.fl.local.batch_size = 10;
    config.fl.local.learning_rate = 0.01;
    config.fl.local.proximal_mu = 0.0;
    config.fl.partition = PartitionKind::ShardNonIid {
        shards_per_client: 2,
    };
    config.fl.drop_percent = 0.0;
    config.fl.seed = 0;
    config.miners = 2;
    config.mode = FlexibilityMode::FullBfl;
    config.strategy = LowContributionStrategy::Keep;
    config.clustering = ClusteringAlgorithm::Dbscan {
        eps: 0.35,
        min_points: 2,
    };
    config.metric = DistanceMetric::Cosine;
    config.anchor = AggregationAnchor::Mean;
    config.fair_aggregation = true;
    config.reward_base = 100.0;
    config.attack = AttackConfig {
        enabled: false,
        ..AttackConfig::table2()
    };
    config.verify_signatures = true;
    config.rsa_modulus_bits = 256;
    config.discard_cooldown_rounds = 3;
    // One driver thread: the PoW search stays serial; the program's
    // `bfl_ml::par` fan-out keeps its own default.
    config.mining_threads = 1;
    config.sync = SyncMode::Synchronous;
    config.staleness = StalenessPolicy::Discard;
    config.retry = RetryPolicy::None;
    config.provisioning = ProvisioningMode::Eager;
    config.aggregation = AggregationMode::Materialized;
    config
}

fn sync_paper() -> Workload {
    Workload {
        name: "sync_paper".into(),
        why: "The paper's Section 5.1 experiment on the lockstep engine: local SGD and \
              evaluation dominate, crypto is hash/serialise-bound at 256 bits."
            .into(),
        train_samples: 6000,
        test_samples: 1000,
        reps: 12,
        accuracy_floor: 0.90,
        config: paper_base(),
    }
}

fn flex_signed_faulty() -> Workload {
    let mut config = paper_base();
    config.fl.clients = 20;
    config.fl.participation_ratio = 1.0;
    config.fl.local.epochs = 1;
    config.rsa_modulus_bits = 1024;
    config.sync = SyncMode::FlexibleQuota { quota: 14 };
    config.staleness = StalenessPolicy::DecayedInclude { decay: 0.5 };
    config.profiles.straggler_fraction = 0.3;
    config.profiles.straggler_slowdown = 8.0;
    config.profiles.uplink = DelayDistribution::Normal {
        mean: 0.08,
        std: 0.03,
    };
    config.fault.uplink.drop_rate = 0.15;
    config.fault.uplink.duplicate_rate = 0.10;
    config.fault.uplink.corrupt_rate = 0.05;
    config.retry = RetryPolicy::Backoff {
        max_attempts: 3,
        timeout_s: 0.5,
        base_s: 0.5,
        factor: 2.0,
        jitter_s: 0.1,
    };
    Workload {
        name: "flex_signed_faulty".into(),
        why: "Event engine under stragglers, lossy links and retries with 1024-bit RSA: \
              sign and verify are modexp-bound and the largest share of a round."
            .into(),
        train_samples: 600,
        test_samples: 200,
        reps: 12,
        accuracy_floor: 0.50,
        config,
    }
}

fn pop1m_streaming() -> Workload {
    let participants = 1000;
    let mut config = paper_base();
    config.fl.clients = 1_000_000;
    config.fl.participation_ratio = participants as f64 / 1_000_000.0;
    config.fl.rounds = 25;
    config.fl.local.epochs = 1;
    config.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 8,
    };
    config.verify_signatures = false;
    config.sync = SyncMode::FlexibleQuota {
        quota: participants * 4 / 5,
    };
    config.provisioning = ProvisioningMode::Lazy {
        cache_budget: participants * 2,
    };
    config.aggregation = AggregationMode::Streaming { chunk: 128 };
    // A sealed block carries O(participants) reward entries.
    config.delay.max_block_bytes = (512 * 1024).max(192 * participants);
    Workload {
        name: "pop1m_streaming".into(),
        why: "A million implicit clients, 1000 participants a round, lazy provisioning and \
              chunk-committee streaming aggregation: memory must track participants."
            .into(),
        train_samples: 300,
        test_samples: 100,
        reps: 3,
        accuracy_floor: 0.05,
        config,
    }
}

fn attack_discard() -> Workload {
    let mut config = paper_base();
    config.fl.clients = 50;
    config.fl.participation_ratio = 1.0;
    config.fl.rounds = 50;
    config.fl.local.epochs = 1;
    config.fl.partition = PartitionKind::Iid;
    config.verify_signatures = false;
    config.strategy = LowContributionStrategy::Discard;
    config.anchor = AggregationAnchor::Median;
    config.attack = AttackConfig {
        enabled: true,
        min_attackers: 1,
        max_attackers: 3,
        kind: AttackKind::SignFlip,
    };
    Workload {
        name: "attack_discard".into(),
        why: "The contribution path under attack: median-anchored Algorithm 2 over 50 \
              uploads with discards, cooldowns and detection bookkeeping every round."
            .into(),
        train_samples: 2000,
        test_samples: 400,
        reps: 10,
        accuracy_floor: 0.65,
        config,
    }
}

/// Every workload with its frozen file, in reporting order.
fn built_and_frozen() -> [(Workload, &'static str); 4] {
    [
        (sync_paper(), include_str!("../workloads/sync_paper.json")),
        (
            flex_signed_faulty(),
            include_str!("../workloads/flex_signed_faulty.json"),
        ),
        (
            pop1m_streaming(),
            include_str!("../workloads/pop1m_streaming.json"),
        ),
        (
            attack_discard(),
            include_str!("../workloads/attack_discard.json"),
        ),
    ]
}

/// Builds every workload and checks it against its frozen file. On a
/// mismatch the built form is written to `benchmark/out/<name>.built.json`
/// so the two can be diffed (and the file replaced, when the change is
/// intended).
pub fn all() -> Result<Vec<Workload>, String> {
    let mut workloads = Vec::new();
    for (workload, frozen) in built_and_frozen() {
        workload
            .config
            .validate()
            .map_err(|e| format!("workload {}: {e}", workload.name))?;
        let built = workload.to_json();
        if built != frozen {
            let path = format!("benchmark/out/{}.built.json", workload.name);
            let wrote = std::fs::create_dir_all("benchmark/out")
                .and_then(|()| std::fs::write(&path, &built))
                .map_or_else(
                    |e| format!("could not write {path}: {e}"),
                    |()| path.clone(),
                );
            return Err(format!(
                "workload {} no longer matches benchmark/workloads/{}.json — a default it \
                 relies on changed, or the file was edited. Built form: {wrote}",
                workload.name, workload.name
            ));
        }
        workloads.push(workload);
    }
    Ok(workloads)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_files_round_trip_to_the_built_workloads() {
        for (built, frozen) in built_and_frozen() {
            let parsed: Workload = serde_json::from_str(frozen).expect("frozen file parses");
            assert_eq!(parsed, built, "{}", built.name);
            assert_eq!(parsed.to_json(), frozen, "{}", built.name);
        }
    }

    #[test]
    fn every_full_workload_supports_p90() {
        for workload in all().expect("frozen files match") {
            // The fewest reps a run makes: the counted ones plus the
            // digest re-run of the first.
            let samples = (workload.reps + 1) * workload.rounds();
            assert!(
                crate::stats::highest_supported_percentile(samples) >= Some(90.0),
                "{}: {samples} samples",
                workload.name
            );
        }
    }

    #[test]
    fn quick_is_one_rep_at_a_fifth_of_the_rounds() {
        let quick = sync_paper().quick();
        assert_eq!((quick.reps, quick.rounds()), (1, 20));
        assert_eq!(quick.accuracy_floor, 0.0);
    }
}
