//! The manifest's settings grammar *is* `BflConfig`'s serde form: every
//! valid configuration has a manifest that resolves to it, the frozen
//! `benchmark/workloads/*.json` files are such manifests' `base` objects,
//! and every shipped fleet under `scenarios/` parses.

use bfl_cluster::ClusteringAlgorithm;
use bfl_core::{
    AggregationAnchor, AggregationMode, AttackConfig, BflConfig, FlexibilityMode,
    LowContributionStrategy, ProvisioningMode, ReorgPolicy, RetryPolicy, StalenessPolicy, SyncMode,
};
use bfl_fl::attack::AttackKind;
use bfl_fl::config::PartitionKind;
use bfl_harness::manifest::apply_patch;
use bfl_harness::Manifest;
use bfl_net::{CrashSchedule, DelayDistribution, Partition};
use proptest::prelude::*;
use serde::{Serialize, Value};

/// `config` in its serde form without `fl.seed`, which a manifest may not
/// set: the fleet's seeds overwrite it.
fn as_base(mut config: Value) -> Value {
    let Value::Obj(fields) = &mut config else {
        panic!("a configuration serialises to an object");
    };
    let fl = fields.iter_mut().find(|(key, _)| key == "fl");
    let Some((_, Value::Obj(fl))) = fl else {
        panic!("a configuration has an `fl` object");
    };
    fl.retain(|(key, _)| key != "seed");
    config
}

/// What a manifest whose `base` is `base` resolves its one cell to.
fn resolve(base: &Value) -> BflConfig {
    let mut config = BflConfig::default();
    apply_patch(&mut config, base, "base").unwrap_or_else(|e| panic!("{e}"));
    config
}

/// A stream of small choices drawn from the property's random words.
struct Picks(std::vec::IntoIter<u64>);

impl Picks {
    /// A choice in `0..n`.
    fn below(&mut self, n: usize) -> usize {
        (self.0.next().expect("enough random words") % n as u64) as usize
    }

    fn flag(&mut self) -> bool {
        self.below(2) == 1
    }

    /// A real in `(0, 1]`, on a grid coarse enough to print short.
    fn unit(&mut self) -> f64 {
        (self.below(1000) + 1) as f64 / 1000.0
    }

    fn distribution(&mut self) -> DelayDistribution {
        match self.below(4) {
            0 => DelayDistribution::Constant(self.unit()),
            1 => DelayDistribution::Uniform {
                min: 0.0,
                max: self.unit(),
            },
            2 => DelayDistribution::Normal {
                mean: self.unit(),
                std: self.unit() / 4.0,
            },
            _ => DelayDistribution::Exponential { mean: self.unit() },
        }
    }
}

/// An arbitrary configuration [`BflConfig::validate`] accepts: every
/// variant of every enum is reachable, scalars of each type move at
/// every nesting depth, and the joint constraints (faults and streaming
/// need the event engine, lazy provisioning an implicit partition, a
/// partition two miners …) hold by construction.
fn arbitrary_valid_config(words: Vec<u64>) -> BflConfig {
    let mut p = Picks(words.into_iter());
    let mut config = BflConfig::default();

    config.fl.clients = 4 + p.below(37);
    config.fl.participation_ratio = p.unit();
    config.fl.local.epochs = 1 + p.below(3);
    config.fl.local.proximal_mu = p.unit() - 0.001;
    // `fl.model` keeps the default 784 x 10: its one variant, in the
    // shape the fleet's dataset feeds.
    config.fl.partition = match p.below(4) {
        0 => PartitionKind::Iid,
        1 => PartitionKind::ShardNonIid {
            shards_per_client: 1 + p.below(3),
        },
        2 => PartitionKind::Dirichlet { alpha: p.unit() },
        _ => PartitionKind::ImplicitIid {
            samples_per_client: 1 + p.below(16),
        },
    };
    config.miners = 1 + p.below(5);
    config.strategy = [
        LowContributionStrategy::Keep,
        LowContributionStrategy::Discard,
    ][p.below(2)];
    config.clustering = match p.below(3) {
        0 => ClusteringAlgorithm::Dbscan {
            eps: p.unit(),
            min_points: 1 + p.below(4),
        },
        1 => ClusteringAlgorithm::KMeans {
            k: 1 + p.below(4),
            max_iterations: 1 + p.below(50),
        },
        _ => ClusteringAlgorithm::Agglomerative {
            distance_threshold: p.unit(),
        },
    };
    config.fair_aggregation = p.flag();
    config.delay.uplink.latency = p.distribution();
    config.delay.pow_difficulty = 1 + p.below(5000) as u64;
    config.delay.fork.resolution_overhead_s = p.unit();
    config.attack = AttackConfig {
        enabled: p.flag(),
        min_attackers: p.below(3),
        max_attackers: 2 + p.below(2),
        kind: match p.below(4) {
            0 => AttackKind::SignFlip,
            1 => AttackKind::Scaling {
                factor: p.unit() * 20.0,
            },
            2 => AttackKind::GaussianNoise { std: p.unit() },
            _ => AttackKind::AdditiveNoise { std: p.unit() },
        },
    };
    config.staleness = match p.below(2) {
        0 => StalenessPolicy::Discard,
        _ => StalenessPolicy::DecayedInclude { decay: p.unit() },
    };
    config.profiles.uplink = p.distribution();
    config.profiles.churn_fraction = p.unit() - 0.001;
    config.retry = match p.below(2) {
        0 => RetryPolicy::None,
        _ => RetryPolicy::Backoff {
            max_attempts: 1 + p.below(5) as u32,
            timeout_s: p.unit(),
            base_s: p.unit(),
            factor: 1.0 + p.unit(),
            jitter_s: p.unit() - 0.001,
        },
    };
    config.reorg = [ReorgPolicy::Discard, ReorgPolicy::Salvage][p.below(2)];

    // The event engine, and what only it can carry.
    let flexible = p.flag();
    let streaming = flexible && p.flag();
    if flexible {
        config.sync = SyncMode::FlexibleQuota {
            quota: 1 + p.below(config.fl.clients),
        };
        config.fault.uplink.corrupt_rate = p.unit() - 0.001;
        config.fault.uplink.window.start_s = p.unit();
        config.fault.deadline_s = p.unit() * 10.0;
        if !streaming && p.flag() {
            config.fault.crash = Some(CrashSchedule {
                miner: p.below(config.miners),
                crash_at_s: p.unit(),
                down_for_s: p.unit(),
            });
        }
        if !streaming && config.miners >= 2 && p.flag() {
            config.fault.partition = Some(Partition {
                start_s: p.unit(),
                duration_s: p.unit(),
                boundary: 1 + p.below(config.miners - 1),
            });
        }
    }
    if streaming {
        config.aggregation = AggregationMode::Streaming {
            chunk: 1 + p.below(8),
        };
    } else {
        config.anchor = match p.below(3) {
            0 => AggregationAnchor::Mean,
            1 => AggregationAnchor::Median,
            _ => AggregationAnchor::TrimmedMean {
                trim_ratio: p.unit() / 2.0,
            },
        };
    }
    config.mode = match p.below(if flexible { 2 } else { 3 }) {
        0 => FlexibilityMode::FullBfl,
        1 => FlexibilityMode::FlOnly,
        _ => FlexibilityMode::ChainOnly,
    };
    if matches!(config.fl.partition, PartitionKind::ImplicitIid { .. }) && p.flag() {
        config.provisioning = ProvisioningMode::Lazy {
            cache_budget: config.fl.selected_per_round() + p.below(64),
        };
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every valid `BflConfig`, serialised and used as a manifest's
    /// `base`, resolves to itself.
    #[test]
    fn every_valid_config_has_a_manifest_that_resolves_to_it(
        words in proptest::collection::vec(any::<u64>(), 64..65),
    ) {
        let config = arbitrary_valid_config(words);
        prop_assert_eq!(config.validate(), Ok(()), "the generator is wrong: {:?}", config);
        prop_assert_eq!(resolve(&as_base(config.to_value())), config);
    }
}

/// The benchmark's frozen workload files spell the same grammar: each
/// one's `config`, minus the seed the fleet owns, is a `base` that
/// resolves to the configuration the benchmark deserialises.
#[test]
fn benchmark_workloads_are_manifest_bases() {
    for text in [
        include_str!("../../../benchmark/workloads/sync_paper.json"),
        include_str!("../../../benchmark/workloads/flex_signed_faulty.json"),
        include_str!("../../../benchmark/workloads/pop1m_streaming.json"),
        include_str!("../../../benchmark/workloads/attack_discard.json"),
    ] {
        let workload: Value = serde_json::from_str(text).expect("workload files are JSON");
        let config = workload.field("config").expect("a workload has a config");
        let mut expected =
            <BflConfig as serde::Deserialize>::from_value(config).expect("the benchmark reads it");
        expected.fl.seed = BflConfig::default().fl.seed;
        assert_eq!(resolve(&as_base(config.clone())), expected);
    }
}

/// Parse only — cheap in debug, and enough to catch a manifest that a
/// config rename or a typo left behind.
#[test]
fn every_shipped_manifest_parses() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut parsed = 0;
    for entry in std::fs::read_dir(&dir).expect("scenarios/ exists") {
        let path = entry.expect("scenarios/ lists").path();
        if path.extension().is_some_and(|ext| ext == "json") {
            let text = std::fs::read_to_string(&path).expect("a manifest is readable");
            let manifest =
                Manifest::from_json(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                Some(manifest.name.as_str()),
                path.file_stem().and_then(|stem| stem.to_str()),
                "a manifest is named after its file"
            );
            parsed += 1;
        }
    }
    assert!(parsed > 0, "no manifest under {}", dir.display());
}
