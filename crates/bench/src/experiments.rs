//! Scenario construction and the per-figure experiment runners.

use bfl_core::{
    AggregationMode, AttackConfig, BflConfig, DetectionTable, FlexibilityMode,
    LowContributionStrategy, ProvisioningMode, Scenario, SimulationResult, StalenessPolicy,
    SyncMode,
};
use bfl_data::{Dataset, SynthMnist, SynthMnistConfig};
use bfl_fl::config::PartitionKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// How big an experiment to run. The paper scale matches Section 5.1
/// (n = 100 clients, 100 rounds); the smaller scales preserve every ratio
/// that matters for the figures' shapes while keeping wall-clock time low.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Tiny runs for CI and smoke checks (seconds).
    Smoke,
    /// Default for the experiment binaries (tens of seconds in release).
    Medium,
    /// The paper's full Section 5.1 setup.
    Paper,
}

impl Scale {
    /// Parses `smoke` / `medium` / `paper` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "smoke" => Some(Scale::Smoke),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Reads `--scale <value>` from the process arguments, defaulting to
    /// [`Scale::Medium`] when the flag is absent. An unknown or missing
    /// value is a usage error: the process exits with status 2 instead of
    /// silently running another scale.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Scale::from_arg_list(&args).unwrap_or_else(|message| {
            eprintln!("{message}\nusage: [--scale smoke|medium|paper]");
            std::process::exit(2);
        })
    }

    /// The scale `args` (the program name excluded) ask for.
    fn from_arg_list(args: &[String]) -> Result<Scale, String> {
        let Some(flag) = args.iter().position(|arg| arg == "--scale") else {
            return Ok(Scale::Medium);
        };
        let value = args
            .get(flag + 1)
            .ok_or_else(|| "--scale needs a value".to_string())?;
        Scale::parse(value).ok_or_else(|| format!("unknown --scale value `{value}`"))
    }

    /// Training-set size.
    pub fn train_samples(&self) -> usize {
        match self {
            Scale::Smoke => 300,
            Scale::Medium => 2000,
            Scale::Paper => 6000,
        }
    }

    /// Test-set size.
    pub fn test_samples(&self) -> usize {
        match self {
            Scale::Smoke => 100,
            Scale::Medium => 400,
            Scale::Paper => 1000,
        }
    }

    /// Number of clients `n`.
    pub fn clients(&self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Medium => 50,
            Scale::Paper => 100,
        }
    }

    /// Number of communication rounds.
    pub fn rounds(&self) -> usize {
        match self {
            Scale::Smoke => 3,
            Scale::Medium => 30,
            Scale::Paper => 100,
        }
    }

    /// Local epochs `E`.
    pub fn epochs(&self) -> usize {
        match self {
            Scale::Smoke => 1,
            Scale::Medium => 3,
            Scale::Paper => 5,
        }
    }
}

/// Human-readable label of each system in the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SystemLabel {
    /// Full FAIR-BFL with the keep strategy.
    Fair,
    /// Full FAIR-BFL with the discard strategy.
    FairDiscard,
    /// The pure-blockchain baseline.
    Blockchain,
    /// FedAvg.
    FedAvg,
    /// FedProx (μ > 0, optional straggler dropping).
    FedProx,
}

impl SystemLabel {
    /// Display name used in tables.
    pub fn name(&self) -> &'static str {
        match self {
            SystemLabel::Fair => "FAIR",
            SystemLabel::FairDiscard => "FAIR-Discard",
            SystemLabel::Blockchain => "Blockchain",
            SystemLabel::FedAvg => "FedAvg",
            SystemLabel::FedProx => "FedProx",
        }
    }
}

/// Generates the train/test split for a scale (deterministic).
pub fn dataset(scale: Scale) -> (Dataset, Dataset) {
    let generator = SynthMnist::new(SynthMnistConfig {
        train_samples: scale.train_samples(),
        test_samples: scale.test_samples(),
        ..SynthMnistConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    generator.generate(&mut rng)
}

/// Base configuration shared by every system at a given scale (paper
/// Section 5.1 defaults, scaled).
pub fn base_config(scale: Scale) -> BflConfig {
    let mut config = BflConfig::default();
    config.fl.clients = scale.clients();
    config.fl.rounds = scale.rounds();
    config.fl.participation_ratio = 0.2;
    config.fl.local.epochs = scale.epochs();
    config.fl.local.learning_rate = 0.01;
    config.fl.local.batch_size = 10;
    config.fl.partition = PartitionKind::ShardNonIid {
        shards_per_client: 2,
    };
    config.fl.seed = 0xBF1;
    config.miners = 2;
    config
}

/// Configuration of one labelled system at a given scale.
pub fn system_config(system: SystemLabel, scale: Scale) -> BflConfig {
    let mut config = base_config(scale);
    match system {
        SystemLabel::Fair => {}
        SystemLabel::FairDiscard => {
            config.strategy = LowContributionStrategy::Discard;
        }
        SystemLabel::Blockchain => {
            config.mode = FlexibilityMode::ChainOnly;
        }
        SystemLabel::FedAvg => {
            config.mode = FlexibilityMode::FlOnly;
            config.fair_aggregation = false;
        }
        SystemLabel::FedProx => {
            config.mode = FlexibilityMode::FlOnly;
            config.fair_aggregation = false;
            config.fl.local.proximal_mu = 1.0;
            config.fl.drop_percent = 0.02;
        }
    }
    config
}

/// Runs one system at one scale over the given dataset.
pub fn run_system(
    system: SystemLabel,
    scale: Scale,
    data: &(Dataset, Dataset),
) -> SimulationResult {
    run_config(system_config(system, scale), data)
}

/// Runs one configuration over the given dataset.
fn run_config(config: BflConfig, data: &(Dataset, Dataset)) -> SimulationResult {
    Scenario::from_config(config)
        .expect("experiment configuration is valid")
        .run(&data.0, &data.1)
        .expect("experiment run should complete")
}

// ---------------------------------------------------------------------------
// Figure 4: general delay and accuracy comparison.
// ---------------------------------------------------------------------------

/// Series behind Figure 4a/4b.
#[derive(Debug, Clone, Serialize)]
pub struct Figure4 {
    /// (system, cumulative-average-delay series indexed by round).
    pub delay_series: Vec<(SystemLabel, Vec<f64>)>,
    /// (system, (elapsed seconds, accuracy) series).
    pub accuracy_series: Vec<(SystemLabel, Vec<(f64, f64)>)>,
    /// (system, mean round delay).
    pub mean_delays: Vec<(SystemLabel, f64)>,
    /// (system, mean accuracy over the run).
    pub mean_accuracies: Vec<(SystemLabel, f64)>,
}

/// Runs the Figure 4 comparison: delay for FAIR / Blockchain / FedAvg,
/// accuracy-vs-time for FAIR / FedAvg / FedProx.
pub fn figure4(scale: Scale) -> Figure4 {
    let data = dataset(scale);
    let mut delay_series = Vec::new();
    let mut accuracy_series = Vec::new();
    let mut mean_delays = Vec::new();
    let mut mean_accuracies = Vec::new();

    for system in [
        SystemLabel::Fair,
        SystemLabel::Blockchain,
        SystemLabel::FedAvg,
        SystemLabel::FedProx,
    ] {
        let result = run_system(system, scale, &data);
        if system != SystemLabel::FedProx {
            delay_series.push((system, result.history.cumulative_average_delay()));
        }
        if system != SystemLabel::Blockchain {
            accuracy_series.push((
                system,
                result
                    .history
                    .rounds
                    .iter()
                    .map(|r| (r.elapsed_s, r.accuracy))
                    .collect(),
            ));
            mean_accuracies.push((system, result.history.mean_accuracy()));
        }
        mean_delays.push((system, result.mean_delay()));
    }

    Figure4 {
        delay_series,
        accuracy_series,
        mean_delays,
        mean_accuracies,
    }
}

// ---------------------------------------------------------------------------
// Figure 5: learning-rate sweep.
// ---------------------------------------------------------------------------

/// One row of the Figure 5 sweep.
#[derive(Debug, Clone, Serialize)]
pub struct LearningRateRow {
    /// The learning rate η.
    pub learning_rate: f64,
    /// (system, mean round delay) at this η.
    pub delays: Vec<(SystemLabel, f64)>,
    /// (system, mean accuracy) at this η.
    pub accuracies: Vec<(SystemLabel, f64)>,
}

/// The paper's η values.
pub const PAPER_LEARNING_RATES: [f64; 5] = [0.01, 0.05, 0.10, 0.15, 0.20];

/// Runs the Figure 5 sweep over the given learning rates.
pub fn figure5(scale: Scale, learning_rates: &[f64]) -> Vec<LearningRateRow> {
    let data = dataset(scale);
    learning_rates
        .iter()
        .map(|&lr| {
            let mut delays = Vec::new();
            let mut accuracies = Vec::new();
            for system in [SystemLabel::Fair, SystemLabel::FedAvg, SystemLabel::FedProx] {
                let mut config = system_config(system, scale);
                config.fl.local.learning_rate = lr;
                let result = run_config(config, &data);
                delays.push((system, result.mean_delay()));
                accuracies.push((system, result.history.mean_accuracy()));
            }
            LearningRateRow {
                learning_rate: lr,
                delays,
                accuracies,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 6: scalability in workers and miners.
// ---------------------------------------------------------------------------

/// One row of the Figure 6a (workers) or 6b (miners) sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ScaleRow {
    /// The swept value (number of workers or miners).
    pub x: usize,
    /// (system, mean round delay).
    pub delays: Vec<(SystemLabel, f64)>,
}

/// The paper's worker counts for Figure 6a.
pub const PAPER_WORKER_COUNTS: [usize; 6] = [20, 40, 60, 80, 100, 120];
/// The paper's miner counts for Figure 6b.
pub const PAPER_MINER_COUNTS: [usize; 5] = [2, 4, 6, 8, 10];

/// Figure 6a: delay versus the number of workers (FAIR, Blockchain, FedAvg).
pub fn figure6_workers(scale: Scale, worker_counts: &[usize]) -> Vec<ScaleRow> {
    worker_counts
        .iter()
        .map(|&n| {
            let mut delays = Vec::new();
            for system in [
                SystemLabel::Fair,
                SystemLabel::Blockchain,
                SystemLabel::FedAvg,
            ] {
                let mut config = system_config(system, scale);
                config.fl.clients = n;
                // The dataset must cover the clients; reuse a split sized to
                // the largest count to keep shards non-empty.
                let data = dataset_for_clients(scale, n);
                let result = run_config(config, &data);
                delays.push((system, result.mean_delay()));
            }
            ScaleRow { x: n, delays }
        })
        .collect()
}

/// Figure 6b: delay versus the number of miners (FAIR, Blockchain).
pub fn figure6_miners(scale: Scale, miner_counts: &[usize]) -> Vec<ScaleRow> {
    let data = dataset(scale);
    miner_counts
        .iter()
        .map(|&m| {
            let mut delays = Vec::new();
            for system in [SystemLabel::Fair, SystemLabel::Blockchain] {
                let mut config = system_config(system, scale);
                config.miners = m;
                let result = run_config(config, &data);
                delays.push((system, result.mean_delay()));
            }
            ScaleRow { x: m, delays }
        })
        .collect()
}

fn dataset_for_clients(scale: Scale, clients: usize) -> (Dataset, Dataset) {
    let samples = scale.train_samples().max(clients * 20);
    let generator = SynthMnist::new(SynthMnistConfig {
        train_samples: samples,
        test_samples: scale.test_samples(),
        ..SynthMnistConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(0xDA7A);
    generator.generate(&mut rng)
}

// ---------------------------------------------------------------------------
// Figure 7: the discard strategy.
// ---------------------------------------------------------------------------

/// Results of the Figure 7 comparison.
#[derive(Debug, Clone, Serialize)]
pub struct Figure7 {
    /// (system, cumulative-average-delay series).
    pub delay_series: Vec<(SystemLabel, Vec<f64>)>,
    /// (system, (elapsed seconds, accuracy) series).
    pub accuracy_series: Vec<(SystemLabel, Vec<(f64, f64)>)>,
    /// (system, mean round delay).
    pub mean_delays: Vec<(SystemLabel, f64)>,
    /// (system, final accuracy).
    pub final_accuracies: Vec<(SystemLabel, f64)>,
    /// (system, simulated seconds to reach the convergence criterion, if reached).
    pub convergence_times: Vec<(SystemLabel, Option<f64>)>,
}

/// Runs the Figure 7 comparison: FAIR-Discard, FAIR, Blockchain, FedAvg,
/// FedProx-Drop(0.02).
pub fn figure7(scale: Scale) -> Figure7 {
    let data = dataset(scale);
    let mut delay_series = Vec::new();
    let mut accuracy_series = Vec::new();
    let mut mean_delays = Vec::new();
    let mut final_accuracies = Vec::new();
    let mut convergence_times = Vec::new();

    for system in [
        SystemLabel::FairDiscard,
        SystemLabel::Fair,
        SystemLabel::Blockchain,
        SystemLabel::FedAvg,
        SystemLabel::FedProx,
    ] {
        let result = run_system(system, scale, &data);
        mean_delays.push((system, result.mean_delay()));
        if system != SystemLabel::FedProx {
            delay_series.push((system, result.history.cumulative_average_delay()));
        }
        if system != SystemLabel::Blockchain {
            accuracy_series.push((
                system,
                result
                    .history
                    .rounds
                    .iter()
                    .map(|r| (r.elapsed_s, r.accuracy))
                    .collect(),
            ));
            final_accuracies.push((system, result.final_accuracy().unwrap_or(0.0)));
            convergence_times.push((system, result.history.convergence_time()));
        }
    }

    Figure7 {
        delay_series,
        accuracy_series,
        mean_delays,
        final_accuracies,
        convergence_times,
    }
}

// ---------------------------------------------------------------------------
// PR 7: population-scale rounds.
// ---------------------------------------------------------------------------

/// One cell of the population-scale heap ladder: an implicit population of
/// `population` clients from which each round samples `participants`,
/// provisioned lazily under an O(participants) cache and folded through
/// streaming Procedure IV in `chunk`-sized committees on the event
/// engine. The block quota sits at 80% of the participants so rounds seal
/// without waiting for the slowest uplinks. Signatures stay off so the
/// cell measures engine bookkeeping and training, not RSA.
///
/// Holding `participants` fixed while `population` grows six orders of
/// magnitude is the experiment: peak heap must stay ≈ flat.
pub fn population_scale_config(
    population: usize,
    participants: usize,
    rounds: usize,
    chunk: usize,
) -> BflConfig {
    assert!(participants <= population);
    let mut config = base_config(Scale::Smoke);
    config.fl.clients = population;
    config.fl.participation_ratio = participants as f64 / population as f64;
    config.fl.rounds = rounds;
    config.fl.partition = PartitionKind::ImplicitIid {
        samples_per_client: 8,
    };
    config.verify_signatures = false;
    config.sync = SyncMode::FlexibleQuota {
        quota: (participants * 4 / 5).max(1),
    };
    config.staleness = StalenessPolicy::Discard;
    config.provisioning = ProvisioningMode::Lazy {
        cache_budget: participants.saturating_mul(2),
    };
    config.aggregation = AggregationMode::Streaming { chunk };
    // A sealed block carries the round's reward list — O(participants)
    // entries — so the block-size limit scales with the working set (the
    // paper's flexible block size, taken to population scale).
    config.delay.max_block_bytes = (512 * 1024).max(192 * participants);
    debug_assert_eq!(config.fl.selected_per_round(), participants);
    config
}

// ---------------------------------------------------------------------------
// Table 2: attack detection.
// ---------------------------------------------------------------------------

/// Results of the Table 2 experiment for one partition regime.
#[derive(Debug, Clone)]
pub struct Table2Run {
    /// "Non-IID" or "IID".
    pub label: &'static str,
    /// The detection table.
    pub detection: DetectionTable,
    /// Final accuracy reached despite the attacks.
    pub final_accuracy: f64,
}

/// Runs the Table 2 experiment: 10 clients, full participation, 1-3
/// attackers per round, DBSCAN + discard, for both partition regimes.
pub fn table2(scale: Scale) -> Vec<Table2Run> {
    let rounds = match scale {
        Scale::Smoke => 3,
        _ => 10,
    };
    let data = dataset(scale);
    [
        (
            "Non-IID",
            PartitionKind::ShardNonIid {
                shards_per_client: 2,
            },
        ),
        ("IID", PartitionKind::Iid),
    ]
    .into_iter()
    .map(|(label, partition)| {
        let mut config = base_config(scale);
        config.fl.clients = 10;
        config.fl.participation_ratio = 1.0;
        config.fl.rounds = rounds;
        config.fl.partition = partition;
        config.strategy = LowContributionStrategy::Discard;
        config.attack = AttackConfig::table2();
        let result = run_config(config, &data);
        let final_accuracy = result.final_accuracy().unwrap_or(0.0);
        Table2Run {
            label,
            detection: result.detection,
            final_accuracy,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing_and_parameters() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("SMOKE"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("nope"), None);
        let args = |list: &[&str]| list.iter().map(|arg| arg.to_string()).collect::<Vec<_>>();
        assert_eq!(Scale::from_arg_list(&args(&[])), Ok(Scale::Medium));
        assert_eq!(
            Scale::from_arg_list(&args(&["--scale", "smoke"])),
            Ok(Scale::Smoke)
        );
        let unknown = Scale::from_arg_list(&args(&["--scale", "papr"])).unwrap_err();
        assert!(unknown.contains("papr"), "{unknown}");
        assert!(Scale::from_arg_list(&args(&["--scale"])).is_err());
        assert!(Scale::Paper.clients() > Scale::Smoke.clients());
        assert_eq!(Scale::Paper.clients(), 100);
        assert_eq!(Scale::Paper.rounds(), 100);
        assert_eq!(Scale::Paper.epochs(), 5);
    }

    #[test]
    fn system_configs_differ_in_the_right_knobs() {
        let fair = system_config(SystemLabel::Fair, Scale::Smoke);
        let discard = system_config(SystemLabel::FairDiscard, Scale::Smoke);
        let chain = system_config(SystemLabel::Blockchain, Scale::Smoke);
        let fedavg = system_config(SystemLabel::FedAvg, Scale::Smoke);
        let fedprox = system_config(SystemLabel::FedProx, Scale::Smoke);

        assert_eq!(fair.mode, FlexibilityMode::FullBfl);
        assert_eq!(discard.strategy, LowContributionStrategy::Discard);
        assert_eq!(chain.mode, FlexibilityMode::ChainOnly);
        assert_eq!(fedavg.mode, FlexibilityMode::FlOnly);
        assert!(!fedavg.fair_aggregation);
        assert!(fedprox.fl.local.proximal_mu > 0.0);
        assert!(fedprox.fl.drop_percent > 0.0);
        for config in [fair, discard, chain, fedavg, fedprox] {
            config.validate().unwrap();
        }
        assert_eq!(SystemLabel::FairDiscard.name(), "FAIR-Discard");
    }

    #[test]
    fn smoke_figure4_has_expected_structure_and_ordering() {
        let figure = figure4(Scale::Smoke);
        assert_eq!(figure.delay_series.len(), 3);
        assert_eq!(figure.accuracy_series.len(), 3);
        assert_eq!(figure.mean_delays.len(), 4);
        let delay_of = |label: SystemLabel| {
            figure
                .mean_delays
                .iter()
                .find(|(l, _)| *l == label)
                .map(|(_, d)| *d)
                .unwrap()
        };
        // FedAvg is the cheapest of the three delay curves even at smoke scale.
        assert!(delay_of(SystemLabel::FedAvg) < delay_of(SystemLabel::Fair));
    }

    #[test]
    fn smoke_table2_produces_rows_for_both_regimes() {
        let runs = table2(Scale::Smoke);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].label, "Non-IID");
        assert_eq!(runs[1].label, "IID");
        for run in &runs {
            assert_eq!(run.detection.len(), 3);
            assert!(run.final_accuracy >= 0.0);
        }
    }
}
