//! Shared fixtures for the cross-crate integration tests.

use fair_bfl::core::{BflConfig, Scenario, SimulationResult};
use fair_bfl::data::{Dataset, SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::PartitionKind;
use fair_bfl::ml::par;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A small synthetic MNIST split shared by the integration tests.
pub fn small_dataset() -> (Dataset, Dataset) {
    let generator = SynthMnist::new(SynthMnistConfig {
        train_samples: 250,
        test_samples: 80,
        noise_std: 0.05,
        max_translation: 1.0,
    });
    let mut rng = StdRng::seed_from_u64(1234);
    generator.generate(&mut rng)
}

/// A FAIR-BFL configuration scaled for integration testing: 10 clients,
/// IID partition, one local epoch.
pub fn small_config(rounds: usize) -> BflConfig {
    let mut config = BflConfig::small_test(rounds);
    config.fl.partition = PartitionKind::Iid;
    config
}

/// Runs every scenario of `grid` over the shared split on exactly
/// `workers` threads (fewer only when the grid is shorter), results in
/// grid order — the fan-out `bflharness` fleets use, at test scale.
#[allow(dead_code)] // not every test binary sweeps a grid
pub fn run_grid(
    grid: &[Scenario],
    workers: usize,
    train: &Dataset,
    test: &Dataset,
) -> Vec<SimulationResult> {
    par::with_thread_limit(workers, || {
        par::par_map(grid, 1, |_, scenario| scenario.run(train, test).unwrap())
    })
}
