//! Shared fixtures for the cross-crate integration tests.

use fair_bfl::core::{BflConfig, Scenario, SimulationResult};
use fair_bfl::data::{Dataset, SynthMnist, SynthMnistConfig};
use fair_bfl::fl::config::{FlConfig, PartitionKind};
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

/// The event-engine suites' population: `clients` IID clients, every one
/// selected every round, one local epoch of batch 10 at the paper's
/// learning rate.
#[allow(dead_code)] // not every test binary runs the event engine
pub fn full_participation_fl(clients: usize, rounds: usize, seed: u64) -> FlConfig {
    let mut fl = FlConfig {
        clients,
        rounds,
        participation_ratio: 1.0,
        partition: PartitionKind::Iid,
        seed,
        ..FlConfig::default()
    };
    fl.local.epochs = 1;
    fl.local.batch_size = 10;
    fl
}

/// Canonical text of every artifact the experiments read, one line per
/// block hash, round, detection row and reward total, then the final
/// parameter vector: per-round accuracy/loss/delay/clock/participants and
/// the parameters bit-exact.
#[allow(dead_code)] // not every test binary compares runs
pub fn run_canon(result: &SimulationResult) -> String {
    let mut canon = String::new();
    if let Some(chain) = &result.chain {
        for block in chain.iter() {
            canon.push_str(&block.hash_hex());
            canon.push('\n');
        }
    }
    for o in &result.outcomes {
        canon.push_str(&format!(
            "round {} acc {:016x} loss {:016x} delay {:016x} elapsed {:016x} n {}\n",
            o.round,
            o.accuracy.to_bits(),
            o.train_loss.to_bits(),
            o.breakdown.total().to_bits(),
            o.elapsed_s.to_bits(),
            o.participants
        ));
    }
    for row in &result.detection.rows {
        canon.push_str(&format!(
            "detect {} attackers {:?} dropped {:?}\n",
            row.round, row.attacker_ids, row.dropped_ids
        ));
    }
    for (client, total) in &result.reward_totals {
        canon.push_str(&format!("reward {client} {total}\n"));
    }
    for p in &result.final_params {
        canon.push_str(&format!("{:016x}", p.to_bits()));
    }
    canon
}

/// SHA-256 of [`run_canon`] in hex: what a golden pin records.
#[allow(dead_code)] // not every test binary pins a digest
pub fn run_digest(result: &SimulationResult) -> String {
    let digest = fair_bfl::crypto::sha256::sha256(run_canon(result).as_bytes());
    digest.iter().map(|b| format!("{b:02x}")).collect()
}

/// Asserts that `a` and `b` are the same run ([`run_canon`] equal); on a
/// difference the panic names `what` and shows the first canonical line
/// that differs (for the parameter line, the 16-digit value that does).
#[allow(dead_code)] // not every test binary compares runs
pub fn assert_same_run(a: &SimulationResult, b: &SimulationResult, what: &str) {
    let (a, b) = (run_canon(a), run_canon(b));
    if a == b {
        return;
    }
    let (a, b): (Vec<&str>, Vec<&str>) = (a.split('\n').collect(), b.split('\n').collect());
    let line = (0..a.len().max(b.len()))
        .find(|&i| a.get(i) != b.get(i))
        .expect("unequal texts differ in some line");
    let x = a.get(line).copied().unwrap_or("<no line>");
    let y = b.get(line).copied().unwrap_or("<no line>");
    if x.len().max(y.len()) <= 200 {
        panic!("{what}: canonical line {line} differs: {x:?} vs {y:?}");
    }
    let at = x.bytes().zip(y.bytes()).take_while(|(p, q)| p == q).count() / 16 * 16;
    let window = |s: &str| s.get(at..(at + 16).min(s.len())).unwrap_or("").to_string();
    panic!(
        "{what}: canonical line {line} differs at character {at}: {:?} vs {:?}",
        window(x),
        window(y)
    );
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
