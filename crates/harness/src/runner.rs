//! Fleet execution: cells × seeds fanned across cores and processes.
//!
//! The runner expands a [`Manifest`] into the canonical job list
//! (cell-major, seeds in manifest order), filters it by the process
//! [`Shard`], and executes the surviving jobs through
//! [`par::par_map`]'s order-stable fork/join map — so results are
//! bit-identical at every thread count. All file writes happen serially
//! after the parallel phase, in canonical order.

use crate::manifest::{DatasetSpec, Manifest};
use crate::stats::Stats;
use bfl_core::{gini, CoreError, KpiRow, Scenario};
use bfl_data::{Dataset, SynthMnist, SynthMnistConfig};
use bfl_ml::par;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};

/// Which slice of the fleet this process owns.
///
/// Job `g` (global index in the canonical cell-major order) belongs to
/// shard `i` of `n` iff `g % n == i` — a pure function of the manifest,
/// so cooperating processes need no coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This process's shard index, `0 <= index < count`.
    pub index: usize,
    /// Total number of cooperating shards.
    pub count: usize,
}

impl Default for Shard {
    /// The whole fleet in one process.
    fn default() -> Self {
        Shard { index: 0, count: 1 }
    }
}

impl Shard {
    /// Parses `i/N` (e.g. `0/2`).
    pub fn parse(text: &str) -> Result<Shard, String> {
        let (index, count) = text
            .split_once('/')
            .ok_or_else(|| format!("expected i/N, got `{text}`"))?;
        let index: usize = index
            .parse()
            .map_err(|_| format!("shard index `{index}` is not an integer"))?;
        let count: usize = count
            .parse()
            .map_err(|_| format!("shard count `{count}` is not an integer"))?;
        if count == 0 {
            return Err("shard count must be >= 1".to_string());
        }
        if index >= count {
            return Err(format!("shard index {index} out of range for /{count}"));
        }
        Ok(Shard { index, count })
    }

    /// Does this shard own global job `g`?
    pub fn owns(&self, g: usize) -> bool {
        g % self.count == self.index
    }
}

/// A harness failure: manifest, I/O, simulation, or merge.
#[derive(Debug)]
pub enum HarnessError {
    /// The manifest failed to parse or validate.
    Manifest(crate::manifest::ManifestError),
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The underlying error message.
        message: String,
    },
    /// A simulation failed.
    Core(CoreError),
    /// Shard outputs could not be merged.
    Merge(String),
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Manifest(e) => write!(f, "{e}"),
            HarnessError::Io { path, message } => write!(f, "io error at `{path}`: {message}"),
            HarnessError::Core(e) => write!(f, "simulation failed: {e}"),
            HarnessError::Merge(message) => write!(f, "merge failed: {message}"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<crate::manifest::ManifestError> for HarnessError {
    fn from(e: crate::manifest::ManifestError) -> Self {
        HarnessError::Manifest(e)
    }
}

impl From<CoreError> for HarnessError {
    fn from(e: CoreError) -> Self {
        HarnessError::Core(e)
    }
}

fn io_err(path: &Path, e: std::io::Error) -> HarnessError {
    HarnessError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// One per-round KPI record, read off the run after each step.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRow {
    /// Communication round (1-based).
    pub round: usize,
    /// Test accuracy after the round.
    pub accuracy: f64,
    /// Mean final-epoch training loss across participants.
    pub train_loss: f64,
    /// Uploads that entered the aggregation.
    pub participants: usize,
    /// Attacker-detection rate this round (absent without attackers).
    pub detection_rate: Option<f64>,
    /// The round's makespan and event-driven counters, as the engine
    /// recorded them.
    pub kpi: KpiRow,
    /// Reward paid this round, in milli-units.
    pub rewards_paid_milli: u64,
    /// Gini coefficient of the cumulative reward ledger through this round.
    pub reward_gini: f64,
}

/// Final (end-of-run) metrics of one cell × seed run — the values the
/// cross-seed summary aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FinalMetrics {
    /// Rounds completed.
    pub rounds: usize,
    /// Test accuracy after the last round (absent for chain-only runs,
    /// which train nothing).
    pub final_accuracy: Option<f64>,
    /// Run-average attacker-detection rate (absent for a run that
    /// injected no attacker, which has nothing to detect).
    pub detection_rate: Option<f64>,
    /// Total simulated makespan across all rounds, in seconds.
    pub makespan_s: f64,
    /// Gini coefficient of the final cumulative reward ledger.
    pub reward_gini: f64,
}

/// The in-memory result of one cell × seed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Index of the cell in the manifest's expansion order.
    pub cell_index: usize,
    /// The cell's label.
    pub cell_label: String,
    /// The scenario seed.
    pub seed: u64,
    /// Per-round KPI rows.
    pub rows: Vec<RoundRow>,
    /// End-of-run metrics.
    pub finals: FinalMetrics,
}

/// The per-run sidecar JSON (`seed_<N>.json`) — everything `merge`
/// needs to rebuild the summary without re-running anything.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSidecar {
    /// Manifest name.
    pub name: String,
    /// Cell index in expansion order.
    pub cell_index: usize,
    /// Cell label.
    pub cell_label: String,
    /// Scenario seed.
    pub seed: u64,
    /// End-of-run metrics.
    pub finals: FinalMetrics,
}

/// Cross-seed statistics of one cell. A metric is absent when it applies
/// to none of the cell's runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellSummary {
    /// The cell's label.
    pub label: String,
    /// Rounds each run completed.
    pub rounds: usize,
    /// Final test accuracy across seeds.
    pub final_accuracy: Option<Stats>,
    /// Average detection rate across seeds.
    pub detection_rate: Option<Stats>,
    /// Total makespan across seeds.
    pub makespan_s: Stats,
    /// Final reward Gini across seeds.
    pub reward_gini: Stats,
}

/// The fleet summary (`summary.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Summary {
    /// Manifest name.
    pub name: String,
    /// The seed fleet, in manifest order.
    pub seeds: Vec<u64>,
    /// One entry per cell, in expansion order.
    pub cells: Vec<CellSummary>,
}

/// The fleet identity file (`fleet.json`). Deliberately shard-free so
/// every shard of the same manifest writes byte-identical bytes — merge
/// uses that to prove the shards came from one fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetFile {
    /// Manifest name.
    pub name: String,
    /// Cell labels, in expansion order.
    pub cells: Vec<String>,
    /// The seed fleet, in manifest order.
    pub seeds: Vec<u64>,
}

impl FleetFile {
    /// Builds the identity record of a manifest.
    pub fn of(manifest: &Manifest) -> FleetFile {
        FleetFile {
            name: manifest.name.clone(),
            cells: manifest.cells.iter().map(|c| c.label.clone()).collect(),
            seeds: manifest.seeds.clone(),
        }
    }
}

/// Generates the fleet's shared dataset.
pub fn generate_dataset(spec: &DatasetSpec) -> (Dataset, Dataset) {
    let generator = SynthMnist::new(SynthMnistConfig {
        train_samples: spec.train_samples,
        test_samples: spec.test_samples,
        ..SynthMnistConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(spec.data_seed);
    generator.generate(&mut rng)
}

/// Runs every job of `manifest` owned by `shard` and returns the records
/// in canonical (cell-major) order.
///
/// `threads` is the worker count: `N` runs the jobs on exactly `N`
/// workers (fewer only when there are fewer jobs), whatever the host's
/// core count; `0` means all available cores. [`par::par_map`] gives
/// each worker one balanced contiguous chunk of the job list and
/// stitches the chunks back in order, and each job is seeded by its
/// cell and seed alone — so the output is independent of the thread
/// count and of which shard ran which job.
pub fn run_fleet(
    manifest: &Manifest,
    shard: Shard,
    threads: usize,
) -> Result<Vec<RunRecord>, HarnessError> {
    let (train, test) = generate_dataset(&manifest.dataset);
    let jobs: Vec<(usize, u64)> = (0..manifest.cells.len())
        .flat_map(|cell| manifest.seeds.iter().map(move |&seed| (cell, seed)))
        .enumerate()
        .filter(|(g, _)| shard.owns(*g))
        .map(|(_, job)| job)
        .collect();
    let run_jobs = || {
        par::par_map(&jobs, 1, |_, &(cell, seed)| {
            run_one(manifest, cell, seed, &train, &test)
        })
    };
    // `with_thread_limit(0, ..)` would clamp to one worker, so "all
    // available" runs outside any limit scope.
    let results = match threads {
        0 => run_jobs(),
        n => par::with_thread_limit(n, run_jobs),
    };
    results.into_iter().collect()
}

/// Runs one cell × seed job.
fn run_one(
    manifest: &Manifest,
    cell_index: usize,
    seed: u64,
    train: &Dataset,
    test: &Dataset,
) -> Result<RunRecord, HarnessError> {
    let cell = &manifest.cells[cell_index];
    let mut config = cell.config;
    config.fl.seed = seed;
    let scenario = Scenario::from_config(config)?;

    let mut rows: Vec<RoundRow> = Vec::new();
    let mut run = scenario.start(train, test)?;
    while run.step()?.is_some() {
        let outcome = run.outcomes().last().expect("step stored the round");
        let ledger: Vec<u64> = run.reward_totals().values().copied().collect();
        rows.push(RoundRow {
            round: outcome.round,
            accuracy: outcome.accuracy,
            train_loss: outcome.train_loss,
            participants: outcome.participants,
            detection_rate: run.detection().rows.last().and_then(|d| d.detection_rate),
            kpi: outcome.kpi,
            rewards_paid_milli: outcome.rewards_paid_milli,
            reward_gini: gini(&ledger),
        });
    }
    let result = run.into_result();

    let makespan_s = rows.iter().map(|r| r.kpi.makespan_s).sum();
    let ledger: Vec<u64> = result.reward_totals.values().copied().collect();
    let attackers_injected = result.detection.totals().0 > 0;
    let finals = FinalMetrics {
        rounds: rows.len(),
        final_accuracy: result.final_accuracy(),
        detection_rate: attackers_injected.then(|| result.detection.average_detection_rate()),
        makespan_s,
        reward_gini: gini(&ledger),
    };
    Ok(RunRecord {
        cell_index,
        cell_label: cell.label.clone(),
        seed,
        rows,
        finals,
    })
}

/// Builds the cross-seed summary from final metrics keyed by
/// `(cell_index, seed)`. `finals` must cover the full fleet and is
/// consumed in canonical order (cells in expansion order, seeds in
/// manifest order), so the float accumulation order — and therefore the
/// serialized bytes — are independent of how the values were produced.
/// Both the unsharded runner and `merge` call this one function; the
/// byte-identity guarantee depends on them never diverging.
pub fn summarize(fleet: &FleetFile, finals: &dyn Fn(usize, u64) -> FinalMetrics) -> Summary {
    let cells = fleet
        .cells
        .iter()
        .enumerate()
        .map(|(cell_index, label)| {
            let metrics: Vec<FinalMetrics> = fleet
                .seeds
                .iter()
                .map(|&seed| finals(cell_index, seed))
                .collect();
            let column = |f: &dyn Fn(&FinalMetrics) -> f64| {
                Stats::from_sample(&metrics.iter().map(f).collect::<Vec<f64>>())
            };
            // Over the runs a metric applies to; absent when it applies to none.
            let applicable = |f: &dyn Fn(&FinalMetrics) -> Option<f64>| {
                let sample: Vec<f64> = metrics.iter().filter_map(f).collect();
                (!sample.is_empty()).then(|| Stats::from_sample(&sample))
            };
            CellSummary {
                label: label.clone(),
                rounds: metrics[0].rounds,
                final_accuracy: applicable(&|m| m.final_accuracy),
                detection_rate: applicable(&|m| m.detection_rate),
                makespan_s: column(&|m| m.makespan_s),
                reward_gini: column(&|m| m.reward_gini),
            }
        })
        .collect();
    Summary {
        name: fleet.name.clone(),
        seeds: fleet.seeds.clone(),
        cells,
    }
}

/// The CSV header of a per-seed KPI series.
pub const CSV_HEADER: &str = "round,accuracy,train_loss,participants,detection_rate,\
makespan_s,mempool_depth_at_seal,stale_included,stale_discarded,dropped_uploads,\
retried_uploads,rewards_paid_milli,reward_gini";

/// Renders one run's KPI series as CSV (floats in shortest round-trip
/// form; an absent detection rate is an empty cell).
pub fn render_csv(rows: &[RoundRow]) -> String {
    let mut out = String::with_capacity(64 * (rows.len() + 1));
    out.push_str(CSV_HEADER);
    out.push('\n');
    for r in rows {
        let detection = r
            .detection_rate
            .map(|d| format!("{d:?}"))
            .unwrap_or_default();
        out.push_str(&format!(
            "{},{:?},{:?},{},{},{:?},{},{},{},{},{},{},{:?}\n",
            r.round,
            r.accuracy,
            r.train_loss,
            r.participants,
            detection,
            r.kpi.makespan_s,
            r.kpi.mempool_depth_at_seal,
            r.kpi.stale_included,
            r.kpi.stale_discarded,
            r.kpi.dropped_uploads,
            r.kpi.retried_uploads,
            r.rewards_paid_milli,
            r.reward_gini,
        ));
    }
    out
}

/// Directory of a cell's outputs under `out/`.
pub fn cell_dir(out: &Path, cell_index: usize, label: &str) -> PathBuf {
    let sanitized: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '-'
            }
        })
        .collect();
    out.join("cells")
        .join(format!("cell_{cell_index}_{sanitized}"))
}

/// Writes `text` to `path`, creating parent directories.
pub fn write_text(path: &Path, text: &str) -> Result<(), HarnessError> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| io_err(parent, e))?;
    }
    std::fs::write(path, text).map_err(|e| io_err(path, e))
}

/// Serializes `value` as pretty JSON with a trailing newline.
pub fn to_pretty_json<T: Serialize>(value: &T) -> String {
    let mut text =
        serde_json::to_string_pretty(value).expect("harness reports contain only finite floats");
    text.push('\n');
    text
}

/// Writes the outputs of a (possibly sharded) fleet run: `fleet.json`,
/// per-run CSV/JSON series, and — only for the unsharded case — the
/// cross-seed `summary.json` (a shard cannot summarize seeds it does
/// not own; `merge` produces the summary instead).
pub fn write_outputs(
    manifest: &Manifest,
    shard: Shard,
    records: &[RunRecord],
    out: &Path,
) -> Result<(), HarnessError> {
    let fleet = FleetFile::of(manifest);
    write_text(&out.join("fleet.json"), &to_pretty_json(&fleet))?;

    for record in records {
        let dir = cell_dir(out, record.cell_index, &record.cell_label);
        let csv_path = dir.join(format!("seed_{}.csv", record.seed));
        write_text(&csv_path, &render_csv(&record.rows))?;
        let sidecar = RunSidecar {
            name: manifest.name.clone(),
            cell_index: record.cell_index,
            cell_label: record.cell_label.clone(),
            seed: record.seed,
            finals: record.finals,
        };
        let json_path = dir.join(format!("seed_{}.json", record.seed));
        write_text(&json_path, &to_pretty_json(&sidecar))?;
    }

    if shard.count == 1 {
        let summary = summarize_records(&fleet, records);
        write_text(&out.join("summary.json"), &to_pretty_json(&summary))?;
    }
    Ok(())
}

/// The cross-seed summary of an unsharded run's records.
pub fn summarize_records(fleet: &FleetFile, records: &[RunRecord]) -> Summary {
    summarize(fleet, &|cell, seed| {
        records
            .iter()
            .find(|r| r.cell_index == cell && r.seed == seed)
            .expect("unsharded run covers every job")
            .finals
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_parse_accepts_i_slash_n_only() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse("3/4").unwrap(), Shard { index: 3, count: 4 });
        assert!(Shard::parse("2/2").is_err());
        assert!(Shard::parse("1").is_err());
        assert!(Shard::parse("a/2").is_err());
        assert!(Shard::parse("0/0").is_err());
    }

    #[test]
    fn shards_partition_the_job_space() {
        let shards: Vec<Shard> = (0..3).map(|i| Shard { index: i, count: 3 }).collect();
        for g in 0..20 {
            let owners = shards.iter().filter(|s| s.owns(g)).count();
            assert_eq!(owners, 1, "job {g} must have exactly one owner");
        }
    }

    #[test]
    fn a_thread_budget_is_a_worker_count_and_never_changes_the_records() {
        let manifest = Manifest::from_json(include_str!("../../../scenarios/smoke.json"))
            .expect("the smoke manifest is valid");
        // An explicit budget overrides the host limit, so 8 workers are 8
        // workers on a 2-core host too (here: one per job, four jobs).
        let serial = run_fleet(&manifest, Shard::default(), 1).unwrap();
        assert_eq!(serial.len(), manifest.total_runs());
        for threads in [2, 8] {
            let records = run_fleet(&manifest, Shard::default(), threads).unwrap();
            assert_eq!(records, serial, "threads={threads}");
        }
    }

    #[test]
    fn csv_rendering_is_stable_and_header_matches() {
        let rows = vec![RoundRow {
            round: 1,
            accuracy: 0.5,
            train_loss: 1.25,
            participants: 7,
            detection_rate: None,
            kpi: KpiRow {
                makespan_s: 2.5,
                mempool_depth_at_seal: 7,
                stale_included: 0,
                stale_discarded: 1,
                dropped_uploads: 2,
                retried_uploads: 3,
            },
            rewards_paid_milli: 9000,
            reward_gini: 0.125,
        }];
        let csv = render_csv(&rows);
        let mut lines = csv.lines();
        assert_eq!(lines.next().unwrap().split(',').count(), 13);
        assert_eq!(
            lines.next().unwrap(),
            "1,0.5,1.25,7,,2.5,7,0,1,2,3,9000,0.125"
        );
    }

    #[test]
    fn cell_dir_sanitizes_labels() {
        let dir = cell_dir(Path::new("out"), 3, "quota=7/churn on");
        assert_eq!(
            dir,
            Path::new("out")
                .join("cells")
                .join("cell_3_quota-7-churn-on")
        );
    }
}
