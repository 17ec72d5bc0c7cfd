//! The reproduction ledger's directions, asserted: every claim
//! `REPRODUCTION.md` marks as *holding* is re-derived here from a fresh
//! run of its manifest, so the ledger cannot rot. Paper scale, three to
//! five seeds a cell — about two minutes in release, hence `#[ignore]`;
//! CI runs `cargo test --release -p bfl-harness --test reproduction --
//! --ignored`.

use bfl_harness::runner::{summarize_records, FleetFile};
use bfl_harness::{run_fleet, CellSummary, Manifest, Shard, Summary};

/// Runs `scenarios/<name>.json` and indexes its cells by label.
struct Fleet(Summary);

impl Fleet {
    fn run(name: &str) -> Fleet {
        let path = format!("{}/../../scenarios/{name}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let manifest = Manifest::from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
        let records = run_fleet(&manifest, Shard::default(), 0).expect("the fleet runs");
        Fleet(summarize_records(&FleetFile::of(&manifest), &records))
    }

    fn cell(&self, label: &str) -> &CellSummary {
        let found = self.0.cells.iter().find(|c| c.label == label);
        found.unwrap_or_else(|| panic!("{} has no cell `{label}`", self.0.name))
    }

    /// Cross-seed mean of the per-round delay, in simulated seconds.
    fn delay(&self, label: &str) -> f64 {
        self.cell(label).makespan_s.mean / self.cell(label).rounds as f64
    }

    /// [`delay`](Self::delay) along an axis: one value per `labels` entry.
    fn delays(&self, labels: impl Iterator<Item = String>) -> Vec<f64> {
        labels.map(|label| self.delay(&label)).collect()
    }

    /// Cross-seed mean of the final accuracy.
    fn accuracy(&self, label: &str) -> f64 {
        let stats = self.cell(label).final_accuracy;
        stats
            .unwrap_or_else(|| panic!("`{label}` trains a model"))
            .mean
    }
}

fn increasing(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] < w[1])
}

#[test]
#[ignore = "paper scale: about a minute in release"]
fn figure_4_fedavg_is_the_cheapest_learner_and_fair_is_no_less_accurate() {
    let f = Fleet::run("fig4");
    assert!(f.delay("fedavg") < f.delay("fair"));
    for baseline in ["fedavg", "fedprox"] {
        assert!(
            f.accuracy("fair") >= f.accuracy(baseline) - 0.01,
            "{baseline}"
        );
    }
    assert!(f.cell("blockchain").final_accuracy.is_none());
    assert!(f.0.cells.iter().all(|c| c.detection_rate.is_none()));
}

#[test]
#[ignore = "paper scale: about a minute in release"]
fn figure_5_the_learning_rate_moves_accuracy_not_delay() {
    let f = Fleet::run("fig5");
    for system in ["fair", "fedavg", "fedprox"] {
        let at = |lr: &str| format!("lr-{lr}/{system}");
        for lr in ["0.05", "0.10", "0.15", "0.20"] {
            let moved = f.delay(&at(lr)) - f.delay(&at("0.01"));
            assert!(moved.abs() < 0.01, "{system} at {lr}: delay moved {moved}");
        }
        assert!(
            f.accuracy(&at("0.20")) >= f.accuracy(&at("0.01")),
            "{system}"
        );
    }
}

#[test]
#[ignore = "paper scale: about two minutes in release"]
fn figure_6_delay_against_workers_and_miners() {
    let f = Fleet::run("fig6_workers");
    let along = |system: &str, from: usize| {
        f.delays((from..=120).step_by(20).map(|n| format!("n-{n}/{system}")))
    };
    assert!(increasing(&along("blockchain", 20)));
    // The training set is fixed, so a small population trains longer per
    // client: the learners grow from 60 workers on, not from 20.
    assert!(increasing(&along("fair", 60)), "{:?}", along("fair", 20));
    assert!(
        increasing(&along("fedavg", 60)),
        "{:?}",
        along("fedavg", 20)
    );

    let f = Fleet::run("fig6_miners");
    let along = |system: &str| f.delays((2..=10).step_by(2).map(|m| format!("m-{m}/{system}")));
    let (chain, fair) = (along("blockchain"), along("fair"));
    assert!(increasing(&chain) && chain[4] > 2.0 * chain[0], "{chain:?}");
    let (lo, hi) = fair
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &d| (lo.min(d), hi.max(d)));
    assert!(hi / lo < 1.10, "FAIR should stay flat: {fair:?}");
    assert!(
        fair[3] < chain[3] && fair[4] < chain[4],
        "{fair:?} {chain:?}"
    );
}

#[test]
#[ignore = "paper scale: about a minute in release"]
fn figure_7_discard_costs_nothing_without_attackers() {
    let f = Fleet::run("fig7");
    assert_eq!(f.delay("fair-discard"), f.delay("fair"));
    assert_eq!(f.accuracy("fair-discard"), f.accuracy("fair"));
}

#[test]
#[ignore = "120 small runs: seconds in release"]
fn table_2_discard_detects_forgers_under_both_distributions() {
    let f = Fleet::run("table2_attack");
    let keeps: Vec<_> =
        f.0.cells
            .iter()
            .filter(|c| c.label.ends_with("/keep"))
            .collect();
    assert_eq!(keeps.len(), 12);
    for keep in keeps {
        let label = keep.label.replace("/keep", "/discard");
        let discard = f.cell(&label);
        let caught = discard.detection_rate.expect("attackers are injected").mean;
        assert!(caught >= 0.5, "{label}: {caught}");
        // Keeping everyone drops no forger — a measured zero, not an absent one.
        assert_eq!(
            keep.detection_rate.expect("attackers are injected").mean,
            0.0
        );
        // Dropped uploads shorten the round: under attack, discard is faster.
        assert!(discard.makespan_s.mean < keep.makespan_s.mean, "{label}");
    }
}
