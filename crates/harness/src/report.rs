//! `bflharness report`: a fleet's `summary.json` as one markdown table.
//!
//! Every fleet — a paper figure, Table 2, a fault grid — renders through
//! the same five columns, each a mean ± sample standard deviation over
//! the cell's seeds. A metric that does not apply to a cell (accuracy of
//! a chain-only run, detection without attackers) prints `-`.

use crate::runner::Summary;
use crate::stats::Stats;

const COLUMNS: [&str; 5] = [
    "cell",
    "mean round delay (s)",
    "final accuracy",
    "detection rate",
    "reward Gini",
];

/// Renders `summary` as a markdown table, one row per cell.
pub fn render(summary: &Summary) -> String {
    let cell = |stats: Option<Stats>, scale: f64, decimals: usize| match stats {
        Some(s) => format!(
            "{:.decimals$} ± {:.decimals$}",
            s.mean * scale,
            s.stddev * scale
        ),
        None => "-".to_string(),
    };
    let mut out = format!(
        "### {} — mean ± sd over {} seeds\n\n| {} |\n|{}\n",
        summary.name,
        summary.seeds.len(),
        COLUMNS.join(" | "),
        "---|".repeat(COLUMNS.len()),
    );
    for c in &summary.cells {
        let row = [
            c.label.clone(),
            cell(Some(c.makespan_s), 1.0 / c.rounds as f64, 2),
            cell(c.final_accuracy, 1.0, 3),
            cell(c.detection_rate, 1.0, 3),
            cell(Some(c.reward_gini), 1.0, 3),
        ];
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{summarize, FinalMetrics, FleetFile};

    fn summary_of(cells: usize) -> Summary {
        let fleet = FleetFile {
            name: "t".to_string(),
            cells: (0..cells).map(|i| format!("cell-{i}")).collect(),
            seeds: vec![1, 2, 3],
        };
        // Even cells are chain-only and attack-free: no accuracy, no detection.
        summarize(&fleet, &|cell, seed| FinalMetrics {
            rounds: 4,
            final_accuracy: (cell % 2 == 1).then_some(0.5 + seed as f64 / 100.0),
            detection_rate: (cell % 2 == 1).then_some(0.75),
            makespan_s: 10.0 + seed as f64,
            reward_gini: 0.125,
        })
    }

    #[test]
    fn every_line_of_the_table_has_the_same_column_count() {
        for cells in [1, 12] {
            let text = render(&summary_of(cells));
            let table: Vec<&str> = text.lines().filter(|l| l.starts_with('|')).collect();
            assert_eq!(
                table.len(),
                cells + 2,
                "header, separator and one row a cell"
            );
            for line in &table {
                assert_eq!(line.matches('|').count(), COLUMNS.len() + 1, "{line}");
            }
        }
    }

    #[test]
    fn absent_metrics_print_a_dash_and_present_ones_mean_and_spread() {
        let text = render(&summary_of(2));
        let rows: Vec<&str> = text.lines().filter(|l| l.starts_with("| cell-")).collect();
        assert_eq!(rows[0], "| cell-0 | 3.00 ± 0.25 | - | - | 0.125 ± 0.000 |");
        assert_eq!(
            rows[1],
            "| cell-1 | 3.00 ± 0.25 | 0.520 ± 0.010 | 0.750 ± 0.000 | 0.125 ± 0.000 |"
        );
    }
}
