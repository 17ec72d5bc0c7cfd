//! # bfl-cluster
//!
//! Clustering substrate for FAIR-BFL's contribution identification
//! (Algorithm 2). The paper clusters the round's gradient set — the
//! uploaded client vectors plus the freshly aggregated global gradient —
//! and treats the cluster containing the global gradient as the
//! "high-contribution" group; everything else is low contribution (and, in
//! practice, mostly forged gradients from malicious clients).
//!
//! "Any suitable clustering algorithm can be used here as needed. However,
//! we use DBSCAN in experiments by default" — so [`mod@dbscan`] is the default,
//! with [`mod@kmeans`] and [`agglomerative`] provided as the alternatives
//! `scenarios/table2_clustering.json` compares.
//!
//! Every backend measures gradients by cosine distance, the metric of
//! Algorithm 2's θ scores and the one [`DistanceMetric`] variant.

#![warn(missing_docs)]

pub mod agglomerative;
pub mod dbscan;
pub mod distance;
pub mod kmeans;
pub mod labels;

pub use dbscan::DbscanConfig;
pub use distance::DistanceMetric;
pub use kmeans::KmeansConfig;
pub use labels::ClusterLabels;

use bfl_ml::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Which clustering algorithm Algorithm 2 should run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ClusteringAlgorithm {
    /// Density-based clustering (the paper's default).
    Dbscan {
        /// Neighbourhood radius ε in the chosen metric.
        eps: f64,
        /// Minimum neighbours (including the point itself) to form a core point.
        min_points: usize,
    },
    /// Lloyd's k-means.
    KMeans {
        /// Number of clusters.
        k: usize,
        /// Maximum Lloyd iterations.
        max_iterations: usize,
    },
    /// Single-linkage agglomerative clustering cut at a distance threshold.
    Agglomerative {
        /// Merge clusters until the closest pair is farther than this.
        distance_threshold: f64,
    },
}

impl ClusteringAlgorithm {
    /// The paper's default: DBSCAN with a cosine-distance neighbourhood.
    pub fn default_dbscan() -> Self {
        ClusteringAlgorithm::Dbscan {
            eps: 0.35,
            min_points: 2,
        }
    }

    /// Checks the parameters the algorithms assert on, so a configuration
    /// fails validation instead of panicking mid-run: DBSCAN needs
    /// `eps > 0` and `min_points >= 1`, k-means `k >= 1`, and
    /// agglomerative clustering a `distance_threshold >= 0`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            ClusteringAlgorithm::Dbscan { eps, .. } if eps.is_nan() || eps <= 0.0 => {
                Err(format!("DBSCAN eps must be positive, got {eps}"))
            }
            ClusteringAlgorithm::Dbscan { min_points: 0, .. } => {
                Err("DBSCAN min_points must be at least 1, got 0".to_string())
            }
            ClusteringAlgorithm::KMeans { k: 0, .. } => {
                Err("k-means k must be at least 1, got 0".to_string())
            }
            ClusteringAlgorithm::Agglomerative { distance_threshold }
                if distance_threshold.is_nan() || distance_threshold < 0.0 =>
            {
                Err(format!(
                    "agglomerative distance_threshold must be non-negative, got {distance_threshold}"
                ))
            }
            _ => Ok(()),
        }
    }

    /// Whether each row lands in the last row's cluster: Algorithm 2's one
    /// question of the clustering, whose last row is the anchor.
    ///
    /// DBSCAN with `min_points <= 2`, the paper's setting, answers it with
    /// [`dbscan::dbscan_anchor_cluster`], a search from the last row that
    /// forms only the distances it tests and no pairwise matrix; every
    /// other configuration reads the answer off [`Self::run_rows`]'s labels.
    /// Either way entry `i` is `run_rows(..).same_cluster(i, last)`.
    pub fn anchor_cluster(&self, rows: &[&[f64]], metric: DistanceMetric) -> Vec<bool> {
        match *self {
            ClusteringAlgorithm::Dbscan {
                eps,
                min_points: min_points @ (1 | 2),
            } => dbscan::dbscan_anchor_cluster(
                rows,
                &dbscan::DbscanConfig {
                    eps,
                    min_points,
                    metric,
                },
            ),
            _ => {
                let labels = self.run_rows(rows, metric);
                let last = rows.len().saturating_sub(1);
                (0..rows.len())
                    .map(|i| labels.same_cluster(i, last))
                    .collect()
            }
        }
    }

    /// Runs the selected algorithm over borrowed rows, such as the round's
    /// uploads plus the anchor row where they already live, returning
    /// per-row cluster labels. DBSCAN and agglomerative clustering consume
    /// [`distance::distance_matrix_rows`]'s pairwise matrix; k-means packs
    /// the rows once for its per-iteration assignment GEMMs.
    pub fn run_rows(&self, rows: &[&[f64]], metric: DistanceMetric) -> ClusterLabels {
        if rows.is_empty() {
            return ClusterLabels::new(Vec::new());
        }
        match *self {
            ClusteringAlgorithm::Dbscan { eps, min_points } => dbscan::dbscan_with_distances(
                &distance::distance_matrix_rows(rows, metric),
                &dbscan::DbscanConfig {
                    eps,
                    min_points,
                    metric,
                },
            ),
            ClusteringAlgorithm::KMeans { k, max_iterations } => kmeans::kmeans_packed(
                &Matrix::from_rows(rows),
                &kmeans::KmeansConfig {
                    k,
                    max_iterations,
                    metric,
                    seed: 0x5eed,
                },
            ),
            ClusteringAlgorithm::Agglomerative { distance_threshold } => {
                agglomerative::agglomerative_with_distances(
                    &distance::distance_matrix_rows(rows, metric),
                    distance_threshold,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..5 {
            let t = i as f64 * 0.01;
            v.push(vec![1.0 + t, 1.0 - t]);
        }
        for i in 0..5 {
            let t = i as f64 * 0.01;
            v.push(vec![-1.0 - t, -1.0 + t]);
        }
        v
    }

    #[test]
    fn all_algorithms_separate_two_blobs() {
        let data = blobs();
        let rows: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        for algorithm in [
            ClusteringAlgorithm::default_dbscan(),
            ClusteringAlgorithm::KMeans {
                k: 2,
                max_iterations: 50,
            },
            ClusteringAlgorithm::Agglomerative {
                distance_threshold: 0.5,
            },
        ] {
            let labels = algorithm.run_rows(&rows, DistanceMetric::Cosine);
            assert!(
                labels.same_cluster(0, 4),
                "{algorithm:?}: first blob should be one cluster"
            );
            assert!(
                labels.same_cluster(5, 9),
                "{algorithm:?}: second blob should be one cluster"
            );
            assert!(
                !labels.same_cluster(0, 5),
                "{algorithm:?}: the blobs should be separate"
            );
        }
    }

    #[test]
    fn every_algorithm_answers_the_anchor_question_as_its_labels_do() {
        // The two blobs, one far point, and an anchor on the first blob.
        let mut data = blobs();
        data.push(vec![1.0, -1.0]);
        data.push(vec![1.0, 1.0]);
        let rows: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let last = rows.len() - 1;
        for algorithm in [
            ClusteringAlgorithm::default_dbscan(),
            ClusteringAlgorithm::Dbscan {
                eps: 0.35,
                min_points: 1,
            },
            ClusteringAlgorithm::Dbscan {
                eps: 0.35,
                min_points: 3,
            },
            ClusteringAlgorithm::KMeans {
                k: 2,
                max_iterations: 50,
            },
            ClusteringAlgorithm::Agglomerative {
                distance_threshold: 0.5,
            },
        ] {
            let labels = algorithm.run_rows(&rows, DistanceMetric::Cosine);
            let want: Vec<bool> = (0..rows.len())
                .map(|i| labels.same_cluster(i, last))
                .collect();
            let got = algorithm.anchor_cluster(&rows, DistanceMetric::Cosine);
            assert_eq!(got, want, "{algorithm:?}");
            assert!(got[..5].iter().all(|&high| high), "{algorithm:?}");
            assert!(!got[5..10].contains(&true), "{algorithm:?}");
        }
        assert!(ClusteringAlgorithm::default_dbscan()
            .anchor_cluster(&[], DistanceMetric::Cosine)
            .is_empty());
    }

    #[test]
    fn default_dbscan_parameters() {
        match ClusteringAlgorithm::default_dbscan() {
            ClusteringAlgorithm::Dbscan { eps, min_points } => {
                assert!(eps > 0.0 && eps < 1.0);
                assert!(min_points >= 2);
            }
            other => panic!("unexpected default {other:?}"),
        }
    }
}
