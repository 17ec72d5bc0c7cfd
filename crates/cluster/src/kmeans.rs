//! Lloyd's k-means, an alternative clustering backend for Algorithm 2.

use crate::distance::{cross_distance_matrix_packed, DistanceMetric};
use crate::labels::ClusterLabels;
use bfl_ml::tensor::Matrix;

/// k-means parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmeansConfig {
    /// Number of clusters.
    pub k: usize,
    /// Maximum number of Lloyd iterations.
    pub max_iterations: usize,
    /// Metric used for the assignment step (cosine, the only one;
    /// centroids are arithmetic means, as in spherical k-means).
    pub metric: DistanceMetric,
    /// Seed of the deterministic centroid initialization.
    pub seed: u64,
}

impl Default for KmeansConfig {
    fn default() -> Self {
        KmeansConfig {
            k: 2,
            max_iterations: 100,
            metric: DistanceMetric::Cosine,
            seed: 0x5eed,
        }
    }
}

/// Deterministic splitmix64, used to pick initial centroids without pulling
/// a full RNG dependency into the hot path.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Runs k-means over a packed row-major point set. If there are fewer
/// points than `k`, each point gets its own cluster. The assignment step
/// computes all point-to-centroid distances with one rectangular
/// Gram GEMM per Lloyd iteration instead of `n·k` vector traversals.
pub fn kmeans_packed(points: &Matrix, config: &KmeansConfig) -> ClusterLabels {
    let n = points.rows;
    if n == 0 {
        return ClusterLabels::new(Vec::new());
    }
    assert!(config.k >= 1, "k must be at least 1");
    let k = config.k.min(n);
    let dim = points.cols;

    // Initialize centroids with distinct random points (Forgy).
    let mut state = config.seed;
    let mut chosen: Vec<usize> = Vec::with_capacity(k);
    while chosen.len() < k {
        let candidate = (splitmix64(&mut state) % n as u64) as usize;
        if !chosen.contains(&candidate) {
            chosen.push(candidate);
        }
    }
    let mut centroids = Matrix::zeros(k, dim);
    for (c, &i) in chosen.iter().enumerate() {
        centroids.row_mut(c).copy_from_slice(points.row(i));
    }
    let mut assignments = vec![0usize; n];

    for _ in 0..config.max_iterations.max(1) {
        // Assignment step.
        let mut changed = false;
        let distances = cross_distance_matrix_packed(points, &centroids, config.metric);
        for (i, row) in distances.iter().enumerate() {
            let mut best = 0usize;
            let mut best_distance = f64::INFINITY;
            for (c, &d) in row.iter().enumerate() {
                if d < best_distance {
                    best_distance = d;
                    best = c;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }

        // Update step.
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, &c) in assignments.iter().enumerate() {
            counts[c] += 1;
            for (s, x) in sums[c].iter_mut().zip(points.row(i).iter()) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster with a random point.
                let pick = (splitmix64(&mut state) % n as u64) as usize;
                centroids.row_mut(c).copy_from_slice(points.row(pick));
                continue;
            }
            for s in sums[c].iter_mut() {
                *s /= counts[c] as f64;
            }
            centroids.row_mut(c).copy_from_slice(&sums[c]);
        }

        if !changed {
            break;
        }
    }

    ClusterLabels::new(assignments.into_iter().map(Some).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kmeans(vectors: &[Vec<f64>], config: &KmeansConfig) -> ClusterLabels {
        kmeans_packed(&Matrix::from_rows(vectors), config)
    }

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..8 {
            v.push(vec![2.0 + (i as f64) * 0.01, 2.0]);
            v.push(vec![-2.0, -2.0 - (i as f64) * 0.01]);
        }
        v
    }

    #[test]
    fn empty_input_yields_empty_labels() {
        assert!(kmeans(&[], &KmeansConfig::default()).is_empty());
    }

    #[test]
    fn separates_two_blobs() {
        let labels = kmeans(
            &two_blobs(),
            &KmeansConfig {
                k: 2,
                ..Default::default()
            },
        );
        assert_eq!(labels.cluster_count(), 2);
        // Even indices are blob A, odd indices blob B.
        assert!(labels.same_cluster(0, 2));
        assert!(labels.same_cluster(1, 3));
        assert!(!labels.same_cluster(0, 1));
        assert!(labels.as_slice().iter().all(Option::is_some));
    }

    #[test]
    fn k_larger_than_points_gives_one_cluster_per_point() {
        let data = vec![vec![1.0], vec![2.0], vec![3.0]];
        let labels = kmeans(
            &data,
            &KmeansConfig {
                k: 10,
                ..Default::default()
            },
        );
        assert_eq!(labels.len(), 3);
        assert!(labels.cluster_count() >= 1);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let data = two_blobs();
        let config = KmeansConfig {
            k: 2,
            ..Default::default()
        };
        assert_eq!(kmeans(&data, &config), kmeans(&data, &config));
    }

    #[test]
    fn single_cluster_when_k_is_one() {
        let labels = kmeans(
            &two_blobs(),
            &KmeansConfig {
                k: 1,
                ..Default::default()
            },
        );
        assert_eq!(labels.cluster_count(), 1);
    }
}
