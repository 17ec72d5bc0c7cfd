//! DBSCAN — density-based spatial clustering, the default algorithm of
//! FAIR-BFL's contribution identification.
//!
//! The implementation is the textbook region-growing formulation over a
//! precomputed pairwise distance matrix, which is exactly right for the
//! problem sizes Algorithm 2 encounters (tens to a few hundred gradient
//! vectors per round).

use crate::distance::{distance_matrix, DistanceMetric};
use crate::labels::ClusterLabels;
use std::collections::VecDeque;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanConfig {
    /// Neighbourhood radius ε.
    pub eps: f64,
    /// Minimum number of neighbours (including the point itself) required
    /// for a point to be a core point.
    pub min_points: usize,
    /// Distance metric.
    pub metric: DistanceMetric,
}

impl Default for DbscanConfig {
    fn default() -> Self {
        DbscanConfig {
            eps: 0.35,
            min_points: 2,
            metric: DistanceMetric::Cosine,
        }
    }
}

/// Runs DBSCAN over `vectors`, returning cluster labels (noise = `None`).
pub fn dbscan(vectors: &[Vec<f64>], config: &DbscanConfig) -> ClusterLabels {
    if vectors.is_empty() {
        return ClusterLabels::new(Vec::new());
    }
    dbscan_with_distances(&distance_matrix(vectors, config.metric), config)
}

/// DBSCAN over a precomputed pairwise distance matrix — the algorithm
/// only ever consumes distances, so callers that already hold the shared
/// Gram-derived matrix (Algorithm 2) skip recomputing it.
pub fn dbscan_with_distances(distances: &[Vec<f64>], config: &DbscanConfig) -> ClusterLabels {
    let n = distances.len();
    if n == 0 {
        return ClusterLabels::new(Vec::new());
    }
    assert!(config.eps > 0.0, "eps must be positive");
    assert!(config.min_points >= 1, "min_points must be at least 1");

    // ε-neighbourhoods in compressed-row form: point `i`'s neighbours are
    // `neighbours[offsets[i]..offsets[i + 1]]`, ascending. A counting pass
    // sizes both vectors up front, so the lists cost two allocations
    // however large the committee is.
    let within = |i: usize| {
        distances[i]
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d <= config.eps)
            .map(|(j, _)| j)
    };
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    for i in 0..n {
        offsets.push(offsets[i] + within(i).count());
    }
    let mut neighbours = Vec::with_capacity(offsets[n]);
    for i in 0..n {
        neighbours.extend(within(i));
    }
    let neighbourhood = |i: usize| &neighbours[offsets[i]..offsets[i + 1]];

    let mut assignments: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut next_cluster = 0usize;
    let mut queue: VecDeque<usize> = VecDeque::new();

    for point in 0..n {
        if visited[point] {
            continue;
        }
        visited[point] = true;
        if neighbourhood(point).len() < config.min_points {
            // Provisionally noise; may later be absorbed as a border point.
            continue;
        }
        // Start a new cluster and grow it breadth-first.
        let cluster = next_cluster;
        next_cluster += 1;
        assignments[point] = Some(cluster);
        queue.extend(neighbourhood(point));
        while let Some(candidate) = queue.pop_front() {
            if assignments[candidate].is_none() {
                assignments[candidate] = Some(cluster);
            }
            if !visited[candidate] {
                visited[candidate] = true;
                if neighbourhood(candidate).len() >= config.min_points {
                    queue.extend(neighbourhood(candidate));
                }
            }
        }
    }

    ClusterLabels::new(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..6 {
            v.push(vec![1.0 + i as f64 * 0.02, 1.0]);
        }
        for i in 0..6 {
            v.push(vec![-1.0, -1.0 - i as f64 * 0.02]);
        }
        v
    }

    #[test]
    fn empty_input_yields_empty_labels() {
        let labels = dbscan(&[], &DbscanConfig::default());
        assert!(labels.is_empty());
    }

    #[test]
    fn two_blobs_form_two_clusters() {
        let labels = dbscan(&two_blobs(), &DbscanConfig::default());
        assert_eq!(labels.cluster_count(), 2);
        assert!(labels.same_cluster(0, 5));
        assert!(labels.same_cluster(6, 11));
        assert!(!labels.same_cluster(0, 6));
        assert!(labels.as_slice().iter().all(Option::is_some));
    }

    #[test]
    fn an_outlier_is_marked_as_noise() {
        let mut data = two_blobs();
        // A vector orthogonal to both blobs, far from everything in cosine terms.
        data.push(vec![1.0, -1.0]);
        let labels = dbscan(
            &data,
            &DbscanConfig {
                eps: 0.2,
                min_points: 2,
                metric: DistanceMetric::Cosine,
            },
        );
        assert_eq!(labels.cluster_of(12), None, "outlier should be noise");
        assert_eq!(labels.cluster_count(), 2);
    }

    #[test]
    fn min_points_larger_than_any_neighbourhood_gives_all_noise() {
        let labels = dbscan(
            &two_blobs(),
            &DbscanConfig {
                eps: 0.01,
                min_points: 10,
                metric: DistanceMetric::Cosine,
            },
        );
        assert_eq!(labels.cluster_count(), 0);
        assert_eq!(labels.len(), 12);
        assert!(labels.as_slice().iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn non_positive_eps_panics() {
        let _ = dbscan(
            &two_blobs(),
            &DbscanConfig {
                eps: 0.0,
                min_points: 2,
                metric: DistanceMetric::Cosine,
            },
        );
    }

    /// The textbook formulation with one growable neighbour list per
    /// point — what `dbscan_with_distances` ran before the lists moved
    /// into compressed-row form. Labels must not have changed.
    fn dbscan_with_neighbour_lists(distances: &[Vec<f64>], config: &DbscanConfig) -> ClusterLabels {
        let n = distances.len();
        let neighbourhoods: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).filter(|&j| distances[i][j] <= config.eps).collect())
            .collect();
        let mut assignments: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut next_cluster = 0usize;
        for point in 0..n {
            if visited[point] {
                continue;
            }
            visited[point] = true;
            if neighbourhoods[point].len() < config.min_points {
                continue;
            }
            let cluster = next_cluster;
            next_cluster += 1;
            assignments[point] = Some(cluster);
            let mut queue: VecDeque<usize> = neighbourhoods[point].iter().copied().collect();
            while let Some(candidate) = queue.pop_front() {
                if assignments[candidate].is_none() {
                    assignments[candidate] = Some(cluster);
                }
                if !visited[candidate] {
                    visited[candidate] = true;
                    if neighbourhoods[candidate].len() >= config.min_points {
                        queue.extend(neighbourhoods[candidate].iter().copied());
                    }
                }
            }
        }
        ClusterLabels::new(assignments)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn compressed_neighbourhoods_leave_every_label_unchanged(
            n in 1usize..40,
            eps in 0.05f64..1.5,
            min_points in 1usize..5,
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            };
            let data: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next()]).collect();
            let config = DbscanConfig { eps, min_points, metric: DistanceMetric::Cosine };
            let distances = distance_matrix(&data, config.metric);
            prop_assert_eq!(
                dbscan_with_distances(&distances, &config),
                dbscan_with_neighbour_lists(&distances, &config)
            );
        }

        #[test]
        fn labels_cover_every_point(n in 1usize..30, eps in 0.05f64..1.5, seed in any::<u64>()) {
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            };
            let data: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next(), next()]).collect();
            let labels = dbscan(&data, &DbscanConfig { eps, min_points: 2, metric: DistanceMetric::Cosine });
            prop_assert_eq!(labels.len(), n);
            // Every point is either in a cluster or noise; cluster ids are dense from 0.
            let count = labels.cluster_count();
            for i in 0..n {
                if let Some(c) = labels.cluster_of(i) {
                    prop_assert!(c < count);
                }
            }
        }

        #[test]
        fn identical_points_always_cluster_together(copies in 2usize..10) {
            let data: Vec<Vec<f64>> = (0..copies).map(|_| vec![1.0, 2.0, 3.0]).collect();
            let labels = dbscan(&data, &DbscanConfig::default());
            prop_assert_eq!(labels.cluster_count(), 1);
            for i in 1..copies {
                prop_assert!(labels.same_cluster(0, i));
            }
        }
    }
}
