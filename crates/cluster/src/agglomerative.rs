//! Single-linkage agglomerative clustering, a third backend for Algorithm 2.
//!
//! Starts from singleton clusters and repeatedly merges the closest pair
//! (single linkage: distance between clusters = minimum pairwise distance)
//! until the closest remaining pair is farther than the threshold.

use crate::labels::ClusterLabels;

/// Single-linkage clustering over a precomputed pairwise distance matrix
/// (such as [`distance_matrix_rows`](crate::distance::distance_matrix_rows)'s),
/// merging until the closest pair is farther than `distance_threshold`.
pub fn agglomerative_with_distances(
    distances: &[Vec<f64>],
    distance_threshold: f64,
) -> ClusterLabels {
    let n = distances.len();
    if n == 0 {
        return ClusterLabels::new(Vec::new());
    }
    assert!(distance_threshold >= 0.0, "threshold must be non-negative");

    // Union-find over points.
    let mut parent: Vec<usize> = (0..n).collect();

    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut root = x;
        while parent[root] != root {
            root = parent[root];
        }
        // Path compression.
        let mut current = x;
        while parent[current] != root {
            let next = parent[current];
            parent[current] = root;
            current = next;
        }
        root
    }

    // Candidate merges sorted by distance (single linkage over points is
    // exactly Kruskal's algorithm on the distance graph).
    let mut edges: Vec<(f64, usize, usize)> = Vec::with_capacity(n * (n - 1) / 2);
    for (i, row) in distances.iter().enumerate() {
        for (j, &d) in row.iter().enumerate().skip(i + 1) {
            edges.push((d, i, j));
        }
    }
    edges.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

    for (d, i, j) in edges {
        if d > distance_threshold {
            break;
        }
        let ri = find(&mut parent, i);
        let rj = find(&mut parent, j);
        if ri != rj {
            parent[ri] = rj;
        }
    }

    // Relabel roots densely.
    let mut label_of_root = std::collections::BTreeMap::new();
    let mut assignments = Vec::with_capacity(n);
    for i in 0..n {
        let root = find(&mut parent, i);
        let next_label = label_of_root.len();
        let label = *label_of_root.entry(root).or_insert(next_label);
        assignments.push(Some(label));
    }
    ClusterLabels::new(assignments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::{distance_matrix_rows, DistanceMetric};

    fn agglomerative(vectors: &[Vec<f64>], distance_threshold: f64) -> ClusterLabels {
        let rows: Vec<&[f64]> = vectors.iter().map(Vec::as_slice).collect();
        agglomerative_with_distances(
            &distance_matrix_rows(&rows, DistanceMetric::Cosine),
            distance_threshold,
        )
    }

    fn two_blobs() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 1.0],
            vec![1.05, 0.98],
            vec![0.95, 1.02],
            vec![-1.0, -1.0],
            vec![-1.02, -0.97],
        ]
    }

    #[test]
    fn empty_input_yields_empty_labels() {
        assert!(agglomerative(&[], 0.5).is_empty());
    }

    #[test]
    fn separates_two_blobs() {
        let labels = agglomerative(&two_blobs(), 0.3);
        assert_eq!(labels.cluster_count(), 2);
        assert!(labels.same_cluster(0, 1));
        assert!(labels.same_cluster(0, 2));
        assert!(labels.same_cluster(3, 4));
        assert!(!labels.same_cluster(0, 3));
    }

    #[test]
    fn zero_threshold_keeps_distinct_points_separate() {
        let labels = agglomerative(&two_blobs(), 0.0);
        assert_eq!(labels.cluster_count(), 5);
    }

    #[test]
    fn huge_threshold_merges_everything() {
        let labels = agglomerative(&two_blobs(), 1e9);
        assert_eq!(labels.cluster_count(), 1);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_threshold_panics() {
        let _ = agglomerative(&two_blobs(), -0.1);
    }
}
