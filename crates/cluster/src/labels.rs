//! Cluster label assignments returned by every algorithm in this crate.

use serde::{Deserialize, Serialize};

/// Per-point cluster assignment. `Some(id)` is membership in cluster `id`,
/// `None` marks a noise/outlier point (only DBSCAN produces those).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterLabels {
    assignments: Vec<Option<usize>>,
}

impl ClusterLabels {
    /// Wraps raw assignments.
    pub fn new(assignments: Vec<Option<usize>>) -> Self {
        ClusterLabels { assignments }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// True when there are no points.
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty()
    }

    /// Cluster of point `i` (`None` = noise).
    pub fn cluster_of(&self, i: usize) -> Option<usize> {
        self.assignments.get(i).copied().flatten()
    }

    /// True when points `i` and `j` are in the same (non-noise) cluster.
    pub fn same_cluster(&self, i: usize, j: usize) -> bool {
        match (self.cluster_of(i), self.cluster_of(j)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// Number of distinct (non-noise) clusters.
    #[cfg(test)]
    pub fn cluster_count(&self) -> usize {
        let mut ids: Vec<usize> = self.assignments.iter().filter_map(|c| *c).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Raw assignment slice.
    pub fn as_slice(&self) -> &[Option<usize>] {
        &self.assignments
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labels() -> ClusterLabels {
        ClusterLabels::new(vec![Some(0), Some(0), Some(1), None, Some(1)])
    }

    #[test]
    fn accessors_work() {
        let l = labels();
        assert_eq!(l.len(), 5);
        assert!(!l.is_empty());
        assert_eq!(l.cluster_of(0), Some(0));
        assert_eq!(l.cluster_of(3), None);
        assert_eq!(l.cluster_of(99), None);
        assert_eq!(l.cluster_count(), 2);
        assert_eq!(l.as_slice(), &[Some(0), Some(0), Some(1), None, Some(1)]);
    }

    #[test]
    fn same_cluster_semantics() {
        let l = labels();
        assert!(l.same_cluster(0, 1));
        assert!(l.same_cluster(2, 4));
        assert!(!l.same_cluster(0, 2));
        // Noise points are never in the same cluster as anything, including themselves.
        assert!(!l.same_cluster(3, 3));
        assert!(!l.same_cluster(3, 0));
    }
}
