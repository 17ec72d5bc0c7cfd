//! Feature/label containers and splits.

use bfl_ml::tensor::Matrix;
use serde::{Deserialize, Serialize};

/// A labelled classification dataset: one feature row per sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Feature matrix, one row per sample.
    pub features: Matrix,
    /// Integer class label per sample (same order as `features` rows).
    pub labels: Vec<usize>,
    /// Number of distinct classes.
    pub classes: usize,
}

impl Dataset {
    /// Creates a dataset, checking that features and labels line up.
    pub fn new(features: Matrix, labels: Vec<usize>, classes: usize) -> Self {
        assert_eq!(
            features.rows,
            labels.len(),
            "feature rows and labels must have equal length"
        );
        assert!(
            labels.iter().all(|&l| l < classes),
            "labels must be smaller than the class count"
        );
        Dataset {
            features,
            labels,
            classes,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Feature dimensionality.
    pub fn feature_count(&self) -> usize {
        self.features.cols
    }

    /// Builds a new dataset containing only the selected rows (in order).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        Dataset {
            features: self.features.select_rows(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            classes: self.classes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        let features = Matrix::from_rows(&[
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.5, 0.5],
            vec![0.9, 0.1],
        ]);
        Dataset::new(features, vec![0, 1, 0, 1], 2)
    }

    #[test]
    fn construction_and_accessors() {
        let d = small();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.feature_count(), 2);
        assert_eq!(d.labels, vec![0, 1, 0, 1]);
        assert_eq!(d.classes, 2);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let features = Matrix::from_rows(&[vec![0.0]]);
        let _ = Dataset::new(features, vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "smaller than the class count")]
    fn out_of_range_label_panics() {
        let features = Matrix::from_rows(&[vec![0.0]]);
        let _ = Dataset::new(features, vec![5], 2);
    }

    #[test]
    fn subset_selects_and_reorders() {
        let d = small();
        let s = d.subset(&[3, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.labels, vec![1, 0]);
        assert_eq!(s.features.row(0), &[0.9, 0.1]);
    }
}
