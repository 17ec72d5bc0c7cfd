//! Loss functions.
//!
//! Stays scalar under the PR 10 SIMD tier ([`crate::simd`]): the
//! cross-entropy path is one libm `ln` (plus the softmax's `exp`s) per
//! batch row — not reproducible bit-for-bit by a vector polynomial and
//! negligible next to the logits/gradient GEMMs that surround it.

use crate::activation::softmax;

/// Cross-entropy loss of a softmax distribution against an integer label.
///
/// Takes raw logits; the softmax is computed internally in a numerically
/// stable way. Returns the negative log-likelihood of the true class.
pub fn cross_entropy(logits: &[f64], label: usize) -> f64 {
    debug_assert!(label < logits.len());
    let probs = softmax(logits);
    -(probs[label].max(1e-15)).ln()
}

/// Gradient of the softmax cross-entropy loss with respect to the logits:
/// `softmax(logits) - one_hot(label)`.
pub fn cross_entropy_grad(logits: &[f64], label: usize) -> Vec<f64> {
    debug_assert!(label < logits.len());
    let mut grad = softmax(logits);
    grad[label] -= 1.0;
    grad
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cross_entropy_of_confident_correct_prediction_is_small() {
        let logits = vec![10.0, -10.0, -10.0];
        assert!(cross_entropy(&logits, 0) < 1e-6);
        assert!(cross_entropy(&logits, 1) > 5.0);
    }

    #[test]
    fn uniform_logits_give_log_k() {
        let logits = vec![0.0; 10];
        let loss = cross_entropy(&logits, 3);
        assert!((loss - (10.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn gradient_sums_to_zero() {
        let logits = vec![0.3, -1.2, 2.0, 0.0];
        let g = cross_entropy_grad(&logits, 2);
        let sum: f64 = g.iter().sum();
        assert!(sum.abs() < 1e-12);
        // The true-class entry is negative (prob - 1 < 0).
        assert!(g[2] < 0.0);
    }

    proptest! {
        #[test]
        fn cross_entropy_is_nonnegative(logits in proptest::collection::vec(-20.0f64..20.0, 2..12), idx in 0usize..12) {
            let label = idx % logits.len();
            prop_assert!(cross_entropy(&logits, label) >= 0.0);
        }

        #[test]
        fn gradient_matches_finite_difference(logits in proptest::collection::vec(-3.0f64..3.0, 2..8), idx in 0usize..8) {
            let label = idx % logits.len();
            let g = cross_entropy_grad(&logits, label);
            let eps = 1e-6;
            for i in 0..logits.len() {
                let mut plus = logits.clone();
                plus[i] += eps;
                let mut minus = logits.clone();
                minus[i] -= eps;
                let numeric = (cross_entropy(&plus, label) - cross_entropy(&minus, label)) / (2.0 * eps);
                prop_assert!((numeric - g[i]).abs() < 1e-4, "component {i}: numeric {numeric} vs analytic {}", g[i]);
            }
        }
    }
}
