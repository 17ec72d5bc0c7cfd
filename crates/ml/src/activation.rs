//! The softmax activation.
//!
//! It deliberately stays scalar under the SIMD tier
//! ([`crate::simd`]): it calls libm's `exp`, whose bit patterns a
//! hand-vectorized polynomial cannot reproduce, and the stabilizing
//! row-max fold uses `f64::max`, whose NaN/±0 semantics differ from
//! `vmaxpd` — either would break the tier's bit-identity contract for a
//! cost that is a rounding error next to the GEMMs feeding it.

/// Numerically stable softmax.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_in_place(&mut out);
    out
}

/// Numerically stable softmax computed in place — the allocation-free
/// form the batched engine applies row-by-row to a logits matrix. The
/// operation sequence matches [`softmax`] exactly, so both paths produce
/// bit-identical probabilities.
pub fn softmax_in_place(values: &mut [f64]) {
    let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mut sum = 0.0;
    for v in values.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    for v in values.iter_mut() {
        *v /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn softmax_matches_known_values() {
        let p = softmax(&[1.0, 1.0, 1.0]);
        for v in &p {
            assert!((v - 1.0 / 3.0).abs() < 1e-12);
        }
        let p = softmax(&[1000.0, 0.0]);
        assert!(p[0] > 0.999_999);
    }

    #[test]
    fn softmax_in_place_is_bit_identical_to_softmax() {
        let logits = [0.3, -1.2, 2.0, 0.0, 17.5];
        let reference = softmax(&logits);
        let mut in_place = logits.to_vec();
        softmax_in_place(&mut in_place);
        for (a, b) in reference.iter().zip(in_place.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    proptest! {
        #[test]
        fn softmax_is_a_distribution(logits in proptest::collection::vec(-50.0f64..50.0, 1..20)) {
            let p = softmax(&logits);
            let sum: f64 = p.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
            prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
        }

        #[test]
        fn softmax_is_shift_invariant(logits in proptest::collection::vec(-20.0f64..20.0, 1..10), shift in -5.0f64..5.0) {
            let shifted: Vec<f64> = logits.iter().map(|v| v + shift).collect();
            let a = softmax(&logits);
            let b = softmax(&shifted);
            for (x, y) in a.iter().zip(b.iter()) {
                prop_assert!((x - y).abs() < 1e-9);
            }
        }
    }
}
