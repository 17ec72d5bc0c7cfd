//! Parameter initialization schemes.

use rand::rngs::StdRng;
use rand::Rng;

/// Uniform Xavier/Glorot initialization for a layer with the given fan-in
/// and fan-out: samples from `U(-limit, limit)` with
/// `limit = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) -> Vec<f64> {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    (0..fan_in * fan_out)
        .map(|_| rng.gen_range(-limit..limit))
        .collect()
}

/// Advances `rng` past exactly the draws [`xavier_uniform`] makes for the
/// same layer, producing nothing: one `next_u64` per weight, which is what
/// a `gen_range` over `f64` consumes (`vendor/rand`'s `unit_f64`). A
/// local pass's skip of the model it never builds calls this where `new`
/// calls [`xavier_uniform`], so whatever draws from `rng` next sees the
/// same stream either way. The draws are not stepped through one by one:
/// `StdRng::discard` (the vendored `rand`'s one addition to upstream's
/// API) multiplies the xoshiro256++ state by the transition matrices of
/// the powers of two that sum to the layer's size, six at the paper's
/// 7,840 weights: 0.75–1.15 µs, seeding included, where stepping took
/// 7.4–9.0 µs (one 2 GHz x86-64 core). The matrices live in static
/// storage, each built once per process by one squaring.
pub(crate) fn skip_xavier_uniform(rng: &mut StdRng, fan_in: usize, fan_out: usize) {
    rng.discard((fan_in * fan_out) as u64);
}

/// Zero initialization of `len` parameters (used for biases).
pub fn zeros(len: usize) -> Vec<f64> {
    vec![0.0; len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    /// The oracle of [`skip_xavier_uniform`]: one step per skipped draw.
    fn step_through(rng: &mut StdRng, draws: u64) {
        for _ in 0..draws {
            rng.next_u64();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The jump against stepping, at lengths on both sides of each
        /// word and byte of the exponent, the paper's layer (784 × 10)
        /// and its parameter count, and one past 2¹⁶, one after another
        /// from one seed, so nine distinct lengths share the power table.
        /// The next three outputs must agree, not only the states.
        #[test]
        fn the_jump_lands_where_stepping_does(seed in any::<u64>()) {
            for draws in [0u64, 1, 63, 64, 255, 256, 7_840, 7_850, 65_537] {
                let mut jumped = StdRng::seed_from_u64(seed);
                jumped.discard(draws);
                let mut stepped = StdRng::seed_from_u64(seed);
                step_through(&mut stepped, draws);
                for _ in 0..3 {
                    prop_assert_eq!(jumped.next_u64(), stepped.next_u64(), "{} draws", draws);
                }
            }
        }
    }

    #[test]
    fn skipping_a_layer_skips_its_draws() {
        let mut skipped = StdRng::seed_from_u64(11);
        skip_xavier_uniform(&mut skipped, 784, 10);
        let mut sampled = StdRng::seed_from_u64(11);
        let _ = xavier_uniform(&mut sampled, 784, 10);
        assert_eq!(skipped, sampled);
    }

    #[test]
    fn xavier_respects_limit_and_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = xavier_uniform(&mut rng, 100, 50);
        assert_eq!(w.len(), 5000);
        let limit = (6.0f64 / 150.0).sqrt();
        assert!(w.iter().all(|&v| v.abs() <= limit));
        // Not all identical.
        assert!(w.iter().any(|&v| (v - w[0]).abs() > 1e-12));
    }

    #[test]
    fn zeros_are_zero() {
        assert!(zeros(16).iter().all(|&v| v == 0.0));
        assert_eq!(zeros(0).len(), 0);
    }

    #[test]
    fn seeded_initialization_is_deterministic() {
        let a = xavier_uniform(&mut StdRng::seed_from_u64(7), 10, 10);
        let b = xavier_uniform(&mut StdRng::seed_from_u64(7), 10, 10);
        assert_eq!(a, b);
    }
}
