//! Parameter initialization schemes.

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
/// a `gen_range` over `f64` consumes (`vendor/rand`'s `unit_f64`). The
/// adopting model constructors call this where `new` calls
/// [`xavier_uniform`], so whatever draws from `rng` next sees the same
/// stream either way. (The loop steps the xoshiro256++ state once per
/// weight: 9–11 µs at the paper's 7840 weights on one 2 GHz Xeon core,
/// about a quarter of a `pop1m_streaming`-shaped local pass. Multiplying
/// the state by xⁿ modulo the generator's characteristic polynomial would
/// reach the same state in a few polynomial steps; that jump is not
/// implemented.)
pub(crate) fn skip_xavier_uniform<R: Rng + ?Sized>(rng: &mut R, fan_in: usize, fan_out: usize) {
    for _ in 0..fan_in * fan_out {
        rng.next_u64();
    }
}

/// Zero initialization of `len` parameters (used for biases).
pub fn zeros(len: usize) -> Vec<f64> {
    vec![0.0; len]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
