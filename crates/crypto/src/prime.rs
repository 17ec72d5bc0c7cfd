//! Probabilistic primality testing and random prime generation.
//!
//! RSA key generation ([`crate::rsa`]) requires two random primes of half
//! the modulus size. This module provides Miller-Rabin testing with a
//! configurable number of witness rounds, plus helpers to draw uniformly
//! random [`BigUint`] values of a given bit length or below a bound.

use crate::bigint::BigUint;
use crate::error::CryptoError;
use crate::montgomery::{MontWorkspace, MontgomeryCtx};
use rand::Rng;
use std::sync::OnceLock;

/// Number of Miller-Rabin rounds used by default for *arbitrary*
/// candidates (worst-case bound 4^-24). Randomly *generated* candidates
/// get away with far fewer rounds — see [`miller_rabin_rounds`].
pub const DEFAULT_MILLER_RABIN_ROUNDS: usize = 24;

/// Maximum number of candidates examined before prime generation gives up.
const MAX_PRIME_ATTEMPTS: usize = 100_000;

/// Small primes used for cheap trial division before Miller-Rabin.
const SMALL_PRIMES: [u32; 30] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113,
];

/// [`SMALL_PRIMES`] packed greedily into `u64` products, so trial
/// division costs one allocation-free [`BigUint::rem_u64`] pass per
/// group (three groups) instead of one full division per prime: the
/// residue modulo each member prime is recovered from the group residue
/// with word arithmetic.
fn small_prime_groups() -> &'static [(u64, &'static [u32])] {
    static GROUPS: OnceLock<Vec<(u64, &'static [u32])>> = OnceLock::new();
    GROUPS.get_or_init(|| {
        let mut groups: Vec<(u64, &'static [u32])> = Vec::new();
        let mut product: u64 = 1;
        let mut start = 0usize;
        for (i, &p) in SMALL_PRIMES.iter().enumerate() {
            match product.checked_mul(p as u64) {
                Some(next) => product = next,
                None => {
                    groups.push((product, &SMALL_PRIMES[start..i]));
                    product = p as u64;
                    start = i;
                }
            }
        }
        groups.push((product, &SMALL_PRIMES[start..]));
        groups
    })
}

/// Miller-Rabin rounds sufficient for candidates drawn *uniformly at
/// random*, as in [`generate_prime`].
///
/// The worst-case 4^-t bound is pessimistic for random inputs: the
/// Damgård-Landrock-Pomerance average-case analysis (the basis of FIPS
/// 186-5's reduced round counts) bounds the error for random `k`-bit
/// odd candidates by `k^(3/2) 2^t t^(-1/2) 4^(2-sqrt(tk))`, which for
/// every row below is under 2^-40 — far beyond anything a simulation
/// can observe. Adversarially *chosen* candidates must keep using
/// [`DEFAULT_MILLER_RABIN_ROUNDS`].
pub fn miller_rabin_rounds(bits: usize) -> usize {
    match bits {
        _ if bits >= 1024 => 4,
        _ if bits >= 512 => 5,
        _ if bits >= 256 => 6,
        _ if bits >= 128 => 8,
        _ => DEFAULT_MILLER_RABIN_ROUNDS,
    }
}

/// Draws a uniformly random value with exactly `bits` significant bits
/// (the top bit is forced to one).
pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits > 0, "cannot draw a zero-bit random number");
    let bytes = bits.div_ceil(8);
    let mut buf = vec![0u8; bytes];
    rng.fill(&mut buf[..]);
    // Clear excess high bits, then force the top bit so the bit length is exact.
    let excess = bytes * 8 - bits;
    buf[0] &= 0xffu8 >> excess;
    buf[0] |= 1u8 << (7 - excess);
    BigUint::from_bytes_be(&buf)
}

/// Draws a uniformly random value in `[0, bound)` by rejection sampling.
pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "bound must be positive");
    let bits = bound.bit_len();
    let bytes = bits.div_ceil(8);
    let excess = bytes * 8 - bits;
    loop {
        let mut buf = vec![0u8; bytes];
        rng.fill(&mut buf[..]);
        buf[0] &= 0xffu8 >> excess;
        let candidate = BigUint::from_bytes_be(&buf);
        if candidate < *bound {
            return candidate;
        }
    }
}

/// Draws a uniformly random value in `[low, high)`.
pub fn random_range<R: Rng + ?Sized>(rng: &mut R, low: &BigUint, high: &BigUint) -> BigUint {
    assert!(low < high, "empty random range");
    let span = high.sub(low);
    low.add(&random_below(rng, &span))
}

/// What Miller-Rabin needs before its first witness: `Err(verdict)` when
/// the candidate is below two or trial division by the small primes
/// settles it, otherwise `candidate - 1` and its split `d * 2^s` with `d`
/// odd.
fn miller_rabin_setup(candidate: &BigUint) -> Result<(BigUint, BigUint, usize), bool> {
    if candidate.is_zero() || candidate.is_one() {
        return Err(false);
    }
    // Trial division by small primes, one remainder pass per group.
    for &(product, primes) in small_prime_groups() {
        let group_rem = candidate.rem_u64(product);
        for &p in primes {
            if group_rem.is_multiple_of(p as u64) {
                // Divisible by p: prime exactly when the candidate *is* p.
                return Err(*candidate == BigUint::from_u32(p));
            }
        }
    }

    let n_minus_one = candidate.sub(&BigUint::one());
    let mut d = n_minus_one.clone();
    let mut s = 0usize;
    while d.is_even() {
        d = d.shr(1);
        s += 1;
    }
    Ok((n_minus_one, d, s))
}

/// Miller-Rabin primality test with `rounds` random witnesses.
///
/// Returns `true` if `candidate` is probably prime. Deterministically
/// correct for candidates below 114 (covered by trial division).
pub fn is_probably_prime<R: Rng + ?Sized>(candidate: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let (n_minus_one, d, s) = match miller_rabin_setup(candidate) {
        Ok(split) => split,
        Err(verdict) => return verdict,
    };
    let two = BigUint::from_u32(2);

    // One Montgomery context and one workspace serve every witness of this
    // candidate: the whole chain (load, windowed pow, squarings) runs
    // allocation-free, and the witness is compared in the Montgomery domain
    // against the images of 1 and n - 1, each held as limbs (the domain map
    // is a bijection, so comparing images is comparing residues).
    let ctx = MontgomeryCtx::new(candidate).expect("trial division removed every even candidate");
    let mut ws = MontWorkspace::new();
    ctx.prepare(&mut ws);
    let mut image = |value: &BigUint| {
        ctx.load(value, &mut ws);
        ws.value().to_vec()
    };
    let one = image(&BigUint::one());
    let minus_one = image(&n_minus_one);
    'witness: for _ in 0..rounds {
        let a = random_range(rng, &two, &n_minus_one);
        ctx.load(&a, &mut ws);
        ctx.pow_in_place(&d, &mut ws);
        if ws.value() == one || ws.value() == minus_one {
            continue 'witness;
        }
        for _ in 0..s.saturating_sub(1) {
            ctx.square_in_place(&mut ws);
            if ws.value() == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits and its top
/// two bits set.
///
/// Forcing the second-highest bit keeps every candidate at or above
/// `1.5 * 2^(bits-1)`, so the product of two such primes always reaches
/// the full `2 * bits` (standard RSA practice: without it a requested
/// 256-bit modulus could come out at 255 bits).
pub fn generate_prime<R: Rng + ?Sized>(
    rng: &mut R,
    bits: usize,
    rounds: usize,
) -> Result<BigUint, CryptoError> {
    assert!(bits >= 8, "prime generation needs at least 8 bits");
    for _ in 0..MAX_PRIME_ATTEMPTS {
        let mut candidate = random_bits(rng, bits);
        candidate.set_bit(bits - 2);
        // Force odd (setting bit 0 on an even value is the +1 the seed
        // path applied, without the temporary).
        candidate.set_bit(0);
        if candidate.bit_len() != bits {
            continue;
        }
        if is_probably_prime(&candidate, rounds, rng) {
            return Ok(candidate);
        }
    }
    Err(CryptoError::PrimeGenerationFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xBF1_2022)
    }

    #[test]
    fn prime_groups_cover_all_small_primes_without_overflow() {
        let groups = small_prime_groups();
        assert!(groups.len() >= 2);
        let flattened: Vec<u32> = groups
            .iter()
            .flat_map(|(_, primes)| primes.iter().copied())
            .collect();
        assert_eq!(flattened, SMALL_PRIMES);
        for &(product, primes) in groups {
            let expected: u128 = primes.iter().map(|&p| p as u128).product();
            assert_eq!(product as u128, expected, "group product must not wrap");
        }
    }

    #[test]
    fn adaptive_rounds_shrink_with_size_but_never_vanish() {
        assert_eq!(miller_rabin_rounds(2048), 4);
        assert_eq!(miller_rabin_rounds(512), 5);
        assert_eq!(miller_rabin_rounds(128), 8);
        assert_eq!(miller_rabin_rounds(64), DEFAULT_MILLER_RABIN_ROUNDS);
        for bits in [64usize, 128, 256, 512, 1024, 4096] {
            assert!(miller_rabin_rounds(bits) >= 4);
        }
    }

    #[test]
    fn small_primes_are_prime() {
        let mut r = rng();
        for p in [2u64, 3, 5, 7, 11, 13, 101, 103, 997, 7919, 104729] {
            assert!(
                is_probably_prime(&BigUint::from_u64(p), DEFAULT_MILLER_RABIN_ROUNDS, &mut r),
                "{p} should be prime"
            );
        }
    }

    #[test]
    fn small_composites_are_rejected() {
        let mut r = rng();
        for c in [
            0u64, 1, 4, 6, 9, 15, 21, 25, 100, 561, 1105, 1729, 2465, 6601, 8911, 104730,
        ] {
            assert!(
                !is_probably_prime(&BigUint::from_u64(c), DEFAULT_MILLER_RABIN_ROUNDS, &mut r),
                "{c} should be composite (or not prime)"
            );
        }
    }

    #[test]
    fn carmichael_numbers_are_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller-Rabin.
        let mut r = rng();
        for c in [561u64, 41041, 825265, 321197185] {
            assert!(!is_probably_prime(
                &BigUint::from_u64(c),
                DEFAULT_MILLER_RABIN_ROUNDS,
                &mut r
            ));
        }
    }

    #[test]
    fn known_large_prime_accepted() {
        let mut r = rng();
        // 2^61 - 1 is a Mersenne prime.
        let p = BigUint::from_u64((1u64 << 61) - 1);
        assert!(is_probably_prime(&p, DEFAULT_MILLER_RABIN_ROUNDS, &mut r));
        // 2^67 - 1 is famously composite (193707721 * 761838257287).
        let c = BigUint::one().shl(67).sub(&BigUint::one());
        assert!(!is_probably_prime(&c, DEFAULT_MILLER_RABIN_ROUNDS, &mut r));
    }

    #[test]
    fn random_bits_has_exact_length() {
        let mut r = rng();
        for bits in [8usize, 17, 32, 63, 64, 65, 128, 257] {
            for _ in 0..5 {
                let v = random_bits(&mut r, bits);
                assert_eq!(v.bit_len(), bits);
            }
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut r = rng();
        let bound = BigUint::from_u64(1_000_003);
        for _ in 0..200 {
            assert!(random_below(&mut r, &bound) < bound);
        }
    }

    #[test]
    fn random_range_respects_bounds() {
        let mut r = rng();
        let low = BigUint::from_u64(500);
        let high = BigUint::from_u64(1000);
        for _ in 0..200 {
            let v = random_range(&mut r, &low, &high);
            assert!(v >= low && v < high);
        }
    }

    #[test]
    fn generated_primes_have_requested_size_and_are_odd() {
        let mut r = rng();
        for bits in [32usize, 48, 64, 96, 128] {
            let p = generate_prime(&mut r, bits, 16).expect("prime generation should succeed");
            assert_eq!(p.bit_len(), bits);
            assert!(!p.is_even());
            assert!(is_probably_prime(&p, DEFAULT_MILLER_RABIN_ROUNDS, &mut r));
        }
    }

    #[test]
    fn generated_primes_have_top_two_bits_set() {
        let mut r = rng();
        for bits in [32usize, 64, 128] {
            for _ in 0..3 {
                let p = generate_prime(&mut r, bits, 16).unwrap();
                assert!(
                    p.bit(bits - 1),
                    "{bits}-bit prime must set bit {}",
                    bits - 1
                );
                assert!(
                    p.bit(bits - 2),
                    "{bits}-bit prime must set bit {}",
                    bits - 2
                );
            }
        }
    }

    /// The seed Miller-Rabin witness loop — plain residues through
    /// `modpow_reference` and `div_rem_reference`, no Montgomery context —
    /// drawing the same witnesses from `rng` as [`is_probably_prime`].
    fn is_probably_prime_reference(candidate: &BigUint, rounds: usize, rng: &mut StdRng) -> bool {
        let (n_minus_one, d, s) = match miller_rabin_setup(candidate) {
            Ok(split) => split,
            Err(verdict) => return verdict,
        };
        let two = BigUint::from_u32(2);
        'witness: for _ in 0..rounds {
            let a = random_range(rng, &two, &n_minus_one);
            let mut x = a.modpow_reference(&d, candidate);
            if x.is_one() || x == n_minus_one {
                continue 'witness;
            }
            for _ in 0..s.saturating_sub(1) {
                x = x.mul(&x).div_rem_reference(candidate).1;
                if x == n_minus_one {
                    continue 'witness;
                }
            }
            return false;
        }
        true
    }

    #[test]
    fn reference_and_montgomery_paths_agree_on_primality() {
        for v in [
            104729u64,
            (1u64 << 61) - 1,
            825265,
            6601,
            999999999989,
            999999999990,
        ] {
            let candidate = BigUint::from_u64(v);
            let mut fast_rng = StdRng::seed_from_u64(42);
            let mut reference_rng = StdRng::seed_from_u64(42);
            let fast = is_probably_prime(&candidate, 16, &mut fast_rng);
            let reference = is_probably_prime_reference(&candidate, 16, &mut reference_rng);
            assert_eq!(fast, reference, "paths disagree on {v}");
            assert_eq!(
                fast_rng.next_u64(),
                reference_rng.next_u64(),
                "paths drew different witnesses for {v}"
            );
        }
    }

    #[test]
    fn generated_primes_differ_across_draws() {
        let mut r = rng();
        let a = generate_prime(&mut r, 64, 16).unwrap();
        let b = generate_prime(&mut r, 64, 16).unwrap();
        assert_ne!(a, b);
    }
}
