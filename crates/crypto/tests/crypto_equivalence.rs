//! Equivalence suites pinning the crypto engine to its oracles — the
//! seed implementations kept as plain functions
//! (`BigUint::div_rem_reference`, `BigUint::modpow_reference`) that only
//! tests call — bit-for-bit.
//!
//! Mirrors `crates/ml/tests/batched_equivalence.rs` from the batched
//! GEMM PR, with one difference: this is integer arithmetic, so every
//! comparison is exact equality — no tolerances.
//!
//! Four pairings are pinned:
//! * u64-limb carry/borrow arithmetic (`add`/`sub`/`mul`) ≡ an
//!   independent byte-level (base-256) schoolbook implementation kept in
//!   this file, up to 4096-bit operands,
//! * Knuth Algorithm D division ≡ the seed binary long division, up to
//!   4096-bit operands,
//! * the Montgomery workspace chain (fixed-window `pow_in_place`) ≡
//!   `modpow_reference`
//!   (square-and-multiply over the seed division), up to 4096-bit moduli,
//! * CRT signing and cached-context verification ≡ the plain exponent
//!   through `modpow_reference`.
//!
//! A further suite checks that the per-key Montgomery-context caches are
//! pure acceleration state: serialized keys are byte-identical whether
//! the caches are warm or cold, and a round-trip through the wire
//! produces a key that signs/verifies identically.

use bfl_crypto::bigint::BigUint;
use bfl_crypto::montgomery::{MontWorkspace, MontgomeryCtx};
use bfl_crypto::rsa::{RsaKeyPair, RsaPrivateKey, RsaPublicKey};
use bfl_crypto::signature::sign_detached;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::OnceLock;

/// `base^exponent mod n` through the one exponentiation chain: a fitted
/// workspace, `load`, `pow_in_place`, `recover_value`.
fn montgomery_pow(ctx: &MontgomeryCtx, base: &BigUint, exponent: &BigUint) -> BigUint {
    let mut ws = MontWorkspace::new();
    ctx.prepare(&mut ws);
    ctx.load(base, &mut ws);
    ctx.pow_in_place(exponent, &mut ws);
    ctx.recover_value(&mut ws)
}

/// The public operation `s^e mod n` in the key's cached context.
fn public_op(key: &RsaPublicKey, s: &BigUint) -> BigUint {
    montgomery_pow(key.montgomery_ctx(), s, key.exponent())
}

/// A non-zero value built from random bytes (falls back to `fallback`).
fn nonzero(bytes: &[u8], fallback: u32) -> BigUint {
    let v = BigUint::from_bytes_be(bytes);
    if v.is_zero() {
        BigUint::from_u32(fallback.max(1))
    } else {
        v
    }
}

// ---------------------------------------------------------------------------
// Byte-level (base-256) reference arithmetic, independent of the limb
// representation under test. Operands are little-endian byte vectors.
// ---------------------------------------------------------------------------

fn le_bytes(v: &BigUint) -> Vec<u8> {
    let mut bytes = v.to_bytes_be();
    bytes.reverse();
    bytes
}

fn from_le_bytes(mut bytes: Vec<u8>) -> BigUint {
    bytes.reverse();
    BigUint::from_bytes_be(&bytes)
}

fn byte_add(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(a.len().max(b.len()) + 1);
    let mut carry = 0u16;
    for i in 0..a.len().max(b.len()) {
        let sum = *a.get(i).unwrap_or(&0) as u16 + *b.get(i).unwrap_or(&0) as u16 + carry;
        out.push(sum as u8);
        carry = sum >> 8;
    }
    if carry > 0 {
        out.push(carry as u8);
    }
    out
}

/// `a - b`; requires `a >= b`.
fn byte_sub(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0i16;
    for (i, &x) in a.iter().enumerate() {
        let mut diff = x as i16 - *b.get(i).unwrap_or(&0) as i16 - borrow;
        if diff < 0 {
            diff += 256;
            borrow = 1;
        } else {
            borrow = 0;
        }
        out.push(diff as u8);
    }
    assert_eq!(borrow, 0, "byte_sub underflow");
    out
}

fn byte_mul(a: &[u8], b: &[u8]) -> Vec<u8> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u8; a.len() + b.len()];
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u16;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u16 + x as u16 * y as u16 + carry;
            out[i + j] = cur as u8;
            carry = cur >> 8;
        }
        let mut idx = i + b.len();
        while carry > 0 {
            let cur = out[idx] as u16 + carry;
            out[idx] = cur as u8;
            carry = cur >> 8;
            idx += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// u64-limb addition and subtraction ≡ byte-level arithmetic over
    /// operands up to 4096 bits: every carry/borrow across the 64-bit
    /// limb boundaries must agree with the base-256 reference.
    #[test]
    fn add_sub_match_byte_reference(
        a_bytes in proptest::collection::vec(any::<u8>(), 0..512),
        b_bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let a = BigUint::from_bytes_be(&a_bytes);
        let b = BigUint::from_bytes_be(&b_bytes);
        let sum = a.add(&b);
        prop_assert_eq!(&sum, &from_le_bytes(byte_add(&le_bytes(&a), &le_bytes(&b))));
        // sum - b == a and sum - a == b, both against the byte reference.
        prop_assert_eq!(
            sum.sub(&b),
            from_le_bytes(byte_sub(&le_bytes(&sum), &le_bytes(&b)))
        );
        prop_assert_eq!(&sum.sub(&b), &a);
        prop_assert_eq!(&sum.sub(&a), &b);
    }

    /// u64-limb schoolbook multiplication ≡ byte-level schoolbook over
    /// operands up to 4096 bits (products up to 8192 bits).
    #[test]
    fn mul_matches_byte_reference(
        a_bytes in proptest::collection::vec(any::<u8>(), 0..512),
        b_bytes in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let a = BigUint::from_bytes_be(&a_bytes);
        let b = BigUint::from_bytes_be(&b_bytes);
        let product = a.mul(&b);
        prop_assert_eq!(
            &product,
            &from_le_bytes(byte_mul(&le_bytes(&a), &le_bytes(&b)))
        );
        prop_assert_eq!(product, b.mul(&a));
    }
}

/// An odd value >= 3 built from random bytes.
fn odd_modulus(bytes: &[u8]) -> BigUint {
    let mut v = BigUint::from_bytes_be(bytes);
    v.set_bit(0);
    if v.is_one() {
        v.set_bit(1);
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Knuth division (64-bit quotient digits) ≡ binary long division
    /// over operands up to 4096 bits.
    #[test]
    fn knuth_div_rem_matches_reference(
        a_bytes in proptest::collection::vec(any::<u8>(), 0..512),
        b_bytes in proptest::collection::vec(any::<u8>(), 0..512),
        fallback in 1u32..,
    ) {
        let a = BigUint::from_bytes_be(&a_bytes);
        let b = nonzero(&b_bytes, fallback);
        let (q_fast, r_fast) = a.div_rem(&b);
        let (q_ref, r_ref) = a.div_rem_reference(&b);
        prop_assert_eq!(&q_fast, &q_ref);
        prop_assert_eq!(&r_fast, &r_ref);
        // Independent reconstruction check.
        prop_assert_eq!(b.mul(&q_fast).add(&r_fast), a);
        prop_assert!(r_fast < b);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Montgomery modpow ≡ reference modpow, moduli up to 1024 bits
    /// (exponents capped at 64 bits: the bit-by-bit reference bounds
    /// what a test budget affords at this width).
    #[test]
    fn montgomery_modpow_matches_reference(
        base_bytes in proptest::collection::vec(any::<u8>(), 0..128),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..8),
        mod_bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let base = BigUint::from_bytes_be(&base_bytes);
        let exponent = BigUint::from_bytes_be(&exp_bytes);
        let modulus = odd_modulus(&mod_bytes);
        let ctx = MontgomeryCtx::new(&modulus).expect("odd modulus >= 3");
        let fast = montgomery_pow(&ctx, &base, &exponent);
        prop_assert_eq!(fast, base.modpow_reference(&exponent, &modulus));
    }

    /// Full-size exponents on smaller moduli.
    #[test]
    fn montgomery_modpow_full_exponent_matches_reference(
        base_bytes in proptest::collection::vec(any::<u8>(), 0..48),
        exp_bytes in proptest::collection::vec(any::<u8>(), 0..48),
        mod_bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let base = BigUint::from_bytes_be(&base_bytes);
        let exponent = BigUint::from_bytes_be(&exp_bytes);
        let modulus = odd_modulus(&mod_bytes);
        let ctx = MontgomeryCtx::new(&modulus).expect("odd modulus >= 3");
        let fast = montgomery_pow(&ctx, &base, &exponent);
        prop_assert_eq!(fast, base.modpow_reference(&exponent, &modulus));
    }
}

/// A deterministic 2048-bit modulus exercise: the widest operand class
/// the proptest budget cannot afford against the bit-by-bit reference.
#[test]
fn montgomery_modpow_matches_reference_at_2048_bits() {
    let mut seed_bytes = Vec::with_capacity(256);
    for i in 0..256u32 {
        seed_bytes.push((i.wrapping_mul(2_654_435_761) >> 13) as u8);
    }
    let mut modulus = BigUint::from_bytes_be(&seed_bytes);
    modulus.set_bit(0);
    modulus.set_bit(2047);
    let base = BigUint::from_bytes_be(&seed_bytes[3..201]);
    let exponent = BigUint::from_u64(0xF00D_FACE_CAFE_BEEF);

    let ctx = MontgomeryCtx::new(&modulus).expect("odd 2048-bit modulus");
    let fast = montgomery_pow(&ctx, &base, &exponent);
    assert_eq!(fast, base.modpow_reference(&exponent, &modulus));
}

/// A deterministic 4096-bit modulus exercise for the u64-limb engine:
/// the widest operand class the protocol could plausibly configure. The
/// exponent is kept short because the reference path reduces every
/// intermediate product with bit-by-bit division at 8192-bit dividends.
#[test]
fn montgomery_modpow_matches_reference_at_4096_bits() {
    let mut seed_bytes = Vec::with_capacity(512);
    for i in 0..512u32 {
        seed_bytes.push((i.wrapping_mul(2_246_822_519).wrapping_add(0x9E37) >> 11) as u8);
    }
    let mut modulus = BigUint::from_bytes_be(&seed_bytes);
    modulus.set_bit(0);
    modulus.set_bit(4095);
    let base = BigUint::from_bytes_be(&seed_bytes[5..397]);
    let exponent = BigUint::from_u64(0xB007);

    let ctx = MontgomeryCtx::new(&modulus).expect("odd 4096-bit modulus");
    let fast = montgomery_pow(&ctx, &base, &exponent);
    assert_eq!(fast, base.modpow_reference(&exponent, &modulus));
}

/// Keys generated once and shared across the signing equivalence cases
/// (keygen dominates otherwise).
fn shared_keys() -> &'static Vec<RsaKeyPair> {
    static KEYS: OnceLock<Vec<RsaKeyPair>> = OnceLock::new();
    KEYS.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xC127_5160);
        [256usize, 320, 384]
            .iter()
            .map(|&bits| RsaKeyPair::generate(&mut rng, bits).expect("keygen"))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CRT signing ≡ the plain-exponent oracle `m^d mod n`, across every
    /// shared key size.
    #[test]
    fn crt_sign_matches_plain_sign(
        msg_bytes in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let message = BigUint::from_bytes_be(&msg_bytes);
        for pair in shared_keys() {
            let fast = pair.private.apply(&message);
            let reference =
                message.modpow_reference(pair.private.exponent(), pair.private.modulus());
            prop_assert_eq!(&fast, &reference);
            // The signature round-trips through the public operation.
            let m_reduced = message.rem(pair.private.modulus());
            prop_assert_eq!(public_op(&pair.public, &fast), m_reduced);
        }
    }

    /// Verification agrees with the oracle: a signature produced by the
    /// fast path verifies under the reference public operation, which
    /// the cached-context public operation equals.
    #[test]
    fn cross_engine_sign_verify_round_trip(
        msg_bytes in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        let message = BigUint::from_bytes_be(&msg_bytes);
        let pair = &shared_keys()[0];
        let sig_fast = pair.private.apply(&message);
        let recovered_ref =
            sig_fast.modpow_reference(pair.public.exponent(), pair.public.modulus());
        prop_assert_eq!(&recovered_ref, &message.rem(pair.private.modulus()));
        prop_assert_eq!(public_op(&pair.public, &sig_fast), recovered_ref);
    }
}

/// CRT signing through the thread's reused signing workspace ≡ the
/// oracle's `(n, d)` exponentiation, for a signature over an envelope
/// digest `H` (`s = H.modpow_reference(d, n)`, `H` unreduced). The key
/// sizes cover a digest above `p` (128, 256, 257 and 320 bits) and below
/// it (520 bits up), prime widths off a limb boundary (160- and 260-bit
/// primes run the generic kernel), a `q` one bit wider than `p` (257
/// bits), and primes that take the fixed-width kernel (4, 8 and 16
/// limbs). Each is signed cold (a fresh thread's empty workspace, cold
/// key caches), warm (the same thread again), and across re-fits (the
/// sizes interleaved on one workspace). The 2048-bit
/// leg runs in optimized builds only: its reference side is a full-size
/// square-and-multiply over bit-by-bit division.
#[test]
fn crt_sign_through_the_reused_workspace_matches_the_plain_exponent_oracle() {
    let mut sizes = vec![128usize, 256, 257, 320, 512, 520, 1024];
    if !cfg!(debug_assertions) {
        sizes.push(2048);
    }
    let mut rng = StdRng::seed_from_u64(0x51_6E13);
    let pairs: Vec<RsaKeyPair> = sizes
        .iter()
        .map(|&bits| RsaKeyPair::generate(&mut rng, bits).expect("keygen"))
        .collect();
    let (signer, payload) = (13u64, b"gradient upload, round 13");
    let mut preimage = signer.to_be_bytes().to_vec();
    preimage.extend_from_slice(payload);
    let digest = BigUint::from_bytes_be(&bfl_crypto::sha256(&preimage));

    let reference: Vec<BigUint> = pairs
        .iter()
        .map(|p| digest.modpow_reference(p.private.exponent(), p.private.modulus()))
        .collect();
    for (pair, expected) in pairs.iter().zip(&reference) {
        let reduced = digest.div_rem_reference(pair.public.modulus()).1;
        assert_eq!(
            public_op(&pair.public, expected),
            reduced,
            "reference signs"
        );
        // The 256-bit digest against the prime it is first reduced by:
        // above every prime under 256 bits, below every prime above.
        let p = &pair.private.crt().p;
        match p.bit_len() {
            ..=255 => assert!(digest > *p),
            257.. => assert!(digest < *p),
            256 => {}
        }
    }

    // A fresh thread starts with an empty workspace; the key clones it
    // signs with have never built a context.
    std::thread::spawn(move || {
        let cold: Vec<RsaPrivateKey> = pairs
            .iter()
            .map(|p| {
                RsaPrivateKey::new(
                    p.private.modulus().clone(),
                    p.private.exponent().clone(),
                    p.private.crt().clone(),
                )
            })
            .collect();
        for pass in 0..3 {
            // Forward, backward, forward: every adjacent pair of
            // widths re-fits the workspace in both directions.
            let order: Vec<usize> = if pass % 2 == 0 {
                (0..cold.len()).collect()
            } else {
                (0..cold.len()).rev().collect()
            };
            for i in order {
                assert_eq!(cold[i].context_is_warm(), pass > 0);
                let bits = sizes[i];
                let signed = sign_detached(signer, payload, &cold[i]);
                assert_eq!(
                    BigUint::from_bytes_be(&signed.bytes),
                    reference[i],
                    "{bits} bits, pass {pass}"
                );
                assert_eq!(signed.bytes, reference[i].to_bytes_be(), "{bits} bits");
                assert_eq!(cold[i].apply(&digest), reference[i], "{bits} bits");
            }
        }
    })
    .join()
    .expect("signing thread");
}

// ---------------------------------------------------------------------------
// Per-key Montgomery-context caches must never leak into the wire format.
// ---------------------------------------------------------------------------

#[test]
fn warm_context_caches_do_not_change_serialized_keys() {
    let pair = &shared_keys()[0];
    // Cold copies built from the same material, never used for crypto.
    let cold_public = RsaPublicKey::new(
        pair.public.modulus().clone(),
        pair.public.exponent().clone(),
    );
    let cold_private = RsaPrivateKey::new(
        pair.private.modulus().clone(),
        pair.private.exponent().clone(),
        pair.private.crt().clone(),
    );
    assert!(!cold_public.context_is_warm());
    assert!(!cold_private.context_is_warm());

    // Warm the shared pair's caches (signing touches the CRT contexts,
    // verification the public one).
    let message = BigUint::from_u64(0xCAC4E);
    let _ = pair.private.apply(&message);
    let _ = pair.public.montgomery_ctx();
    assert!(pair.public.context_is_warm());
    assert!(pair.private.context_is_warm());

    // Byte-identical wire format, warm or cold.
    assert_eq!(
        serde_json::to_string(&pair.public).unwrap(),
        serde_json::to_string(&cold_public).unwrap()
    );
    assert_eq!(
        serde_json::to_string(&pair.private).unwrap(),
        serde_json::to_string(&cold_private).unwrap()
    );
    // And no cache-shaped fields appear at all.
    let private_json = serde_json::to_string(&pair.private).unwrap();
    assert!(!private_json.contains("mont"));
    assert!(!private_json.contains("cache"));
}

#[test]
fn keys_round_trip_through_serde_and_keep_signing_identically() {
    for pair in shared_keys() {
        let message = BigUint::from_u64(0x5E_7DE5);
        let sig = pair.private.apply(&message); // warm the caches
        let json = serde_json::to_string(pair).unwrap();
        let back: RsaKeyPair = serde_json::from_str(&json).unwrap();
        assert_eq!(back.public, pair.public);
        assert_eq!(back.private, pair.private);
        assert!(!back.private.context_is_warm(), "caches must arrive cold");
        assert!(!back.public.context_is_warm(), "caches must arrive cold");
        // The rebuilt key signs and verifies identically.
        assert_eq!(back.private.apply(&message), sig);
        assert_eq!(public_op(&back.public, &sig), public_op(&pair.public, &sig));
    }
}
