//! RSA key generation and the raw private-key operation.
//!
//! FAIR-BFL assigns each client a unique private key; miners hold the
//! corresponding public keys and verify every gradient upload (paper
//! Figure 2). This module implements the textbook RSA primitive on top of
//! [`crate::bigint`] and [`crate::prime`]: key generation with two random
//! primes, `e = 65537`, and `d = e^{-1} mod (p-1)(q-1)`. The public
//! operation has no entry point here: verification runs it inside
//! [`crate::signature::BatchVerifier`], through
//! [`RsaPublicKey::montgomery_ctx`].
//!
//! Every key has a Montgomery context, which needs an odd modulus above
//! one. Deserialization refuses a modulus (or CRT prime) that is even or
//! at most one with an error, and [`RsaPublicKey::new`] /
//! [`RsaPrivateKey::new`] assert it; generated keys always pass.
//!
//! A private key always carries the CRT factors `(p, q, d_p, d_q,
//! q_inv)` — deserialization refuses one without them — so
//! [`RsaPrivateKey::apply`] runs two half-size Montgomery
//! exponentiations and recombines by Garner's formula — roughly 4x
//! faster than a full-size exponentiation, on top of the Montgomery
//! speedup itself. The whole private operation runs in the thread's
//! signing workspace: the message is loaded modulo each prime directly
//! (`(m mod n) mod p = m mod p`, so no reduced copy of it is built), both
//! halves exponentiate in one [`MontWorkspace`], Garner's recombination
//! runs in limb buffers beside it, and the result's limbs are handed to
//! the caller to encode — a signature's bytes are the one allocation a
//! warm thread makes. The workspace is re-fitted only when the prime
//! width changes and keeps its buffers' capacity, so after a thread's
//! first signature at the largest width it signs at, it allocates no
//! scratch at all. A `bfl_ml::par` fan-out hands its chunks to parked
//! helper threads that live as long as the thread that fans out, so a
//! helper signing round after round keeps that warm workspace too.
//! The oracle for both key operations is the plain exponent through
//! [`BigUint::modpow_reference`] — `m.modpow_reference(d, n)` is what a
//! signature must equal — which `tests/crypto_equivalence.rs` and the
//! [`crate::signature`] tests compare against bit for bit.
//!
//! Both key types carry lazily-built, shareable [`MontgomeryCtx`]
//! caches ([`MontCache`]) — a public key for its modulus, a private key
//! for its CRT primes `p` and `q`: constructing a context costs a full
//! division (`R^2 mod n`), so the first sign/verify through a key builds
//! it once and every later operation — including every verification
//! through a [`crate::keystore::KeyStore`]-held key — reuses it. The
//! caches are pure acceleration state: they are excluded from equality,
//! cloning keeps them warm, and the hand-written serde impls never write
//! them to the wire.
//!
//! The protocol-facing hash-then-sign wrapper lives in [`crate::signature`].

use crate::bigint::{mul_add_limbs, BigUint};
use crate::error::CryptoError;
use crate::montgomery::{MontWorkspace, MontgomeryCtx};
use crate::prime::{generate_prime, miller_rabin_rounds};
use rand::Rng;
use serde::{Deserialize, Serialize, Value};
use std::cell::RefCell;
use std::sync::OnceLock;

thread_local! {
    /// This thread's scratch for private-key operations (see the module
    /// docs).
    static SIGNING_WORKSPACE: RefCell<SigningWorkspace> = RefCell::default();
}

/// Scratch for one private-key operation: the Montgomery workspace the
/// exponentiations run in and the limb buffers of Garner's recombination.
/// Pure scratch: every use re-fits and overwrites it, so it carries
/// nothing from one signature to the next.
#[derive(Default)]
struct SigningWorkspace {
    mont: MontWorkspace,
    /// `s_p`, still in `p`'s Montgomery domain while the `q` half runs.
    s_p: Vec<u64>,
    /// `s_q`, recovered.
    s_q: Vec<u64>,
    /// Garner's coefficient `h = q_inv (s_p - s_q) mod p`.
    h: Vec<u64>,
    /// The result `s = s_q + q h`.
    s: Vec<u64>,
}

/// Sizes `buffer` to `len` zeroed limbs, keeping its capacity.
fn fit(buffer: &mut Vec<u64>, len: usize) {
    buffer.clear();
    buffer.resize(len, 0);
}

impl SigningWorkspace {
    /// `s = m^d mod n` by CRT: `s_p = m^{d_p} mod p`, `s_q = m^{d_q} mod
    /// q`, `s = s_q + q · (q_inv (s_p - s_q) mod p)`.
    fn crt(&mut self, message: &[u64], key: &RsaPrivateKey) {
        let crt = &key.crt;
        let ctx_p = key.crt_p_mont.get_or_build(&crt.p);
        let ctx_q = key.crt_q_mont.get_or_build(&crt.q);
        let ws = &mut self.mont;
        ctx_p.prepare(ws);
        ctx_p.load_limbs(message, ws);
        ctx_p.pow_in_place(&crt.d_p, ws);
        self.s_p.clear();
        self.s_p.extend_from_slice(ws.value());

        ctx_q.prepare(ws);
        ctx_q.load_limbs(message, ws);
        ctx_q.pow_in_place(&crt.d_q, ws);
        fit(&mut self.s_q, ctx_q.k());
        ctx_q.recover_into(ws, &mut self.s_q);

        fit(&mut self.h, ctx_p.k());
        ctx_p.garner_coefficient(&self.s_p, &self.s_q, crt.q_inv.limbs(), ws, &mut self.h);
        // s_q + q h <= (q - 1) + q (p - 1) < n: it fits p's and q's limbs.
        fit(&mut self.s, ctx_p.k() + ctx_q.k());
        mul_add_limbs(crt.q.limbs(), &self.h, &self.s_q, &mut self.s);
    }
}

/// The conventional RSA public exponent.
pub const PUBLIC_EXPONENT: u32 = 65537;

/// Minimum supported modulus size. Anything smaller cannot hold a SHA-256
/// digest comfortably after reduction and offers no meaningful structure.
pub const MIN_MODULUS_BITS: usize = 128;

/// Maximum modulus size a simulation may ask for, far past any size it
/// signs with. Unbounded, a prime candidate's allocation can outgrow any
/// heap, so configurations refuse larger sizes before a run starts.
pub const MAX_MODULUS_BITS: usize = 16384;

/// A lazily-built per-modulus [`MontgomeryCtx`] cache.
///
/// The first caller pays the context construction (one division for
/// `R^2 mod n`); every later call through the same key — or a clone of
/// it — reuses the finished context. The cache is invisible to equality
/// and serialization: it is rebuilt on demand after deserialization and
/// never enters the wire format.
#[derive(Debug, Default, Clone)]
pub struct MontCache {
    cell: OnceLock<MontgomeryCtx>,
}

impl MontCache {
    /// An empty (not yet built) cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached context for `modulus`, building it on first use. The
    /// key constructors admit only odd moduli above one, which always
    /// have a context.
    fn get_or_build(&self, modulus: &BigUint) -> &MontgomeryCtx {
        self.cell.get_or_init(|| {
            MontgomeryCtx::new(modulus).expect("key constructors admit only odd moduli above one")
        })
    }

    /// Whether the context has been built already (test/diagnostic hook).
    pub fn is_warm(&self) -> bool {
        self.cell.get().is_some()
    }
}

/// Whether `modulus` has a Montgomery context: odd and above one.
fn admits_context(modulus: &BigUint) -> bool {
    !modulus.is_even() && !modulus.is_one()
}

/// The key constructors' modulus check, as a deserialization error.
fn check_modulus(what: &str, modulus: &BigUint) -> Result<(), serde::Error> {
    if admits_context(modulus) {
        Ok(())
    } else {
        Err(serde::Error::custom(format!(
            "RSA {what} must be odd and above one"
        )))
    }
}

/// An RSA public key `(n, e)`.
///
/// Carries a lazily-built Montgomery context so repeated verifications
/// against the same key (the miner-side hot path) do not rebuild the
/// per-modulus precomputation. Equality and the serialized form cover
/// only `(n, e)`.
#[derive(Debug, Clone)]
pub struct RsaPublicKey {
    /// Modulus `n = p * q`.
    modulus: BigUint,
    /// Public exponent `e`.
    exponent: BigUint,
    /// Cached Montgomery context for `modulus` (see [`MontCache`]).
    mont: MontCache,
}

/// Chinese-remainder factors of an RSA private key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrtFactors {
    /// First prime factor of the modulus.
    pub p: BigUint,
    /// Second prime factor of the modulus.
    pub q: BigUint,
    /// `d mod (p - 1)`.
    pub d_p: BigUint,
    /// `d mod (q - 1)`.
    pub d_q: BigUint,
    /// `q^{-1} mod p` (Garner recombination coefficient).
    pub q_inv: BigUint,
}

/// An RSA private key: `(n, d)` and its CRT factors.
///
/// Carries a lazily-built Montgomery context per prime factor, so
/// repeated signing through the same key reuses the per-prime
/// precomputation. Equality and the serialized form cover only
/// `(n, d, crt)`.
#[derive(Debug, Clone)]
pub struct RsaPrivateKey {
    /// Modulus `n = p * q`.
    modulus: BigUint,
    /// Private exponent `d = e^{-1} mod phi(n)`.
    exponent: BigUint,
    /// CRT factors: every signature runs through them.
    crt: CrtFactors,
    /// Cached Montgomery context for the CRT prime `p` (see [`MontCache`]).
    crt_p_mont: MontCache,
    /// Cached Montgomery context for the CRT prime `q`.
    crt_q_mont: MontCache,
}

/// A matched RSA key pair.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RsaKeyPair {
    /// The public half, distributed to miners.
    pub public: RsaPublicKey,
    /// The private half, kept by the client.
    pub private: RsaPrivateKey,
}

impl RsaPublicKey {
    /// Builds a public key from `(n, e)` with a cold context cache.
    ///
    /// # Panics
    ///
    /// If the modulus is even or at most one (see the module docs).
    pub fn new(modulus: BigUint, exponent: BigUint) -> Self {
        assert!(
            admits_context(&modulus),
            "RSA modulus must be odd and above one"
        );
        RsaPublicKey {
            modulus,
            exponent,
            mont: MontCache::new(),
        }
    }

    /// The key's cached Montgomery context, building it on first use:
    /// what [`crate::signature::BatchVerifier`] raises a signature in.
    pub fn montgomery_ctx(&self) -> &MontgomeryCtx {
        self.mont.get_or_build(&self.modulus)
    }

    /// The modulus `n`. Read-only: the cached context is derived from
    /// it, so changing the modulus means building a new key via
    /// [`RsaPublicKey::new`].
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The public exponent `e`.
    pub fn exponent(&self) -> &BigUint {
        &self.exponent
    }

    /// Size of the modulus in bits.
    pub fn modulus_bits(&self) -> usize {
        self.modulus.bit_len()
    }

    /// Whether the Montgomery context has been built (test hook).
    pub fn context_is_warm(&self) -> bool {
        self.mont.is_warm()
    }
}

// Equality ignores the context cache: two keys are the same key if they
// hold the same `(n, e)`, warm or cold.
impl PartialEq for RsaPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.modulus == other.modulus && self.exponent == other.exponent
    }
}

impl Eq for RsaPublicKey {}

// Hand-written serde keeps the context cache out of the wire format.
impl Serialize for RsaPublicKey {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("modulus".to_string(), self.modulus.to_value()),
            ("exponent".to_string(), self.exponent.to_value()),
        ])
    }
}

impl Deserialize for RsaPublicKey {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let modulus = BigUint::from_value(value.field("modulus")?)?;
        check_modulus("modulus", &modulus)?;
        Ok(RsaPublicKey::new(
            modulus,
            BigUint::from_value(value.field("exponent")?)?,
        ))
    }
}

impl RsaPrivateKey {
    /// Builds a private key from `(n, d)` and its CRT factors, with cold
    /// context caches.
    ///
    /// # Panics
    ///
    /// If the modulus or a CRT prime is even or at most one (see the
    /// module docs).
    pub fn new(modulus: BigUint, exponent: BigUint, crt: CrtFactors) -> Self {
        assert!(
            [&modulus, &crt.p, &crt.q].into_iter().all(admits_context),
            "RSA modulus and CRT primes must be odd and above one"
        );
        RsaPrivateKey {
            modulus,
            exponent,
            crt,
            crt_p_mont: MontCache::new(),
            crt_q_mont: MontCache::new(),
        }
    }

    /// Applies the private operation `m^d mod n` (used for signing).
    ///
    /// Runs two half-size Montgomery exponentiations mod `p` and `q` and
    /// recombines with Garner's formula, in the thread's signing
    /// workspace (see the module docs), with both Montgomery contexts
    /// from the per-key caches; the returned `BigUint` is the only
    /// allocation.
    pub fn apply(&self, message: &BigUint) -> BigUint {
        self.apply_limbs(message.limbs(), |s| BigUint::from_limbs(s.to_vec()))
    }

    /// [`Self::apply`] on a message given as little-endian limbs of any
    /// width, handing the result's limbs (possibly with leading zero
    /// limbs) to `finish` — the one body every private-key operation runs.
    pub(crate) fn apply_limbs<T>(&self, message: &[u64], finish: impl FnOnce(&[u64]) -> T) -> T {
        SIGNING_WORKSPACE.with_borrow_mut(|ws| {
            ws.crt(message, self);
            finish(&ws.s)
        })
    }

    /// The modulus `n`. Read-only: the cached contexts are derived from
    /// the key material, so changed material means a new key via
    /// [`RsaPrivateKey::new`].
    pub fn modulus(&self) -> &BigUint {
        &self.modulus
    }

    /// The private exponent `d`.
    pub fn exponent(&self) -> &BigUint {
        &self.exponent
    }

    /// The CRT factors.
    pub fn crt(&self) -> &CrtFactors {
        &self.crt
    }

    /// Size of the modulus in bits.
    pub fn modulus_bits(&self) -> usize {
        self.modulus.bit_len()
    }

    /// Whether any of the Montgomery contexts have been built (test hook).
    pub fn context_is_warm(&self) -> bool {
        self.crt_p_mont.is_warm() || self.crt_q_mont.is_warm()
    }
}

// Equality ignores the context caches (see `RsaPublicKey`).
impl PartialEq for RsaPrivateKey {
    fn eq(&self, other: &Self) -> bool {
        self.modulus == other.modulus && self.exponent == other.exponent && self.crt == other.crt
    }
}

impl Eq for RsaPrivateKey {}

// Hand-written serde keeps the context caches out of the wire format and
// checks the key material before a constructor would assert on it.
impl Serialize for RsaPrivateKey {
    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("modulus".to_string(), self.modulus.to_value()),
            ("exponent".to_string(), self.exponent.to_value()),
            ("crt".to_string(), self.crt.to_value()),
        ])
    }
}

impl Deserialize for RsaPrivateKey {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let modulus = BigUint::from_value(value.field("modulus")?)?;
        let exponent = BigUint::from_value(value.field("exponent")?)?;
        check_modulus("modulus", &modulus)?;
        let crt = match value.field("crt") {
            Ok(Value::Null) | Err(_) => {
                return Err(serde::Error::custom(
                    "RSA private key has no `crt` factors".to_string(),
                ))
            }
            Ok(v) => CrtFactors::from_value(v)?,
        };
        check_modulus("CRT prime p", &crt.p)?;
        check_modulus("CRT prime q", &crt.q)?;
        Ok(RsaPrivateKey::new(modulus, exponent, crt))
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with a modulus of exactly
    /// `modulus_bits` bits.
    ///
    /// Prime candidates have their top two bits forced (see
    /// [`crate::prime::generate_prime`]), so the product always reaches
    /// the requested size. `modulus_bits` must be at least
    /// [`MIN_MODULUS_BITS`]. Key sizes used in tests are intentionally
    /// small (128-512 bits) so the simulation remains fast; they are not
    /// secure key sizes.
    pub fn generate<R: Rng + ?Sized>(
        rng: &mut R,
        modulus_bits: usize,
    ) -> Result<Self, CryptoError> {
        if modulus_bits < MIN_MODULUS_BITS {
            return Err(CryptoError::KeyTooSmall {
                requested_bits: modulus_bits,
                minimum_bits: MIN_MODULUS_BITS,
            });
        }
        let e = BigUint::from_u32(PUBLIC_EXPONENT);
        let half = modulus_bits / 2;
        let one = BigUint::one();

        // Retry until phi(n) is coprime with e and p != q. Candidates are
        // uniformly random, so the round count follows the average-case
        // analysis (see `prime::miller_rabin_rounds`), not the worst case.
        let rounds = miller_rabin_rounds(half);
        for _ in 0..64 {
            let p = generate_prime(rng, half, rounds)?;
            let q = generate_prime(rng, modulus_bits - half, rounds)?;
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let p_minus_one = p.sub(&one);
            let q_minus_one = q.sub(&one);
            let phi = p_minus_one.mul(&q_minus_one);
            // `modinv` returns `None` exactly when gcd(e, phi) != 1, so
            // no separate gcd pass is needed.
            let d = match e.modinv(&phi) {
                Some(d) => d,
                None => continue,
            };
            let q_inv = match q.modinv(&p) {
                Some(inv) => inv,
                None => continue, // p == q is excluded above, but stay safe
            };
            let crt = CrtFactors {
                d_p: d.rem(&p_minus_one),
                d_q: d.rem(&q_minus_one),
                q_inv,
                p,
                q,
            };
            return Ok(RsaKeyPair {
                public: RsaPublicKey::new(n.clone(), e),
                private: RsaPrivateKey::new(n, d, crt),
            });
        }
        Err(CryptoError::PrimeGenerationFailed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x0FA1_EBF1)
    }

    /// The public operation `m^e mod n`, by the oracle.
    fn public_op(key: &RsaPublicKey, m: &BigUint) -> BigUint {
        m.modpow_reference(&key.exponent, &key.modulus)
    }

    #[test]
    fn rejects_tiny_keys() {
        let mut r = rng();
        match RsaKeyPair::generate(&mut r, 64) {
            Err(CryptoError::KeyTooSmall { requested_bits, .. }) => assert_eq!(requested_bits, 64),
            other => panic!("expected KeyTooSmall, got {other:?}"),
        }
    }

    #[test]
    fn generated_key_has_requested_size() {
        let mut r = rng();
        for bits in [256usize, 257, 320] {
            let pair = RsaKeyPair::generate(&mut r, bits).unwrap();
            // Top-two-bit forcing makes the size exact, not approximate.
            assert_eq!(pair.public.modulus_bits(), bits);
            assert_eq!(pair.public.modulus, pair.private.modulus);
            assert_eq!(pair.private.modulus_bits(), pair.public.modulus_bits());
        }
    }

    #[test]
    fn generated_key_carries_consistent_crt_factors() {
        let mut r = rng();
        let pair = RsaKeyPair::generate(&mut r, 256).unwrap();
        let crt = &pair.private.crt;
        assert_eq!(crt.p.mul(&crt.q), pair.private.modulus);
        let one = BigUint::one();
        assert_eq!(crt.d_p, pair.private.exponent.rem(&crt.p.sub(&one)),);
        assert_eq!(crt.d_q, pair.private.exponent.rem(&crt.q.sub(&one)),);
        assert_eq!(crt.q_inv.mul(&crt.q).rem(&crt.p), one);
    }

    #[test]
    fn encrypt_decrypt_round_trip() {
        let mut r = rng();
        let pair = RsaKeyPair::generate(&mut r, 256).unwrap();
        for value in [0u64, 1, 42, 123_456_789, u64::MAX] {
            let m = BigUint::from_u64(value);
            let c = public_op(&pair.public, &m);
            let back = pair.private.apply(&c);
            assert_eq!(back, m, "round trip failed for {value}");
        }
    }

    #[test]
    fn sign_verify_round_trip() {
        let mut r = rng();
        let pair = RsaKeyPair::generate(&mut r, 256).unwrap();
        let m = BigUint::from_u64(0xDEAD_BEEF_CAFE);
        let sig = pair.private.apply(&m);
        assert_eq!(public_op(&pair.public, &sig), m);
        // A different message does not verify against the same signature.
        assert_ne!(public_op(&pair.public, &sig), BigUint::from_u64(1234));
    }

    #[test]
    fn contexts_warm_up_lazily_and_cloning_keeps_them() {
        let mut r = rng();
        let pair = RsaKeyPair::generate(&mut r, 256).unwrap();
        assert!(!pair.public.context_is_warm());
        assert!(!pair.private.context_is_warm());
        let m = BigUint::from_u64(0xFEED);
        let sig = pair.private.apply(&m);
        let _ = pair.public.montgomery_ctx();
        assert!(pair.public.context_is_warm());
        assert!(pair.private.context_is_warm());
        // Clones share the already-built contexts.
        assert!(pair.public.clone().context_is_warm());
        assert!(pair.private.clone().context_is_warm());
        // Warm and cold keys compare equal and sign identically.
        let cold = RsaPrivateKey::new(
            pair.private.modulus.clone(),
            pair.private.exponent.clone(),
            pair.private.crt.clone(),
        );
        assert_eq!(cold, pair.private);
        assert_eq!(cold.apply(&m), sig);
    }

    #[test]
    fn distinct_keys_for_distinct_draws() {
        let mut r = rng();
        let a = RsaKeyPair::generate(&mut r, 192).unwrap();
        let b = RsaKeyPair::generate(&mut r, 192).unwrap();
        assert_ne!(a.public.modulus, b.public.modulus);
    }

    #[test]
    fn signature_from_wrong_key_fails() {
        let mut r = rng();
        let a = RsaKeyPair::generate(&mut r, 256).unwrap();
        let b = RsaKeyPair::generate(&mut r, 256).unwrap();
        let m = BigUint::from_u64(999_999);
        let sig_by_a = a.private.apply(&m);
        // Verifying with b's public key should not recover m (except with
        // negligible probability).
        assert_ne!(public_op(&b.public, &sig_by_a), m);
    }

    #[test]
    fn keypair_generation_is_seed_deterministic() {
        let mut r1 = StdRng::seed_from_u64(7);
        let mut r2 = StdRng::seed_from_u64(7);
        let a = RsaKeyPair::generate(&mut r1, 192).unwrap();
        let b = RsaKeyPair::generate(&mut r2, 192).unwrap();
        assert_eq!(a.public.modulus, b.public.modulus);
        assert_eq!(a.private.exponent, b.private.exponent);
        assert_eq!(a.private.crt, b.private.crt);
    }

    #[test]
    fn keypair_serde_round_trip() {
        let mut r = rng();
        let pair = RsaKeyPair::generate(&mut r, 192).unwrap();
        let json = serde_json::to_string(&pair).unwrap();
        let back: RsaKeyPair = serde_json::from_str(&json).unwrap();
        assert_eq!(back.public, pair.public);
        assert_eq!(back.private, pair.private);
    }

    #[test]
    fn a_private_key_without_crt_fails_to_deserialize() {
        let pair = RsaKeyPair::generate(&mut rng(), 192).unwrap();
        let (n, d) = (
            pair.private.modulus.to_hex_string(),
            pair.private.exponent.to_hex_string(),
        );
        for json in [
            format!("{{\"modulus\":\"{n}\",\"exponent\":\"{d}\"}}"),
            format!("{{\"modulus\":\"{n}\",\"exponent\":\"{d}\",\"crt\":null}}"),
        ] {
            let err = serde_json::from_str::<RsaPrivateKey>(&json).unwrap_err();
            assert!(err.to_string().contains("`crt`"), "{err}");
        }
    }

    #[test]
    fn an_even_modulus_fails_to_deserialize() {
        let pair = RsaKeyPair::generate(&mut rng(), 192).unwrap();
        let even = pair.public.modulus.add(&BigUint::one()).to_hex_string();
        let exponent = pair.public.exponent.to_hex_string();
        let public = format!("{{\"modulus\":\"{even}\",\"exponent\":\"{exponent}\"}}");
        let err = serde_json::from_str::<RsaPublicKey>(&public).unwrap_err();
        assert!(err.to_string().contains("RSA modulus must be odd"), "{err}");
        let private = format!(
            "{{\"modulus\":\"{even}\",\"exponent\":\"{}\"}}",
            pair.private.exponent.to_hex_string()
        );
        let err = serde_json::from_str::<RsaPrivateKey>(&private).unwrap_err();
        assert!(err.to_string().contains("RSA modulus must be odd"), "{err}");
        // A CRT prime is held to the same rule.
        let mut crt = pair.private.crt.clone();
        crt.q = BigUint::from_u64(2);
        let mut value = pair.private.to_value();
        if let Value::Obj(fields) = &mut value {
            fields[2].1 = crt.to_value();
        }
        let err = RsaPrivateKey::from_value(&value).unwrap_err();
        assert!(err.to_string().contains("CRT prime q must be odd"), "{err}");
    }
}
