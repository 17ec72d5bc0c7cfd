//! # bfl-crypto
//!
//! Cryptographic substrate for the FAIR-BFL reproduction.
//!
//! The FAIR-BFL protocol (Section 4.2 of the paper) signs every gradient
//! upload with the client's RSA private key so that miners can verify the
//! sender's identity and detect tampering before a local gradient enters
//! the round's gradient set. The blockchain substrate additionally needs a
//! cryptographic hash for block linkage, Merkle roots and proof-of-work.
//!
//! This crate implements those primitives from scratch, with no external
//! cryptography dependencies:
//!
//! * [`mod@sha256`] — the FIPS 180-4 SHA-256 compression function with both
//!   one-shot and incremental interfaces; `Clone` on the incremental
//!   hasher exposes midstates, which the PoW loop exploits to hash one
//!   padded block per nonce. On x86-64 with the SHA extensions the
//!   compression dispatches to the hardware instruction sequence.
//! * [`bigint`] — arbitrary-precision unsigned integers ([`BigUint`])
//!   over 64-bit limbs with `u128` intermediates: schoolbook
//!   multiplication, word-level Knuth Algorithm D division, and a minimal
//!   signed wrapper used by the extended Euclidean algorithm.
//! * [`montgomery`] — REDC-based modular multiplication (64-bit CIOS)
//!   and fixed-window exponentiation in a reusable workspace: the one
//!   modular exponentiation every signature, verification and
//!   Miller-Rabin witness runs.
//! * [`prime`] — Miller-Rabin probabilistic primality testing (Montgomery
//!   accelerated, grouped small-prime trial division) and random prime
//!   generation.
//! * [`rsa`] — RSA key generation and the private-key operation; private
//!   keys carry CRT factors so signing runs two half-size
//!   exponentiations, both key types cache their per-modulus Montgomery
//!   contexts across operations, and a key refuses an even modulus.
//! * [`signature`] — the hash-then-sign envelope used by the protocol and
//!   its one verifier, [`BatchVerifier`].
//! * [`keystore`] — the miner-side registry mapping client identifiers to
//!   public keys, and the [`KeyVault`] that derives each client's pair
//!   from its id.
//!
//! Each operation has one implementation. The seed implementations the
//! fast paths replaced stay as oracles — plain functions no production
//! path calls: [`BigUint::div_rem_reference`] (binary long division) and
//! [`BigUint::modpow_reference`] (square-and-multiply over it, which is
//! also plain-exponent RSA signing and verification).
//! `tests/crypto_equivalence.rs` compares every fast path against them
//! bit for bit; nothing in this crate switches behaviour at run time.
//!
//! The implementation favours determinism and measured speed; it is a
//! faithful protocol substrate for a simulation, **not** a hardened
//! production cryptography library (no constant-time guarantees, no
//! padding standards such as PSS/OAEP).

#![warn(missing_docs)]

pub mod bigint;
pub mod error;
pub mod keystore;
pub mod montgomery;
pub mod prime;
pub mod rsa;
pub mod sha256;
pub mod signature;

pub use bigint::BigUint;
pub use error::CryptoError;
pub use keystore::{KeyStore, KeyVault};
pub use montgomery::{MontWorkspace, MontgomeryCtx};
pub use rsa::{CrtFactors, RsaKeyPair, RsaPrivateKey, RsaPublicKey};
pub use sha256::{sha256, Sha256};
pub use signature::{
    sign_detached, sign_message, BatchVerifier, EnvelopeDigest, Signature, SignedMessage,
};
