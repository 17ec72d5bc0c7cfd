//! Hash-then-sign envelope used for gradient uploads.
//!
//! The paper's Procedure-II (Section 4.2) has every client sign its gradient
//! upload with its private key; the receiving miner verifies the signature
//! with the client's registered public key before accepting the transaction
//! (Figure 2). Because the gradient payload is much larger than the RSA
//! modulus, the payload is first hashed with SHA-256 and the digest, reduced
//! modulo `n`, is what gets exponentiated.
//!
//! ## Detached signatures
//!
//! A signature is over `signer ‖ payload` and never needs the two in one
//! buffer: [`EnvelopeDigest`] streams the signer prefix and then the
//! payload — in as many pieces as the caller has it — through the
//! incremental SHA-256, so neither signing nor verifying builds a
//! preimage, copies the payload, or constructs a [`SignedMessage`].
//! [`sign_detached`] / [`BatchVerifier::confirm_detached`] are the
//! primitives for a payload held in one piece. A client that holds its
//! gradient as `f64`s feeds an [`EnvelopeDigest`] chunk by chunk and calls
//! [`EnvelopeDigest::sign`]; a miner hashes what it received the same way
//! and hands the digest to
//! [`KeyStore::verify_envelope`](crate::keystore::KeyStore::verify_envelope).
//! [`sign_message`] and [`BatchVerifier::verify_batch`] serve callers that
//! do want the owning envelope, with identical bytes and decisions.
//!
//! Signing runs in the thread's signing workspace ([`crate::rsa`]): the
//! digest goes into it as limbs and the signature comes out as its
//! bytes, which are the one allocation a warm thread makes per signature.
//!
//! There is one verifier, [`BatchVerifier`], and one verification body,
//! its `confirm_envelope`: every entry point — detached, streamed,
//! batched, or through a [`crate::keystore::KeyStore`] — ends there. A
//! store's single checks borrow the thread's verifier, the way signing
//! borrows the thread's signing workspace; only
//! [`KeyStore::verify_batch`](crate::keystore::KeyStore::verify_batch)
//! and [`BatchVerifier`]'s own methods take one from the caller. It
//! keeps a single [`MontWorkspace`] across a round's uploads (re-fitted
//! only when the key width changes), raises the signature in the key's
//! Montgomery context and compares it with the digest's image without
//! leaving the domain, so once its workspace fits the key it allocates
//! nothing. It refuses a signature whose integer is not below the modulus
//! before exponentiating (RFC 8017's RSAVP1, step 1): `s + n` has the
//! same `e`-th power as `s`, so a verifier that reduced it would accept a
//! second encoding of every signature.
//!
//! The oracle for all of it is the plain exponent through
//! [`BigUint::modpow_reference`](crate::BigUint::modpow_reference) (no
//! CRT, no Montgomery, seed long division): the unit tests below hold
//! every signature to `H(m).modpow_reference(d, n)` and every verdict to
//! `s < n && s.modpow_reference(e, n) == H(m) mod n`, bit for bit.

use crate::bigint::{limb_of_bytes_be, limbs_to_bytes_be};
use crate::error::CryptoError;
use crate::montgomery::MontWorkspace;
use crate::rsa::{RsaPrivateKey, RsaPublicKey};
use crate::sha256::{Digest, Sha256, DIGEST_LEN};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// A detached RSA signature over a SHA-256 digest.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Signature {
    /// Big-endian bytes of the signature integer `s = H(m)^d mod n`.
    pub bytes: Vec<u8>,
}

impl Signature {
    /// Signature length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the signature carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// A payload together with its signer id and signature.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SignedMessage {
    /// Identifier of the signing client.
    pub signer: u64,
    /// The signed payload (already serialized by the caller).
    pub payload: Vec<u8>,
    /// Detached signature over `signer || payload`.
    pub signature: Signature,
}

/// The streaming SHA-256 of a signed envelope's preimage,
/// `signer (8 bytes, big-endian) ‖ payload`. The one place that format
/// lives: every sign and verify path in this module hashes through it.
#[derive(Debug, Clone)]
pub struct EnvelopeDigest {
    signer: u64,
    hasher: Sha256,
}

impl EnvelopeDigest {
    /// Starts the digest of an envelope signed by `signer`.
    pub fn new(signer: u64) -> Self {
        let mut hasher = Sha256::new();
        hasher.update(&signer.to_be_bytes());
        EnvelopeDigest { signer, hasher }
    }

    /// The digest of `signer ‖ payload` for a payload held in one piece.
    pub(crate) fn of(signer: u64, payload: &[u8]) -> Self {
        let mut digest = EnvelopeDigest::new(signer);
        digest.update(payload);
        digest
    }

    /// The signer the envelope names.
    pub(crate) fn signer(&self) -> u64 {
        self.signer
    }

    /// Absorbs the next piece of the payload.
    pub fn update(&mut self, payload_part: &[u8]) {
        self.hasher.update(payload_part);
    }

    fn finalize(self) -> Digest {
        self.hasher.finalize()
    }

    /// Signs the absorbed envelope with `key`: the digest, reduced modulo
    /// `n`, raised to the private exponent. Raw hash-then-sign draws no
    /// randomness, so the same envelope and key always give the same
    /// bytes. The digest goes to the key's private operation as limbs —
    /// reduced modulo `n` on the way, inside the signing workspace — and
    /// the signature's bytes are the only allocation.
    pub fn sign(self, key: &RsaPrivateKey) -> Signature {
        let digest = self.finalize();
        let limbs: [u64; DIGEST_LEN / 8] = std::array::from_fn(|i| limb_of_bytes_be(&digest, i));
        Signature {
            bytes: key.apply_limbs(&limbs, limbs_to_bytes_be),
        }
    }
}

/// Signs `payload` on behalf of `signer` with `key`, returning only the
/// signature: nothing is copied, the payload is only read.
pub fn sign_detached(signer: u64, payload: &[u8], key: &RsaPrivateKey) -> Signature {
    EnvelopeDigest::of(signer, payload).sign(key)
}

/// Signs `payload` on behalf of `signer` with `key`, returning the owning
/// envelope ([`sign_detached`] plus a copy of the payload).
pub fn sign_message(signer: u64, payload: &[u8], key: &RsaPrivateKey) -> SignedMessage {
    SignedMessage {
        signer,
        payload: payload.to_vec(),
        signature: sign_detached(signer, payload, key),
    }
}

/// The signature verifier (see the module docs): one [`MontWorkspace`],
/// re-fitted only when the key width changes, serves every check, and
/// comparisons happen in the Montgomery domain.
#[derive(Debug, Default)]
pub struct BatchVerifier {
    ws: MontWorkspace,
}

impl BatchVerifier {
    /// A fresh verifier with empty (lazily fitted) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Verifies a detached `signature` over `signer ‖ payload` against the
    /// claimed signer's public key.
    pub fn confirm_detached(
        &mut self,
        signer: u64,
        payload: &[u8],
        signature: &Signature,
        key: &RsaPublicKey,
    ) -> Result<(), CryptoError> {
        self.confirm_envelope(EnvelopeDigest::of(signer, payload), signature, key)
    }

    /// Verifies `signature` against an envelope the caller has hashed —
    /// a miner streaming the payload it received into an
    /// [`EnvelopeDigest`] — through the shared workspace: the one
    /// verification body. It refuses a representative not below `n`
    /// (RSAVP1, step 1) and compares `s^e mod n` against the reduced
    /// digest via their (bijective) Montgomery images. Allocates nothing
    /// once the workspace fits the key.
    pub(crate) fn confirm_envelope(
        &mut self,
        envelope: EnvelopeDigest,
        signature: &Signature,
        key: &RsaPublicKey,
    ) -> Result<(), CryptoError> {
        let digest = envelope.finalize();
        if key.modulus().cmp_bytes_be(&signature.bytes) != Ordering::Greater {
            return Err(CryptoError::InvalidSignature);
        }
        let ctx = key.montgomery_ctx();
        ctx.prepare(&mut self.ws);
        ctx.load_bytes_be(&signature.bytes, &mut self.ws);
        ctx.pow_in_place(key.exponent(), &mut self.ws);
        ctx.stash_value(&mut self.ws);
        ctx.load_bytes_be(&digest, &mut self.ws);
        if ctx.value_equals_stash(&self.ws) {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// Verifies a batch, returning one verdict per message in input
    /// order: [`Self::confirm_detached`] on each message's parts.
    pub fn verify_batch(
        &mut self,
        batch: &[(&SignedMessage, &RsaPublicKey)],
    ) -> Vec<Result<(), CryptoError>> {
        batch
            .iter()
            .map(|(message, key)| {
                self.confirm_detached(message.signer, &message.payload, &message.signature, key)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bigint::BigUint;
    use crate::rsa::{CrtFactors, RsaKeyPair};
    use crate::sha256::sha256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair() -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(0x516);
        RsaKeyPair::generate(&mut rng, 256).unwrap()
    }

    /// One message through a fresh verifier.
    fn verify(message: &SignedMessage, key: &RsaPublicKey) -> Result<(), CryptoError> {
        BatchVerifier::new().confirm_detached(
            message.signer,
            &message.payload,
            &message.signature,
            key,
        )
    }

    /// The envelope digest as the integer the oracles start from,
    /// reduced by the seed long division.
    fn reference_digest(signer: u64, payload: &[u8], modulus: &BigUint) -> BigUint {
        BigUint::from_bytes_be(&EnvelopeDigest::of(signer, payload).finalize())
            .div_rem_reference(modulus)
            .1
    }

    /// The oracle verdict, `s < n && s.modpow_reference(e, n) == H(m) mod
    /// n`: no Montgomery arithmetic, no Knuth division.
    fn reference_verdict(
        signer: u64,
        payload: &[u8],
        signature: &Signature,
        key: &RsaPublicKey,
    ) -> Result<(), CryptoError> {
        let (n, s) = (key.modulus(), BigUint::from_bytes_be(&signature.bytes));
        if s < *n && s.modpow_reference(key.exponent(), n) == reference_digest(signer, payload, n) {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }

    /// [`reference_verdict`] on an owning envelope.
    fn reference_verdict_of(
        message: &SignedMessage,
        key: &RsaPublicKey,
    ) -> Result<(), CryptoError> {
        reference_verdict(message.signer, &message.payload, &message.signature, key)
    }

    #[test]
    fn sign_and_verify_round_trip() {
        let pair = keypair();
        let payload = b"gradient bytes for round 7";
        let msg = sign_message(42, payload, &pair.private);
        assert_eq!(msg.signer, 42);
        assert_eq!(msg.payload, payload);
        assert!(!msg.signature.is_empty());
        assert!(msg.signature.len() <= 32);
        verify(&msg, &pair.public).expect("valid signature must verify");
    }

    #[test]
    fn tampered_payload_is_rejected() {
        let pair = keypair();
        let mut msg = sign_message(1, b"honest gradient", &pair.private);
        msg.payload = b"forged gradient".to_vec();
        assert_eq!(
            verify(&msg, &pair.public),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_signer_is_rejected() {
        let pair = keypair();
        let mut msg = sign_message(1, b"honest gradient", &pair.private);
        msg.signer = 2;
        assert_eq!(
            verify(&msg, &pair.public),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn tampered_signature_is_rejected() {
        let pair = keypair();
        let mut msg = sign_message(1, b"honest gradient", &pair.private);
        if let Some(first) = msg.signature.bytes.first_mut() {
            *first ^= 0xff;
        }
        assert_eq!(
            verify(&msg, &pair.public),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn wrong_key_is_rejected() {
        let pair = keypair();
        let mut other_rng = StdRng::seed_from_u64(0x999);
        let other = RsaKeyPair::generate(&mut other_rng, 256).unwrap();
        let msg = sign_message(1, b"payload", &pair.private);
        assert_eq!(
            verify(&msg, &other.public),
            Err(CryptoError::InvalidSignature)
        );
    }

    #[test]
    fn a_representative_at_or_above_the_modulus_is_rejected() {
        use crate::keystore::KeyStore;
        for (bits, seed) in [(256usize, 0x5A7u64), (1024, 0x5A8)] {
            let pair = RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), bits).unwrap();
            let mut store = KeyStore::new();
            store.register(3, pair.public.clone());
            let payload = b"one gradient, one encoding";
            let signature = sign_detached(3, payload, &pair.private);
            let (n, e) = (pair.public.modulus(), pair.public.exponent());
            let lifted = Signature {
                bytes: BigUint::from_bytes_be(&signature.bytes)
                    .add(n)
                    .to_bytes_be(),
            };
            let at_n = Signature {
                bytes: n.to_bytes_be(),
            };
            // `s + n` raises to exactly what `s` does: only the range
            // check tells them apart.
            assert_eq!(
                BigUint::from_bytes_be(&lifted.bytes).modpow_reference(e, n),
                BigUint::from_bytes_be(&signature.bytes).modpow_reference(e, n)
            );
            let mut verifier = BatchVerifier::new();
            let verdicts = |signature: &Signature, verifier: &mut BatchVerifier| {
                [
                    reference_verdict(3, payload, signature, &pair.public),
                    verifier.confirm_detached(3, payload, signature, &pair.public),
                    store.verify_detached(3, payload, signature),
                ]
            };
            assert_eq!(
                verdicts(&signature, &mut verifier),
                [Ok(()), Ok(()), Ok(())]
            );
            // Leading zero bytes do not change the representative.
            let padded = Signature {
                bytes: [&[0u8, 0][..], &signature.bytes].concat(),
            };
            assert_eq!(verdicts(&padded, &mut verifier), [Ok(()), Ok(()), Ok(())]);
            let refused = || Err(CryptoError::InvalidSignature);
            for forged in [&lifted, &at_n] {
                let expected = [refused(), refused(), refused()];
                assert_eq!(verdicts(forged, &mut verifier), expected, "{bits} bits");
            }
        }
    }

    #[test]
    fn empty_payload_is_signable() {
        let pair = keypair();
        let msg = sign_message(9, b"", &pair.private);
        verify(&msg, &pair.public).unwrap();
    }

    /// A "reversed" pair: signing uses the short exponent 65537,
    /// verification the full-size exponent `d` — a valid RSA relation
    /// that drives the verifier's windowed exponentiation over a long
    /// exponent, where every generated key has the 17-bit 65537. The
    /// signer is a CRT key for `e`: `d_p = e mod (p - 1)`, `d_q = e mod
    /// (q - 1)`.
    fn long_exponent_pair() -> (RsaPrivateKey, RsaPublicKey) {
        let mut rng = StdRng::seed_from_u64(0xB47C);
        let pair = RsaKeyPair::generate(&mut rng, 256).unwrap();
        let (e, crt, one) = (pair.public.exponent(), pair.private.crt(), BigUint::one());
        let signer = RsaPrivateKey::new(
            pair.public.modulus().clone(),
            e.clone(),
            CrtFactors {
                d_p: e.rem(&crt.p.sub(&one)),
                d_q: e.rem(&crt.q.sub(&one)),
                ..crt.clone()
            },
        );
        let verifier = RsaPublicKey::new(
            pair.private.modulus().clone(),
            pair.private.exponent().clone(),
        );
        (signer, verifier)
    }

    #[test]
    fn batch_confirm_matches_one_shot_decisions() {
        let pair = keypair();
        let other = {
            let mut rng = StdRng::seed_from_u64(0x717);
            RsaKeyPair::generate(&mut rng, 320).unwrap()
        };
        let mut verifier = BatchVerifier::new();
        // Valid, tampered, and cross-width messages — the shared
        // workspace re-fits between the 256- and 320-bit keys.
        let valid = sign_message(1, b"round 9 gradient", &pair.private);
        let mut tampered = sign_message(2, b"honest", &pair.private);
        tampered.payload = b"forged".to_vec();
        let wide = sign_message(3, b"wide key upload", &other.private);
        for (msg, key) in [
            (&valid, &pair.public),
            (&tampered, &pair.public),
            (&wide, &other.public),
            (&valid, &other.public),
        ] {
            assert_eq!(
                verifier.confirm_detached(msg.signer, &msg.payload, &msg.signature, key),
                reference_verdict_of(msg, key)
            );
        }
    }

    /// ("Both engine modes" in the name dates from the process-wide
    /// reference-arithmetic switch; one mode remains, and the name stays
    /// so the test keeps its id.)
    #[test]
    fn verify_batch_matches_per_upload_in_both_engine_modes() {
        let pair = keypair();
        let mut msgs: Vec<SignedMessage> = (0..6)
            .map(|i| sign_message(i, format!("upload {i}").as_bytes(), &pair.private))
            .collect();
        // Corrupt two of them (payload byte flip and signature byte flip).
        msgs[1].payload[0] ^= 0x40;
        if let Some(b) = msgs[4].signature.bytes.first_mut() {
            *b ^= 0x01;
        }
        let batch: Vec<(&SignedMessage, &RsaPublicKey)> =
            msgs.iter().map(|m| (m, &pair.public)).collect();
        let got = BatchVerifier::new().verify_batch(&batch);
        let expected: Vec<_> = batch
            .iter()
            .map(|(m, k)| reference_verdict_of(m, k))
            .collect();
        assert_eq!(got, expected);
        assert!(got[1].is_err() && got[4].is_err());
        assert_eq!(got.iter().filter(|verdict| verdict.is_ok()).count(), 4);
    }

    #[test]
    fn signed_message_serde_round_trip() {
        let pair = keypair();
        let msg = sign_message(5, b"serialize me", &pair.private);
        let json = serde_json::to_string(&msg).unwrap();
        let back: SignedMessage = serde_json::from_str(&json).unwrap();
        assert_eq!(back, msg);
        verify(&back, &pair.public).unwrap();
    }

    #[test]
    fn envelope_digest_is_sha256_of_signer_then_payload_however_it_is_fed() {
        let payload: Vec<u8> = (0..300u32).map(|i| (i * 7 + 3) as u8).collect();
        let mut preimage = 0xDEAD_BEEF_u64.to_be_bytes().to_vec();
        preimage.extend_from_slice(&payload);
        let expected = sha256(&preimage);
        assert_eq!(
            EnvelopeDigest::of(0xDEAD_BEEF, &payload).finalize(),
            expected
        );
        for piece in [1usize, 7, 56, 64, 299, 300] {
            let mut digest = EnvelopeDigest::new(0xDEAD_BEEF);
            payload.chunks(piece).for_each(|part| digest.update(part));
            assert_eq!(digest.hasher.finalize(), expected, "piece = {piece}");
        }
    }

    /// The detached API against the envelope API it now underlies, and
    /// both against the seed path (`modpow_reference` over the plain
    /// exponent, no CRT, no Montgomery): same signature bytes, same
    /// verdict, for every way a check can fail.
    fn assert_detached_matches_envelope(
        signer: u64,
        payload: &[u8],
        private: &RsaPrivateKey,
        public: &RsaPublicKey,
        other: &RsaPublicKey,
    ) {
        let envelope = sign_message(signer, payload, private);
        let signature = sign_detached(signer, payload, private);
        assert_eq!(envelope.signature, signature);
        assert_eq!(envelope.payload, payload);
        let mut streamed = EnvelopeDigest::new(signer);
        payload.chunks(61).for_each(|part| streamed.update(part));
        assert_eq!(streamed.sign(private), signature);
        assert_eq!(
            BigUint::from_bytes_be(&signature.bytes),
            reference_digest(signer, payload, private.modulus())
                .modpow_reference(private.exponent(), private.modulus())
        );

        let mut tampered_payload = payload.to_vec();
        match tampered_payload.last_mut() {
            Some(last) => *last ^= 0x10,
            None => tampered_payload.push(0),
        }
        let mut tampered_signature = signature.clone();
        match tampered_signature.bytes.first_mut() {
            Some(first) => *first ^= 0x01,
            None => tampered_signature.bytes.push(1),
        }
        let mut verifier = BatchVerifier::new();
        for (case, signer, payload, signature, key, ok) in [
            ("valid", signer, payload, &signature, public, true),
            (
                "payload",
                signer,
                &tampered_payload[..],
                &signature,
                public,
                false,
            ),
            ("signer", signer ^ 1, payload, &signature, public, false),
            (
                "signature",
                signer,
                payload,
                &tampered_signature,
                public,
                false,
            ),
            ("wrong key", signer, payload, &signature, other, false),
        ] {
            let message = SignedMessage {
                signer,
                payload: payload.to_vec(),
                signature: signature.clone(),
            };
            let expected = reference_verdict_of(&message, key);
            assert_eq!(expected.is_ok(), ok, "{case}");
            assert_eq!(
                verifier.confirm_detached(signer, payload, signature, key),
                expected,
                "{case}"
            );
            assert_eq!(
                verifier.verify_batch(&[(&message, key)]),
                [expected],
                "{case}"
            );
        }
    }

    #[test]
    fn detached_matches_envelope_at_block_boundaries_and_upload_size() {
        let pair = keypair();
        let other = {
            let mut rng = StdRng::seed_from_u64(0x0DD);
            RsaKeyPair::generate(&mut rng, 256).unwrap()
        };
        // The 8-byte signer prefix shifts SHA-256's padding boundaries:
        // 47/48 and 55/56 payload bytes straddle the one- and two-block
        // paddings; 62 800 is a 7850-parameter upload.
        for len in [0usize, 1, 47, 48, 55, 56, 57, 63, 64, 119, 120, 128, 62_800] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 + len) as u8).collect();
            assert_detached_matches_envelope(
                len as u64,
                &payload,
                &pair.private,
                &pair.public,
                &other.public,
            );
        }
    }

    mod batch_equivalence_properties {
        use super::*;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        /// Two key pairs shared across proptest cases (keygen is the
        /// expensive part): a standard short-exponent pair and a reversed
        /// long-exponent pair.
        fn shared_pairs() -> &'static [(RsaPrivateKey, RsaPublicKey); 2] {
            static PAIRS: OnceLock<[(RsaPrivateKey, RsaPublicKey); 2]> = OnceLock::new();
            PAIRS.get_or_init(|| {
                let standard = {
                    let mut rng = StdRng::seed_from_u64(0xBA7C4);
                    let pair = RsaKeyPair::generate(&mut rng, 256).unwrap();
                    (pair.private, pair.public)
                };
                [standard, long_exponent_pair()]
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Detached signing and verification agree with the envelope
            /// forms on arbitrary payloads and signers, under both key
            /// regimes.
            #[test]
            fn detached_equals_envelope_for_arbitrary_payloads(
                payload in proptest::collection::vec(any::<u8>(), 0..200),
                signer in any::<u64>(),
                key_choice in any::<bool>(),
            ) {
                let pairs = shared_pairs();
                let (private, public) = &pairs[usize::from(key_choice)];
                let (_, other) = &pairs[usize::from(!key_choice)];
                assert_detached_matches_envelope(signer, &payload, private, public, other);
            }

            /// Batched verification reaches exactly the per-upload
            /// oracle verdicts for arbitrary accept/reject
            /// mixes — corrupted payload bytes and corrupted signature
            /// bytes included — under short- and long-exponent keys.
            #[test]
            fn verify_batch_equals_per_upload_for_arbitrary_mixes(
                payloads in proptest::collection::vec(
                    proptest::collection::vec(any::<u8>(), 1..48), 1..7),
                corrupt_sig in proptest::collection::vec(any::<bool>(), 0..4),
                corrupt_at in proptest::collection::vec(any::<usize>(), 0..4),
                corrupt_flip in proptest::collection::vec(1u8..=255, 0..4),
                key_choice in any::<bool>(),
            ) {
                let (private, public) = &shared_pairs()[usize::from(key_choice)];
                let mut msgs: Vec<SignedMessage> = payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| sign_message(i as u64, p, private))
                    .collect();
                let strikes = corrupt_sig.len().min(corrupt_at.len()).min(corrupt_flip.len());
                for ((&in_signature, &index_seed), &flip) in corrupt_sig
                    .iter()
                    .zip(&corrupt_at)
                    .zip(&corrupt_flip)
                    .take(strikes)
                {
                    let victim = index_seed % msgs.len();
                    let bytes = if in_signature {
                        &mut msgs[victim].signature.bytes
                    } else {
                        &mut msgs[victim].payload
                    };
                    if !bytes.is_empty() {
                        let at = index_seed % bytes.len();
                        bytes[at] ^= flip;
                    }
                }
                let batch: Vec<(&SignedMessage, &RsaPublicKey)> =
                    msgs.iter().map(|m| (m, public)).collect();
                let expected: Vec<_> =
                    batch.iter().map(|(m, k)| reference_verdict_of(m, k)).collect();
                let got = BatchVerifier::new().verify_batch(&batch);
                prop_assert_eq!(got, expected);
            }
        }
    }
}
