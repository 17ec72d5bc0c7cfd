//! Miner-side registry of client public keys, and the vault that assigns
//! them.
//!
//! In FAIR-BFL "each client is assigned a unique private key according to
//! its ID, and the corresponding public key will be held by the miners"
//! (Section 4.2). The [`KeyVault`] is the assignment: client `id`'s pair is
//! a pure function of the run's key seed and `id`, whether a run derives
//! the whole population up front or each client on first selection. The
//! [`KeyStore`] is the holding structure: it maps client identifiers to
//! public keys and offers a single verification entry point so the chain
//! and core crates never handle raw key material directly.

use crate::error::CryptoError;
use crate::rsa::{RsaKeyPair, RsaPublicKey};
use crate::signature::{BatchVerifier, EnvelopeDigest, Signature, SignedMessage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;

thread_local! {
    /// This thread's verifier for [`KeyStore::verify_envelope`] and
    /// [`KeyStore::verify_detached`].
    static VERIFIER: RefCell<BatchVerifier> = RefCell::default();
}

/// Registry mapping client ids to their RSA public keys.
///
/// Serializable so a miner's registry can be persisted and restored
/// alongside the chain state. Each held [`RsaPublicKey`] carries its
/// lazily-built Montgomery context (see [`crate::rsa::MontCache`]), so
/// the per-modulus precomputation is paid once per registered key, not
/// once per verified upload; the caches never enter the serialized form.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeyStore {
    keys: BTreeMap<u64, RsaPublicKey>,
}

impl KeyStore {
    /// Creates an empty key store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) the public key for `client_id`.
    pub fn register(&mut self, client_id: u64, key: RsaPublicKey) {
        self.keys.insert(client_id, key);
    }

    /// Removes a client's key, returning it if present.
    pub fn revoke(&mut self, client_id: u64) -> Option<RsaPublicKey> {
        self.keys.remove(&client_id)
    }

    /// Looks up the public key registered for `client_id`.
    pub fn public_key(&self, client_id: u64) -> Option<&RsaPublicKey> {
        self.keys.get(&client_id)
    }

    /// Number of registered clients.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when no keys are registered.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterates over registered `(client_id, public_key)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &RsaPublicKey)> {
        self.keys.iter()
    }

    /// Verifies a detached `signature` over `signer ‖ payload` against
    /// the key registered for `signer`, through the thread's verifier:
    /// the miner-side check for an upload whose payload and signature
    /// travel separately.
    pub fn verify_detached(
        &self,
        signer: u64,
        payload: &[u8],
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        self.verify_envelope(EnvelopeDigest::of(signer, payload), signature)
    }

    /// Verifies `signature` against an envelope the miner hashed as the
    /// payload arrived, with the key registered for the signer the
    /// envelope names. Decisions are [`KeyStore::verify_detached`]'s on
    /// the payload held in one piece. The check runs in the thread's
    /// [`BatchVerifier`], kept here the way signing keeps its workspace
    /// ([`crate::rsa`]): pure scratch that every check re-fits and
    /// reloads, so a thread whose verifier fits the key allocates
    /// nothing.
    pub fn verify_envelope(
        &self,
        envelope: EnvelopeDigest,
        signature: &Signature,
    ) -> Result<(), CryptoError> {
        let signer = envelope.signer();
        let key = self
            .keys
            .get(&signer)
            .ok_or(CryptoError::UnknownSigner(signer))?;
        VERIFIER.with_borrow_mut(|verifier| verifier.confirm_envelope(envelope, signature, key))
    }

    /// Verifies a slice of signed messages as a batch, returning one
    /// verdict per message in input order. Unknown signers are reported
    /// per slot; the known-signer remainder goes through
    /// [`BatchVerifier::verify_batch`], every per-message decision
    /// identical to [`KeyStore::verify_detached`] on its parts.
    pub fn verify_batch(
        &self,
        messages: &[&SignedMessage],
        verifier: &mut BatchVerifier,
    ) -> Vec<Result<(), CryptoError>> {
        let mut results: Vec<Option<Result<(), CryptoError>>> =
            messages.iter().map(|_| None).collect();
        let mut known = Vec::with_capacity(messages.len());
        let mut known_slots = Vec::with_capacity(messages.len());
        for (slot, message) in messages.iter().enumerate() {
            match self.keys.get(&message.signer) {
                Some(key) => {
                    known.push((*message, key));
                    known_slots.push(slot);
                }
                None => results[slot] = Some(Err(CryptoError::UnknownSigner(message.signer))),
            }
        }
        for (slot, verdict) in known_slots.into_iter().zip(verifier.verify_batch(&known)) {
            results[slot] = Some(verdict);
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot receives a verdict"))
            .collect()
    }

    /// Convenience setup: generates key pairs for `client_ids` in order from
    /// one `rng`, registers the public halves, and returns the private
    /// pairs keyed by client id. Simulation runs derive their keys per id
    /// through a [`KeyVault`] instead.
    pub fn provision<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        client_ids: &[u64],
        modulus_bits: usize,
    ) -> Result<BTreeMap<u64, RsaKeyPair>, CryptoError> {
        let mut pairs = BTreeMap::new();
        for &id in client_ids {
            let pair = RsaKeyPair::generate(rng, modulus_bits)?;
            self.register(id, pair.public.clone());
            pairs.insert(id, pair);
        }
        Ok(pairs)
    }
}

/// Deterministic per-id key provisioning: every signing run's identities.
///
/// ## The key-vault contract
///
/// [`KeyStore::provision`] draws every client's key material
/// *sequentially* from one RNG, so client `i`'s key depends on all keys
/// generated before it. The vault instead gives every client its **own**
/// key stream, following the paper's rule that each client's private key
/// is assigned "according to its ID":
///
/// ```text
/// stream(id) = StdRng::seed_from_u64(key_seed ^ (id · 0x9E37_79B9_7F4A_7C15))
/// ```
///
/// where `key_seed` is the run's key-stream seed (the engine passes
/// `fl.seed ^ 0x5EED_0F4B`) and the golden-ratio multiply is the
/// per-entity mixer shared with round seeds and per-client training RNGs.
/// Every RSA draw for client `id` — prime candidates, Miller–Rabin
/// witnesses — comes from `stream(id)` and nothing else, which yields the
/// guarantees both provisioning budgets rest on:
///
/// 1. **Rederivation is identity.** Evicting a pair and deriving it again
///    replays the same stream from the same seed, so the regenerated pair
///    is byte-identical; the cache is a pure memoization and its budget or
///    eviction order can never change results — or key bytes. A vault
///    filled up front (the engine's eager budget, the whole population)
///    and one filled on first selection hold the same pair for every id.
/// 2. **Stream isolation.** No draw touches the learning or fault
///    streams, so a run's learning-stream states do not depend on the
///    budget, or on whether it signs at all.
///
/// The cache keeps at most `budget` private pairs, evicting the least
/// recently *used* pair (touch = signing lookup or `ensure`). Evicted
/// public keys leave the embedded [`KeyStore`] too, keeping the registry
/// O(budget); a later re-selection simply re-registers the identical key.
/// A touch of a cached id only rewrites its stamp, so it allocates
/// nothing; eviction, which only a miss over budget triggers, scans the
/// cache for the smallest stamp.
#[derive(Debug, Clone)]
pub struct KeyVault {
    key_seed: u64,
    modulus_bits: usize,
    budget: usize,
    store: KeyStore,
    pairs: BTreeMap<u64, RsaKeyPair>,
    /// LRU bookkeeping: the monotone touch stamp of every cached id.
    last_touch: BTreeMap<u64, u64>,
    next_tick: u64,
}

impl KeyVault {
    /// Creates a vault deriving `modulus_bits` keys from `key_seed`,
    /// caching at most `budget` pairs (at least one).
    pub fn new(key_seed: u64, modulus_bits: usize, budget: usize) -> Self {
        KeyVault {
            key_seed,
            modulus_bits,
            budget: budget.max(1),
            store: KeyStore::new(),
            pairs: BTreeMap::new(),
            last_touch: BTreeMap::new(),
            next_tick: 0,
        }
    }

    /// The registry of currently-cached public keys (what a miner holds).
    pub fn store(&self) -> &KeyStore {
        &self.store
    }

    /// Currently-cached private pairs, keyed by client id.
    pub fn pairs(&self) -> &BTreeMap<u64, RsaKeyPair> {
        &self.pairs
    }

    /// Derives client `id`'s key pair from its per-index stream. Pure in
    /// `(key_seed, id, modulus_bits)` — see the type-level contract.
    pub fn derive(key_seed: u64, id: u64, modulus_bits: usize) -> Result<RsaKeyPair, CryptoError> {
        let mut rng = StdRng::seed_from_u64(key_seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        RsaKeyPair::generate(&mut rng, modulus_bits)
    }

    /// Ensures client `id`'s pair is cached (deriving it on a miss) and
    /// returns a reference to it, marking it most recently used.
    pub fn pair(&mut self, id: u64) -> Result<&RsaKeyPair, CryptoError> {
        let tick = self.next_tick;
        self.next_tick += 1;
        if let Some(stamp) = self.last_touch.get_mut(&id) {
            *stamp = tick;
        } else {
            let pair = Self::derive(self.key_seed, id, self.modulus_bits)?;
            if self.pairs.len() == self.budget {
                // Full: the least recently used pair, the smallest stamp, goes.
                let (&victim, _) = self.last_touch.iter().min_by_key(|&(_, &t)| t).unwrap();
                self.last_touch.remove(&victim);
                self.pairs.remove(&victim);
                self.store.revoke(victim);
            }
            self.store.register(id, pair.public.clone());
            self.pairs.insert(id, pair);
            self.last_touch.insert(id, tick);
        }
        Ok(&self.pairs[&id])
    }

    /// Ensures every id in `ids` is cached. With `budget >= ids.len()` the
    /// whole set survives until the next provisioning wave.
    pub fn ensure(&mut self, ids: &[u64]) -> Result<(), CryptoError> {
        for &id in ids {
            self.pair(id)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::sign_message;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `message` checked against `store` through the thread's verifier.
    fn verify(store: &KeyStore, message: &SignedMessage) -> Result<(), CryptoError> {
        store.verify_detached(message.signer, &message.payload, &message.signature)
    }

    #[test]
    fn provision_registers_all_clients() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let pairs = store.provision(&mut rng, &[0, 1, 2, 3], 192).unwrap();
        assert_eq!(store.len(), 4);
        assert_eq!(pairs.len(), 4);
        assert!(!store.is_empty());
        for id in 0..4u64 {
            assert!(store.public_key(id).is_some());
        }
        assert!(store.public_key(99).is_none());
    }

    #[test]
    fn verify_accepts_registered_signers_and_rejects_unknown() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let pairs = store.provision(&mut rng, &[10, 20], 256).unwrap();

        let msg = sign_message(10, b"local gradient", &pairs[&10].private);
        verify(&store, &msg).expect("registered signer verifies");

        let unknown = sign_message(30, b"ghost", &pairs[&10].private);
        assert_eq!(
            verify(&store, &unknown),
            Err(CryptoError::UnknownSigner(30))
        );
    }

    #[test]
    fn verify_rejects_cross_client_forgery() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(3);
        let pairs = store.provision(&mut rng, &[1, 2], 256).unwrap();
        // Client 2 signs but claims to be client 1.
        let forged = sign_message(1, b"poisoned gradient", &pairs[&2].private);
        assert_eq!(verify(&store, &forged), Err(CryptoError::InvalidSignature));
    }

    #[test]
    fn revoke_removes_keys() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let pairs = store.provision(&mut rng, &[7], 192).unwrap();
        assert!(store.revoke(7).is_some());
        assert!(store.revoke(7).is_none());
        let msg = sign_message(7, b"late upload", &pairs[&7].private);
        assert_eq!(verify(&store, &msg), Err(CryptoError::UnknownSigner(7)));
    }

    #[test]
    fn serde_round_trip_preserves_verification() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(6);
        let pairs = store.provision(&mut rng, &[2, 4], 192).unwrap();
        let json = serde_json::to_string(&store).unwrap();
        let restored: KeyStore = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.len(), 2);
        let msg = sign_message(4, b"gradient", &pairs[&4].private);
        verify(&restored, &msg).expect("restored store verifies");
    }

    #[test]
    fn verify_batch_mixes_unknown_signers_with_batch_verdicts() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(8);
        let pairs = store.provision(&mut rng, &[1, 2], 256).unwrap();
        let good = sign_message(1, b"gradient", &pairs[&1].private);
        let ghost = sign_message(9, b"ghost", &pairs[&1].private);
        let mut forged = sign_message(2, b"gradient", &pairs[&2].private);
        forged.payload = b"poisoned".to_vec();
        let batch = [&good, &ghost, &forged];
        let verdicts = store.verify_batch(&batch, &mut BatchVerifier::new());
        let singles: Vec<_> = batch.iter().map(|m| verify(&store, m)).collect();
        assert_eq!(verdicts, singles);
        assert_eq!(verdicts[0], Ok(()));
        assert_eq!(verdicts[1], Err(CryptoError::UnknownSigner(9)));
        assert_eq!(verdicts[2], Err(CryptoError::InvalidSignature));
    }

    #[test]
    fn lazy_vault_rederives_identical_pairs_after_eviction() {
        let mut vault = KeyVault::new(0xBF1 ^ 0x5EED_0F4B, 192, 2);
        let sig = {
            let pair = vault.pair(7).unwrap();
            sign_message(7, b"gradient", &pair.private)
        };
        // Push id 7 out of the budget-2 cache.
        vault.pair(8).unwrap();
        vault.pair(9).unwrap();
        assert_eq!(vault.pairs().len(), 2);
        assert!(vault.pairs().get(&7).is_none(), "7 was evicted");
        assert!(vault.store().public_key(7).is_none(), "revoked with it");
        // Rederivation is identity: the old signature verifies against the
        // regenerated public key.
        vault.pair(7).unwrap();
        verify(vault.store(), &sig).expect("rederived key matches");
    }

    #[test]
    fn lazy_vault_evicts_least_recently_used() {
        let mut vault = KeyVault::new(11, 192, 2);
        vault.pair(1).unwrap();
        vault.pair(2).unwrap();
        vault.pair(1).unwrap(); // touch 1 → 2 is now LRU
        vault.pair(3).unwrap();
        assert!(vault.pairs().contains_key(&1));
        assert!(!vault.pairs().contains_key(&2));
        assert!(vault.pairs().contains_key(&3));
        assert_eq!(vault.store().len(), 2);
    }

    #[test]
    fn lazy_vault_streams_are_independent_of_derivation_order() {
        let mut forward = KeyVault::new(5, 192, 8);
        let mut backward = KeyVault::new(5, 192, 8);
        forward.ensure(&[1, 2, 3]).unwrap();
        backward.ensure(&[3, 2, 1]).unwrap();
        for id in 1..=3u64 {
            let a = sign_message(id, b"m", &forward.pairs()[&id].private);
            verify(backward.store(), &a).expect("order-independent keys");
        }
    }

    #[test]
    fn iter_is_ordered_by_client_id() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        store.provision(&mut rng, &[5, 1, 3], 192).unwrap();
        let ids: Vec<u64> = store.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }
}
