//! Procedure-II: uploading the gradient for mining (paper Section 4.2).
//!
//! Each selected client associates with a uniformly random miner and
//! uploads its updated gradient, signed with its RSA private key; the miner
//! verifies the signature against the registered public key before
//! accepting the transaction (Figure 2). Uploads that fail verification are
//! rejected and never enter the round's gradient set — and so is an upload
//! carrying a NaN or infinite coordinate, signed or not: one such value
//! would poison the anchor and the aggregate for every client.
//!
//! Signing and verification are independent across uploads (each client
//! signs with its own key; each miner checks against the registered
//! public key), so the round's crypto fans out across the machine's
//! cores through [`bfl_ml::par`]: miner association is drawn from the
//! round RNG *before* the fan-out and results are stitched back in
//! upload order, so a parallel round is bit-identical to a serial one.
//!
//! Signatures are detached ([`bfl_crypto::signature`]): `sign_update`
//! hashes a client's gradient straight from its `f64`s, and the miner
//! hashes the payload it received the same way, where it lies
//! (`received_envelope`, which is also where the event engine applies an
//! in-transit corruption) — the serialized payload is never
//! materialised, and neither is an envelope. What an upload costs the
//! allocator is its signature's bytes and the accepted copy of its
//! parameters: signing runs in the thread's signing workspace, and every
//! check in the thread's verifier (both `bfl_crypto`'s), which the
//! pool's parked workers keep warm from round to round. Every upload is
//! still signed, hashed twice and verified in full every round; nothing
//! carries a digest or a signature verdict from one check to the next.
//! The finite check is read from the verdict the local pass formed over
//! the vector it returned ([`LocalUpdate::finite`]), so admission does
//! not scan the upload a second time (`finite_verdict`).

use bfl_crypto::{EnvelopeDigest, KeyStore, RsaKeyPair, RsaPrivateKey, Signature};
use bfl_fl::client::LocalUpdate;
use bfl_ml::gradient;
use bfl_ml::par;
use bfl_net::Topology;
use rand::Rng;
use std::collections::BTreeMap;
use std::num::NonZeroU8;

/// An upload accepted by a miner after signature verification.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedUpload {
    /// The uploading client.
    pub client_id: u64,
    /// The miner the client associated with.
    pub miner: usize,
    /// The uploaded parameter vector.
    pub params: Vec<f64>,
    /// Whether the upload was forged by a malicious client (ground truth,
    /// carried only for experiment bookkeeping — the miners cannot see it).
    pub forged: bool,
}

/// Outcome of Procedure-II for one round.
#[derive(Debug, Clone, Default)]
pub struct UploadOutcome {
    /// Uploads that passed verification, grouped per miner.
    pub per_miner: BTreeMap<usize, Vec<VerifiedUpload>>,
    /// Client ids whose uploads failed signature verification or carried
    /// a non-finite coordinate.
    pub rejected: Vec<u64>,
}

impl UploadOutcome {
    /// All accepted uploads across miners, ordered by client id.
    ///
    /// Consumes the outcome so the merge moves the uploads (with their
    /// full parameter vectors) instead of deep-cloning every one.
    pub fn into_all_accepted(self) -> Vec<VerifiedUpload> {
        let mut all: Vec<VerifiedUpload> = self.per_miner.into_values().flatten().collect();
        all.sort_by_key(|u| u.client_id);
        all
    }
}

/// Per-upload verdict of the signing/verification fan-out, in the same
/// order as the round's updates.
enum Verdict {
    Accepted(VerifiedUpload),
    Rejected(u64),
}

/// The client half of Procedure-II: `update`'s owner signs what it is
/// about to send — its id and its gradient's serialized form
/// ([`gradient::to_bytes`]) — with its private key. The bytes are
/// streamed into the digest, never materialised, so the signature equals
/// `sign_detached(update.client_id, &to_bytes(&update.params), key)`.
pub(crate) fn sign_update(update: &LocalUpdate, key: &RsaPrivateKey) -> Signature {
    received_envelope(update, None).sign(key)
}

/// Procedure II's finite check on `update`: the verdict its pass formed.
/// Debug builds scan the parameters again and assert the verdict holds,
/// so every admission a debug test makes re-checks it.
pub(crate) fn finite_verdict(update: &LocalUpdate) -> bool {
    debug_assert_eq!(
        update.finite,
        gradient::all_finite(&update.params),
        "client {}'s finite verdict disagrees with its parameters",
        update.client_id
    );
    update.finite
}

/// An in-transit corruption: `(byte index seed, xor mask)`. The byte at
/// `seed % len` of the serialized payload arrives xored with the mask. A
/// zero mask would corrupt nothing, and saying so in the type lets the
/// `Option` around it live in the mask's niche: 16 bytes of every queued
/// event instead of 24.
pub(crate) type Corruption = (u64, NonZeroU8);

/// The miner's hash of what arrived for `update`: the envelope digest of
/// its id and its serialized gradient, streamed from the `f64`s where
/// they lie, with the byte a `corrupt`ion struck flipped as it streams
/// past. Equal to the envelope digest of the id and
/// [`gradient::to_bytes`]' bytes with that one byte flipped; without a
/// corruption, to what the client signed.
pub(crate) fn received_envelope(
    update: &LocalUpdate,
    corrupt: Option<Corruption>,
) -> EnvelopeDigest {
    let len = 8 * update.params.len();
    let mut flip = corrupt
        .filter(|_| len > 0)
        .map(|(seed, mask)| (seed as usize % len, mask.get()));
    let mut envelope = EnvelopeDigest::new(update.client_id);
    gradient::stream_bytes(&update.params, |bytes| {
        if let Some((at, mask)) = flip {
            match bytes.get_mut(at) {
                Some(byte) => {
                    *byte ^= mask;
                    flip = None;
                }
                None => flip = Some((at - bytes.len(), mask)),
            }
        }
        envelope.update(bytes);
    });
    envelope
}

/// Runs Procedure-II: associates every update with a random miner, signs
/// the payload with the client's key, verifies at the miner, and groups the
/// accepted uploads per miner.
///
/// When `keys`/`keypairs` are `None` signature handling is skipped (the
/// "verification off" ablation) and every finite upload is accepted.
pub fn upload_gradients<R: Rng + ?Sized>(
    updates: &[LocalUpdate],
    topology: &Topology,
    keypairs: Option<&BTreeMap<u64, RsaKeyPair>>,
    keystore: Option<&KeyStore>,
    rng: &mut R,
) -> UploadOutcome {
    let client_ids: Vec<u64> = updates.iter().map(|u| u.client_id).collect();
    let assignment = topology.associate_clients(&client_ids, rng);
    let items: Vec<(&LocalUpdate, usize)> =
        updates.iter().zip(assignment.iter().copied()).collect();

    let verdicts: Vec<Verdict> = match (keypairs, keystore) {
        (Some(pairs), Some(store)) => {
            // One RSA sign plus one verify per upload: the round's serial
            // chain of modexps becomes a parallel batch. Each task only
            // reads shared state (keys, store), and results come back in
            // input order, so acceptance, rejection order and per-miner
            // grouping match the serial loop exactly.
            par::par_map(&items, 1, |_, &(update, miner)| {
                match pairs.get(&update.client_id) {
                    Some(pair) if finite_verdict(update) => {
                        let signature = sign_update(update, &pair.private);
                        let envelope = received_envelope(update, None);
                        let verdict = store.verify_envelope(envelope, &signature);
                        if verdict.is_ok() {
                            Verdict::Accepted(verified(update, miner))
                        } else {
                            Verdict::Rejected(update.client_id)
                        }
                    }
                    _ => Verdict::Rejected(update.client_id),
                }
            })
        }
        // Signature handling off: nothing to compute per upload, so the
        // fan-out would only pay thread overhead.
        _ => items
            .iter()
            .map(|&(update, miner)| {
                if finite_verdict(update) {
                    Verdict::Accepted(verified(update, miner))
                } else {
                    Verdict::Rejected(update.client_id)
                }
            })
            .collect(),
    };

    let mut outcome = UploadOutcome::default();
    for verdict in verdicts {
        match verdict {
            Verdict::Accepted(upload) => outcome
                .per_miner
                .entry(upload.miner)
                .or_default()
                .push(upload),
            Verdict::Rejected(client_id) => outcome.rejected.push(client_id),
        }
    }
    outcome
}

fn verified(update: &LocalUpdate, miner: usize) -> VerifiedUpload {
    VerifiedUpload {
        client_id: update.client_id,
        miner,
        params: update.params.clone(),
        forged: update.forged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_ml::optimizer::LocalTrainingStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `client_id`'s honest upload of `params`, its verdict derived from
    /// them.
    fn update_of(client_id: u64, params: Vec<f64>) -> LocalUpdate {
        let stats = LocalTrainingStats {
            steps: 1,
            final_epoch_loss: 0.5,
        };
        LocalUpdate::new(client_id, params, false, stats)
    }

    fn update(client_id: u64) -> LocalUpdate {
        update_of(client_id, vec![client_id as f64, 1.0, 2.0])
    }

    #[test]
    fn sign_update_streams_the_same_preimage_the_miner_checks() {
        use bfl_crypto::{sha256, sign_detached};
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(13);
        let pairs = store.provision(&mut rng, &[6], 256).unwrap();
        // Longer than one streaming chunk, with a non-trivial tail.
        let sent = update_of(6, (0..1300).map(|i| (i as f64).sin()).collect());

        let signature = sign_update(&sent, &pairs[&6].private);
        let payload = gradient::to_bytes(&sent.params);
        assert_eq!(signature, sign_detached(6, &payload, &pairs[&6].private));
        // What it signed is SHA-256 of `signer ‖ to_bytes(g)`: the public
        // operation recovers exactly that digest.
        let preimage = [&6u64.to_be_bytes()[..], &payload].concat();
        let by_hand = bfl_crypto::BigUint::from_bytes_be(&sha256(&preimage));
        let public = &pairs[&6].public;
        assert_eq!(
            bfl_crypto::BigUint::from_bytes_be(&signature.bytes)
                .modpow_reference(public.exponent(), public.modulus()),
            by_hand.rem(public.modulus())
        );
        store
            .verify_detached(6, &payload, &signature)
            .expect("the miner accepts what the client signed");
        store
            .verify_envelope(received_envelope(&sent, None), &signature)
            .expect("and hashes the same bytes where they lie");
    }

    mod received_envelope_properties {
        use super::*;
        use bfl_crypto::sign_detached;
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn identity() -> &'static (KeyStore, RsaKeyPair) {
            static IDENTITY: OnceLock<(KeyStore, RsaKeyPair)> = OnceLock::new();
            IDENTITY.get_or_init(|| {
                let mut store = KeyStore::new();
                let mut pairs = store
                    .provision(&mut StdRng::seed_from_u64(0xF11B), &[9], 256)
                    .unwrap();
                let pair = pairs.remove(&9).unwrap();
                (store, pair)
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// The miner's streamed hash with a corruption flipped in
            /// flight is the hash of the materialised payload with that
            /// byte flipped — same digest (so the same signature over it),
            /// same verdict — at any index, chunk boundaries included.
            #[test]
            fn a_streamed_corruption_is_the_materialised_one(
                len in 0usize..1300,
                index_seed in any::<u64>(),
                mask in 1u8..=255,
            ) {
                let (store, pair) = identity();
                let sent = update_of(9, (0..len).map(|i| (i as f64 * 0.37).cos()).collect());
                let signature = sign_update(&sent, &pair.private);
                let corrupt = (index_seed, NonZeroU8::new(mask).unwrap());

                let mut flipped = gradient::to_bytes(&sent.params);
                if !flipped.is_empty() {
                    let at = index_seed as usize % flipped.len();
                    flipped[at] ^= mask;
                }
                prop_assert_eq!(
                    received_envelope(&sent, Some(corrupt)).sign(&pair.private),
                    sign_detached(9, &flipped, &pair.private)
                );
                let streamed =
                    store.verify_envelope(received_envelope(&sent, Some(corrupt)), &signature);
                let materialised = store.verify_detached(9, &flipped, &signature);
                prop_assert_eq!(&streamed, &materialised);
                // Only an empty payload has no byte to strike.
                prop_assert_eq!(streamed.is_ok(), len == 0);
            }
        }
    }

    #[test]
    fn unsigned_mode_accepts_everything() {
        let updates: Vec<LocalUpdate> = (0..5).map(update).collect();
        let topology = Topology::new(100, 3);
        let mut rng = StdRng::seed_from_u64(1);
        let outcome = upload_gradients(&updates, &topology, None, None, &mut rng);
        assert!(outcome.rejected.is_empty());
        let all = outcome.into_all_accepted();
        assert_eq!(all.len(), 5);
        // Ordered by client id and assigned to valid miners.
        assert!(all.windows(2).all(|w| w[0].client_id < w[1].client_id));
        assert!(all.iter().all(|u| u.miner < 3));
    }

    /// A pass from a global model holding a NaN: `local_update_as`'s
    /// upload, with the verdict the pass formed.
    fn poisoned_pass(client_id: u64) -> LocalUpdate {
        use bfl_data::{SynthMnist, SynthMnistConfig};
        use bfl_fl::client::Client;
        use bfl_ml::model::ModelKind;
        use bfl_ml::optimizer::LocalTrainingConfig;

        let data = SynthMnist::new(SynthMnistConfig {
            train_samples: 8,
            test_samples: 1,
            noise_std: 0.05,
            max_translation: 1.0,
        })
        .generate_split(8, &mut StdRng::seed_from_u64(4));
        let kind = ModelKind::SoftmaxRegression {
            features: 784,
            classes: 10,
        };
        let mut global = vec![0.0; kind.num_params()];
        global[5] = f64::NAN;
        let config = LocalTrainingConfig {
            epochs: 1,
            batch_size: 4,
            learning_rate: 0.05,
            proximal_mu: 0.0,
        };
        Client::honest(client_id, (0..8).collect()).local_update_as(
            None,
            kind,
            &global,
            &data.features,
            &data.labels,
            &config,
            3,
        )
    }

    /// Both branches refuse a non-finite upload on its verdict, whether
    /// built here or formed by a real pass.
    #[test]
    fn non_finite_uploads_are_rejected_signed_or_not() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = store.provision(&mut rng, &[0, 1, 2, 3], 256).unwrap();
        let updates = [
            update(0),
            update_of(1, vec![1.0, 1.0, f64::NAN]),
            update_of(2, vec![f64::NEG_INFINITY, 1.0, 2.0]),
            poisoned_pass(3),
        ];
        assert!(!updates[3].finite, "the pass's verdict covers its NaNs");
        let topology = Topology::new(100, 2);
        for keys in [None, Some((&pairs, &store))] {
            let outcome = upload_gradients(
                &updates,
                &topology,
                keys.map(|k| k.0),
                keys.map(|k| k.1),
                &mut rng,
            );
            assert_eq!(outcome.rejected, vec![1, 2, 3]);
            let accepted = outcome.into_all_accepted();
            assert_eq!(accepted.len(), 1);
            assert_eq!(accepted[0].client_id, 0);
        }
    }

    /// A verdict that disagrees with its parameters is a bug in whoever
    /// built the update; a debug build's admission catches it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "finite verdict disagrees")]
    fn a_lying_verdict_trips_the_admission_assert() {
        let lying = LocalUpdate {
            finite: true,
            ..update_of(0, vec![1.0, f64::NAN])
        };
        let (topology, mut rng) = (Topology::new(1, 1), StdRng::seed_from_u64(1));
        upload_gradients(&[lying], &topology, None, None, &mut rng);
    }

    #[test]
    fn signed_mode_accepts_registered_clients_and_rejects_unknown() {
        let mut store = KeyStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let pairs = store.provision(&mut rng, &[0, 1, 2], 256).unwrap();

        // Client 4 has no registered key; its upload must be rejected.
        let updates: Vec<LocalUpdate> = vec![update(0), update(1), update(2), update(4)];
        let topology = Topology::new(100, 2);
        let outcome = upload_gradients(&updates, &topology, Some(&pairs), Some(&store), &mut rng);
        assert_eq!(outcome.rejected, vec![4]);
        assert_eq!(outcome.into_all_accepted().len(), 3);
    }

    #[test]
    fn parallel_signed_round_matches_unsigned_grouping() {
        // The signed (parallel) and unsigned (serial) paths must produce
        // the same association and ordering for the same RNG stream —
        // the fan-out may not reorder or drop accepted uploads.
        let mut store = KeyStore::new();
        let mut key_rng = StdRng::seed_from_u64(7);
        let ids: Vec<u64> = (0..12).collect();
        let pairs = store.provision(&mut key_rng, &ids, 256).unwrap();
        let updates: Vec<LocalUpdate> = ids.iter().map(|&id| update(id)).collect();
        let topology = Topology::new(12, 3);

        let mut rng_signed = StdRng::seed_from_u64(42);
        let signed = upload_gradients(
            &updates,
            &topology,
            Some(&pairs),
            Some(&store),
            &mut rng_signed,
        );
        let mut rng_unsigned = StdRng::seed_from_u64(42);
        let unsigned = upload_gradients(&updates, &topology, None, None, &mut rng_unsigned);

        assert!(signed.rejected.is_empty());
        assert_eq!(signed.per_miner.len(), unsigned.per_miner.len());
        for (miner, uploads) in &signed.per_miner {
            assert_eq!(uploads, &unsigned.per_miner[miner], "miner {miner}");
        }
    }

    #[test]
    fn uploads_spread_across_miners() {
        let updates: Vec<LocalUpdate> = (0..200).map(update).collect();
        let topology = Topology::new(200, 4);
        let mut rng = StdRng::seed_from_u64(3);
        let outcome = upload_gradients(&updates, &topology, None, None, &mut rng);
        assert_eq!(
            outcome.per_miner.len(),
            4,
            "all miners should receive some uploads"
        );
        for uploads in outcome.per_miner.values() {
            assert!(uploads.len() > 20);
        }
    }
}
