//! Pure per-index client derivation for implicit populations.
//!
//! [`PartitionKind::ImplicitIid`](crate::config::PartitionKind) populations
//! are never materialized as a `Vec<Client>`. Instead, client `i`'s shard is
//! a *pure function* of `(seed, i)`: it is drawn from a dedicated RNG stream
//! seeded with `(seed ^ SHARD_STREAM) ^ mix(i)`, where `mix` is the usual
//! golden-ratio multiply used by every per-entity stream in the workspace.
//! Deriving the same index twice — on different machines, in different
//! rounds, or after a cache eviction — always yields byte-identical shards.
//!
//! Two properties make lazy provisioning safe:
//!
//! 1. **Stream isolation.** Shard derivation never touches the learning
//!    stream (`FlConfig.seed` via the engine's round RNG), so a run that
//!    materializes clients eagerly and one that derives them on demand
//!    observe *identical* learning-stream states — results are bit-for-bit
//!    equal.
//! 2. **Statelessness.** The derivation draws a fixed number of values per
//!    index and shares nothing across indices, so any subset of the
//!    population can be provisioned in any order.

use crate::client::Client;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream constant separating shard derivation from the learning
/// (`seed`), key (`seed ^ 0x5EED_0F4B`) and fault (`seed ^ 0xFA17_5EED`)
/// streams.
pub const SHARD_STREAM: u64 = 0x5AAD_D157;

/// Per-index stream mixer shared by every deterministic per-entity stream
/// in the workspace (round seeds, per-client training RNGs, key streams).
#[inline]
pub fn mix_index(index: u64) -> u64 {
    index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Derives client `index`'s shard: `samples_per_client` training-set rows
/// drawn uniformly with replacement from `0..train_len`.
///
/// Pure in `(seed, index)`; panics if the training set is empty or the
/// shard size is zero.
pub fn implicit_shard(
    seed: u64,
    index: u64,
    samples_per_client: usize,
    train_len: usize,
) -> Vec<usize> {
    assert!(
        train_len > 0,
        "implicit shard needs a non-empty training set"
    );
    assert!(samples_per_client > 0, "implicit shard must be non-empty");
    let mut rng = StdRng::seed_from_u64((seed ^ SHARD_STREAM) ^ mix_index(index));
    (0..samples_per_client)
        .map(|_| rng.gen_range(0..train_len))
        .collect()
}

/// Materializes client `index` of an implicit population (honest; the
/// engine designates attackers per round, exactly as for eager clients).
pub fn implicit_client(
    seed: u64,
    index: u64,
    samples_per_client: usize,
    train_len: usize,
) -> Client {
    Client::honest(
        index,
        implicit_shard(seed, index, samples_per_client, train_len),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_pure_and_index_dependent() {
        let a = implicit_shard(7, 3, 16, 100);
        let b = implicit_shard(7, 3, 16, 100);
        assert_eq!(a, b, "same (seed, index) derives the same shard");
        assert_ne!(a, implicit_shard(7, 4, 16, 100), "indices decorrelate");
        assert_ne!(a, implicit_shard(8, 3, 16, 100), "seeds decorrelate");
        assert_eq!(a.len(), 16);
        assert!(a.iter().all(|&s| s < 100));
    }

    #[test]
    fn client_carries_index_as_id() {
        let c = implicit_client(1, 42, 4, 10);
        assert_eq!(c.id, 42);
        assert_eq!(c.sample_count(), 4);
    }

    #[test]
    fn population_can_exceed_dataset() {
        // A million-client population over a 50-row dataset is fine:
        // shards sample with replacement.
        let c = implicit_client(9, 999_999, 8, 50);
        assert!(c.shard.iter().all(|&s| s < 50));
    }

    #[test]
    #[should_panic(expected = "non-empty training set")]
    fn empty_dataset_is_rejected() {
        implicit_shard(0, 0, 4, 0);
    }
}
