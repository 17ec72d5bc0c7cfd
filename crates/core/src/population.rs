//! O(participants) client state for population-scale rounds.
//!
//! [`ClientPool`] is the engine's view of the client population. The
//! materialized backend is the PR 4–6 `Vec<Client>`, built eagerly by
//! `FlTrainer::build_clients`. The implicit backend holds **no** per-client
//! state: client `i` is a pure function of the run seed
//! ([`bfl_fl::implicit`]), derived wherever it is asked for and dropped
//! after use, so memory scales with the participants a round actually
//! touches rather than the configured population — whatever the
//! provisioning mode, which sizes only the key vault.
//!
//! The round engines ask the pool two questions and never which backend
//! answers them. [`ClientPool::select`] is Procedure I's selection: up to
//! `count` distinct eligible indices, sorted — the shuffle-truncate draw
//! over the eligible indices when materialized, [`sample_population`]'s
//! rejection sampling (no population-sized vector) when implicit.
//! [`ClientPool::working_set`] lends the clients a selection trains: the
//! population slice itself when materialized, exactly the selected clients
//! — derived, O(participants) — when implicit.

use bfl_fl::implicit::implicit_client;
use bfl_fl::selection::select_clients;
use bfl_fl::Client;
use rand::rngs::StdRng;
use rand::Rng;
use std::borrow::Cow;
use std::collections::BTreeSet;

/// Parameters an implicit population derives clients from.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ImplicitSpec {
    /// Run seed the shard streams key off.
    pub seed: u64,
    /// Configured population size.
    pub population: usize,
    /// Shard size per client (sampled with replacement).
    pub samples_per_client: usize,
    /// Training-set length the shards index into.
    pub train_len: usize,
}

impl ImplicitSpec {
    /// Derives client `index`.
    fn client(&self, index: usize) -> Client {
        debug_assert!(index < self.population);
        implicit_client(
            self.seed,
            index as u64,
            self.samples_per_client,
            self.train_len,
        )
    }
}

/// The engine's client population: materialized (eager `Vec<Client>`) or
/// implicit (each client derived where it is used).
#[derive(Debug)]
pub(crate) enum ClientPool {
    /// Every client exists up front (PR 4–6 behaviour).
    Materialized(Vec<Client>),
    /// Clients are derived per index, on every ask.
    Implicit(ImplicitSpec),
}

impl ClientPool {
    /// Configured population size.
    pub(crate) fn population(&self) -> usize {
        match self {
            ClientPool::Materialized(clients) => clients.len(),
            ClientPool::Implicit(spec) => spec.population,
        }
    }

    /// Procedure I's selection: up to `count` (clamped to at least one)
    /// distinct indices `eligible` admits, sorted ascending. Empty only
    /// when (effectively, for the implicit backend) nobody is eligible;
    /// what to do then is the calling engine's own fallback.
    ///
    /// The materialized backend keeps the PR 4 draw — shuffle-truncate
    /// over the eligible indices, and *no* draw when there are none; the
    /// implicit backend rejection-samples ([`sample_population`]). Both
    /// are part of the bit-identity contract.
    pub(crate) fn select(
        &self,
        count: usize,
        mut eligible: impl FnMut(usize) -> bool,
        rng: &mut StdRng,
    ) -> Vec<usize> {
        match self {
            ClientPool::Materialized(clients) => {
                let pool: Vec<usize> = (0..clients.len()).filter(|&i| eligible(i)).collect();
                if pool.is_empty() {
                    return pool;
                }
                select_clients(pool.len(), count, rng)
                    .into_iter()
                    .map(|i| pool[i])
                    .collect()
            }
            ClientPool::Implicit(spec) => sample_population(spec.population, count, eligible, rng),
        }
    }

    /// Lends the round's working set for the selection `positions`: a
    /// client slice and, aligned with `positions`, each selected client's
    /// index into it. Materialized: the population slice and `positions`
    /// themselves, nothing copied. Implicit: exactly the selected clients,
    /// derived in selection order, under the identity indices
    /// `0..positions.len()`.
    pub(crate) fn working_set<'a>(
        &'a self,
        positions: &'a [usize],
    ) -> (Cow<'a, [Client]>, Cow<'a, [usize]>) {
        match self {
            ClientPool::Materialized(clients) => (Cow::Borrowed(clients), Cow::Borrowed(positions)),
            ClientPool::Implicit(spec) => {
                let clients: Vec<Client> = positions.iter().map(|&p| spec.client(p)).collect();
                let identity: Vec<usize> = (0..clients.len()).collect();
                (Cow::Owned(clients), Cow::Owned(identity))
            }
        }
    }

    /// Client `index`'s shard size. O(1) for the implicit backend — shard
    /// sizes are uniform by construction, so nothing is derived.
    pub(crate) fn sample_count(&self, index: usize) -> usize {
        match self {
            ClientPool::Materialized(clients) => clients[index].sample_count(),
            ClientPool::Implicit(spec) => spec.samples_per_client,
        }
    }

    /// Client `index`: borrowed when materialized, derived when implicit.
    pub(crate) fn client(&self, index: usize) -> Cow<'_, Client> {
        match self {
            ClientPool::Materialized(clients) => Cow::Borrowed(&clients[index]),
            ClientPool::Implicit(spec) => Cow::Owned(spec.client(index)),
        }
    }
}

/// Draws `count` *distinct* eligible indices from `0..population` by
/// rejection sampling, returned sorted ascending — Procedure I without a
/// population-sized allocation.
///
/// Mirrors `bfl_fl::selection::select_clients`'s contract (clamp to at
/// least one, sorted output) but never instantiates the population. If the
/// eligible set is smaller than `count` the sampler returns what it found
/// after a bounded number of attempts; an empty result means effectively
/// nobody was eligible. The implicit half of [`ClientPool::select`].
fn sample_population(
    population: usize,
    count: usize,
    mut eligible: impl FnMut(usize) -> bool,
    rng: &mut StdRng,
) -> Vec<usize> {
    assert!(population > 0, "population must be non-empty");
    let count = count.clamp(1, population);
    let mut picked: BTreeSet<usize> = BTreeSet::new();
    // Bounded rejection sampling: with a healthy eligible fraction this
    // terminates in ~count draws; the cap keeps degenerate rounds (nearly
    // everyone on cooldown or offline) from spinning.
    let max_attempts = (count.saturating_mul(64)).max(1024);
    let mut attempts = 0usize;
    while picked.len() < count && attempts < max_attempts {
        attempts += 1;
        let candidate = rng.gen_range(0..population);
        if picked.contains(&candidate) || !eligible(candidate) {
            continue;
        }
        picked.insert(candidate);
    }
    picked.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    fn spec(population: usize) -> ImplicitSpec {
        ImplicitSpec {
            seed: 0xBF1,
            population,
            samples_per_client: 4,
            train_len: 50,
        }
    }

    #[test]
    fn implicit_pool_caches_under_budget_and_rederives_identically() {
        let pool = ClientPool::Implicit(spec(1_000_000));
        let first = pool.client(999_999).into_owned();
        assert_eq!(first.id, 999_999);
        let again = pool.client(999_999);
        assert!(matches!(again, Cow::Owned(_)), "derived, not kept");
        assert_eq!(first, *again, "deriving twice gives the same client");
    }

    #[test]
    fn implicit_matches_eager_build_clients() {
        use bfl_data::{SynthMnist, SynthMnistConfig};
        use bfl_fl::config::PartitionKind;
        use bfl_fl::trainer::{FlAlgorithm, FlTrainer};

        let generator = SynthMnist::new(SynthMnistConfig {
            train_samples: 60,
            test_samples: 10,
            ..SynthMnistConfig::default()
        });
        let (train, _test) = generator.generate(&mut StdRng::seed_from_u64(123));
        let config = bfl_fl::FlConfig {
            clients: 12,
            partition: PartitionKind::ImplicitIid {
                samples_per_client: 4,
            },
            seed: 0xBF1,
            ..bfl_fl::FlConfig::default()
        };
        let trainer = FlTrainer::new(config, FlAlgorithm::FedAvg);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let before = rng.clone().gen_range(0..u64::MAX);
        let eager = trainer.build_clients(&train, &mut rng);
        assert_eq!(
            rng.gen_range(0..u64::MAX),
            before,
            "implicit build consumes zero learning-stream draws"
        );

        let lazy = ClientPool::Implicit(ImplicitSpec {
            seed: config.seed,
            population: 12,
            samples_per_client: 4,
            train_len: train.len(),
        });
        for (i, expected) in eager.iter().enumerate() {
            assert_eq!(&*lazy.client(i), expected, "client {i}");
        }
    }

    fn materialized(population: usize) -> ClientPool {
        ClientPool::Materialized(
            (0..population)
                .map(|i| Client::honest(i as u64, vec![i]))
                .collect(),
        )
    }

    proptest! {
        /// `select` is the expression the engines used to spell out per
        /// backend — same picks, and the rng left in the same state: the
        /// shuffle-truncate over the filtered indices when materialized,
        /// the rejection sampler when implicit.
        #[test]
        fn select_draws_exactly_what_it_replaces(
            population in 1usize..48,
            count in 0usize..56,
            mask in proptest::collection::vec(any::<bool>(), 48..49),
            nobody in 0u8..4,
            seed in any::<u64>(),
        ) {
            let eligible = |i: usize| nobody != 0 && mask[i];
            let filtered: Vec<usize> = (0..population).filter(|&i| eligible(i)).collect();

            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = rng.clone();
            let picked = materialized(population).select(count, eligible, &mut rng);
            // Nobody eligible: nothing picked and — `oracle_rng` is still
            // untouched when the draws are compared below — nothing drawn.
            let expected: Vec<usize> = if filtered.is_empty() {
                Vec::new()
            } else {
                select_clients(filtered.len(), count, &mut oracle_rng)
                    .into_iter()
                    .map(|i| filtered[i])
                    .collect()
            };
            prop_assert_eq!(picked, expected);
            prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());

            let mut rng = StdRng::seed_from_u64(seed);
            let mut oracle_rng = rng.clone();
            let picked = ClientPool::Implicit(spec(population)).select(count, eligible, &mut rng);
            let expected = sample_population(population, count, eligible, &mut oracle_rng);
            prop_assert!(picked.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(picked.iter().all(|&i| eligible(i)));
            prop_assert_eq!(picked, expected);
            prop_assert_eq!(rng.gen::<u64>(), oracle_rng.gen::<u64>());
        }
    }

    #[test]
    fn the_working_set_lends_the_population_or_derives_exactly_the_selection() {
        // Materialized: the population slice itself, positions unchanged.
        let pool = materialized(9);
        let ClientPool::Materialized(all) = &pool else {
            unreachable!()
        };
        let population: *const [Client] = all.as_slice();
        let positions = [1usize, 4, 7];
        let (clients, indices) = pool.working_set(&positions);
        assert!(std::ptr::eq(&*clients, population), "lent, not copied");
        assert!(std::ptr::eq(&*indices, &positions[..]));

        // Implicit: one derived client per position, in selection order,
        // under identity indices.
        let spec = spec(1_000_000);
        let pool = ClientPool::Implicit(spec);
        let positions = [3usize, 999_999, 17, 250_000, 4];
        let (clients, indices) = pool.working_set(&positions);
        assert_eq!(&*indices, &[0, 1, 2, 3, 4]);
        assert_eq!(clients.len(), positions.len());
        for (client, &p) in clients.iter().zip(&positions) {
            let derived =
                implicit_client(spec.seed, p as u64, spec.samples_per_client, spec.train_len);
            assert_eq!(client, &derived, "position {p}");
        }
    }

    #[test]
    fn rejection_sampler_draws_sorted_distinct_eligible_indices() {
        let mut rng = StdRng::seed_from_u64(9);
        let picked = sample_population(1_000_000, 100, |i| i % 2 == 0, &mut rng);
        assert_eq!(picked.len(), 100);
        assert!(picked.windows(2).all(|w| w[0] < w[1]), "sorted distinct");
        assert!(picked.iter().all(|&i| i % 2 == 0), "eligibility respected");
        // Deterministic in the rng.
        let mut rng2 = StdRng::seed_from_u64(9);
        assert_eq!(
            picked,
            sample_population(1_000_000, 100, |i| i % 2 == 0, &mut rng2)
        );
    }

    #[test]
    fn rejection_sampler_returns_partial_sets_when_eligibility_is_scarce() {
        let mut rng = StdRng::seed_from_u64(1);
        let picked = sample_population(10_000, 5, |i| i == 7, &mut rng);
        assert!(picked.len() <= 1, "at most the single eligible index");
        let none = sample_population(64, 4, |_| false, &mut rng);
        assert!(none.is_empty(), "nobody eligible yields an empty draw");
    }
}
