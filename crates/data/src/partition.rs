//! Federated data partitioning.
//!
//! "By default, we assign data to clients following the non-IID dynamics"
//! (paper Section 5.1): each client sees a label-skewed shard of the
//! training data. Three partitioners are provided:
//!
//! * [`iid_partition`] — uniform random assignment, each client gets an
//!   (almost) equal share of every class.
//! * [`shard_non_iid_partition`] — the McMahan-style split used as the
//!   paper's non-IID default: samples are sorted by label, cut into
//!   `shards_per_client * n` contiguous shards, and each client receives
//!   `shards_per_client` shards, so most clients only hold one or two
//!   classes.
//! * [`dirichlet_partition`] — per-class Dirichlet(α) allocation for
//!   smoothly tunable skew (small α ⇒ extreme skew), used by ablations.
//!
//! All partitioners assign every sample to exactly one client and never
//! return an empty client shard (they rebalance if necessary), which the
//! property tests assert.

use rand::seq::SliceRandom;
use rand::Rng;

/// A partition: `partition[c]` lists the dataset row indices owned by
/// client `c`.
pub type Partition = Vec<Vec<usize>>;

/// Verifies the structural invariants of a partition over `total` samples:
/// every index in `0..total` appears exactly once and no client is empty.
#[cfg(test)]
pub fn partition_is_valid(partition: &Partition, total: usize) -> bool {
    let mut seen = vec![false; total];
    for shard in partition {
        if shard.is_empty() {
            return false;
        }
        for &idx in shard {
            if idx >= total || seen[idx] {
                return false;
            }
            seen[idx] = true;
        }
    }
    seen.into_iter().all(|s| s)
}

/// Moves samples from the largest shards onto empty ones so that every
/// client ends up with at least one sample.
fn fix_empty_shards(partition: &mut Partition) {
    loop {
        let empty = match partition.iter().position(|s| s.is_empty()) {
            Some(i) => i,
            None => return,
        };
        let donor = partition
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.len())
            .map(|(i, _)| i)
            .expect("non-empty partition list");
        if partition[donor].len() <= 1 {
            // Nothing left to donate; give up (happens only when there are
            // fewer samples than clients, which callers reject anyway).
            return;
        }
        let moved = partition[donor].pop().expect("donor has samples");
        partition[empty].push(moved);
    }
}

/// Uniform random (IID) partition of `total` samples over `clients` clients.
pub fn iid_partition<R: Rng + ?Sized>(total: usize, clients: usize, rng: &mut R) -> Partition {
    assert!(clients > 0, "need at least one client");
    assert!(total >= clients, "need at least one sample per client");
    let mut indices: Vec<usize> = (0..total).collect();
    indices.shuffle(rng);
    let mut partition: Partition = vec![Vec::new(); clients];
    for (i, idx) in indices.into_iter().enumerate() {
        partition[i % clients].push(idx);
    }
    partition
}

/// Label-sorted shard partition (non-IID). Each client receives
/// `shards_per_client` contiguous shards of the label-sorted sample list.
pub fn shard_non_iid_partition<R: Rng + ?Sized>(
    labels: &[usize],
    clients: usize,
    shards_per_client: usize,
    rng: &mut R,
) -> Partition {
    assert!(clients > 0, "need at least one client");
    assert!(shards_per_client > 0, "need at least one shard per client");
    assert!(
        labels.len() >= clients,
        "need at least one sample per client"
    );

    // Sort sample indices by label (stable, so generation order breaks ties).
    let mut by_label: Vec<usize> = (0..labels.len()).collect();
    by_label.sort_by_key(|&i| labels[i]);

    let total_shards = clients * shards_per_client;
    let shard_size = labels.len() / total_shards;

    // Build the shard list. When shard_size is zero (tiny datasets) fall
    // back to an IID split, which is the only sensible degenerate answer.
    if shard_size == 0 {
        return iid_partition(labels.len(), clients, rng);
    }

    let mut shard_ids: Vec<usize> = (0..total_shards).collect();
    shard_ids.shuffle(rng);

    let mut partition: Partition = vec![Vec::new(); clients];
    for (slot, shard_id) in shard_ids.into_iter().enumerate() {
        let client = slot % clients;
        let start = shard_id * shard_size;
        let end = if shard_id == total_shards - 1 {
            labels.len()
        } else {
            (shard_id + 1) * shard_size
        };
        partition[client].extend_from_slice(&by_label[start..end]);
    }
    fix_empty_shards(&mut partition);
    partition
}

/// Dirichlet(α) label-skew partition: for every class, the class's samples
/// are distributed over clients according to a Dirichlet draw. Smaller `α`
/// produces more extreme skew; `α → ∞` approaches IID.
pub fn dirichlet_partition<R: Rng + ?Sized>(
    labels: &[usize],
    clients: usize,
    alpha: f64,
    rng: &mut R,
) -> Partition {
    assert!(clients > 0, "need at least one client");
    assert!(alpha > 0.0, "Dirichlet concentration must be positive");
    assert!(
        labels.len() >= clients,
        "need at least one sample per client"
    );

    let classes = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut partition: Partition = vec![Vec::new(); clients];

    for class in 0..classes {
        let mut class_indices: Vec<usize> =
            (0..labels.len()).filter(|&i| labels[i] == class).collect();
        class_indices.shuffle(rng);
        if class_indices.is_empty() {
            continue;
        }
        // Sample Dirichlet(α) via normalized Gamma(α, 1) draws
        // (Marsaglia-Tsang would be overkill; for α possibly < 1 use the
        // Johnk-style transformation through Gamma(α+1)).
        let weights: Vec<f64> = (0..clients).map(|_| sample_gamma(alpha, rng)).collect();
        let total: f64 = weights.iter().sum::<f64>().max(1e-300);
        // Convert weights into cumulative sample counts.
        let mut counts: Vec<usize> = weights
            .iter()
            .map(|w| ((w / total) * class_indices.len() as f64).floor() as usize)
            .collect();
        // Distribute the remainder to the largest-weight clients.
        let assigned: usize = counts.iter().sum();
        let mut order: Vec<usize> = (0..clients).collect();
        order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap());
        for i in 0..(class_indices.len() - assigned) {
            counts[order[i % clients]] += 1;
        }
        let mut cursor = 0;
        for (client, &count) in counts.iter().enumerate() {
            partition[client].extend_from_slice(&class_indices[cursor..cursor + count]);
            cursor += count;
        }
    }
    fix_empty_shards(&mut partition);
    partition
}

/// Gamma(shape, 1) sampler (Marsaglia & Tsang for shape >= 1, boosted for
/// shape < 1 via the standard `U^{1/shape}` trick).
fn sample_gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(1e-12);
        return sample_gamma(shape + 1.0, rng) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let x = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(1e-12);
        if u.ln() < 0.5 * x * x + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn labels(n: usize, classes: usize) -> Vec<usize> {
        (0..n).map(|i| i % classes).collect()
    }

    #[test]
    fn iid_partition_is_valid_and_balanced() {
        let mut rng = StdRng::seed_from_u64(1);
        let partition = iid_partition(1000, 10, &mut rng);
        assert!(partition_is_valid(&partition, 1000));
        for shard in &partition {
            assert_eq!(shard.len(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sample per client")]
    fn iid_partition_rejects_too_few_samples() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = iid_partition(3, 10, &mut rng);
    }

    #[test]
    fn shard_partition_is_valid_and_skewed() {
        let mut rng = StdRng::seed_from_u64(2);
        let labels = labels(1000, 10);
        let partition = shard_non_iid_partition(&labels, 10, 2, &mut rng);
        assert!(partition_is_valid(&partition, 1000));

        // Skew check: most clients should hold at most 3 distinct classes
        // (each client gets 2 shards, a shard usually spans 1-2 classes).
        let few_classes = partition
            .iter()
            .filter(|shard| {
                let mut classes: Vec<usize> = shard.iter().map(|&i| labels[i]).collect();
                classes.sort_unstable();
                classes.dedup();
                classes.len() <= 3
            })
            .count();
        assert!(
            few_classes >= 8,
            "only {few_classes} of 10 clients are label-skewed"
        );
    }

    #[test]
    fn shard_partition_tiny_dataset_falls_back_to_iid() {
        let mut rng = StdRng::seed_from_u64(3);
        let labels = labels(12, 10);
        let partition = shard_non_iid_partition(&labels, 10, 5, &mut rng);
        assert!(partition_is_valid(&partition, 12));
    }

    #[test]
    fn dirichlet_partition_is_valid_and_alpha_controls_skew() {
        let mut rng = StdRng::seed_from_u64(4);
        let labels = labels(2000, 10);

        let skewed = dirichlet_partition(&labels, 10, 0.1, &mut rng);
        let smooth = dirichlet_partition(&labels, 10, 100.0, &mut rng);
        assert!(partition_is_valid(&skewed, 2000));
        assert!(partition_is_valid(&smooth, 2000));

        // Measure skew as the average fraction of a client's samples in its
        // dominant class; small alpha should be much more concentrated.
        let dominance = |p: &Partition| -> f64 {
            p.iter()
                .map(|shard| {
                    let mut counts = [0usize; 10];
                    for &i in shard {
                        counts[labels[i]] += 1;
                    }
                    *counts.iter().max().unwrap() as f64 / shard.len() as f64
                })
                .sum::<f64>()
                / p.len() as f64
        };
        let d_skewed = dominance(&skewed);
        let d_smooth = dominance(&smooth);
        assert!(
            d_skewed > d_smooth + 0.15,
            "alpha=0.1 dominance {d_skewed} should exceed alpha=100 dominance {d_smooth}"
        );
    }

    #[test]
    fn partition_validity_detects_problems() {
        // Missing sample.
        assert!(!partition_is_valid(&vec![vec![0], vec![1]], 3));
        // Duplicate sample.
        assert!(!partition_is_valid(&vec![vec![0, 1], vec![1, 2]], 3));
        // Out-of-range index.
        assert!(!partition_is_valid(&vec![vec![0, 5]], 3));
        // Empty client.
        assert!(!partition_is_valid(&vec![vec![0, 1, 2], vec![]], 3));
        // Correct.
        assert!(partition_is_valid(&vec![vec![2, 0], vec![1]], 3));
    }

    #[test]
    fn gamma_sampler_has_reasonable_mean() {
        let mut rng = StdRng::seed_from_u64(5);
        for &shape in &[0.5f64, 1.0, 2.0, 5.0] {
            let n = 4000;
            let mean: f64 = (0..n).map(|_| sample_gamma(shape, &mut rng)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < shape * 0.2 + 0.1,
                "Gamma({shape}) sample mean {mean}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn iid_partitions_are_always_valid(total in 10usize..400, clients in 1usize..10, seed in any::<u64>()) {
            prop_assume!(total >= clients);
            let mut rng = StdRng::seed_from_u64(seed);
            let p = iid_partition(total, clients, &mut rng);
            prop_assert!(partition_is_valid(&p, total));
            prop_assert_eq!(p.len(), clients);
        }

        #[test]
        fn shard_partitions_are_always_valid(total in 20usize..400, clients in 1usize..10, shards in 1usize..5, seed in any::<u64>()) {
            prop_assume!(total >= clients);
            let labels: Vec<usize> = (0..total).map(|i| i % 10).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let p = shard_non_iid_partition(&labels, clients, shards, &mut rng);
            prop_assert!(partition_is_valid(&p, total));
        }

        #[test]
        fn dirichlet_partitions_are_always_valid(total in 20usize..300, clients in 1usize..8, alpha in 0.05f64..10.0, seed in any::<u64>()) {
            prop_assume!(total >= clients * 2);
            let labels: Vec<usize> = (0..total).map(|i| i % 5).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let p = dirichlet_partition(&labels, clients, alpha, &mut rng);
            prop_assert!(partition_is_valid(&p, total));
        }
    }
}
