//! DBSCAN — density-based spatial clustering, the default algorithm of
//! FAIR-BFL's contribution identification.
//!
//! The implementation is the textbook region-growing formulation over a
//! precomputed pairwise distance matrix, which is exactly right for the
//! problem sizes Algorithm 2 encounters (tens to a few hundred gradient
//! vectors per round). Algorithm 2 itself reads only the anchor's
//! cluster, and under `min_points <= 2` [`dbscan_anchor_cluster`] finds
//! that cluster without the matrix.

use crate::distance::DistanceMetric;
use crate::labels::ClusterLabels;
use bfl_ml::par;
use bfl_ml::tensor::{dot_lanes, square_and_dot_lanes};
use std::collections::VecDeque;

/// DBSCAN parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbscanConfig {
    /// Neighbourhood radius ε.
    pub eps: f64,
    /// Minimum number of neighbours (including the point itself) required
    /// for a point to be a core point.
    pub min_points: usize,
    /// Distance metric.
    pub metric: DistanceMetric,
}

impl Default for DbscanConfig {
    fn default() -> Self {
        DbscanConfig {
            eps: 0.35,
            min_points: 2,
            metric: DistanceMetric::Cosine,
        }
    }
}

/// DBSCAN over a precomputed pairwise distance matrix (such as
/// [`distance_matrix_rows`](crate::distance::distance_matrix_rows)'s),
/// returning cluster labels (noise = `None`).
pub fn dbscan_with_distances(distances: &[Vec<f64>], config: &DbscanConfig) -> ClusterLabels {
    let n = distances.len();
    if n == 0 {
        return ClusterLabels::new(Vec::new());
    }
    assert!(config.eps > 0.0, "eps must be positive");
    assert!(config.min_points >= 1, "min_points must be at least 1");

    // ε-neighbourhoods in compressed-row form: point `i`'s neighbours are
    // `neighbours[offsets[i]..offsets[i + 1]]`, ascending. A counting pass
    // sizes both vectors up front, so the lists cost two allocations
    // however large the committee is.
    let within = |i: usize| {
        distances[i]
            .iter()
            .enumerate()
            .filter(|&(_, &d)| d <= config.eps)
            .map(|(j, _)| j)
    };
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    for i in 0..n {
        offsets.push(offsets[i] + within(i).count());
    }
    let mut neighbours = Vec::with_capacity(offsets[n]);
    for i in 0..n {
        neighbours.extend(within(i));
    }
    let neighbourhood = |i: usize| &neighbours[offsets[i]..offsets[i + 1]];

    let mut assignments: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut next_cluster = 0usize;
    let mut queue: VecDeque<usize> = VecDeque::new();

    for point in 0..n {
        if visited[point] {
            continue;
        }
        visited[point] = true;
        if neighbourhood(point).len() < config.min_points {
            // Provisionally noise; may later be absorbed as a border point.
            continue;
        }
        // Start a new cluster and grow it breadth-first.
        let cluster = next_cluster;
        next_cluster += 1;
        assignments[point] = Some(cluster);
        queue.extend(neighbourhood(point));
        while let Some(candidate) = queue.pop_front() {
            if assignments[candidate].is_none() {
                assignments[candidate] = Some(cluster);
            }
            if !visited[candidate] {
                visited[candidate] = true;
                if neighbourhood(candidate).len() >= config.min_points {
                    queue.extend(neighbourhood(candidate));
                }
            }
        }
    }

    ClusterLabels::new(assignments)
}

/// Whether each row lies in the last row's DBSCAN cluster, for
/// `min_points` 1 or 2, forming only the distances that question needs.
///
/// With `min_points <= 2` a point with any ε-neighbour besides itself is a
/// core point, so DBSCAN's clusters are the connected components of the
/// ε-graph whatever the visit order (a point with no neighbour is noise,
/// or under `min_points == 1` a cluster of its own). The last row's
/// cluster is then a breadth-first search from it, which tests each
/// (reached, unreached) pair at most once: `2n + 1` Gram entries when
/// every row is near the last (each row's squared norm and its entry
/// against the last, from one read of the row), never more than the
/// pairwise matrix's. Each entry is the one
/// [`distance_matrix_rows`](crate::distance::distance_matrix_rows) forms
/// ([`dot_lanes`], [`square_and_dot_lanes`]), so each distance is the
/// one [`dbscan_with_distances`] reads off the pairwise matrix, and entry
/// `i` equals the full labels' `same_cluster(i, n - 1)`.
pub fn dbscan_anchor_cluster(rows: &[&[f64]], config: &DbscanConfig) -> Vec<bool> {
    let n = rows.len();
    if n == 0 {
        return Vec::new();
    }
    assert!(config.eps > 0.0, "eps must be positive");
    assert!(
        (1..=2).contains(&config.min_points),
        "the anchor's cluster is its ε-component only for min_points 1 or 2"
    );
    let anchor = n - 1;
    let anchor_square = dot_lanes(rows[anchor], rows[anchor]);
    let mut squares = vec![0.0; n];
    let mut member = vec![false; n];
    anchor_step(rows, &mut squares, &mut member, |g_ja, square| {
        config.metric.gram_distance(g_ja, square, anchor_square) <= config.eps
    });
    squares[anchor] = anchor_square;
    let mut reached = Vec::with_capacity(n);
    reached.push(anchor);
    reached.extend((0..anchor).filter(|&j| member[j]));
    member[anchor] = true;
    let near = |i: usize, j: usize| {
        let g_ij = dot_lanes(rows[i], rows[j]);
        config.metric.gram_distance(g_ij, squares[i], squares[j]) <= config.eps
    };
    // `reached[0]` is the anchor, whose step is done.
    let mut next = 1;
    while let Some(&i) = reached.get(next) {
        next += 1;
        for (j, in_cluster) in member.iter_mut().enumerate() {
            if !*in_cluster && near(i, j) {
                *in_cluster = true;
                reached.push(j);
            }
        }
    }
    // Alone, the anchor is a cluster only if it is a core point by itself.
    member[anchor] = reached.len() >= config.min_points;
    member
}

/// The anchor's own step of [`dbscan_anchor_cluster`], which reads each
/// other row once: for each `j` below the last (anchor) row, row `j`'s
/// squared norm goes to `squares[j]` and `near(entry, square)` of its
/// entry against the anchor to `near_anchor[j]`, both from one
/// [`square_and_dot_lanes`]. Each row's step is its own, so past `par`'s
/// row-pass threshold the rows split into ranges across workers.
fn anchor_step<T: Send>(
    rows: &[&[f64]],
    squares: &mut [f64],
    near_anchor: &mut [T],
    near: impl Fn(f64, f64) -> T + Sync,
) {
    let n = rows.len();
    let anchor = rows[n - 1];
    let workers = par::plan_row_pass(n, anchor.len());
    par::par_split_pair_mut(
        &mut squares[..n - 1],
        &mut near_anchor[..n - 1],
        workers,
        |first, squares, near_anchor| {
            for (j, (square, out)) in squares.iter_mut().zip(near_anchor).enumerate() {
                let (s, g_ja) = square_and_dot_lanes(rows[first + j], anchor);
                *square = s;
                *out = near(g_ja, s);
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::distance_matrix_rows;
    use proptest::prelude::*;

    /// Full DBSCAN over owned vectors.
    fn dbscan(vectors: &[Vec<f64>], config: &DbscanConfig) -> ClusterLabels {
        let rows: Vec<&[f64]> = vectors.iter().map(Vec::as_slice).collect();
        dbscan_with_distances(&distance_matrix_rows(&rows, config.metric), config)
    }

    fn two_blobs() -> Vec<Vec<f64>> {
        let mut v = Vec::new();
        for i in 0..6 {
            v.push(vec![1.0 + i as f64 * 0.02, 1.0]);
        }
        for i in 0..6 {
            v.push(vec![-1.0, -1.0 - i as f64 * 0.02]);
        }
        v
    }

    #[test]
    fn empty_input_yields_empty_labels() {
        let labels = dbscan(&[], &DbscanConfig::default());
        assert!(labels.is_empty());
    }

    #[test]
    fn two_blobs_form_two_clusters() {
        let labels = dbscan(&two_blobs(), &DbscanConfig::default());
        assert_eq!(labels.cluster_count(), 2);
        assert!(labels.same_cluster(0, 5));
        assert!(labels.same_cluster(6, 11));
        assert!(!labels.same_cluster(0, 6));
        assert!(labels.as_slice().iter().all(Option::is_some));
    }

    #[test]
    fn an_outlier_is_marked_as_noise() {
        let mut data = two_blobs();
        // A vector orthogonal to both blobs, far from everything in cosine terms.
        data.push(vec![1.0, -1.0]);
        let labels = dbscan(
            &data,
            &DbscanConfig {
                eps: 0.2,
                min_points: 2,
                metric: DistanceMetric::Cosine,
            },
        );
        assert_eq!(labels.cluster_of(12), None, "outlier should be noise");
        assert_eq!(labels.cluster_count(), 2);
    }

    #[test]
    fn min_points_larger_than_any_neighbourhood_gives_all_noise() {
        let labels = dbscan(
            &two_blobs(),
            &DbscanConfig {
                eps: 0.01,
                min_points: 10,
                metric: DistanceMetric::Cosine,
            },
        );
        assert_eq!(labels.cluster_count(), 0);
        assert_eq!(labels.len(), 12);
        assert!(labels.as_slice().iter().all(Option::is_none));
    }

    #[test]
    #[should_panic(expected = "eps must be positive")]
    fn non_positive_eps_panics() {
        let _ = dbscan(
            &two_blobs(),
            &DbscanConfig {
                eps: 0.0,
                min_points: 2,
                metric: DistanceMetric::Cosine,
            },
        );
    }

    /// The textbook formulation with one growable neighbour list per
    /// point — what `dbscan_with_distances` ran before the lists moved
    /// into compressed-row form. Labels must not have changed.
    fn dbscan_with_neighbour_lists(distances: &[Vec<f64>], config: &DbscanConfig) -> ClusterLabels {
        let n = distances.len();
        let neighbourhoods: Vec<Vec<usize>> = (0..n)
            .map(|i| (0..n).filter(|&j| distances[i][j] <= config.eps).collect())
            .collect();
        let mut assignments: Vec<Option<usize>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut next_cluster = 0usize;
        for point in 0..n {
            if visited[point] {
                continue;
            }
            visited[point] = true;
            if neighbourhoods[point].len() < config.min_points {
                continue;
            }
            let cluster = next_cluster;
            next_cluster += 1;
            assignments[point] = Some(cluster);
            let mut queue: VecDeque<usize> = neighbourhoods[point].iter().copied().collect();
            while let Some(candidate) = queue.pop_front() {
                if assignments[candidate].is_none() {
                    assignments[candidate] = Some(cluster);
                }
                if !visited[candidate] {
                    visited[candidate] = true;
                    if neighbourhoods[candidate].len() >= config.min_points {
                        queue.extend(neighbourhoods[candidate].iter().copied());
                    }
                }
            }
        }
        ClusterLabels::new(assignments)
    }

    /// Whether each row is in the last row's cluster, read off the full
    /// pairwise matrix's labels.
    fn anchor_cluster_of_labels(rows: &[&[f64]], config: &DbscanConfig) -> Vec<bool> {
        let labels = dbscan_with_distances(&distance_matrix_rows(rows, config.metric), config);
        (0..rows.len())
            .map(|i| labels.same_cluster(i, rows.len() - 1))
            .collect()
    }

    /// The point at `angle` on the circle of the first two coordinates,
    /// scaled by `scale` (cosine distance ignores it), other coordinates 0.
    fn on_circle(angle: f64, scale: f64, d: usize) -> Vec<f64> {
        let mut row = vec![0.0; d];
        row[0] = scale * angle.cos();
        row[1] = scale * angle.sin();
        row
    }

    /// `n` rows of `d >= 3` coordinates whose last row is the anchor,
    /// mixing near and far points, duplicates, zero rows, noise and a chain
    /// of 0.6-radian steps away from the anchor's direction: at ε = 0.35
    /// (0.86 radians) only the chain's first link is the anchor's
    /// neighbour, the rest reach it through the chain. The anchor is on the
    /// chain's origin, isolated on the third axis, zero, or a duplicate.
    fn mixed_committee(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
        let mut state = seed | 1;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut link = 0.0;
        for _ in 0..n - 1 {
            let scale = 0.1 + 10.0 * next();
            let row = match (next() * 6.0) as usize {
                0 => on_circle(0.2 * (next() - 0.5), scale, d),
                1 => on_circle(std::f64::consts::PI + next() - 0.5, scale, d),
                2 if !rows.is_empty() => rows[(next() * rows.len() as f64) as usize].clone(),
                3 => vec![0.0; d],
                4 => {
                    link += 0.6;
                    on_circle(link, scale, d)
                }
                _ => (0..d).map(|_| next() * 4.0 - 2.0).collect(),
            };
            rows.push(row);
        }
        let anchor = match (next() * 4.0) as usize {
            0 => on_circle(0.0, 1.0, d),
            1 => {
                let mut row = vec![0.0; d];
                row[2] = 1.0;
                row
            }
            2 => vec![0.0; d],
            _ if !rows.is_empty() => rows[(next() * rows.len() as f64) as usize].clone(),
            _ => on_circle(0.0, 1.0, d),
        };
        rows.push(anchor);
        rows
    }

    #[test]
    fn a_chain_reaches_the_anchor_only_through_other_uploads() {
        // Rows 1 → 2 → 3 step 0.6 radians away from the anchor (row 4);
        // row 0 sits opposite it. Only row 1 is the anchor's neighbour.
        let rows = [
            on_circle(std::f64::consts::PI, 1.0, 3),
            on_circle(0.6, 2.0, 3),
            on_circle(1.2, 0.5, 3),
            on_circle(1.8, 3.0, 3),
            on_circle(0.0, 1.0, 3),
        ];
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        for min_points in [1, 2] {
            let config = DbscanConfig {
                min_points,
                ..DbscanConfig::default()
            };
            let want = vec![false, true, true, true, true];
            assert_eq!(anchor_cluster_of_labels(&rows, &config), want);
            assert_eq!(dbscan_anchor_cluster(&rows, &config), want);
        }
    }

    #[test]
    fn an_isolated_anchor_has_no_cluster_but_its_own() {
        let rows = [
            vec![1.0, 0.0, 0.0],
            vec![1.0, 0.1, 0.0],
            vec![0.0, 0.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let rows: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        // Under `min_points == 2` the anchor is noise, in no cluster; under
        // 1 it is a cluster of one.
        for (min_points, alone) in [(1, true), (2, false)] {
            let config = DbscanConfig {
                min_points,
                ..DbscanConfig::default()
            };
            let want = vec![false, false, false, alone];
            assert_eq!(anchor_cluster_of_labels(&rows, &config), want);
            assert_eq!(dbscan_anchor_cluster(&rows, &config), want);
        }
    }

    #[test]
    fn the_anchor_step_splits_rows_without_changing_a_bit() {
        // 269 uploads of the paper's 7850 parameters and their anchor are
        // eight workers' worth of rows, so each limit below fans the step
        // out to exactly that many; every 90th upload points away.
        let (n, len) = (270usize, 7850usize);
        let mut state = 0xD85C_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let committee: Vec<Vec<f64>> = (0..n)
            .map(|j| {
                let sign = if j % 90 == 45 { -1.0 } else { 1.0 };
                (0..len)
                    .map(|k| sign * ((k as f64 * 0.01).sin() + 0.3 * next()))
                    .collect()
            })
            .collect();
        let rows: Vec<&[f64]> = committee.iter().map(Vec::as_slice).collect();
        let serial: Vec<(f64, f64)> = rows[..n - 1]
            .iter()
            .map(|row| square_and_dot_lanes(row, rows[n - 1]))
            .collect();
        let config = DbscanConfig::default();
        let cluster = par::with_thread_limit(1, || dbscan_anchor_cluster(&rows, &config));
        assert_eq!(cluster.iter().filter(|&&member| !member).count(), 3);

        for limit in [1, 2, 3, 8] {
            par::with_thread_limit(limit, || {
                assert_eq!(par::plan_row_pass(n, len), limit);
                let (mut squares, mut entries) = (vec![0.0; n], vec![0.0; n]);
                anchor_step(&rows, &mut squares, &mut entries, |entry, _| entry);
                for (j, &(square, entry)) in serial.iter().enumerate() {
                    assert_eq!(
                        (squares[j].to_bits(), entries[j].to_bits()),
                        (square.to_bits(), entry.to_bits()),
                        "row {j}'s (square, entry) at {limit} threads"
                    );
                }
                assert_eq!(
                    dbscan_anchor_cluster(&rows, &config),
                    cluster,
                    "{limit} threads"
                );
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The anchor's search against the full matrix's labels, under
        /// `min_points` 1 and 2 and radii that take in zero rows (distance
        /// 1) or not: committees of 1 to 40 rows (both sides of the Gram's
        /// 16-row regime switch) of 3 to 300 coordinates (both sides of
        /// its `k`-blocking).
        #[test]
        fn the_anchor_search_equals_the_full_labels(
            n in 1usize..40,
            d in 0usize..4,
            eps in 0usize..4,
            seed in any::<u64>(),
        ) {
            let (d, eps) = ([3, 4, 9, 300][d], [0.05, 0.35, 0.9, 1.2][eps]);
            let committee = mixed_committee(seed, n, d);
            let rows: Vec<&[f64]> = committee.iter().map(Vec::as_slice).collect();
            for min_points in [1, 2] {
                let config = DbscanConfig { eps, min_points, metric: DistanceMetric::Cosine };
                prop_assert_eq!(
                    dbscan_anchor_cluster(&rows, &config),
                    anchor_cluster_of_labels(&rows, &config)
                );
            }
        }

        #[test]
        fn compressed_neighbourhoods_leave_every_label_unchanged(
            n in 1usize..40,
            eps in 0.05f64..1.5,
            min_points in 1usize..5,
            seed in any::<u64>(),
        ) {
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            };
            let data: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next()]).collect();
            let config = DbscanConfig { eps, min_points, metric: DistanceMetric::Cosine };
            let rows: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
            let distances = distance_matrix_rows(&rows, config.metric);
            prop_assert_eq!(
                dbscan_with_distances(&distances, &config),
                dbscan_with_neighbour_lists(&distances, &config)
            );
        }

        #[test]
        fn labels_cover_every_point(n in 1usize..30, eps in 0.05f64..1.5, seed in any::<u64>()) {
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            };
            let data: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next(), next()]).collect();
            let labels = dbscan(&data, &DbscanConfig { eps, min_points: 2, metric: DistanceMetric::Cosine });
            prop_assert_eq!(labels.len(), n);
            // Every point is either in a cluster or noise; cluster ids are dense from 0.
            let count = labels.cluster_count();
            for i in 0..n {
                if let Some(c) = labels.cluster_of(i) {
                    prop_assert!(c < count);
                }
            }
        }

        #[test]
        fn identical_points_always_cluster_together(copies in 2usize..10) {
            let data: Vec<Vec<f64>> = (0..copies).map(|_| vec![1.0, 2.0, 3.0]).collect();
            let labels = dbscan(&data, &DbscanConfig::default());
            prop_assert_eq!(labels.cluster_count(), 1);
            for i in 1..copies {
                prop_assert!(labels.same_cluster(0, i));
            }
        }
    }
}
