//! The cosine distance and pairwise distance matrices.
//!
//! Algorithm 2 clusters gradients by cosine distance, the metric its θ
//! scores use, and [`DistanceMetric`] has that one variant; the type stays
//! because scenario configurations spell it (`"metric": "Cosine"`).
//!
//! The pairwise matrix is the shared substrate of the non-default
//! clustering backends (DBSCAN under `min_points > 2` and agglomerative
//! consume it directly; k-means uses the rectangular
//! [`cross_distance_matrix_packed`] for its assignment step). Every
//! distance derives from entries of the Gram matrix `G = V · Vᵀ`:
//!
//! * cosine: `d_ij = 1 − G_ij / √(G_ii · G_jj)`
//!
//! # One entry at a time
//!
//! [`distance_matrix_rows`] forms each row's square and each pair above
//! the diagonal with [`bfl_ml::tensor::dot_lanes`], over *borrowed*
//! rows: Algorithm 2's non-default clusterings hand in the round's
//! uploads plus the anchor row exactly where they already live, and
//! nothing is packed into a contiguous copy first. The paper's default
//! DBSCAN needs no matrix: it asks only for the anchor's cluster, which
//! [`dbscan_anchor_cluster`](crate::dbscan::dbscan_anchor_cluster) finds
//! from the entries it tests. [`distance_matrix_packed`] borrows the rows
//! of a packed matrix and calls the same function. Only the rectangular
//! [`cross_distance_matrix_packed`] (two different row sets) runs the
//! general `A · Bᵀ` GEMM.
//!
//! Each Gram entry is the lane-striped `dot_lanes` reduction,
//! dispatched per [`bfl_ml::simd::active`] to an AVX2+FMA form that
//! reproduces the scalar order bit-for-bit. So under either tier,
//! identical rows produce bit-identical entries, and every pair of
//! identical points is at the same distance (zero up to the rounding of
//! `√G_ii · √G_jj`). No code forms the full product `V · Vᵀ`, so an entry
//! owes no bits to one.

use bfl_ml::tensor::{dot_lanes, matmul_transpose_b_into, Matrix};
use serde::{Deserialize, Serialize};

/// Metric used to compare gradient vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DistanceMetric {
    /// Cosine distance `1 - cos(a, b)` (the paper's θ).
    Cosine,
}

impl DistanceMetric {
    /// Distance derived from Gram-matrix entries (`g_ij` the inner
    /// product, `g_ii`/`g_jj` the squared norms).
    pub(crate) fn gram_distance(self, g_ij: f64, g_ii: f64, g_jj: f64) -> f64 {
        match self {
            DistanceMetric::Cosine => {
                if g_ii <= 0.0 || g_jj <= 0.0 {
                    // Reference semantics: similarity with a zero vector is 0.
                    return 1.0;
                }
                let similarity = (g_ij / (g_ii.sqrt() * g_jj.sqrt())).clamp(-1.0, 1.0);
                1.0 - similarity
            }
        }
    }
}

/// [`distance_matrix_rows`] over the rows of a packed row-major matrix.
pub fn distance_matrix_packed(rows: &Matrix, metric: DistanceMetric) -> Vec<Vec<f64>> {
    let rows: Vec<&[f64]> = (0..rows.rows).map(|i| rows.row(i)).collect();
    distance_matrix_rows(&rows, metric)
}

/// Full symmetric pairwise distance matrix (`n x n`) over borrowed rows —
/// the form Algorithm 2's clusterings use, passing the round's uploads
/// and the anchor row where they already live. Each pair's distance comes
/// from one [`dot_lanes`] and the two rows' squares (see the module
/// docs).
pub fn distance_matrix_rows(rows: &[&[f64]], metric: DistanceMetric) -> Vec<Vec<f64>> {
    let n = rows.len();
    let squares: Vec<f64> = rows.iter().map(|row| dot_lanes(row, row)).collect();
    let mut matrix = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let g_ij = dot_lanes(rows[i], rows[j]);
            let d = metric.gram_distance(g_ij, squares[i], squares[j]);
            matrix[i][j] = d;
            matrix[j][i] = d;
        }
    }
    matrix
}

/// Rectangular distance matrix between two packed row sets (`a.rows x
/// b.rows`), computed through one `A · Bᵀ` GEMM — the k-means
/// assignment step uses this for points against centroids.
pub fn cross_distance_matrix_packed(
    a: &Matrix,
    b: &Matrix,
    metric: DistanceMetric,
) -> Vec<Vec<f64>> {
    if a.rows == 0 || b.rows == 0 {
        return vec![Vec::new(); a.rows];
    }
    assert_eq!(a.cols, b.cols, "cross distance matrix dimension mismatch");
    let mut gram = Matrix::zeros(0, 0);
    matmul_transpose_b_into(a, b, &mut gram);

    let squared_norm = |m: &Matrix, i: usize| m.row(i).iter().map(|x| x * x).sum::<f64>();
    let norms_a: Vec<f64> = (0..a.rows).map(|i| squared_norm(a, i)).collect();
    let norms_b: Vec<f64> = (0..b.rows).map(|j| squared_norm(b, j)).collect();
    (0..a.rows)
        .map(|i| {
            (0..b.rows)
                .map(|j| metric.gram_distance(gram.get(i, j), norms_a[i], norms_b[j]))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfl_ml::gradient::cosine_distance;
    use proptest::prelude::*;

    /// [`distance_matrix_rows`] over owned vectors.
    fn distance_matrix(vectors: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let rows: Vec<&[f64]> = vectors.iter().map(Vec::as_slice).collect();
        distance_matrix_rows(&rows, DistanceMetric::Cosine)
    }

    /// The per-pair oracle: one `cosine_distance` per pair.
    fn distance_matrix_reference(vectors: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = vectors.len();
        let mut matrix = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = cosine_distance(&vectors[i], &vectors[j]);
                matrix[i][j] = d;
                matrix[j][i] = d;
            }
        }
        matrix
    }

    #[test]
    fn metrics_match_reference_implementations() {
        let vectors = vec![vec![1.0, 0.0], vec![0.0, 1.0], vec![-2.0, 0.0]];
        let m = distance_matrix(&vectors);
        assert!((m[0][1] - 1.0).abs() < 1e-12);
        assert!((m[0][2] - 2.0).abs() < 1e-12);
        assert!((m[0][1] - cosine_distance(&vectors[0], &vectors[1])).abs() < 1e-12);
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let vectors = vec![vec![1.0, 2.0], vec![3.0, -1.0], vec![0.5, 0.5]];
        let m = distance_matrix(&vectors);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, &value) in row.iter().enumerate() {
                assert!((value - m[j][i]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn gram_path_matches_reference_on_randomized_vectors() {
        let mut state = 0x5eed_1234u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
        };
        let vectors: Vec<Vec<f64>> = (0..17).map(|_| (0..23).map(|_| next()).collect()).collect();
        let fast = distance_matrix(&vectors);
        let reference = distance_matrix_reference(&vectors);
        for (fast_row, reference_row) in fast.iter().zip(reference.iter()) {
            for (x, y) in fast_row.iter().zip(reference_row.iter()) {
                assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }
    }

    #[test]
    fn zero_vectors_keep_reference_semantics() {
        let vectors = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 0.0]];
        let fast = distance_matrix(&vectors);
        let reference = distance_matrix_reference(&vectors);
        for i in 0..3 {
            for j in 0..3 {
                assert!((fast[i][j] - reference[i][j]).abs() < 1e-12);
            }
        }
        // A zero vector is at cosine distance 1 from everything (including
        // another zero vector), but 0 from itself on the diagonal.
        assert_eq!(fast[0][1], 1.0);
        assert_eq!(fast[0][2], 1.0);
        assert_eq!(fast[0][0], 0.0);
    }

    #[test]
    fn duplicate_uploads_stay_at_exactly_zero_distance() {
        // 40 rows of the paper's 7850 parameters, two of them duplicated.
        let (n, d) = (40usize, 7850usize);
        let mut state = 0xD15C_u64;
        let mut vectors: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..d)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
                    })
                    .collect()
            })
            .collect();
        vectors[39] = vectors[0].clone();
        vectors[21] = vectors[5].clone();

        // A duplicated pair sits at exactly the distance the pair gets on
        // its own: bit-identical Gram entries (zero up to the rounding of
        // `√G_ii · √G_jj`).
        let alone = |v: &Vec<f64>| distance_matrix(&[v.clone(), v.clone()])[0][1];
        let matrix = distance_matrix(&vectors);
        assert_eq!(matrix[0][39], alone(&vectors[0]));
        assert_eq!(matrix[5][21], alone(&vectors[5]));
        assert!(matrix[0][39].abs() < 1e-12 && matrix[5][21].abs() < 1e-12);
        assert!(matrix[0][1] > 0.1);
        // The packed front-end is the same computation.
        assert_eq!(
            distance_matrix_packed(&Matrix::from_rows(&vectors), DistanceMetric::Cosine),
            matrix
        );
    }

    #[test]
    fn near_identical_vectors_keep_reference_precision() {
        // The Gram form of d² cancels catastrophically here; the guarded
        // fallback must agree with the reference to the usual bound.
        let base: Vec<f64> = (0..16).map(|i| (i as f64) * 0.7 - 5.0).collect();
        let mut nudged = base.clone();
        nudged[3] += 1e-10;
        let vectors = vec![base, nudged];
        let fast = distance_matrix(&vectors);
        let reference = distance_matrix_reference(&vectors);
        assert!(
            (fast[0][1] - reference[0][1]).abs() < 1e-12,
            "{} vs {}",
            fast[0][1],
            reference[0][1]
        );
    }

    #[test]
    fn cross_matrix_matches_pairwise_distances() {
        let a = vec![vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 0.0]];
        let b = vec![vec![0.0, 1.0], vec![1.0, 1.0]];
        let (a_packed, b_packed) = (Matrix::from_rows(&a), Matrix::from_rows(&b));
        let m = cross_distance_matrix_packed(&a_packed, &b_packed, DistanceMetric::Cosine);
        assert_eq!(m.len(), 3);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row.len(), 2);
            for (j, &d) in row.iter().enumerate() {
                assert!((d - cosine_distance(&a[i], &b[j])).abs() < 1e-12);
            }
        }
        let none = Matrix::zeros(0, 0);
        assert!(cross_distance_matrix_packed(&none, &b_packed, DistanceMetric::Cosine).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn distances_are_non_negative(a in proptest::collection::vec(-10.0f64..10.0, 3..8),
                                      b in proptest::collection::vec(-10.0f64..10.0, 3..8)) {
            let n = a.len().min(b.len());
            let m = distance_matrix(&[a[..n].to_vec(), b[..n].to_vec()]);
            prop_assert!(m[0][1] >= 0.0);
        }

        #[test]
        fn gram_and_reference_agree_on_random_sets(seed in any::<u64>(), n in 2usize..12, d in 1usize..10) {
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 4.0 - 2.0
            };
            let vectors: Vec<Vec<f64>> = (0..n).map(|_| (0..d).map(|_| next()).collect()).collect();
            let fast = distance_matrix(&vectors);
            let reference = distance_matrix_reference(&vectors);
            for i in 0..n {
                for j in 0..n {
                    prop_assert!((fast[i][j] - reference[i][j]).abs() < 1e-9);
                }
            }
        }
    }
}
