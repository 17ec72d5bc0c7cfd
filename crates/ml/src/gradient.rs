//! Flat gradient/parameter vectors and the vector utilities the FAIR-BFL
//! machinery is built on.
//!
//! Algorithm 2 clusters the set of uploaded vectors `W^k_{r+1}` and weighs
//! high-contribution clients by the cosine distance `θ_i` between their
//! upload and the global update; Equation 1 then aggregates with weights
//! `p_i = θ_i / Σ θ_k`. Those operations — cosine similarity/distance,
//! norms, simple and weighted averaging — live here, together with the
//! byte-level serialization used when a gradient is packed into a
//! blockchain transaction payload.

use crate::par;
use crate::tensor;

/// A flat vector of model parameters ("the gradient" in the paper's sense).
pub type GradientVector = Vec<f64>;

/// Cosine similarity between two equal-length vectors, in `[-1, 1]`.
/// Returns 0 when either vector is all-zero.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "cosine similarity needs equal lengths");
    cosine_from_parts(tensor::dot(a, b), tensor::l2_norm(a), tensor::l2_norm(b))
}

/// The cosine of two vectors from their dot product and norms: 0 when
/// either norm is zero, else `dot / (norm_a · norm_b)` clamped to
/// `[-1, 1]`. [`cosine_similarity`] and Algorithm 2's θ scoring, which
/// forms its dots four uploads at a time, both end here.
pub fn cosine_from_parts(dot: f64, norm_a: f64, norm_b: f64) -> f64 {
    if norm_a == 0.0 || norm_b == 0.0 {
        return 0.0;
    }
    (dot / (norm_a * norm_b)).clamp(-1.0, 1.0)
}

/// Cosine distance `1 - cosine_similarity`, in `[0, 2]`. This is the θ of
/// Algorithm 2: "the larger the θ, the farther the distance".
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    1.0 - cosine_similarity(a, b)
}

/// Simple (unweighted) average of a set of equal-length vectors — the
/// paper's "Simple Average" aggregation in Algorithm 1 line 24.
pub fn average(vectors: &[GradientVector]) -> GradientVector {
    let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();
    average_refs(&refs)
}

/// [`average`] over borrowed slices — aggregation call sites use this to
/// average uploads in place instead of cloning every parameter vector.
pub fn average_refs(vectors: &[&[f64]]) -> GradientVector {
    assert!(!vectors.is_empty(), "cannot average zero vectors");
    let mut out = vec![0.0; vectors[0].len()];
    add_weighted_rows(&mut out, || vectors.iter().map(|v| (*v, 1.0)));
    tensor::scale(1.0 / vectors.len() as f64, &mut out);
    out
}

/// `out += Σ wᵢ·rowᵢ` over the `(rowᵢ, wᵢ)` pairs `rows()` yields, each
/// row added in turn by [`tensor::axpy`]: element by element, multiply
/// then add. The mean anchor and Equation 1's sums, materialized and
/// streaming, run here.
///
/// Past [`par::MIN_ROW_BYTES_PER_WORKER`] of rows a worker, `out` is split
/// by column range: each worker adds every row, in order, into its own
/// columns, so the bits do not depend on the split. `rows` is called once
/// to count and check the rows and once per worker; it allocates nothing
/// here.
///
/// # Panics
/// Panics if a row's length differs from `out`'s.
pub fn add_weighted_rows<'a, I>(out: &mut [f64], rows: impl Fn() -> I + Sync)
where
    I: Iterator<Item = (&'a [f64], f64)>,
{
    let len = out.len();
    let count = rows()
        .inspect(|(row, _)| assert_eq!(row.len(), len, "all vectors must have equal length"))
        .count();
    let workers = par::plan_row_pass(count, len);
    par::par_split_mut(out, workers, |first, columns| {
        let last = first + columns.len();
        for (row, weight) in rows() {
            tensor::axpy(weight, &row[first..last], columns);
        }
    });
}

/// Coordinates gathered per pass over the uploads: eight `f64`s are one
/// cache line of every row, so each line is fetched once instead of once
/// per coordinate (rows sit 63 KiB apart for the paper's model).
const GATHER_WIDTH: usize = 8;

/// Gathered values one worker must own before [`trimmed_mean_refs`] fans
/// out over coordinate blocks — a few hundred microseconds of selection,
/// well above handing a chunk to a parked worker.
const MIN_ANCHOR_VALUES_PER_WORKER: usize = 1 << 16;

/// Coordinate-wise trimmed mean: per coordinate, the smallest and largest
/// `floor(trim_ratio * n)` values are discarded and the rest averaged.
/// `trim_ratio` must be in `[0, 0.5]`; `0` is the plain average and `0.5`
/// degenerates to the coordinate-wise median (for even counts, the mean of
/// the two middle values) — the robust anchor that stays near the honest
/// mass even when a single upload is scaled far beyond the honest
/// head-count (the attack that corrupts the plain average).
///
/// Defined as: stable-sort the coordinate's values by `partial_cmp`, sum
/// the kept window in ascending order, divide by its length. Computed by
/// selection instead — the kept window is partitioned out of the column
/// and only it is ordered — with the identical bit pattern for every
/// finite input, at any thread count. A NaN coordinate orders by
/// [`f64::total_cmp`] (no panic); callers that must not aggregate one
/// reject it upstream with [`all_finite`].
pub fn trimmed_mean_refs(vectors: &[&[f64]], trim_ratio: f64) -> GradientVector {
    assert!(!vectors.is_empty(), "cannot aggregate zero vectors");
    assert!(
        (0.0..=0.5).contains(&trim_ratio),
        "trim_ratio must be in [0, 0.5]"
    );
    let n = vectors.len();
    let len = vectors[0].len();
    for v in vectors {
        assert_eq!(v.len(), len, "all vectors must have equal length");
    }
    // Number trimmed from each end; always leave at least one value (for
    // ratio 0.5 and even n that means the two middle values, i.e. the
    // conventional even-count median).
    let trim = ((n as f64 * trim_ratio).floor() as usize).min((n - 1) / 2);
    let mut out = vec![0.0; len];
    par::par_rows_mut(
        &mut out,
        1,
        MIN_ANCHOR_VALUES_PER_WORKER.div_ceil(n),
        |first, chunk| trimmed_mean_coordinates(vectors, trim, first, chunk),
    );
    out
}

/// Serial core of [`trimmed_mean_refs`] over the coordinates
/// `first..first + out.len()`.
fn trimmed_mean_coordinates(vectors: &[&[f64]], trim: usize, first: usize, out: &mut [f64]) {
    let n = vectors.len();
    let kept = n - 2 * trim;
    // Column-major scratch: column `c` of the current block is
    // `columns[c * n..(c + 1) * n]`.
    let mut columns = vec![0.0f64; GATHER_WIDTH * n];
    for (block, means) in out.chunks_mut(GATHER_WIDTH).enumerate() {
        let block_first = first + block * GATHER_WIDTH;
        for (row, v) in vectors.iter().enumerate() {
            for (c, &value) in v[block_first..block_first + means.len()].iter().enumerate() {
                columns[c * n + row] = value;
            }
        }
        for (c, mean) in means.iter_mut().enumerate() {
            let window = kept_window(&mut columns[c * n..(c + 1) * n], trim);
            let sum = if window[0] == 0.0 && window[kept - 1] == 0.0 {
                let column = vectors.iter().map(|v| v[block_first + c]);
                zero_window_sum(column, trim, kept)
            } else {
                window.iter().sum::<f64>()
            };
            *mean = sum / kept as f64;
        }
    }
}

/// Partitions `column` so that `column[trim..n - trim]` holds the values
/// a full sort would put there, in ascending order, and returns that
/// window. Up to two kept values (every median) fall out of the
/// selection already ordered; a longer window is sorted on its own.
fn kept_window(column: &mut [f64], trim: usize) -> &[f64] {
    let kept = column.len() - 2 * trim;
    if trim > 0 {
        column.select_nth_unstable_by(trim, f64::total_cmp);
    }
    let upper = &mut column[trim..];
    match kept {
        1 => {}
        2 => {
            upper.select_nth_unstable_by(1, f64::total_cmp);
        }
        _ => {
            if kept < upper.len() {
                upper.select_nth_unstable_by(kept - 1, f64::total_cmp);
            }
            upper[..kept].sort_unstable_by(f64::total_cmp);
        }
    }
    &upper[..kept]
}

/// Sum of a kept window that holds nothing but zeros. `partial_cmp` ties
/// `-0.0` with `+0.0` and the defining stable sort leaves ties in upload
/// order, so *which* zeros are kept — the only thing that can still
/// decide the sum's sign — is read off the column in its original order:
/// the kept zeros are the ones ranked `trim - negatives ..` among the
/// column's zeros. (Any window with a non-zero value sums to the same
/// bits whatever the signs of its zeros.)
fn zero_window_sum(column: impl Iterator<Item = f64> + Clone, trim: usize, kept: usize) -> f64 {
    let negatives = column.clone().filter(|v| *v < 0.0).count();
    column
        .filter(|v| *v == 0.0)
        .skip(trim.saturating_sub(negatives))
        .take(kept)
        .sum()
}

/// True when every coordinate is finite — neither NaN nor ±∞. Its caller
/// is the local pass (`LocalUpdate::new`, which `Client::local_update_as`
/// ends in): the pass records the verdict over the vector it returns, on
/// its own thread, and upload admission reads that verdict before a
/// gradient can reach an anchor or the global model.
///
/// Eight lanes each sum `x · 0` over their coordinates. That is a zero
/// for every finite `x` and NaN for NaN or ±∞, and a NaN stays in its
/// lane, so the vector is finite exactly when every lane ends on `0.0`
/// (either sign).
/// The lanes are independent adds with no branch or early exit, so the
/// scan vectorizes; the coordinates past the last full eight are checked
/// one by one.
pub fn all_finite(gradient: &[f64]) -> bool {
    const LANES: usize = 8;
    let chunks = gradient.chunks_exact(LANES);
    let tail = chunks.remainder();
    let mut lanes = [0.0f64; LANES];
    for chunk in chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane += x * 0.0;
        }
    }
    lanes.iter().all(|&lane| lane == 0.0) && tail.iter().all(|x| x.is_finite())
}

/// Weighted average `Σ p_i v_i / Σ p_i` — Equation 1's fair aggregation.
/// Weights must be non-negative and not all zero.
pub fn weighted_average(vectors: &[GradientVector], weights: &[f64]) -> GradientVector {
    let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();
    weighted_average_refs(&refs, weights)
}

/// [`weighted_average`] over borrowed slices.
pub fn weighted_average_refs(vectors: &[&[f64]], weights: &[f64]) -> GradientVector {
    assert_eq!(
        vectors.len(),
        weights.len(),
        "one weight per vector required"
    );
    assert!(!vectors.is_empty(), "cannot average zero vectors");
    assert!(
        weights.iter().all(|&w| w >= 0.0),
        "weights must be non-negative"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must not all be zero");
    let mut out = vec![0.0; vectors[0].len()];
    add_weighted_rows(&mut out, || {
        vectors.iter().zip(weights).map(|(v, &w)| (*v, w / total))
    });
    out
}

/// Serializes a gradient into little-endian `f64` bytes for use as a
/// blockchain transaction payload.
pub fn to_bytes(gradient: &[f64]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(gradient.len() * 8);
    stream_bytes(gradient, |chunk| bytes.extend_from_slice(chunk));
    bytes
}

/// Feeds `sink` the serialized form of `gradient` ([`to_bytes`]' bytes, in
/// order) through a small stack buffer — for consumers that only read it
/// once (hashing an upload for its signature) and should not allocate a
/// gradient-sized `Vec` to do it. Each chunk is the sink's to edit before
/// it reads it (a miner applying an in-transit corruption to the bytes it
/// hashes); the next chunk is serialized afresh.
pub fn stream_bytes(gradient: &[f64], mut sink: impl FnMut(&mut [u8])) {
    const VALUES_PER_CHUNK: usize = 512;
    let mut buffer = [0u8; VALUES_PER_CHUNK * 8];
    for values in gradient.chunks(VALUES_PER_CHUNK) {
        let bytes = &mut buffer[..values.len() * 8];
        for (slot, value) in bytes.chunks_exact_mut(8).zip(values) {
            slot.copy_from_slice(&value.to_le_bytes());
        }
        sink(bytes);
    }
}

/// Deserializes a gradient previously produced by [`to_bytes`]. Returns
/// `None` if the byte length is not a multiple of 8.
pub fn from_bytes(bytes: &[u8]) -> Option<GradientVector> {
    if !bytes.len().is_multiple_of(8) {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|chunk| {
                f64::from_le_bytes([
                    chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cosine_similarity_known_cases() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0])).abs() < 1e-12);
        assert!((cosine_similarity(&[1.0, 0.0], &[-1.0, 0.0]) + 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn cosine_distance_ranges() {
        assert!((cosine_distance(&[1.0, 2.0], &[2.0, 4.0])).abs() < 1e-12);
        assert!((cosine_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn average_of_identical_vectors_is_that_vector() {
        let v = vec![1.0, -2.0, 3.0];
        let avg = average(&[v.clone(), v.clone(), v.clone()]);
        for (a, b) in avg.iter().zip(v.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn average_matches_manual_computation() {
        let avg = average(&[vec![1.0, 0.0], vec![3.0, 2.0]]);
        assert_eq!(avg, vec![2.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "zero vectors")]
    fn average_of_nothing_panics() {
        let _ = average(&[]);
    }

    #[test]
    fn median_is_robust_to_one_wild_vector() {
        let honest = vec![vec![1.0, -1.0], vec![1.1, -0.9], vec![0.9, -1.1]];
        let mut with_attacker = honest.clone();
        with_attacker.push(vec![-8.0, 8.0]);
        let refs: Vec<&[f64]> = with_attacker.iter().map(|v| v.as_slice()).collect();
        let median = trimmed_mean_refs(&refs, 0.5);
        // The attacker drags the mean negative but barely moves the median.
        let mean = average(&with_attacker);
        assert!(mean[0] < 0.0);
        assert!(median[0] > 0.9 && median[0] < 1.1);
        assert!(median[1] < -0.8);
    }

    #[test]
    fn median_of_odd_count_is_the_middle_value() {
        let vs = [vec![5.0], vec![1.0], vec![3.0]];
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        assert_eq!(trimmed_mean_refs(&refs, 0.5), vec![3.0]);
    }

    #[test]
    fn median_of_even_count_averages_the_middle_pair() {
        let vs = [vec![1.0], vec![2.0], vec![10.0], vec![4.0]];
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        assert_eq!(trimmed_mean_refs(&refs, 0.5), vec![3.0]);
    }

    #[test]
    fn trimmed_mean_interpolates_between_mean_and_median() {
        let vs = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![100.0]];
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        // ratio 0 is the plain mean (up to summation rounding).
        assert!((trimmed_mean_refs(&refs, 0.0)[0] - average(&vs)[0]).abs() < 1e-12);
        // ratio 0.2 trims one value from each end: mean of 1, 2, 3.
        assert_eq!(trimmed_mean_refs(&refs, 0.2), vec![2.0]);
        // ratio 0.5 is the median.
        assert_eq!(trimmed_mean_refs(&refs, 0.5), vec![2.0]);
    }

    #[test]
    fn trimmed_mean_never_trims_everything() {
        let vs = [vec![1.0], vec![3.0]];
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        assert_eq!(trimmed_mean_refs(&refs, 0.5), vec![2.0]);
        let single = [&[7.0][..]];
        assert_eq!(trimmed_mean_refs(&single, 0.5), vec![7.0]);
    }

    /// The definition of [`trimmed_mean_refs`], as it was computed before
    /// selection replaced the sort: gather each column, stable-sort it by
    /// `partial_cmp`, sum the kept window in ascending order.
    fn trimmed_mean_sorted(vectors: &[&[f64]], trim_ratio: f64) -> GradientVector {
        let n = vectors.len();
        let len = vectors[0].len();
        let trim = ((n as f64 * trim_ratio).floor() as usize).min((n - 1) / 2);
        let kept = n - 2 * trim;
        let mut out = Vec::with_capacity(len);
        let mut column = vec![0.0f64; n];
        for coordinate in 0..len {
            for (row, v) in vectors.iter().enumerate() {
                column[row] = v[coordinate];
            }
            column.sort_by(|a, b| a.partial_cmp(b).expect("gradient values are not NaN"));
            out.push(column[trim..n - trim].iter().sum::<f64>() / kept as f64);
        }
        out
    }

    fn assert_same_bits(got: &[f64], expected: &[f64], context: &str) {
        assert_eq!(got.len(), expected.len(), "{context}");
        for (c, (g, e)) in got.iter().zip(expected).enumerate() {
            assert!(
                g.to_bits() == e.to_bits(),
                "{context}: coordinate {c} is {g:?}, not {e:?}"
            );
        }
    }

    #[test]
    fn signed_zero_windows_follow_upload_order_like_the_stable_sort() {
        // Every kept window here is all zeros, so the result's sign hangs
        // on which zeros the stable sort leaves inside it.
        let columns: [&[f64]; 6] = [
            &[0.0, -0.0, 0.0],
            &[-0.0, 0.0, -0.0],
            &[-0.0, -0.0, -0.0],
            &[0.0, -0.0, 0.0, -0.0],
            &[-3.0, -0.0, 0.0, -0.0, 0.0, 5.0],
            &[-0.0, 7.0, -0.0, -1.0, 0.0],
        ];
        for column in columns {
            let vectors: Vec<Vec<f64>> = column.iter().map(|&v| vec![v]).collect();
            let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();
            for ratio in [0.0, 0.2, 0.34, 0.5] {
                assert_same_bits(
                    &trimmed_mean_refs(&refs, ratio),
                    &trimmed_mean_sorted(&refs, ratio),
                    &format!("{column:?} at ratio {ratio}"),
                );
            }
        }
    }

    #[test]
    fn coordinate_blocks_fan_out_without_changing_a_bit() {
        // 9 x 30011 values clear the work gate four times over; the odd
        // length leaves a ragged last block in every worker's range.
        let (n, len) = (9usize, 30011usize);
        let mut state = 0x7E57_u64;
        let vectors: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        // A coarse grid, so ties are common.
                        ((state >> 59) as f64 - 16.0) * 0.25
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();
        for ratio in [0.2, 0.5] {
            let expected = trimmed_mean_sorted(&refs, ratio);
            for limit in [1, 2, 3, 8] {
                let got = par::with_thread_limit(limit, || trimmed_mean_refs(&refs, ratio));
                assert_same_bits(&got, &expected, &format!("ratio {ratio}, {limit} threads"));
            }
        }
    }

    #[test]
    fn row_sums_split_by_column_keep_the_serial_loops_bits() {
        // 270 rows of the paper's 7850 parameters are eight workers' worth
        // of rows, so each limit below fans out to exactly that many. The
        // column splits land off the AVX2 body's 8-wide steps: 2 workers
        // own 3925 columns apiece (a 4-wide step and a one-column tail), 3
        // own 2617, 2617 and 2616, and 8 own 982 or 981.
        let (rows, len) = (270usize, 7850usize);
        let mut state = 0x0C01_u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Full-width mantissas over several binades, so every add rounds.
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * (1 << (state % 7)) as f64
        };
        let vectors: Vec<Vec<f64>> = (0..rows)
            .map(|_| (0..len).map(|_| next()).collect())
            .collect();
        let weights: Vec<f64> = (0..rows).map(|_| next().abs() + 0.01).collect();
        let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();

        // The serial loops, element by element: multiply, then add.
        let serial = |weight: &dyn Fn(usize) -> f64| {
            let mut out = vec![0.0; len];
            for (r, v) in refs.iter().enumerate() {
                for (o, &x) in out.iter_mut().zip(v.iter()) {
                    *o += weight(r) * x;
                }
            }
            out
        };
        let mut mean = serial(&|_| 1.0);
        for o in &mut mean {
            *o *= 1.0 / rows as f64;
        }
        let total: f64 = weights.iter().sum();
        let equation_1 = serial(&|r| weights[r] / total);
        let streamed = serial(&|r| weights[r]);

        for limit in [1, 2, 3, 8] {
            par::with_thread_limit(limit, || {
                assert_eq!(par::plan_row_pass(rows, len), limit);
                let context = |what: &str| format!("{what} at {limit} threads");
                assert_same_bits(&average_refs(&refs), &mean, &context("the mean"));
                assert_same_bits(
                    &weighted_average_refs(&refs, &weights),
                    &equation_1,
                    &context("Equation 1"),
                );
                let mut sum = vec![0.0; len];
                add_weighted_rows(&mut sum, || {
                    refs.iter().copied().zip(weights.iter().copied())
                });
                assert_same_bits(&sum, &streamed, &context("the streaming sum"));
            });
        }
    }

    #[test]
    fn a_nan_coordinate_does_not_panic_the_anchor() {
        let vs = [vec![1.0, f64::NAN], vec![2.0, 0.5], vec![f64::NAN, 0.25]];
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        for ratio in [0.0, 0.34, 0.5] {
            assert_eq!(trimmed_mean_refs(&refs, ratio).len(), 2);
        }
    }

    #[test]
    fn all_finite_flags_nan_and_infinities_anywhere() {
        assert!(all_finite(&[]));
        assert!(all_finite(&[
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324
        ]));
        for bad in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for position in [0, 7, 8, 40] {
                let mut g = vec![1.5; 41];
                g[position] = bad;
                assert!(!all_finite(&g), "{bad} at {position}");
            }
        }
    }

    /// The lane-wise scan against `is_finite` one coordinate at a time,
    /// with each awkward value at every lane of two full blocks and at
    /// every position of the tail: NaN and ±∞ must be caught wherever
    /// they sit, and −0.0, a subnormal and ±`f64::MAX` (whose product
    /// with zero is still a zero) must pass. Every prefix is checked too,
    /// so each position is also the last, in a block or in a tail.
    #[test]
    fn all_finite_agrees_with_is_finite_at_every_lane_and_tail_position() {
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            f64::MAX,
            -f64::MAX,
        ];
        // Two full blocks and a tail of seven.
        let len = 23;
        for value in values {
            for position in 0..len {
                let mut g: Vec<f64> = (0..len).map(|i| i as f64 * 0.37 - 3.0).collect();
                g[position] = value;
                assert_eq!(all_finite(&g), value.is_finite(), "{value} at {position}");
                assert_eq!(
                    all_finite(&g[..=position]),
                    value.is_finite(),
                    "{value} last at {position}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero vectors")]
    fn median_of_nothing_panics() {
        let _ = trimmed_mean_refs(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "trim_ratio")]
    fn out_of_range_trim_ratio_panics() {
        let _ = trimmed_mean_refs(&[&[1.0][..]], 0.6);
    }

    #[test]
    fn weighted_average_reduces_to_average_with_equal_weights() {
        let vs = vec![vec![1.0, 2.0], vec![3.0, 6.0], vec![5.0, 1.0]];
        let w = vec![1.0, 1.0, 1.0];
        let a = average(&vs);
        let b = weighted_average(&vs, &w);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn weighted_average_weights_matter() {
        let vs = vec![vec![0.0], vec![10.0]];
        let heavy_second = weighted_average(&vs, &[1.0, 9.0]);
        assert!((heavy_second[0] - 9.0).abs() < 1e-12);
        let only_first = weighted_average(&vs, &[1.0, 0.0]);
        assert!((only_first[0] - 0.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_panic() {
        let _ = weighted_average(&[vec![1.0]], &[0.0]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_panic() {
        let _ = weighted_average(&[vec![1.0], vec![2.0]], &[0.5, -0.5]);
    }

    #[test]
    fn byte_round_trip_and_malformed_input() {
        let g = vec![1.5, -2.25, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let bytes = to_bytes(&g);
        assert_eq!(bytes.len(), g.len() * 8);
        assert_eq!(from_bytes(&bytes), Some(g));
        assert_eq!(from_bytes(&bytes[..7]), None);
        assert_eq!(from_bytes(&[]), Some(vec![]));
    }

    #[test]
    fn streamed_bytes_concatenate_to_the_serialized_form() {
        // Lengths around the 512-value chunk, and an upload-sized vector.
        for len in [0usize, 1, 511, 512, 513, 1024, 7850] {
            let g: Vec<f64> = (0..len).map(|i| (i as f64 - 300.5) * 0.37).collect();
            let mut streamed = Vec::new();
            let mut largest = 0;
            stream_bytes(&g, |chunk| {
                assert!(!chunk.is_empty() && chunk.len().is_multiple_of(8));
                largest = largest.max(chunk.len());
                streamed.extend_from_slice(chunk);
            });
            let by_value: Vec<u8> = g.iter().flat_map(|v| v.to_le_bytes()).collect();
            assert_eq!(streamed, by_value, "len = {len}");
            assert_eq!(to_bytes(&g), by_value);
            assert!(largest <= 4096, "the buffer stays on the stack");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn cosine_similarity_is_bounded(a in proptest::collection::vec(-100.0f64..100.0, 1..32)) {
            let b: Vec<f64> = a.iter().rev().cloned().collect();
            let s = cosine_similarity(&a, &b);
            prop_assert!((-1.0..=1.0).contains(&s));
            prop_assert!((0.0..=2.0).contains(&cosine_distance(&a, &b)));
        }

        #[test]
        fn cosine_similarity_is_scale_invariant(a in proptest::collection::vec(-10.0f64..10.0, 2..16), k in 0.1f64..50.0) {
            let b: Vec<f64> = a.iter().map(|v| v * 0.7 + 0.1).collect();
            let scaled: Vec<f64> = a.iter().map(|v| v * k).collect();
            let s1 = cosine_similarity(&a, &b);
            let s2 = cosine_similarity(&scaled, &b);
            prop_assert!((s1 - s2).abs() < 1e-9);
        }

        #[test]
        fn weighted_average_stays_in_convex_hull(values in proptest::collection::vec(-50.0f64..50.0, 2..8), w in proptest::collection::vec(0.01f64..10.0, 2..8)) {
            let n = values.len().min(w.len());
            let vectors: Vec<GradientVector> = values[..n].iter().map(|&v| vec![v]).collect();
            let avg = weighted_average(&vectors, &w[..n]);
            let lo = values[..n].iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values[..n].iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(avg[0] >= lo - 1e-9 && avg[0] <= hi + 1e-9);
        }

        #[test]
        fn byte_round_trip_random(g in proptest::collection::vec(-1e12f64..1e12, 0..64)) {
            prop_assert_eq!(from_bytes(&to_bytes(&g)), Some(g));
        }

        /// Selection against the sort it replaced, bit for bit: odd and
        /// even counts, every trim ratio the anchors use plus arbitrary
        /// ones, values drawn from a grid of nine (so most comparisons are
        /// ties) that contains both signed zeros.
        #[test]
        fn selection_matches_the_sorted_form_bit_for_bit(
            n in 1usize..24,
            len in 1usize..20,
            ratio_index in 0usize..5,
            free_ratio in 0.0f64..0.5,
            cells in proptest::collection::vec(0usize..9, 24 * 20..24 * 20 + 1),
        ) {
            const GRID: [f64; 9] = [-2.5, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1.0 + f64::EPSILON, 1e12];
            let ratio = [0.0, 0.1, 0.2, 0.5, free_ratio][ratio_index];
            let vectors: Vec<Vec<f64>> = (0..n)
                .map(|row| (0..len).map(|c| GRID[cells[row * len + c]]).collect())
                .collect();
            let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();
            let got = trimmed_mean_refs(&refs, ratio);
            let expected = trimmed_mean_sorted(&refs, ratio);
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!(g.to_bits(), e.to_bits());
            }
        }

        #[test]
        fn trimmed_mean_stays_in_convex_hull(values in proptest::collection::vec(-50.0f64..50.0, 1..12), ratio in 0.0f64..0.5) {
            let vectors: Vec<GradientVector> = values.iter().map(|&v| vec![v]).collect();
            let refs: Vec<&[f64]> = vectors.iter().map(|v| v.as_slice()).collect();
            let trimmed = trimmed_mean_refs(&refs, ratio);
            let lo = values.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(trimmed[0] >= lo - 1e-9 && trimmed[0] <= hi + 1e-9);
        }
    }
}
