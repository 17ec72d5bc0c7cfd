//! SIMD == scalar, bit-for-bit, under proptest: every dispatched kernel
//! of the AVX2+FMA tier must reproduce the frozen scalar accumulation
//! order exactly — `to_bits()` equality, not an epsilon — across
//! arbitrary shapes (empty operands, sub-`LANES` remainders, stripe
//! tails, both `gemm_nt` cache regimes) and adversarial values (signed
//! zeros, subnormals, magnitudes that stress rounding).
//!
//! The tier is pinned per comparison with [`simd::set_enabled`], which
//! flips a process-global atomic; [`tier_lock`] serializes every
//! comparison in this binary so concurrently running tests never observe
//! each other's tier. On hosts without AVX2+FMA, forcing the vector tier
//! is a no-op and each comparison degenerates to scalar == scalar —
//! vacuous but harmless (CI's `BFL_SIMD=off` leg covers the scalar tier
//! explicitly either way).

use std::sync::{Mutex, MutexGuard};

use bfl_ml::model::{Model, ModelKind};
use bfl_ml::tensor::{self, Matrix, Scratch, SgdStep};
use bfl_ml::{metrics, par, simd};
use proptest::prelude::*;

/// Serializes tier flips across this binary's concurrently running
/// tests. An assertion failure inside the critical section poisons the
/// mutex; later tests still need the lock, so poisoning is ignored.
fn tier_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Runs `compute` once per tier under the lock and asserts the outputs
/// are bit-identical. `compute` must be deterministic and must not
/// itself flip the tier.
fn assert_tiers_bit_identical(label: &str, mut compute: impl FnMut() -> Vec<f64>) {
    let _guard = tier_lock();
    simd::set_enabled(false);
    let scalar = compute();
    simd::set_enabled(true);
    let vector = compute();
    simd::reset();
    assert_eq!(scalar.len(), vector.len(), "{label}: output length differs");
    for (i, (s, v)) in scalar.iter().zip(vector.iter()).enumerate() {
        assert!(
            s.to_bits() == v.to_bits(),
            "{label}: element {i} differs — scalar {s:?} ({:#018x}) vs simd {v:?} ({:#018x})",
            s.to_bits(),
            v.to_bits(),
        );
    }
}

/// Element values that stress bit-identity: ordinary magnitudes mixed
/// with exact zeros of both signs, subnormals, and values far apart in
/// exponent (where a re-associated sum would round differently). A
/// hand-rolled mixture because the vendored proptest shim has no
/// `prop_oneof!`.
#[derive(Clone, Copy)]
struct AdversarialF64;

impl Strategy for AdversarialF64 {
    type Value = f64;
    fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> f64 {
        match rng.below(14) {
            0 => 0.0,
            1 => -0.0,
            2 => 5e-324, // smallest positive subnormal
            3 => -5e-324,
            4 | 5 => Strategy::sample(&(-1e-12..1e-12f64), rng),
            6 => Strategy::sample(&(-1e12..1e12f64), rng),
            _ => Strategy::sample(&(-100.0..100.0f64), rng),
        }
    }
}

fn element() -> AdversarialF64 {
    AdversarialF64
}

fn buffer(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(AdversarialF64, len..len + 1)
}

proptest! {
    // Shapes dominate the search space more than values do; 64 cases per
    // property keeps the whole suite inside a few seconds while still
    // visiting empty, remainder, and multi-stripe sizes every run.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One dot product of arbitrary length (`gemm_nt` with a 1x1 output
    /// is exactly one `dot_lanes` call): covers the empty product, the
    /// sub-`LANES` scalar remainder, the `LANES` tail, and multiple
    /// 32-wide stripes.
    #[test]
    fn dot_lanes_matches_scalar_bits(
        k in 0usize..200,
        seed_a in buffer(200),
        seed_b in buffer(200),
    ) {
        let a = seed_a[..k].to_vec();
        let b = seed_b[..k].to_vec();
        assert_tiers_bit_identical("dot", || {
            let mut c = vec![0.0f64; 1];
            tensor::gemm_nt(&a, &b, &mut c, 1, k, 1);
            c
        });
    }

    /// `gemm_nt` in the large-row regime (per-element `dot_lanes`,
    /// `k <= 2 * NT_K_BLOCK` keeps the small-path guard false).
    #[test]
    fn gemm_nt_large_regime_matches_scalar_bits(
        m in 0usize..6,
        n in 0usize..40,
        k in 0usize..80,
        seed in buffer(6 * 40 + 6 * 80 + 40 * 80),
    ) {
        let a = seed[..m * k].to_vec();
        let b = seed[m * k..m * k + n * k].to_vec();
        assert_tiers_bit_identical("gemm_nt (large regime)", || {
            let mut c = vec![0.0f64; m * n];
            tensor::gemm_nt(&a, &b, &mut c, m, k, n);
            c
        });
    }

    /// `gemm_nt` in the small-row L1-blocked regime (`rows <= 16`,
    /// `n <= 32`, `k > 2 * NT_K_BLOCK = 256`), including the k-block
    /// boundary overwrite-then-accumulate sequence and the leftover-`j`
    /// columns after the groups of four.
    #[test]
    fn gemm_nt_small_regime_matches_scalar_bits(
        m in 1usize..5,
        n in 1usize..12,
        k in 257usize..420,
        seed in buffer(5 * 420 + 12 * 420),
    ) {
        let a = seed[..m * k].to_vec();
        let b = seed[m * k..m * k + n * k].to_vec();
        assert_tiers_bit_identical("gemm_nt (small regime)", || {
            let mut c = vec![0.0f64; m * n];
            tensor::gemm_nt(&a, &b, &mut c, m, k, n);
            c
        });
    }

    /// `gemm_nt_indexed` reads minibatch rows in place through an index
    /// list (duplicates allowed) and must match the gather-then-`gemm_nt`
    /// result bit-for-bit on both tiers.
    #[test]
    fn gemm_nt_indexed_matches_scalar_bits(
        pool_rows in 1usize..8,
        n in 0usize..10,
        k in 0usize..300,
        idx_seed in proptest::collection::vec(0usize..8, 0..12),
        seed in buffer(8 * 300 + 10 * 300),
    ) {
        let features = Matrix::from_vec(pool_rows, k, seed[..pool_rows * k].to_vec());
        let b = seed[pool_rows * k..pool_rows * k + n * k].to_vec();
        let rows: Vec<usize> = idx_seed.iter().map(|&i| i % pool_rows).collect();
        assert_tiers_bit_identical("gemm_nt_indexed", || {
            let mut c = vec![0.0f64; rows.len() * n];
            tensor::gemm_nt_indexed(&features, &rows, &b, &mut c, n);
            c
        });
    }

    /// `axpy` (the SGD parameter update): deliberately *unfused*
    /// multiply-then-add in both tiers — an FMA here would be a one-
    /// rounding difference this property would catch immediately.
    #[test]
    fn axpy_matches_scalar_bits(
        len in 0usize..200,
        alpha in element(),
        seed_x in buffer(200),
        seed_y in buffer(200),
    ) {
        let x = seed_x[..len].to_vec();
        let y0 = seed_y[..len].to_vec();
        assert_tiers_bit_identical("axpy", || {
            let mut y = y0.clone();
            tensor::axpy(alpha, &x, &mut y);
            y
        });
    }

    /// `gemm_tn_indexed_step`, the backward with the SGD step fused in:
    /// the step of each finished element (FedProx's pull included) is a
    /// separate subtract, multiply and add on both tiers, over
    /// adversarial parameters, anchors and coefficients.
    #[test]
    fn gemm_tn_indexed_step_matches_scalar_bits(
        pool_rows in 1usize..8,
        m in 0usize..12,
        n in 0usize..70,
        idx_seed in proptest::collection::vec(0usize..8, 0..10),
        seed in buffer(8 * 70 + 10 * 12),
        w0 in buffer(12 * 70),
        anchor in buffer(12 * 70),
        alpha in element(),
        mu_b in element(),
        proximal in any::<bool>(),
    ) {
        let features = Matrix::from_vec(pool_rows, n, seed[..pool_rows * n].to_vec());
        let rows: Vec<usize> = idx_seed.iter().map(|&i| i % pool_rows).collect();
        let a = seed[seed.len() - rows.len() * m..].to_vec();
        let step = SgdStep {
            alpha,
            proximal: proximal.then_some((mu_b, &anchor[..m * n])),
        };
        assert_tiers_bit_identical("gemm_tn_indexed_step", || {
            let mut w = w0[..m * n].to_vec();
            tensor::gemm_tn_indexed_step(&a, &features, &rows, &mut w, m, &step);
            w
        });
    }
}

/// `Aᵀ · X[rows]` (`A: B x m`) element by element, independent of the
/// kernel's tiling: the gradient the backward stored before the SGD step
/// moved into it. Each element sums its samples in ascending order from
/// `+0.0` — a fused multiply-add in the columns the kernel covers with
/// 8-wide vectors, a multiply then an add in the tail past the last full
/// vector — and is stored as it ends, `−0.0` included.
fn raw_gradient(a: &[f64], features: &Matrix, rows: &[usize], m: usize) -> Vec<f64> {
    let n = features.cols;
    let vector_columns = n - n % 8;
    let mut grad = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut sum = 0.0f64;
            for (r, &row) in rows.iter().enumerate() {
                let (coefficient, x) = (a[r * m + i], features.row(row)[j]);
                sum = if j < vector_columns {
                    coefficient.mul_add(x, sum)
                } else {
                    sum + coefficient * x
                };
            }
            grad[i * n + j] = sum;
        }
    }
    grad
}

/// The fused step against the composition it replaced, on each tier:
/// the summed gradient stored whole ([`raw_gradient`], no code shared
/// with the kernel), then FedProx's pull over it, then `axpy` into the
/// weights. Batch sizes 1,
/// 3, 8, 10 and 17, feature counts leaving every `LANES` tail, row counts
/// on and off the kernel's 4- and 2-row blocks, μ of 0 and 0.3; `to_bits`
/// equality, so an FMA anywhere in the step fails it.
#[test]
fn the_fused_step_keeps_the_unfused_bits_on_both_tiers() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x57E9);
    let mut value = move || rng.gen_range(-2.0..2.0);
    let _guard = tier_lock();
    for vector_tier in [false, true] {
        simd::set_enabled(vector_tier);
        for batch in [1usize, 3, 8, 10, 17] {
            for n in (8..16).chain([23, 785]) {
                for m in [1usize, 2, 3, 4, 5, 6, 7, 10] {
                    let pool: Vec<f64> = (0..20 * n).map(|_| value()).collect();
                    let features = Matrix::from_vec(20, n, pool);
                    let rows: Vec<usize> = (0..batch).map(|i| (i * 7 + 2) % 20).collect();
                    let a: Vec<f64> = (0..batch * m).map(|_| value()).collect();
                    let start: Vec<f64> = (0..m * n).map(|_| value()).collect();
                    let anchor: Vec<f64> = (0..m * n).map(|_| value()).collect();
                    for mu in [0.0, 0.3] {
                        let alpha = -0.01 * (1.0 / batch as f64);
                        let mu_b = mu * batch as f64;

                        let mut composed = start.clone();
                        let mut grad = raw_gradient(&a, &features, &rows, m);
                        if mu > 0.0 {
                            for ((g, w), w0) in grad.iter_mut().zip(&composed).zip(&anchor) {
                                *g += mu_b * (w - w0);
                            }
                        }
                        tensor::axpy(alpha, &grad, &mut composed);

                        let mut fused = start.clone();
                        let step = SgdStep {
                            alpha,
                            proximal: (mu > 0.0).then_some((mu_b, anchor.as_slice())),
                        };
                        tensor::gemm_tn_indexed_step(&a, &features, &rows, &mut fused, m, &step);

                        for (i, (f, c)) in fused.iter().zip(&composed).enumerate() {
                            assert!(
                                f.to_bits() == c.to_bits(),
                                "vector tier {vector_tier}, B {batch}, {m} x {n}, mu {mu}: \
                                 element {i} fused {f:?} vs composed {c:?}"
                            );
                        }
                    }
                }
            }
        }
    }
    simd::reset();
}

/// The `j >= i` entries of a row-major `n x n` matrix, row by row.
fn upper_entries(matrix: &[f64], n: usize) -> Vec<f64> {
    (0..n)
        .flat_map(|i| (i..n).map(move |j| (i, j)))
        .map(|(i, j)| matrix[i * n + j])
        .collect()
}

/// Everything `gram_upper` writes for `rows` — the entries with `j >= i`,
/// row-major — under a pinned fan-out limit.
fn gram_upper_entries(rows: &[&[f64]], thread_limit: usize) -> Vec<f64> {
    let n = rows.len();
    let mut out = vec![f64::NAN; n * n];
    par::with_thread_limit(thread_limit, || tensor::gram_upper(rows, &mut out));
    for i in 0..n {
        for j in 0..i {
            assert!(out[i * n + j].is_nan(), "entry ({i}, {j}) was written");
        }
    }
    upper_entries(&out, n)
}

/// The same entries read out of the full `V · Vᵀ` GEMM the Gram path
/// used to run — the bit patterns `gram_upper` must keep.
fn gemm_nt_upper_entries(rows: &[&[f64]]) -> Vec<f64> {
    let n = rows.len();
    let k = rows.first().map_or(0, |row| row.len());
    let packed: Vec<f64> = rows.iter().flat_map(|row| row.iter().copied()).collect();
    let mut full = vec![0.0f64; n * n];
    tensor::gemm_nt(&packed, &packed, &mut full, n, k, n);
    upper_entries(&full, n)
}

/// Row lengths that end in every kind of tail: empty, sub-`LANES`
/// scalar remainders, `LANES` tails, whole stripes, and both sides of
/// the `2 * NT_K_BLOCK = 256` regime switch.
const GRAM_ROW_LENGTHS: [usize; 14] = [0, 1, 7, 8, 9, 31, 32, 33, 40, 71, 256, 257, 300, 389];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The triangle kernel against the GEMM it replaced, entry by entry
    /// and bit by bit, on both tiers. Every `n` in `0..70` is visited
    /// (crossing the 16-row regime switch, the 4 × 2 micro-tiles and the
    /// 16-row panels) with row lengths cycling through every tail, and one
    /// row is repeated so the identical-rows ⇒ identical-entries guarantee
    /// is exercised too.
    #[test]
    fn gram_upper_matches_gemm_nt_bits(
        shift in 0usize..14,
        duplicate_to in 0usize..70,
        duplicate_from in 0usize..70,
        seed in buffer(70 * 389),
    ) {
        for n in 0..70 {
            let k = GRAM_ROW_LENGTHS[(n + shift) % GRAM_ROW_LENGTHS.len()];
            let mut rows: Vec<&[f64]> = (0..n).map(|i| &seed[i * k..(i + 1) * k]).collect();
            if n > 0 {
                rows[duplicate_to % n] = rows[duplicate_from % n];
            }
            assert_tiers_bit_identical("gram_upper vs gemm_nt", || {
                let expected = gemm_nt_upper_entries(&rows);
                let got = gram_upper_entries(&rows, 8);
                assert!(
                    got.iter().zip(&expected).all(|(g, e)| g.to_bits() == e.to_bits()),
                    "n={n} k={k}: gram_upper differs from gemm_nt"
                );
                expected
            });
        }
    }
}

/// Row lengths at the edges of the tiled Gram regime's `k`-blocks (16
/// stripes of 32, 512 elements): one and two blocks, each exact, one or
/// a `LANES` tail past it (plus a remainder), and one short of it; and
/// the model's 7850.
const GRAM_EDGE_LENGTHS: [usize; 15] = [
    503, 504, 511, 512, 513, 520, 521, 1015, 1016, 1023, 1024, 1025, 1032, 1033, 7850,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// The register-tiled Gram regime against the GEMM, bit for bit on
    /// both tiers, where a tiling bug would show: row lengths at every
    /// `k`-block edge, so stripe accumulators are carried across blocks
    /// and finished from partial ones; every `n` in `17..=40` and 129, so
    /// the matrix ends inside micro-tiles (4 × 2) and panels (16); fan-out
    /// limits 1, 2, 3 and 8 on the 129 × 1033 Gram (8.7 M multiply-adds,
    /// up to four workers), whose worker boundaries fall inside
    /// micro-tiles; and one row repeated in every row and
    /// column position of a micro-tile, whose entries must be identical.
    /// `gram_upper_entries` checks nothing below the diagonal is written.
    #[test]
    fn gram_upper_tiles_match_gemm_nt_bits_at_their_edges(
        shift in 0usize..15,
        source in 0usize..129,
        seed in buffer(40 * 7850),
    ) {
        for n in (17..=40).chain([129]) {
            let k = if n == 129 { 1033 } else { GRAM_EDGE_LENGTHS[(n + shift) % 15] };
            let mut rows: Vec<&[f64]> = (0..n).map(|i| &seed[i * k..(i + 1) * k]).collect();
            // Rows 1, 6, 11 and 16 hold micro-tile row positions 1, 2, 3
            // and 0, and column positions 1, 0, 1 and 0; `n - 1` is the
            // matrix's last row.
            let copies = [1, 6, 11, 16, n - 1];
            let source = source % n;
            for at in copies {
                rows[at] = rows[source];
            }
            let limits: &[usize] = if n == 129 { &[1, 2, 3, 8] } else { &[1, 8] };
            assert_tiers_bit_identical("gram_upper tiles vs gemm_nt", || {
                let expected = gemm_nt_upper_entries(&rows);
                for &limit in limits {
                    let got = gram_upper_entries(&rows, limit);
                    assert!(
                        got.iter().zip(&expected).all(|(g, e)| g.to_bits() == e.to_bits()),
                        "n={n} k={k} limit={limit}: gram_upper differs from gemm_nt"
                    );
                }
                // Identical rows give identical entries against every
                // row past them.
                let entry = |i: usize, j: usize| {
                    let (i, j) = (i.min(j), i.max(j));
                    expected[i * n - i * (i + 1) / 2 + j]
                };
                let mut at = copies.to_vec();
                at.push(source);
                for j in 0..n {
                    let bits = entry(at[0], j).to_bits();
                    assert!(
                        at.iter().all(|&i| entry(i, j).to_bits() == bits),
                        "n={n} k={k}: copies of row {source} differ against row {j}"
                    );
                }
                expected
            });
        }
    }
}

/// Row lengths around the small-row regime's `k`-blocks: one block, two,
/// either side of the `2 * NT_K_BLOCK = 256` switch and of the blocks past
/// it, with `LANES` and sub-`LANES` tails; and past the tiled regime's
/// 512-element `k`-blocks.
const GRAM_ENTRY_LENGTHS: [usize; 14] = [
    0, 9, 128, 129, 255, 256, 257, 263, 383, 384, 385, 512, 521, 1033,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Gram entries formed alone are the entries `gram_upper` writes, bit
    /// for bit on both tiers and in either argument order, and so are a
    /// row's squared norm and entry formed together: every `n` in `1..40`
    /// (both sides of the 16-row regime switch, inside and past the
    /// register tiles) with row lengths cycling through `k`-block tails on
    /// both sides of 256, one row repeated.
    #[test]
    fn gram_entry_matches_gram_upper_bits(
        shift in 0usize..14,
        duplicate in 0usize..40,
        seed in buffer(40 * 1033),
    ) {
        for n in 1..40 {
            let k = GRAM_ENTRY_LENGTHS[(n + shift) % GRAM_ENTRY_LENGTHS.len()];
            let mut rows: Vec<&[f64]> = (0..n).map(|i| &seed[i * k..(i + 1) * k]).collect();
            rows[n - 1] = rows[duplicate % n];
            assert_tiers_bit_identical("gram_entry vs gram_upper", || {
                let expected = gram_upper_entries(&rows, 2);
                let entry = |i: usize, j: usize| {
                    let (i, j) = (i.min(j), i.max(j));
                    expected[i * n - i * (i + 1) / 2 + j]
                };
                for i in 0..n {
                    for j in 0..n {
                        let (want, want_square) = (entry(i, j), entry(i, i));
                        let got = tensor::gram_entry(rows[i], rows[j], n);
                        let (square, paired) = tensor::gram_square_and_entry(rows[i], rows[j], n);
                        assert!(
                            got.to_bits() == want.to_bits()
                                && paired.to_bits() == want.to_bits()
                                && square.to_bits() == want_square.to_bits(),
                            "n={n} k={k} ({i}, {j}): {got:?}, {paired:?} and {square:?} vs \
                             gram_upper's {want:?} and {want_square:?}"
                        );
                    }
                }
                expected
            });
        }
    }
}

/// A Gram large enough that the work gate really fans out — 2415 dots of
/// 7001 multiply-adds split two, three and eight ways, boundaries landing
/// inside micro-tiles and panels — still equals the serial kernel and the
/// GEMM on every entry, under either tier.
#[test]
fn gram_upper_fans_out_without_changing_a_bit() {
    let (n, k) = (69usize, 7001usize);
    let mut state = 0x6AA3_u64;
    let data: Vec<f64> = (0..n * k)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        })
        .collect();
    let mut rows: Vec<&[f64]> = data.chunks(k).collect();
    // Identical rows on both sides of every worker boundary.
    rows[68] = rows[0];
    rows[40] = rows[3];
    assert_tiers_bit_identical("gram_upper fan-out", || {
        let expected = gemm_nt_upper_entries(&rows);
        for limit in [1, 2, 3, 8] {
            let got = gram_upper_entries(&rows, limit);
            assert!(
                got.iter()
                    .zip(&expected)
                    .all(|(g, e)| g.to_bits() == e.to_bits()),
                "limit={limit}: gram_upper differs from gemm_nt"
            );
        }
        expected
    });
}

/// End-to-end: a full batched loss/gradient pass, an evaluation sweep and
/// a fused SGD step with and without FedProx produce bit-identical
/// losses, gradients, accuracies and stepped parameters under either
/// tier — the composite the per-kernel properties exist to guarantee.
#[test]
fn batched_training_and_eval_bits_match_across_tiers() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let kind = ModelKind::SoftmaxRegression {
        features: 300,
        classes: 7,
    };
    let mut rng = StdRng::seed_from_u64(0x51D0);
    let model = kind.build(&mut rng);
    let rows = 37;
    let data: Vec<f64> = (0..rows * 300).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..7)).collect();
    let features = Matrix::from_vec(rows, 300, data);
    let batch: Vec<usize> = (0..rows).step_by(2).collect();

    let anchor: Vec<f64> = model.params_ref().iter().map(|w| w * 0.5).collect();
    assert_tiers_bit_identical("loss/grad/accuracy/step", || {
        let mut scratch = Scratch::new();
        let mut grad = Vec::new();
        let loss = model.loss_and_grad_batched(&features, &labels, &batch, &mut grad, &mut scratch);
        let acc = metrics::accuracy(&model, &features, &labels, None);
        grad.push(loss);
        grad.push(acc);
        for proximal in [None, Some((0.3 * batch.len() as f64, anchor.as_slice()))] {
            let mut stepped = model.clone();
            let step = SgdStep {
                alpha: -0.01 / batch.len() as f64,
                proximal,
            };
            let loss =
                stepped.loss_and_step_batched(&features, &labels, &batch, &step, &mut scratch);
            grad.extend_from_slice(stepped.params_ref());
            grad.push(loss);
        }
        grad
    });
}
