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
use bfl_ml::optimizer::{local_pass, LocalTrainingConfig};
use bfl_ml::tensor::{self, Matrix, Scratch, SgdStep};
use bfl_ml::{metrics, simd};
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
    /// 32-wide stripes. The Gram entries of a pairwise distance matrix
    /// keep those bits on both tiers: `dot_lanes` in either argument
    /// order, `square_and_dot_lanes`' pair, and a repeated row's entry
    /// against its own square.
    #[test]
    fn dot_lanes_matches_scalar_bits(
        k in 0usize..200,
        seed_a in buffer(200),
        seed_b in buffer(200),
    ) {
        let a = seed_a[..k].to_vec();
        let b = seed_b[..k].to_vec();
        let repeated = a.clone();
        assert_tiers_bit_identical("dot", || {
            let mut c = vec![0.0f64; 1];
            tensor::gemm_nt(&a, &b, &mut c, 1, k, 1);
            let (square, entry) = tensor::square_and_dot_lanes(&a, &b);
            let entries = [
                tensor::dot_lanes(&a, &b),
                tensor::dot_lanes(&b, &a),
                entry,
                c[0],
            ];
            let squares = [tensor::dot_lanes(&a, &a), tensor::dot_lanes(&a, &repeated), square];
            for values in [&entries[..], &squares[..]] {
                assert!(
                    values.iter().all(|v| v.to_bits() == values[0].to_bits()),
                    "k={k}: {values:?}"
                );
            }
            c.push(square);
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

/// `axpy` into a `y` shorter than `x` panics on both tiers, in a release
/// build too, before it writes a single element: the AVX2 tier stores
/// through `y`'s pointer for `x.len()` elements, so a length check only a
/// debug build makes would let it write past `y`.
#[test]
fn axpy_into_a_short_y_panics_before_any_write_on_both_tiers() {
    let _guard = tier_lock();
    for vector_tier in [false, true] {
        simd::set_enabled(vector_tier);
        let mut buffer = [7.0; 16];
        let short = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tensor::axpy(2.0, &[1.0; 16], &mut buffer[..8]);
        }));
        assert!(short.is_err(), "vector tier {vector_tier}: no panic");
        assert_eq!(buffer, [7.0; 16], "vector tier {vector_tier}: written");
    }
    simd::reset();
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

/// The fresh-target step writes its whole target, and writes it with the
/// in-place step's bits: a target filled with a signalling-NaN sentinel
/// (no arithmetic on these finite inputs can produce it) holds no
/// sentinel afterwards, and every element has the bits
/// `gemm_tn_indexed_step` gives over a copy of `start`, on each tier.
/// Row counts 1 to 10 (on and off the kernel's 4- and 2-row blocks),
/// column counts leaving `LANES` tails of 1, 7, 0, 1 and 7 and the
/// paper's 784, batches of 1 to 10, with and without FedProx's pull.
#[test]
fn the_fresh_step_writes_every_element_with_the_in_place_bits() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::mem::MaybeUninit;

    const SENTINEL: u64 = 0x7FF4_DEAD_BEEF_F00D;
    let mut rng = StdRng::seed_from_u64(0xF2E5);
    for m in 1usize..=10 {
        for n in [1usize, 7, 8, 9, 15, 784] {
            let pool: Vec<f64> = (0..12 * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let features = Matrix::from_vec(12, n, pool);
            let start: Vec<f64> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let anchor: Vec<f64> = (0..m * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
            for batch in 1usize..=10 {
                let rows: Vec<usize> = (0..batch).map(|i| (i * 5 + m) % 12).collect();
                let a: Vec<f64> = (0..batch * m).map(|_| rng.gen_range(-1.0..1.0)).collect();
                for mu in [0.0, 0.3] {
                    let step = SgdStep {
                        alpha: -0.05 / batch as f64,
                        proximal: (mu > 0.0).then_some((mu * batch as f64, anchor.as_slice())),
                    };
                    let case = format!("{m} x {n}, B {batch}, mu {mu}");
                    assert_tiers_bit_identical(&case, || {
                        let mut in_place = start.clone();
                        tensor::gemm_tn_indexed_step(&a, &features, &rows, &mut in_place, m, &step);
                        let mut out = vec![MaybeUninit::new(f64::from_bits(SENTINEL)); m * n];
                        tensor::gemm_tn_indexed_step_fresh(
                            &a, &features, &rows, &start, &mut out, m, &step,
                        );
                        // SAFETY: every element was initialised to the
                        // sentinel above; the step only overwrites them.
                        let fresh: Vec<f64> = out
                            .into_iter()
                            .map(|v| unsafe { v.assume_init() })
                            .collect();
                        for (i, (f, w)) in fresh.iter().zip(&in_place).enumerate() {
                            assert_ne!(f.to_bits(), SENTINEL, "{case}: element {i} never written");
                            assert_eq!(
                                f.to_bits(),
                                w.to_bits(),
                                "{case}: element {i} fresh {f:?} vs in place {w:?}"
                            );
                        }
                        fresh
                    });
                }
            }
        }
    }
}

/// Row lengths that end in every kind of tail: empty, sub-`LANES` scalar
/// remainders, `LANES` tails, whole stripes, `k`-blocks of 128 with and
/// without tails on both sides of `gemm_nt`'s `2 * 128 = 256` regime
/// switch; and the model's 7850.
const GRAM_ROW_LENGTHS: [usize; 25] = [
    0, 1, 7, 8, 9, 31, 32, 33, 40, 71, 128, 129, 255, 256, 257, 263, 300, 383, 384, 385, 389, 512,
    521, 1033, 7850,
];

/// `gemm_nt`'s `k`-block in its small-row regime (`rows <= 16`,
/// `n <= 32`, `k > 256`), where each entry sums per-block `dot_lanes`.
const NT_K_BLOCK: usize = 128;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// The Gram entries the clusterings form one at a time (`dot_lanes` in
    /// either argument order, `square_and_dot_lanes`' square and entry)
    /// are the entries of the full `V · Vᵀ` GEMM wherever `gemm_nt` takes
    /// one dot per entry, and its small-row regime sums the same reduction
    /// per `k`-block — bit for bit on both tiers: every `n` in `1..70`
    /// (both sides of the 16-row regime switch) with row lengths cycling
    /// through every tail, and one row repeated.
    #[test]
    fn gram_entry_matches_gemm_nt_bits(
        shift in 0usize..25,
        duplicate in 0usize..70,
        seed in buffer(69 * 7850),
    ) {
        for n in 1..70 {
            let k = GRAM_ROW_LENGTHS[(n + shift) % GRAM_ROW_LENGTHS.len()];
            let mut rows: Vec<&[f64]> = (0..n).map(|i| &seed[i * k..(i + 1) * k]).collect();
            rows[n - 1] = rows[duplicate % n];
            let blocked = n <= 16 && k > 2 * NT_K_BLOCK;
            let gemm_entry = |a: &[f64], b: &[f64]| {
                if !blocked {
                    return tensor::dot_lanes(a, b);
                }
                let mut sum = 0.0;
                for k0 in (0..k).step_by(NT_K_BLOCK) {
                    let k_end = (k0 + NT_K_BLOCK).min(k);
                    let partial = tensor::dot_lanes(&a[k0..k_end], &b[k0..k_end]);
                    sum = if k0 == 0 { partial } else { sum + partial };
                }
                sum
            };
            assert_tiers_bit_identical("Gram entries vs gemm_nt", || {
                let packed: Vec<f64> = rows.iter().flat_map(|row| row.iter().copied()).collect();
                let mut full = vec![0.0f64; n * n];
                tensor::gemm_nt(&packed, &packed, &mut full, n, k, n);
                for i in 0..n {
                    for j in 0..n {
                        let want = full[i * n + j];
                        let got = gemm_entry(rows[i], rows[j]);
                        assert!(
                            got.to_bits() == want.to_bits(),
                            "n={n} k={k} ({i}, {j}): {got:?} vs gemm_nt's {want:?}"
                        );
                        let entry = tensor::dot_lanes(rows[i], rows[j]);
                        let square = tensor::dot_lanes(rows[i], rows[i]);
                        let swapped = tensor::dot_lanes(rows[j], rows[i]);
                        let (paired_square, paired) = tensor::square_and_dot_lanes(rows[i], rows[j]);
                        assert!(
                            swapped.to_bits() == entry.to_bits()
                                && paired.to_bits() == entry.to_bits()
                                && paired_square.to_bits() == square.to_bits(),
                            "n={n} k={k} ({i}, {j}): {swapped:?}, {paired:?} and \
                             {paired_square:?} vs {entry:?} and {square:?}"
                        );
                    }
                }
                full
            });
        }
    }
}

/// End-to-end: a full batched loss/gradient pass, an evaluation sweep and
/// a two-step local pass (its first step written fresh from the start,
/// the second in place) with and without FedProx produce bit-identical
/// losses, gradients, accuracies and trained parameters under either
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

    assert_tiers_bit_identical("loss/grad/accuracy/pass", || {
        let mut scratch = Scratch::new();
        let mut grad = Vec::new();
        let loss = model.loss_and_grad_batched(&features, &labels, &batch, &mut grad, &mut scratch);
        let acc = metrics::accuracy(&model, &features, &labels, None);
        grad.push(loss);
        grad.push(acc);
        for proximal_mu in [0.0, 0.3] {
            let config = LocalTrainingConfig {
                epochs: 2,
                batch_size: batch.len(),
                learning_rate: 0.01,
                proximal_mu,
            };
            let (trained, stats) = local_pass(
                kind,
                model.params_ref(),
                &features,
                &labels,
                &batch,
                &config,
                &mut StdRng::seed_from_u64(0x5EED),
            );
            grad.extend_from_slice(&trained);
            grad.push(stats.final_epoch_loss);
        }
        grad
    });
}
