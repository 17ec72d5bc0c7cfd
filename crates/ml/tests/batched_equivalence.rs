//! Equivalence of the batched GEMM engine against its oracles, the
//! retained per-sample implementations (`loss_and_grad_reference`,
//! `train_local_reference`, `accuracy_reference`): same losses, same
//! gradients, same trained parameters, same predictions, on randomized
//! models and data. The fused local pass, whose first step writes its
//! upload from the starting parameters, is also held, bit for bit, to the
//! unfused copy-then-step composition it replaced, and the pass's jump of
//! the generator past the draws of the model it never builds to the
//! draws themselves.
//!
//! The racing jump test relies on no other test in this binary jumping
//! past the paper's 7,840 draws: the powers it needs are built by it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use bfl_ml::metrics;
use bfl_ml::model::{Model, ModelKind};
use bfl_ml::optimizer::{
    local_pass, train_local_reference, LocalTrainingConfig, LocalTrainingStats,
};
use bfl_ml::par;
use bfl_ml::tensor::{self, Matrix, Scratch};
use bfl_ml::SoftmaxRegression;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};

const TOLERANCE: f64 = 1e-9;

fn random_dataset(
    rng: &mut StdRng,
    rows: usize,
    features: usize,
    classes: usize,
) -> (Matrix, Vec<usize>) {
    let data: Vec<f64> = (0..rows * features)
        .map(|_| rng.gen_range(-2.0..2.0))
        .collect();
    let labels: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..classes)).collect();
    (Matrix::from_vec(rows, features, data), labels)
}

const KIND: ModelKind = ModelKind::SoftmaxRegression {
    features: 17,
    classes: 5,
};

#[test]
fn batched_loss_and_grad_matches_reference_on_random_inputs() {
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for trial in 0..10 {
        let model = KIND.build(&mut rng);
        let rows_total = 3 + trial * 7;
        let (features, labels) = random_dataset(&mut rng, rows_total, 17, 5);

        // Batch sizes straddling 1, partial and full batches.
        for batch_len in [1usize, 2, rows_total / 2 + 1, rows_total] {
            let batch: Vec<usize> = (0..batch_len.min(rows_total)).collect();
            let (reference_loss, reference_grad) =
                model.loss_and_grad_reference(&features, &labels, &batch);
            let mut scratch = Scratch::new();
            let mut batched_grad = Vec::new();
            let batched_loss = model.loss_and_grad_batched(
                &features,
                &labels,
                &batch,
                &mut batched_grad,
                &mut scratch,
            );
            assert!(
                (batched_loss - reference_loss).abs() < TOLERANCE,
                "loss {batched_loss} vs {reference_loss}"
            );
            assert_eq!(batched_grad.len(), reference_grad.len());
            for (i, (b, r)) in batched_grad.iter().zip(reference_grad.iter()).enumerate() {
                assert!(
                    (b - r).abs() < TOLERANCE,
                    "grad[{i}]: batched {b} vs reference {r}"
                );
            }
        }
    }
}

#[test]
fn scratch_reuse_across_batches_and_models_does_not_leak_state() {
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let mut scratch = Scratch::new();
    let mut grad = Vec::new();
    // One shared workspace across alternating batch shapes must produce
    // the same results as fresh workspaces every time.
    let model = KIND.build(&mut rng);
    let (features, labels) = random_dataset(&mut rng, 24, 17, 5);
    for batch_len in [24usize, 3, 11, 1, 24] {
        let batch: Vec<usize> = (0..batch_len).collect();
        let shared_loss =
            model.loss_and_grad_batched(&features, &labels, &batch, &mut grad, &mut scratch);
        let shared_grad = grad.clone();
        let mut fresh_scratch = Scratch::new();
        let mut fresh_grad = Vec::new();
        let fresh_loss = model.loss_and_grad_batched(
            &features,
            &labels,
            &batch,
            &mut fresh_grad,
            &mut fresh_scratch,
        );
        assert_eq!(shared_loss.to_bits(), fresh_loss.to_bits());
        assert_eq!(shared_grad, fresh_grad);
    }
}

#[test]
fn batched_accuracy_matches_reference_predictions() {
    let mut rng = StdRng::seed_from_u64(0xACC);
    let model = KIND.build(&mut rng);
    let (features, labels) = random_dataset(&mut rng, 700, 17, 5);
    let rows: Vec<usize> = (0..features.rows).collect();
    let batched = metrics::accuracy(&model, &features, &labels, None);
    let reference = metrics::accuracy_reference(&model, &features, &labels, &rows);
    assert_eq!(batched, reference);

    // Subset selection takes the same path.
    let subset: Vec<usize> = (0..features.rows).step_by(3).collect();
    let batched = metrics::accuracy(&model, &features, &labels, Some(&subset));
    let reference = metrics::accuracy_reference(&model, &features, &labels, &subset);
    assert_eq!(batched, reference, "subset");
}

#[test]
fn logits_batch_matches_per_row_logits() {
    // The batched kernels use fused multiply-add and lane-striped
    // reductions, so logits may differ from the per-row dot products in
    // the last bits — but no more than that.
    let mut rng = StdRng::seed_from_u64(0x1061);
    let model = KIND.build(&mut rng);
    let (features, _) = random_dataset(&mut rng, 33, 17, 5);
    let rows: Vec<usize> = (0..features.rows).collect();
    let mut scratch = Scratch::new();
    features.select_rows_into(&rows, &mut scratch.x);
    model.logits_batch(&mut scratch);
    for &r in &rows {
        let reference = model.logits(features.row(r));
        let batched = scratch.z.row(r);
        for (b, x) in batched.iter().zip(reference.iter()) {
            assert!(
                (b - x).abs() <= 1e-12 * x.abs().max(1.0),
                "row {r}: {b} vs {x}"
            );
        }
    }
}

/// The whole local pass, not just one gradient: the batched loop (summed
/// gradient, `lr/B` folded into the step, proximal pull scaled by `B`,
/// the first step written from the start, the rest in place) against the
/// seed's per-sample loop, from the same parameters, shard and rng state.
#[test]
fn batched_local_pass_matches_the_reference_pass() {
    let mut rng = StdRng::seed_from_u64(0x10CA1);
    // Every case runs in this thread's one workspace: a pass must not
    // depend on what the previous one left in it.
    let (features, labels) = random_dataset(&mut rng, 64, 17, 5);
    // Shards of 7 rows (smaller than one batch), 23 (two batches and a
    // remainder of 3) and 40 (a whole number of batches), scattered
    // through the dataset.
    for shard_len in [7usize, 23, 40] {
        let shard: Vec<usize> = (0..shard_len).map(|i| (i * 11 + 3) % 64).collect();
        for proximal_mu in [0.0, 0.3] {
            let config = LocalTrainingConfig {
                epochs: 4,
                batch_size: 10,
                learning_rate: 0.05,
                proximal_mu,
            };
            let start = KIND.build(&mut rng);
            let seed = rng.next_u64();
            let case = format!("shard {shard_len} mu {proximal_mu}");

            let mut batched_rng = StdRng::seed_from_u64(seed);
            let (batched, batched_stats) = local_pass(
                KIND,
                start.params_ref(),
                &features,
                &labels,
                &shard,
                &config,
                &mut batched_rng,
            );
            let mut reference = start.clone();
            let mut reference_rng = StdRng::seed_from_u64(seed);
            let reference_stats = train_local_reference(
                &mut reference,
                &features,
                &labels,
                &shard,
                &config,
                &mut reference_rng,
            );

            assert_eq!(batched_stats.steps, reference_stats.steps, "{case}");
            assert_eq!(batched_stats.steps, 4 * shard_len.div_ceil(10), "{case}");
            assert!(
                (batched_stats.final_epoch_loss - reference_stats.final_epoch_loss).abs()
                    < TOLERANCE,
                "{case}: loss {} vs {}",
                batched_stats.final_epoch_loss,
                reference_stats.final_epoch_loss
            );
            assert_ne!(batched, start.params_ref(), "{case}: trained");
            for (i, (b, r)) in batched.iter().zip(reference.params_ref()).enumerate() {
                assert!(
                    (b - r).abs() < TOLERANCE,
                    "{case} param[{i}]: batched {b} vs reference {r}"
                );
            }
            assert_eq!(
                batched_rng.next_u64(),
                reference_rng.next_u64(),
                "{case}: both passes must consume the rng identically"
            );
        }
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

/// The local pass as it was before the SGD step moved into the backward,
/// on a copy of the starting parameters stepped in place every step:
/// the summed gradient stored whole ([`raw_gradient`] for the weights, an
/// `axpy(1.0, δ_r, ·)` chain for the biases), then FedProx's
/// pull over it, then `axpy` of `−lr/B` into the parameters. The forward
/// (logits, `δ`, the loss) is `loss_and_grad_batched`'s, read back from
/// the workspace.
fn unfused_pass(
    model: &mut SoftmaxRegression,
    classes: usize,
    features: &Matrix,
    labels: &[usize],
    samples: &[usize],
    config: &LocalTrainingConfig,
    rng: &mut StdRng,
) -> LocalTrainingStats {
    let anchor = model.params();
    let weight_len = classes * features.cols;
    let mut scratch = Scratch::new();
    let mut grad = vec![0.0; model.num_params()];
    let mut unused = Vec::new();
    let mut order = samples.to_vec();
    let (mut steps, mut final_epoch_loss) = (0, 0.0);
    for epoch in 0..config.epochs {
        order.shuffle(rng);
        let (mut epoch_loss, mut epoch_batches) = (0.0, 0);
        for batch in order.chunks(config.batch_size) {
            let inverse_batch = 1.0 / batch.len() as f64;
            let mean_loss =
                model.loss_and_grad_batched(features, labels, batch, &mut unused, &mut scratch);
            let (grad_w, grad_b) = grad.split_at_mut(weight_len);
            grad_w.copy_from_slice(&raw_gradient(&scratch.delta.data, features, batch, classes));
            grad_b.fill(0.0);
            for r in 0..batch.len() {
                tensor::axpy(1.0, scratch.delta.row(r), grad_b);
            }
            if config.proximal_mu > 0.0 {
                let mu_times_batch = config.proximal_mu * batch.len() as f64;
                for ((g, w), w0) in grad.iter_mut().zip(model.params_ref()).zip(&anchor) {
                    *g += mu_times_batch * (w - w0);
                }
            }
            tensor::axpy(
                -config.learning_rate * inverse_batch,
                &grad,
                model.params_mut(),
            );
            epoch_loss += mean_loss;
            epoch_batches += 1;
            steps += 1;
        }
        if epoch == config.epochs - 1 {
            final_epoch_loss = epoch_loss / epoch_batches as f64;
        }
    }
    LocalTrainingStats {
        steps,
        final_epoch_loss,
    }
}

/// The fused pass against [`unfused_pass`], bit for bit — its first
/// step stores into a fresh vector what the unfused pass steps into a
/// copy of the start: batch sizes 1, 3, 8, 10 and 17, feature counts that leave every `LANES` (8) tail
/// from 0 to 7 with class counts on and off the kernel's four-row
/// blocks, with and without FedProx. Runs on the dispatched tier
/// (`BFL_SIMD=off` pins the scalar one; `simd_equivalence` flips both in
/// one process).
#[test]
fn the_fused_pass_keeps_the_unfused_passs_bits() {
    let mut rng = StdRng::seed_from_u64(0xF05E);
    // Feature counts 8 + t for every tail t (23 is 16 + 7); class counts
    // one 4-row block, blocks plus a remainder of 1, 2 or 3, or none.
    for (features_count, classes) in [
        (8usize, 4usize),
        (9, 5),
        (18, 2),
        (11, 7),
        (12, 10),
        (13, 3),
        (14, 6),
        (23, 9),
    ] {
        let kind = ModelKind::SoftmaxRegression {
            features: features_count,
            classes,
        };
        let (features, labels) = random_dataset(&mut rng, 40, features_count, classes);
        let shard: Vec<usize> = (0..34).map(|i| (i * 7 + 1) % 40).collect();
        for batch_size in [1usize, 3, 8, 10, 17] {
            for proximal_mu in [0.0, 0.3] {
                let config = LocalTrainingConfig {
                    epochs: 2,
                    batch_size,
                    learning_rate: 0.07,
                    proximal_mu,
                };
                let start = kind.build(&mut rng);
                let seed = rng.next_u64();
                let case = format!("{features_count}x{classes} B {batch_size} mu {proximal_mu}");

                let mut fused_rng = StdRng::seed_from_u64(seed);
                let (fused, fused_stats) = local_pass(
                    kind,
                    start.params_ref(),
                    &features,
                    &labels,
                    &shard,
                    &config,
                    &mut fused_rng,
                );
                let mut unfused = start.clone();
                let mut unfused_rng = StdRng::seed_from_u64(seed);
                let unfused_stats = unfused_pass(
                    &mut unfused,
                    classes,
                    &features,
                    &labels,
                    &shard,
                    &config,
                    &mut unfused_rng,
                );

                assert_eq!(fused_stats.steps, unfused_stats.steps, "{case}");
                assert_eq!(
                    fused_stats.final_epoch_loss.to_bits(),
                    unfused_stats.final_epoch_loss.to_bits(),
                    "{case}: loss"
                );
                for (i, (f, u)) in fused.iter().zip(unfused.params_ref()).enumerate() {
                    assert_eq!(f.to_bits(), u.to_bits(), "{case} param[{i}]: {f} vs {u}");
                }
                assert_ne!(fused, start.params_ref(), "{case}: trained");
                assert_eq!(fused_rng, unfused_rng, "{case}: rng");
            }
        }
    }
}

/// Steps `rng` past `draws` outputs one at a time: the jump's oracle.
fn stepped(seed: u64, draws: u64) -> StdRng {
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..draws {
        rng.next_u64();
    }
    rng
}

/// Two `bfl_ml::par` workers make the first jump that needs a power of
/// the transition matrix at once: one builds it into the static table
/// while the other waits for it, and both land where stepping does.
/// `with_thread_limit` gives the map two workers on any host and under
/// any `BFL_MAX_THREADS`, and they meet before jumping; the deadline only
/// keeps the test from hanging should the map ever run its items inline.
#[test]
fn two_workers_racing_on_a_fresh_powers_first_build_both_land_where_stepping_does() {
    // Past every other length this binary jumps (the largest, the
    // paper's 784 × 10, stays under 2¹³), so 2¹³ and 2¹⁴ are built here.
    const FRESH: u64 = 31_337;
    let seeds = [3u64, 4];
    let arrived = AtomicUsize::new(0);
    let jumped = par::with_thread_limit(2, || {
        par::par_map(&seeds, 1, |_, &seed| {
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(1);
            while arrived.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                std::hint::spin_loop();
            }
            let mut rng = StdRng::seed_from_u64(seed);
            rng.discard(FRESH);
            rng
        })
    });
    for (rng, &seed) in jumped.iter().zip(&seeds) {
        assert_eq!(*rng, stepped(seed, FRESH), "seed {seed}");
    }
}

/// `skip_build` leaves the generator where `build` does, at the paper's
/// shape and a second one in turn: two lengths jump through one power
/// table, and neither disturbs the other.
#[test]
fn skip_build_leaves_the_rng_where_build_does_at_two_live_shapes() {
    for round in 0..3u64 {
        for kind in [ModelKind::default_mnist(), KIND] {
            let seed = 0xAD0 + round;
            let mut built_rng = StdRng::seed_from_u64(seed);
            let _ = kind.build(&mut built_rng);
            let mut skipped_rng = StdRng::seed_from_u64(seed);
            kind.skip_build(&mut skipped_rng);
            for _ in 0..3 {
                assert_eq!(skipped_rng.next_u64(), built_rng.next_u64(), "{kind:?}");
            }
        }
    }
}
