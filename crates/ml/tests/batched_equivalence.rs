//! Equivalence of the batched GEMM engine against its oracles, the
//! retained per-sample implementations (`loss_and_grad_reference`,
//! `train_local_reference`, `accuracy_reference`): same losses, same
//! gradients, same trained parameters, same predictions, on randomized
//! models and data.

use bfl_ml::metrics;
use bfl_ml::model::{Model, ModelKind};
use bfl_ml::optimizer::{train_local_reference, train_local_with_scratch, LocalTrainingConfig};
use bfl_ml::tensor::{Matrix, Scratch};
use rand::rngs::StdRng;
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
/// parameters updated in place) against the seed's per-sample loop, from
/// the same model, shard and rng state.
#[test]
fn batched_local_pass_matches_the_reference_pass() {
    let mut rng = StdRng::seed_from_u64(0x10CA1);
    // One workspace across every case: a pass must not depend on what the
    // previous one left in it.
    let mut scratch = Scratch::new();
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

            let mut batched = start.clone();
            let mut batched_rng = StdRng::seed_from_u64(seed);
            let batched_stats = train_local_with_scratch(
                &mut batched,
                &features,
                &labels,
                &shard,
                &config,
                &mut batched_rng,
                &mut scratch,
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
            assert_ne!(batched.params_ref(), start.params_ref(), "{case}: trained");
            for (i, (b, r)) in batched
                .params_ref()
                .iter()
                .zip(reference.params_ref())
                .enumerate()
            {
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
