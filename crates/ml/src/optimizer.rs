//! Stochastic gradient descent and the local-training loop of Procedure-I.
//!
//! Equation 3 of the paper is plain mini-batch SGD:
//! `w_{r+1} ← w_r − η ∇ℓ(w_r; b)` applied over `E` epochs of batches of
//! size `B`. FedProx (the paper's strongest FL baseline) modifies the local
//! objective with a proximal term `μ/2 ‖w − w_global‖²`, which shows up in
//! the update as an extra `μ (w − w_global)` gradient component; setting
//! `proximal_mu = 0` recovers FedAvg/FAIR-BFL local training.
//!
//! [`local_pass`] is the pass every run executes: batched gradients
//! fused into the steps, no model built and no allocation but the
//! trained vector once the thread's workspace is warm (see
//! [`crate::tensor`]'s *Scratch workspace*).
//! [`train_local_reference`] is the seed's per-sample pass, kept as its
//! oracle — `batched_local_pass_matches_the_reference_pass` in
//! `tests/batched_equivalence.rs` holds the two to 1e-9 per trained
//! parameter — and called by nothing else.

use crate::linear::SoftmaxRegression;
use crate::model::{Model, ModelKind};
use crate::tensor::{self, Fresh, Matrix, SgdStep};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Plain SGD step applier.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate η.
    pub learning_rate: f64,
}

impl Sgd {
    /// Creates an optimizer with the given learning rate.
    pub fn new(learning_rate: f64) -> Self {
        assert!(learning_rate > 0.0, "learning rate must be positive");
        Sgd { learning_rate }
    }

    /// Applies one step in place: `params -= lr * grad`.
    pub fn step(&self, params: &mut [f64], grad: &[f64]) {
        tensor::axpy(-self.learning_rate, grad, params);
    }
}

/// Configuration of a client's local training pass (paper defaults:
/// `E = 5`, `B = 10`, `η = 0.01`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainingConfig {
    /// Number of local epochs `E`.
    pub epochs: usize,
    /// Mini-batch size `B`.
    pub batch_size: usize,
    /// Learning rate `η`.
    pub learning_rate: f64,
    /// FedProx proximal coefficient `μ` (0 disables the proximal term).
    pub proximal_mu: f64,
}

impl Default for LocalTrainingConfig {
    fn default() -> Self {
        LocalTrainingConfig {
            epochs: 5,
            batch_size: 10,
            learning_rate: 0.01,
            proximal_mu: 0.0,
        }
    }
}

/// Statistics reported by one local training pass — only what the pass
/// has in hand when its last step is done. Anything that needs another
/// sweep over the parameters (how far they moved, say) is the caller's to
/// compute from the vectors it already holds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LocalTrainingStats {
    /// Number of SGD steps (mini-batches) executed:
    /// [`local_step_count`] of the shard.
    pub steps: usize,
    /// Mean training loss over the final epoch's mini-batches, each
    /// measured before its step was applied.
    pub final_epoch_loss: f64,
}

/// Runs `config.epochs` epochs of mini-batch SGD on `model` over the rows
/// `samples` of the dataset, in place. Returns per-pass statistics.
///
/// `samples` identifies the client's local shard D_i inside the shared
/// feature/label arrays, so no per-client copies of the data are made.
///
/// [`local_pass`] from `model`'s parameters, written back into `model`.
pub fn train_local<R: Rng + ?Sized>(
    model: &mut SoftmaxRegression,
    features: &Matrix,
    labels: &[usize],
    samples: &[usize],
    config: &LocalTrainingConfig,
    rng: &mut R,
) -> LocalTrainingStats {
    let (params, stats) = local_pass(
        model.kind(),
        model.params_ref(),
        features,
        labels,
        samples,
        config,
        rng,
    );
    model.set_params(&params);
    stats
}

/// The local pass of a `kind`-shaped model from the parameters `start`:
/// returns the trained vector and the pass's statistics. `start` is only
/// read — the commission's global snapshot, shared by every pass of the
/// round — and no model is built.
///
/// Each step is one [`ModelKind`] step: the forward, then a backward
/// that steps each parameter as it finishes its gradient element
/// ([`SgdStep`]), so the pass keeps no gradient buffer. The first step
/// reads `start` for both halves and writes each parameter once,
/// `w = start + α·g`, into the vector the pass returns, which is
/// allocated and never initialised beforehand: the pass copies no model.
/// Every later step runs in place on that vector. FedProx's pull is
/// towards `start`. So the pass's one allocation is the vector it
/// returns: every other buffer (the forward/backward intermediates and
/// the shuffled sample order) is the thread's workspace, borrowed for the
/// pass, and after a pass at the largest shard size a thread trains,
/// every later pass on that thread allocates nothing else.
pub fn local_pass<R: Rng + ?Sized>(
    kind: ModelKind,
    start: &[f64],
    features: &Matrix,
    labels: &[usize],
    samples: &[usize],
    config: &LocalTrainingConfig,
    rng: &mut R,
) -> (Vec<f64>, LocalTrainingStats) {
    check_local_pass(samples, config);
    let len = kind.num_params();
    assert_eq!(start.len(), len, "parameter length mismatch");
    tensor::with_scratch(|scratch| {
        let mut params: Vec<f64> = Vec::with_capacity(len);
        // Taken out of the workspace for the pass (the step borrows
        // `scratch` next to it) and handed back below.
        let mut order = std::mem::take(&mut scratch.order);
        order.clear();
        order.extend_from_slice(samples);
        let mut steps = 0;
        let mut final_epoch_loss = 0.0;

        for epoch in 0..config.epochs {
            order.shuffle(rng);
            let mut epoch_loss = 0.0;
            let mut epoch_batches = 0;
            for batch in order.chunks(config.batch_size) {
                // The gradient is a sum over the batch and the `1/B` mean
                // is folded into the step's coefficient. FedProx's pull
                // scales by B for the same reason, so the `lr/B` step
                // recovers `lr * mu * (w - w_global)` exactly.
                let inverse_batch = 1.0 / batch.len() as f64;
                let step = SgdStep {
                    alpha: -config.learning_rate * inverse_batch,
                    proximal: (config.proximal_mu > 0.0)
                        .then_some((config.proximal_mu * batch.len() as f64, start)),
                };
                let loss_sum = if steps == 0 {
                    let out = &mut params.spare_capacity_mut()[..len];
                    let target = Fresh::new(start, out);
                    let loss = kind.loss_and_step(target, features, labels, batch, &step, scratch);
                    // SAFETY: the capacity is at least `len`, and the step
                    // just wrote each of the first `len` elements exactly
                    // once. Its forward asserted `len == classes ×
                    // (features.cols + 1)`; its backward visits every
                    // weight of the `classes × features.cols` window in one
                    // kernel tile or tail and every bias in its loop
                    // (`SoftmaxRegression::backward_step`). A panic before
                    // this line leaves the vector empty.
                    unsafe { params.set_len(len) };
                    loss
                } else {
                    kind.loss_and_step(&mut params[..], features, labels, batch, &step, scratch)
                };
                epoch_loss += loss_sum * inverse_batch;
                epoch_batches += 1;
                steps += 1;
            }
            if epoch == config.epochs - 1 {
                final_epoch_loss = epoch_loss / epoch_batches.max(1) as f64;
            }
        }

        scratch.order = order;
        let stats = LocalTrainingStats {
            steps,
            final_epoch_loss,
        };
        (params, stats)
    })
}

/// The seed's per-sample local pass, kept as the oracle for
/// [`local_pass`]: a separate parameter vector
/// round-tripped through `set_params` every step, the mean gradient from
/// [`Model::loss_and_grad_reference`], the proximal pull and the
/// [`Sgd::step`] applied to it unfused. It shuffles with `rng` exactly as
/// the batched pass does, so from equal models and rng states the two
/// visit the same batches and agree up to floating-point summation order
/// (`tests/batched_equivalence.rs`). No production path calls it.
pub fn train_local_reference<M: Model, R: Rng + ?Sized>(
    model: &mut M,
    features: &Matrix,
    labels: &[usize],
    samples: &[usize],
    config: &LocalTrainingConfig,
    rng: &mut R,
) -> LocalTrainingStats {
    check_local_pass(samples, config);

    let optimizer = Sgd::new(config.learning_rate);
    let anchor = model.params();
    let mut params = anchor.clone();
    let mut order = samples.to_vec();
    let mut steps = 0;
    let mut final_epoch_loss = 0.0;

    for epoch in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        let mut epoch_batches = 0;
        for batch in order.chunks(config.batch_size) {
            model.set_params(&params);
            let (loss, mut grad) = model.loss_and_grad_reference(features, labels, batch);
            if config.proximal_mu > 0.0 {
                // FedProx: grad += mu * (w - w_global).
                for ((g, w), w0) in grad.iter_mut().zip(params.iter()).zip(anchor.iter()) {
                    *g += config.proximal_mu * (w - w0);
                }
            }
            optimizer.step(&mut params, &grad);
            epoch_loss += loss;
            epoch_batches += 1;
            steps += 1;
        }
        if epoch == config.epochs - 1 {
            final_epoch_loss = epoch_loss / epoch_batches.max(1) as f64;
        }
    }

    model.set_params(&params);
    LocalTrainingStats {
        steps,
        final_epoch_loss,
    }
}

/// The preconditions both local passes share.
fn check_local_pass(samples: &[usize], config: &LocalTrainingConfig) {
    assert!(config.batch_size > 0, "batch size must be positive");
    assert!(config.epochs > 0, "epoch count must be positive");
    assert!(config.learning_rate > 0.0, "learning rate must be positive");
    assert!(
        !samples.is_empty(),
        "a client cannot train on an empty shard"
    );
}

/// Number of SGD steps one local pass will take: `E * ceil(|D_i| / B)`,
/// the quantity the paper's T_local delay estimate is proportional to
/// (Section 4.1: complexity `O(E * |D_i| / B)`).
pub fn local_step_count(samples: usize, config: &LocalTrainingConfig) -> usize {
    config.epochs * samples.div_ceil(config.batch_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{argmax, dataset_loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob_dataset() -> (Matrix, Vec<usize>) {
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..30 {
            let t = i as f64 * 0.02;
            rows.push(vec![1.0 + t, 0.5 - t, 1.0]);
            labels.push(0usize);
            rows.push(vec![-1.0 - t, -0.5 + t, -1.0]);
            labels.push(1usize);
            rows.push(vec![0.0 + t, 2.0, -1.0 - t]);
            labels.push(2usize);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn sgd_step_moves_against_gradient() {
        let sgd = Sgd::new(0.1);
        let mut params = vec![1.0, 2.0];
        sgd.step(&mut params, &[1.0, -1.0]);
        assert_eq!(params, vec![0.9, 2.1]);
    }

    #[test]
    #[should_panic(expected = "learning rate must be positive")]
    fn non_positive_learning_rate_rejected() {
        let _ = Sgd::new(0.0);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = LocalTrainingConfig::default();
        assert_eq!(c.epochs, 5);
        assert_eq!(c.batch_size, 10);
        assert!((c.learning_rate - 0.01).abs() < 1e-12);
        assert_eq!(c.proximal_mu, 0.0);
    }

    #[test]
    fn local_training_reduces_loss_and_reports_stats() {
        let (features, labels) = blob_dataset();
        let samples: Vec<usize> = (0..features.rows).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = SoftmaxRegression::new(3, 3, &mut rng);
        let start = model.params();
        let before = dataset_loss(&model, &features, &labels);
        let config = LocalTrainingConfig {
            epochs: 10,
            batch_size: 10,
            learning_rate: 0.2,
            proximal_mu: 0.0,
        };
        let stats = train_local(&mut model, &features, &labels, &samples, &config, &mut rng);
        let after = dataset_loss(&model, &features, &labels);
        assert!(after < before, "loss should drop: {before} -> {after}");
        assert_eq!(stats.steps, 10 * 9); // 90 samples / batch 10 = 9 batches per epoch
        assert_ne!(model.params_ref(), &start[..]);
        assert!(stats.final_epoch_loss > 0.0);

        // Accuracy after training should be high on this separable data.
        let correct = samples
            .iter()
            .filter(|&&r| argmax(&model.logits(features.row(r))) == labels[r])
            .count();
        assert!(correct as f64 / samples.len() as f64 > 0.9);
    }

    #[test]
    fn proximal_term_keeps_params_closer_to_anchor() {
        let (features, labels) = blob_dataset();
        let samples: Vec<usize> = (0..features.rows).collect();
        let mut rng = StdRng::seed_from_u64(6);
        let base_model = SoftmaxRegression::new(3, 3, &mut rng);

        let mut plain = base_model.clone();
        let mut prox = base_model.clone();
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        let plain_cfg = LocalTrainingConfig {
            epochs: 8,
            batch_size: 10,
            learning_rate: 0.2,
            proximal_mu: 0.0,
        };
        let prox_cfg = LocalTrainingConfig {
            proximal_mu: 1.0,
            ..plain_cfg
        };
        train_local(
            &mut plain, &features, &labels, &samples, &plain_cfg, &mut rng_a,
        );
        train_local(
            &mut prox, &features, &labels, &samples, &prox_cfg, &mut rng_b,
        );
        let start = base_model.params_ref();
        let moved = |params: &[f64]| -> f64 {
            let step: Vec<f64> = params.iter().zip(start).map(|(p, s)| p - s).collect();
            tensor::l2_norm(&step)
        };
        let plain_norm = moved(plain.params_ref());
        let prox_norm = moved(prox.params_ref());
        assert!(
            prox_norm < plain_norm,
            "proximal update {prox_norm} should be smaller than plain {plain_norm}"
        );
    }

    #[test]
    fn training_on_a_subset_only_uses_that_subset() {
        let (features, labels) = blob_dataset();
        let mut rng = StdRng::seed_from_u64(8);
        let mut model = SoftmaxRegression::new(3, 3, &mut rng);
        // Train on class-0 samples only (every third row starting at 0).
        let shard: Vec<usize> = (0..features.rows).step_by(3).collect();
        let config = LocalTrainingConfig {
            epochs: 20,
            batch_size: 5,
            learning_rate: 0.3,
            proximal_mu: 0.0,
        };
        train_local(&mut model, &features, &labels, &shard, &config, &mut rng);
        // The model masters its own shard (all class 0) but cannot have
        // learned the full three-class task from it.
        let shard_correct = shard
            .iter()
            .filter(|&&r| argmax(&model.logits(features.row(r))) == labels[r])
            .count();
        assert_eq!(shard_correct, shard.len(), "shard should be fit exactly");
        let overall = (0..features.rows)
            .filter(|&r| argmax(&model.logits(features.row(r))) == labels[r])
            .count();
        assert!(
            (overall as f64 / features.rows as f64) < 0.9,
            "a single-class shard cannot teach the full task ({} of {})",
            overall,
            features.rows
        );
    }

    #[test]
    fn step_count_formula() {
        let config = LocalTrainingConfig {
            epochs: 5,
            batch_size: 10,
            ..Default::default()
        };
        assert_eq!(local_step_count(100, &config), 50);
        assert_eq!(local_step_count(101, &config), 55);
        assert_eq!(local_step_count(1, &config), 5);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn a_pass_rejects_a_start_of_the_wrong_length() {
        let (features, labels) = blob_dataset();
        let kind = ModelKind::SoftmaxRegression {
            features: 3,
            classes: 3,
        };
        let _ = local_pass(
            kind,
            &[0.0; 11],
            &features,
            &labels,
            &[0, 1, 2],
            &LocalTrainingConfig::default(),
            &mut StdRng::seed_from_u64(9),
        );
    }

    #[test]
    #[should_panic(expected = "empty shard")]
    fn empty_shard_panics() {
        let (features, labels) = blob_dataset();
        let mut rng = StdRng::seed_from_u64(9);
        let mut model = SoftmaxRegression::new(3, 3, &mut rng);
        let _ = train_local(
            &mut model,
            &features,
            &labels,
            &[],
            &LocalTrainingConfig::default(),
            &mut rng,
        );
    }
}
