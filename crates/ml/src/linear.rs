//! Multinomial softmax regression.
//!
//! The default local model of the reproduction: a single linear layer with
//! softmax cross-entropy loss, 7850 parameters at the MNIST scale (784
//! inputs, 10 classes) — small enough that one hundred clients times one
//! hundred communication rounds runs in seconds, large enough that the
//! gradient geometry used by Algorithm 2 (cosine distances between client
//! updates) behaves like it does in the paper.

use crate::activation::softmax_in_place;
use crate::loss::{cross_entropy, cross_entropy_grad};
use crate::model::{Model, ModelKind};
use crate::tensor::{Matrix, Scratch, SgdStep, StepTarget};
use crate::{init, tensor};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A linear classifier with softmax cross-entropy loss.
///
/// Parameters are stored flat as `[W row-major (classes x features), b]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SoftmaxRegression {
    features: usize,
    classes: usize,
    /// Flat parameters: weight matrix followed by bias vector.
    params: Vec<f64>,
}

impl SoftmaxRegression {
    /// Creates a model with Xavier-initialized weights and zero biases.
    pub fn new<R: Rng + ?Sized>(features: usize, classes: usize, rng: &mut R) -> Self {
        assert!(
            features > 0 && classes > 1,
            "need at least 1 feature and 2 classes"
        );
        let mut params = init::xavier_uniform(rng, features, classes);
        params.extend(init::zeros(classes));
        SoftmaxRegression {
            features,
            classes,
            params,
        }
    }

    /// Advances `rng` exactly as [`SoftmaxRegression::new`] would and
    /// builds nothing (see [`crate::ModelKind::skip_build`]). Every
    /// initialiser call in `new` has its `skip_` twin here, in the same
    /// order.
    pub(crate) fn skip_new(features: usize, classes: usize, rng: &mut StdRng) {
        assert!(
            features > 0 && classes > 1,
            "need at least 1 feature and 2 classes"
        );
        init::skip_xavier_uniform(rng, features, classes);
    }

    /// Input dimensionality.
    pub fn feature_count(&self) -> usize {
        self.features
    }

    /// This model's shape, as a configuration spells it.
    pub fn kind(&self) -> ModelKind {
        ModelKind::SoftmaxRegression {
            features: self.features,
            classes: self.classes,
        }
    }

    /// Weight connecting `feature` to `class`.
    pub fn weight(&self, class: usize, feature: usize) -> f64 {
        self.params[class * self.features + feature]
    }

    /// Bias of `class`.
    pub fn bias(&self, class: usize) -> f64 {
        self.params[self.classes * self.features + class]
    }

    /// The forward half of a batched step over the `classes`-class
    /// parameters `params`: logits straight off the dataset rows (the
    /// minibatch is never gathered into a contiguous copy), then
    /// `delta = softmax(z) − one_hot(label)` into `scratch.delta`.
    /// Returns the loss summed over the batch.
    fn forward_delta(
        classes: usize,
        params: &[f64],
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
        scratch: &mut Scratch,
    ) -> f64 {
        assert_eq!(
            features.rows,
            labels.len(),
            "features/labels length mismatch"
        );
        assert!(
            !rows.is_empty(),
            "gradient over an empty batch is undefined"
        );
        assert_eq!(
            params.len(),
            classes * (features.cols + 1),
            "feature width mismatch"
        );
        let batch = rows.len();

        let (weights, bias) = params.split_at(classes * features.cols);
        scratch.z.resize_in_place(batch, classes);
        tensor::gemm_nt_indexed(features, rows, weights, &mut scratch.z.data, classes);
        for row in scratch.z.data.chunks_mut(classes) {
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }

        // delta is computed row-wise in place; the loss accumulates from
        // the same probabilities.
        let mut total_loss = 0.0;
        scratch.delta.resize_in_place(batch, classes);
        scratch.delta.data.copy_from_slice(&scratch.z.data);
        for (r, &row_index) in rows.iter().enumerate() {
            let delta_row = scratch.delta.row_mut(r);
            softmax_in_place(delta_row);
            let label = labels[row_index];
            total_loss += -(delta_row[label].max(1e-15)).ln();
            delta_row[label] -= 1.0;
        }
        total_loss
    }

    /// The backward half: steps `target` (the flat layout of a model
    /// with `delta`'s class count) by the batch's summed gradient,
    /// `grad_W = δᵀ · X` through the fused kernel and `grad_b` the column
    /// sum of δ, each element stepped as it is finished. The column sum
    /// adds the rows in order from `+0.0`: the bits of a chain of
    /// `axpy(1.0, δ_r, grad_b)` over a zeroed `grad_b`, since a product
    /// with 1.0 is exact. The kernel stores each weight once and the bias
    /// loop each bias once, so a [`tensor::Fresh`] target ends with every
    /// element written exactly once.
    fn backward_step(
        features: &Matrix,
        rows: &[usize],
        delta: &Matrix,
        target: impl StepTarget,
        step: &SgdStep,
    ) {
        let classes = delta.cols;
        let bias_offset = target.source().len() - classes;
        let (target_w, mut target_b) = target.split_at(bias_offset);
        let (step_w, step_b) = step.split_at(bias_offset);
        tensor::gemm_tn_indexed_step_into(&delta.data, features, rows, target_w, classes, &step_w);
        for c in 0..classes {
            let mut sum = 0.0;
            for r in 0..rows.len() {
                sum += delta.get(r, c);
            }
            step_b.apply(&mut target_b, c, sum);
        }
    }

    /// One fused SGD step of a local pass over a `classes`-class model
    /// that need not exist: the forward reads `target`'s source
    /// parameters, the backward steps them into `target` (see
    /// [`crate::optimizer::local_pass`]). Returns the loss
    /// summed over the batch, measured before the step.
    pub(crate) fn loss_and_step(
        classes: usize,
        target: impl StepTarget,
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
        step: &SgdStep,
        scratch: &mut Scratch,
    ) -> f64 {
        let loss = Self::forward_delta(classes, target.source(), features, labels, rows, scratch);
        Self::backward_step(features, rows, &scratch.delta, target, step);
        loss
    }
}

impl Model for SoftmaxRegression {
    fn num_params(&self) -> usize {
        self.classes * self.features + self.classes
    }

    fn params_ref(&self) -> &[f64] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "parameter length mismatch");
        self.params.copy_from_slice(params);
    }

    fn logits(&self, features: &[f64]) -> Vec<f64> {
        debug_assert_eq!(features.len(), self.features);
        (0..self.classes)
            .map(|c| {
                let row = &self.params[c * self.features..(c + 1) * self.features];
                tensor::dot(row, features) + self.bias(c)
            })
            .collect()
    }

    fn logits_block(&self, x: &[f64], rows: usize, scratch: &mut Scratch) {
        debug_assert_eq!(x.len(), rows * self.features);
        scratch.z.resize_in_place(rows, self.classes);
        // z = X · Wᵀ straight against the row-major parameter window —
        // `gemm_nt` reads `B` by rows, exactly this layout, so no
        // transpose or copy is needed.
        let weights = &self.params[..self.classes * self.features];
        tensor::gemm_nt(
            x,
            weights,
            &mut scratch.z.data,
            rows,
            self.features,
            self.classes,
        );
        let bias = &self.params[self.classes * self.features..];
        for row in scratch.z.data.chunks_mut(self.classes) {
            for (v, &b) in row.iter_mut().zip(bias.iter()) {
                *v += b;
            }
        }
    }

    fn loss_and_grad_batched(
        &self,
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
        grad: &mut Vec<f64>,
        scratch: &mut Scratch,
    ) -> f64 {
        let loss = Self::forward_delta(self.classes, &self.params, features, labels, rows, scratch);
        // The raw gradient is the unit step over a zeroed buffer.
        grad.clear();
        grad.resize(self.num_params(), 0.0);
        Self::backward_step(
            features,
            rows,
            &scratch.delta,
            &mut grad[..],
            &SgdStep::UNIT,
        );
        let scale = 1.0 / rows.len() as f64;
        tensor::scale(scale, grad);
        loss * scale
    }

    fn loss_and_grad_reference(
        &self,
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
    ) -> (f64, Vec<f64>) {
        assert_eq!(
            features.rows,
            labels.len(),
            "features/labels length mismatch"
        );
        assert!(
            !rows.is_empty(),
            "gradient over an empty batch is undefined"
        );
        let mut grad = vec![0.0; self.num_params()];
        let mut total_loss = 0.0;
        let bias_offset = self.classes * self.features;

        for &r in rows {
            let x = features.row(r);
            let label = labels[r];
            let logits = self.logits(x);
            total_loss += cross_entropy(&logits, label);
            let g_logits = cross_entropy_grad(&logits, label);
            for (c, &g) in g_logits.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let w_grad = &mut grad[c * self.features..(c + 1) * self.features];
                tensor::axpy(g, x, w_grad);
                grad[bias_offset + c] += g;
            }
        }

        let scale = 1.0 / rows.len() as f64;
        tensor::scale(scale, &mut grad);
        (total_loss * scale, grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{argmax, dataset_loss};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_dataset() -> (Matrix, Vec<usize>) {
        // Two well-separated 2D Gaussian-ish blobs placed deterministically.
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let jitter = (i as f64) * 0.01;
            rows.push(vec![1.0 + jitter, 1.0 - jitter]);
            labels.push(0usize);
            rows.push(vec![-1.0 - jitter, -1.0 + jitter]);
            labels.push(1usize);
        }
        (Matrix::from_rows(&rows), labels)
    }

    #[test]
    fn construction_and_accessors() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = SoftmaxRegression::new(5, 3, &mut rng);
        assert_eq!(m.feature_count(), 5);
        assert_eq!(m.classes, 3);
        assert_eq!(m.num_params(), 18);
        assert_eq!(m.params().len(), 18);
        // Biases start at zero.
        for c in 0..3 {
            assert_eq!(m.bias(c), 0.0);
        }
        let _ = m.weight(2, 4);
    }

    #[test]
    #[should_panic(expected = "parameter length mismatch")]
    fn set_params_rejects_wrong_length() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = SoftmaxRegression::new(5, 3, &mut rng);
        m.set_params(&[0.0; 17]);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = SoftmaxRegression::new(4, 3, &mut rng);
        let features = Matrix::from_rows(&[
            vec![0.5, -0.2, 0.1, 0.9],
            vec![-0.3, 0.8, -0.5, 0.2],
            vec![0.0, 0.1, 0.2, -0.7],
        ]);
        let labels = vec![0, 1, 2];
        let rows = vec![0, 1, 2];
        let (_, grad) = m.loss_and_grad(&features, &labels, &rows);

        let eps = 1e-6;
        let base_params = m.params();
        for i in (0..m.num_params()).step_by(3) {
            let mut plus = m.clone();
            let mut p = base_params.clone();
            p[i] += eps;
            plus.set_params(&p);
            let mut minus = m.clone();
            let mut p = base_params.clone();
            p[i] -= eps;
            minus.set_params(&p);
            let numeric = (dataset_loss(&plus, &features, &labels)
                - dataset_loss(&minus, &features, &labels))
                / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-5,
                "param {i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn sgd_on_separable_data_reaches_high_accuracy() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut m = SoftmaxRegression::new(2, 2, &mut rng);
        let (features, labels) = toy_dataset();
        let rows: Vec<usize> = (0..features.rows).collect();
        let initial_loss = dataset_loss(&m, &features, &labels);
        for _ in 0..200 {
            let (_, grad) = m.loss_and_grad(&features, &labels, &rows);
            let mut p = m.params();
            tensor::axpy(-0.5, &grad, &mut p);
            m.set_params(&p);
        }
        let final_loss = dataset_loss(&m, &features, &labels);
        assert!(
            final_loss < initial_loss * 0.2,
            "loss {initial_loss} -> {final_loss}"
        );
        let correct = rows
            .iter()
            .filter(|&&r| argmax(&m.logits(features.row(r))) == labels[r])
            .count();
        assert_eq!(
            correct, features.rows,
            "separable data should be fit exactly"
        );
    }

    #[test]
    fn single_row_batches_are_supported() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = SoftmaxRegression::new(3, 2, &mut rng);
        let features = Matrix::from_rows(&[vec![1.0, 0.0, -1.0], vec![0.5, 0.5, 0.5]]);
        let labels = vec![0, 1];
        let (loss, grad) = m.loss_and_grad(&features, &labels, &[1]);
        assert!(loss > 0.0);
        assert_eq!(grad.len(), m.num_params());
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let m = SoftmaxRegression::new(3, 2, &mut rng);
        let features = Matrix::from_rows(&[vec![1.0, 0.0, -1.0]]);
        let labels = vec![0];
        let _ = m.loss_and_grad(&features, &labels, &[]);
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = SoftmaxRegression::new(4, 3, &mut rng);
        let json = serde_json::to_string(&m).unwrap();
        let back: SoftmaxRegression = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
        let x = vec![0.1, 0.2, 0.3, 0.4];
        assert_eq!(back.logits(&x), m.logits(&x));
    }
}
