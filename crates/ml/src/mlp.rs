//! One-hidden-layer multi-layer perceptron with ReLU activation.
//!
//! A slightly richer alternative to [`crate::SoftmaxRegression`] used to
//! check that the FAIR-BFL machinery (aggregation, clustering, rewards) is
//! agnostic to the local model architecture.

use crate::activation::{relu, relu_derivative, softmax_in_place};
use crate::loss::{cross_entropy, cross_entropy_grad};
use crate::model::Model;
use crate::tensor::{Matrix, Scratch};
use crate::{init, tensor};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// `features -> hidden (ReLU) -> classes (softmax)` network.
///
/// Parameters are stored flat as `[W1, b1, W2, b2]` with `W1` of shape
/// `(hidden x features)` and `W2` of shape `(classes x hidden)`, both
/// row-major.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    features: usize,
    hidden: usize,
    classes: usize,
    params: Vec<f64>,
}

impl Mlp {
    /// Creates an MLP with Xavier-initialized weights and zero biases.
    pub fn new<R: Rng + ?Sized>(
        features: usize,
        hidden: usize,
        classes: usize,
        rng: &mut R,
    ) -> Self {
        assert!(features > 0 && hidden > 0 && classes > 1);
        let mut params = init::xavier_uniform(rng, features, hidden);
        params.extend(init::zeros(hidden));
        params.extend(init::xavier_uniform(rng, hidden, classes));
        params.extend(init::zeros(classes));
        Mlp {
            features,
            hidden,
            classes,
            params,
        }
    }

    /// [`Mlp::new`] for a caller that already holds the parameters: adopts
    /// `params` and skips, draw for draw, the initialisation `new` would
    /// have sampled from `rng` (see [`crate::ModelKind::adopt`]). Every
    /// initialiser call in `new` has its `skip_` twin here, in the same
    /// order.
    pub(crate) fn adopt<R: Rng + ?Sized>(
        features: usize,
        hidden: usize,
        classes: usize,
        params: Vec<f64>,
        rng: &mut R,
    ) -> Self {
        assert!(features > 0 && hidden > 0 && classes > 1);
        init::skip_xavier_uniform(rng, features, hidden);
        init::skip_xavier_uniform(rng, hidden, classes);
        let model = Mlp {
            features,
            hidden,
            classes,
            params,
        };
        assert_eq!(
            model.params.len(),
            model.num_params(),
            "parameter length mismatch"
        );
        model
    }

    /// Input dimensionality.
    pub fn feature_count(&self) -> usize {
        self.features
    }

    /// Hidden-layer width.
    pub fn hidden_count(&self) -> usize {
        self.hidden
    }

    /// Number of output classes.
    pub fn class_count(&self) -> usize {
        self.classes
    }

    fn offsets(&self) -> (usize, usize, usize, usize) {
        let w1 = 0;
        let b1 = self.hidden * self.features;
        let w2 = b1 + self.hidden;
        let b2 = w2 + self.classes * self.hidden;
        (w1, b1, w2, b2)
    }

    /// Forward pass returning (hidden pre-activation, hidden activation, logits).
    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        debug_assert_eq!(x.len(), self.features);
        let (w1, b1, w2, b2) = self.offsets();
        let mut h_pre = Vec::with_capacity(self.hidden);
        for j in 0..self.hidden {
            let row = &self.params[w1 + j * self.features..w1 + (j + 1) * self.features];
            h_pre.push(tensor::dot(row, x) + self.params[b1 + j]);
        }
        let h = relu(&h_pre);
        let mut logits = Vec::with_capacity(self.classes);
        for c in 0..self.classes {
            let row = &self.params[w2 + c * self.hidden..w2 + (c + 1) * self.hidden];
            logits.push(tensor::dot(row, &h) + self.params[b2 + c]);
        }
        (h_pre, h, logits)
    }
}

impl Mlp {
    /// Batched forward pass over a borrowed feature block: fills
    /// `scratch.h_pre`, `scratch.h` and `scratch.z`.
    fn forward_block(&self, x: &[f64], batch: usize, scratch: &mut Scratch) {
        debug_assert_eq!(x.len(), batch * self.features);
        let (w1, b1, w2, b2) = self.offsets();

        // h_pre = X · W1ᵀ + b1, straight against the row-major parameter
        // window (the Gram kernel's dot tiles read W1 in place).
        scratch.h_pre.resize_in_place(batch, self.hidden);
        tensor::gemm_nt(
            x,
            &self.params[w1..b1],
            &mut scratch.h_pre.data,
            batch,
            self.features,
            self.hidden,
        );
        let bias1 = &self.params[b1..w2];
        for row in scratch.h_pre.data.chunks_mut(self.hidden) {
            for (v, &b) in row.iter_mut().zip(bias1.iter()) {
                *v += b;
            }
        }

        // h = relu(h_pre), kept separately for the backward mask.
        scratch.h.resize_in_place(batch, self.hidden);
        for (h, &pre) in scratch.h.data.iter_mut().zip(scratch.h_pre.data.iter()) {
            *h = pre.max(0.0);
        }

        // z = h · W2ᵀ + b2.
        scratch.z.resize_in_place(batch, self.classes);
        tensor::gemm_nt(
            &scratch.h.data,
            &self.params[w2..b2],
            &mut scratch.z.data,
            batch,
            self.hidden,
            self.classes,
        );
        let bias2 = &self.params[b2..];
        for row in scratch.z.data.chunks_mut(self.classes) {
            for (v, &b) in row.iter_mut().zip(bias2.iter()) {
                *v += b;
            }
        }
    }
}

impl Model for Mlp {
    fn num_params(&self) -> usize {
        self.hidden * self.features + self.hidden + self.classes * self.hidden + self.classes
    }

    fn params_ref(&self) -> &[f64] {
        &self.params
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn into_params(self) -> Vec<f64> {
        self.params
    }

    fn set_params(&mut self, params: &[f64]) {
        assert_eq!(params.len(), self.num_params(), "parameter length mismatch");
        self.params.copy_from_slice(params);
    }

    fn logits(&self, features: &[f64]) -> Vec<f64> {
        self.forward(features).2
    }

    fn logits_block(&self, x: &[f64], rows: usize, scratch: &mut Scratch) {
        self.forward_block(x, rows, scratch);
    }

    fn loss_and_sum_grad_batched(
        &self,
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
        grad: &mut Vec<f64>,
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
        assert_eq!(features.cols, self.features, "feature width mismatch");
        let batch = rows.len();
        let (w1, b1, w2, b2) = self.offsets();

        // Layer 1 runs straight off the dataset rows — no gather copy.
        scratch.h_pre.resize_in_place(batch, self.hidden);
        tensor::gemm_nt_indexed(
            features,
            rows,
            &self.params[w1..b1],
            &mut scratch.h_pre.data,
            self.hidden,
        );
        let bias1 = &self.params[b1..w2];
        for row in scratch.h_pre.data.chunks_mut(self.hidden) {
            for (v, &b) in row.iter_mut().zip(bias1.iter()) {
                *v += b;
            }
        }
        scratch.h.resize_in_place(batch, self.hidden);
        for (h, &pre) in scratch.h.data.iter_mut().zip(scratch.h_pre.data.iter()) {
            *h = pre.max(0.0);
        }
        scratch.z.resize_in_place(batch, self.classes);
        tensor::gemm_nt(
            &scratch.h.data,
            &self.params[w2..b2],
            &mut scratch.z.data,
            batch,
            self.hidden,
            self.classes,
        );
        let bias2 = &self.params[b2..];
        for row in scratch.z.data.chunks_mut(self.classes) {
            for (v, &b) in row.iter_mut().zip(bias2.iter()) {
                *v += b;
            }
        }

        // delta = softmax(z) - one_hot(label), row-wise in place.
        let mut total_loss = 0.0;
        scratch.delta.resize_in_place(batch, self.classes);
        scratch.delta.data.copy_from_slice(&scratch.z.data);
        for (r, &row_index) in rows.iter().enumerate() {
            let delta_row = scratch.delta.row_mut(r);
            softmax_in_place(delta_row);
            let label = labels[row_index];
            total_loss += -(delta_row[label].max(1e-15)).ln();
            delta_row[label] -= 1.0;
        }

        // Weight-gradient windows are written in store mode, so the
        // reused gradient buffer never needs a zeroing pass; only the
        // small bias windows are cleared explicitly.
        grad.resize(self.num_params(), 0.0);
        let (grad_low, grad_high) = grad.split_at_mut(w2);
        let (grad_w1, grad_b1) = grad_low.split_at_mut(b1);
        let (grad_w2, grad_b2) = grad_high.split_at_mut(b2 - w2);

        // Output layer: grad_W2 = δᵀ · h, grad_b2 = column sums of δ.
        tensor::gemm_tn_overwrite(
            &scratch.delta.data,
            &scratch.h.data,
            grad_w2,
            batch,
            self.classes,
            self.hidden,
        );
        grad_b2.fill(0.0);
        for r in 0..batch {
            tensor::axpy(1.0, scratch.delta.row(r), grad_b2);
        }

        // Backpropagate: g_h = δ · W2, masked by relu'(h_pre).
        scratch.g_h.resize_in_place(batch, self.hidden);
        tensor::gemm_nn(
            &scratch.delta.data,
            &self.params[w2..b2],
            &mut scratch.g_h.data,
            batch,
            self.classes,
            self.hidden,
        );
        for (g, &pre) in scratch.g_h.data.iter_mut().zip(scratch.h_pre.data.iter()) {
            if pre <= 0.0 {
                *g = 0.0;
            }
        }

        // Input layer: grad_W1 = g_hᵀ · X, grad_b1 = column sums of g_h.
        tensor::gemm_tn_indexed_overwrite(&scratch.g_h.data, features, rows, grad_w1, self.hidden);
        grad_b1.fill(0.0);
        for r in 0..batch {
            tensor::axpy(1.0, scratch.g_h.row(r), grad_b1);
        }
        total_loss
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
        let (w1, b1, w2, b2) = self.offsets();
        let mut grad = vec![0.0; self.num_params()];
        let mut total_loss = 0.0;

        for &r in rows {
            let x = features.row(r);
            let label = labels[r];
            let (h_pre, h, logits) = self.forward(x);
            total_loss += cross_entropy(&logits, label);

            // Output layer.
            let g_logits = cross_entropy_grad(&logits, label);
            for (c, &g) in g_logits.iter().enumerate() {
                let w2_grad = &mut grad[w2 + c * self.hidden..w2 + (c + 1) * self.hidden];
                tensor::axpy(g, &h, w2_grad);
                grad[b2 + c] += g;
            }

            // Backpropagate into the hidden layer.
            let mut g_h = vec![0.0; self.hidden];
            for (c, &g) in g_logits.iter().enumerate() {
                let row = &self.params[w2 + c * self.hidden..w2 + (c + 1) * self.hidden];
                tensor::axpy(g, row, &mut g_h);
            }
            let relu_mask = relu_derivative(&h_pre);
            for (gh, mask) in g_h.iter_mut().zip(relu_mask.iter()) {
                *gh *= mask;
            }

            // Input layer.
            for (j, &g) in g_h.iter().enumerate() {
                if g == 0.0 {
                    continue;
                }
                let w1_grad = &mut grad[w1 + j * self.features..w1 + (j + 1) * self.features];
                tensor::axpy(g, x, w1_grad);
                grad[b1 + j] += g;
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

    #[test]
    fn construction_and_shapes() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(6, 4, 3, &mut rng);
        assert_eq!(m.feature_count(), 6);
        assert_eq!(m.hidden_count(), 4);
        assert_eq!(m.class_count(), 3);
        assert_eq!(m.num_params(), 6 * 4 + 4 + 4 * 3 + 3);
        assert_eq!(m.params().len(), m.num_params());
        assert_eq!(m.logits(&[0.0; 6]).len(), 3);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = Mlp::new(3, 5, 3, &mut rng);
        let features = Matrix::from_rows(&[
            vec![0.4, -0.3, 0.8],
            vec![-0.6, 0.2, 0.1],
            vec![0.9, 0.9, -0.9],
        ]);
        let labels = vec![0, 1, 2];
        let rows = vec![0, 1, 2];
        let (_, grad) = m.loss_and_grad(&features, &labels, &rows);

        let eps = 1e-6;
        let base = m.params();
        for i in (0..m.num_params()).step_by(5) {
            let mut plus = m.clone();
            let mut p = base.clone();
            p[i] += eps;
            plus.set_params(&p);
            let mut minus = m.clone();
            let mut p = base.clone();
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
    fn learns_xor_like_pattern_that_linear_models_cannot() {
        // XOR in 2D: requires the hidden layer.
        let features = Matrix::from_rows(&[
            vec![0.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![1.0, 1.0],
        ]);
        let labels = vec![0usize, 1, 1, 0];
        let rows: Vec<usize> = (0..4).collect();
        // Seed chosen so the Xavier draw lands in the XOR-solvable basin
        // (most seeds do; a few start with a dead hidden layer).
        let mut rng = StdRng::seed_from_u64(12);
        let mut m = Mlp::new(2, 8, 2, &mut rng);
        for _ in 0..3000 {
            let (_, grad) = m.loss_and_grad(&features, &labels, &rows);
            let mut p = m.params();
            tensor::axpy(-0.5, &grad, &mut p);
            m.set_params(&p);
        }
        let correct = rows
            .iter()
            .filter(|&&r| argmax(&m.logits(features.row(r))) == labels[r])
            .count();
        assert_eq!(correct, 4, "MLP should fit XOR exactly");
    }

    #[test]
    fn params_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut m = Mlp::new(4, 3, 2, &mut rng);
        let target: Vec<f64> = (0..m.num_params()).map(|i| (i as f64) * 0.1).collect();
        m.set_params(&target);
        assert_eq!(m.params(), target);
    }

    #[test]
    fn serde_round_trip() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = Mlp::new(4, 3, 2, &mut rng);
        let json = serde_json::to_string(&m).unwrap();
        let back: Mlp = serde_json::from_str(&json).unwrap();
        // JSON rendering of f64 can lose the last bit; compare with tolerance.
        assert_eq!(back.num_params(), m.num_params());
        for (a, b) in back.params().iter().zip(m.params().iter()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
