//! The model interface shared by the FL and BFL layers.
//!
//! A [`Model`] owns its parameters as a flat `f64` vector (the "gradient"
//! `w` exchanged by Algorithm 1), can compute the mini-batch loss gradient
//! with respect to those parameters, and can classify samples. The one
//! model every run trains is [`SoftmaxRegression`]; [`ModelKind`] is its
//! shape as a configuration spells it.

use crate::linear::SoftmaxRegression;
use crate::tensor::{Matrix, Scratch, SgdStep, StepTarget};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A trainable classification model with flat parameter access.
///
/// [`SoftmaxRegression`] is the one implementor; evaluation
/// ([`crate::metrics`]) and the reference local pass are written against
/// this interface. (The local pass itself steps a parameter vector by its
/// [`ModelKind`], without a model: see
/// [`crate::optimizer::local_pass`].) The compute-heavy
/// entry points (`loss_and_grad_batched`, `logits_batch`) move whole
/// minibatches through the GEMM kernels of [`crate::tensor`];
/// [`Model::loss_and_grad`] is the allocating convenience form over them.
/// The seed's per-sample
/// [`Model::loss_and_grad_reference`] is their oracle: nothing but tests
/// (`tests/batched_equivalence.rs`) and the reference local pass
/// ([`crate::optimizer::train_local_reference`]) calls it.
pub trait Model {
    /// Total number of parameters.
    fn num_params(&self) -> usize;

    /// Borrows the flat parameter vector without copying — the accessor
    /// hot paths use to read or hash parameters in place.
    fn params_ref(&self) -> &[f64];

    /// Copies the parameters into a flat vector (the uploadable "gradient").
    fn params(&self) -> Vec<f64> {
        self.params_ref().to_vec()
    }

    /// Mutably borrows the flat parameter vector, for a caller that
    /// updates it in place instead of round-tripping a copy through
    /// [`Model::set_params`].
    fn params_mut(&mut self) -> &mut [f64];

    /// Overwrites the parameters from a flat vector of length
    /// [`Model::num_params`].
    fn set_params(&mut self, params: &[f64]);

    /// Raw class scores for a single feature row.
    fn logits(&self, features: &[f64]) -> Vec<f64>;

    /// Batched forward pass over a borrowed row-major block of `rows`
    /// feature rows, writing logits into `scratch.z` (`rows x classes`).
    /// Taking the block as a slice lets evaluation run directly on
    /// contiguous ranges of the dataset without gathering a copy.
    fn logits_block(&self, x: &[f64], rows: usize, scratch: &mut Scratch);

    /// Batched forward pass: computes logits for every row of the packed
    /// batch `scratch.x` into `scratch.z` (`batch x classes`).
    fn logits_batch(&self, scratch: &mut Scratch) {
        let x = std::mem::take(&mut scratch.x);
        self.logits_block(&x.data, x.rows, scratch);
        scratch.x = x;
    }

    /// Batched mean loss and gradient over the selected rows, writing the
    /// flat gradient into `grad` (resized as needed) and reusing
    /// `scratch` buffers. Returns the mean loss.
    fn loss_and_grad_batched(
        &self,
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
        grad: &mut Vec<f64>,
        scratch: &mut Scratch,
    ) -> f64;

    /// Per-sample reference implementation of [`Model::loss_and_grad`],
    /// kept verbatim from the pre-batching engine as the oracle
    /// `tests/batched_equivalence.rs` holds the batched gradient to, to
    /// 1e-9 per component.
    fn loss_and_grad_reference(
        &self,
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
    ) -> (f64, Vec<f64>);

    /// Mean loss and flat parameter gradient over the selected rows of the
    /// dataset (`rows` indexes into `features` / `labels`), through the
    /// batched engine with a one-shot workspace.
    fn loss_and_grad(
        &self,
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
    ) -> (f64, Vec<f64>) {
        let mut scratch = Scratch::new();
        let mut grad = Vec::new();
        let loss = self.loss_and_grad_batched(features, labels, rows, &mut grad, &mut scratch);
        (loss, grad)
    }

    /// Predicted class for a single feature row (argmax of the logits).
    fn predict_row(&self, features: &[f64]) -> usize {
        argmax(&self.logits(features))
    }
}

/// Index of the maximum element (first one on ties).
pub fn argmax(values: &[f64]) -> usize {
    let mut best = 0;
    for (i, &v) in values.iter().enumerate() {
        if v > values[best] {
            best = i;
        }
    }
    best
}

/// Mean loss of a model over an entire dataset.
#[cfg(test)]
pub fn dataset_loss<M: Model + ?Sized>(model: &M, features: &Matrix, labels: &[usize]) -> f64 {
    let rows: Vec<usize> = (0..features.rows).collect();
    model.loss_and_grad(features, labels, &rows).0
}

/// The shape of the model a run trains, as its configuration spells it.
///
/// One variant: the enum exists so the serde form keeps naming the model
/// (`{"SoftmaxRegression": {"features": 784, "classes": 10}}`), the form
/// every scenario manifest and benchmark workload is written in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Multinomial softmax (logistic) regression.
    SoftmaxRegression {
        /// Input dimensionality.
        features: usize,
        /// Number of classes.
        classes: usize,
    },
}

impl ModelKind {
    /// The default model used throughout the evaluation: softmax regression
    /// on 28x28 images with 10 classes, matching the scale of the paper's
    /// MNIST setup.
    pub fn default_mnist() -> Self {
        ModelKind::SoftmaxRegression {
            features: 784,
            classes: 10,
        }
    }

    /// Number of parameters a model of this kind will have.
    pub fn num_params(&self) -> usize {
        let ModelKind::SoftmaxRegression { features, classes } = *self;
        classes * features + classes
    }

    /// Instantiates the model with randomly initialized parameters.
    pub fn build<R: Rng + ?Sized>(&self, rng: &mut R) -> SoftmaxRegression {
        let ModelKind::SoftmaxRegression { features, classes } = *self;
        SoftmaxRegression::new(features, classes, rng)
    }

    /// Leaves `rng` exactly where [`ModelKind::build`] would have left
    /// it, and builds nothing.
    ///
    /// `build` samples one value per weight — `features·classes` draws;
    /// biases start at zero and draw nothing — and a local pass would
    /// overwrite every one of them with the global parameters before its
    /// first step, so it builds no model at all: it steps the global
    /// snapshot into its upload ([`crate::optimizer`]). It skips the
    /// sampling but not the draws: the pass's shuffles and an attacker's
    /// forgery noise come from the same `rng` afterwards, and every
    /// golden digest fixes the numbers they see, so the stream must
    /// advance as if the initialisation had happened.
    ///
    /// The skipped draws cost one jump of `rng`'s state (`StdRng::discard`),
    /// not one step per draw, which is why this takes the workspace's
    /// generator rather than any `Rng`.
    pub fn skip_build(&self, rng: &mut StdRng) {
        let ModelKind::SoftmaxRegression { features, classes } = *self;
        SoftmaxRegression::skip_new(features, classes, rng);
    }

    /// One fused SGD step of a local pass over parameters of this shape
    /// (see [`SoftmaxRegression::loss_and_step`]).
    pub(crate) fn loss_and_step(
        &self,
        target: impl StepTarget,
        features: &Matrix,
        labels: &[usize],
        rows: &[usize],
        step: &SgdStep,
        scratch: &mut Scratch,
    ) -> f64 {
        let ModelKind::SoftmaxRegression { classes, .. } = *self;
        SoftmaxRegression::loss_and_step(classes, target, features, labels, rows, step, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{RngCore, SeedableRng};

    proptest! {
        /// `skip_build` against `build`: the generator ends in the same
        /// state — whatever draws next (a shuffle, a forgery) sees the
        /// same stream. Shapes are arbitrary and small.
        #[test]
        fn skip_build_leaves_the_rng_where_build_does(
            features in 1usize..24,
            classes in 2usize..7,
            seed in any::<u64>(),
        ) {
            let kind = ModelKind::SoftmaxRegression { features, classes };
            let mut built_rng = StdRng::seed_from_u64(seed);
            let _ = kind.build(&mut built_rng);
            let mut skipped_rng = StdRng::seed_from_u64(seed);
            kind.skip_build(&mut skipped_rng);
            for _ in 0..8 {
                prop_assert_eq!(skipped_rng.next_u64(), built_rng.next_u64());
            }
        }
    }

    #[test]
    fn argmax_picks_first_maximum() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), 1);
        assert_eq!(argmax(&[-3.0]), 0);
        assert_eq!(argmax(&[0.0, 0.0]), 0);
    }

    #[test]
    fn model_kind_param_counts() {
        assert_eq!(
            ModelKind::SoftmaxRegression {
                features: 784,
                classes: 10
            }
            .num_params(),
            7850
        );
        assert_eq!(ModelKind::default_mnist().num_params(), 7850);
    }

    #[test]
    fn build_produces_models_with_matching_param_counts() {
        let mut rng = StdRng::seed_from_u64(1);
        let kind = ModelKind::SoftmaxRegression {
            features: 20,
            classes: 4,
        };
        let model = kind.build(&mut rng);
        assert_eq!(model.num_params(), kind.num_params());
        assert_eq!(model.params().len(), kind.num_params());
    }

    #[test]
    fn any_model_round_trips_params() {
        let mut rng = StdRng::seed_from_u64(2);
        let kind = ModelKind::SoftmaxRegression {
            features: 6,
            classes: 3,
        };
        let mut model = kind.build(&mut rng);
        let new_params: Vec<f64> = (0..model.num_params()).map(|i| i as f64 * 0.01).collect();
        model.set_params(&new_params);
        assert_eq!(model.params(), new_params);
    }

    #[test]
    fn model_kind_serde_round_trip() {
        let kind = ModelKind::default_mnist();
        let json = serde_json::to_string(&kind).unwrap();
        // The form every manifest and benchmark workload spells.
        assert_eq!(
            json,
            r#"{"SoftmaxRegression":{"features":784,"classes":10}}"#
        );
        let back: ModelKind = serde_json::from_str(&json).unwrap();
        assert_eq!(back, kind);
    }
}
