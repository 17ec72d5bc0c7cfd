//! Classification metrics: accuracy.
//!
//! The evaluation's headline metric is "the average accuracy Σ acc_i / n,
//! where acc_i is the verification accuracy of client C_i in a
//! communication round" (Section 5.1); per-client accuracy is computed here
//! against each client's held-out rows.
//!
//! Prediction runs through the batched engine: evaluation rows are packed
//! into blocks of [`EVAL_BLOCK`] and pushed through one logits GEMM per
//! block, with blocks distributed over worker threads, each block in the
//! workspace of the thread that runs it (see [`crate::tensor`]'s
//! *Scratch workspace*). The per-row [`accuracy_reference`] is the oracle
//! the tests here and in `tests/batched_equivalence.rs` compare against.
//! Batched logits agree with the per-row dot products to within a few
//! ulps (the kernels use fused multiply-add and striped reductions), so
//! predictions can differ from the per-row path only on logit ties at
//! that scale.
//!
//! The logits GEMM dispatches through the PR 10 SIMD tier
//! ([`crate::simd`]) — that is where evaluation's cycles go. The
//! per-row argmax stays a scalar scan on purpose: it is a trivial
//! `classes`-wide loop whose first-maximum tie-breaking a `vmaxpd`
//! reduction would not preserve.

use crate::model::{argmax, Model};
use crate::par;
use crate::tensor::{self, Matrix, Scratch};

/// Rows per evaluation block: large enough to amortize the GEMM
/// dispatch, small enough that a block's logits stay cache-resident.
pub const EVAL_BLOCK: usize = 512;

fn count_correct_block<M: Model + ?Sized>(
    model: &M,
    features: &Matrix,
    labels: &[usize],
    block: &[usize],
    scratch: &mut Scratch,
) -> usize {
    let contiguous = block.windows(2).all(|w| w[1] == w[0] + 1);
    if contiguous && !block.is_empty() {
        // Contiguous ranges (the whole-dataset case) run straight on the
        // dataset's own storage — no gather copy.
        let start = block[0];
        let x = &features.data[start * features.cols..(start + block.len()) * features.cols];
        model.logits_block(x, block.len(), scratch);
    } else {
        features.select_rows_into(block, &mut scratch.x);
        model.logits_batch(scratch);
    }
    block
        .iter()
        .enumerate()
        .filter(|&(r, &index)| argmax(scratch.z.row(r)) == labels[index])
        .count()
}

/// Fraction of rows (restricted to `rows`, or all rows if `rows` is `None`)
/// whose predicted class matches the label.
pub fn accuracy<M: Model + Sync + ?Sized>(
    model: &M,
    features: &Matrix,
    labels: &[usize],
    rows: Option<&[usize]>,
) -> f64 {
    let all_rows: Vec<usize>;
    let rows = match rows {
        Some(r) => r,
        None => {
            all_rows = (0..features.rows).collect();
            &all_rows
        }
    };
    if rows.is_empty() {
        return 0.0;
    }
    let blocks: Vec<&[usize]> = rows.chunks(EVAL_BLOCK).collect();
    let correct: usize = par::par_map(&blocks, 1, |_, block| {
        tensor::with_scratch(|scratch| count_correct_block(model, features, labels, block, scratch))
    })
    .into_iter()
    .sum();
    correct as f64 / rows.len() as f64
}

/// Per-row reference implementation of [`accuracy`] (the pre-batching
/// engine): the oracle for the blocked evaluation, called only by tests.
pub fn accuracy_reference<M: Model + ?Sized>(
    model: &M,
    features: &Matrix,
    labels: &[usize],
    rows: &[usize],
) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    let correct = rows
        .iter()
        .filter(|&&r| model.predict_row(features.row(r)) == labels[r])
        .count();
    correct as f64 / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::SoftmaxRegression;
    use crate::model::Model;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A model rigged to always predict class 0 (by setting a huge bias).
    fn rigged_model() -> SoftmaxRegression {
        let mut rng = StdRng::seed_from_u64(1);
        let mut m = SoftmaxRegression::new(2, 3, &mut rng);
        let mut p = vec![0.0; m.num_params()];
        p[2 * 3] = 100.0; // bias of class 0
        m.set_params(&p);
        m
    }

    #[test]
    fn accuracy_counts_matches() {
        let m = rigged_model();
        let features = Matrix::from_rows(&[vec![0.0, 0.0], vec![1.0, 1.0], vec![2.0, 2.0]]);
        let labels = vec![0, 0, 1];
        assert!((accuracy(&m, &features, &labels, None) - 2.0 / 3.0).abs() < 1e-12);
        assert!((accuracy(&m, &features, &labels, Some(&[2])) - 0.0).abs() < 1e-12);
        assert_eq!(accuracy(&m, &features, &labels, Some(&[])), 0.0);
    }

    /// A four-class model and dataset one partial block past
    /// [`EVAL_BLOCK`], so blocked evaluation crosses a block boundary.
    fn boundary_dataset() -> (SoftmaxRegression, Matrix, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(9);
        let m = SoftmaxRegression::new(6, 4, &mut rng);
        let rows = EVAL_BLOCK + 37;
        let features = Matrix::from_vec(
            rows,
            6,
            (0..rows * 6)
                .map(|i| ((i * 37) % 101) as f64 * 0.07 - 3.0)
                .collect(),
        );
        let labels: Vec<usize> = (0..rows).map(|i| i % 4).collect();
        (m, features, labels)
    }

    #[test]
    fn batched_accuracy_matches_reference_across_block_boundary() {
        let (m, features, labels) = boundary_dataset();
        let indices: Vec<usize> = (0..features.rows).collect();
        let batched = accuracy(&m, &features, &labels, None);
        let reference = accuracy_reference(&m, &features, &labels, &indices);
        assert_eq!(batched, reference);
    }
}
