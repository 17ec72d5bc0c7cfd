//! Dense vectors, row-major matrices, and the batched compute kernels
//! the model in the workspace runs on.
//!
//! # Kernel layer
//!
//! Two matrix-matrix kernels, each with an indexed form that reads
//! minibatch rows in place, cover every shape training and evaluation
//! need, and two more serve Algorithm 2:
//!
//! * [`gemm_nt`] — `C = A · Bᵀ`, used for logits against
//!   row-major weights, evaluation, and the rectangular point-to-centroid
//!   distances of k-means. Every output element is one lane-striped
//!   [`dot_lanes`] reduction (or, for at most 16 long rows, its
//!   `k`-blocked partial sums), so independent accumulator chains hide
//!   the floating-point add latency that makes a plain `dot`
//!   latency-bound. [`gemm_nt_indexed`] is the minibatch-logits form.
//! * [`gemm_tn_indexed_step`] — `W += α·(Aᵀ · X[rows])`, the gradient
//!   kernel (`grad_W = δᵀ · X`) with the SGD step ([`SgdStep`], FedProx's
//!   pull included) applied to each element as it is finished, so a
//!   training step never stores its gradient. Accumulation over the
//!   samples runs in ascending order, which keeps the batched gradients
//!   numerically aligned with the per-sample reference path (same
//!   summation order per output element).
//!   [`gemm_tn_indexed_step_fresh`] is the same step read from a
//!   snapshot `W0` and written, once per element, into an uninitialised
//!   buffer: `W = W0 + α·(…)`, with the in-place step's bits. A local
//!   pass's first step writes its upload this way, so no pass copies the
//!   model it starts from.
//! * [`dot_lanes`] — one entry `⟨a, b⟩` of the Gram matrix `G = V · Vᵀ`
//!   of a set of borrowed rows, the kernel behind every pairwise
//!   distance: the lane-striped reduction [`gemm_nt`]'s large-row regime
//!   runs for each output element. [`square_and_dot_lanes`] forms a
//!   row's squared norm and its entry against another row from one read
//!   of the row.
//! * [`dots_and_squares_x4`] — θ's inputs, each upload's dot with the
//!   anchor and its squared norm, for four uploads per pass. θ must keep
//!   [`dot`]'s bits, so it cannot use the lane-striped reduction, and a
//!   lone [`dot`] waits on every add before the next. Interleaving four
//!   rows runs eight such chains side by side, each in [`dot`]'s exact
//!   order, reads each row once for both of its dots and shares each
//!   anchor load across the four.
//!
//! The GEMMs take raw row-major buffers plus dimensions, so models
//! can point operands directly at windows of their flat parameter
//! vector — logits and weight gradients run against the parameters in
//! place, with no per-step transpose or copy. [`matmul_transpose_b_into`]
//! is [`gemm_nt`] over whole [`Matrix`] operands, for Algorithm 2's
//! rectangular distances.
//!
//! [`gemm_nt`] parallelizes over contiguous blocks of output rows
//! through [`crate::par`] once every worker gets `MIN_ROWS_PER_THREAD`
//! of them; each worker owns a disjoint slice of `C`, so results are
//! bit-identical regardless of thread count. The indexed minibatch
//! kernels and the Gram entries run on the calling thread: the local
//! pass already fans out over clients, and Algorithm 2 splits its own
//! row passes.
//!
//! # Scratch workspace
//!
//! [`Scratch`] owns every intermediate buffer a batched forward/backward
//! pass needs (packed minibatch, logits, deltas) and the one a local
//! training pass adds (the shuffled sample order); the pass keeps no
//! gradient buffer, its backward steps the parameters as it finishes each
//! gradient element. Buffers are resized with [`Matrix::resize_in_place`],
//! which reuses the underlying allocation, so a workspace allocates only
//! while it grows. Each thread keeps one, private to this crate: the
//! local pass ([`crate::optimizer::local_pass`]) borrows it for the
//! pass and each evaluation block ([`crate::metrics::accuracy`]) for the
//! block, on whichever thread runs it, and neither runs anything that
//! borrows it again. Every use re-fits and overwrites what it reads, so
//! what ran on a thread before never shows in a result; after a
//! thread's first pass and block at their largest shapes, neither
//! allocates a workspace buffer again. The [`crate::Model`] methods that
//! take a `&mut Scratch` are the explicit form the two borrow through.

use crate::par;
use crate::simd;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::mem::MaybeUninit;

/// A dense vector of `f64` values.
pub type Vector = Vec<f64>;

/// Minimum number of output rows each GEMM worker thread must receive
/// before the kernels fan out; below this the fan-out overhead dominates.
const MIN_ROWS_PER_THREAD: usize = 32;

/// A dense, row-major matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major storage of length `rows * cols`.
    pub data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data; panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a list of equal-length rows (owned vectors
    /// or borrowed slices).
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Self {
        if rows.is_empty() {
            return Matrix::zeros(0, 0);
        }
        let cols = rows[0].as_ref().len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), cols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Reshapes in place to `rows x cols`, zero-filled, reusing the
    /// existing allocation whenever its capacity suffices.
    pub fn resize_in_place(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0.0);
    }

    /// Returns the element at (`row`, `col`).
    pub fn get(&self, row: usize, col: usize) -> f64 {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col]
    }

    /// Sets the element at (`row`, `col`).
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.data[row * self.cols + col] = value;
    }

    /// Borrows row `row` as a slice.
    pub fn row(&self, row: usize) -> &[f64] {
        debug_assert!(row < self.rows);
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutably borrows row `row`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f64] {
        debug_assert!(row < self.rows);
        &mut self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Builds a new matrix containing the selected rows, in the given order.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.select_rows_into(indices, &mut out);
        out
    }

    /// Packs the selected rows into `out` (reusing its allocation) — the
    /// minibatch gather of the batched training path.
    pub fn select_rows_into(&self, indices: &[usize], out: &mut Matrix) {
        out.rows = indices.len();
        out.cols = self.cols;
        out.data.clear();
        out.data.reserve(indices.len() * self.cols);
        for &i in indices {
            out.data.extend_from_slice(self.row(i));
        }
    }
}

/// Indexed-row Gram kernel: `C[i][j] = <features.row(rows[i]), B.row(j)>`
/// with `B` a row-major `n x k` window. The selected feature rows are
/// read in place — the minibatch is never gathered into a contiguous
/// copy. Same dot routine and `k`-blocking as [`gemm_nt`], so results
/// match a gather-then-`gemm_nt` exactly.
pub fn gemm_nt_indexed(features: &Matrix, rows: &[usize], b: &[f64], c: &mut [f64], n: usize) {
    let k = features.cols;
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), rows.len() * n);
    if rows.is_empty() || n == 0 {
        return;
    }
    if k == 0 {
        c.fill(0.0);
        return;
    }
    gemm_nt_core(|r| features.row(rows[r]), rows.len(), b, c, k, n);
}

/// The SGD step a gradient kernel folds into each gradient element it
/// finishes: `w += alpha * (g + mu_b * (w − w0))`, where the `mu_b` term
/// (FedProx's pull) is there only under FedProx. Each operation rounds on
/// its own — a subtraction, a multiply, then an add — never a fused
/// multiply-add, so the step keeps the bits of the unfused composition
/// (the FedProx pull over a gradient buffer, then [`axpy`]).
#[derive(Debug, Clone, Copy)]
pub struct SgdStep<'a> {
    /// Coefficient of the step: `−η / B` on a gradient summed over `B`
    /// samples.
    pub alpha: f64,
    /// FedProx's pull, `(μ·B, w0)`: its coefficient on a summed gradient
    /// and the starting parameters, aligned element for element with the
    /// stepped ones. `None` adds no term at all (not a zero one, which
    /// would turn a `−0.0` gradient into `+0.0`).
    pub proximal: Option<(f64, &'a [f64])>,
}

impl<'a> SgdStep<'a> {
    /// `w = 0.0 + 1.0 * g`: the step that turns a zeroed buffer into the
    /// raw gradient. Exact but for one corner: a fused multiply-add whose
    /// product underflows can end a sum on `−0.0`, which this stores as
    /// `+0.0` (a store of the accumulator would keep the sign).
    pub const UNIT: SgdStep<'static> = SgdStep {
        alpha: 1.0,
        proximal: None,
    };

    /// The steps over `w[..mid]` and `w[mid..]`, for a caller that steps
    /// a parameter vector in windows: the anchor is cut at the same point.
    pub fn split_at(&self, mid: usize) -> (SgdStep<'a>, SgdStep<'a>) {
        let (head, tail) = match self.proximal {
            Some((mu_b, anchor)) => {
                let (head, tail) = anchor.split_at(mid);
                (Some((mu_b, head)), Some((mu_b, tail)))
            }
            None => (None, None),
        };
        let window = |proximal| SgdStep {
            alpha: self.alpha,
            proximal,
        };
        (window(head), window(tail))
    }

    /// Steps parameter `at` of `w` by the finished gradient element `g`.
    #[inline(always)]
    pub(crate) fn apply(&self, w: &mut impl StepTarget, at: usize, g: f64) {
        let from = w.source()[at];
        let g = match self.proximal {
            Some((mu_b, anchor)) => g + mu_b * (from - anchor[at]),
            None => g,
        };
        w.store(at, from + self.alpha * g);
    }
}

/// Where a fused SGD step reads the parameters it steps and where it
/// writes the stepped ones: one slice, stepped in place, or a snapshot
/// and a [`Fresh`] buffer. Either way each parameter is read once and
/// written once, by the same operations, so the two agree bit for bit
/// when the snapshot holds the slice's values.
pub(crate) trait StepTarget: Sized {
    /// The parameters the step starts from.
    fn source(&self) -> &[f64];

    /// Writes the stepped parameter `at`.
    fn store(&mut self, at: usize, value: f64);

    /// The targets over `[..mid]` and `[mid..]`.
    fn split_at(self, mid: usize) -> (Self, Self);

    /// Where the AVX2 tier loads parameters from and stores stepped ones,
    /// both taken from this one borrow and valid for `source().len()`
    /// elements.
    fn lanes(&mut self) -> (*const f64, *mut f64);
}

impl StepTarget for &mut [f64] {
    fn source(&self) -> &[f64] {
        self
    }

    #[inline(always)]
    fn store(&mut self, at: usize, value: f64) {
        self[at] = value;
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }

    #[inline(always)]
    fn lanes(&mut self) -> (*const f64, *mut f64) {
        let w = self.as_mut_ptr();
        (w, w)
    }
}

/// A step target whose parameters come from `start` and whose stepped
/// ones are written, once each, into `out`: a buffer nothing has to
/// initialise first. No `&mut [f64]` over `out` is ever formed; the
/// scalar tier writes through [`MaybeUninit::write`], the AVX2 tier
/// stores through the pointer [`StepTarget::lanes`] casts from it.
pub(crate) struct Fresh<'a> {
    start: &'a [f64],
    out: &'a mut [MaybeUninit<f64>],
}

impl<'a> Fresh<'a> {
    /// The target that steps `start` into `out`, of the same length.
    pub(crate) fn new(start: &'a [f64], out: &'a mut [MaybeUninit<f64>]) -> Self {
        assert_eq!(
            start.len(),
            out.len(),
            "a fresh target must match its start"
        );
        Fresh { start, out }
    }
}

impl StepTarget for Fresh<'_> {
    fn source(&self) -> &[f64] {
        self.start
    }

    #[inline(always)]
    fn store(&mut self, at: usize, value: f64) {
        self.out[at].write(value);
    }

    fn split_at(self, mid: usize) -> (Self, Self) {
        let (start_head, start_tail) = self.start.split_at(mid);
        let (out_head, out_tail) = self.out.split_at_mut(mid);
        (
            Fresh::new(start_head, out_head),
            Fresh::new(start_tail, out_tail),
        )
    }

    #[inline(always)]
    fn lanes(&mut self) -> (*const f64, *mut f64) {
        (self.start.as_ptr(), self.out.as_mut_ptr().cast())
    }
}

/// Indexed-row gradient kernel with the SGD step fused in:
/// `W += alpha * (Aᵀ · X[rows] [+ μ·B·(W − W0)])` (`A: B x m`
/// coefficients, `X[rows]`: the selected feature rows read in place,
/// `W: m x features.cols`, the weight window of the parameters). Every
/// gradient element accumulates its sample contributions in ascending
/// order and is stepped into `W` from its register, never stored: the
/// backward of a training step writes the parameters and nothing else.
pub fn gemm_tn_indexed_step(
    a: &[f64],
    features: &Matrix,
    rows: &[usize],
    w: &mut [f64],
    m: usize,
    step: &SgdStep,
) {
    gemm_tn_indexed_step_into(a, features, rows, w, m, step);
}

/// [`gemm_tn_indexed_step`] into a fresh target:
/// `out = start + alpha * (Aᵀ · X[rows] [+ μ·B·(start − W0)])`, each
/// element of `out` written exactly once, with the bits the in-place
/// step gives over a copy of `start`. `out` need not be initialised:
/// a local pass's first step writes its upload this way, straight from
/// the global snapshot, without copying the model first.
pub fn gemm_tn_indexed_step_fresh(
    a: &[f64],
    features: &Matrix,
    rows: &[usize],
    start: &[f64],
    out: &mut [MaybeUninit<f64>],
    m: usize,
    step: &SgdStep,
) {
    gemm_tn_indexed_step_into(a, features, rows, Fresh::new(start, out), m, step);
}

/// The two forms of the fused gradient kernel over any [`StepTarget`].
pub(crate) fn gemm_tn_indexed_step_into(
    a: &[f64],
    features: &Matrix,
    rows: &[usize],
    mut w: impl StepTarget,
    m: usize,
    step: &SgdStep,
) {
    let n = features.cols;
    let k = rows.len();
    let len = w.source().len();
    // Checked in release too: the AVX2 tier reads `a` through raw pointers.
    assert_eq!(a.len(), k * m, "coefficients must be rows x m");
    assert_eq!(len, m * n, "weight window must be m x features");
    if let Some((_, anchor)) = step.proximal {
        assert_eq!(anchor.len(), len, "anchor must align with the weights");
    }
    if m == 0 || n == 0 {
        return;
    }
    gemm_tn_body(a, |kk| features.row(rows[kk]), &mut w, k, m, n, step);
}

/// The register-tile body behind [`gemm_tn_indexed_step`], generic over
/// how `B` rows are fetched; the AVX2 tier ([`simd::gemm_tn`], dispatched
/// here) mirrors its scalar tails exactly.
///
/// Register-tiled: four output rows advance together through `j` in
/// [`LANES`]-wide vectors, with the full `k` (sample) dimension fused
/// into one pass — each gradient element is finished once, instead of
/// once per sample, and stepped into `c` by `step` straight from its
/// accumulator. Every element accumulates its `k` contributions in
/// ascending order from zero, matching the per-sample reference
/// summation order. Each `(row, column)` pair of the `m x n` window is
/// visited exactly once, by one of the tiles or tails, so every element
/// of `c` is stored exactly once: what a [`Fresh`] target relies on.
fn gemm_tn_body<'a>(
    a: &[f64],
    b_row: impl Fn(usize) -> &'a [f64],
    c: &mut impl StepTarget,
    k: usize,
    m: usize,
    n: usize,
    step: &SgdStep,
) {
    #[cfg(target_arch = "x86_64")]
    if simd::active() {
        // SAFETY: `simd::active()` guarantees AVX2+FMA were detected.
        unsafe { simd::gemm_tn(a, &b_row, c, k, m, n, step) };
        return;
    }
    let mut r = 0;
    while r + 4 <= m {
        let mut j = 0;
        while j + LANES <= n {
            let mut acc = [[0.0; LANES]; 4];
            for kk in 0..k {
                let bv: &[f64; LANES] = b_row(kk)[j..j + LANES].try_into().unwrap();
                let a_col = &a[kk * m + r..kk * m + r + 4];
                for l in 0..LANES {
                    for q in 0..4 {
                        acc[q][l] = a_col[q].mul_add(bv[l], acc[q][l]);
                    }
                }
            }
            for (q, lanes) in acc.iter().enumerate() {
                for (l, &g) in lanes.iter().enumerate() {
                    step.apply(c, (r + q) * n + j + l, g);
                }
            }
            j += LANES;
        }
        while j < n {
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for kk in 0..k {
                let b_j = b_row(kk)[j];
                let a_col = &a[kk * m + r..kk * m + r + 4];
                s0 += a_col[0] * b_j;
                s1 += a_col[1] * b_j;
                s2 += a_col[2] * b_j;
                s3 += a_col[3] * b_j;
            }
            for (q, g) in [s0, s1, s2, s3].into_iter().enumerate() {
                step.apply(c, (r + q) * n + j, g);
            }
            j += 1;
        }
        r += 4;
    }
    // Remainder rows, one at a time with the same full-`k` fusion.
    while r < m {
        let mut j = 0;
        while j + LANES <= n {
            let mut acc = [0.0; LANES];
            for kk in 0..k {
                let bv: &[f64; LANES] = b_row(kk)[j..j + LANES].try_into().unwrap();
                let a_ki = a[kk * m + r];
                for l in 0..LANES {
                    acc[l] = a_ki.mul_add(bv[l], acc[l]);
                }
            }
            for (l, &g) in acc.iter().enumerate() {
                step.apply(c, r * n + j + l, g);
            }
            j += LANES;
        }
        while j < n {
            let mut s = 0.0;
            for kk in 0..k {
                s += a[kk * m + r] * b_row(kk)[j];
            }
            step.apply(c, r * n + j, s);
            j += 1;
        }
        r += 1;
    }
}

/// `C = A · Bᵀ` with `C` reusing its allocation
/// (`C[i][j] = ⟨A.row(i), B.row(j)⟩`).
pub fn matmul_transpose_b_into(a: &Matrix, b: &Matrix, c: &mut Matrix) {
    assert_eq!(
        a.cols, b.cols,
        "matmul_transpose_b dimension mismatch: {}x{} * ({}x{})ᵀ",
        a.rows, a.cols, b.rows, b.cols
    );
    c.resize_in_place(a.rows, b.rows);
    gemm_nt(&a.data, &b.data, &mut c.data, a.rows, a.cols, b.rows);
}

/// Slice-level `C = A · Bᵀ` over row-major buffers (`A: m x k`,
/// `B: n x k`, `C: m x n`).
///
/// Four output columns are produced per pass over `A.row(i)`, giving
/// four independent accumulator chains; a lone dot product is bound by
/// the floating-point add latency instead. The slice form lets models
/// point `B` at the weight window of their flat parameter vector, so
/// logits need no per-step weight transpose or copy.
pub fn gemm_nt(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 {
        return;
    }
    if par::plan_workers(m, MIN_ROWS_PER_THREAD) <= 1 {
        gemm_nt_serial(a, b, c, 0, k, n);
    } else {
        par::par_rows_mut(c, n, MIN_ROWS_PER_THREAD, |row_start, chunk| {
            gemm_nt_serial(a, b, chunk, row_start, k, n);
        });
    }
}

/// SIMD lane width of one accumulator vector in the dot kernels: 8
/// doubles is one AVX-512 register (or two AVX2 registers).
pub(crate) const LANES: usize = 8;

/// Accumulator stripe of the dot kernels: four [`LANES`]-wide vectors
/// advance in parallel, giving four independent FMA chains — enough to
/// hide the floating-point latency that serializes a plain [`dot`].
pub(crate) const STRIPE: usize = 4 * LANES;

/// Lane-striped dot product: deterministic (fixed stripe layout, fixed
/// reduction order) and auto-vectorizable. Every entry of a pairwise
/// distance matrix and of [`gemm_nt`]'s large-row regime is this
/// reduction, so identical input rows yield bit-identical entries, and
/// identical points sit at identical distances whichever worker formed
/// them. The arguments commute bit for bit. Dispatches to the
/// hand-written AVX2+FMA form when [`simd::active`]; both tiers run the
/// identical stripe/fold/tail order, so the result is the same bit
/// pattern either way.
///
/// # Panics
/// Panics if `a` and `b` differ in length.
#[inline]
pub fn dot_lanes(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot_lanes needs equal-length rows");
    #[cfg(target_arch = "x86_64")]
    if simd::active() {
        // SAFETY: `simd::active()` guarantees AVX2+FMA were detected.
        return unsafe { simd::dot(a, b) };
    }
    dot_lanes_scalar(a, b)
}

/// Scalar tier of [`dot_lanes`] — the frozen accumulation-order
/// reference every vector form must reproduce bit-for-bit. Kept
/// callable on every architecture (the equivalence suite exercises it
/// through the dispatching GEMM entry points by pinning the tier)
/// rather than folded into the dispatching wrapper.
#[inline]
pub(crate) fn dot_lanes_scalar(a: &[f64], b: &[f64]) -> f64 {
    let len = a.len();
    let mut acc = [0.0f64; STRIPE];
    let mut i = 0;
    while i + STRIPE <= len {
        let av: &[f64; STRIPE] = a[i..i + STRIPE].try_into().unwrap();
        let bv: &[f64; STRIPE] = b[i..i + STRIPE].try_into().unwrap();
        for l in 0..STRIPE {
            acc[l] = av[l].mul_add(bv[l], acc[l]);
        }
        i += STRIPE;
    }
    finish_lanes_scalar(&acc, a, b)
}

/// The rest of [`dot_lanes_scalar`] once every whole stripe is in `acc`:
/// fold the stripe into one vector, run the `LANES` tail from the first
/// index past the stripes, reduce left-to-right, add the remainder.
#[inline]
fn finish_lanes_scalar(acc: &[f64; STRIPE], a: &[f64], b: &[f64]) -> f64 {
    let len = a.len();
    let mut i = len / STRIPE * STRIPE;
    let mut folded = [0.0f64; LANES];
    for (l, value) in acc.iter().enumerate() {
        folded[l % LANES] += value;
    }
    while i + LANES <= len {
        let av: &[f64; LANES] = a[i..i + LANES].try_into().unwrap();
        let bv: &[f64; LANES] = b[i..i + LANES].try_into().unwrap();
        for l in 0..LANES {
            folded[l] = av[l].mul_add(bv[l], folded[l]);
        }
        i += LANES;
    }
    let mut out: f64 = folded.iter().sum();
    while i < len {
        out += a[i] * b[i];
        i += 1;
    }
    out
}

/// `k`-block size of the small-row [`gemm_nt`] path: two `16 x 128`
/// operand tiles (16 KiB each) fit L1 together.
pub(crate) const NT_K_BLOCK: usize = 128;

/// Most output rows the small-row regime takes.
const NT_SMALL_ROWS: usize = 16;

/// Serial core of [`gemm_nt`] over one contiguous block of output rows.
fn gemm_nt_serial(a: &[f64], b: &[f64], chunk: &mut [f64], row_start: usize, k: usize, n: usize) {
    let rows = chunk.len() / n;
    gemm_nt_core(
        |r| &a[(row_start + r) * k..(row_start + r + 1) * k],
        rows,
        b,
        chunk,
        k,
        n,
    );
}

/// Shared `A · Bᵀ` core, generic over how `A` rows are fetched (a
/// contiguous buffer for [`gemm_nt`], dataset row indices for
/// [`gemm_nt_indexed`] — both produce identical results).
///
/// Two regimes:
/// * **Small row blocks** (minibatch logits): both operands are walked
///   in `[rows x NT_K_BLOCK]` tiles that stay L1-resident together, so
///   each operand is read from L2 exactly once per call instead of once
///   per output row — training throughput is then insensitive to L2/L3
///   bandwidth contention.
/// * **Large row blocks** (evaluation, k-means assignment): one lane-striped
///   dot product per output element; the `B` panel stays cache-resident
///   across rows and `A` streams once.
///
/// Every output element accumulates `k`-blocks in ascending order and
/// each partial is a [`dot_lanes`] reduction, so results are
/// deterministic and identical input rows yield identical outputs.
fn gemm_nt_core<'a>(
    a_row: impl Fn(usize) -> &'a [f64],
    rows: usize,
    b: &[f64],
    c: &mut [f64],
    k: usize,
    n: usize,
) {
    if rows <= NT_SMALL_ROWS && n <= 32 && k > 2 * NT_K_BLOCK {
        #[cfg(target_arch = "x86_64")]
        if simd::active() {
            // SAFETY: `simd::active()` guarantees AVX2+FMA were detected.
            unsafe { simd::gemm_nt_small(&a_row, b, c, k, n) };
            return;
        }
        let mut k0 = 0;
        while k0 < k {
            let k_end = (k0 + NT_K_BLOCK).min(k);
            for (offset, c_row) in c.chunks_mut(n).enumerate() {
                let a_blk = &a_row(offset)[k0..k_end];
                for (j, c_j) in c_row.iter_mut().enumerate() {
                    let partial = dot_lanes(a_blk, &b[j * k + k0..j * k + k_end]);
                    if k0 == 0 {
                        *c_j = partial;
                    } else {
                        *c_j += partial;
                    }
                }
            }
            k0 = k_end;
        }
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if simd::active() {
        // SAFETY: `simd::active()` guarantees AVX2+FMA were detected.
        unsafe { simd::gemm_nt_large(&a_row, rows, b, c, k, n) };
        return;
    }
    for (offset, c_row) in c.chunks_mut(n).enumerate() {
        let row = a_row(offset);
        for (j, c_j) in c_row.iter_mut().enumerate() {
            *c_j = dot_lanes(row, &b[j * k..(j + 1) * k]);
        }
    }
}

/// `(dot_lanes(a, a), dot_lanes(a, b))` from one pass over `a`: the two
/// stripe accumulator sets advance side by side, each lane's chain in
/// the order of [`dot_lanes`]' scalar tier, so both results keep its
/// bits (which the AVX2 tier shares). Written once, for both tiers: the compiler
/// vectorizes the lanes. A search from one row (Algorithm 2's anchor)
/// needs both for every other row.
///
/// # Panics
/// Panics if `a` and `b` differ in length.
pub fn square_and_dot_lanes(a: &[f64], b: &[f64]) -> (f64, f64) {
    assert_eq!(
        a.len(),
        b.len(),
        "square_and_dot_lanes needs equal-length rows"
    );
    let len = a.len();
    let mut squares = [0.0f64; STRIPE];
    let mut dots = [0.0f64; STRIPE];
    let mut i = 0;
    while i + STRIPE <= len {
        let av: &[f64; STRIPE] = a[i..i + STRIPE].try_into().unwrap();
        let bv: &[f64; STRIPE] = b[i..i + STRIPE].try_into().unwrap();
        for l in 0..STRIPE {
            squares[l] = av[l].mul_add(av[l], squares[l]);
            dots[l] = av[l].mul_add(bv[l], dots[l]);
        }
        i += STRIPE;
    }
    (
        finish_lanes_scalar(&squares, a, a),
        finish_lanes_scalar(&dots, a, b),
    )
}

/// Reusable buffers for the batched training/evaluation engine. See the
/// module docs: each thread keeps one, which the local pass and
/// evaluation borrow.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    /// Packed minibatch rows (`B x features`).
    pub x: Matrix,
    /// Logits (`B x classes`).
    pub z: Matrix,
    /// Loss gradient with respect to the logits (`B x classes`).
    pub delta: Matrix,
    /// The shard's row indices in this epoch's shuffled order (local
    /// training).
    pub order: Vec<usize>,
}

impl Scratch {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

thread_local! {
    /// This thread's training and evaluation workspace (see the module
    /// docs).
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Runs `f` in this thread's [`Scratch`]: the one way the local pass and
/// evaluation reach a workspace.
///
/// # Panics
/// Panics if `f` borrows the workspace again.
pub(crate) fn with_scratch<T>(f: impl FnOnce(&mut Scratch) -> T) -> T {
    SCRATCH.with_borrow_mut(f)
}

/// Default empty `Matrix` (used by `Scratch::default`).
impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

/// Dot product of two equal-length slices: one chain of adds from −0.0
/// (where `f64`'s `Sum` starts), left to right. [`dots_and_squares_x4`]
/// reproduces it bit for bit.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// [`dot`]`(row, anchor)` and [`dot`]`(row, row)` for a block of four
/// rows: Algorithm 2's θ inputs for four uploads in one pass.
///
/// A lone [`dot`] is one chain of dependent adds, so it runs at the add
/// latency however fast the loads are. Here the eight chains advance
/// together, each row is read once for both of its dots, and each anchor
/// element loaded serves all four rows. Every chain is still [`dot`]'s
/// own: it starts from −0.0, where `f64`'s `Sum` starts (so an all-zero
/// row against a negative anchor keeps its negative zero), multiplies and
/// then adds, two roundings and never a fused multiply-add, and adds left
/// to right. The results are [`dot`]'s bit patterns, and it allocates
/// nothing.
///
/// # Panics
///
/// When a row's length differs from the anchor's.
pub fn dots_and_squares_x4(rows: [&[f64]; 4], anchor: &[f64]) -> ([f64; 4], [f64; 4]) {
    let n = anchor.len();
    for row in rows {
        assert_eq!(row.len(), n, "a row's length must match the anchor's");
    }
    let mut dots = [-0.0f64; 4];
    let mut squares = [-0.0f64; 4];
    for (k, &a) in anchor.iter().enumerate() {
        for r in 0..4 {
            let x = rows[r][k];
            dots[r] += x * a;
            squares[r] += x * x;
        }
    }
    (dots, squares)
}

/// In-place AXPY: `y += alpha * x` — the SGD update
/// (`params -= lr * grad`) and the bias-gradient column sum. Element-wise multiply *then*
/// add (two roundings, deliberately not fused); the AVX2 tier keeps
/// that shape with `vmulpd` + `vaddpd`, so both tiers agree bit-for-bit
/// on every element.
///
/// Panics, before writing anything, if `x` and `y` differ in length.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy over slices of different lengths");
    #[cfg(target_arch = "x86_64")]
    if simd::active() {
        // SAFETY: `simd::active()` guarantees AVX2+FMA were detected, and
        // the lengths are equal.
        unsafe { simd::axpy(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y);
}

/// Scalar tier of [`axpy`].
#[inline]
pub(crate) fn axpy_scalar(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Scales a slice in place.
pub fn scale(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean (L2) norm.
pub fn l2_norm(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient;
    use proptest::prelude::*;

    /// Element-wise `a + b`.
    fn add(a: &[f64], b: &[f64]) -> Vector {
        a.iter().zip(b).map(|(x, y)| x + y).collect()
    }

    #[test]
    fn zeros_and_from_vec() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.rows, 2);
        assert_eq!(z.cols, 3);
        assert!(z.data.iter().all(|&v| v == 0.0));

        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_length_mismatch_panics() {
        let _ = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_rows_and_row_access() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        assert_eq!(m.rows, 3);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let mut m = m;
        m.row_mut(2)[0] = 50.0;
        assert_eq!(m.get(2, 0), 50.0);
        m.set(0, 0, 9.0);
        assert_eq!(m.get(0, 0), 9.0);
        assert_eq!(Matrix::from_rows::<Vec<f64>>(&[]).rows, 0);
    }

    #[test]
    fn select_rows_reorders() {
        let m = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]);
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.rows, 2);
        assert_eq!(s.row(0), &[3.0]);
        assert_eq!(s.row(1), &[1.0]);
    }

    #[test]
    fn select_rows_into_reuses_allocation() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut out = Matrix::zeros(0, 0);
        m.select_rows_into(&[1, 2], &mut out);
        assert_eq!(out.rows, 2);
        assert_eq!(out.row(0), &[3.0, 4.0]);
        let capacity = out.data.capacity();
        m.select_rows_into(&[0], &mut out);
        assert_eq!(out.rows, 1);
        assert_eq!(out.row(0), &[1.0, 2.0]);
        assert_eq!(out.data.capacity(), capacity, "no reallocation expected");
    }

    /// `A · x` through [`gemm_nt`], `x` as a one-row operand.
    fn times_vector(a: &Matrix, x: &[f64]) -> Vector {
        let mut out = vec![0.0; a.rows];
        gemm_nt(&a.data, x, &mut out, a.rows, a.cols, 1);
        out
    }

    /// `Aᵀ · y` through [`gemm_tn_indexed_step`], `y` as a one-column
    /// operand.
    fn transpose_times_vector(a: &Matrix, y: &[f64]) -> Vector {
        let y = Matrix::from_vec(y.len(), 1, y.to_vec());
        tn(a, &y).data
    }

    #[test]
    fn matvec_small_example() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(times_vector(&m, &[1.0, 1.0]), vec![3.0, 7.0]);
        assert_eq!(transpose_times_vector(&m, &[1.0, 1.0]), vec![4.0, 6.0]);
    }

    #[test]
    fn matvec_many_rows_matches_sequential() {
        // 100 rows fan out over row blocks; each is still one dot product.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|r| (0..8).map(|c| (r * 8 + c) as f64).collect())
            .collect();
        let m = Matrix::from_rows(&rows);
        let x: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect();
        let par = times_vector(&m, &x);
        let seq: Vec<f64> = (0..m.rows).map(|r| dot(m.row(r), &x)).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn blas_like_helpers() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        let mut x = vec![2.0, 4.0];
        scale(0.5, &mut x);
        assert_eq!(x, vec![1.0, 2.0]);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn frobenius_norm_matches_manual() {
        // A matrix's Frobenius norm is the L2 norm of its row-major data.
        let m = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!((l2_norm(&m.data) - 5.0).abs() < 1e-12);
    }

    fn deterministic_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect())
    }

    /// Naive triple loop used as the oracle for the blocked kernels.
    fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows, b.cols);
        for i in 0..a.rows {
            for j in 0..b.cols {
                let mut sum = 0.0;
                for k in 0..a.cols {
                    sum += a.get(i, k) * b.get(k, j);
                }
                c.set(i, j, sum);
            }
        }
        c
    }

    /// The explicit transpose the kernels are checked against.
    fn transpose(m: &Matrix) -> Matrix {
        let mut t = Matrix::zeros(m.cols, m.rows);
        for r in 0..m.rows {
            for c in 0..m.cols {
                t.set(c, r, m.get(r, c));
            }
        }
        t
    }

    /// `A · B` as [`gemm_nt`] against an explicit transpose of `B`.
    fn nn(a: &Matrix, b: &Matrix) -> Matrix {
        nt(a, &transpose(b))
    }

    /// `Aᵀ · B` through the indexed gradient kernel over every row of `B`.
    fn tn(a: &Matrix, b: &Matrix) -> Matrix {
        let rows: Vec<usize> = (0..b.rows).collect();
        let mut c = Matrix::zeros(a.cols, b.cols);
        gemm_tn_indexed_step(&a.data, b, &rows, &mut c.data, a.cols, &SgdStep::UNIT);
        c
    }

    fn nt(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows, b.rows);
        gemm_nt(&a.data, &b.data, &mut c.data, a.rows, a.cols, b.rows);
        c
    }

    fn assert_close(a: &Matrix, b: &Matrix, tolerance: f64) {
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.cols, b.cols);
        for (x, y) in a.data.iter().zip(b.data.iter()) {
            assert!((x - y).abs() < tolerance, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_on_non_square_shapes() {
        for (m, k, n, seed) in [(3, 5, 7, 1), (1, 9, 4, 2), (8, 1, 3, 3), (13, 300, 5, 4)] {
            let a = deterministic_matrix(m, k, seed);
            let b = deterministic_matrix(k, n, seed + 100);
            assert_close(&nn(&a, &b), &matmul_naive(&a, &b), 1e-12);
        }
    }

    #[test]
    fn matmul_transpose_a_matches_explicit_transpose() {
        for (m, k, n, seed) in [(4, 6, 3, 5), (1, 5, 5, 6), (10, 2, 9, 7)] {
            let a = deterministic_matrix(k, m, seed);
            let b = deterministic_matrix(k, n, seed + 200);
            assert_close(&tn(&a, &b), &matmul_naive(&transpose(&a), &b), 1e-12);
        }
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        // Sizes straddle the 4-wide unroll boundary (n = 1, 4, 5, 11).
        for (m, k, n, seed) in [(3, 7, 1, 8), (2, 9, 4, 9), (6, 3, 5, 10), (5, 300, 11, 11)] {
            let a = deterministic_matrix(m, k, seed);
            let b = deterministic_matrix(n, k, seed + 300);
            assert_close(&nt(&a, &b), &matmul_naive(&a, &transpose(&b)), 1e-12);
        }
    }

    #[test]
    fn gemm_kernels_handle_empty_and_degenerate_shapes() {
        let empty = Matrix::zeros(0, 0);
        let c = tn(&empty, &empty);
        assert_eq!((c.rows, c.cols), (0, 0));

        // Empty inner dimension: the result is a zero matrix.
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(0, 4);
        let c = tn(&a, &b);
        assert_eq!((c.rows, c.cols), (3, 4));
        assert!(c.data.iter().all(|&v| v == 0.0));

        // Single row times single column.
        let a = Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]);
        let b = Matrix::from_vec(3, 1, vec![4.0, 5.0, 6.0]);
        let c = tn(&a, &b);
        assert_eq!((c.rows, c.cols), (1, 1));
        assert!((c.get(0, 0) - 32.0).abs() < 1e-12);

        // Transpose kernels on empty inputs.
        let c = tn(&Matrix::zeros(0, 2), &Matrix::zeros(0, 3));
        assert_eq!((c.rows, c.cols), (2, 3));
        assert!(c.data.iter().all(|&v| v == 0.0));
        let c = nt(&Matrix::zeros(0, 5), &Matrix::zeros(0, 5));
        assert_eq!((c.rows, c.cols), (0, 0));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matmul_rejects_mismatched_shapes() {
        let mut c = Matrix::zeros(0, 0);
        matmul_transpose_b_into(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2), &mut c);
    }

    #[test]
    fn into_variants_reuse_allocations() {
        let a = deterministic_matrix(6, 5, 21);
        let b = deterministic_matrix(4, 5, 22);
        let mut c = Matrix::zeros(0, 0);
        matmul_transpose_b_into(&a, &b, &mut c);
        let capacity = c.data.capacity();
        matmul_transpose_b_into(&a, &b, &mut c);
        assert_eq!(c.data.capacity(), capacity);
        assert_close(&c, &matmul_naive(&a, &transpose(&b)), 1e-12);
    }

    #[test]
    fn transpose_round_trip() {
        // `Aᵀ · I` through the gradient kernel is an exact transpose
        // (every other product is a zero), and twice is the identity.
        let identity = |n: usize| {
            let mut id = Matrix::zeros(n, n);
            for i in 0..n {
                id.set(i, i, 1.0);
            }
            id
        };
        let m = deterministic_matrix(4, 7, 31);
        let t = tn(&m, &identity(4));
        assert_eq!(t, transpose(&m));
        assert_eq!(tn(&t, &identity(7)), m);
    }

    /// Checks [`dots_and_squares_x4`] on `rows` against [`dot`], bit for
    /// bit, and the θ it feeds against `gradient::cosine_distance`: an
    /// equal unfloored θ is an equal θ under any floor.
    fn check_x4(rows: [&[f64]; 4], anchor: &[f64]) {
        let (dots, squares) = dots_and_squares_x4(rows, anchor);
        let anchor_norm = l2_norm(anchor);
        for (r, row) in rows.into_iter().enumerate() {
            assert_eq!(dots[r].to_bits(), dot(row, anchor).to_bits(), "row {r} dot");
            assert_eq!(
                squares[r].to_bits(),
                dot(row, row).to_bits(),
                "row {r} square"
            );
            let theta = 1.0 - gradient::cosine_from_parts(dots[r], squares[r].sqrt(), anchor_norm);
            assert_eq!(
                theta.to_bits(),
                gradient::cosine_distance(row, anchor).to_bits(),
                "row {r} θ"
            );
        }
    }

    #[test]
    fn dots_and_squares_x4_keeps_dots_bits_on_committee_rows_and_signed_zeros() {
        // The paper's 7850-parameter model, four uploads against an anchor.
        let m = deterministic_matrix(5, 7850, 37);
        let rows = [m.row(0), m.row(1), m.row(2), m.row(3)];
        check_x4(rows, m.row(4));

        // `f64`'s `Sum` starts from −0.0: an empty chain, and an all-zero
        // row against a negative anchor, sum to −0.0, and so do the
        // kernel's; against a positive anchor the zero is +0.0.
        let (dots, squares) = dots_and_squares_x4([&[]; 4], &[]);
        assert!(dots
            .iter()
            .chain(&squares)
            .all(|d| d.to_bits() == (-0.0f64).to_bits()));
        let zero = [0.0; 3];
        let (dots, squares) = dots_and_squares_x4([&zero; 4], &[-1.0, -2.0, -3.0]);
        assert!(dots.iter().all(|d| d.to_bits() == (-0.0f64).to_bits()));
        assert!(squares.iter().all(|d| d.to_bits() == 0.0f64.to_bits()));
        let (dots, _) = dots_and_squares_x4([&zero; 4], &[1.0, 2.0, 3.0]);
        assert!(dots.iter().all(|d| d.to_bits() == 0.0f64.to_bits()));
    }

    /// Every row length 0..=40, with every subset of the four rows
    /// all-zero (of either sign), against a zero, a negative and a mixed
    /// anchor.
    #[test]
    fn dots_and_squares_x4_keeps_dots_bits_at_every_short_length() {
        for len in 0..=40 {
            let m = deterministic_matrix(5, len, len as u64);
            let anchors = [
                vec![0.0; len],
                m.row(4).iter().map(|v| -v.abs()).collect(),
                m.row(4).to_vec(),
            ];
            for zero_rows in 0..16 {
                for zero in [0.0, -0.0] {
                    let rows: Vec<Vec<f64>> = (0..4)
                        .map(|r| {
                            if zero_rows & (1 << r) != 0 {
                                vec![zero; len]
                            } else {
                                m.row(r).to_vec()
                            }
                        })
                        .collect();
                    for anchor in &anchors {
                        check_x4([&rows[0], &rows[1], &rows[2], &rows[3]], anchor);
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "must match the anchor's")]
    fn dots_and_squares_x4_rejects_a_row_of_another_length() {
        let _ = dots_and_squares_x4([&[1.0], &[1.0], &[1.0, 2.0], &[1.0]], &[1.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn matvec_is_linear(rows in 1usize..20, cols in 1usize..20, seed in any::<u64>()) {
            // Build a deterministic pseudo-random matrix and two vectors.
            let mut state = seed;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let m = Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect());
            let x: Vec<f64> = (0..cols).map(|_| next()).collect();
            let y: Vec<f64> = (0..cols).map(|_| next()).collect();
            let lhs = times_vector(&m, &add(&x, &y));
            let rhs = add(&times_vector(&m, &x), &times_vector(&m, &y));
            for (a, b) in lhs.iter().zip(rhs.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }

        #[test]
        fn transpose_product_adjoint_identity(rows in 1usize..15, cols in 1usize..15, seed in any::<u64>()) {
            // <A x, y> == <x, Aᵀ y>
            let mut state = seed | 1;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let m = Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| next()).collect());
            let x: Vec<f64> = (0..cols).map(|_| next()).collect();
            let y: Vec<f64> = (0..rows).map(|_| next()).collect();
            let lhs = dot(&times_vector(&m, &x), &y);
            let rhs = dot(&x, &transpose_times_vector(&m, &y));
            prop_assert!((lhs - rhs).abs() < 1e-9);
        }

        #[test]
        fn l2_norm_triangle_inequality(a in proptest::collection::vec(-100.0f64..100.0, 1..32)) {
            let b: Vec<f64> = a.iter().map(|v| v * 0.3 + 1.0).collect();
            prop_assert!(l2_norm(&add(&a, &b)) <= l2_norm(&a) + l2_norm(&b) + 1e-9);
        }

        #[test]
        fn gemm_is_associative_with_vectors(m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in any::<u64>()) {
            // (A·B)·x == A·(B·x)
            let a = deterministic_matrix(m, k, seed);
            let b = deterministic_matrix(k, n, seed ^ 0xABCD);
            let mut state = seed ^ 0x1234;
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            };
            let x = Matrix::from_vec(n, 1, (0..n).map(|_| next()).collect());
            let lhs = matmul_naive(&nn(&a, &b), &x);
            let rhs = matmul_naive(&a, &matmul_naive(&b, &x));
            for (p, q) in lhs.data.iter().zip(rhs.data.iter()) {
                prop_assert!((p - q).abs() < 1e-9);
            }
        }
    }
}
