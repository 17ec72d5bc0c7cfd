//! Runtime-dispatched AVX2+FMA kernel tier for the [`crate::tensor`]
//! GEMM family.
//!
//! # Bit-identical by construction
//!
//! Every vector kernel here computes *the same function in the same
//! order* as its scalar counterpart in `tensor.rs` — not an
//! approximately-equal rearrangement. The scalar kernels were written
//! lane-striped from the start (PR 1): each accumulator slot `acc[l]`
//! only ever combines products whose index is congruent to `l` modulo
//! the stripe width, the stripe is folded into `LANES` slots in a
//! fixed order, and the final reduction is a strict left-to-right sum.
//! The AVX2 forms map each group of four `f64` slots onto one `ymm`
//! register and each slot's `mul_add` onto the matching `vfmaddpd`
//! lane, so every intermediate value is produced by the same IEEE
//! operation on the same operands:
//!
//! * a stripe of `STRIPE` = 32 scalar accumulators is exactly eight
//!   `ymm` accumulators `y0..y7`;
//! * the scalar fold `folded[l % LANES] += acc[l]` (ascending `l`) is
//!   exactly `f0 = ((y0 + y2) + y4) + y6` and
//!   `f1 = ((y1 + y3) + y5) + y7`;
//! * the scalar tail (`LANES` at a time) continues on `f0`/`f1` with
//!   one FMA per vector, like the scalar loop continues on `folded`;
//! * the horizontal reduction spills `f0`/`f1` to memory and performs
//!   the same `folded.iter().sum()` the scalar path performs (a
//!   left-to-right chain of eight dependent adds), and the sub-`LANES`
//!   remainder stays plain scalar `out += a[i] * b[i]`.
//!
//! Because the lane-striped accumulators start at `+0.0` and an FMA
//! chain seeded with `+0.0` can never produce `-0.0`, the re-bracketed
//! vector fold cannot even diverge on signed zeros; the proptest suite
//! in `tests/simd_equivalence.rs` pins `to_bits()` equality across
//! arbitrary shapes anyway. The golden run digests from PRs 4–7 hold
//! under both tiers for the same reason — this is the same arithmetic,
//! computed wider.
//!
//! What deliberately *stays scalar*: `softmax_in_place` and the
//! cross-entropy losses call libm's `exp`/`ln`, whose bit patterns a
//! hand-vectorized polynomial cannot reproduce; the row-max fold uses
//! `f64::max` whose NaN/±0 semantics differ from `vmaxpd`; and argmax
//! in `metrics` is a trivial 10-wide scan. Their cost is a rounding
//! error next to the GEMMs, so they keep the one obviously-correct
//! implementation (see the notes in `activation.rs` / `loss.rs` /
//! `metrics.rs`).
//!
//! # Dispatch
//!
//! [`active`] resolves once (first call) from the `BFL_SIMD`
//! environment override and `is_x86_feature_detected!` — the same
//! cached-detection pattern as the SHA-NI dispatch in
//! `bfl-crypto::sha256` — then costs one relaxed atomic load per
//! query. `BFL_SIMD=off` (or `0`, `scalar`) pins the scalar tier (CI
//! runs a full test leg this way); `BFL_SIMD=avx2` asks for the vector
//! tier but still refuses hosts without AVX2+FMA rather than faulting;
//! any other value panics at first resolve, so a mistyped pin cannot
//! pass for the default. Non-x86_64
//! builds compile the scalar tier only and [`active`] is always
//! `false`. AVX-512 is intentionally not a tier: the workspace pins
//! `-C target-feature=-avx512f,...` (see `.cargo/config.toml` and the
//! ROADMAP note) because the fleet hosts downclock or lack 512-bit
//! units, and a 512-bit re-striping would also change the frozen
//! accumulation geometry.

use std::sync::atomic::{AtomicU8, Ordering};

#[cfg(target_arch = "x86_64")]
use crate::tensor::{SgdStep, StepTarget, LANES, NT_K_BLOCK, STRIPE};

const UNRESOLVED: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

/// Resolved dispatch state: one of `UNRESOLVED`/`OFF`/`ON`. A plain
/// atomic (not `OnceLock`) so tests and benches can flip tiers in one
/// process via [`set_enabled`] and worker threads observe the change.
static STATE: AtomicU8 = AtomicU8::new(UNRESOLVED);

/// Returns `true` when the AVX2+FMA tier is dispatched. First call
/// resolves `BFL_SIMD` + hardware detection; later calls are one
/// relaxed atomic load (cheap enough for per-`axpy` queries).
#[inline]
pub fn active() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => resolve_and_cache(),
    }
}

#[cold]
fn resolve_and_cache() -> bool {
    // Asking for `avx2` still never dispatches past missing hardware.
    let on = crate::par::env_override("BFL_SIMD", parse_override) && hardware_supported();
    // Benign race: concurrent first calls resolve to the same value.
    STATE.store(if on { ON } else { OFF }, Ordering::Relaxed);
    on
}

/// Reads a `BFL_SIMD` value: whether the vector tier may be dispatched
/// (subject to the hardware having it).
fn parse_override(value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("avx2") => Ok(true),
        Some("off" | "0" | "scalar") => Ok(false),
        Some(other) => Err(format!(
            "BFL_SIMD={other:?} is not a kernel tier: leave it unset (auto-detect), \
             or set `off`, `0` or `scalar` (portable kernels) or `avx2`"
        )),
    }
}

/// True when the host CPU reports AVX2 and FMA.
pub fn hardware_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Test hook: force the vector tier on or off for the whole process
/// (all threads). Forcing `true` on a host without AVX2+FMA is ignored —
/// the scalar tier stays pinned, never an illegal dispatch. The
/// equivalence suite uses this to compare both tiers in one process.
pub fn set_enabled(on: bool) {
    STATE.store(
        if on && hardware_supported() { ON } else { OFF },
        Ordering::Relaxed,
    );
}

/// Drops any cached or forced decision; the next [`active`] call
/// re-resolves from `BFL_SIMD` + hardware detection.
pub fn reset() {
    STATE.store(UNRESOLVED, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// AVX2 kernels (x86_64 only). Callers must check `active()` first; every
// `unsafe fn` below requires AVX2+FMA, which `active()` guarantees.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use core::arch::x86_64::*;

    /// One lane-striped product stream: runs the `STRIPE`-wide FMA
    /// loop and the `LANES`-wide tail over `a`/`b`, returning the two
    /// folded `ymm` accumulators (`folded[0..4]`, `folded[4..8]`) and
    /// the index where vector coverage stopped (callers finish the
    /// sub-`LANES` remainder in scalar, exactly like `dot_lanes`).
    ///
    /// # Safety
    /// Requires AVX2+FMA; `a.len() == b.len()`. Deliberately carries no
    /// `#[target_feature]` of its own: `#[inline(always)]` (illegal on
    /// featured functions) guarantees the body is compiled inside its
    /// featured caller, so no binary — whatever its LTO partitioning —
    /// can leave a call boundary in the middle of a dot product. Callers
    /// must themselves be `#[target_feature(enable = "avx2,fma")]`.
    #[inline(always)]
    unsafe fn stream_one(a: &[f64], b: &[f64]) -> (__m256d, __m256d, usize) {
        debug_assert_eq!(a.len(), b.len());
        let len = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        // acc[t] holds scalar slots [4t, 4t+4): eight ymm = one STRIPE.
        let mut acc = [_mm256_setzero_pd(); STRIPE / 4];
        let mut i = 0usize;
        while i + STRIPE <= len {
            for (t, slot) in acc.iter_mut().enumerate() {
                let av = _mm256_loadu_pd(ap.add(i + 4 * t));
                let bv = _mm256_loadu_pd(bp.add(i + 4 * t));
                *slot = _mm256_fmadd_pd(av, bv, *slot);
            }
            i += STRIPE;
        }
        fold_tail(&acc, a, b)
    }

    /// The stripe's fold and the `LANES`-wide tail of [`stream_one`],
    /// from accumulators holding every whole stripe of `a`/`b`.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `a.len() == b.len()`. See `stream_one` for why
    /// there is no `#[target_feature]` here.
    #[inline(always)]
    unsafe fn fold_tail(
        acc: &[__m256d; STRIPE / 4],
        a: &[f64],
        b: &[f64],
    ) -> (__m256d, __m256d, usize) {
        let len = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut i = len / STRIPE * STRIPE;
        // Scalar fold order `folded[l % LANES] += acc[l]`, ascending l:
        // lane j gathers acc[j], acc[j+8], acc[j+16], acc[j+24].
        let mut f0 = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(acc[0], acc[2]), acc[4]), acc[6]);
        let mut f1 = _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(acc[1], acc[3]), acc[5]), acc[7]);
        while i + LANES <= len {
            f0 = _mm256_fmadd_pd(_mm256_loadu_pd(ap.add(i)), _mm256_loadu_pd(bp.add(i)), f0);
            f1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(ap.add(i + 4)),
                _mm256_loadu_pd(bp.add(i + 4)),
                f1,
            );
            i += LANES;
        }
        (f0, f1, i)
    }

    /// Horizontal reduction of one folded pair: spills to memory and
    /// performs the scalar path's literal `folded.iter().sum()`.
    ///
    /// # Safety
    /// Requires AVX2; see `stream_one` for why there is no
    /// `#[target_feature]` here.
    #[inline(always)]
    unsafe fn hsum1(f0: __m256d, f1: __m256d) -> f64 {
        let mut folded = [0.0f64; LANES];
        _mm256_storeu_pd(folded.as_mut_ptr(), f0);
        _mm256_storeu_pd(folded.as_mut_ptr().add(4), f1);
        folded.iter().sum()
    }

    /// Horizontal reduction of four folded pairs at once: a 4x4
    /// register transpose turns lane `l` of each output into one ymm,
    /// then seven lane-wise adds reproduce each output's left-to-right
    /// `folded[0] + folded[1] + … + folded[7]` chain bit-for-bit while
    /// amortizing the serial-add latency across four dot products.
    ///
    /// # Safety
    /// Requires AVX2; see `stream_one` for why there is no
    /// `#[target_feature]` here.
    #[inline(always)]
    unsafe fn hsum4(p: &[(__m256d, __m256d); 4]) -> [f64; 4] {
        let t0 = _mm256_unpacklo_pd(p[0].0, p[1].0);
        let t1 = _mm256_unpackhi_pd(p[0].0, p[1].0);
        let t2 = _mm256_unpacklo_pd(p[2].0, p[3].0);
        let t3 = _mm256_unpackhi_pd(p[2].0, p[3].0);
        let l0 = _mm256_permute2f128_pd(t0, t2, 0x20);
        let l1 = _mm256_permute2f128_pd(t1, t3, 0x20);
        let l2 = _mm256_permute2f128_pd(t0, t2, 0x31);
        let l3 = _mm256_permute2f128_pd(t1, t3, 0x31);
        let u0 = _mm256_unpacklo_pd(p[0].1, p[1].1);
        let u1 = _mm256_unpackhi_pd(p[0].1, p[1].1);
        let u2 = _mm256_unpacklo_pd(p[2].1, p[3].1);
        let u3 = _mm256_unpackhi_pd(p[2].1, p[3].1);
        let l4 = _mm256_permute2f128_pd(u0, u2, 0x20);
        let l5 = _mm256_permute2f128_pd(u1, u3, 0x20);
        let l6 = _mm256_permute2f128_pd(u0, u2, 0x31);
        let l7 = _mm256_permute2f128_pd(u1, u3, 0x31);
        // Same association as the scalar sum: ((((((l0+l1)+l2)+l3)+l4)+l5)+l6)+l7.
        let mut s = _mm256_add_pd(l0, l1);
        s = _mm256_add_pd(s, l2);
        s = _mm256_add_pd(s, l3);
        s = _mm256_add_pd(s, l4);
        s = _mm256_add_pd(s, l5);
        s = _mm256_add_pd(s, l6);
        s = _mm256_add_pd(s, l7);
        let mut out = [0.0f64; 4];
        _mm256_storeu_pd(out.as_mut_ptr(), s);
        out
    }

    /// AVX2 `crate::tensor::dot_lanes`: identical stripe, fold, tail,
    /// and remainder order — see the module docs.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `a.len() == b.len()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot(a: &[f64], b: &[f64]) -> f64 {
        let (f0, f1, i) = stream_one(a, b);
        reduce_rest(f0, f1, a, b, i)
    }

    /// The end of [`dot`] after the tail: `hsum1`, then the sub-`LANES`
    /// remainder from `i` on in plain scalar.
    ///
    /// # Safety
    /// Requires AVX2; `a.len() == b.len()`. See `stream_one` for why
    /// there is no `#[target_feature]` here.
    #[inline(always)]
    unsafe fn reduce_rest(f0: __m256d, f1: __m256d, a: &[f64], b: &[f64], mut i: usize) -> f64 {
        let mut out = hsum1(f0, f1);
        while i < a.len() {
            out += a[i] * b[i];
            i += 1;
        }
        out
    }

    /// AVX2 large-row `A · Bᵀ` regime (evaluation logits, k-means
    /// point-to-centroid products): the per-element dot is [`dot`],
    /// unchanged; the only vector-tier addition is an output-row tile
    /// with `j` innermost, so each `B` row is touched once per tile
    /// instead of once per output row — on long-row shapes (`B` panel
    /// ≫ L2) that divides the dominant memory traffic. Pure loop interchange over independent
    /// output elements: bit-identity is structural.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `a_row(r).len() == k` for `r < rows`,
    /// `b.len() == n * k`, `c.len() == rows * n`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_nt_large<'a>(
        a_row: &impl Fn(usize) -> &'a [f64],
        rows: usize,
        b: &[f64],
        c: &mut [f64],
        k: usize,
        n: usize,
    ) {
        // Tile depth by `A`-row footprint: short rows (evaluation
        // logits) keep the whole tile plus one `B` row L1-resident, so
        // a shallow tile avoids thrashing; long rows (model parameter
        // vectors, 63 KiB/row) never fit L1 anyway and the tile only exists to
        // divide how often the `B` panel streams from L2/L3 — go deep.
        let tile = if k * 8 > 24 * 1024 { 16 } else { 4 };
        let mut r0 = 0usize;
        while r0 < rows {
            let r_end = (r0 + tile).min(rows);
            for j in 0..n {
                let b_j = &b[j * k..(j + 1) * k];
                for r in r0..r_end {
                    c[r * n + j] = dot(a_row(r), b_j);
                }
            }
            r0 = r_end;
        }
    }

    /// AVX2 small-row `A · Bᵀ` regime (minibatch logits): same
    /// `NT_K_BLOCK` blocking and per-block partial accumulation as
    /// the scalar path (`c_j = partial` on the first block, `+=` on
    /// later ones), with one vector-tier addition: four `j` outputs
    /// stream per pass and share one `hsum4` transpose-reduction, so
    /// the eight-add horizontal chain — the dominant latency at 128-wide
    /// blocks — is paid once per four outputs instead of per output.
    /// Each output's partial value is still produced by the identical
    /// stripe/fold/tail/remainder sequence.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `a_row(r).len() == k` for every output row
    /// `r`, `b.len() == n * k`, `c.len()` a multiple of `n`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn gemm_nt_small<'a>(
        a_row: &impl Fn(usize) -> &'a [f64],
        b: &[f64],
        c: &mut [f64],
        k: usize,
        n: usize,
    ) {
        let mut k0 = 0usize;
        while k0 < k {
            let k_end = (k0 + NT_K_BLOCK).min(k);
            for (offset, c_row) in c.chunks_mut(n).enumerate() {
                let a_blk = &a_row(offset)[k0..k_end];
                let blk = k_end - k0;
                let mut j = 0usize;
                while j + 4 <= n {
                    let b_blk = |t: usize| &b[(j + t) * k + k0..(j + t) * k + k_end];
                    let s0 = stream_one(a_blk, b_blk(0));
                    let s1 = stream_one(a_blk, b_blk(1));
                    let s2 = stream_one(a_blk, b_blk(2));
                    let s3 = stream_one(a_blk, b_blk(3));
                    let rem = s0.2;
                    let sums = hsum4(&[(s0.0, s0.1), (s1.0, s1.1), (s2.0, s2.1), (s3.0, s3.1)]);
                    for (t, &head) in sums.iter().enumerate() {
                        let mut partial = head;
                        let b_t = b_blk(t);
                        for i in rem..blk {
                            partial += a_blk[i] * b_t[i];
                        }
                        let c_j = &mut c_row[j + t];
                        if k0 == 0 {
                            *c_j = partial;
                        } else {
                            *c_j += partial;
                        }
                    }
                    j += 4;
                }
                while j < n {
                    let partial = dot(a_blk, &b[j * k + k0..j * k + k_end]);
                    let c_j = &mut c_row[j];
                    if k0 == 0 {
                        *c_j = partial;
                    } else {
                        *c_j += partial;
                    }
                    j += 1;
                }
            }
            k0 = k_end;
        }
    }

    /// [`SgdStep::apply`] on four lanes: parameters `at..at + 4` of `c`
    /// stepped by the finished gradient elements in `g`, with the scalar
    /// form's operations — `vsubpd`, `vmulpd`, `vaddpd` for the pull,
    /// `vmulpd` then `vaddpd` for the step — and **not** FMA, which would
    /// change results.
    ///
    /// # Safety
    /// Requires AVX2; `at + 4 <= c.source().len()`, and the anchor of a
    /// proximal step is as long as `c`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn step_lanes(step: &SgdStep, c: &mut impl StepTarget, at: usize, g: __m256d) {
        debug_assert!(at + 4 <= c.source().len());
        let (from, to) = c.lanes();
        let wv = _mm256_loadu_pd(from.add(at));
        let g = match step.proximal {
            Some((mu_b, anchor)) => {
                let pull = _mm256_sub_pd(wv, _mm256_loadu_pd(anchor.as_ptr().add(at)));
                _mm256_add_pd(g, _mm256_mul_pd(_mm256_set1_pd(mu_b), pull))
            }
            None => g,
        };
        let stepped = _mm256_add_pd(wv, _mm256_mul_pd(_mm256_set1_pd(step.alpha), g));
        // SAFETY: `to` is valid for writes of `c.source().len()` elements
        // (`StepTarget::lanes`) and `at + 4` is within them. For a fresh
        // target it is its `MaybeUninit` buffer cast to `*mut f64`: the
        // store initialises these four elements and forms no reference.
        _mm256_storeu_pd(to.add(at), stepped);
    }

    /// AVX2 register tile of `tensor::gemm_tn_indexed_step`, generic over
    /// how `B` rows are fetched — the mirror of its scalar body. Four
    /// output rows × `LANES` columns advance together from zeroed
    /// accumulators; each scalar `[f64; LANES]` accumulator is two ymm,
    /// each broadcast `a_col[r].mul_add(bv[l], acc[l])` is one
    /// `vbroadcastsd` + two `vfmaddpd`, and the sample (`k`) loop order is
    /// unchanged, so every element accumulates its `k` contributions in
    /// the reference order before `step_lanes` steps `c` by it.
    /// Sub-`LANES` column tails and sub-4-row remainders run the scalar
    /// body's literal tail code.
    ///
    /// # Safety
    /// Requires AVX2+FMA; `a.len() == k * m`, `b_row(kk).len() >= n`
    /// for `kk < k`, `c.source().len() == m * n`, and the anchor of a
    /// proximal `step` is as long as `c`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub(crate) unsafe fn gemm_tn<'a>(
        a: &[f64],
        b_row: &impl Fn(usize) -> &'a [f64],
        c: &mut impl StepTarget,
        k: usize,
        m: usize,
        n: usize,
        step: &SgdStep,
    ) {
        let mut r = 0usize;
        while r + 4 <= m {
            let mut j = 0usize;
            while j + LANES <= n {
                let (mut a0l, mut a0h) = (_mm256_setzero_pd(), _mm256_setzero_pd());
                let (mut a1l, mut a1h) = (_mm256_setzero_pd(), _mm256_setzero_pd());
                let (mut a2l, mut a2h) = (_mm256_setzero_pd(), _mm256_setzero_pd());
                let (mut a3l, mut a3h) = (_mm256_setzero_pd(), _mm256_setzero_pd());
                for kk in 0..k {
                    let brow = b_row(kk);
                    let bl = _mm256_loadu_pd(brow.as_ptr().add(j));
                    let bh = _mm256_loadu_pd(brow.as_ptr().add(j + 4));
                    let a_col = a.as_ptr().add(kk * m + r);
                    let w0 = _mm256_broadcast_sd(&*a_col);
                    a0l = _mm256_fmadd_pd(w0, bl, a0l);
                    a0h = _mm256_fmadd_pd(w0, bh, a0h);
                    let w1 = _mm256_broadcast_sd(&*a_col.add(1));
                    a1l = _mm256_fmadd_pd(w1, bl, a1l);
                    a1h = _mm256_fmadd_pd(w1, bh, a1h);
                    let w2 = _mm256_broadcast_sd(&*a_col.add(2));
                    a2l = _mm256_fmadd_pd(w2, bl, a2l);
                    a2h = _mm256_fmadd_pd(w2, bh, a2h);
                    let w3 = _mm256_broadcast_sd(&*a_col.add(3));
                    a3l = _mm256_fmadd_pd(w3, bl, a3l);
                    a3h = _mm256_fmadd_pd(w3, bh, a3h);
                }
                for (q, (lo, hi)) in [(a0l, a0h), (a1l, a1h), (a2l, a2h), (a3l, a3h)]
                    .into_iter()
                    .enumerate()
                {
                    let at = (r + q) * n + j;
                    step_lanes(step, c, at, lo);
                    step_lanes(step, c, at + 4, hi);
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
        // Two remainder rows fuse into one pass over `B` (the scalar
        // body takes them one at a time; per-element accumulation order
        // is unchanged, only which pass computes each row).
        if r + 2 <= m {
            let mut j = 0usize;
            while j + LANES <= n {
                let (mut a0l, mut a0h) = (_mm256_setzero_pd(), _mm256_setzero_pd());
                let (mut a1l, mut a1h) = (_mm256_setzero_pd(), _mm256_setzero_pd());
                for kk in 0..k {
                    let brow = b_row(kk);
                    let bl = _mm256_loadu_pd(brow.as_ptr().add(j));
                    let bh = _mm256_loadu_pd(brow.as_ptr().add(j + 4));
                    let a_col = a.as_ptr().add(kk * m + r);
                    let w0 = _mm256_broadcast_sd(&*a_col);
                    a0l = _mm256_fmadd_pd(w0, bl, a0l);
                    a0h = _mm256_fmadd_pd(w0, bh, a0h);
                    let w1 = _mm256_broadcast_sd(&*a_col.add(1));
                    a1l = _mm256_fmadd_pd(w1, bl, a1l);
                    a1h = _mm256_fmadd_pd(w1, bh, a1h);
                }
                for (q, (lo, hi)) in [(a0l, a0h), (a1l, a1h)].into_iter().enumerate() {
                    let at = (r + q) * n + j;
                    step_lanes(step, c, at, lo);
                    step_lanes(step, c, at + 4, hi);
                }
                j += LANES;
            }
            while j < n {
                let (mut s0, mut s1) = (0.0, 0.0);
                for kk in 0..k {
                    let b_j = b_row(kk)[j];
                    let a_col = &a[kk * m + r..kk * m + r + 2];
                    s0 += a_col[0] * b_j;
                    s1 += a_col[1] * b_j;
                }
                step.apply(c, r * n + j, s0);
                step.apply(c, (r + 1) * n + j, s1);
                j += 1;
            }
            r += 2;
        }
        while r < m {
            let mut j = 0usize;
            while j + LANES <= n {
                let (mut al, mut ah) = (_mm256_setzero_pd(), _mm256_setzero_pd());
                for kk in 0..k {
                    let brow = b_row(kk);
                    let w = _mm256_broadcast_sd(&a[kk * m + r]);
                    al = _mm256_fmadd_pd(w, _mm256_loadu_pd(brow.as_ptr().add(j)), al);
                    ah = _mm256_fmadd_pd(w, _mm256_loadu_pd(brow.as_ptr().add(j + 4)), ah);
                }
                step_lanes(step, c, r * n + j, al);
                step_lanes(step, c, r * n + j + 4, ah);
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

    /// AVX2 `y += alpha * x`. The scalar form is a separate multiply
    /// then add (`*yi += alpha * xi`, two roundings), so this uses
    /// `vmulpd` + `vaddpd` — **not** FMA, which would change results.
    /// Element-wise with no cross-lane reduction, so vector width
    /// cannot reorder anything.
    ///
    /// # Safety
    /// Requires AVX2; `x.len() == y.len()`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
        let len = x.len();
        let av = _mm256_broadcast_sd(&alpha);
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let mut i = 0usize;
        while i + LANES <= len {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
            );
            let y1 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i + 4)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i + 4))),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            _mm256_storeu_pd(yp.add(i + 4), y1);
            i += LANES;
        }
        if i + 4 <= len {
            let y0 = _mm256_add_pd(
                _mm256_loadu_pd(yp.add(i)),
                _mm256_mul_pd(av, _mm256_loadu_pd(xp.add(i))),
            );
            _mm256_storeu_pd(yp.add(i), y0);
            i += 4;
        }
        while i < len {
            y[i] += alpha * x[i];
            i += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::gemm_tn;
#[cfg(target_arch = "x86_64")]
pub use avx2::{axpy, dot, gemm_nt_large, gemm_nt_small};

#[cfg(test)]
mod tests {
    use super::parse_override;

    #[test]
    fn override_is_unset_or_one_of_the_named_tiers() {
        assert_eq!(parse_override(None), Ok(true));
        assert_eq!(parse_override(Some("avx2")), Ok(true));
        for scalar in ["off", "0", "scalar"] {
            assert_eq!(parse_override(Some(scalar)), Ok(false));
        }
        for bad in [
            "", "Off", "OFF", "false", "1x", "1", "avx512", " off", "\u{fffd}",
        ] {
            let message = parse_override(Some(bad)).unwrap_err();
            assert!(message.contains("BFL_SIMD"), "{message}");
            assert!(message.contains(&format!("{bad:?}")), "{message}");
            for accepted in ["unset", "`off`", "`0`", "`scalar`", "`avx2`"] {
                assert!(message.contains(accepted), "{message}");
            }
        }
    }
}
