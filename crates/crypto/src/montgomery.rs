//! Montgomery (REDC) modular arithmetic.
//!
//! Every RSA sign/verify and every Miller-Rabin witness is a modular
//! exponentiation, and the seed implementation reduced each intermediate
//! product with a full division. Montgomery multiplication replaces that
//! division with two multiplications and a shift: operands are mapped
//! into the residue representation `aR mod n` (with `R = 2^(64k)` for a
//! `k`-limb modulus), where products reduce by the REDC interleaved
//! multiply-accumulate (CIOS) using only the precomputed single-limb
//! inverse `n' = -n^{-1} mod 2^64`.
//!
//! [`MontgomeryCtx`] carries the per-modulus precomputation (`n'` and
//! `R^2 mod n`) and implements fixed 4-bit-window exponentiation whose
//! inner loop is allocation-free: the window table is built once per
//! exponentiation and every multiply writes through the buffers of a
//! [`MontWorkspace`]. The CIOS words are the 64-bit limbs of
//! [`BigUint`], with `u128` multiply-accumulates. Loading a value of any
//! width reduces it on the way in by Horner's rule over `k`-limb blocks
//! ([`MontgomeryCtx::load`]), so no load divides or allocates:
//! a 32-byte digest enters the context of a 64-bit prime as directly as
//! it enters that of a 1024-bit modulus.
//!
//! There is one exponentiation path: [`MontgomeryCtx::prepare`] fits a
//! workspace to the context, [`MontgomeryCtx::load`] (or
//! [`MontgomeryCtx::load_bytes_be`]) brings the base in,
//! [`MontgomeryCtx::pow_in_place`] raises it, and
//! [`MontgomeryCtx::recover_value`] brings the result out — or, as
//! verification does, [`MontgomeryCtx::value_equals_stash`] compares two
//! images without leaving the domain. RSA signing and verification and
//! every Miller-Rabin witness run that chain; its oracle is
//! [`BigUint::modpow_reference`], which no production path calls.
//!
//! ## Fixed-width kernel
//!
//! The limb counts the simulation actually runs — 2 and 4 (the CRT primes
//! and moduli of 256-bit keys), 8 and 16 (the same for 1024-bit keys,
//! and the primes of 2048-bit ones) — dispatch to one const-generic
//! multiply, `mul_fixed`: the trip counts are compile-time constants,
//! the accumulator is a stack array the compiler keeps in registers (or
//! spills without bounds checks at 16 limbs), the final conditional
//! subtract is a select instead of a branch, and no scratch slice is
//! walked. Every other width runs the generic CIOS slice loop, which is
//! also the oracle the fixed kernel is tested against limb for limb: a
//! Montgomery product of reduced operands is a unique residue, so the two
//! can only agree or be wrong. A squaring at any width is the multiply of
//! a value by itself. No workload builds a context at a generic width:
//! 256-bit keys run at 4 limbs and 1024-bit keys at 16, their CRT primes
//! and keygen candidates at 2 and 8.
//!
//! Building a context costs one full division (`R^2 mod n`), which is
//! why the RSA key types ([`crate::rsa`]) cache one context per key
//! instead of rebuilding it on every sign/verify.
//!
//! Montgomery reduction requires an odd modulus above one;
//! [`MontgomeryCtx::new`] returns `None` otherwise. RSA keys refuse such
//! a modulus when they are built, so every key has a context.

use crate::bigint::{limb_of_bytes_be, BigUint};

/// Bits per limb window processed by the fixed-window exponentiation.
const WINDOW_BITS: usize = 4;
/// Size of the window table (`2^WINDOW_BITS`).
const TABLE_LEN: usize = 1 << WINDOW_BITS;
/// Exponents at or below this bit length skip the window table: the
/// table build costs `TABLE_LEN - 2` multiplies, which a short (or
/// sparse, like 65537) exponent never earns back.
const SHORT_EXPONENT_BITS: usize = 64;

/// Per-modulus Montgomery precomputation: the modulus limbs, the negated
/// single-limb inverse `n' = -n^{-1} mod 2^64`, and `R^2 mod n` used to
/// map values into the Montgomery domain.
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    /// Modulus limbs, little-endian, length `k`.
    n: Vec<u64>,
    /// `-n^{-1} mod 2^64`.
    n0_inv: u64,
    /// `R^2 mod n` where `R = 2^(64k)`, as `k` limbs.
    r2: Vec<u64>,
}

/// Reusable buffers for a sequence of Montgomery operations against one
/// context: the CIOS scratch, a swap buffer, the fixed-window table, and
/// the current working element. Allocated once (all sizes are functions
/// of the context's limb count `k`), then shared by every
/// load/pow/square in a chain — Miller-Rabin drives its whole witness
/// sequence through one workspace with zero per-operation allocation.
#[derive(Debug, Default)]
pub struct MontWorkspace {
    /// `2k + 2` limbs: the generic CIOS multiply's accumulator (`k + 2`)
    /// and, above it, a block's image in [`MontgomeryCtx::load`] (the
    /// only use the fixed-width kernel has for it).
    scratch: Vec<u64>,
    /// Swap target for in-place multiplies, `k` limbs.
    tmp: Vec<u64>,
    /// Flat window table, grown on first use by [`MontgomeryCtx::pow_in_place`]
    /// (`k` limbs for short exponents, `(TABLE_LEN - 1) * k` for the
    /// windowed path; entry `i` holds `base^(i+1)`). Starts empty so
    /// the short-exponent verify path never pays for the full table.
    table: Vec<u64>,
    /// The current working element, `k` limbs.
    value: Vec<u64>,
    /// Parking slot for [`MontgomeryCtx::stash_value`], `k` limbs once
    /// used. Lets a chain compare two computed elements (e.g. a verify
    /// comparing `s^e` against the loaded digest) without allocating.
    hold: Vec<u64>,
}

impl MontWorkspace {
    /// An empty workspace with no buffers allocated. It must be fitted to
    /// a context with [`MontgomeryCtx::prepare`] before use — the batch
    /// verification paths create one workspace up front and re-fit it as
    /// they walk keys of possibly different widths.
    pub fn new() -> Self {
        Self::default()
    }

    /// The working element's limbs (a Montgomery-domain residue).
    pub(crate) fn value(&self) -> &[u64] {
        &self.value
    }
}

impl MontgomeryCtx {
    /// Builds a context for `modulus`. Returns `None` unless the modulus
    /// is odd and greater than one (REDC requires `gcd(n, 2^64) = 1`).
    pub fn new(modulus: &BigUint) -> Option<Self> {
        if modulus.is_even() || modulus.is_one() || modulus.is_zero() {
            return None;
        }
        let n = modulus.limbs().to_vec();
        let k = n.len();
        // Newton's iteration doubles correct low bits each step: an odd
        // word is its own inverse modulo 8, and six steps lift those
        // three correct bits past 64.
        let mut inv: u64 = n[0];
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n[0].wrapping_mul(inv)));
        }
        debug_assert_eq!(n[0].wrapping_mul(inv), 1);
        let n0_inv = inv.wrapping_neg();

        // R^2 mod n = 2^(128k) mod n; one division at setup time.
        let r2 = BigUint::one().shl(128 * k).div_rem(modulus).1;
        let mut r2_limbs = r2.limbs().to_vec();
        r2_limbs.resize(k, 0);
        Some(MontgomeryCtx {
            n,
            n0_inv,
            r2: r2_limbs,
        })
    }

    /// Number of limbs in the modulus.
    pub(crate) fn k(&self) -> usize {
        self.n.len()
    }

    /// The modulus as a `BigUint`.
    pub fn modulus(&self) -> BigUint {
        BigUint::from_limbs(self.n.clone())
    }

    /// Fits `ws` to this context, reallocating only when the limb count
    /// actually changed. This is what lets one workspace serve a whole
    /// batch of keys: the batched verification paths call `prepare` per
    /// key and pay nothing when consecutive keys share a width (every
    /// simulation key at one `modulus_bits` does), and one thread-local
    /// workspace serve both CRT halves of every signature a thread makes
    /// (see [`crate::rsa`]).
    pub fn prepare(&self, ws: &mut MontWorkspace) {
        let k = self.k();
        if ws.value.len() != k {
            ws.value.clear();
            ws.value.resize(k, 0);
            ws.tmp.clear();
            ws.tmp.resize(k, 0);
            ws.hold.clear();
            ws.hold.resize(k, 0);
            ws.table.clear();
        }
        if ws.scratch.len() < 2 * k + 2 {
            ws.scratch.clear();
            ws.scratch.resize(2 * k + 2, 0);
        }
    }

    /// Parks the working element in the workspace's hold slot (swapping
    /// with whatever was parked there), so a second chain — for example
    /// loading a comparison target — can run without clobbering it.
    pub fn stash_value(&self, ws: &mut MontWorkspace) {
        let k = self.k();
        if ws.hold.len() != k {
            ws.hold.clear();
            ws.hold.resize(k, 0);
        }
        std::mem::swap(&mut ws.value, &mut ws.hold);
    }

    /// Whether the working element equals the last [`Self::stash_value`]d
    /// element. Both are Montgomery-domain residues of this context, and
    /// the domain map is a bijection, so this compares the underlying
    /// residues.
    pub fn value_equals_stash(&self, ws: &MontWorkspace) -> bool {
        ws.value == ws.hold
    }

    /// Loads `a`, of any width, into the workspace's working element: the
    /// Montgomery image `aR mod n` of its residue, with no division and no
    /// allocation.
    ///
    /// The input is read as `k`-limb blocks `B_j` (`a = Σ B_j R^j`) and
    /// folded from the top by Horner's rule in the Montgomery domain:
    /// `acc ← REDC(acc · r2) + REDC(B_j · r2) mod n`, the first product
    /// being the image of `acc · R` and the second that of `B_j`. A block
    /// may exceed `n`: the CIOS accumulator bound (`t < b + n`) depends
    /// only on the multiplicand `r2 < n`, never on the scanned operand, so
    /// the conversion multiply reduces any `k`-limb block exactly. An
    /// input of at most `k` limbs is one multiply.
    pub fn load(&self, a: &BigUint, ws: &mut MontWorkspace) {
        self.load_limbs(a.limbs(), ws);
    }

    /// Loads a big-endian byte string — a digest, a signature — into the
    /// working element, reducing it modulo `n` on the way as
    /// [`Self::load`] does.
    pub fn load_bytes_be(&self, bytes: &[u8], ws: &mut MontWorkspace) {
        self.load_wide(bytes.len().div_ceil(8), |i| limb_of_bytes_be(bytes, i), ws);
    }

    /// [`Self::load`] of an integer given as little-endian limbs.
    pub(crate) fn load_limbs(&self, limbs: &[u64], ws: &mut MontWorkspace) {
        self.load_wide(limbs.len(), |i| limbs[i], ws);
    }

    /// [`Self::load`] of the `len`-limb integer read through `limb`.
    fn load_wide(&self, len: usize, limb: impl Fn(usize) -> u64, ws: &mut MontWorkspace) {
        let k = self.k();
        let MontWorkspace {
            scratch,
            tmp,
            value,
            ..
        } = ws;
        // The generic loops' accumulator is `scratch[..k + 2]`; the spare
        // upper half holds one block's image.
        let (scratch, image) = scratch.split_at_mut(k + 2);
        let image = &mut image[..k];
        let block = |j: usize, into: &mut [u64]| {
            for (t, slot) in into.iter_mut().enumerate() {
                let i = j * k + t;
                *slot = if i < len { limb(i) } else { 0 };
            }
        };
        let blocks = len.div_ceil(k).max(1);
        block(blocks - 1, tmp);
        self.mul_into(tmp, &self.r2, scratch, value);
        for j in (0..blocks - 1).rev() {
            block(j, tmp);
            self.mul_into(tmp, &self.r2, scratch, image);
            self.mul_into(value, &self.r2, scratch, tmp);
            add_mod(tmp, image, &self.n, value);
        }
    }

    /// Squares the workspace's working element in place.
    pub fn square_in_place(&self, ws: &mut MontWorkspace) {
        let MontWorkspace {
            scratch,
            tmp,
            value,
            ..
        } = ws;
        self.square_into(value, scratch, tmp);
        std::mem::swap(value, tmp);
    }

    /// The working element mapped back to an ordinary residue: one
    /// Montgomery multiply by `1` through the workspace's own buffers, so
    /// the returned `BigUint` is the only allocation.
    pub fn recover_value(&self, ws: &mut MontWorkspace) -> BigUint {
        let mut out = vec![0u64; self.k()];
        self.recover_into(ws, &mut out);
        BigUint::from_limbs(out)
    }

    /// Writes the working element, mapped back to an ordinary residue, to
    /// `out` (`k` limbs): one Montgomery multiply by `1` through the
    /// workspace's own buffers.
    pub(crate) fn recover_into(&self, ws: &mut MontWorkspace, out: &mut [u64]) {
        let MontWorkspace {
            scratch,
            tmp,
            value,
            ..
        } = ws;
        tmp.fill(0);
        tmp[0] = 1;
        self.mul_into(value, tmp, scratch, out);
    }

    /// Garner's coefficient for CRT signing, with `self` the context of
    /// the prime `p`: writes `h = q_inv · (s_p − s_q) mod p` to `h` (`k`
    /// limbs). `s_p` is the `p`-half's result still in this context's
    /// Montgomery domain; `s_q` and `q_inv` are plain little-endian limbs
    /// of any width, reduced modulo `p` by [`Self::load_limbs`] (the `q`
    /// half's result may be wider than `p`). Runs in `ws` (re-fitted to
    /// this context first) and allocates nothing.
    ///
    /// The difference stays in the Montgomery domain and so does the
    /// product with `q_inv`'s image; one recover multiply brings `h` out.
    pub(crate) fn garner_coefficient(
        &self,
        s_p: &[u64],
        s_q: &[u64],
        q_inv: &[u64],
        ws: &mut MontWorkspace,
        h: &mut [u64],
    ) {
        self.prepare(ws);
        self.load_limbs(q_inv, ws);
        self.stash_value(ws);
        self.load_limbs(s_q, ws);
        let MontWorkspace {
            scratch,
            tmp,
            value,
            hold,
            ..
        } = ws;
        sub_mod(s_p, value, &self.n, tmp);
        self.mul_into(tmp, hold, scratch, value);
        self.recover_into(ws, h);
    }

    /// Exponentiation in the Montgomery domain, in place:
    /// `ws.value = ws.value^exponent`.
    ///
    /// Long exponents (private/CRT exponents, Miller-Rabin's `d`) use
    /// fixed 4-bit windows: the table (`base^0 .. base^15`) is built
    /// once, then four squarings and at most one table multiply per
    /// window. Short exponents — above all the RSA public exponent
    /// 65537 on the verify path — cannot amortize the 14-multiply table
    /// build, so they run plain left-to-right square-and-multiply (one
    /// multiply per set bit). Both loops go through the workspace's
    /// table, scratch and swap buffers, reused across calls; no
    /// allocation per step.
    pub fn pow_in_place(&self, exponent: &BigUint, ws: &mut MontWorkspace) {
        let k = self.k();
        if exponent.is_zero() {
            self.load_limbs(&[1], ws);
            return;
        }
        let bits = exponent.bit_len();
        let table_limbs = if bits <= SHORT_EXPONENT_BITS {
            k
        } else {
            (TABLE_LEN - 1) * k
        };
        if ws.table.len() < table_limbs {
            ws.table.resize(table_limbs, 0);
        }
        let MontWorkspace {
            scratch,
            tmp,
            table,
            value,
            ..
        } = ws;

        if bits <= SHORT_EXPONENT_BITS {
            // The base lives in the table's first slot so `value` can be
            // squared in place over it.
            table[..k].copy_from_slice(value);
            for i in (0..bits - 1).rev() {
                self.square_into(value, scratch, tmp);
                std::mem::swap(value, tmp);
                if exponent.bit(i) {
                    self.mul_into(value, &table[..k], scratch, tmp);
                    std::mem::swap(value, tmp);
                }
            }
            return;
        }

        // table[i] = base^(i+1) in the Montgomery domain; digit 0 never
        // multiplies, so base^0 needs no entry.
        table[..k].copy_from_slice(value);
        for i in 1..TABLE_LEN - 1 {
            let (built, next) = table.split_at_mut(i * k);
            self.mul_into(&built[(i - 1) * k..], &built[..k], scratch, &mut next[..k]);
        }

        let windows = bits.div_ceil(WINDOW_BITS);
        // The top window holds the exponent's most significant bit, so
        // its digit is never zero.
        let top = Self::window(exponent, windows - 1);
        value.copy_from_slice(&table[(top - 1) * k..top * k]);
        for w in (0..windows - 1).rev() {
            for _ in 0..WINDOW_BITS {
                self.square_into(value, scratch, tmp);
                std::mem::swap(value, tmp);
            }
            let digit = Self::window(exponent, w);
            if digit != 0 {
                self.mul_into(value, &table[(digit - 1) * k..digit * k], scratch, tmp);
                std::mem::swap(value, tmp);
            }
        }
    }

    /// Extracts the `w`-th 4-bit window of `exponent` (window 0 holds the
    /// least significant bits). Windows never straddle a limb because 64
    /// is a multiple of [`WINDOW_BITS`].
    fn window(exponent: &BigUint, w: usize) -> usize {
        let bit = w * WINDOW_BITS;
        let limbs = exponent.limbs();
        let limb = limbs.get(bit / 64).copied().unwrap_or(0);
        ((limb >> (bit % 64)) & (TABLE_LEN as u64 - 1)) as usize
    }

    /// Squares `a` into `out` (`out = a^2 * R^{-1} mod n`): the multiply
    /// of `a` by itself, at every width (see the module docs).
    #[inline]
    fn square_into(&self, a: &[u64], scratch: &mut [u64], out: &mut [u64]) {
        self.mul_into(a, a, scratch, out)
    }

    /// `out = a * b * R^{-1} mod n` for `k`-limb operands below `n`,
    /// through the fixed-width kernel when the width has one. No heap
    /// allocation occurs here — this is the innermost loop of every
    /// exponentiation.
    #[inline]
    fn mul_into(&self, a: &[u64], b: &[u64], scratch: &mut [u64], out: &mut [u64]) {
        match self.k() {
            2 => mul_fixed::<2>(a, b, &self.n, self.n0_inv, out),
            4 => mul_fixed::<4>(a, b, &self.n, self.n0_inv, out),
            8 => mul_fixed::<8>(a, b, &self.n, self.n0_inv, out),
            16 => mul_fixed::<16>(a, b, &self.n, self.n0_inv, out),
            _ => self.mul_into_generic(a, b, scratch, out),
        }
    }

    /// CIOS Montgomery multiply-accumulate at any width:
    /// `out = a * b * R^{-1} mod n`.
    ///
    /// `a`, `b` and `out` are `k`-limb little-endian buffers holding
    /// values below `n`; `scratch` must hold `k + 2` limbs.
    fn mul_into_generic(&self, a: &[u64], b: &[u64], scratch: &mut [u64], out: &mut [u64]) {
        let k = self.k();
        debug_assert_eq!(a.len(), k);
        debug_assert_eq!(b.len(), k);
        debug_assert_eq!(out.len(), k);
        debug_assert!(scratch.len() >= k + 2);
        let t = &mut scratch[..k + 2];
        t.fill(0);

        for &ai in a.iter().take(k) {
            // t += a[i] * b
            let mut carry: u128 = 0;
            for j in 0..k {
                let s = t[j] as u128 + ai as u128 * b[j] as u128 + carry;
                t[j] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k] = s as u64;
            t[k + 1] = (s >> 64) as u64;

            // m = t[0] * n' mod 2^64; t = (t + m * n) / 2^64. Adding
            // m * n clears t[0] exactly, so the shift drops no bits.
            let m = t[0].wrapping_mul(self.n0_inv);
            let s = t[0] as u128 + m as u128 * self.n[0] as u128;
            debug_assert_eq!(s as u64, 0);
            let mut carry = s >> 64;
            for j in 1..k {
                let s = t[j] as u128 + m as u128 * self.n[j] as u128 + carry;
                t[j - 1] = s as u64;
                carry = s >> 64;
            }
            let s = t[k] as u128 + carry;
            t[k - 1] = s as u64;
            t[k] = t[k + 1].wrapping_add((s >> 64) as u64);
            t[k + 1] = 0;
        }

        // The CIOS invariant keeps t < 2n; one conditional subtract
        // brings the result into [0, n).
        reduce_once(&t[..k], t[k], &self.n, out);
    }
}

/// Limb-slice comparison `a < b` for equal-length buffers.
fn less_than(a: &[u64], b: &[u64]) -> bool {
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// `acc += b` over equal-length limbs; returns the carry out of the top.
fn add_in_place(acc: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (slot, &y) in acc.iter_mut().zip(b) {
        let (s1, c1) = slot.overflowing_add(y);
        let (s2, c2) = s1.overflowing_add(carry as u64);
        *slot = s2;
        carry = c1 | c2;
    }
    carry
}

/// `acc -= b` over equal-length limbs; returns the borrow out of the top.
fn sub_in_place(acc: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (slot, &y) in acc.iter_mut().zip(b) {
        let (d1, b1) = slot.overflowing_sub(y);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        *slot = d2;
        borrow = b1 | b2;
    }
    borrow
}

/// `out = (a + b) mod n` for `a, b < n`.
fn add_mod(a: &[u64], b: &[u64], n: &[u64], out: &mut [u64]) {
    out.copy_from_slice(a);
    let carry = add_in_place(out, b);
    if carry || !less_than(out, n) {
        let borrow = sub_in_place(out, n);
        debug_assert_eq!(borrow, carry);
    }
}

/// `out = (a - b) mod n` for `a, b < n`.
fn sub_mod(a: &[u64], b: &[u64], n: &[u64], out: &mut [u64]) {
    out.copy_from_slice(a);
    if sub_in_place(out, b) {
        let carry = add_in_place(out, n);
        debug_assert!(carry, "a - b + n wraps back into range");
    }
}

/// The final step of every reduction: `t` (with overflow limb `top`) is
/// below `2n`, so one conditional subtract lands `out` in `[0, n)`.
#[inline(always)]
fn reduce_once(t: &[u64], top: u64, n: &[u64], out: &mut [u64]) {
    if top == 0 && less_than(t, n) {
        out.copy_from_slice(t);
        return;
    }
    let mut borrow: u64 = 0;
    for ((slot, &t), &n) in out.iter_mut().zip(t).zip(n) {
        let (d1, b1) = t.overflowing_sub(n);
        let (d2, b2) = d1.overflowing_sub(borrow);
        *slot = d2;
        borrow = (b1 | b2) as u64;
    }
    debug_assert_eq!(borrow, top);
}

/// Fixed-width Montgomery multiply: `out = a * b * R^{-1} mod n` for
/// `K`-limb operands below `n`.
///
/// The same recurrence as [`MontgomeryCtx::mul_into_generic`] with the
/// two inner passes fused: row `i` adds `a[i] * b` and `m * n` to the
/// accumulator in one sweep over two carry chains and shifts it down a
/// limb as it goes. `K` is a compile-time constant, so the sweep unrolls
/// and the accumulator lives in registers instead of a scratch slice.
#[inline(always)]
fn mul_fixed<const K: usize>(a: &[u64], b: &[u64], n: &[u64], n0_inv: u64, out: &mut [u64]) {
    let a: &[u64; K] = a.try_into().expect("operand width is the kernel's");
    let b: &[u64; K] = b.try_into().expect("operand width is the kernel's");
    let n: &[u64; K] = n.try_into().expect("modulus width is the kernel's");
    let mut t = [0u64; K];
    // t < 2n throughout, so the limb above t[K - 1] is a single bit.
    let mut top: u64 = 0;
    for &ai in a {
        let ai = ai as u128;
        let s = t[0] as u128 + ai * b[0] as u128;
        // m = t[0] * n' mod 2^64: adding m * n clears the low limb
        // exactly, so shifting it out drops no bits.
        let m = (s as u64).wrapping_mul(n0_inv) as u128;
        let r = (s as u64) as u128 + m * n[0] as u128;
        debug_assert_eq!(r as u64, 0);
        let mut carry_ab = s >> 64;
        let mut carry_mn = r >> 64;
        for j in 1..K {
            let s = t[j] as u128 + ai * b[j] as u128 + carry_ab;
            carry_ab = s >> 64;
            let r = (s as u64) as u128 + m * n[j] as u128 + carry_mn;
            carry_mn = r >> 64;
            t[j - 1] = r as u64;
        }
        let s = top as u128 + carry_ab + carry_mn;
        t[K - 1] = s as u64;
        top = (s >> 64) as u64;
    }

    // t < 2n: subtract n and keep the difference unless it borrowed past
    // the top bit. Fixed width, so both candidates sit in registers and
    // the choice is a select, not a branch on data that is a coin flip
    // for full-width moduli.
    let mut reduced = [0u64; K];
    let mut borrow = false;
    for j in 0..K {
        let (d1, b1) = t[j].overflowing_sub(n[j]);
        let (d2, b2) = d1.overflowing_sub(borrow as u64);
        reduced[j] = d2;
        borrow = b1 | b2;
    }
    let out: &mut [u64; K] = out.try_into().expect("output width is the kernel's");
    *out = if top == 0 && borrow { t } else { reduced };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// `a * b mod m` through the seed division.
    fn mul_mod(a: &BigUint, b: &BigUint, m: &BigUint) -> BigUint {
        a.mul(b).div_rem_reference(m).1
    }

    /// A fresh workspace fitted to `ctx`.
    fn fitted(ctx: &MontgomeryCtx) -> MontWorkspace {
        let mut ws = MontWorkspace::new();
        ctx.prepare(&mut ws);
        ws
    }

    /// The Montgomery image of `a` under `ctx`.
    fn image(ctx: &MontgomeryCtx, a: &BigUint) -> Vec<u64> {
        let mut ws = fitted(ctx);
        ctx.load(a, &mut ws);
        ws.value
    }

    /// The ordinary residue an image stands for.
    fn residue(ctx: &MontgomeryCtx, image: &[u64]) -> BigUint {
        let mut ws = fitted(ctx);
        ws.value.copy_from_slice(image);
        ctx.recover_value(&mut ws)
    }

    /// `base^exponent mod n` through the one exponentiation chain, in `ws`
    /// (re-fitted to `ctx` first).
    fn pow_in(
        ctx: &MontgomeryCtx,
        base: &BigUint,
        exponent: &BigUint,
        ws: &mut MontWorkspace,
    ) -> BigUint {
        ctx.prepare(ws);
        ctx.load(base, ws);
        ctx.pow_in_place(exponent, ws);
        ctx.recover_value(ws)
    }

    fn pow(ctx: &MontgomeryCtx, base: &BigUint, exponent: &BigUint) -> BigUint {
        pow_in(ctx, base, exponent, &mut MontWorkspace::new())
    }

    /// `a * b mod n` as the Montgomery product of the two images.
    fn product(ctx: &MontgomeryCtx, a: &BigUint, b: &BigUint) -> BigUint {
        let (a, b) = (image(ctx, a), image(ctx, b));
        let mut out = vec![0u64; ctx.k()];
        ctx.mul_into(&a, &b, &mut vec![0u64; ctx.k() + 2], &mut out);
        residue(ctx, &out)
    }

    #[test]
    fn rejects_even_and_trivial_moduli() {
        assert!(MontgomeryCtx::new(&big(10)).is_none());
        assert!(MontgomeryCtx::new(&big(1)).is_none());
        assert!(MontgomeryCtx::new(&BigUint::zero()).is_none());
        assert!(MontgomeryCtx::new(&big(9)).is_some());
    }

    #[test]
    fn convert_recover_round_trip() {
        let ctx = MontgomeryCtx::new(&big(1_000_003)).unwrap();
        let round_trip = |v: u64| residue(&ctx, &image(&ctx, &big(v)));
        for v in [0u64, 1, 2, 999_999, 1_000_002, 123_456] {
            assert_eq!(round_trip(v), big(v));
        }
        // Values at or above the modulus reduce first.
        assert_eq!(round_trip(1_000_003), big(0));
        assert_eq!(round_trip(2_000_007), big(1));
    }

    #[test]
    fn mul_matches_modmul() {
        let m = big(0xffff_ffff_ffff_ffc5); // largest prime below 2^64
        let ctx = MontgomeryCtx::new(&m).unwrap();
        for (a, b) in [
            (3u64, 5u64),
            (0xdead_beef_dead_beef, 0xcafe_babe_cafe_babe),
            (1, 0),
        ] {
            let expected = mul_mod(&big(a), &big(b), &m);
            assert_eq!(product(&ctx, &big(a), &big(b)), expected, "a={a} b={b}");
        }
    }

    #[test]
    fn modpow_matches_reference_small() {
        let m = big(497); // odd composite
        let ctx = MontgomeryCtx::new(&m).unwrap();
        assert_eq!(pow(&ctx, &big(4), &big(13)), big(445));
        assert_eq!(pow(&ctx, &big(7), &BigUint::zero()), BigUint::one());
        let p = big(1_000_000_007);
        let ctx = MontgomeryCtx::new(&p).unwrap();
        assert_eq!(pow(&ctx, &big(123456), &big(1_000_000_006)), BigUint::one());
    }

    #[test]
    fn equality_in_domain_matches_equality_of_residues() {
        let ctx = MontgomeryCtx::new(&big(1_000_003)).unwrap();
        assert_eq!(image(&ctx, &big(42)), image(&ctx, &big(42)));
        assert_ne!(image(&ctx, &big(42)), image(&ctx, &big(43)));
        assert_eq!(image(&ctx, &big(1_000_045)), image(&ctx, &big(42)));
    }

    #[test]
    fn four_limb_modulus_uses_the_unrolled_path_correctly() {
        // 2^255 - 19: exactly four limbs, prime.
        let m = BigUint::one().shl(255).sub(&BigUint::from_u32(19));
        let ctx = MontgomeryCtx::new(&m).unwrap();
        // Mixed-magnitude operands exercise every carry chain of the
        // unrolled accumulator.
        let a = BigUint::one()
            .shl(254)
            .add(&BigUint::from_decimal_str("987654321987654321987654321").unwrap());
        let b = BigUint::one().shl(200).sub(&BigUint::from_u32(1));
        assert_eq!(residue(&ctx, &image(&ctx, &a)), a.rem(&m));
        assert_eq!(product(&ctx, &a, &b), mul_mod(&a, &b, &m));
        // Fermat: a^(m-1) ≡ 1 (mod m) for this prime modulus.
        assert_eq!(pow(&ctx, &a, &m.sub(&BigUint::one())), BigUint::one());
        // Squaring dispatches through the same kernel.
        let mut ws = fitted(&ctx);
        ctx.load(&a, &mut ws);
        ctx.square_in_place(&mut ws);
        assert_eq!(ws.value, image(&ctx, &mul_mod(&a, &a, &m)));
    }

    #[test]
    fn load_bytes_matches_load_including_unreduced_and_wide_inputs() {
        // Moduli of one to four limbs (fixed-width and generic kernels),
        // the four-limb one with its top bit clear so a 32-byte digest
        // frequently exceeds it: every load must land on the image of the
        // residue the seed division computes, however many blocks the
        // input folds through.
        let moduli = [
            big(1_000_003),
            BigUint::one().shl(127).sub(&BigUint::one()),
            BigUint::from_decimal_str("340282366920938463463374607431768211507").unwrap(),
            BigUint::one().shl(255).sub(&BigUint::from_u32(19)),
        ];
        let cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![0x00, 0x00],
            vec![0x7f],
            vec![0xff; 32], // 2^256 - 1
            vec![0x01; 31],
            [vec![0x00; 3], vec![0xab; 29]].concat(), // leading zeros
            vec![0xff; 40],
            (0..129u32).map(|i| (i * 37 + 11) as u8).collect(),
        ];
        for m in &moduli {
            let ctx = MontgomeryCtx::new(m).unwrap();
            let mut ws_bytes = fitted(&ctx);
            let mut ws_limbs = fitted(&ctx);
            for bytes in &cases {
                let value = BigUint::from_bytes_be(bytes);
                let residue = value.div_rem_reference(m).1;
                ctx.load_bytes_be(bytes, &mut ws_bytes);
                ctx.load(&value, &mut ws_limbs);
                assert_eq!(ws_bytes.value, image(&ctx, &residue));
                assert_eq!(
                    ctx.recover_value(&mut ws_bytes),
                    residue,
                    "bytes = {bytes:02x?}"
                );
                assert_eq!(
                    ctx.recover_value(&mut ws_limbs),
                    residue,
                    "bytes = {bytes:02x?}"
                );
            }
        }
    }

    #[test]
    fn two_limb_modulus_uses_the_unrolled_path_correctly() {
        // 2^127 - 1 is a Mersenne prime: exactly two limbs.
        let m = BigUint::one().shl(127).sub(&BigUint::one());
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let a = BigUint::from_decimal_str("123456789012345678901234567890123456").unwrap();
        let b = BigUint::from_decimal_str("98765432109876543210987654321").unwrap();
        assert_eq!(residue(&ctx, &image(&ctx, &a)), a.rem(&m));
        assert_eq!(product(&ctx, &a, &b), mul_mod(&a, &b, &m));
        // Fermat: a^(m-1) ≡ 1 (mod m) for this prime modulus.
        assert_eq!(pow(&ctx, &a, &m.sub(&BigUint::one())), BigUint::one());
        // A squaring by exponent and one in place land on the same images.
        let mut ws = fitted(&ctx);
        ctx.load(&a, &mut ws);
        ctx.pow_in_place(&BigUint::from_u32(2), &mut ws);
        let a2 = mul_mod(&a, &a, &m);
        assert_eq!(ws.value, image(&ctx, &a2));
        ctx.square_in_place(&mut ws);
        assert_eq!(ws.value, image(&ctx, &mul_mod(&a2, &a2, &m)));
    }

    #[test]
    fn fitted_and_refitted_workspaces_exponentiate_identically() {
        // Odd moduli across limb counts: fixed-width kernels (k = 2, 4)
        // and the generic loop (k = 1, 3).
        let other = MontgomeryCtx::new(&BigUint::one().shl(511).add(&BigUint::one())).unwrap();
        for dec in [
            "1000003",
            "170141183460469231731687303715884105727", // 2^127 - 1 (k = 2)
            "340282366920938463463374607431768211507", // 2^128 + 51 (k = 3)
            "115792089237316195423570985008687907853269984665640564039457584007913129639747",
        ] {
            let m = BigUint::from_decimal_str(dec).unwrap();
            let ctx = MontgomeryCtx::new(&m).unwrap();
            let mut prepared = fitted(&ctx);
            // Fitted to an 8-limb context first, then re-fitted.
            let mut refitted = fitted(&other);
            ctx.prepare(&mut refitted);
            let a = BigUint::from_decimal_str("987654321234567898765432123456789").unwrap();
            let e = BigUint::from_u32(65537);
            ctx.load(&a, &mut prepared);
            ctx.pow_in_place(&e, &mut prepared);
            ctx.load(&a, &mut refitted);
            ctx.pow_in_place(&e, &mut refitted);
            assert_eq!(prepared.value, refitted.value, "modulus {dec}");
            let reference = a.modpow_reference(&e, &m);
            assert_eq!(ctx.recover_value(&mut refitted), reference);
            // Long (windowed) exponents agree too.
            let d = BigUint::from_decimal_str("123456789012345678901234567890123456789").unwrap();
            ctx.load(&a, &mut prepared);
            ctx.pow_in_place(&d, &mut prepared);
            assert_eq!(pow(&ctx, &a, &d), ctx.recover_value(&mut prepared));
            let reference = a.modpow_reference(&d, &m);
            assert_eq!(pow(&ctx, &a, &d), reference);
        }
    }

    #[test]
    fn prepare_refits_across_widths_and_stash_compares() {
        let small = MontgomeryCtx::new(&big(1_000_003)).unwrap();
        let large = MontgomeryCtx::new(&BigUint::one().shl(127).sub(&BigUint::one())).unwrap();
        let mut ws = MontWorkspace::new();

        small.prepare(&mut ws);
        small.load(&big(42), &mut ws);
        small.stash_value(&mut ws);
        small.load(&big(42), &mut ws);
        assert!(small.value_equals_stash(&ws));
        small.load(&big(43), &mut ws);
        assert!(!small.value_equals_stash(&ws));

        // Re-fitting to a wider modulus and back keeps results exact.
        large.prepare(&mut ws);
        let a = BigUint::from_decimal_str("123456789012345678901234567890").unwrap();
        large.load(&a, &mut ws);
        large.pow_in_place(&BigUint::from_u32(65537), &mut ws);
        assert_eq!(
            large.recover_value(&mut ws),
            a.modpow_reference(&BigUint::from_u32(65537), &large.modulus())
        );
        small.prepare(&mut ws);
        small.load(&big(7), &mut ws);
        small.pow_in_place(&big(13), &mut ws);
        assert_eq!(
            small.recover_value(&mut ws),
            big(7).modpow_reference(&big(13), &big(1_000_003))
        );
    }

    /// A deterministic stream of limbs for the kernel comparisons.
    fn limb_stream(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            // splitmix64
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// The fixed-width multiply against the generic slice loops, limb for
    /// limb, on one modulus and a set of edge operands. Returns
    /// how many products needed the final subtract and how many did not,
    /// decided by the textbook REDC `t = (ab + mn) / R` in `BigUint`
    /// arithmetic — a third, independent statement of the result.
    fn check_width<const K: usize>(next: &mut impl FnMut() -> u64, dense: bool) -> (usize, usize) {
        let mut n: Vec<u64> = (0..K).map(|_| next()).collect();
        n[0] |= 1;
        if dense {
            // n just under R: the unreduced accumulator lands in [n, 2n)
            // about half the time.
            n.iter_mut().for_each(|limb| *limb = u64::MAX);
            n[0] = u64::MAX - 58;
        } else {
            // n far below R: the final subtract all but never fires.
            n[K - 1] = (n[K - 1] >> 40) | 1;
        }
        let modulus = BigUint::from_limbs(n.clone());
        let ctx = MontgomeryCtx::new(&modulus).unwrap();
        assert_eq!(ctx.k(), K);
        let r = BigUint::one().shl(64 * K);
        let neg_n_inv = r.sub(&modulus.modinv(&r).unwrap());

        let n_minus_one = modulus.sub(&BigUint::one());
        let pad = |v: &BigUint| {
            let mut limbs = v.limbs().to_vec();
            limbs.resize(K, 0);
            limbs
        };
        let mut operands: Vec<Vec<u64>> = vec![
            vec![0; K],
            pad(&BigUint::one()),
            pad(&n_minus_one),
            // All-ones limbs reduced into range: the largest carries the
            // accumulator can see.
            pad(&BigUint::from_limbs(vec![u64::MAX; K]).rem(&modulus)),
        ];
        for _ in 0..6 {
            let raw: Vec<u64> = (0..K).map(|_| next()).collect();
            operands.push(pad(&BigUint::from_limbs(raw).rem(&modulus)));
        }

        let mut scratch = vec![0u64; 2 * K + 2];
        let (mut fixed, mut generic) = (vec![0u64; K], vec![0u64; K]);
        let (mut subtracted, mut direct) = (0usize, 0usize);
        for a in &operands {
            for b in &operands {
                mul_fixed::<K>(a, b, &ctx.n, ctx.n0_inv, &mut fixed);
                ctx.mul_into_generic(a, b, &mut scratch, &mut generic);
                assert_eq!(fixed, generic, "K={K} mul a={a:x?} b={b:x?}");
                // The dispatching entry point lands on the same limbs.
                ctx.mul_into(a, b, &mut scratch, &mut generic);
                assert_eq!(fixed, generic);

                let ab = BigUint::from_limbs(a.clone()).mul(&BigUint::from_limbs(b.clone()));
                let m = ab.rem(&r).mul(&neg_n_inv).rem(&r);
                let t = ab.add(&m.mul(&modulus)).shr(64 * K);
                let expected = if t >= modulus {
                    subtracted += 1;
                    t.sub(&modulus)
                } else {
                    direct += 1;
                    t
                };
                assert_eq!(fixed, pad(&expected), "K={K} REDC a={a:x?} b={b:x?}");
            }
            // a == b: the squaring entry point against the generic multiply.
            ctx.square_into(a, &mut scratch, &mut fixed);
            ctx.mul_into_generic(a, a, &mut scratch, &mut generic);
            assert_eq!(fixed, generic, "K={K} sqr a={a:x?}");
        }
        (subtracted, direct)
    }

    #[test]
    fn the_fixed_width_kernel_matches_the_generic_loops_limb_for_limb() {
        let mut next = limb_stream(0x13_F1ED);
        for dense in [true, false, true, false] {
            for (subtracted, direct) in [
                check_width::<2>(&mut next, dense),
                check_width::<4>(&mut next, dense),
                check_width::<8>(&mut next, dense),
                check_width::<16>(&mut next, dense),
            ] {
                assert!(direct > 0, "some product must skip the final subtract");
                assert!(
                    !dense || subtracted > 0,
                    "a modulus just under R must force the final subtract"
                );
            }
        }
    }

    #[test]
    fn fixed_width_exponentiation_matches_the_reference_path() {
        let mut next = limb_stream(0xE4_9013);
        for k in [2usize, 4, 8, 16] {
            let mut n: Vec<u64> = (0..k).map(|_| next()).collect();
            n[0] |= 1;
            n[k - 1] |= 1 << 63;
            let modulus = BigUint::from_limbs(n);
            let ctx = MontgomeryCtx::new(&modulus).unwrap();
            let base = BigUint::from_limbs((0..k).map(|_| next()).collect());
            let exponent = BigUint::from_limbs((0..k).map(|_| next()).collect());
            let reference = base.modpow_reference(&exponent, &modulus);
            assert_eq!(pow(&ctx, &base, &exponent), reference, "k={k}");
            // A workspace warmed on another width re-fits and agrees.
            let mut ws = fitted(&MontgomeryCtx::new(&big(1_000_003)).unwrap());
            assert_eq!(pow_in(&ctx, &base, &exponent, &mut ws), reference);
            assert_eq!(pow_in(&ctx, &base, &exponent, &mut ws), reference);
        }
    }

    #[test]
    fn multi_limb_modulus_round_trips() {
        let m = BigUint::from_decimal_str("340282366920938463463374607431768211507").unwrap(); // 2^128 + 51, odd
        let ctx = MontgomeryCtx::new(&m).unwrap();
        let a = BigUint::from_decimal_str("123456789012345678901234567890").unwrap();
        assert_eq!(residue(&ctx, &image(&ctx, &a)), a);
        let sq = pow(&ctx, &a, &big(2));
        assert_eq!(sq, mul_mod(&a, &a, &m));
    }
}
