//! Arbitrary-precision unsigned integer arithmetic.
//!
//! RSA key generation, signing and verification need multi-precision
//! arithmetic far beyond 128 bits. This module provides a compact
//! [`BigUint`] with exactly the operations the [`crate::rsa`] and
//! [`crate::prime`] modules need: comparison, addition, subtraction,
//! schoolbook multiplication, division, shifts, gcd, and modular
//! inversion via the extended Euclidean algorithm
//! (implemented with a small sign-tracking wrapper).
//!
//! # Representation
//!
//! Limbs are `u64` stored little-endian with **no trailing zero limbs**;
//! zero is the empty vector. Every constructor normalizes, so two equal
//! values always have identical limb vectors (`Eq`/`Hash` are
//! representation equality). All intermediate products and carries fit
//! in `u128`, which keeps the carry logic straightforward and portable
//! while halving the limb count and quartering the number of inner-loop
//! multiply-accumulate steps relative to the earlier 32-bit layout.
//!
//! The external representations are *value*-based and therefore
//! independent of the limb width: [`BigUint::to_bytes_be`] emits
//! minimal big-endian bytes, [`BigUint::to_hex_string`] minimal
//! lowercase hex (the serde wire format), and both round-trip
//! bit-for-bit with what the 32-bit layout produced.
//!
//! # Fast paths and their oracles
//!
//! [`BigUint::div_rem`] is word-level Knuth Algorithm D (one 64-bit
//! quotient digit per step). Modular exponentiation lives in
//! [`crate::montgomery`], not here. The seed implementations stay as
//! plain functions that only tests call:
//! [`BigUint::div_rem_reference`] (binary long division) and
//! [`BigUint::modpow_reference`] (square-and-multiply reduced through
//! it). `tests/crypto_equivalence.rs` pins each fast path to its oracle
//! bit for bit, up to 4096-bit operands.

use serde::{Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer.
///
/// The internal representation is a little-endian vector of 64-bit limbs
/// with no trailing zero limbs; zero is the empty vector.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u64>,
}

impl BigUint {
    /// The value 0.
    pub fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub fn from_u64(value: u64) -> Self {
        let limbs = if value != 0 { vec![value] } else { Vec::new() };
        BigUint { limbs }
    }

    /// Constructs from a `u32`.
    pub fn from_u32(value: u32) -> Self {
        Self::from_u64(value as u64)
    }

    /// Constructs from big-endian bytes.
    pub fn from_bytes_be(bytes: &[u8]) -> Self {
        let mut limbs = Vec::with_capacity(bytes.len() / 8 + 1);
        let mut acc: u64 = 0;
        let mut shift = 0;
        for &byte in bytes.iter().rev() {
            acc |= (byte as u64) << shift;
            shift += 8;
            if shift == 64 {
                limbs.push(acc);
                acc = 0;
                shift = 0;
            }
        }
        if shift > 0 {
            limbs.push(acc);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Serialises to big-endian bytes with no leading zero bytes
    /// (zero serialises to an empty vector).
    pub fn to_bytes_be(&self) -> Vec<u8> {
        limbs_to_bytes_be(&self.limbs)
    }

    /// Compares `self` with the integer a big-endian byte string encodes
    /// (leading zero bytes allowed), without building it.
    pub(crate) fn cmp_bytes_be(&self, bytes: &[u8]) -> Ordering {
        (0..self.limbs.len().max(bytes.len().div_ceil(8)))
            .rev()
            .map(|i| {
                let ours = self.limbs.get(i).copied().unwrap_or(0);
                ours.cmp(&limb_of_bytes_be(bytes, i))
            })
            .find(|ordering| ordering.is_ne())
            .unwrap_or(Ordering::Equal)
    }

    /// Little-endian limb view (no trailing zero limbs).
    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Builds from little-endian limbs, normalizing trailing zeros.
    pub(crate) fn from_limbs(limbs: Vec<u64>) -> Self {
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// True if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True if the value is one.
    pub fn is_one(&self) -> bool {
        self.limbs.len() == 1 && self.limbs[0] == 1
    }

    /// True if the value is even (zero is even).
    pub fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// The number of significant bits (0 for the value zero).
    pub fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(top) => (self.limbs.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
        }
    }

    /// Returns bit `i` (little-endian bit order).
    pub fn bit(&self, i: usize) -> bool {
        let limb = i / 64;
        let offset = i % 64;
        self.limbs.get(limb).is_some_and(|l| (l >> offset) & 1 == 1)
    }

    /// Sets bit `i` to one, growing the representation as needed.
    pub fn set_bit(&mut self, i: usize) {
        let limb = i / 64;
        let offset = i % 64;
        if self.limbs.len() <= limb {
            self.limbs.resize(limb + 1, 0);
        }
        self.limbs[limb] |= 1 << offset;
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// Addition.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place addition: `self += other`. Reuses `self`'s allocation
    /// whenever the sum fits its current capacity.
    pub fn add_assign(&mut self, other: &BigUint) {
        if self.limbs.len() < other.limbs.len() {
            self.limbs.resize(other.limbs.len(), 0);
        }
        let mut carry: u128 = 0;
        for (i, limb) in self.limbs.iter_mut().enumerate() {
            let b = other.limbs.get(i).copied().unwrap_or(0) as u128;
            if carry == 0 && b == 0 && i >= other.limbs.len() {
                break;
            }
            let sum = *limb as u128 + b + carry;
            *limb = sum as u64;
            carry = sum >> 64;
        }
        if carry > 0 {
            self.limbs.push(carry as u64);
        }
    }

    /// Subtraction, returning `None` if `other > self`.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut out = self.clone();
        out.sub_assign(other);
        Some(out)
    }

    /// Subtraction; panics if `other > self`.
    pub fn sub(&self, other: &BigUint) -> BigUint {
        self.checked_sub(other)
            .expect("BigUint::sub underflow: subtrahend exceeds minuend")
    }

    /// In-place subtraction: `self -= other`.
    ///
    /// # Panics
    /// Panics if `other > self`.
    pub fn sub_assign(&mut self, other: &BigUint) {
        assert!(
            *self >= *other,
            "BigUint::sub underflow: subtrahend exceeds minuend"
        );
        let mut borrow: u64 = 0;
        for i in 0..self.limbs.len() {
            let b = other.limbs.get(i).copied().unwrap_or(0);
            if borrow == 0 && b == 0 && i >= other.limbs.len() {
                break;
            }
            let (d1, b1) = self.limbs[i].overflowing_sub(b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            self.limbs[i] = d2;
            borrow = (b1 | b2) as u64;
        }
        debug_assert_eq!(borrow, 0);
        self.normalize();
    }

    /// Schoolbook multiplication.
    pub fn mul(&self, other: &BigUint) -> BigUint {
        let mut out = BigUint::zero();
        self.mul_to(other, &mut out);
        out
    }

    /// Schoolbook multiplication into `out`, reusing `out`'s allocation.
    /// `out` must not alias `self` or `other` (enforced by `&mut`).
    pub fn mul_to(&self, other: &BigUint, out: &mut BigUint) {
        out.limbs.clear();
        if self.is_zero() || other.is_zero() {
            return;
        }
        out.limbs.resize(self.limbs.len() + other.limbs.len(), 0);
        mul_add_limbs(&self.limbs, &other.limbs, &[], &mut out.limbs);
        out.normalize();
    }

    /// Multiplication by a small scalar, at the limb level (single pass,
    /// no temporary `BigUint`).
    pub fn mul_u64(&self, scalar: u64) -> BigUint {
        if self.is_zero() || scalar == 0 {
            return BigUint::zero();
        }
        let mut out = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u128 = 0;
        for &limb in &self.limbs {
            let cur = limb as u128 * scalar as u128 + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry > 0 {
            out.push(carry as u64);
        }
        BigUint { limbs: out }
    }

    /// Division by a small scalar, at the limb level: returns the quotient
    /// and the `u64` remainder in a single high-to-low pass.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn div_rem_u64(&self, divisor: u64) -> (BigUint, u64) {
        assert!(divisor != 0, "division by zero BigUint");
        let mut quotient = self.clone();
        let rem = quotient.div_assign_u64(divisor);
        (quotient, rem)
    }

    /// Remainder of division by a small scalar, in one high-to-low pass
    /// with no allocation (the quotient is never materialized). Used by
    /// the grouped small-prime trial division in [`crate::prime`].
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub fn rem_u64(&self, divisor: u64) -> u64 {
        assert!(divisor != 0, "division by zero BigUint");
        let mut rem: u128 = 0;
        for &limb in self.limbs.iter().rev() {
            rem = ((rem << 64) | limb as u128) % divisor as u128;
        }
        rem as u64
    }

    /// In-place division by a small scalar, returning the remainder.
    fn div_assign_u64(&mut self, divisor: u64) -> u64 {
        debug_assert!(divisor != 0);
        let mut rem: u128 = 0;
        for limb in self.limbs.iter_mut().rev() {
            let cur = (rem << 64) | *limb as u128;
            *limb = (cur / divisor as u128) as u64;
            rem = cur % divisor as u128;
        }
        self.normalize();
        rem as u64
    }

    /// Left shift by `bits`.
    pub fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() || bits == 0 {
            // Limbs are always normalized, so the clone can be returned
            // directly without building a shifted buffer.
            return self.clone();
        }
        let limb_shift = bits / 64;
        let bit_shift = bits % 64;
        let mut out = vec![0u64; self.limbs.len() + limb_shift + 1];
        for (i, &limb) in self.limbs.iter().enumerate() {
            let idx = i + limb_shift;
            if bit_shift == 0 {
                out[idx] |= limb;
            } else {
                out[idx] |= limb << bit_shift;
                out[idx + 1] |= limb >> (64 - bit_shift);
            }
        }
        let mut result = BigUint { limbs: out };
        result.normalize();
        result
    }

    /// Right shift by `bits`.
    pub fn shr(&self, bits: usize) -> BigUint {
        if bits == 0 {
            return self.clone();
        }
        let limb_shift = bits / 64;
        if limb_shift >= self.limbs.len() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = Vec::with_capacity(self.limbs.len() - limb_shift);
        for i in limb_shift..self.limbs.len() {
            let mut limb = self.limbs[i] >> bit_shift;
            if bit_shift > 0 {
                if let Some(&next) = self.limbs.get(i + 1) {
                    limb |= next << (64 - bit_shift);
                }
            }
            out.push(limb);
        }
        let mut result = BigUint { limbs: out };
        result.normalize();
        result
    }

    /// Division with remainder. Panics if `divisor` is zero.
    ///
    /// Word-level division (Knuth TAOCP Vol. 2, Algorithm 4.3.1 D):
    /// one 64-bit quotient limb per step against a normalized divisor,
    /// instead of one bit per step, with the multiply-subtract in place —
    /// no allocation inside the loop. [`Self::div_rem_reference`] is its
    /// oracle.
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero BigUint");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from_u64(r));
        }

        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;
        // D1: normalize so the divisor's top limb has its high bit set;
        // this bounds the quotient-digit estimate error by 2.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        debug_assert_eq!(v.len(), n);
        let mut u = self.shl(shift).limbs;
        u.resize(self.limbs.len() + 1, 0);

        let vn1 = v[n - 1] as u128;
        let vn2 = v[n - 2] as u128;
        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // D3: estimate the quotient digit from the top two dividend
            // limbs; correct it (at most twice) using the third.
            let top = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let mut qhat = top / vn1;
            let mut rhat = top % vn1;
            loop {
                // `qhat >= 2^64` short-circuits before the product, which
                // only fits u128 once qhat is a single limb.
                if qhat > u64::MAX as u128 || qhat * vn2 > (rhat << 64) | u[j + n - 2] as u128 {
                    qhat -= 1;
                    rhat += vn1;
                    if rhat <= u64::MAX as u128 {
                        continue;
                    }
                }
                break;
            }

            // D4: multiply and subtract qhat * v from u[j..j+n] in place.
            let mut carry: u128 = 0;
            let mut borrow: u64 = 0;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let (d1, b1) = u[j + i].overflowing_sub(p as u64);
                let (d2, b2) = d1.overflowing_sub(borrow);
                u[j + i] = d2;
                borrow = (b1 | b2) as u64;
            }
            let (d1, b1) = u[j + n].overflowing_sub(carry as u64);
            let (d2, b2) = d1.overflowing_sub(borrow);
            if b1 | b2 {
                // D6: the estimate was one too large — add the divisor back.
                u[j + n] = d2;
                qhat -= 1;
                let mut c: u128 = 0;
                for i in 0..n {
                    let s = u[j + i] as u128 + v[i] as u128 + c;
                    u[j + i] = s as u64;
                    c = s >> 64;
                }
                u[j + n] = u[j + n].wrapping_add(c as u64);
            } else {
                u[j + n] = d2;
            }
            q[j] = qhat as u64;
        }

        u.truncate(n);
        let remainder = BigUint::from_limbs(u).shr(shift);
        (BigUint::from_limbs(q), remainder)
    }

    /// The seed binary long division, one quotient bit per step: the
    /// oracle for [`Self::div_rem`] (`knuth_div_rem_matches_reference` in
    /// `tests/crypto_equivalence.rs`). No production path calls it.
    pub fn div_rem_reference(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero BigUint");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.is_one() {
            return (self.clone(), BigUint::zero());
        }

        let bits = self.bit_len();
        let mut quotient = BigUint {
            limbs: vec![0u64; self.limbs.len()],
        };
        let mut remainder = BigUint::zero();
        for i in (0..bits).rev() {
            remainder = remainder.shl(1);
            if self.bit(i) {
                if remainder.limbs.is_empty() {
                    remainder.limbs.push(1);
                } else {
                    remainder.limbs[0] |= 1;
                }
            }
            if remainder >= *divisor {
                remainder = remainder.sub(divisor);
                quotient.limbs[i / 64] |= 1 << (i % 64);
            }
        }
        quotient.normalize();
        remainder.normalize();
        (quotient, remainder)
    }

    /// `self mod modulus`.
    pub fn rem(&self, modulus: &BigUint) -> BigUint {
        self.div_rem(modulus).1
    }

    /// The seed modular exponentiation: binary square-and-multiply with
    /// every product reduced through [`Self::div_rem_reference`], so it
    /// shares nothing with Knuth division, Montgomery arithmetic or CRT.
    /// The oracle for [`crate::montgomery::MontgomeryCtx::pow_in_place`]
    /// and both RSA key operations (`tests/crypto_equivalence.rs` and the
    /// in-crate Montgomery, primality and signature tests call it); no
    /// production path does.
    pub fn modpow_reference(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "modpow with zero modulus");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let reduce = |value: &BigUint| value.div_rem_reference(modulus).1;
        let mut base = reduce(self);
        let mut result = BigUint::one();
        let bits = exponent.bit_len();
        for i in 0..bits {
            if exponent.bit(i) {
                result = reduce(&result.mul(&base));
            }
            if i + 1 < bits {
                base = reduce(&base.mul(&base));
            }
        }
        result
    }

    /// Greatest common divisor (Euclid).
    pub fn gcd(&self, other: &BigUint) -> BigUint {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Modular inverse: returns `x` with `self * x ≡ 1 (mod modulus)`,
    /// or `None` if `gcd(self, modulus) != 1`.
    pub fn modinv(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || modulus.is_one() {
            return None;
        }
        // Extended Euclid tracking only the coefficient of `self`.
        let mut r_prev = modulus.clone();
        let mut r = self.rem(modulus);
        let mut t_prev = Signed::zero();
        let mut t = Signed::positive(BigUint::one());

        while !r.is_zero() {
            let (q, rem) = r_prev.div_rem(&r);
            let t_next = t_prev.sub(&t.mul_unsigned(&q));
            r_prev = r;
            r = rem;
            t_prev = t;
            t = t_next;
        }

        if !r_prev.is_one() {
            return None;
        }
        Some(t_prev.to_modular(modulus))
    }

    /// Decimal string representation (used by `Display`).
    ///
    /// Peels nineteen digits per in-place single-limb division — a
    /// linear pass per chunk instead of a full `div_rem` against a
    /// `BigUint` divisor (`10^19` is the largest power of ten below
    /// `2^64`).
    pub fn to_decimal_string(&self) -> String {
        const CHUNK: u64 = 10_000_000_000_000_000_000; // 10^19
        if self.is_zero() {
            return "0".to_string();
        }
        let mut chunks = Vec::with_capacity(self.limbs.len() + 1);
        let mut value = self.clone();
        while !value.is_zero() {
            chunks.push(value.div_assign_u64(CHUNK));
        }
        let mut s = chunks.pop().map(|c| c.to_string()).unwrap_or_default();
        for chunk in chunks.into_iter().rev() {
            s.push_str(&format!("{chunk:019}"));
        }
        s
    }

    /// Parses a decimal string.
    #[cfg(test)]
    pub fn from_decimal_str(s: &str) -> Option<BigUint> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let mut acc = BigUint::zero();
        for b in s.bytes() {
            acc = acc.mul_u64(10);
            acc.add_assign(&BigUint::from_u32((b - b'0') as u32));
        }
        Some(acc)
    }

    /// Lowercase hexadecimal representation (no leading zeros, no prefix;
    /// zero renders as `"0"`). Used by the serde impl so serialized keys
    /// stay compact and byte-order unambiguous.
    pub fn to_hex_string(&self) -> String {
        if self.is_zero() {
            return "0".to_string();
        }
        let mut s = String::with_capacity(self.limbs.len() * 16);
        let mut limbs = self.limbs.iter().rev();
        if let Some(top) = limbs.next() {
            s.push_str(&format!("{top:x}"));
        }
        for limb in limbs {
            s.push_str(&format!("{limb:016x}"));
        }
        s
    }

    /// Parses a (case-insensitive) hexadecimal string without prefix.
    pub fn from_hex_str(s: &str) -> Option<BigUint> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut limbs = Vec::with_capacity(s.len() / 16 + 1);
        let bytes = s.as_bytes();
        let mut end = bytes.len();
        while end > 0 {
            let start = end.saturating_sub(16);
            let chunk = std::str::from_utf8(&bytes[start..end]).ok()?;
            limbs.push(u64::from_str_radix(chunk, 16).ok()?);
            end = start;
        }
        Some(BigUint::from_limbs(limbs))
    }
}

/// Limb `i` (little-endian limb order) of the integer a big-endian byte
/// string encodes; zero past its top.
pub(crate) fn limb_of_bytes_be(bytes: &[u8], i: usize) -> u64 {
    let end = bytes.len().saturating_sub(8 * i);
    let start = end.saturating_sub(8);
    bytes[start..end]
        .iter()
        .fold(0, |limb, &byte| (limb << 8) | byte as u64)
}

/// Minimal big-endian bytes of the integer `limbs` holds (little-endian,
/// trailing zero limbs allowed): the value's [`BigUint::to_bytes_be`],
/// in one exactly-sized allocation.
pub(crate) fn limbs_to_bytes_be(limbs: &[u64]) -> Vec<u8> {
    let Some(top) = limbs.iter().rposition(|&limb| limb != 0) else {
        return Vec::new();
    };
    let top_bytes = 8 - limbs[top].leading_zeros() as usize / 8;
    let mut bytes = Vec::with_capacity(8 * top + top_bytes);
    bytes.extend_from_slice(&limbs[top].to_be_bytes()[8 - top_bytes..]);
    for limb in limbs[..top].iter().rev() {
        bytes.extend_from_slice(&limb.to_be_bytes());
    }
    bytes
}

/// Schoolbook `out = a * b + addend` over little-endian limbs. `out` must
/// hold the result: at least `a.len() + b.len()` limbs, and enough for
/// the sum (every partial sum is below it, so no carry runs past `out`).
pub(crate) fn mul_add_limbs(a: &[u64], b: &[u64], addend: &[u64], out: &mut [u64]) {
    out.fill(0);
    out[..addend.len()].copy_from_slice(addend);
    for (i, &x) in a.iter().enumerate() {
        let mut carry: u128 = 0;
        for (j, &y) in b.iter().enumerate() {
            let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
            out[i + j] = cur as u64;
            carry = cur >> 64;
        }
        let mut idx = i + b.len();
        while carry > 0 {
            let cur = out[idx] as u128 + carry;
            out[idx] = cur as u64;
            carry = cur >> 64;
            idx += 1;
        }
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.limbs.len() != other.limbs.len() {
            return self.limbs.len().cmp(&other.limbs.len());
        }
        for i in (0..self.limbs.len()).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint({})", self.to_decimal_string())
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_decimal_string())
    }
}

impl Serialize for BigUint {
    fn to_value(&self) -> Value {
        Value::Str(self.to_hex_string())
    }
}

impl Deserialize for BigUint {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        match value {
            Value::Str(s) => BigUint::from_hex_str(s)
                .ok_or_else(|| serde::Error::custom(format!("invalid BigUint hex string `{s}`"))),
            other => Err(serde::Error::custom(format!(
                "expected hex string for BigUint, found {}",
                other.kind()
            ))),
        }
    }
}

/// Minimal signed big integer used only by the extended Euclidean algorithm.
#[derive(Clone, Debug)]
struct Signed {
    magnitude: BigUint,
    negative: bool,
}

impl Signed {
    fn zero() -> Self {
        Signed {
            magnitude: BigUint::zero(),
            negative: false,
        }
    }

    fn positive(magnitude: BigUint) -> Self {
        Signed {
            magnitude,
            negative: false,
        }
    }

    fn sub(&self, other: &Signed) -> Signed {
        match (self.negative, other.negative) {
            // a - b with both non-negative.
            (false, false) => {
                if self.magnitude >= other.magnitude {
                    Signed::positive(self.magnitude.sub(&other.magnitude))
                } else {
                    Signed {
                        magnitude: other.magnitude.sub(&self.magnitude),
                        negative: true,
                    }
                }
            }
            // a - (-b) = a + b.
            (false, true) => Signed::positive(self.magnitude.add(&other.magnitude)),
            // (-a) - b = -(a + b).
            (true, false) => Signed {
                magnitude: self.magnitude.add(&other.magnitude),
                negative: true,
            },
            // (-a) - (-b) = b - a.
            (true, true) => {
                if other.magnitude >= self.magnitude {
                    Signed::positive(other.magnitude.sub(&self.magnitude))
                } else {
                    Signed {
                        magnitude: self.magnitude.sub(&other.magnitude),
                        negative: true,
                    }
                }
            }
        }
    }

    fn mul_unsigned(&self, factor: &BigUint) -> Signed {
        Signed {
            magnitude: self.magnitude.mul(factor),
            negative: self.negative && !self.magnitude.is_zero() && !factor.is_zero(),
        }
    }

    /// Reduces into `[0, modulus)`.
    fn to_modular(&self, modulus: &BigUint) -> BigUint {
        let reduced = self.magnitude.rem(modulus);
        if self.negative && !reduced.is_zero() {
            modulus.sub(&reduced)
        } else {
            reduced
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montgomery::{MontWorkspace, MontgomeryCtx};
    use proptest::prelude::*;

    fn big(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn zero_and_one_basics() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert!(!BigUint::one().is_zero());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
        assert!(BigUint::zero().is_even());
        assert!(!BigUint::one().is_even());
    }

    #[test]
    fn from_and_to_u64() {
        // (The name is historical: the value goes in through `from_u64`
        // and is read back off the limbs.)
        assert!(big(0).limbs.is_empty());
        for v in [1u64, 7, 0xffff_ffff, 0x1_0000_0000, u64::MAX] {
            assert_eq!(big(v).limbs, [v]);
        }
        let too_big = big(u64::MAX).add(&BigUint::one());
        assert_eq!(too_big.limbs, [0, 1]);
    }

    #[test]
    fn from_u64_is_normalized() {
        assert!(big(0).limbs.is_empty());
        assert_eq!(big(7).limbs, vec![7]);
        assert_eq!(big(1 << 40).limbs.len(), 1);
        assert_eq!(big(u64::MAX).add(&BigUint::one()).limbs.len(), 2);
    }

    #[test]
    fn byte_round_trip() {
        let v = BigUint::from_decimal_str("123456789012345678901234567890").unwrap();
        let bytes = v.to_bytes_be();
        assert_eq!(BigUint::from_bytes_be(&bytes), v);
        assert!(BigUint::from_bytes_be(&[]).is_zero());
        assert!(BigUint::zero().to_bytes_be().is_empty());
        // Leading zero bytes are absorbed.
        assert_eq!(BigUint::from_bytes_be(&[0, 0, 5]), big(5));
        // Comparing against bytes reads them as that same value.
        let padded = [&[0u8; 9][..], &bytes].concat();
        assert_eq!(v.cmp_bytes_be(&padded), Ordering::Equal);
        assert_eq!(
            v.cmp_bytes_be(&v.add(&big(1)).to_bytes_be()),
            Ordering::Less
        );
        assert_eq!(
            v.cmp_bytes_be(&v.sub(&big(1)).to_bytes_be()),
            Ordering::Greater
        );
        assert_eq!(v.cmp_bytes_be(&[1; 17]), Ordering::Less);
        assert_eq!(BigUint::zero().cmp_bytes_be(&[0, 0]), Ordering::Equal);
    }

    #[test]
    fn addition_and_subtraction() {
        assert_eq!(big(123).add(&big(456)), big(579));
        assert_eq!(
            big(u64::MAX).add(&BigUint::one()).to_decimal_string(),
            "18446744073709551616"
        );
        assert_eq!(big(579).sub(&big(456)), big(123));
        assert_eq!(big(5).checked_sub(&big(6)), None);
        assert_eq!(big(5).checked_sub(&big(5)), Some(BigUint::zero()));
    }

    #[test]
    fn in_place_add_sub_match_functional() {
        let mut a = big(u64::MAX);
        a.add_assign(&big(u64::MAX));
        assert_eq!(a, big(u64::MAX).add(&big(u64::MAX)));
        a.sub_assign(&big(u64::MAX));
        assert_eq!(a, big(u64::MAX));
        a.sub_assign(&big(u64::MAX));
        assert!(a.is_zero());
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = big(1).sub(&big(2));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_assign_underflow_panics() {
        let mut a = big(1);
        a.sub_assign(&big(2));
    }

    #[test]
    fn multiplication() {
        assert_eq!(big(0).mul(&big(12345)), BigUint::zero());
        assert_eq!(big(12345).mul(&big(0)), BigUint::zero());
        assert_eq!(big(111111).mul(&big(111111)), big(12345654321));
        let a = BigUint::from_decimal_str("340282366920938463463374607431768211456").unwrap(); // 2^128
        assert_eq!(
            a.mul(&a).to_decimal_string(),
            "115792089237316195423570985008687907853269984665640564039457584007913129639936"
        );
        assert_eq!(
            big(u64::MAX).mul_u64(u64::MAX),
            big(u64::MAX).mul(&big(u64::MAX))
        );
    }

    #[test]
    fn mul_to_reuses_output() {
        let mut out = BigUint::zero();
        big(111111).mul_to(&big(111111), &mut out);
        assert_eq!(out, big(12345654321));
        big(0).mul_to(&big(5), &mut out);
        assert!(out.is_zero());
        big(3).mul_to(&big(4), &mut out);
        assert_eq!(out, big(12));
    }

    #[test]
    fn mul_u64_and_div_rem_u64_are_inverse() {
        let v = BigUint::from_decimal_str("987654321098765432109876543210").unwrap();
        let scalar: u64 = 9_999_999_999_999_999_937;
        let scaled = v.mul_u64(scalar);
        let (q, r) = scaled.div_rem_u64(scalar);
        assert_eq!(q, v);
        assert_eq!(r, 0);
        let (q, r) = scaled.add(&big(17)).div_rem_u64(scalar);
        assert_eq!(q, v);
        assert_eq!(r, 17);
        assert_eq!(v.mul_u64(0), BigUint::zero());
    }

    #[test]
    fn shifts() {
        assert_eq!(big(1).shl(64).to_decimal_string(), "18446744073709551616");
        assert_eq!(big(0b1011).shl(3), big(0b1011000));
        assert_eq!(big(0b1011000).shr(3), big(0b1011));
        assert_eq!(big(12345).shr(200), BigUint::zero());
        assert_eq!(BigUint::zero().shl(17), BigUint::zero());
        assert_eq!(big(1).shl(33).shr(33), big(1));
        assert_eq!(big(1).shl(65).shr(65), big(1));
        assert_eq!(big(12345).shl(0), big(12345));
        assert_eq!(big(12345).shr(0), big(12345));
        assert_eq!(big(12345).shl(128).shr(128), big(12345));
    }

    #[test]
    fn division() {
        let (q, r) = big(1000).div_rem(&big(7));
        assert_eq!(q, big(142));
        assert_eq!(r, big(6));
        let (q, r) = big(5).div_rem(&big(1000));
        assert_eq!(q, BigUint::zero());
        assert_eq!(r, big(5));
        let (q, r) = big(1000).div_rem(&BigUint::one());
        assert_eq!(q, big(1000));
        assert_eq!(r, BigUint::zero());
        // Large case cross-checked against Python.
        let a = BigUint::from_decimal_str("123456789012345678901234567890123456789").unwrap();
        let b = BigUint::from_decimal_str("987654321098765432109").unwrap();
        let (q, r) = a.div_rem(&b);
        assert_eq!(q.to_decimal_string(), "124999998860937500");
        assert_eq!(r.to_decimal_string(), "14172067901781269289");
        assert_eq!(b.mul(&q).add(&r), a);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = big(5).div_rem(&BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn reference_division_by_zero_panics() {
        let _ = big(5).div_rem_reference(&BigUint::zero());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_u64_panics() {
        let _ = big(5).div_rem_u64(0);
    }

    #[test]
    fn knuth_division_add_back_case() {
        // Crafted so the quotient-digit estimate overshoots and Algorithm
        // D's add-back step (D6) runs: dividend chosen with maximal top
        // limbs against a divisor just below a power of two.
        let a = BigUint::from_limbs(vec![0, u64::MAX - 1, u64::MAX]);
        let b = BigUint::from_limbs(vec![u64::MAX, u64::MAX]);
        let (q, r) = a.div_rem(&b);
        assert_eq!(b.mul(&q).add(&r), a);
        assert!(r < b);
        let (q_ref, r_ref) = a.div_rem_reference(&b);
        assert_eq!(q, q_ref);
        assert_eq!(r, r_ref);
    }

    #[test]
    fn modpow_small_cases() {
        assert_eq!(big(4).modpow_reference(&big(13), &big(497)), big(445));
        assert_eq!(big(2).modpow_reference(&big(10), &big(1025)), big(1024));
        assert_eq!(
            big(7).modpow_reference(&BigUint::zero(), &big(13)),
            BigUint::one()
        );
        assert_eq!(
            big(7).modpow_reference(&big(5), &BigUint::one()),
            BigUint::zero()
        );
        // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p, a not divisible by p.
        let p = big(1_000_000_007);
        assert_eq!(
            big(123456).modpow_reference(&big(1_000_000_006), &p),
            BigUint::one()
        );
    }

    #[test]
    fn gcd_and_modinv() {
        assert_eq!(big(54).gcd(&big(24)), big(6));
        assert_eq!(big(17).gcd(&big(31)), big(1));
        assert_eq!(big(0).gcd(&big(9)), big(9));

        let inv = big(3).modinv(&big(11)).unwrap();
        assert_eq!(inv, big(4));
        assert_eq!(big(3).mul(&inv).rem(&big(11)), BigUint::one());

        assert!(big(6).modinv(&big(9)).is_none());
        assert!(big(5).modinv(&BigUint::one()).is_none());

        // A known RSA-style inversion: 65537^{-1} mod a 64-bit phi.
        let phi = big(7775023486193254396);
        let e = big(65537);
        if let Some(d) = e.modinv(&phi) {
            assert_eq!(e.mul(&d).rem(&phi), BigUint::one());
        } else {
            panic!("65537 should be invertible modulo an odd phi not divisible by it");
        }
    }

    #[test]
    fn decimal_round_trip() {
        for s in [
            "0",
            "1",
            "999999999",
            "1000000000",
            "9999999999999999999",
            "10000000000000000000",
            "123456789012345678901234567890",
        ] {
            let v = BigUint::from_decimal_str(s).unwrap();
            assert_eq!(v.to_decimal_string(), s);
        }
        assert!(BigUint::from_decimal_str("").is_none());
        assert!(BigUint::from_decimal_str("12a3").is_none());
    }

    #[test]
    fn hex_round_trip() {
        for s in [
            "0",
            "1",
            "ff",
            "deadbeef",
            "123456789abcdef0123456789abcdef",
        ] {
            let v = BigUint::from_hex_str(s).unwrap();
            assert_eq!(v.to_hex_string(), s);
        }
        assert_eq!(BigUint::from_hex_str("FF"), Some(big(255)));
        assert!(BigUint::from_hex_str("").is_none());
        assert!(BigUint::from_hex_str("12g3").is_none());
        // Leading zeros parse but do not round-trip verbatim.
        assert_eq!(BigUint::from_hex_str("000ff"), Some(big(255)));
    }

    #[test]
    fn serde_round_trip() {
        let v = BigUint::from_decimal_str("123456789012345678901234567890").unwrap();
        let json = serde_json::to_string(&v).unwrap();
        let back: BigUint = serde_json::from_str(&json).unwrap();
        assert_eq!(back, v);
        let zero_json = serde_json::to_string(&BigUint::zero()).unwrap();
        let zero: BigUint = serde_json::from_str(&zero_json).unwrap();
        assert!(zero.is_zero());
        assert!(serde_json::from_str::<BigUint>("42").is_err());
        assert!(serde_json::from_str::<BigUint>("\"12g3\"").is_err());
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(big(2) < big(3));
        assert!(big(0x1_0000_0000) > big(0xffff_ffff));
        assert!(big(u64::MAX).add(&BigUint::one()) > big(u64::MAX));
        assert_eq!(big(42).cmp(&big(42)), Ordering::Equal);
        assert!(big(5).partial_cmp(&big(6)).unwrap().is_lt());
    }

    #[test]
    fn bit_manipulation() {
        let mut v = BigUint::zero();
        v.set_bit(0);
        v.set_bit(40);
        v.set_bit(70);
        assert!(v.bit(0));
        assert!(v.bit(40));
        assert!(v.bit(70));
        assert!(!v.bit(1));
        assert_eq!(v, big(1).add(&big(1).shl(40)).add(&big(1).shl(70)));
        assert_eq!(v.bit_len(), 71);
    }

    #[test]
    fn debug_and_display() {
        assert_eq!(format!("{}", big(12345)), "12345");
        assert_eq!(format!("{:?}", big(12345)), "BigUint(12345)");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn add_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let sum = big(a).add(&big(b));
            prop_assert_eq!(sum.to_decimal_string(), (a as u128 + b as u128).to_string());
        }

        #[test]
        fn mul_matches_u128(a in any::<u64>(), b in any::<u64>()) {
            let product = big(a).mul(&big(b));
            prop_assert_eq!(product.to_decimal_string(), (a as u128 * b as u128).to_string());
        }

        #[test]
        fn mul_u64_matches_mul(a in any::<u64>(), s in any::<u64>()) {
            prop_assert_eq!(big(a).mul_u64(s), big(a).mul(&BigUint::from_u64(s)));
        }

        #[test]
        fn div_rem_u64_matches_div_rem(a in any::<u64>(), d in 1u64..) {
            let (q, r) = big(a).div_rem_u64(d);
            let (q_big, r_big) = big(a).div_rem(&BigUint::from_u64(d));
            prop_assert_eq!(q, q_big);
            prop_assert_eq!(BigUint::from_u64(r), r_big);
            prop_assert_eq!(big(a).rem_u64(d), r);
        }

        #[test]
        fn rem_u64_matches_div_rem_wide(
            bytes in proptest::collection::vec(any::<u8>(), 0..48),
            d in 1u64..,
        ) {
            let v = BigUint::from_bytes_be(&bytes);
            prop_assert_eq!(BigUint::from_u64(v.rem_u64(d)), v.rem(&big(d)));
        }

        #[test]
        fn sub_add_round_trip(a in any::<u64>(), b in any::<u64>()) {
            let (hi, lo) = if a >= b { (a, b) } else { (b, a) };
            prop_assert_eq!(big(hi).sub(&big(lo)).add(&big(lo)), big(hi));
        }

        #[test]
        fn div_rem_reconstructs(a in any::<u64>(), b in 1u64..) {
            let (q, r) = big(a).div_rem(&big(b));
            prop_assert_eq!(q.clone().mul(&big(b)).add(&r.clone()), big(a));
            prop_assert!(r < big(b));
            prop_assert_eq!(q, big(a / b));
        }

        #[test]
        fn modpow_matches_u128(base in 0u64..1_000_000, exp in 0u64..64, modulus in 2u64..1_000_000) {
            let mut expected: u128 = 1;
            for _ in 0..exp {
                expected = expected * (base as u128 % modulus as u128) % modulus as u128;
            }
            // The oracle at every modulus and the Montgomery chain at every
            // odd one land on the u128 product chain.
            let expected = BigUint::from_u64(expected as u64);
            if let Some(ctx) = MontgomeryCtx::new(&big(modulus)) {
                let mut ws = MontWorkspace::new();
                ctx.prepare(&mut ws);
                ctx.load(&big(base), &mut ws);
                ctx.pow_in_place(&big(exp), &mut ws);
                prop_assert_eq!(&ctx.recover_value(&mut ws), &expected);
            }
            prop_assert_eq!(big(base).modpow_reference(&big(exp), &big(modulus)), expected);
        }

        #[test]
        fn shift_round_trip(a in any::<u64>(), s in 0usize..200) {
            prop_assert_eq!(big(a).shl(s).shr(s), big(a));
        }

        #[test]
        fn byte_round_trip_random(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
            let v = BigUint::from_bytes_be(&bytes);
            prop_assert_eq!(BigUint::from_bytes_be(&v.to_bytes_be()), v);
        }

        #[test]
        fn modinv_is_inverse(a in 2u64..100_000, m in 3u64..100_000) {
            let a_big = big(a);
            let m_big = big(m);
            if a_big.gcd(&m_big).is_one() {
                let inv = a_big.modinv(&m_big).expect("coprime values are invertible");
                prop_assert_eq!(a_big.mul(&inv).rem(&m_big), BigUint::one());
                prop_assert!(inv < m_big);
            } else {
                prop_assert!(a_big.modinv(&m_big).is_none());
            }
        }

        #[test]
        fn gcd_divides_both(a in 1u64.., b in 1u64..) {
            let g = big(a).gcd(&big(b));
            prop_assert!(!g.is_zero());
            prop_assert!(big(a).rem(&g).is_zero());
            prop_assert!(big(b).rem(&g).is_zero());
        }

        #[test]
        fn decimal_round_trip_random(a in any::<u64>()) {
            let s = a.to_string();
            prop_assert_eq!(BigUint::from_decimal_str(&s).unwrap().to_decimal_string(), s);
        }

        #[test]
        fn hex_round_trip_random(a in any::<u64>()) {
            let s = format!("{a:x}");
            prop_assert_eq!(BigUint::from_hex_str(&s).unwrap().to_hex_string(), s);
        }

        #[test]
        fn in_place_ops_match_functional(a in any::<u64>(), b in any::<u64>()) {
            let mut sum = big(a);
            sum.add_assign(&big(b));
            prop_assert_eq!(&sum, &big(a).add(&big(b)));
            let mut diff = sum.clone();
            diff.sub_assign(&big(b));
            prop_assert_eq!(diff, big(a));
            let mut product = BigUint::zero();
            big(a).mul_to(&big(b), &mut product);
            prop_assert_eq!(product, big(a).mul(&big(b)));
        }
    }
}
