//! SHA-256 (FIPS 180-4) implemented from scratch.
//!
//! The blockchain substrate uses SHA-256 for block hashes, Merkle roots and
//! the proof-of-work puzzle (Equation 4 of the paper); the signature module
//! uses it as the message digest of the hash-then-sign scheme.
//!
//! Both a one-shot [`sha256`] helper and an incremental [`Sha256`] hasher
//! are provided. The incremental interface lets the blockchain hash block
//! headers field-by-field without materialising an intermediate buffer.
//!
//! On x86-64 machines with the SHA extensions the compression function
//! dispatches (runtime-detected, cached) to the `sha256rnds2`/`sha256msg`
//! instruction sequence, which hashes a block in a handful of cycles;
//! every other target runs the portable scalar rounds. Both paths
//! produce identical digests — the NIST vectors and the cross-path test
//! below pin them together.

/// The size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;

/// A SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// ```
/// use bfl_crypto::sha256::Sha256;
///
/// let mut hasher = Sha256::new();
/// hasher.update(b"hello ");
/// hasher.update(b"world");
/// let digest = hasher.finalize();
/// assert_eq!(digest, bfl_crypto::sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a hasher in its initial state.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; 64],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially filled buffer first.
        if self.buffer_len > 0 {
            let need = 64 - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == 64 {
                let block = self.buffer;
                self.compress(&block);
                self.buffer_len = 0;
            }
        }

        // Process whole blocks directly from the input, in one batch:
        // the hardware path keeps the state in registers for the entire
        // run instead of repacking it per block.
        let whole = input.len() - input.len() % 64;
        if whole > 0 {
            self.compress_many(&input[..whole]);
            input = &input[whole..];
        }

        // Stash the tail.
        if !input.is_empty() {
            self.buffer[..input.len()].copy_from_slice(input);
            self.buffer_len = input.len();
        }
    }

    /// Consumes the hasher and returns the digest.
    ///
    /// Allocation-free: the padding is staged in a stack buffer, so
    /// per-nonce mining hashes (midstate clone + 8-byte nonce + finalize)
    /// never touch the heap.
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.total_len.wrapping_mul(8);

        // 0x80 terminator, zeros to the next 56 (mod 64) boundary, then
        // the 64-bit message length; at most 72 bytes in total.
        let mut tail = [0u8; 72];
        tail[0] = 0x80;
        let rem = (self.buffer_len + 1) % 64;
        let zeros = if rem <= 56 { 56 - rem } else { 120 - rem };
        let tail_len = 1 + zeros + 8;
        tail[1 + zeros..tail_len].copy_from_slice(&bit_len.to_be_bytes());

        // `update` tracks total_len; neutralise the padding contribution.
        let saved = self.total_len;
        self.update(&tail[..tail_len]);
        self.total_len = saved;
        debug_assert_eq!(self.buffer_len, 0);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // Safety: `available` checked the sha/ssse3/sse4.1 features.
            unsafe { shani::compress_blocks(&mut self.state, block) };
            return;
        }
        self.compress_soft(block);
    }

    /// Compresses a run of whole blocks (`data.len()` a multiple of 64).
    fn compress_many(&mut self, data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        #[cfg(target_arch = "x86_64")]
        if shani::available() {
            // Safety: `available` checked the sha/ssse3/sse4.1 features.
            unsafe { shani::compress_blocks(&mut self.state, data) };
            return;
        }
        for block in data.chunks_exact(64) {
            self.compress_soft(block.try_into().expect("64-byte chunk"));
        }
    }

    /// Portable scalar compression (the reference the hardware path is
    /// pinned against).
    fn compress_soft(&mut self, block: &[u8; 64]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;

        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);

            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Hardware SHA-256 compression via the x86 SHA extensions.
///
/// The round core is two `sha256rnds2` instructions per four rounds over
/// the `ABEF`/`CDGH` register split, with the message schedule advanced
/// by `sha256msg1`/`sha256msg2` — the standard Intel sequence. Feature
/// availability is detected once and cached.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use std::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Whether this machine has the required feature set.
    pub fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// Computes the schedule quad `w[i..i+4]` from the previous four quads.
    #[inline(always)]
    unsafe fn schedule(v0: __m128i, v1: __m128i, v2: __m128i, v3: __m128i) -> __m128i {
        let t1 = _mm_sha256msg1_epu32(v0, v1);
        let t2 = _mm_alignr_epi8(v3, v2, 4);
        let t3 = _mm_add_epi32(t1, t2);
        _mm_sha256msg2_epu32(t3, v3)
    }

    /// Runs four rounds: the low two via `rnds2` on `CDGH`, the high two
    /// (shuffled into the low lanes) on `ABEF`.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:expr, $i:expr) => {{
            let kv = _mm_set_epi32(
                K[4 * $i + 3] as i32,
                K[4 * $i + 2] as i32,
                K[4 * $i + 1] as i32,
                K[4 * $i] as i32,
            );
            let t1 = _mm_add_epi32($w, kv);
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, t1);
            let t2 = _mm_shuffle_epi32(t1, 0x0E);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, t2);
        }};
    }

    macro_rules! schedule_rounds4 {
        ($abef:ident, $cdgh:ident, $w0:expr, $w1:expr, $w2:expr, $w3:expr, $w4:expr, $i:expr) => {{
            $w4 = schedule($w0, $w1, $w2, $w3);
            rounds4!($abef, $cdgh, $w4, $i);
        }};
    }

    /// Compresses a run of 64-byte blocks into `state`, keeping the
    /// working state in registers between blocks.
    ///
    /// `data.len()` must be a non-zero multiple of 64.
    ///
    /// # Safety
    /// Requires the `sha`, `ssse3` and `sse4.1` target features (checked
    /// by [`available`]).
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        // Byte shuffle mask turning little-endian loads into the
        // big-endian words FIPS 180-4 specifies.
        let mask = _mm_set_epi64x(
            0x0C0D_0E0F_0809_0A0Bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );

        // Repack [a,b,c,d]/[e,f,g,h] into the ABEF/CDGH layout the
        // rnds2 instruction expects.
        let state_ptr = state.as_ptr() as *const __m128i;
        let dcba = _mm_loadu_si128(state_ptr);
        let hgfe = _mm_loadu_si128(state_ptr.add(1));
        let cdab = _mm_shuffle_epi32(dcba, 0xB1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1B);
        let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

        for block in data.chunks_exact(64) {
            let abef_save = abef;
            let cdgh_save = cdgh;

            let data_ptr = block.as_ptr() as *const __m128i;
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(data_ptr), mask);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(data_ptr.add(1)), mask);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(data_ptr.add(2)), mask);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(data_ptr.add(3)), mask);
            let mut w4;

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 1);
            rounds4!(abef, cdgh, w2, 2);
            rounds4!(abef, cdgh, w3, 3);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 4);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 5);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 6);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 7);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 8);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 9);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 10);
            schedule_rounds4!(abef, cdgh, w2, w3, w4, w0, w1, 11);
            schedule_rounds4!(abef, cdgh, w3, w4, w0, w1, w2, 12);
            schedule_rounds4!(abef, cdgh, w4, w0, w1, w2, w3, 13);
            schedule_rounds4!(abef, cdgh, w0, w1, w2, w3, w4, 14);
            schedule_rounds4!(abef, cdgh, w1, w2, w3, w4, w0, 15);

            abef = _mm_add_epi32(abef, abef_save);
            cdgh = _mm_add_epi32(cdgh, cdgh_save);
        }

        // Unpack ABEF/CDGH back to [a,b,c,d]/[e,f,g,h].
        let feba = _mm_shuffle_epi32(abef, 0x1B);
        let dchg = _mm_shuffle_epi32(cdgh, 0xB1);
        let dcba = _mm_blend_epi16(feba, dchg, 0xF0);
        let hgfe = _mm_alignr_epi8(dchg, feba, 8);

        let out_ptr = state.as_mut_ptr() as *mut __m128i;
        _mm_storeu_si128(out_ptr, dcba);
        _mm_storeu_si128(out_ptr.add(1), hgfe);
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
pub fn sha256(data: &[u8]) -> Digest {
    let mut hasher = Sha256::new();
    hasher.update(data);
    hasher.finalize()
}

/// Renders a digest as lowercase hexadecimal.
pub fn to_hex(digest: &Digest) -> String {
    let mut s = String::with_capacity(DIGEST_LEN * 2);
    for byte in digest {
        s.push_str(&format!("{byte:02x}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // FIPS 180-4 / NIST CAVP test vectors.
    #[test]
    fn empty_string_vector() {
        assert_eq!(
            to_hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            to_hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_vector() {
        assert_eq!(
            to_hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn long_input_vector() {
        // One million 'a' characters.
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            to_hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exactly_64_byte_message() {
        let data = [0x41u8; 64];
        // Cross-checked reference digest for 64 bytes of 'A'.
        assert_eq!(
            to_hex(&sha256(&data)),
            "d53eda7a637c99cc7fb566d96e9fa109bf15c478410a3f5eb4d4c4e26cd081f6"
        );
    }

    #[test]
    fn fifty_five_and_fifty_six_byte_boundary() {
        // 55 bytes: padding fits in one block; 56 bytes: requires a second block.
        let d55 = sha256(&[b'x'; 55]);
        let d56 = sha256(&[b'x'; 56]);
        assert_ne!(d55, d56);
    }

    #[test]
    fn hex_round_trip() {
        // (The name is historical: only the rendering direction remains.)
        let digest: Digest = std::array::from_fn(|i| (i as u8) * 8);
        assert_eq!(
            to_hex(&digest),
            "0008101820283038404850586068707880889098a0a8b0b8c0c8d0d8e0e8f0f8"
        );
    }

    #[test]
    fn default_equals_new() {
        let a = Sha256::default().finalize();
        let b = Sha256::new().finalize();
        assert_eq!(a, b);
    }

    proptest! {
        /// The dispatching compression (hardware when available) and the
        /// portable scalar rounds must agree on every block and state.
        #[test]
        fn compression_paths_agree(
            block_bytes in proptest::collection::vec(any::<u8>(), 64..65),
            s0 in any::<u64>(),
            s1 in any::<u64>(),
            s2 in any::<u64>(),
            s3 in any::<u64>(),
        ) {
            let block: [u8; 64] = block_bytes.try_into().unwrap();
            let mut state = [0u32; 8];
            for (i, seed) in [s0, s1, s2, s3].iter().enumerate() {
                state[2 * i] = *seed as u32;
                state[2 * i + 1] = (*seed >> 32) as u32;
            }
            let mut dispatched = Sha256::new();
            dispatched.state = state;
            let mut scalar = Sha256::new();
            scalar.state = state;
            dispatched.compress(&block);
            scalar.compress_soft(&block);
            prop_assert_eq!(dispatched.state, scalar.state);
        }

        #[test]
        fn incremental_matches_one_shot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                        split in 0usize..2048) {
            let split = split.min(data.len());
            let mut hasher = Sha256::new();
            hasher.update(&data[..split]);
            hasher.update(&data[split..]);
            prop_assert_eq!(hasher.finalize(), sha256(&data));
        }

        #[test]
        fn digest_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            prop_assert_eq!(sha256(&data), sha256(&data));
        }

        #[test]
        fn different_inputs_rarely_collide(a in proptest::collection::vec(any::<u8>(), 0..128),
                                           b in proptest::collection::vec(any::<u8>(), 0..128)) {
            if a != b {
                prop_assert_ne!(sha256(&a), sha256(&b));
            }
        }

        #[test]
        fn many_small_updates_match(data in proptest::collection::vec(any::<u8>(), 0..1024)) {
            let mut hasher = Sha256::new();
            for chunk in data.chunks(7) {
                hasher.update(chunk);
            }
            prop_assert_eq!(hasher.finalize(), sha256(&data));
        }
    }
}
