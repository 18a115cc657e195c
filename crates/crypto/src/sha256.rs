//! FIPS 180-4 SHA-256, implemented from scratch.
//!
//! Used to hash canonical credential encodings before signing, to derive
//! selective-disclosure commitments, and as the PRF core of [`crate::hmac`].
//!
//! Every digest goes through one compression function. It runs a SHA-NI
//! kernel on x86_64 CPUs that report the SHA extensions, SSSE3 and
//! SSE4.1, and the portable kernel everywhere else; [`kernel`] names the
//! one in use. The two kernels compute the same function (property-tested
//! against each other), so the choice never changes a digest. Calling the
//! SHA-NI kernel is the crate's only `unsafe`: a runtime-detected
//! `#[target_feature]` function cannot be called from safe code.
//!
//! Besides the incremental [`Sha256`] hasher, [`single_block`] +
//! [`digest_block`] hash a ≤55-byte message without the hasher's
//! buffering: the signature hot loop's inputs almost all fit one block.

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; 32];

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
/// use trust_vo_crypto::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// assert_eq!(h.finalize(), trust_vo_crypto::sha256(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a hasher in the initial state.
    pub fn new() -> Self {
        Self {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while rest.len() >= 64 {
            let (block, tail) = rest.split_at(64);
            let mut b = [0u8; 64];
            b.copy_from_slice(block);
            self.compress(&b);
            rest = tail;
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Finish and return the digest.
    #[inline]
    pub fn finalize(mut self) -> Digest {
        let bit_len = self.len.wrapping_mul(8);
        // Padding: 0x80, zeros, 8-byte big-endian bit length — written
        // straight into the block buffer (a byte-at-a-time `update` loop
        // here costs more than the compression itself on short inputs).
        let n = self.buf_len;
        self.buf[n] = 0x80;
        self.buf[n + 1..].fill(0);
        if n + 1 > 56 {
            // No room for the length suffix: the padding spills into a
            // second block.
            let block = self.buf;
            self.compress(&block);
            self.buf = [0u8; 64];
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn compress(&mut self, block: &[u8; 64]) {
        compress_block(&mut self.state, block);
    }
}

/// Whether this CPU runs `compress_block_sha_ni`: the SHA extensions,
/// plus SSSE3 and SSE4.1 for the shuffles around them (SSE2 is part of
/// the x86_64 baseline).
#[inline]
fn sha_ni_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The compression kernel every digest runs on this CPU: `"sha-ni"` or
/// `"portable"`. Both compute the same function, so the answer changes
/// speed, never a digest.
pub fn kernel() -> &'static str {
    if sha_ni_detected() {
        "sha-ni"
    } else {
        "portable"
    }
}

/// Fold one 64-byte block into `state`: the SHA-NI kernel where the CPU
/// has it, the portable one everywhere else. [`Sha256`], [`sha256`],
/// [`digest_block`] and through them every signature, verification, HMAC
/// and digest in the workspace come through here.
#[allow(unsafe_code)]
#[inline]
fn compress_block(state: &mut [u32; 8], block: &[u8; 64]) {
    #[cfg(target_arch = "x86_64")]
    if sha_ni_detected() {
        // SAFETY: the kernel's only precondition is that the CPU supports
        // the features it enables: `sha_ni_detected` has just detected
        // sha, ssse3 and sse4.1 at runtime, and sse2 is baseline x86_64.
        unsafe { compress_block_sha_ni(state, block) };
        return;
    }
    compress_block_portable(state, block);
}

/// [`compress_block_portable`] on the x86 SHA extensions. The working
/// variables live in two vectors, `abef` and `cdgh` (lane 3 down to lane
/// 0); `sha256rnds2` runs two rounds and returns the new `abef`, and the
/// old `abef` becomes the next `cdgh`. `sha256msg1`/`msg2` extend the
/// message schedule four words at a time. The body is safe code: inside
/// a function that enables their features, the intrinsics are safe calls.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
fn compress_block_sha_ni(state: &mut [u32; 8], block: &[u8; 64]) {
    use std::arch::x86_64::*;
    let word = |i: usize| u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
    let words = |i: usize| {
        _mm_set_epi32(
            word(i + 12) as i32,
            word(i + 8) as i32,
            word(i + 4) as i32,
            word(i) as i32,
        )
    };
    let [a, b, c, d, e, f, g, h] = state.map(|v| v as i32);
    let abef0 = _mm_set_epi32(a, b, e, f);
    let cdgh0 = _mm_set_epi32(c, d, g, h);
    let (mut abef, mut cdgh) = (abef0, cdgh0);
    // w0..w3 hold message words 4i..4i+16 as round group i starts.
    let (mut w0, mut w1, mut w2, mut w3) = (words(0), words(16), words(32), words(48));
    for i in 0..16 {
        let k = _mm_set_epi32(
            K[4 * i + 3] as i32,
            K[4 * i + 2] as i32,
            K[4 * i + 1] as i32,
            K[4 * i] as i32,
        );
        let wk = _mm_add_epi32(w0, k);
        // Rounds 4i and 4i+1 leave the new abef in `cdgh`, and the old abef
        // is now cdgh; rounds 4i+2 and 4i+3 put both back in place.
        cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
        abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32::<0x0e>(wk));
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16] for the next
        // four t (the last four groups' words past W[63] go unused);
        // `alignr` supplies the W[t-7] column.
        let partial = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1), _mm_alignr_epi8::<4>(w3, w2));
        (w0, w1, w2, w3) = (w1, w2, w3, _mm_sha256msg2_epu32(partial, w3));
    }
    let abef = _mm_add_epi32(abef, abef0);
    let cdgh = _mm_add_epi32(cdgh, cdgh0);
    *state = [
        _mm_extract_epi32::<3>(abef),
        _mm_extract_epi32::<2>(abef),
        _mm_extract_epi32::<3>(cdgh),
        _mm_extract_epi32::<2>(cdgh),
        _mm_extract_epi32::<1>(abef),
        _mm_extract_epi32::<0>(abef),
        _mm_extract_epi32::<1>(cdgh),
        _mm_extract_epi32::<0>(cdgh),
    ]
    .map(|v| v as u32);
}

/// The FIPS 180-4 compression function in portable Rust.
fn compress_block_portable(state: &mut [u32; 8], block: &[u8; 64]) {
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
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    // One round with the working variables already rotated into place;
    // unrolling eight at a time removes the seven register moves the
    // naive `h = g; g = f; …` rotation costs per round.
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[$i])
                .wrapping_add(w[$i]);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0.wrapping_add(maj));
        };
    }
    let mut i = 0;
    while i < 64 {
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
        i += 8;
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Pad a ≤55-byte message into its final (single) SHA-256 block: message,
/// `0x80`, zeros, 8-byte big-endian bit length. Returns `None` when the
/// message does not fit (padding needs at least 9 trailing bytes).
#[inline]
pub fn single_block(data: &[u8]) -> Option<[u8; 64]> {
    if data.len() > 55 {
        return None;
    }
    let mut block = [0u8; 64];
    block[..data.len()].copy_from_slice(data);
    block[data.len()] = 0x80;
    block[56..64].copy_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    Some(block)
}

/// SHA-256 of one pre-padded block (see [`single_block`]): the whole hash
/// without the incremental hasher's buffer bookkeeping.
#[inline]
pub fn digest_block(block: &[u8; 64]) -> Digest {
    let mut state = H0;
    compress_block(&mut state, block);
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// SHA-256 with its own padding over `compress_block_portable` only:
    /// the reference the dispatched paths are compared with, which the
    /// dispatch would otherwise hide on SHA-NI hosts.
    fn portable_sha256(data: &[u8]) -> Digest {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        for block in padded.chunks_exact(64) {
            compress_block_portable(&mut state, block.try_into().unwrap());
        }
        let mut out = [0u8; 32];
        for (i, word) in state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Check a FIPS 180-4 vector through the dispatched and portable paths.
    fn assert_vector(data: &[u8], expected: &str) {
        assert_eq!(hex::encode(&sha256(data)), expected, "dispatched");
        assert_eq!(hex::encode(&portable_sha256(data)), expected, "portable");
    }

    #[test]
    fn empty_string() {
        assert_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc() {
        assert_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_message() {
        assert_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a() {
        assert_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn kernel_is_sha_ni_exactly_when_the_cpu_reports_its_features() {
        #[cfg(target_arch = "x86_64")]
        let expected = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        #[cfg(not(target_arch = "x86_64"))]
        let expected = false;
        assert_eq!(kernel(), if expected { "sha-ni" } else { "portable" });
    }

    #[test]
    fn dispatched_paths_match_the_portable_reference_at_every_split() {
        for len in 0..=300usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + len * 7) as u8).collect();
            let expected = portable_sha256(&data);
            assert_eq!(sha256(&data), expected, "len {len}");
            if let Some(block) = single_block(&data) {
                assert_eq!(digest_block(&block), expected, "single block, len {len}");
            }
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), expected, "len {len}, split {split}");
            }
        }
    }

    #[test]
    fn exactly_block_sized_inputs() {
        // 55/56/63/64/65 bytes straddle the padding boundaries.
        for n in [55usize, 56, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xabu8; n];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), sha256(&data), "len {n}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"a"), sha256(b"b"));
        assert_ne!(sha256(b""), sha256(b"\0"));
    }

    #[test]
    fn single_block_path_matches_incremental() {
        for n in 0..=55usize {
            let data: Vec<u8> = (0..n).map(|i| (i * 13 + n) as u8).collect();
            let block = single_block(&data).expect("fits");
            assert_eq!(digest_block(&block), sha256(&data), "len {n}");
        }
        assert!(single_block(&[0u8; 56]).is_none());
    }

    proptest::proptest! {
        #[test]
        fn compress_block_matches_portable(
            state in proptest::collection::vec(proptest::prelude::any::<u32>(), 8),
            block in proptest::collection::vec(proptest::prelude::any::<u8>(), 64)
        ) {
            let block: [u8; 64] = block.try_into().unwrap();
            let mut dispatched: [u32; 8] = state.try_into().unwrap();
            let mut portable = dispatched;
            compress_block(&mut dispatched, &block);
            compress_block_portable(&mut portable, &block);
            proptest::prop_assert_eq!(dispatched, portable);
        }
    }
}
