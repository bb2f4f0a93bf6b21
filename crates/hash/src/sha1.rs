//! SHA-1 (RFC 3174), implemented from scratch.
//!
//! SHA-1 is cryptographically broken for adversarial collision resistance,
//! but remains exactly what the SHHC paper (and DDFS, ChunkStash, …) use
//! for chunk fingerprinting, where the threat model is accidental
//! collision — vanishingly unlikely at 160 bits.

use std::fmt;

/// Streaming SHA-1 hasher.
///
/// Supports incremental input via [`Sha1::update`] and produces a
/// [`Digest`] with [`Sha1::finalize`]. One-shot hashing is available
/// through [`Sha1::digest`].
///
/// # Examples
///
/// ```
/// use shhc_hash::Sha1;
///
/// let mut h = Sha1::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha1::digest(b"hello world"));
/// ```
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Total message length in bytes.
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl fmt::Debug for Sha1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Sha1 {{ bytes_hashed: {} }}", self.len)
    }
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

/// A finalized 160-bit SHA-1 digest.
///
/// # Examples
///
/// ```
/// use shhc_hash::Sha1;
/// let d = Sha1::digest(b"");
/// assert_eq!(d.to_hex(), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Digest([u8; 20]);

impl Digest {
    /// Returns the digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 20] {
        &self.0
    }

    /// Consumes the digest, returning its bytes.
    pub const fn into_bytes(self) -> [u8; 20] {
        self.0
    }

    /// Lowercase hex representation.
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.to_hex())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

const H0: [u32; 5] = [
    0x6745_2301,
    0xEFCD_AB89,
    0x98BA_DCFE,
    0x1032_5476,
    0xC3D2_E1F0,
];

impl Sha1 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Sha1 {
            state: H0,
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
    }

    /// One-shot convenience: hash `data` and return the digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha1::new();
        h.update(data);
        h.finalize()
    }

    /// Feeds `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress_blocks);
    }

    /// Consumes the hasher, producing the final digest.
    pub fn finalize(self) -> Digest {
        self.finalize_with(compress_blocks)
    }

    /// [`Sha1::update`] over an explicit block kernel.
    fn update_with(&mut self, data: &[u8], kernel: impl Fn(&mut [u32; 5], &[u8])) {
        self.len = self.len.wrapping_add(data.len() as u64);
        let mut input = data;

        // Fill a partially buffered block first.
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 64 {
                return;
            }
            kernel(&mut self.state, &self.buf);
            self.buf_len = 0;
        }

        // Every whole block straight from the input, in one kernel call.
        let (blocks, tail) = input.split_at(input.len() - input.len() % 64);
        if !blocks.is_empty() {
            kernel(&mut self.state, blocks);
        }
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// [`Sha1::finalize`] over an explicit block kernel.
    fn finalize_with(mut self, kernel: impl Fn(&mut [u32; 5], &[u8])) -> Digest {
        // The buffered tail, 0x80, zeros up to 56 mod 64, then the bit
        // length: one padded block, or two when the tail leaves no room
        // for the marker byte and the length.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let n = if self.buf_len < 56 { 64 } else { 128 };
        tail[n - 8..n].copy_from_slice(&self.len.wrapping_mul(8).to_be_bytes());
        kernel(&mut self.state, &tail[..n]);

        let mut out = [0u8; 20];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// True when this CPU runs the SHA-extensions kernel.
fn accelerated() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("sha")
            && std::is_x86_feature_detected!("sse2")
            && std::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Compresses `blocks` (a whole number of 64-byte blocks) into `state`
/// with the fastest kernel this CPU supports. The CPUID check runs once
/// per call (std caches it), not once per block.
fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    if accelerated() {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `shani::compress_blocks` is a safe function whose
            // only requirement is the `sha`, `sse2` and `sse4.1` target
            // features it enables; `accelerated()` has just confirmed all
            // three via CPUID.
            #[allow(unsafe_code)]
            unsafe {
                shani::compress_blocks(state, blocks)
            };
            return;
        }
    }
    compress_blocks_portable(state, blocks);
}

/// The portable kernel: the fallback on every other CPU and the oracle
/// the accelerated kernel is tested against.
fn compress_blocks_portable(state: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 80];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("4 bytes"));
        }
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp = a
                .rotate_left(5)
                .wrapping_add(f)
                .wrapping_add(e)
                .wrapping_add(k)
                .wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }

        for (s, v) in state.iter_mut().zip([a, b, c, d, e]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA-extensions kernel (`sha1rnds4`, `sha1nexte`,
/// `sha1msg1`, `sha1msg2`). Lane 3 of each vector holds the first word:
/// `abcd` is `[a, b, c, d]` from lane 3 down, and each message vector is
/// four consecutive schedule words `W[4g..4g + 4]`.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_extract_epi32, _mm_set_epi32, _mm_sha1msg1_epu32,
        _mm_sha1msg2_epu32, _mm_sha1nexte_epu32, _mm_sha1rnds4_epu32, _mm_xor_si128,
    };

    /// Loads big-endian words `4i..4i + 4` of `block`, first word in lane 3.
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8; 64], i: usize) -> __m128i {
        let w = |j: usize| {
            let at = 16 * i + 4 * j;
            i32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
        };
        _mm_set_epi32(w(0), w(1), w(2), w(3))
    }

    #[target_feature(enable = "sha,sse2,sse4.1")]
    pub(super) fn compress_blocks(state: &mut [u32; 5], blocks: &[u8]) {
        let [a, b, c, d, e] = state.map(|v| v as i32);
        let mut abcd = _mm_set_epi32(a, b, c, d);
        let mut e = _mm_set_epi32(e, 0, 0, 0);

        for block in blocks.chunks_exact(64) {
            let block: &[u8; 64] = block.try_into().expect("chunks_exact(64)");
            let (abcd_in, e_in) = (abcd, e);
            // The last four message vectors; group g uses w[g % 4].
            let mut w = [0, 1, 2, 3].map(|i| load(block, i));
            // `prev` is the state four rounds back: `sha1nexte` derives the
            // next group's E from its A.
            let mut prev = abcd;
            abcd = _mm_sha1rnds4_epu32::<0>(abcd, _mm_add_epi32(e, w[0]));

            // One group of four rounds: extend the schedule once the
            // block's own 16 words are used up, then run the rounds with
            // the round function and constant of `$f`.
            macro_rules! group {
                ($g:literal, $f:literal) => {
                    if $g >= 4 {
                        let x = _mm_sha1msg1_epu32(w[$g % 4], w[($g + 1) % 4]);
                        let x = _mm_xor_si128(x, w[($g + 2) % 4]);
                        w[$g % 4] = _mm_sha1msg2_epu32(x, w[($g + 3) % 4]);
                    }
                    let e_w = _mm_sha1nexte_epu32(prev, w[$g % 4]);
                    prev = abcd;
                    abcd = _mm_sha1rnds4_epu32::<$f>(abcd, e_w);
                };
            }
            group!(1, 0);
            group!(2, 0);
            group!(3, 0);
            group!(4, 0);
            group!(5, 1);
            group!(6, 1);
            group!(7, 1);
            group!(8, 1);
            group!(9, 1);
            group!(10, 2);
            group!(11, 2);
            group!(12, 2);
            group!(13, 2);
            group!(14, 2);
            group!(15, 3);
            group!(16, 3);
            group!(17, 3);
            group!(18, 3);
            group!(19, 3);

            abcd = _mm_add_epi32(abcd, abcd_in);
            e = _mm_sha1nexte_epu32(prev, e_in);
        }

        *state = [
            _mm_extract_epi32::<3>(abcd),
            _mm_extract_epi32::<2>(abcd),
            _mm_extract_epi32::<1>(abcd),
            _mm_extract_epi32::<0>(abcd),
            _mm_extract_epi32::<3>(e),
        ]
        .map(|v| v as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    type Kernel = fn(&mut [u32; 5], &[u8]);

    /// The kernels this host can run: always the portable one, plus the
    /// SHA-extensions kernel (reached through the dispatcher) when the CPU
    /// has it. A host without it says so instead of passing vacuously.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut out: Vec<(&'static str, Kernel)> = vec![("portable", compress_blocks_portable)];
        if accelerated() {
            out.push(("sha-ni", compress_blocks));
        } else {
            eprintln!("sha-ni kernel skipped: this CPU lacks the SHA extensions");
        }
        out
    }

    /// Hashes `parts` as consecutive `update`s on `kernel`.
    fn digest_parts(kernel: Kernel, parts: &[&[u8]]) -> Digest {
        let mut h = Sha1::new();
        for part in parts {
            h.update_with(part, kernel);
        }
        h.finalize_with(kernel)
    }

    /// RFC 3174 / well-known test vectors.
    #[test]
    fn reference_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (b"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"),
            (b"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            ),
            (
                b"The quick brown fox jumps over the lazy dog",
                "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12",
            ),
            (
                b"The quick brown fox jumps over the lazy cog",
                "de9f2c7fd25e1b3afad3e85a0bd17d9b100db4b3",
            ),
        ];
        for (name, kernel) in kernels() {
            for (input, hex) in cases {
                assert_eq!(
                    digest_parts(kernel, &[input]).to_hex(),
                    *hex,
                    "{name}: input {input:?}"
                );
            }
        }
        for (input, hex) in cases {
            assert_eq!(Sha1::digest(input).to_hex(), *hex, "input {input:?}");
        }
    }

    #[test]
    fn million_a() {
        let chunk = [b'a'; 1000];
        let parts = [&chunk[..]; 1000];
        for (name, kernel) in kernels() {
            assert_eq!(
                digest_parts(kernel, &parts).to_hex(),
                "34aa973cd4c4daa4f61eeb2bdbad27316534016f",
                "{name}"
            );
        }
    }

    #[test]
    fn exact_block_boundary() {
        // 55/56 bytes is where the length stops fitting in the last block;
        // 63..65 and 127/128 straddle whole blocks.
        for n in [55usize, 56, 63, 64, 65, 127, 128] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
            let oracle = digest_parts(compress_blocks_portable, &[&data]);
            let bytewise: Vec<&[u8]> = data.chunks(1).collect();
            for (name, kernel) in kernels() {
                assert_eq!(digest_parts(kernel, &[&data]), oracle, "{name}: length {n}");
                assert_eq!(
                    digest_parts(kernel, &bytewise),
                    oracle,
                    "{name}: length {n}"
                );
            }
            assert_eq!(Sha1::digest(&data), oracle, "length {n}");
        }
    }

    #[test]
    fn debug_shows_progress() {
        let mut h = Sha1::new();
        h.update(b"xyz");
        assert!(format!("{h:?}").contains("bytes_hashed: 3"));
    }

    proptest! {
        /// Incremental hashing over arbitrary split points equals one-shot.
        #[test]
        fn incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                      split in 0usize..2048) {
            let split = split.min(data.len());
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            prop_assert_eq!(h.finalize(), Sha1::digest(&data));
        }

        /// Streaming updates split at random points give the portable
        /// kernel's one-shot digest on every kernel.
        #[test]
        fn kernels_agree_on_streaming(data in proptest::collection::vec(any::<u8>(), 0..20_000),
                                      cuts in proptest::collection::vec(0usize..20_000, 0..8)) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(data.len())).collect();
            cuts.push(0);
            cuts.push(data.len());
            cuts.sort_unstable();
            let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &data[w[0]..w[1]]).collect();
            let oracle = digest_parts(compress_blocks_portable, &[&data]);
            for (name, kernel) in kernels() {
                prop_assert_eq!(digest_parts(kernel, &parts), oracle, "{}", name);
            }
        }

        /// Distinct single-bit flips change the digest (weak avalanche sanity).
        #[test]
        fn bit_flip_changes_digest(data in proptest::collection::vec(any::<u8>(), 1..256),
                                   idx in 0usize..256, bit in 0u8..8) {
            let idx = idx % data.len();
            let mut flipped = data.clone();
            flipped[idx] ^= 1 << bit;
            prop_assert_ne!(Sha1::digest(&data), Sha1::digest(&flipped));
        }
    }
}
