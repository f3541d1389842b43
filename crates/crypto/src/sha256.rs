//! SHA-256, implemented from scratch (FIPS 180-4).
//!
//! Used for every digest in the reproduction: message digests, Merkle tree
//! nodes, checkpoint digests, key fingerprints. The original PBFT library used
//! MD5 in this role; SHA-256 is a drop-in structural replacement (the paper's
//! §3.3.1 explicitly calls for stronger primitives than the library shipped).
//!
//! The compression function has two backends with bit-identical output. On
//! x86_64 CPUs with the SHA extensions (SHA-NI) it runs on the
//! `sha256rnds2`/`sha256msg1`/`sha256msg2` instructions; the choice is made
//! at run time by CPU feature detection and nothing else. Everywhere else the
//! portable compressor runs; it is also the test oracle for the SHA-NI one.

use std::fmt;

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

/// A 256-bit digest.
///
/// Implements `Ord` so digests can key `BTreeMap`s (deterministic iteration
/// matters for protocol determinism) and `Display` as lowercase hex.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// The all-zero digest, used as a sentinel for "no digest".
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Digest of `data` in one shot.
    pub fn of(data: &[u8]) -> Digest {
        sha256(data)
    }

    /// Digest of the concatenation of several byte slices, without allocating.
    pub fn of_parts(parts: &[&[u8]]) -> Digest {
        let mut h = Sha256::new();
        for p in parts {
            h.update(p);
        }
        h.finish()
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// First 8 bytes as a big-endian u64 — handy for logging and for the
    /// simulated RSA message representative.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }

    /// Short hex prefix for human-readable traces.
    pub fn short(&self) -> String {
        self.0[..4].iter().map(|b| format!("{b:02x}")).collect()
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({})", self.short())
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

impl From<[u8; 32]> for Digest {
    fn from(b: [u8; 32]) -> Self {
        Digest(b)
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Incremental SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(data, compress);
    }

    /// Finalize and return the digest. Consumes the hasher.
    pub fn finish(self) -> Digest {
        self.finish_with(compress)
    }

    /// [`Sha256::update`] over the given compressor, which is handed every
    /// full block of `data` in one call.
    fn update_with(&mut self, data: &[u8], compress: fn(&mut [u32; 8], &[u8])) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            compress(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, rest) = data.split_at(data.len() / 64 * 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// [`Sha256::finish`] over the given compressor.
    fn finish_with(mut self, compress: fn(&mut [u32; 8], &[u8])) -> Digest {
        // Padding: 0x80, zeros, 8-byte big-endian bit length; one block, or
        // two when the length no longer fits behind the buffered bytes.
        let mut tail = [0u8; 128];
        tail[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
        tail[self.buf_len] = 0x80;
        let tail_len = if self.buf_len < 56 { 64 } else { 128 };
        let bit_len = self.total_len.wrapping_mul(8);
        tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &tail[..tail_len]);
        let mut out = [0u8; 32];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        Digest(out)
    }
}

/// Compress `blocks` (a whole number of 64-byte blocks) into `state` with
/// the fastest backend this CPU supports.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    #[cfg(target_arch = "x86_64")]
    if shani::compress(state, blocks) {
        return;
    }
    compress_portable(state, blocks);
}

/// The portable compressor: FIPS 180-4 §6.2.2, one block at a time.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().expect("4 bytes"));
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
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod shani;

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    fn hex(d: &Digest) -> String {
        d.to_string()
    }

    /// SHA-256 on the portable compressor, whatever this CPU supports.
    fn sha256_portable(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update_with(data, compress_portable);
        h.finish_with(compress_portable)
    }

    /// Both backends: the dispatcher (SHA-NI where the CPU has it) and the
    /// portable compressor.
    const BACKENDS: [fn(&[u8]) -> Digest; 2] = [sha256, sha256_portable];

    fn check_vector(data: &[u8], want: &str) {
        for (i, hash) in BACKENDS.iter().enumerate() {
            assert_eq!(hex(&hash(data)), want, "backend {i}");
        }
    }

    #[test]
    fn empty_vector() {
        check_vector(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        check_vector(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        check_vector(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn quick_brown_fox() {
        check_vector(
            b"The quick brown fox jumps over the lazy dog",
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592",
        );
    }

    #[test]
    fn million_a() {
        check_vector(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 127, 999] {
            let mut h = Sha256::new();
            let mut p = Sha256::new();
            for c in data.chunks(chunk) {
                h.update(c);
                p.update_with(c, compress_portable);
            }
            assert_eq!(h.finish(), sha256(&data), "chunk size {chunk}");
            assert_eq!(
                p.finish_with(compress_portable),
                sha256(&data),
                "portable, chunk size {chunk}"
            );
        }
    }

    #[test]
    fn of_parts_matches_concat() {
        let a = b"hello ".to_vec();
        let b = b"world".to_vec();
        let mut cat = a.clone();
        cat.extend_from_slice(&b);
        assert_eq!(Digest::of_parts(&[&a, &b]), sha256(&cat));
    }

    #[test]
    fn digest_helpers() {
        let d = sha256(b"x");
        assert_eq!(d.short().len(), 8);
        assert_ne!(d.prefix_u64(), 0);
        assert_eq!(Digest::ZERO.prefix_u64(), 0);
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    #[test]
    fn boundary_lengths() {
        // Exercise padding across the 55/56/63/64 byte boundaries.
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120, 121] {
            let data = vec![0xabu8; len];
            let mut h = Sha256::new();
            h.update(&data[..len / 2]);
            h.update(&data[len / 2..]);
            let want = h.finish();
            assert_eq!(want, sha256(&data), "len {len}");
            assert_eq!(want, sha256_portable(&data), "portable, len {len}");
        }
    }

    /// The SHA-NI compressor against the portable one on pseudo-random
    /// states and runs of one to four blocks (a run carries the state from
    /// block to block inside the SHA-NI loop).
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_portable() {
        let mut probe = H0;
        if !shani::compress(&mut probe, &[0; 64]) {
            eprintln!("no SHA-NI on this CPU; differential test skipped");
            return;
        }
        let mut rng = SplitMix64::new(0x5348_414e);
        let mut data = vec![0u8; 4 * 64];
        for case in 0..4000 {
            let mut state = [0u32; 8];
            for s in &mut state {
                *s = rng.next_u64() as u32;
            }
            let blocks = 64 * (1 + case % 4);
            rng.fill_bytes(&mut data[..blocks]);
            let mut want = state;
            compress_portable(&mut want, &data[..blocks]);
            let mut got = state;
            assert!(shani::compress(&mut got, &data[..blocks]));
            assert_eq!(got, want, "case {case}");
        }
    }
}
