//! A UMAC-style fast message authentication code with 64-bit tags.
//!
//! The PBFT library replaced per-message public-key signatures with
//! *authenticators* built from UMAC32 tags — the single most important
//! optimization in the system (Table 1 of the paper shows a ~16x throughput
//! swing). This module provides the structural equivalent: a polynomial
//! universal hash over the prime field `2^61 - 1`, encrypted with an
//! HMAC-derived pad. It is a few multiplications per 8 message bytes, i.e.
//! orders of magnitude cheaper than a signature, which is exactly the cost
//! asymmetry the paper's experiments depend on.
//!
//! Two details keep a tag at that cost:
//!
//! * **Cached pads.** The pad depends only on the key and the nonce. The
//!   protocol uses two nonces, 0 (requests and multicast) and 1 (replies), so
//!   [`FastMacKey::from_session_key`] derives those two pads once and every
//!   MAC under them skips the HMAC. Any other nonce derives its pad per call.
//! * **Mersenne folding.** Each Horner step is a 64×64→128-bit multiply,
//!   reduced without division: since `2^61 ≡ 1 (mod P)`, the bits above 61
//!   are folded onto the low 61, and a final conditional subtraction brings
//!   the accumulator to canonical form in `[0, P)`. Full 16-byte pieces take
//!   two steps at once (`acc * point^2 + l0 * point + l1`), which halves the
//!   multiply chain. Every intermediate value is the canonical residue, so
//!   the tag is the same as one step at a time with a division per limb.

use crate::hmac::derive_key;

/// The Mersenne prime 2^61 - 1.
const P: u64 = (1 << 61) - 1;

/// A 64-bit MAC tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Mac64(pub u64);

impl Mac64 {
    /// Tag bytes in big-endian order (for the wire codec).
    pub fn to_bytes(self) -> [u8; 8] {
        self.0.to_be_bytes()
    }

    /// Parse a tag from wire bytes.
    pub fn from_bytes(b: [u8; 8]) -> Self {
        Mac64(u64::from_be_bytes(b))
    }
}

/// Keyed fast MAC. Cheap to construct from a 32-byte session key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastMacKey {
    /// Evaluation point for the polynomial hash, in `[1, P-1]`.
    point: u64,
    /// `point^2 mod P`, for two Horner steps at once.
    point_sq: u64,
    /// Pad key for encrypting the hash output.
    pad_key: [u8; 32],
    /// The pads of nonces 0 and 1, derived from `pad_key` at construction.
    cached_pads: [u64; 2],
}

/// The pad that encrypts the hash under `nonce`.
fn derive_pad(pad_key: &[u8; 32], nonce: u64) -> u64 {
    limb(&derive_key(pad_key, "pad", &nonce.to_be_bytes()))
}

/// `x mod P` in canonical form, for `x < 2^124`.
///
/// Since `2^61 ≡ 1 (mod P)`, the bits above 61 fold onto the low 61: the
/// first fold leaves less than `2^61 + 2^63`, the second at most `P + 4`,
/// and one conditional subtraction finishes the reduction.
#[inline(always)]
fn reduce(x: u128) -> u64 {
    let y = (x as u64 & P) + (x >> 61) as u64;
    let y = (y & P) + (y >> 61);
    if y >= P {
        y - P
    } else {
        y
    }
}

/// One Horner step, `(acc * point + limb) mod P`. With `acc` and `point`
/// below `P < 2^61` the operand stays below `2^122 + 2^64`.
#[inline(always)]
fn horner_step(acc: u64, point: u64, limb: u64) -> u64 {
    reduce(u128::from(acc) * u128::from(point) + u128::from(limb))
}

/// Two Horner steps at once, `(acc * point^2 + l0 * point + l1) mod P`.
///
/// Only the `acc * point_sq` product is on the chain from one call to the
/// next, so two limbs cost about one step's latency. `l0` is folded below
/// `2^61 + 8` first, which keeps the sum below `2^123 + 2^65`.
#[inline(always)]
fn horner_pair(acc: u64, point: u64, point_sq: u64, l0: u64, l1: u64) -> u64 {
    let l0 = (l0 & P) + (l0 >> 61);
    reduce(
        u128::from(acc) * u128::from(point_sq)
            + u128::from(l0) * u128::from(point)
            + u128::from(l1),
    )
}

/// The little-endian limb in the first 8 bytes of `b`.
fn limb(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

impl FastMacKey {
    /// Derive a fast-MAC key from 32 bytes of session key material.
    pub fn from_session_key(session_key: &[u8; 32]) -> Self {
        let point_bytes = derive_key(session_key, "fastmac-point", b"");
        let pad_key = derive_key(session_key, "fastmac-pad", b"");
        // Map into [1, P-1].
        let point = (limb(&point_bytes) % (P - 1)) + 1;
        let cached_pads = [derive_pad(&pad_key, 0), derive_pad(&pad_key, 1)];
        FastMacKey {
            point,
            point_sq: horner_step(point, point, 0),
            pad_key,
            cached_pads,
        }
    }

    /// MAC `msg`, mixing in a `nonce` that callers use for domain separation
    /// (PBFT uses distinct nonces for request vs reply directions).
    pub fn mac(&self, msg: &[u8], nonce: u64) -> Mac64 {
        // Polynomial evaluation: treat msg as 8-byte little-endian limbs
        // (with the final partial limb zero-padded and the length appended so
        // that ("ab", "") and ("a", "b...") cannot collide).
        let point = self.point;
        let mut acc = 1; // distinguishes empty message from zero limbs
        let mut pairs = msg.chunks_exact(16);
        for c in pairs.by_ref() {
            acc = horner_pair(acc, point, self.point_sq, limb(c), limb(&c[8..]));
        }
        let mut chunks = pairs.remainder().chunks_exact(8);
        for c in chunks.by_ref() {
            acc = horner_step(acc, point, limb(c));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut last = [0u8; 8];
            last[..rem.len()].copy_from_slice(rem);
            acc = horner_step(acc, point, limb(&last));
        }
        acc = horner_step(acc, point, msg.len() as u64);
        acc = horner_step(acc, point, nonce);
        // Encrypt the 61-bit hash with an HMAC-derived pad keyed by the nonce.
        let pad = match nonce {
            0 | 1 => self.cached_pads[nonce as usize],
            _ => derive_pad(&self.pad_key, nonce),
        };
        Mac64(acc ^ pad)
    }

    /// Verify a tag.
    pub fn verify(&self, msg: &[u8], nonce: u64, tag: Mac64) -> bool {
        self.mac(msg, nonce) == tag
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(b: u8) -> FastMacKey {
        FastMacKey::from_session_key(&[b; 32])
    }

    /// `MacKey::mac` tags under the key `[0x5a; 32]`, captured from the
    /// reference implementation (a full HMAC pad derivation per call and a
    /// `u128 % P` reduction per limb). Rows are `(length, all-0xff message,
    /// tags for nonces [0, 1, 2, u64::MAX])`; the other messages are the
    /// pattern `(i * 31 + 7) as u8`. All-`0xff` limbs exceed `P`, so every
    /// Horner step of those rows starts above the top of the field.
    #[rustfmt::skip]
    const GOLDEN: [(usize, bool, [u64; 4]); 14] = [
        (0, false, [0x7e2a73a14302344a, 0x4c66e42eb6235d87, 0x1730c2272f946c96, 0x0e305d70ea37c084]),
        (0, true, [0x7e2a73a14302344a, 0x4c66e42eb6235d87, 0x1730c2272f946c96, 0x0e305d70ea37c084]),
        (7, false, [0x7121279646a8746d, 0x436db019b3891da2, 0x183b96102a3e2cb5, 0x013b0947ef9d80a1]),
        (7, true, [0x7a4ce5dc6bd32c54, 0x480072539ef24599, 0x1356545a0745748c, 0x0a56cb0dc2e6d88e]),
        (8, false, [0x7d6ab65959cfe4b5, 0x4f2621d6acee8d7a, 0x147007df3559bc6d, 0x0d709888f0fa1069]),
        (8, true, [0x666764a5a39fc755, 0x542bf32a56beae9a, 0x0f7dd523cf099f8d, 0x167d4a740aaa3389]),
        (9, false, [0x79f97d5fbcbc02a1, 0x4bb5ead0499d6b6e, 0x10e3ccd9d02a5a79, 0x09e3538e1589f65d]),
        (9, true, [0x619fc062e2f3106b, 0x53d357ed17d279a0, 0x088571e48e6548b7, 0x1185eeb34bc6e4a7]),
        (32, false, [0x75d62a9a0005ef3e, 0x479abd15f52486f3, 0x1ccc9b1c6c93b7ea, 0x05cc044ba9301bf0]),
        (32, true, [0x7decdb9f6ef6a867, 0x4fa04c109bd7c194, 0x14f66a190260f083, 0x0df6f54ec7c35c9b]),
        (33, false, [0x742c74c4dcc7b0cb, 0x4660e34b29e6d900, 0x1d36c542b051e817, 0x04365a1575f24407]),
        (33, true, [0x770896643f588758, 0x454401ebca79ee95, 0x1e1227e253cedf80, 0x0712b8b5966d739a]),
        (1024, false, [0x78f53f2441848e93, 0x4ab9a8abb4a5e758, 0x11ef8ea22d12d64f, 0x08ef11f5e8b17a4f]),
        (1024, true, [0x6c9175078a6c6056, 0x5edde2887f4d099b, 0x058bc481e6fa3892, 0x1c8b5bd623599488]),
    ];

    #[test]
    fn golden_tags() {
        let key = crate::auth::MacKey::new([0x5a; 32]);
        for (len, all_ff, tags) in GOLDEN {
            let msg: Vec<u8> = (0..len)
                .map(|i| if all_ff { 0xff } else { (i * 31 + 7) as u8 })
                .collect();
            for (nonce, want) in [0, 1, 2, u64::MAX].into_iter().zip(tags) {
                assert_eq!(
                    key.mac(&msg, nonce),
                    Mac64(want),
                    "len {len}, all_ff {all_ff}, nonce {nonce}"
                );
            }
        }
    }

    #[test]
    fn horner_steps_match_division() {
        // Operands at the field's edges and pseudo-random ones, checked
        // against `u128 % P`. For each `(acc, point)` pair the limbs include
        // those that leave the low 61 bits of `acc * point + limb` all ones
        // under every high part, where the first fold peaks above `2P`.
        let p = u128::from(P);
        let mut rng = crate::rng::SplitMix64::new(61);
        let mut operands = vec![0, 1, 2, P - 2, P - 1];
        operands.extend((0..20).map(|_| rng.next_below(P)));
        for &acc in &operands {
            for &point in &operands {
                let (a, x) = (u128::from(acc), u128::from(point));
                let low = (a * x) as u64 & P;
                let tops = (0..8).map(|hi| (P - low) | (hi << 61));
                let edges = [0, 1, P - 1, P, P + 1, u64::MAX - 1, u64::MAX];
                let limbs: Vec<u64> = edges.into_iter().chain(tops).collect();
                for &l0 in &limbs {
                    let want = (a * x + u128::from(l0)) % p;
                    let got = horner_step(acc, point, l0);
                    assert_eq!(
                        u128::from(got),
                        want,
                        "step: acc {acc}, point {point}, limb {l0}"
                    );
                    let point_sq = horner_step(point, point, 0);
                    let l1 = rng.next_u64();
                    let want = ((a * x + u128::from(l0)) % p * x + u128::from(l1)) % p;
                    let got = horner_pair(acc, point, point_sq, l0, l1);
                    assert_eq!(
                        u128::from(got),
                        want,
                        "pair: acc {acc}, point {point}, limbs {l0} {l1}"
                    );
                }
            }
        }
    }

    #[test]
    fn roundtrip() {
        let k = key(1);
        let tag = k.mac(b"hello world", 7);
        assert!(k.verify(b"hello world", 7, tag));
    }

    #[test]
    fn detects_modification() {
        let k = key(1);
        let tag = k.mac(b"hello world", 7);
        assert!(!k.verify(b"hello worle", 7, tag));
        assert!(!k.verify(b"hello worl", 7, tag));
        assert!(!k.verify(b"hello world", 8, tag));
    }

    #[test]
    fn different_keys_different_tags() {
        let t1 = key(1).mac(b"msg", 0);
        let t2 = key(2).mac(b"msg", 0);
        assert_ne!(t1, t2);
    }

    #[test]
    fn length_extension_resistant() {
        let k = key(3);
        // "ab" + "" vs "a" + "b" style collisions on the limb boundary.
        let t1 = k.mac(b"\x00\x00\x00\x00\x00\x00\x00\x00", 0);
        let t2 = k.mac(b"\x00\x00\x00\x00\x00\x00\x00", 0);
        let t3 = k.mac(b"", 0);
        assert_ne!(t1, t2);
        assert_ne!(t2, t3);
        assert_ne!(t1, t3);
    }

    #[test]
    fn wire_roundtrip() {
        let t = key(4).mac(b"x", 1);
        assert_eq!(Mac64::from_bytes(t.to_bytes()), t);
    }

    #[test]
    fn empty_message_has_tag() {
        let k = key(5);
        let t = k.mac(b"", 42);
        assert!(k.verify(b"", 42, t));
    }
}
