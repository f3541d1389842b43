//! Cryptographic substrate for the PBFT reproduction, implemented from
//! scratch.
//!
//! The original PBFT library (Castro & Liskov, 1999) shipped with its own
//! implementations of the Rabin cryptosystem (asymmetric signatures), UMAC32
//! (fast message authentication) and MD5 (digests). This crate plays the same
//! role for the reproduction:
//!
//! * [`mod@sha256`] — a real SHA-256 implementation used for all digests
//!   (standing in for MD5, which is broken and adds nothing to the protocol).
//!   It dispatches at run time to the x86_64 SHA extensions (SHA-NI) where
//!   the CPU has them, with a portable fallback; both give the same digests.
//! * [`hmac`] — HMAC-SHA256, used for key derivation and strong MACs.
//! * [`fastmac`] — a UMAC-style polynomial MAC producing 64-bit tags; this is
//!   the cheap per-receiver MAC that PBFT authenticators are built from. Each
//!   key caches the pads of the protocol's two nonces.
//! * [`sig`] — an RSA signature scheme over small (64-bit) moduli with real
//!   modular arithmetic, standing in for Rabin-768. The key size is
//!   simulation-grade, not production-grade; see the module docs.
//! * [`auth`] — PBFT *authenticators*: one fast MAC per receiving replica.
//! * [`threshold`] — an (f+1, n) threshold signature scheme built on Shamir
//!   secret sharing, the mechanism the paper (§3.3.1) proposes for
//!   replica-side key material.
//! * [`challenge`] — the challenge–response helpers used by the dynamic
//!   client membership Join protocol (paper §3.1).
//!
//! Everything here is deterministic given explicit seeds, which is what makes
//! the protocol-level experiments reproducible. The speed of these kernels
//! does not enter the experiments' virtual clock: the harness charges every
//! digest, MAC and signature by its cost model, from operation counts.
//!
//! The only `unsafe` code is the SHA-NI compressor, in a private module of
//! [`mod@sha256`]; the rest of the crate denies it.

#![deny(unsafe_code)]

pub mod auth;
pub mod challenge;
pub mod fastmac;
pub mod hmac;
pub mod rng;
pub mod sha256;
pub mod sig;
pub mod threshold;

pub use auth::{Authenticator, MacKey};
pub use fastmac::Mac64;
pub use sha256::{sha256, Digest, Sha256};
pub use sig::{KeyPair, PublicKey, SigError, Signature};

/// Convenience alias used throughout the workspace for digest bytes.
pub type DigestBytes = [u8; 32];
