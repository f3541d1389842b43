//! Wall-clock calibration of the `pbft_crypto` primitives, printed beside
//! the `CostModel` constant the simulator charges for each.

use std::hint::black_box;
use std::time::Instant;

use harness::CostModel;
use pbft_crypto::auth::MacKey;
use pbft_crypto::hmac::hmac_sha256;
use pbft_crypto::{sha256, KeyPair};

use crate::stats::median;

/// Request and reply size of the null workloads, in bytes.
const OP_BYTES: usize = 1024;

/// Measured wall-clock cost of each primitive.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// Fast MAC of a 1 KiB request, ns (model: `mac_us` per MAC).
    pub mac_wall_ns: f64,
    /// HMAC-SHA-256 of a 1 KiB message, ns (key derivation, challenges).
    pub hmac_wall_ns: f64,
    /// SHA-256 over 1 KiB, ns per KiB (model: `digest_us_per_kb`).
    pub sha256_wall_ns_per_kib: f64,
    /// Signing a 64-byte message, µs (model: `sign_us`).
    pub sign_wall_us: f64,
    /// Verifying that signature, µs (model: `sig_verify_us`).
    pub verify_wall_us: f64,
}

/// Median nanoseconds per call of `f`, over seven batches of at least
/// `min_batch_ns` each.
fn ns_per_call(min_batch_ns: u128, mut f: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        if t.elapsed().as_nanos() >= min_batch_ns {
            break;
        }
        iters *= 2;
    }
    let batches: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&batches)
}

/// Time every primitive (about a tenth of a second in total).
pub fn calibrate() -> Calibration {
    const BATCH_NS: u128 = 2_000_000;
    let data = vec![0xabu8; OP_BYTES];
    let key = MacKey::new([7u8; 32]);
    let mac_wall_ns = ns_per_call(BATCH_NS, || {
        black_box(key.mac(black_box(&data), 1));
    });
    let hmac_wall_ns = ns_per_call(BATCH_NS, || {
        black_box(hmac_sha256(black_box(&[9u8; 32]), black_box(&data)));
    });
    let sha256_wall_ns_per_kib = ns_per_call(BATCH_NS, || {
        black_box(sha256(black_box(&data)));
    }) * 1024.0
        / OP_BYTES as f64;
    let kp = KeyPair::generate(1);
    let msg = [0x5au8; 64];
    let sign_wall_us = ns_per_call(BATCH_NS, || {
        black_box(kp.sign(black_box(&msg)));
    }) / 1e3;
    let sig = kp.sign(&msg);
    let public = kp.public();
    let verify_wall_us = ns_per_call(BATCH_NS, || {
        black_box(public.verify(black_box(&msg), &sig)).expect("valid signature");
    }) / 1e3;
    Calibration {
        mac_wall_ns,
        hmac_wall_ns,
        sha256_wall_ns_per_kib,
        sign_wall_us,
        verify_wall_us,
    }
}

impl Calibration {
    /// One line per primitive: measured cost, the model's constant in the
    /// same unit, and their ratio.
    pub fn describe(&self, model: &CostModel) -> Vec<String> {
        let rows = [
            (
                "crypto.mac_wall_ns",
                self.mac_wall_ns,
                "mac_us",
                model.mac_us * 1e3,
            ),
            (
                "crypto.hmac_wall_ns",
                self.hmac_wall_ns,
                "mac_us",
                model.mac_us * 1e3,
            ),
            (
                "crypto.sha256_wall_ns_per_kib",
                self.sha256_wall_ns_per_kib,
                "digest_us_per_kb",
                model.digest_us_per_kb * 1e3,
            ),
            (
                "crypto.sign_wall_us",
                self.sign_wall_us,
                "sign_us",
                model.sign_us,
            ),
            (
                "crypto.verify_wall_us",
                self.verify_wall_us,
                "sig_verify_us",
                model.sig_verify_us,
            ),
        ];
        rows.iter()
            .map(|(name, wall, constant, modelled)| {
                format!(
                    "calibration {name:<30} {wall:>10.1}   model {constant:<17} {modelled:>8.1} \
                     (same unit)   wall/model {:.3}",
                    wall / modelled
                )
            })
            .collect()
    }
}
