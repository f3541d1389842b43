//! A machine-speed probe for the wall clock.
//!
//! Shared VMs change speed by tens of percent for seconds at a time (on the
//! 2-core VM this benchmark was built on, between about 130 and 210 µs of
//! CPU per `null_write` op), which swamps most changes to the code. The
//! probe is a fixed mini-workload of the three kinds of work the replicas
//! do — SHA-256-shaped compression rounds, small allocations churned
//! through a hash map, and bulk copies into fresh buffers — written here so
//! that no change to the libraries can alter it. Timed next to each sample
//! of the workload, it rescales that sample to a machine on which the probe
//! takes [`NOMINAL_PROBE_US`]. The README gives the spreads it was measured
//! to remove.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// The probe time, in µs, that defines nominal machine speed: a round
/// figure near the probe's typical time on that VM.
pub const NOMINAL_PROBE_US: f64 = 500.0;

/// Run the probe once and return how long it took, in µs.
pub fn probe_us() -> f64 {
    let t = Instant::now();
    black_box(hash_rounds(black_box(400)));
    black_box(alloc_churn(black_box(600)));
    black_box(bulk_copies(black_box(8)));
    t.elapsed().as_nanos() as f64 / 1e3
}

/// How much slower than nominal the machine ran, from probes taken around a
/// sample: divide a wall time by it to get nominal time.
pub fn slowdown(probe_us: f64) -> f64 {
    probe_us / NOMINAL_PROBE_US
}

/// `ops` allocations of 64–575 bytes inserted into, and half of them
/// removed from, a map of 512 slots.
fn alloc_churn(ops: u64) -> u64 {
    let mut map: HashMap<u64, Vec<u8>> = HashMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0u64;
    for i in 0..ops {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = vec![(x & 0xff) as u8; 64 + (x % 512) as usize];
        acc = acc.wrapping_add(v.len() as u64);
        map.insert(x % 512, v);
        if i % 2 == 0 {
            if let Some(v) = map.remove(&(x.rotate_left(7) % 512)) {
                acc ^= u64::from(v[0]);
            }
        }
    }
    acc ^ map.len() as u64
}

/// `n` copies of a 256 KiB buffer into freshly allocated ones.
fn bulk_copies(n: usize) -> u64 {
    let src = vec![7u8; 256 * 1024];
    let mut acc = 0u64;
    for i in 0..n {
        let mut dst = vec![0u8; src.len()];
        dst.copy_from_slice(&src);
        dst[i] = i as u8;
        acc = acc.wrapping_add(u64::from(black_box(&dst)[i * 1000]));
    }
    acc
}

/// `blocks` rounds of a SHA-256-shaped compression over a fixed block.
fn hash_rounds(blocks: u32) -> u32 {
    let mut w = [0u32; 16];
    for (i, x) in w.iter_mut().enumerate() {
        *x = (i as u32).wrapping_mul(0x9e37_79b9);
    }
    let mut h: [u32; 8] = [
        0x6a09_e667,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    for _ in 0..blocks {
        for r in 0..64 {
            let s1 = h[4].rotate_right(6) ^ h[4].rotate_right(11) ^ h[4].rotate_right(25);
            let ch = (h[4] & h[5]) ^ (!h[4] & h[6]);
            let t1 = h[7]
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(w[r & 15]);
            let s0 = h[0].rotate_right(2) ^ h[0].rotate_right(13) ^ h[0].rotate_right(22);
            let maj = (h[0] & h[1]) ^ (h[0] & h[2]) ^ (h[1] & h[2]);
            h = [
                t1.wrapping_add(s0).wrapping_add(maj),
                h[0],
                h[1],
                h[2],
                h[3].wrapping_add(t1),
                h[4],
                h[5],
                h[6],
            ];
            w[r & 15] = w[r & 15].wrapping_add(s0);
        }
    }
    h[0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_probe_is_deterministic_and_takes_time() {
        assert_eq!(hash_rounds(3), hash_rounds(3));
        assert_ne!(hash_rounds(3), hash_rounds(4));
        assert_eq!(alloc_churn(100), alloc_churn(100));
        assert_eq!(bulk_copies(2), bulk_copies(2));
        assert!(probe_us() > 0.0);
        assert_eq!(slowdown(NOMINAL_PROBE_US), 1.0);
    }
}
