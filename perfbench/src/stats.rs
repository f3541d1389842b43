//! Order statistics used by the report.

/// The smallest number of samples a reported tail quantile must leave
/// beyond it. A p99 over 300 samples would rest on three values; instead the
/// report falls back to the highest quantile that still has this many
/// samples above it, and says which quantile it reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// A quantile as actually reported: the value and the quantile it was taken
/// at, in basis points (9900 = p99).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at the reported quantile.
    pub value: u64,
    /// The quantile the value was taken at, in basis points.
    pub at_bp: u64,
}

/// The nearest-rank quantile `want_bp` (basis points) of `sorted`, lowered
/// to the highest quantile with at least [`MIN_TAIL_SAMPLES`] samples beyond
/// it. `None` when there are too few samples for any such quantile.
pub fn tail_quantile(sorted: &[u64], want_bp: u64) -> Option<Quantile> {
    let n = sorted.len() as u64;
    let tail = MIN_TAIL_SAMPLES as u64;
    if n <= tail {
        return None;
    }
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    // Rank r (1-based) leaves n - r samples beyond it; the nearest-rank
    // quantile q has rank ceil(q * n).
    let max_rank = n - tail;
    let rank = (want_bp * n).div_ceil(10_000).clamp(1, max_rank);
    let at_bp = if rank < (want_bp * n).div_ceil(10_000) {
        rank * 10_000 / n
    } else {
        want_bp
    };
    Some(Quantile {
        value: sorted[rank as usize - 1],
        at_bp,
    })
}

/// Median of a non-empty list (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_a_known_ramp() {
        let ramp: Vec<u64> = (1..=1000).collect();
        let p50 = tail_quantile(&ramp, 5000).unwrap();
        assert_eq!(
            p50,
            Quantile {
                value: 500,
                at_bp: 5000
            }
        );
        let p99 = tail_quantile(&ramp, 9900).unwrap();
        assert_eq!(
            p99,
            Quantile {
                value: 990,
                at_bp: 9900
            }
        );
        // Exactly ten samples (991..=1000) lie beyond the p99.
        assert_eq!(ramp.iter().filter(|&&x| x > p99.value).count(), 10);
    }

    #[test]
    fn thin_tails_fall_back_to_the_highest_supported_quantile() {
        let ramp: Vec<u64> = (1..=100).collect();
        // p99 of 100 samples would leave one beyond it: report p90 instead.
        let q = tail_quantile(&ramp, 9900).unwrap();
        assert_eq!(
            q,
            Quantile {
                value: 90,
                at_bp: 9000
            }
        );
        assert_eq!(ramp.iter().filter(|&&x| x > q.value).count(), 10);
        // The median is unaffected.
        assert_eq!(tail_quantile(&ramp, 5000).unwrap().value, 50);
        // 500 samples: p99 leaves 5 beyond, so p98 is the highest allowed.
        let ramp: Vec<u64> = (1..=500).collect();
        assert_eq!(
            tail_quantile(&ramp, 9900).unwrap(),
            Quantile {
                value: 490,
                at_bp: 9800
            }
        );
    }

    #[test]
    fn too_few_samples_report_nothing() {
        assert_eq!(tail_quantile(&[], 5000), None);
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(tail_quantile(&ten, 5000), None);
        let eleven: Vec<u64> = (1..=11).collect();
        assert_eq!(tail_quantile(&eleven, 9900).unwrap().value, 1);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
