//! Order statistics for timings: medians, quartiles and the tail rule.

/// Median of `xs` (mean of the middle pair for even lengths); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(xs, n=4)` (the "exclusive" method), so
/// spreads read the same here and in any script that checks them. Needs
/// at least two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(xs);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative (extrapolating below the first value) for tiny samples.
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// A tail percentile of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile (e.g. `99.0`).
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Samples strictly beyond it.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Percentiles the tail rule may report, in tenths, highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// The highest percentile of [`TAIL_LADDER`] with at least ten samples
/// beyond it (nearest-rank), or `None` when even the median has fewer.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let s = sorted(xs);
    let n = s.len();
    TAIL_LADDER.iter().find_map(|&p| {
        // ceil(p/1000 * n) in integers, so 99.9% of 10 000 is exactly 9990.
        let rank = (p * n).div_ceil(1000);
        (rank >= 1 && n - rank >= 10).then(|| Tail {
            percentile: p as f64 / 10.0,
            value: s[rank - 1],
            beyond: n - rank,
            samples: n,
        })
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}
