//! The benchmark's one wall-clock read and its sample statistics.

use std::time::Instant;

/// The current monotonic time.
pub fn now() -> Instant {
    // fedrec-lint: allow(wall-clock) — the benchmark times public calls from outside the program; no timestamp reaches a simulated byte
    Instant::now()
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Exact nearest-rank quantile `q ∈ [0, 1]` of `xs` (sorted in place).
/// Panics on an empty sample: every reported metric has at least one.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// Arithmetic mean of `xs`.
pub fn mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty sample");
    let mut total = 0.0;
    for x in xs {
        total += x;
    }
    total / xs.len() as f64
}

/// Median of `xs` (the mean of the two middle values for even counts).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
