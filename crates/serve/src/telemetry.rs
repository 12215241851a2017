//! Latency instrumentation for the serving layer, and the workspace's
//! one production clock.
//!
//! This module is the **only** place in the workspace's production crates
//! allowed to touch the wall clock (`fedrec-lint` carves out a path
//! exemption for it): serving latency is inherently a wall-clock quantity.
//! Every other observational timing reads the clock through [`Stamp`]
//! too — the matrix's volatile `eval_ms` record field, the serve report's
//! build and serve wall-times, and `repro`'s progress lines on stderr — so
//! no other production file needs a wall-clock suppression. The
//! measurements are strictly observational — nothing downstream of a
//! timestamp feeds back into scoring, ranking, or any identity-gated
//! experiment byte, so the determinism contract is untouched.
//!
//! The histogram is log₂-bucketed over nanoseconds with lock-free atomic
//! counters: recording from many serving threads never serializes, and
//! quantile queries are exact to within one power-of-two bucket.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Number of log₂ buckets: `2^63` ns ≈ 292 years comfortably covers any
/// latency this side of a hung process.
const BUCKETS: usize = 64;

/// A monotonic timestamp: when a request entered the system, or when an
/// observational timing started.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Instant);

impl Stamp {
    /// Timestamp "now".
    pub fn now() -> Self {
        Self(Instant::now())
    }

    /// Nanoseconds elapsed since this stamp (saturating at `u64::MAX`).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Lock-free log₂-bucketed latency histogram (nanoseconds).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Record one latency sample.
    pub fn record_ns(&self, ns: u64) {
        // ilog2 of 0 is undefined; clamp to bucket 0.
        let b = if ns == 0 { 0 } else { ns.ilog2() as usize };
        self.buckets[b.min(BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        let mut total = 0u64;
        for b in &self.buckets {
            total += b.load(Ordering::Relaxed);
        }
        total
    }

    /// Zero every bucket (benchmark warmup/steady-state separation).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// The upper bound (ns) of the bucket containing quantile `q` in
    /// `[0, 1]`; `None` on an empty histogram. Exact to within one
    /// power-of-two bucket, which is plenty for p50/p99 reporting.
    pub fn quantile_ns(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= target {
                return Some(if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                });
            }
        }
        Some(u64::MAX)
    }
}

/// Aggregate serving counters, all lock-free.
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests answered (all paths).
    pub requests: AtomicU64,
    /// Requests served from a still-valid candidate cache.
    pub cache_hits: AtomicU64,
    /// Snapshot publishes.
    pub publishes: AtomicU64,
    /// Scoring batches driven through the blocked kernel.
    pub batches: AtomicU64,
    /// Summed epochs-behind across responses (staleness numerator).
    pub epoch_lag_sum: AtomicU64,
    /// Worst epochs-behind observed on any single response.
    pub epoch_lag_max: AtomicU64,
    /// End-to-end request latency (submit → reply).
    pub latency: LatencyHistogram,
}

impl ServeStats {
    /// Fresh zeroed stats.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zero every counter except `publishes` (the snapshot count is
    /// service state, not a measurement). Benchmarks call this between
    /// the cache-warmup pass and the timed steady-state phase so the
    /// reported quantiles describe a warm service.
    pub fn reset_measurements(&self) {
        self.requests.store(0, Ordering::Relaxed);
        self.cache_hits.store(0, Ordering::Relaxed);
        self.batches.store(0, Ordering::Relaxed);
        self.epoch_lag_sum.store(0, Ordering::Relaxed);
        self.epoch_lag_max.store(0, Ordering::Relaxed);
        self.latency.reset();
    }

    /// Record one response's epoch lag.
    pub fn record_lag(&self, lag: u64) {
        self.epoch_lag_sum.fetch_add(lag, Ordering::Relaxed);
        self.epoch_lag_max.fetch_max(lag, Ordering::Relaxed);
    }

    /// Cache hit rate in `[0, 1]` (0 when nothing served yet).
    pub fn hit_rate(&self) -> f64 {
        let req = self.requests.load(Ordering::Relaxed);
        if req == 0 {
            return 0.0;
        }
        self.cache_hits.load(Ordering::Relaxed) as f64 / req as f64
    }

    /// Mean epochs-behind per response (0 when nothing served yet).
    pub fn mean_epoch_lag(&self) -> f64 {
        let req = self.requests.load(Ordering::Relaxed);
        if req == 0 {
            return 0.0;
        }
        self.epoch_lag_sum.load(Ordering::Relaxed) as f64 / req as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = LatencyHistogram::new();
        for ns in [100u64, 200, 400, 100_000] {
            h.record_ns(ns);
        }
        assert_eq!(h.count(), 4);
        let p50 = h.quantile_ns(0.5).unwrap();
        assert!((200..1024).contains(&p50), "p50={p50}");
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!(p99 >= 100_000, "p99={p99}");
        assert!(h.quantile_ns(0.0).unwrap() >= 100);
    }

    #[test]
    fn histogram_handles_zero_and_empty() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ns(0.5), None);
        h.record_ns(0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_ns(0.5).is_some());
    }

    #[test]
    fn stats_rates() {
        let s = ServeStats::new();
        assert_eq!(s.hit_rate(), 0.0);
        s.requests.store(4, Ordering::Relaxed);
        s.cache_hits.store(1, Ordering::Relaxed);
        s.record_lag(2);
        s.record_lag(0);
        assert_eq!(s.hit_rate(), 0.25);
        assert_eq!(s.epoch_lag_max.load(Ordering::Relaxed), 2);
        assert_eq!(s.mean_epoch_lag(), 0.5);
    }
}
