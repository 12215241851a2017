//! Online serving throughput over live training snapshots.
//!
//! This is the end-to-end wiring of the serving layer ([`fedrec_serve`])
//! at the headline scale: a million lazily-derived user rows over a
//! 100k-item norm-skewed catalog, a closed-loop request driver, and a
//! rolling snapshot publisher standing in for a training loop that keeps
//! drifting `V`. Every request goes through the real production path —
//! bounded queue, 64-user batching through the blocked kernel over the
//! pruning order, drift-bound candidate caches — and the report carries
//! the numbers the serving layer is accountable for: sustained
//! requests/second, p50/p99 latency, cache hit rate, and epochs-behind.
//!
//! `repro serve` runs it from the CLI; `repro serve --smoke` is the CI
//! shrink that asserts the service invariants (every request answered,
//! caches actually hitting, serving never materializing a user row)
//! without holding CI to machine-dependent absolute numbers.

use fedrec_linalg::{Matrix, SeededGaussianInit, SeededRng, ShardedMatrix};
use fedrec_recsys::UserRowSource;
use fedrec_serve::{ServeConfig, Service, Stamp, SERVE_BATCH};
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};

/// Specification of one serving workload.
#[derive(Debug, Clone)]
pub struct ServeSpec {
    /// Population size `n` (rows derived lazily; serving must never
    /// materialize one).
    pub users: usize,
    /// Catalog size `m`.
    pub items: usize,
    /// Latent dimension `k`.
    pub k: usize,
    /// Ranked items per response.
    pub top_k: usize,
    /// Total requests to drive through the service.
    pub requests: usize,
    /// Serving worker threads.
    pub threads: usize,
    /// Size of the hot user set; 19 of 20 requests cycle through it (the
    /// cache-hit regime), every 20th hits a fresh cold-tail user.
    pub hot_users: usize,
    /// Publish a freshly drifted snapshot every this many submissions
    /// (0 = a single epoch-0 snapshot for the whole run).
    pub publish_every: usize,
    /// Master seed.
    pub seed: u64,
}

impl ServeSpec {
    /// The headline workload: a million users over a 100k-item catalog
    /// at k = 32, 300k requests with a snapshot publish every 50k.
    pub fn million() -> Self {
        Self {
            users: 1_000_000,
            items: 100_000,
            k: 32,
            top_k: 10,
            requests: 300_000,
            threads: 2,
            hot_users: 4_096,
            publish_every: 50_000,
            seed: 42,
        }
    }

    /// The CI-sized shrink: same shape, seconds end to end.
    pub fn smoke() -> Self {
        Self {
            users: 20_000,
            items: 2_000,
            k: 16,
            top_k: 10,
            requests: 30_000,
            threads: 2,
            hot_users: 1_024,
            publish_every: 10_000,
            seed: 42,
        }
    }
}

/// What a serving run measured.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Population size `n`.
    pub users: usize,
    /// Catalog size `m`.
    pub items: usize,
    /// Latent dimension `k`.
    pub k: usize,
    /// Requests driven (and answered — asserted equal).
    pub requests: usize,
    /// Serving worker threads.
    pub threads: usize,
    /// Snapshots published over the run.
    pub publishes: u64,
    /// Sustained requests per second over the serving phase.
    pub req_per_sec: f64,
    /// Median end-to-end latency (submit → reply), microseconds; bucket
    /// upper bound of a log₂ histogram.
    pub p50_us: f64,
    /// 99th-percentile end-to-end latency, microseconds.
    pub p99_us: f64,
    /// Fraction of requests served from a still-valid candidate cache.
    pub hit_rate: f64,
    /// Mean epochs-behind across responses.
    pub mean_epoch_lag: f64,
    /// Worst epochs-behind on any single response.
    pub max_epoch_lag: u64,
    /// Seconds building the catalog, population and service.
    pub build_secs: f64,
    /// Seconds in the serving phase.
    pub serve_secs: f64,
}

impl ServeReport {
    /// Render as a JSON object (hand-rolled; no serde in this workspace).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"users\": {},\n",
                "  \"items\": {},\n",
                "  \"k\": {},\n",
                "  \"requests\": {},\n",
                "  \"threads\": {},\n",
                "  \"publishes\": {},\n",
                "  \"req_per_sec\": {:.0},\n",
                "  \"p50_us\": {:.1},\n",
                "  \"p99_us\": {:.1},\n",
                "  \"hit_rate\": {:.4},\n",
                "  \"mean_epoch_lag\": {:.4},\n",
                "  \"max_epoch_lag\": {},\n",
                "  \"build_secs\": {:.3},\n",
                "  \"serve_secs\": {:.3}\n",
                "}}"
            ),
            self.users,
            self.items,
            self.k,
            self.requests,
            self.threads,
            self.publishes,
            self.req_per_sec,
            self.p50_us,
            self.p99_us,
            self.hit_rate,
            self.mean_epoch_lag,
            self.max_epoch_lag,
            self.build_secs,
            self.serve_secs,
        )
    }
}

/// The user a given submission targets: 19 of 20 cycle the hot set,
/// every 20th walks the cold tail (a user the service has never seen,
/// whose row the sharded store derives without materializing).
fn user_for(submission: usize, hot: usize, users: usize) -> u32 {
    if users > hot && submission % 20 == 19 {
        (hot + (submission / 20) % (users - hot)) as u32
    } else {
        (submission % hot) as u32
    }
}

/// A small deterministic per-user exclusion list (stride-sampled ids),
/// standing in for the requester's already-interacted items.
fn exclusions_for(user: u32, items: usize) -> Vec<u32> {
    ((user as usize % 97)..items)
        .step_by(9_973)
        .map(|i| i as u32)
        .collect()
}

/// Run one serving workload.
///
/// Drives `spec.requests` through a live [`Service`] in a closed loop of
/// lock-step bursts: submit one batch-quantum of requests, then wait for
/// all of its replies before submitting the next. The burst IS the
/// coalescing the batch queue is built for, queue wait stays bounded at
/// one quantum, and at most one thread is runnable at a time — so the
/// latency histogram measures the service, not scheduler contention on
/// small machines. Publishes a drifted snapshot every `publish_every`
/// submissions. Asserts every request is answered and that serving never
/// materialized a user row.
pub fn run_serve(spec: &ServeSpec) -> ServeReport {
    assert!(spec.hot_users > 0 && spec.hot_users <= spec.users);
    // Build/serve wall-times and latency quantiles are the bench payload
    // of the serve report; ranked bytes stay clock-free.
    let t0 = Stamp::now();
    let mut rng = SeededRng::new(spec.seed ^ 0x5E21);
    let mut items = Matrix::random_normal(spec.items, spec.k, 0.0, 0.1, &mut rng);
    // Trained-model norm profile: popular items accumulate updates and
    // grow long factor vectors, which is what lets the pruning order
    // stop miss sweeps after a short high-norm prefix.
    for i in 0..spec.items {
        let scale = ((i + 1) as f32).powf(-0.5);
        for x in &mut items.as_mut_slice()[i * spec.k..(i + 1) * spec.k] {
            *x *= scale;
        }
    }
    let mut parent = SeededRng::new(spec.seed ^ 0xC01D);
    let init = SeededGaussianInit::record(&mut parent, spec.users, 64, 0.0, 0.1);
    let users = Arc::new(ShardedMatrix::new(
        spec.users,
        spec.k,
        4_096,
        Box::new(init),
    ));
    let svc = Arc::new(Service::new(ServeConfig {
        k: spec.top_k,
        queue_cap: 4_096,
        batch: SERVE_BATCH,
    }));
    svc.publish(0, &items);
    let handles = svc.start_workers(
        Arc::clone(&users) as Arc<dyn UserRowSource + Send + Sync>,
        spec.threads,
    );
    let build_secs = t0.elapsed_ns() as f64 / 1e9;

    // Cache warmup: serve every hot user once so the timed phase
    // measures the steady state (hot caches filled, cold-tail misses
    // still arriving at their real 1-in-20 rate), then zero the
    // measurement counters. Without this the first hot_users requests
    // are all first-touch misses and dominate the tail quantiles.
    let (tx, rx) = mpsc::channel();
    let quantum = svc.config().batch.max(1);
    let mut warmed = 0usize;
    while warmed < spec.hot_users {
        let burst = quantum.min(spec.hot_users - warmed);
        for _ in 0..burst {
            let user = warmed as u32;
            assert!(
                svc.submit(user, exclusions_for(user, spec.items), tx.clone()),
                "serve queue closed during warmup"
            );
            warmed += 1;
        }
        for _ in 0..burst {
            rx.recv().expect("service dropped a warmup reply");
        }
    }
    svc.stats().reset_measurements();

    let t1 = Stamp::now();
    let mut submitted = 0usize;
    let mut received = 0usize;
    let mut epoch = 0u64;
    while received < spec.requests {
        let burst = quantum.min(spec.requests - submitted);
        for _ in 0..burst {
            if spec.publish_every > 0
                && submitted > 0
                && submitted.is_multiple_of(spec.publish_every)
            {
                // Stand-in for one training round: a small uniform drift
                // that preserves the ranking, so drift-bound caches keep
                // proving themselves valid across the publish.
                epoch += 1;
                for x in items.as_mut_slice() {
                    *x *= 1.001;
                }
                svc.publish(epoch, &items);
            }
            let user = user_for(submitted, spec.hot_users, spec.users);
            assert!(
                svc.submit(user, exclusions_for(user, spec.items), tx.clone()),
                "serve queue closed mid-run"
            );
            submitted += 1;
        }
        for _ in 0..burst {
            let resp = rx.recv().expect("service dropped a reply");
            assert!(
                resp.top.len() <= spec.top_k,
                "response overflowed top_k: {}",
                resp.top.len()
            );
            received += 1;
        }
    }
    let serve_secs = t1.elapsed_ns() as f64 / 1e9;
    svc.close();
    for h in handles {
        h.join().expect("serving worker panicked");
    }

    let stats = svc.stats();
    let answered = stats.requests.load(Ordering::Relaxed);
    assert_eq!(answered, spec.requests as u64, "request count mismatch");
    assert_eq!(
        users.materialized_rows(),
        0,
        "serving materialized user rows"
    );
    let us = |q: f64| -> f64 { stats.latency.quantile_ns(q).unwrap_or(0) as f64 / 1_000.0 };
    ServeReport {
        users: spec.users,
        items: spec.items,
        k: spec.k,
        requests: spec.requests,
        threads: spec.threads,
        publishes: svc.publish_count(),
        req_per_sec: spec.requests as f64 / serve_secs.max(1e-9),
        p50_us: us(0.5),
        p99_us: us(0.99),
        hit_rate: stats.hit_rate(),
        mean_epoch_lag: stats.mean_epoch_lag(),
        max_epoch_lag: stats.epoch_lag_max.load(Ordering::Relaxed),
        build_secs,
        serve_secs,
    }
}

/// The `repro serve --smoke` CI gate.
///
/// Runs the CI shrink and asserts the service-shape invariants that hold
/// on any machine: every request answered (checked inside [`run_serve`]),
/// zero user rows materialized by serving (ditto), the expected number of
/// snapshot publishes, and a cache hit rate that proves the drift-bound
/// reuse path is actually engaging under a drifting publisher. Absolute
/// throughput and latency are reported, not gated — they belong to
/// `BENCH_serve.json`, not CI.
pub fn serve_smoke() -> Result<String, String> {
    let spec = ServeSpec::smoke();
    let r = run_serve(&spec);
    let expected_publishes = 1 + (spec.requests - 1) as u64 / spec.publish_every as u64;
    if r.publishes != expected_publishes {
        return Err(format!(
            "expected {expected_publishes} snapshot publishes, saw {}",
            r.publishes
        ));
    }
    if r.hit_rate < 0.5 {
        return Err(format!(
            "cache hit rate {:.3} too low: the drift-bound reuse path is not engaging \
             (hot set of {} users cycled {} times under a ranking-preserving publisher)",
            r.hit_rate,
            spec.hot_users,
            spec.requests / spec.hot_users.max(1)
        ));
    }
    if r.max_epoch_lag > r.publishes {
        return Err(format!(
            "impossible epoch lag {} with {} publishes",
            r.max_epoch_lag, r.publishes
        ));
    }
    Ok(format!(
        "serve smoke OK: {} requests over {} users / {} items answered at {:.0} req/s \
         ({} threads), p50 {:.1} us, p99 {:.1} us, hit rate {:.3}, {} publishes, \
         max epoch lag {}, zero user rows materialized",
        r.requests,
        r.users,
        r.items,
        r.req_per_sec,
        r.threads,
        r.p50_us,
        r.p99_us,
        r.hit_rate,
        r.publishes,
        r.max_epoch_lag,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ServeSpec {
        ServeSpec {
            users: 2_000,
            items: 400,
            k: 8,
            top_k: 10,
            requests: 2_000,
            threads: 2,
            hot_users: 128,
            publish_every: 700,
            seed: 11,
        }
    }

    #[test]
    fn tiny_serve_run_reports_hits_publishes_and_stays_cold() {
        let r = run_serve(&tiny_spec());
        assert_eq!(r.requests, 2_000);
        assert_eq!(r.publishes, 3, "publishes at submissions 700 and 1400");
        assert!(r.hit_rate > 0.3, "hit rate {:.3}", r.hit_rate);
        assert!(r.req_per_sec > 0.0 && r.serve_secs > 0.0);
        let json = r.to_json();
        assert!(json.contains("\"req_per_sec\""));
        assert!(json.contains("\"hit_rate\""));
    }

    #[test]
    fn request_mix_walks_hot_set_and_cold_tail() {
        let hot = 128usize;
        let users = 2_000usize;
        let mut cold_seen = std::collections::BTreeSet::new();
        for s in 0..2_000 {
            let u = user_for(s, hot, users) as usize;
            if s % 20 == 19 {
                assert!(u >= hot, "submission {s} should be cold");
                cold_seen.insert(u);
            } else {
                assert!(u < hot, "submission {s} should be hot");
            }
        }
        assert_eq!(cold_seen.len(), 100, "cold users never repeat in-range");
    }
}
