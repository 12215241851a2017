//! Serving kernel: one inline cache hit and one inline cache miss of the
//! online top-K service (`fedrec-serve`), in isolation. The served bytes
//! are identical to the offline evaluator on the pinned snapshot (gated
//! by the serve identity proptests and the `repro matrix --smoke` serve
//! gate); this bench measures only how fast one request is answered.
//! End-to-end serving throughput and latency — every cell's inline
//! serving phase and the queued `serve-million` workload — are measured
//! by the repository benchmark (`perfbench/`). Measured numbers are
//! recorded in BENCH_serve.json at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use fedrec_linalg::{Matrix, SeededRng};
use fedrec_serve::{ServeConfig, Service};
use std::hint::black_box;
use std::time::Duration;

/// A served catalog with the trained-model power-law norm profile
/// (popular items grow long factor vectors), the regime the pruning
/// order exploits on miss sweeps.
fn skewed_catalog(items: usize, k: usize, seed: u64) -> Matrix {
    let mut rng = SeededRng::new(seed);
    let mut v = Matrix::random_normal(items, k, 0.0, 0.1, &mut rng);
    for i in 0..items {
        let scale = ((i + 1) as f32).powf(-0.5);
        for x in &mut v.as_mut_slice()[i * k..(i + 1) * k] {
            *x *= scale;
        }
    }
    v
}

/// The inline serving path, hit and miss, over a 100k-item catalog at
/// k = 32 (the million preset's per-request kernel, minus the queue).
fn bench_serve_kernel(c: &mut Criterion) {
    const ITEMS: usize = 100_000;
    const K: usize = 32;
    let items = skewed_catalog(ITEMS, K, 42);
    let mut rng = SeededRng::new(7);
    let users = Matrix::random_normal(4_096, K, 0.0, 0.1, &mut rng);
    let svc = Service::new(ServeConfig {
        k: 10,
        queue_cap: 64,
        batch: 64,
    });
    svc.publish(0, &items);

    let mut g = c.benchmark_group("serve_kernel");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(200));
    g.measurement_time(Duration::from_secs(2));

    // Warm user 0's candidate cache, then re-serve it: drift is zero, so
    // every request revalidates against the drift bound and reranks the
    // cached candidates (~CAND_K dots of k = 32).
    svc.serve_inline(0, &[], &users).expect("published");
    g.bench_function("cache_hit_100k_items", |b| {
        b.iter(|| black_box(svc.serve_inline(black_box(0), &[], &users)))
    });

    // An exclusion list that changes every call: each request misses
    // (cached entries only revalidate against an identical exclusion
    // set) and runs the bound-pruned sweep over the 100k-item catalog.
    let half = ITEMS as u32 / 2;
    let mut tick = 0u32;
    g.bench_function("cache_miss_100k_items", |b| {
        b.iter(|| {
            tick = tick.wrapping_add(1);
            let ex = [tick % half, half + tick.wrapping_mul(0x9E37_79B9) % half];
            black_box(svc.serve_inline(black_box(1), &ex, &users))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_serve_kernel);
criterion_main!(benches);
