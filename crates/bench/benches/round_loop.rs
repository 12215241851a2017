//! The headline bench of the parallel round engine: one full federated
//! round over 1,000 clients and a 2,000-item catalog at `k = 32`,
//! sequential versus sharded across worker threads, plus the two hot-path
//! micro-comparisons this PR optimizes (scatter-add aggregation versus the
//! per-update fold, and the pooled zero-alloc client round versus the
//! allocating one). Measured numbers are recorded in BENCH_round_loop.json
//! at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use fedrec_data::synthetic::SyntheticConfig;
use fedrec_federated::client::{BenignClient, RoundScratch};
use fedrec_federated::{FedConfig, NoAttack, Simulation};
use fedrec_linalg::{Matrix, SeededRng, SparseGrad};
use std::hint::black_box;
use std::time::Duration;

const USERS: usize = 1_000;
const ITEMS: usize = 2_000;
const K: usize = 32;

fn dataset() -> fedrec_data::Dataset {
    SyntheticConfig {
        name: "round-loop",
        num_users: USERS,
        num_items: ITEMS,
        num_interactions: 30_000,
        zipf_exponent: 0.9,
        user_activity_exponent: 0.7,
    }
    .generate(7)
}

fn cfg(threads: usize) -> FedConfig {
    FedConfig {
        k: K,
        threads,
        epochs: 1,
        ..FedConfig::default()
    }
}

fn bench_round_loop(c: &mut Criterion) {
    let data = dataset();
    let mut g = c.benchmark_group("federated_round_loop");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(5));
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize];
    for t in [2, 4, 8] {
        if t <= hw {
            counts.push(t);
        }
    }
    if !counts.contains(&hw) {
        counts.push(hw);
    }
    for &t in &counts {
        let mut sim = Simulation::new(&data, cfg(t), Box::new(NoAttack), 0);
        let mut epoch = 0usize;
        g.bench_function(format!("threads/{t}"), |b| {
            b.iter(|| {
                let loss = sim.step_faulted(epoch).0;
                epoch += 1;
                black_box(loss)
            })
        });
    }
    g.finish();
}

/// Scatter-add server aggregation vs the historical per-update
/// `add_assign` fold, over a round's worth of realistic sparse uploads.
fn bench_aggregation_paths(c: &mut Criterion) {
    let mut rng = SeededRng::new(11);
    let updates: Vec<SparseGrad> = (0..USERS)
        .map(|_| {
            let mut items: Vec<u32> = (0..30).map(|_| rng.below(ITEMS) as u32).collect();
            items.sort_unstable();
            items.dedup();
            let mut g = SparseGrad::with_capacity(K, items.len());
            for &i in &items {
                let row: Vec<f32> = (0..K).map(|_| rng.normal(0.0, 0.1)).collect();
                g.push_sorted(i, &row);
            }
            g
        })
        .collect();

    let mut g = c.benchmark_group("round_loop_aggregation");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("scatter_add", |b| {
        b.iter(|| black_box(SparseGrad::sum_all(&updates, K)))
    });
    g.bench_function("fold_add_assign", |b| {
        b.iter(|| {
            let mut total = SparseGrad::new(K);
            for u in &updates {
                total.add_assign(u);
            }
            black_box(total)
        })
    });
    g.finish();
}

/// Pooled (zero-alloc) client round vs the allocating convenience path.
fn bench_client_round_paths(c: &mut Criterion) {
    let data = dataset();
    let mut rng = SeededRng::new(13);
    let items = Matrix::random_normal(ITEMS, K, 0.0, 0.1, &mut rng);
    let mut alloc_client =
        BenignClient::new(0, data.user_items(0).to_vec(), ITEMS, K, &mut rng.fork(1));
    let mut pooled_client =
        BenignClient::new(0, data.user_items(0).to_vec(), ITEMS, K, &mut rng.fork(1));
    let mut scratch = RoundScratch::new();
    let mut out = SparseGrad::new(K);

    let mut g = c.benchmark_group("round_loop_client");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(3));
    g.bench_function("allocating", |b| {
        b.iter(|| black_box(alloc_client.local_round(&items, 0.01, 0.0, 1.0, 0.0)))
    });
    g.bench_function("pooled", |b| {
        b.iter(|| {
            black_box(pooled_client.local_round_into(
                &items,
                0.01,
                0.0,
                1.0,
                0.0,
                &mut scratch,
                &mut out,
            ))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_round_loop,
    bench_aggregation_paths,
    bench_client_round_paths
);
criterion_main!(benches);
