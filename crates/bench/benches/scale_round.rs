//! The million-user round benchmark: one federated round over a
//! 1,000,000-user / 100,000-item scale-free population through the
//! sharded client store (~500 participants per round at the default
//! fraction), plus the construction-cost comparison that motivates the
//! store (eager dense build versus checkpoint-only sharded build at
//! 100k users). Measured numbers are recorded in BENCH_scale_round.json
//! at the repository root.

use criterion::{criterion_group, criterion_main, Criterion};
use fedrec_data::scalefree::ScaleFreeConfig;
use fedrec_federated::server::SumAggregator;
use fedrec_federated::{
    DefensePipeline, FedConfig, MfClientModel, NoAttack, Simulation, StoreBackend,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn cfg(users_fraction: f64, k: usize) -> FedConfig {
    FedConfig {
        k,
        lr: 0.01,
        epochs: 1,
        client_fraction: users_fraction,
        ..FedConfig::default()
    }
}

fn sharded_sim(data: ScaleFreeConfig, fraction: f64, k: usize) -> Simulation {
    Simulation::with_model(
        Arc::new(data.generate(7)),
        cfg(fraction, k),
        Box::new(MfClientModel),
        Box::new(NoAttack),
        0,
        DefensePipeline::plain(Box::new(SumAggregator)),
        StoreBackend::sharded(),
    )
}

/// Steady-state sharded round at one million users: ~500 participants,
/// cost O(|U'|) — the population size only shows up through cold
/// materializations of newly-selected clients.
fn bench_million_user_round(c: &mut Criterion) {
    let mut g = c.benchmark_group("scale_round");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(8));
    let mut sim = sharded_sim(ScaleFreeConfig::million(), 0.000_5, 32);
    let mut epoch = 0usize;
    // Prime: the first rounds pay one-time dataset shard generation.
    for _ in 0..3 {
        sim.step_faulted(epoch);
        epoch += 1;
    }
    g.bench_function("sharded_1m_users/round", |b| {
        b.iter(|| {
            let loss = sim.step_faulted(epoch).0;
            epoch += 1;
            black_box(loss)
        })
    });
    g.finish();
    eprintln!(
        "// after benching: {} participants touched, {} rows materialized of 1,000,000",
        sim.participants_touched(),
        sim.rows_materialized()
    );
}

/// Construction cost at 100k users: the eager dense build walks every
/// user; the sharded build only records RNG checkpoints.
fn bench_store_construction(c: &mut Criterion) {
    let data = Arc::new({
        let mut cfg = ScaleFreeConfig::smoke_50k();
        cfg.num_users = 100_000;
        cfg
    });
    let mut g = c.benchmark_group("scale_construction");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(5));
    for (name, backend) in [
        ("dense_100k", StoreBackend::Dense),
        ("sharded_100k", StoreBackend::sharded()),
    ] {
        let data = data.clone();
        g.bench_function(name, |b| {
            b.iter(|| {
                let sim = Simulation::with_model(
                    Arc::new(data.generate(7)),
                    cfg(0.01, 16),
                    Box::new(MfClientModel),
                    Box::new(NoAttack),
                    0,
                    DefensePipeline::plain(Box::new(SumAggregator)),
                    backend,
                );
                black_box(sim.num_benign())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_million_user_round, bench_store_construction);
criterion_main!(benches);
