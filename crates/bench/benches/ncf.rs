//! Benches for the NCF extension: forward/backward kernels and the
//! federated NCF round, clean and under attack.

use criterion::{criterion_group, criterion_main, Criterion};
use fedrec_bench::micro_fixture;
use fedrec_data::{Dataset, PublicView};
use fedrec_federated::server::SumAggregator;
use fedrec_federated::{Adversary, DefensePipeline, FedConfig, NoAttack, Simulation, StoreBackend};
use fedrec_linalg::{Matrix, SeededRng};
use fedrec_ncf::attack::NcfFedRecAttack;
use fedrec_ncf::{NcfClientModel, NcfModel, Theta};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

fn bench_kernels(c: &mut Criterion) {
    let mut rng = SeededRng::new(1);
    let theta = Theta::init(16, 8, &mut rng);
    let u: Vec<f32> = (0..8).map(|_| rng.normal(0.0, 0.3)).collect();
    let v: Vec<f32> = (0..8).map(|_| rng.normal(0.0, 0.3)).collect();
    c.bench_function("ncf/forward", |b| {
        b.iter(|| black_box(NcfModel::forward_vec(&theta, &u, &v)))
    });
    let fwd = NcfModel::forward_vec(&theta, &u, &v);
    c.bench_function("ncf/backward", |b| {
        b.iter(|| black_box(NcfModel::backward(&theta, &fwd, 1.0)))
    });
    let items = Matrix::random_normal(500, 8, 0.0, 0.3, &mut rng);
    let pairs: Vec<(u32, u32)> = (0..25).map(|i| (i as u32, (i + 100) as u32)).collect();
    c.bench_function("ncf/bpr_round_25_pairs", |b| {
        b.iter(|| black_box(NcfModel::bpr_round(&theta, &items, &u, &pairs)))
    });
}

/// Ten undefended NCF rounds (k = 8, hidden 16) over `train`.
fn run_ncf(train: &Arc<Dataset>, adversary: Box<dyn Adversary>, num_malicious: usize) -> Vec<f32> {
    let cfg = FedConfig {
        k: 8,
        lr: 0.05,
        epochs: 10,
        ..FedConfig::default()
    };
    let mut sim = Simulation::with_model(
        train.clone(),
        cfg,
        Box::new(NcfClientModel::new(16, cfg.k)),
        adversary,
        num_malicious,
        DefensePipeline::plain(Box::new(SumAggregator)),
        StoreBackend::Dense,
    );
    sim.run(None).losses
}

fn bench_simulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("ncf_simulation");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(8));
    let (train, _, targets) = micro_fixture(3);
    let train = Arc::new(train);
    g.bench_function("clean_10_epochs", |b| {
        b.iter(|| black_box(run_ncf(&train, Box::new(NoAttack), 0)))
    });
    g.bench_function("attacked_10_epochs", |b| {
        b.iter(|| {
            let public = PublicView::sample(&*train, 0.05, 2);
            let attack = NcfFedRecAttack::new(targets.clone(), public, 3, 7);
            black_box(run_ncf(&train, Box::new(attack), 3))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_kernels, bench_simulation);
criterion_main!(benches);
