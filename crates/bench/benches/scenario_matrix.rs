//! Throughput of the scenario-matrix fan-out: a fixed attack×defense×ρ
//! grid run through `run_matrix_collect` (the IO-free path, so the bench
//! measures simulation + defense + evaluation, not disk) at increasing
//! worker counts. Measured numbers are recorded in
//! BENCH_scenario_matrix.json at the repository root. Single-cell cost,
//! including the detector-gated pipeline, is measured by the repository
//! benchmark (`perfbench`, workload `ncf-random-gated`).

use criterion::{criterion_group, criterion_main, Criterion};
use fedrec_baselines::registry::AttackMethod;
use fedrec_experiments::matrix::{run_matrix_collect, DefenseKind};
use fedrec_experiments::{MatrixConfig, Scale};
use std::hint::black_box;
use std::time::Duration;

/// 3 attacks × 3 defenses × 2 ρ = 18 cells at 4 epochs each.
fn grid(workers: usize) -> MatrixConfig {
    MatrixConfig {
        attacks: vec![
            AttackMethod::None,
            AttackMethod::Random,
            AttackMethod::FedRecAttack,
        ],
        defenses: vec![
            DefenseKind::None,
            DefenseKind::TrimmedMean,
            DefenseKind::DetectorGated,
        ],
        rhos: vec![0.0, 0.05],
        eval_every: 2,
        epochs: Some(4),
        workers,
        ..MatrixConfig::new(Scale::Smoke, 5)
    }
}

fn bench_matrix_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario_matrix");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(10));
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut counts = vec![1usize];
    for t in [2, 4, 8] {
        if t <= hw && !counts.contains(&t) {
            counts.push(t);
        }
    }
    for &w in &counts {
        let cfg = grid(w);
        g.bench_function(format!("grid18/workers/{w}"), |b| {
            b.iter(|| black_box(run_matrix_collect(&cfg)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_matrix_fanout);
criterion_main!(benches);
