//! Ablation benches for the design choices DESIGN.md calls out.
//!
//! Unlike the table benches (which time artifact regeneration), these
//! print the *measured effect* of each design choice once per run and
//! time the underlying experiment:
//!
//! * `g_function` — the saturating surrogate of Eq. 14 vs a plain hinge.
//!   The paper credits `g` for the negligible side effects; the hinge
//!   variant should buy little extra exposure while costing accuracy.
//! * `frozen_item_sets` — Eq. 21 freezes each malicious client's item
//!   set at first participation; the refresh variant re-samples per
//!   round (stronger uploads, churning profile = conspicuous).

use criterion::{criterion_group, criterion_main, Criterion};
use fedrec_attack::loss::Surrogate;
use fedrec_attack::{AttackConfig, FedRecAttack};
use fedrec_bench::smoke_fixture;
use fedrec_data::PublicView;
use fedrec_federated::{FedConfig, Simulation};
use fedrec_recsys::eval::Evaluator;
use std::hint::black_box;
use std::time::Duration;

fn run_variant(surrogate: Surrogate, refresh: bool) -> (f64, f64) {
    let (train, test, targets) = smoke_fixture(42);
    let malicious = train.num_users() / 20;
    let public = PublicView::sample(&train, 0.05, 2);
    let mut cfg = AttackConfig::new(targets.clone());
    cfg.surrogate = surrogate;
    cfg.refresh_item_sets = refresh;
    let attack = FedRecAttack::new(cfg, public, malicious);
    let fed = FedConfig {
        k: 16,
        lr: 0.05,
        epochs: 60,
        ..FedConfig::default()
    };
    let mut sim = Simulation::new(&train, fed, Box::new(attack), malicious);
    sim.run(None);
    let evaluator = Evaluator::new(&train, &test, &targets, 3);
    let rep = evaluator.evaluate(sim.items(), sim.user_rows(), &train, &test);
    (rep.attack.er_at_10, rep.hr_at_10)
}

fn bench_ablations(c: &mut Criterion) {
    // Print the measured ablation effects once, so `cargo bench` output
    // doubles as the ablation report.
    let (er_sat, hr_sat) = run_variant(Surrogate::Saturating, false);
    let (er_hinge, hr_hinge) = run_variant(Surrogate::Hinge, false);
    let (er_refresh, hr_refresh) = run_variant(Surrogate::Saturating, true);
    println!("\n=== ablation report (smoke scale, rho=5%, xi=5%) ===");
    println!("variant                      ER@10    HR@10");
    println!("paper (g, frozen sets)      {er_sat:.4}   {hr_sat:.4}");
    println!("hinge surrogate             {er_hinge:.4}   {hr_hinge:.4}");
    println!("refreshed item sets         {er_refresh:.4}   {hr_refresh:.4}");
    println!("====================================================\n");

    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(500));
    g.measurement_time(Duration::from_secs(8));
    g.bench_function("g_function/saturating", |b| {
        b.iter(|| black_box(run_variant(Surrogate::Saturating, false)))
    });
    g.bench_function("g_function/hinge", |b| {
        b.iter(|| black_box(run_variant(Surrogate::Hinge, false)))
    });
    g.bench_function("frozen_item_sets/refresh", |b| {
        b.iter(|| black_box(run_variant(Surrogate::Saturating, true)))
    });
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
