//! Movie-recommendation scenario: how much prior knowledge and how many
//! malicious users does the attacker actually need?
//!
//! Reproduces the spirit of Tables III and IV on the MovieLens-100K-like
//! dataset: sweeps the proportion of public interactions ξ and the
//! proportion of malicious users ρ independently, printing ER@10 for
//! every point. The paper's headline — the attack needs only a sliver of
//! public data but a critical mass (~3 %) of malicious clients — shows up
//! directly in the output.
//!
//! Run with: `cargo run --release --example movielens_sweep`

use fedrecattack::baselines::registry::{build_adversary, AttackEnv};
use fedrecattack::prelude::*;

fn er10_for(train: &Dataset, test: &fedrecattack::data::split::TestSet, xi: f64, rho: f64) -> f64 {
    let targets = train.coldest_items(1);
    let num_malicious = ((train.num_users() as f64) * rho).round() as usize;
    let env = AttackEnv::over_dataset(train, &targets)
        .malicious(num_malicious)
        .kappa(60)
        .k(16)
        .seed(13)
        .public(xi, 11);
    let adversary = build_adversary(AttackMethod::FedRecAttack, &env);
    let fed = FedConfig {
        epochs: 60,
        ..FedConfig::smoke()
    };
    let mut sim = Simulation::new(train, fed, adversary, num_malicious);
    sim.run();
    let evaluator = Evaluator::new(train, test, &targets, 17);
    evaluator
        .evaluate(sim.items(), sim.user_rows(), train, test)
        .attack
        .er_at_10
}

fn main() {
    let data = SyntheticConfig::smoke().generate(7);
    let (train, test) = leave_one_out(&data, 1);

    println!("== sweep xi (public-interaction proportion), rho fixed at 5% ==");
    for xi in [0.01, 0.02, 0.05, 0.10, 0.25] {
        let er = er10_for(&train, &test, xi, 0.05);
        println!("  xi = {:>5.1}%   ER@10 = {er:.4}", xi * 100.0);
    }

    println!("\n== sweep rho (malicious-user proportion), xi fixed at 5% ==");
    for rho in [0.01, 0.02, 0.03, 0.05, 0.10] {
        let er = er10_for(&train, &test, 0.05, rho);
        println!("  rho = {:>4.1}%   ER@10 = {er:.4}", rho * 100.0);
    }

    println!(
        "\nPattern to look for (mirrors paper Tables III & IV): ER@10 \
         saturates quickly in xi but needs rho past a critical mass."
    );
}
