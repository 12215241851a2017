//! Platform-operator scenario: what does a promotion attack look like in
//! the catalog-health dashboard?
//!
//! A real platform doesn't see ER@K of the attacker's secret target set —
//! it sees aggregate dashboards. This example trains clean and attacked
//! models and prints the operator-visible metrics: catalog coverage,
//! exposure Gini, precision/recall on held-out interactions, and the
//! top-5 most-recommended items. The attack's fingerprint: a formerly
//! dead item storms the most-recommended chart and the Gini ticks up,
//! while precision barely moves — stealthy to accuracy monitoring,
//! visible to exposure auditing.
//!
//! Run with: `cargo run --release --example exposure_audit`

use fedrecattack::prelude::*;
use fedrecattack::recsys::ranking;

fn audit(model: &MfModel, train: &Dataset, test: &fedrecattack::data::split::TestSet) {
    let num_items = train.num_items();
    let relevant: Vec<Vec<u32>> = (0..train.num_users())
        .map(|u| test[u].map(|t| vec![t]).unwrap_or_default())
        .collect();
    let dash = ranking::dashboard(
        train.num_users(),
        num_items,
        10,
        |u, out| model.scores_for_user(u, out),
        |u| train.user_items(u),
        |u| relevant[u].as_slice(),
    );
    // Count per-item recommendations for the leaderboard.
    let mut counts = vec![0u32; num_items];
    let mut scores = vec![0.0f32; num_items];
    for u in 0..train.num_users() {
        model.scores_for_user(u, &mut scores);
        for v in fedrecattack::recsys::topk::top_k_excluding(&scores, train.user_items(u), 10) {
            counts[v as usize] += 1;
        }
    }
    let mut leaderboard: Vec<(u32, u32)> = counts
        .iter()
        .enumerate()
        .map(|(v, &c)| (v as u32, c))
        .collect();
    leaderboard.sort_by_key(|&(v, c)| (std::cmp::Reverse(c), v));

    println!(
        "  precision@10 {:.4}   recall@10 {:.4}   coverage {:.3}   gini {:.3}",
        dash.precision, dash.recall, dash.coverage, dash.gini
    );
    print!("  most recommended: ");
    for (v, c) in leaderboard.iter().take(5) {
        let pop = train.item_popularity()[*v as usize];
        print!("#{v}({c} lists, {pop} real interactions)  ");
    }
    println!();
}

fn main() {
    let data = SyntheticConfig::smoke().generate(7);
    let (train, test) = leave_one_out(&data, 1);
    let targets = train.coldest_items(1);
    let fed = FedConfig {
        epochs: 60,
        ..FedConfig::smoke()
    };

    let mut clean = Simulation::new(&train, fed, Box::new(NoAttack), 0);
    clean.run();
    let clean_model = MfModel::from_factors(clean.user_factors(), clean.items().clone());

    let malicious = train.num_users() / 20;
    let public = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious);
    let mut attacked = Simulation::new(&train, fed, Box::new(attack), malicious);
    attacked.run();
    let attacked_model = MfModel::from_factors(attacked.user_factors(), attacked.items().clone());

    println!(
        "target item: #{} ({} real interactions)\n",
        targets[0],
        train.item_popularity()[targets[0] as usize]
    );
    println!("clean model:");
    audit(&clean_model, &train, &test);
    println!("\nattacked model (rho=5%, xi=5%):");
    audit(&attacked_model, &train, &test);
    println!(
        "\nFingerprint: item #{} tops the attacked leaderboard with almost \
         no real interactions behind it — exposure auditing sees what \
         loss/accuracy monitoring misses.",
        targets[0]
    );
}
