//! Quickstart: attack a federated recommender in ~50 lines.
//!
//! Trains a federated MF recommender twice on the same (synthetic
//! MovieLens-100K-like) data — once clean, once under FedRecAttack with
//! ρ = 5 % malicious clients and ξ = 5 % public interactions — and prints
//! the exposure ratio of a cold target item plus the recommendation
//! accuracy for both runs.
//!
//! Run with: `cargo run --release --example quickstart`

use fedrecattack::prelude::*;

fn main() {
    // A miniature dataset with MovieLens-like statistics; swap in
    // `fedrecattack::data::loader::load_movielens_100k(path)` if you have
    // the real file.
    let data = SyntheticConfig::smoke().generate(7);
    let (train, test) = leave_one_out(&data, 1);
    let targets = train.coldest_items(1);
    println!(
        "dataset: {} users, {} items, {} interactions; target item {:?}",
        train.num_users(),
        train.num_items(),
        train.num_interactions(),
        targets
    );

    let fed = FedConfig {
        epochs: 60,
        ..FedConfig::smoke()
    };
    let evaluator = Evaluator::new(&train, &test, &targets, 3);

    // Clean run.
    let mut clean = Simulation::new(&train, fed, Box::new(NoAttack), 0);
    clean.run();
    let clean_rep = evaluator.evaluate(clean.items(), clean.user_rows(), &train, &test);

    // Attacked run: the attacker sees 5 % of interactions (likes,
    // follows, comments...) and controls 5 % of the clients.
    let malicious = train.num_users() / 20;
    let public = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious);
    let mut sim = Simulation::new(&train, fed, Box::new(attack), malicious);
    sim.run();
    let rep = evaluator.evaluate(sim.items(), sim.user_rows(), &train, &test);

    println!("\n               clean      attacked");
    println!(
        "ER@10      {:>8.4}   {:>8.4}   <- target exposure",
        clean_rep.attack.er_at_10, rep.attack.er_at_10
    );
    println!(
        "NDCG@10    {:>8.4}   {:>8.4}",
        clean_rep.attack.ndcg_at_10, rep.attack.ndcg_at_10
    );
    println!(
        "HR@10      {:>8.4}   {:>8.4}   <- accuracy (side effects)",
        clean_rep.hr_at_10, rep.hr_at_10
    );
    println!(
        "\nThe attack pushed a zero-exposure item into ~{:.0}% of users' \
         top-10 lists while recommendation accuracy barely moved.",
        rep.attack.er_at_10 * 100.0
    );
}
