//! Deep-learning recommender scenario: attacking a federated NCF.
//!
//! §III-B of the paper covers the case where the interaction function Υ
//! is a neural network whose parameters Θ are shared alongside V; §IV
//! notes that poisoning Θ directly is "possibly a simpler and more
//! effective attack method" but not generic. This example runs both
//! options against the federated NCF and prints what each achieves:
//!
//! * FedRecAttack-on-NCF (poison V only, through the MLP jacobians);
//! * the Θ-boost shortcut (poison the shared MLP).
//!
//! Run with: `cargo run --release --example ncf_attack`

use fedrecattack::data::split::leave_one_out;
use fedrecattack::data::synthetic::SyntheticConfig;
use fedrecattack::data::PublicView;
use fedrecattack::federated::server::SumAggregator;
use fedrecattack::federated::{
    Adversary, DefensePipeline, FedConfig, NoAttack, Simulation, StoreBackend,
};
use fedrecattack::ncf::attack::{NcfFedRecAttack, ThetaBoostAttack};
use fedrecattack::ncf::{NcfClientModel, NcfModel, Theta};
use fedrecattack::recsys::eval::{EvalReport, Evaluator};
use std::sync::Arc;

/// Hidden width of the interaction MLP.
const HIDDEN: usize = 16;

fn main() {
    let data = SyntheticConfig::smoke().generate(51);
    let (train, test) = leave_one_out(&data, 5);
    let train = Arc::new(train);
    let targets = train.coldest_items(1);
    let malicious = train.num_users() / 10; // rho = 10%
    let cfg = FedConfig {
        k: 8,
        lr: 0.05,
        epochs: 100,
        ..FedConfig::default()
    };
    println!(
        "federated NCF: k={}, hidden={HIDDEN}, {} users, target item {:?}, rho=10%\n",
        cfg.k,
        train.num_users(),
        targets
    );

    let evaluator = Evaluator::new(&*train, &test, &targets, 3);
    let run = |adversary: Box<dyn Adversary>, num_malicious: usize| -> EvalReport {
        let mut sim = Simulation::with_model(
            train.clone(),
            cfg,
            Box::new(NcfClientModel::new(HIDDEN, cfg.k)),
            adversary,
            num_malicious,
            DefensePipeline::plain(Box::new(SumAggregator)),
            StoreBackend::Dense,
        );
        sim.run();
        // Every user, in a single shard.
        let n = train.num_users();
        let theta = Theta::from_shared(cfg.k, sim.shared());
        let items = sim.items();
        let score =
            |row: &[f32], out: &mut [f32]| NcfModel::scores_for_vector(&theta, items, row, out);
        evaluator
            .evaluate_user_range_scored(
                items.rows(),
                sim.user_rows(),
                &*train,
                &test,
                0..n,
                1,
                n,
                score,
            )
            .0
    };

    let clean_rep = run(Box::new(NoAttack), 0);
    let public = PublicView::sample(&*train, 0.05, 2);
    let v_rep = run(
        Box::new(NcfFedRecAttack::new(targets.clone(), public, malicious, 7)),
        malicious,
    );
    let t_rep = run(
        Box::new(ThetaBoostAttack::new(targets.clone(), malicious, 20.0, 9)),
        malicious,
    );

    println!("attack                     ER@10    NDCG@10   HR@10");
    println!("----------------------------------------------------");
    for (name, rep) in [
        ("none                    ", clean_rep),
        ("FedRecAttack (poison V) ", v_rep),
        ("Theta boost (poison MLP)", t_rep),
    ] {
        println!(
            "{name}  {:>6.4}   {:>6.4}   {:>6.4}",
            rep.attack.er_at_10, rep.attack.ndcg_at_10, rep.hr_at_10
        );
    }
    println!(
        "\nReading: poisoning V transfers FedRecAttack to the deep model \
         (the paper's generality claim); poisoning the shared MLP shifts \
         scores but struggles to retarget *rankings* — one measured reason \
         the paper calls that route non-generic."
    );
}
