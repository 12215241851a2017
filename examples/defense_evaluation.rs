//! Defender's-eye view: do byzantine-robust aggregation or anomaly
//! detection stop FedRecAttack?
//!
//! §VI of the paper leaves defenses as future work and predicts they
//! will struggle because honest FR gradients already vary wildly. This
//! example measures that prediction:
//!
//! 1. runs FedRecAttack against five aggregation rules (sum, Krum,
//!    trimmed mean, coordinate median, norm filtering) and prints the
//!    surviving exposure ratio and the collateral accuracy cost;
//! 2. replays one round of uploads through the norm and similarity
//!    detectors and prints their precision/recall at flagging the
//!    malicious clients (offline scoring — training is untouched);
//! 3. attaches the similarity detector to the round loop itself
//!    (`DefensePipeline::gated`): flagged uploads are excluded from
//!    aggregation as training runs, and the per-round detection
//!    trajectory lands in the training history.
//!
//! Run with: `cargo run --release --example defense_evaluation`
//!
//! The full attack × defense × ρ grid version of this example is the
//! `repro matrix` subcommand.

use fedrecattack::defense::{DefensePipeline, NormDetector, SimilarityDetector};
use fedrecattack::federated::adversary::{Adversary, RoundCtx};
use fedrecattack::federated::client::BenignClient;
use fedrecattack::federated::server::{Aggregator, SumAggregator};
use fedrecattack::prelude::*;

fn main() {
    let data = SyntheticConfig::smoke().generate(7);
    let (train, test) = leave_one_out(&data, 1);
    let targets = train.coldest_items(1);
    let rho = 0.05;
    let num_malicious = ((train.num_users() as f64) * rho).round() as usize;
    let fed = FedConfig {
        epochs: 60,
        ..FedConfig::smoke()
    };
    let evaluator = Evaluator::new(&train, &test, &targets, 3);

    println!("== 1. robust aggregation vs FedRecAttack (rho = 5%) ==\n");
    println!("aggregation        ER@10     HR@10");
    println!("------------------------------------");
    let aggregators: Vec<(&str, Box<dyn Aggregator>)> = vec![
        ("sum (no defense)", Box::new(SumAggregator)),
        (
            "krum",
            Box::new(Krum {
                assumed_byzantine: num_malicious,
            }),
        ),
        (
            "trimmed-mean 10%",
            Box::new(TrimmedMean { trim_fraction: 0.1 }),
        ),
        ("median", Box::new(CoordinateMedian)),
        ("norm-bound 3x", Box::new(NormBound { factor: 3.0 })),
    ];
    for (name, agg) in aggregators {
        let public = PublicView::sample(&train, 0.05, 2);
        let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, num_malicious);
        let plain = DefensePipeline::plain(agg);
        let mut sim = Simulation::with_defense(&train, fed, Box::new(attack), num_malicious, plain);
        sim.run();
        let rep = evaluator.evaluate(sim.items(), sim.user_rows(), &train, &test);
        println!(
            "{name:<18} {:>6.4}   {:>6.4}",
            rep.attack.er_at_10, rep.hr_at_10
        );
    }

    println!("\n== 2. per-round detection of poisoned uploads ==\n");
    // Build one round's uploads by hand: benign clients plus the attack.
    let mut rng = SeededRng::new(41);
    let items = Matrix::random_normal(train.num_items(), fed.k, 0.0, 0.1, &mut rng);
    let mut uploads = Vec::new();
    for u in 0..train.num_users() {
        let mut c = BenignClient::new(
            u,
            train.user_items(u).to_vec(),
            train.num_items(),
            fed.k,
            &mut rng,
        );
        if let Some(up) = c.local_round(&items, fed.lr, fed.clip_norm, 0.0) {
            uploads.push(up.item_grads);
        }
    }
    let benign_count = uploads.len();
    let public = PublicView::sample(&train, 0.05, 2);
    let mut attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, num_malicious);
    let selected: Vec<usize> = (0..num_malicious).collect();
    let ctx = RoundCtx {
        round: 0,
        lr: fed.lr,
        clip_norm: fed.clip_norm,
        selected_malicious: &selected,
    };
    uploads.extend(attack.poison(&items, &ctx, &mut rng));
    let malicious_idx: Vec<usize> = (benign_count..uploads.len()).collect();

    let norm = NormDetector::new(3.0).inspect(&uploads);
    let sim = SimilarityDetector {
        cosine_threshold: 0.9,
        min_pairs: 2,
    }
    .inspect(&uploads);
    println!("detector     flagged   recall   precision");
    println!("-------------------------------------------");
    println!(
        "norm z>3     {:>7}   {:>6.2}   {:>9.2}",
        norm.flagged.len(),
        norm.recall(&malicious_idx),
        norm.precision(&malicious_idx)
    );
    println!(
        "similarity   {:>7}   {:>6.2}   {:>9.2}",
        sim.flagged.len(),
        sim.recall(&malicious_idx),
        sim.precision(&malicious_idx)
    );
    println!(
        "\nReading: norm-based detection sees nothing (uploads are clipped \
         to the same C as benign rows); similarity clustering is the more \
         promising signal — the paper's suggested future work."
    );

    println!("\n== 3. the same detector *inside* the round loop ==\n");
    let public = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, num_malicious);
    let pipeline = DefensePipeline::gated(
        Box::new(SimilarityDetector {
            cosine_threshold: 0.9,
            min_pairs: 2,
        }),
        Box::new(SumAggregator),
    );
    let mut sim = Simulation::with_defense(&train, fed, Box::new(attack), num_malicious, pipeline);
    let history = sim.run();
    let rep = evaluator.evaluate(sim.items(), sim.user_rows(), &train, &test);
    println!(
        "detector-gated sum: ER@10 {:.4}  HR@10 {:.4}  ({} uploads excluded \
         over {} rounds, mean per-round recall {:.2})",
        rep.attack.er_at_10,
        rep.hr_at_10,
        history.total_excluded(),
        history.defense.len(),
        history.mean_detector_recall().unwrap_or(1.0),
    );
}
