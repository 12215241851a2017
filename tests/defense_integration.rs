//! Defenses under real attack traffic (the §VI future-work measurement).

use fedrecattack::federated::server::{Aggregator, SumAggregator};
use fedrecattack::prelude::*;

fn er10_under(aggregator: Box<dyn Aggregator>) -> (f64, f64) {
    let full = SyntheticConfig::smoke().generate(91);
    let (train, test) = leave_one_out(&full, 5);
    let targets = train.coldest_items(1);
    let malicious = train.num_users() / 20;
    let public = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious);
    let fed = FedConfig {
        epochs: 50,
        ..FedConfig::smoke()
    };
    let plain = DefensePipeline::plain(aggregator);
    let mut sim = Simulation::with_defense(&train, fed, Box::new(attack), malicious, plain);
    sim.run();
    let evaluator = Evaluator::new(&train, &test, &targets, 3);
    let rep = evaluator.evaluate(sim.items(), sim.user_rows(), &train, &test);
    (rep.attack.er_at_10, rep.hr_at_10)
}

#[test]
fn krum_neutralizes_the_attack() {
    let (er_sum, _) = er10_under(Box::new(SumAggregator));
    let (er_krum, hr_krum) = er10_under(Box::new(Krum {
        assumed_byzantine: 6,
    }));
    assert!(
        er_krum < er_sum * 0.5,
        "krum should suppress exposure: sum {er_sum} vs krum {er_krum}"
    );
    // Krum keeps only one update per round, so learning slows — but it
    // must not collapse entirely.
    assert!(hr_krum > 0.05, "krum destroyed the model: HR {hr_krum}");
}

#[test]
fn median_reduces_exposure() {
    let (er_sum, _) = er10_under(Box::new(SumAggregator));
    let (er_median, hr_median) = er10_under(Box::new(CoordinateMedian));
    assert!(
        er_median < er_sum,
        "median should not help the attack: sum {er_sum} vs median {er_median}"
    );
    assert!(hr_median > 0.2, "median wrecked accuracy: {hr_median}");
}

#[test]
fn clipped_attack_slips_past_norm_filtering() {
    // The paper's stealth argument: FedRecAttack's uploads are norm-
    // bounded like benign ones, so norm filtering cannot tell them apart.
    let (er_sum, _) = er10_under(Box::new(SumAggregator));
    let (er_nb, _) = er10_under(Box::new(NormBound { factor: 3.0 }));
    assert!(
        er_nb > er_sum * 0.6,
        "norm-bound should NOT stop a clipped attack: sum {er_sum} vs {er_nb}"
    );
}

#[test]
fn defended_clean_training_still_learns() {
    // Robust aggregation must not break the no-attack case.
    let full = SyntheticConfig::smoke().generate(92);
    let (train, test) = leave_one_out(&full, 5);
    let targets = train.coldest_items(1);
    let fed = FedConfig {
        epochs: 50,
        ..FedConfig::smoke()
    };
    for agg in [
        Box::new(TrimmedMean { trim_fraction: 0.1 }) as Box<dyn Aggregator>,
        Box::new(CoordinateMedian),
        Box::new(NormBound { factor: 3.0 }),
    ] {
        let name = agg.name();
        let plain = DefensePipeline::plain(agg);
        let mut sim = Simulation::with_defense(&train, fed, Box::new(NoAttack), 0, plain);
        sim.run();
        let evaluator = Evaluator::new(&train, &test, &targets, 3);
        let rep = evaluator.evaluate(sim.items(), sim.user_rows(), &train, &test);
        assert!(
            rep.hr_at_10 > 0.2,
            "{name}: clean training failed under defense: HR {}",
            rep.hr_at_10
        );
    }
}
