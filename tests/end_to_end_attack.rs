//! End-to-end integration: the paper's headline claims at smoke scale.

use fedrecattack::prelude::*;

fn run(
    train: &Dataset,
    test: &fedrecattack::data::split::TestSet,
    targets: &[u32],
    adversary: Box<dyn Adversary>,
    num_malicious: usize,
    epochs: usize,
    threads: usize,
) -> (f64, f64, Vec<f32>) {
    let fed = FedConfig {
        epochs,
        threads,
        ..FedConfig::smoke()
    };
    let mut sim = Simulation::new(train, fed, adversary, num_malicious);
    let history = sim.run();
    let evaluator = Evaluator::new(train, test, targets, 3);
    let rep = evaluator.evaluate(sim.items(), sim.user_rows(), train, test);
    (rep.attack.er_at_10, rep.hr_at_10, history.losses)
}

fn fixture() -> (Dataset, fedrecattack::data::split::TestSet, Vec<u32>) {
    let full = SyntheticConfig::smoke().generate(71);
    let (train, test) = leave_one_out(&full, 5);
    let targets = train.coldest_items(1);
    (train, test, targets)
}

/// Claim 1 (Table VII): FedRecAttack takes a cold item to high exposure.
#[test]
fn headline_attack_effectiveness() {
    let (train, test, targets) = fixture();
    let malicious = train.num_users() / 20;
    let public = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious);
    let (er10, _, _) = run(&train, &test, &targets, Box::new(attack), malicious, 60, 1);
    let (er_none, _, _) = run(&train, &test, &targets, Box::new(NoAttack), 0, 60, 1);
    assert!(er10 > 0.55, "attack ER@10 too low: {er10}");
    assert!(
        er_none < 0.05,
        "cold target should start unexposed: {er_none}"
    );
}

/// Claim 2 (§V-D): side effects are small — HR under attack within a few
/// points of the clean run, loss curve close to the clean curve.
#[test]
fn side_effects_are_negligible() {
    let (train, test, targets) = fixture();
    let malicious = train.num_users() / 20;
    let public = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious);
    let (_, hr_attacked, losses_attacked) =
        run(&train, &test, &targets, Box::new(attack), malicious, 60, 1);
    let (_, hr_clean, losses_clean) = run(&train, &test, &targets, Box::new(NoAttack), 0, 60, 1);
    assert!(
        hr_attacked > hr_clean - 0.12,
        "HR collapse under attack: clean {hr_clean} vs {hr_attacked}"
    );
    let lc = *losses_clean.last().unwrap();
    let la = *losses_attacked.last().unwrap();
    assert!(
        la < lc * 1.3,
        "loss curve is visibly distorted: clean {lc} vs attacked {la}"
    );
}

/// Claim 3 (Table IX): without public interactions the attack collapses.
#[test]
fn ablation_no_public_knowledge() {
    let (train, test, targets) = fixture();
    let malicious = train.num_users() / 20;
    let blind = PublicView::empty(train.num_users(), train.num_items());
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), blind, malicious);
    let (er_blind, _, _) = run(&train, &test, &targets, Box::new(attack), malicious, 60, 1);

    let informed = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), informed, malicious);
    let (er_informed, _, _) = run(&train, &test, &targets, Box::new(attack), malicious, 60, 1);
    assert!(
        er_blind < er_informed * 0.5,
        "ablation did not collapse: blind {er_blind} vs informed {er_informed}"
    );
}

/// Infrastructure claim: results are identical across thread counts.
#[test]
fn parallel_simulation_is_bit_deterministic() {
    let (train, test, targets) = fixture();
    let malicious = train.num_users() / 20;
    let mk = || {
        let public = PublicView::sample(&train, 0.05, 2);
        FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious)
    };
    let (er1, hr1, losses1) = run(&train, &test, &targets, Box::new(mk()), malicious, 25, 1);
    let (er4, hr4, losses4) = run(&train, &test, &targets, Box::new(mk()), malicious, 25, 4);
    assert_eq!(losses1, losses4, "losses diverge across thread counts");
    assert_eq!(er1, er4);
    assert_eq!(hr1, hr4);
}

/// Density claim (Table VII trend): the sparse dataset is easier to
/// attack than the dense one at equal ρ.
#[test]
fn sparser_data_is_easier_to_attack() {
    let run_on = |cfg: SyntheticConfig| {
        let full = cfg.generate(71);
        let (train, test) = leave_one_out(&full, 5);
        let targets = train.coldest_items(1);
        let malicious = (train.num_users() as f64 * 0.05).round() as usize;
        let public = PublicView::sample(&train, 0.05, 2);
        let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious);
        run(&train, &test, &targets, Box::new(attack), malicious, 60, 1).0
    };
    let er_sparse = run_on(SyntheticConfig::smoke_sparse());
    let er_dense = run_on(SyntheticConfig::smoke_dense());
    assert!(
        er_sparse > er_dense,
        "sparse {er_sparse} should beat dense {er_dense}"
    );
}
