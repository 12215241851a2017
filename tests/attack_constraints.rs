//! The stealth constraints of Eq. 9 hold on *every* upload of *every*
//! round — verified by wrapping the adversary with an auditor.

use fedrecattack::federated::adversary::{Adversary, RoundCtx};
use fedrecattack::prelude::*;
use std::cell::RefCell;
use std::rc::Rc;

/// Wraps an adversary and records constraint violations.
struct Auditor {
    inner: Box<dyn Adversary>,
    kappa: usize,
    violations: Rc<RefCell<Vec<String>>>,
    rounds_poisoned: Rc<RefCell<usize>>,
}

impl Adversary for Auditor {
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        let ups = self.inner.poison(items, ctx, rng);
        *self.rounds_poisoned.borrow_mut() += 1;
        let mut violations = self.violations.borrow_mut();
        if ups.len() != ctx.selected_malicious.len() {
            violations.push(format!(
                "round {}: {} uploads for {} selections",
                ctx.round,
                ups.len(),
                ctx.selected_malicious.len()
            ));
        }
        for (i, up) in ups.iter().enumerate() {
            if up.nnz_rows() > self.kappa {
                violations.push(format!(
                    "round {} client {i}: {} rows > kappa {}",
                    ctx.round,
                    up.nnz_rows(),
                    self.kappa
                ));
            }
            let max = up.max_row_norm();
            if max > ctx.clip_norm * 1.0001 {
                violations.push(format!(
                    "round {} client {i}: row norm {max} > C {}",
                    ctx.round, ctx.clip_norm
                ));
            }
        }
        ups
    }

    fn name(&self) -> &'static str {
        "auditor"
    }
}

#[test]
fn fedrecattack_respects_kappa_and_clip_every_round() {
    let full = SyntheticConfig::smoke().generate(81);
    let (train, _) = leave_one_out(&full, 5);
    let targets = train.coldest_items(2);
    let malicious = 6;
    let kappa = 30;
    let public = PublicView::sample(&train, 0.05, 2);
    let mut cfg = AttackConfig::new(targets);
    cfg.kappa = kappa;
    let attack = FedRecAttack::new(cfg, public, malicious);

    let violations = Rc::new(RefCell::new(Vec::new()));
    let rounds = Rc::new(RefCell::new(0usize));
    let auditor = Auditor {
        inner: Box::new(attack),
        kappa,
        violations: violations.clone(),
        rounds_poisoned: rounds.clone(),
    };
    let fed = FedConfig {
        epochs: 30,
        ..FedConfig::smoke()
    };
    let mut sim = Simulation::new(&train, fed, Box::new(auditor), malicious);
    sim.run();

    assert_eq!(
        *rounds.borrow(),
        30,
        "full participation poisons each round"
    );
    let v = violations.borrow();
    assert!(v.is_empty(), "constraint violations: {v:?}");
}

#[test]
fn shilling_attacks_respect_clip_every_round() {
    use fedrecattack::baselines::registry::{build_adversary, AttackEnv};

    let full = SyntheticConfig::smoke().generate(82);
    let (train, _) = leave_one_out(&full, 5);
    let targets = train.coldest_items(1);

    for method in [
        AttackMethod::Random,
        AttackMethod::Bandwagon,
        AttackMethod::Popular,
    ] {
        let env = AttackEnv::over_dataset(&train, &targets)
            .malicious(5)
            .kappa(40)
            .k(16)
            .seed(7)
            .public(0.05, 2);
        let inner = build_adversary(method, &env);
        let violations = Rc::new(RefCell::new(Vec::new()));
        let rounds = Rc::new(RefCell::new(0usize));
        let auditor = Auditor {
            inner,
            // Shilling profiles have ⌊κ/2⌋ items but gradients touch the
            // sampled negatives too, so the row bound is what matters
            // here; κ itself is checked for FedRecAttack above.
            kappa: usize::MAX,
            violations: violations.clone(),
            rounds_poisoned: rounds.clone(),
        };
        let fed = FedConfig {
            epochs: 10,
            ..FedConfig::smoke()
        };
        let mut sim = Simulation::new(&train, fed, Box::new(auditor), 5);
        sim.run();
        let v = violations.borrow();
        assert!(v.is_empty(), "{method:?} violations: {v:?}");
    }
}

#[test]
fn fedrecattack_uploads_shrink_in_partial_participation() {
    // With client_fraction < 1 only some malicious clients are selected
    // per round; the adversary must answer exactly for those.
    let full = SyntheticConfig::smoke().generate(83);
    let (train, _) = leave_one_out(&full, 5);
    let targets = train.coldest_items(1);
    let malicious = 10;
    let public = PublicView::sample(&train, 0.05, 2);
    let attack = FedRecAttack::new(AttackConfig::new(targets), public, malicious);
    let violations = Rc::new(RefCell::new(Vec::new()));
    let rounds = Rc::new(RefCell::new(0usize));
    let auditor = Auditor {
        inner: Box::new(attack),
        kappa: 60,
        violations: violations.clone(),
        rounds_poisoned: rounds.clone(),
    };
    let fed = FedConfig {
        epochs: 40,
        client_fraction: 0.3,
        ..FedConfig::smoke()
    };
    let mut sim = Simulation::new(&train, fed, Box::new(auditor), malicious);
    sim.run();
    let v = violations.borrow();
    assert!(v.is_empty(), "violations: {v:?}");
    // Some rounds may select zero malicious clients; most select a few.
    assert!(*rounds.borrow() > 20, "adversary almost never selected");
}
