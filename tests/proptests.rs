//! Cross-crate property-based tests: invariants of the attack pipeline
//! under randomized configurations.

use fedrecattack::federated::adversary::{Adversary, RoundCtx};
use fedrecattack::prelude::*;
use proptest::prelude::*;

fn tiny_dataset(seed: u64) -> Dataset {
    SyntheticConfig {
        name: "prop",
        num_users: 40,
        num_items: 80,
        num_interactions: 600,
        zipf_exponent: 0.9,
        user_activity_exponent: 0.7,
    }
    .generate(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every FedRecAttack upload respects κ and C for arbitrary
    /// configurations — the Eq. 9 constraints as a property.
    #[test]
    fn uploads_always_obey_constraints(
        seed in 0u64..500,
        kappa in 2usize..40,
        clip in 0.05f32..2.0,
        xi in 0.01f64..0.5,
        num_malicious in 1usize..6,
    ) {
        let data = tiny_dataset(seed);
        let public = PublicView::sample(&data, xi, seed ^ 1);
        let targets = data.coldest_items(1);
        let mut cfg = AttackConfig::new(targets);
        cfg.kappa = kappa;
        let mut attack = FedRecAttack::new(cfg, public, num_malicious);
        let mut rng = SeededRng::new(seed ^ 2);
        let items = Matrix::random_normal(data.num_items(), 8, 0.0, 0.1, &mut rng);
        let selected: Vec<usize> = (0..num_malicious).collect();
        for round in 0..3 {
            let ctx = RoundCtx {
                round,
                lr: 0.05,
                clip_norm: clip,
                selected_malicious: &selected,
            };
            let ups = attack.poison(&items, &ctx, &mut rng);
            prop_assert_eq!(ups.len(), num_malicious);
            for up in &ups {
                prop_assert!(up.nnz_rows() <= kappa);
                prop_assert!(up.max_row_norm() <= clip * 1.0001);
            }
        }
    }

    /// The item set fixed at first participation always contains every
    /// target and never exceeds κ, for any gradient state.
    #[test]
    fn item_sets_contain_targets(
        seed in 0u64..500,
        kappa in 3usize..50,
        num_targets in 1usize..3,
    ) {
        let data = tiny_dataset(seed);
        let public = PublicView::sample(&data, 0.1, seed ^ 1);
        let targets = data.coldest_items(num_targets);
        prop_assume!(kappa >= targets.len());
        let mut cfg = AttackConfig::new(targets.clone());
        cfg.kappa = kappa;
        let mut attack = FedRecAttack::new(cfg, public, 2);
        let mut rng = SeededRng::new(seed ^ 2);
        let items = Matrix::random_normal(data.num_items(), 8, 0.0, 0.1, &mut rng);
        let selected = [0usize, 1];
        let ctx = RoundCtx { round: 0, lr: 0.05, clip_norm: 1.0, selected_malicious: &selected };
        let _ = attack.poison(&items, &ctx, &mut rng);
        for mi in 0..2 {
            let set = attack.item_set(mi).expect("fixed after first round");
            prop_assert!(set.len() <= kappa);
            for t in &targets {
                prop_assert!(set.contains(t), "target {t} missing from V_i");
            }
            prop_assert!(set.windows(2).all(|w| w[0] < w[1]), "set must be sorted");
        }
    }

    /// Simulation metrics are always valid probabilities and the loss is
    /// always finite under benign + shilling traffic.
    #[test]
    fn metrics_are_probabilities(
        seed in 0u64..200,
        rho_pct in 0usize..12,
    ) {
        let data = tiny_dataset(seed);
        let (train, test) = leave_one_out(&data, seed ^ 3);
        let targets = train.coldest_items(1);
        let malicious = train.num_users() * rho_pct / 100;
        let public = PublicView::sample(&train, 0.1, seed ^ 4);
        let adversary: Box<dyn Adversary> = if malicious == 0 {
            Box::new(NoAttack)
        } else {
            Box::new(FedRecAttack::new(
                AttackConfig::new(targets.clone()),
                public,
                malicious,
            ))
        };
        let fed = FedConfig { epochs: 6, k: 8, lr: 0.05, seed, ..FedConfig::default() };
        let mut sim = Simulation::new(&train, fed, adversary, malicious);
        let history = sim.run();
        for loss in &history.losses {
            prop_assert!(loss.is_finite() && *loss >= 0.0);
        }
        let evaluator = Evaluator::new(&train, &test, &targets, seed ^ 5);
        let rep = evaluator.evaluate(sim.items(), sim.user_rows(), &train, &test);
        for v in [rep.attack.er_at_5, rep.attack.er_at_10, rep.attack.ndcg_at_10, rep.hr_at_10] {
            prop_assert!((0.0..=1.0).contains(&v), "metric out of range: {v}");
        }
        prop_assert!(rep.attack.er_at_5 <= rep.attack.er_at_10 + 1e-9,
            "ER@5 cannot exceed ER@10");
    }

    /// DP noise and clipping never produce rows above C on benign uploads.
    #[test]
    fn benign_uploads_respect_clip_before_noise(
        seed in 0u64..300,
        clip in 0.1f32..1.5,
    ) {
        use fedrecattack::federated::client::BenignClient;
        let data = tiny_dataset(seed);
        let mut rng = SeededRng::new(seed);
        let items = Matrix::random_normal(data.num_items(), 8, 0.0, 0.5, &mut rng);
        for u in 0..5 {
            let mut c = BenignClient::new(
                u,
                data.user_items(u).to_vec(),
                data.num_items(),
                8,
                &mut rng,
            );
            if let Some(up) = c.local_round(&items, 0.05, clip, 0.0) {
                prop_assert!(up.item_grads.max_row_norm() <= clip * 1.0001);
            }
        }
    }
}
