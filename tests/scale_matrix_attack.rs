//! Property test for the attack-on-sharded-population seam (the scenario
//! matrix's tentpole invariant): injecting the same malicious users into
//! a dense run and a sharded run of the 50k-user scale-free smoke preset
//! yields **byte-identical** server item matrices, across 1/2/8 worker
//! threads — with the adversary's own client state materializing lazily
//! on first participation.

use fedrecattack::baselines::registry::{build_adversary, AttackEnv, AttackMethod};
use fedrecattack::data::scalefree::{ScaleFreeConfig, ScaleFreeDataset};
use fedrecattack::data::InteractionSource;
use fedrecattack::federated::server::SumAggregator;
use fedrecattack::federated::store::StoreBackend;
use fedrecattack::federated::{DefensePipeline, FedConfig, MfClientModel, Simulation};
use fedrecattack::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// One training run over the shared population on the given backend.
/// Returns the per-round losses (bit-patterns) and the final server item
/// matrix, plus the store's materialization counters.
fn run(
    data: &Arc<ScaleFreeDataset>,
    attack: AttackMethod,
    rho: f64,
    threads: usize,
    seed: u64,
    backend: StoreBackend,
) -> (Vec<u32>, Matrix, usize, usize) {
    let fed = FedConfig {
        k: 8,
        lr: 0.05,
        epochs: 3,
        client_fraction: 0.01,
        threads,
        seed,
        ..FedConfig::default()
    };
    let num_malicious = ((data.num_users() as f64) * rho).round() as usize;
    let m = data.num_items() as u32;
    let targets = vec![m - 1];
    let env = AttackEnv::over(&**data, &targets)
        .malicious(num_malicious)
        .kappa(40)
        .k(fed.k)
        .seed(seed ^ 0xA7)
        .public(0.02, seed ^ 0xD1);
    let adversary = build_adversary(attack, &env);
    let pipeline =
        DefensePipeline::monitored(Box::new(NormDetector::new(3.0)), Box::new(SumAggregator));
    let mut sim = Simulation::with_model(
        data.clone() as Arc<dyn InteractionSource + Send + Sync>,
        fed,
        Box::new(MfClientModel),
        adversary,
        num_malicious,
        pipeline,
        backend,
    );
    let history = sim.run();
    let losses = history.losses.iter().map(|l| l.to_bits()).collect();
    (
        losses,
        sim.items().clone(),
        sim.rows_materialized(),
        sim.participants_touched(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn attacked_smoke_preset_is_backend_and_thread_invariant(
        seed in 0u64..1000,
        attack_idx in 0usize..3,
        rho in 0.002f64..0.01,
    ) {
        let attack = [AttackMethod::Random, AttackMethod::Popular, AttackMethod::P4][attack_idx];
        let data = Arc::new(ScaleFreeConfig::smoke_50k().generate(seed ^ 0x5CA1E));

        let (d_loss, d_items, d_rows, d_touched) =
            run(&data, attack, rho, 1, seed, StoreBackend::Dense);
        prop_assert_eq!(d_rows, data.num_users(), "dense stores are eager");

        for threads in [1usize, 2, 8] {
            let (s_loss, s_items, s_rows, s_touched) =
                run(&data, attack, rho, threads, seed, StoreBackend::sharded());
            prop_assert_eq!(
                &s_loss, &d_loss,
                "losses diverged at {} threads under {:?}", threads, attack
            );
            prop_assert_eq!(
                &s_items, &d_items,
                "server item matrix diverged at {} threads under {:?}", threads, attack
            );
            prop_assert_eq!(s_touched, d_touched, "participant sets diverged");
            prop_assert!(
                s_rows <= s_touched,
                "lazy invariant violated: {} rows > {} touched", s_rows, s_touched
            );
            prop_assert!(
                s_rows < data.num_users(),
                "sharded run materialized the whole population"
            );
        }
    }
}
