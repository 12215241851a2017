//! The byte-identity battery extended to NCF — the point of routing NCF
//! through the generic `ClientModel` round loop instead of a parallel
//! one. Four gates, mirroring the MF battery:
//!
//! * dense-vs-sharded server state (item matrix `V` **and** the shared
//!   MLP block `Θ`) bit-identical across 1/2/8 client-round threads on
//!   the 50k-user scale-free preset, attacked and defended — as a
//!   property over seeds, attacks and defense arms;
//! * the same invariant with the `FaultPlan::smoke` fault preset active
//!   (dropouts, stragglers, quarantined corruption), fault counters
//!   included;
//! * kill-and-resume: an NCF run checkpointed mid-training, dropped, and
//!   restored into a freshly built simulation finishes bit-identical to
//!   the uninterrupted run at every thread count (`Θ` and the paired
//!   pending-upload state ride the checkpoint);
//! * eval-mode identity over NCF scores: NCF matrix cells pin the full
//!   MLP sweep, so records are byte-identical across every requested
//!   `EvalMode` — mode bookkeeping fields included.

use fedrecattack::baselines::registry::{build_adversary, AttackEnv, AttackMethod};
use fedrecattack::data::scalefree::{ScaleFreeConfig, ScaleFreeDataset};
use fedrecattack::data::InteractionSource;
use fedrecattack::defense::{NormDetector, TrimmedMean};
use fedrecattack::experiments::matrix;
use fedrecattack::experiments::matrix::{
    CellSpec, DefenseKind, MatrixConfig, ModelKind, ScalePreset,
};
use fedrecattack::experiments::record::{project, Mask, Record};
use fedrecattack::federated::server::SumAggregator;
use fedrecattack::federated::store::StoreBackend;
use fedrecattack::federated::{DefensePipeline, FaultPlan, FedConfig, Simulation};
use fedrecattack::ncf::NcfClientModel;
use fedrecattack::prelude::*;
use fedrecattack::recsys::EvalMode;
use proptest::prelude::*;
use std::sync::Arc;

/// MLP hidden width of every NCF run in this battery (the scenario
/// matrix's fixed width).
const HIDDEN: usize = 16;

fn pipeline(defense_idx: usize) -> DefensePipeline {
    match defense_idx {
        0 => DefensePipeline::monitored(Box::new(NormDetector::new(3.0)), Box::new(SumAggregator)),
        _ => DefensePipeline::monitored(
            Box::new(NormDetector::new(3.0)),
            Box::new(TrimmedMean { trim_fraction: 0.1 }),
        ),
    }
}

/// One NCF training run over the shared 50k-user population. Returns the
/// per-round loss bit patterns, the final server item matrix, the final
/// shared `Θ` bit patterns, the cumulative fault counters, and the
/// store's materialization counters.
#[allow(clippy::too_many_arguments, clippy::type_complexity)]
fn run_ncf(
    data: &Arc<ScaleFreeDataset>,
    attack: AttackMethod,
    defense_idx: usize,
    rho: f64,
    threads: usize,
    seed: u64,
    backend: StoreBackend,
    faults: bool,
) -> (
    Vec<u32>,
    Matrix,
    Vec<u32>,
    (usize, usize, usize, usize, usize),
    usize,
    usize,
) {
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
    let mut sim = Simulation::with_model(
        data.clone() as Arc<dyn InteractionSource + Send + Sync>,
        fed,
        Box::new(NcfClientModel::new(HIDDEN, fed.k)),
        adversary,
        num_malicious,
        pipeline(defense_idx),
        backend,
    );
    if faults {
        sim.enable_faults(FaultPlan::smoke(), seed ^ 0xFA17);
    }
    let history = sim.run();
    let losses = history.losses.iter().map(|l| l.to_bits()).collect();
    let theta_bits = sim.shared().iter().map(|x| x.to_bits()).collect();
    (
        losses,
        sim.items().clone(),
        theta_bits,
        history.fault_totals(),
        sim.rows_materialized(),
        sim.participants_touched(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Dense-vs-sharded, 1/2/8-thread bit-identity of the full NCF server
    /// state — `V` and `Θ` — on the 50k-user preset, attacked, for both
    /// the plain-sum and the trimmed-mean (defended) aggregation arms.
    #[test]
    fn ncf_smoke_preset_is_backend_and_thread_invariant(
        seed in 0u64..1000,
        attack_idx in 0usize..3,
        defense_idx in 0usize..2,
        rho in 0.002f64..0.01,
    ) {
        let attack = [AttackMethod::Random, AttackMethod::Popular, AttackMethod::FedRecAttack][attack_idx];
        let data = Arc::new(ScaleFreeConfig::smoke_50k().generate(seed ^ 0x5CA1E));

        let (d_loss, d_items, d_theta, _, d_rows, d_touched) =
            run_ncf(&data, attack, defense_idx, rho, 1, seed, StoreBackend::Dense, false);
        prop_assert_eq!(d_rows, data.num_users(), "dense stores are eager");
        prop_assert!(!d_theta.is_empty(), "NCF must maintain a shared theta block");

        for threads in [1usize, 2, 8] {
            let (s_loss, s_items, s_theta, _, s_rows, s_touched) =
                run_ncf(&data, attack, defense_idx, rho, threads, seed, StoreBackend::sharded(), false);
            prop_assert_eq!(
                &s_loss, &d_loss,
                "NCF losses diverged at {} threads under {:?}/defense {}", threads, attack, defense_idx
            );
            prop_assert_eq!(
                &s_items, &d_items,
                "NCF item matrix diverged at {} threads under {:?}/defense {}", threads, attack, defense_idx
            );
            prop_assert_eq!(
                &s_theta, &d_theta,
                "shared theta diverged at {} threads under {:?}/defense {}", threads, attack, defense_idx
            );
            prop_assert_eq!(s_touched, d_touched, "participant sets diverged");
            prop_assert!(
                s_rows <= s_touched,
                "lazy invariant violated: {} rows > {} touched", s_rows, s_touched
            );
            prop_assert!(
                s_rows < data.num_users(),
                "sharded NCF run materialized the whole population"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Faulted-round identity: the same invariant with the smoke fault
    /// plan injecting dropouts, stragglers and quarantined corruption
    /// into every round — fault decisions are a pure function of
    /// `(fault seed, round, client)`, so the counters agree too.
    #[test]
    fn ncf_faulted_rounds_are_backend_and_thread_invariant(
        seed in 0u64..1000,
        rho in 0.002f64..0.01,
    ) {
        let data = Arc::new(ScaleFreeConfig::smoke_50k().generate(seed ^ 0xFA5CA1E));

        let (d_loss, d_items, d_theta, d_faults, _, _) =
            run_ncf(&data, AttackMethod::Random, 1, rho, 1, seed, StoreBackend::Dense, true);
        let fault_total = d_faults.0 + d_faults.1 + d_faults.2 + d_faults.3 + d_faults.4;
        prop_assert!(fault_total > 0, "smoke fault plan fired nothing across the run");

        for threads in [1usize, 2, 8] {
            let (s_loss, s_items, s_theta, s_faults, _, _) =
                run_ncf(&data, AttackMethod::Random, 1, rho, threads, seed, StoreBackend::sharded(), true);
            prop_assert_eq!(&s_loss, &d_loss, "faulted NCF losses diverged at {} threads", threads);
            prop_assert_eq!(&s_items, &d_items, "faulted NCF item matrix diverged at {} threads", threads);
            prop_assert_eq!(&s_theta, &d_theta, "faulted shared theta diverged at {} threads", threads);
            prop_assert_eq!(s_faults, d_faults, "fault counters diverged at {} threads", threads);
        }
    }
}

/// Order-stable digest of raw `f32` bit patterns.
fn digest(values: impl Iterator<Item = f32>) -> u64 {
    let mut h = 0x17E6_D16Eu64;
    for x in values {
        h ^= x.to_bits() as u64;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    }
    h
}

/// Kill-and-resume on the 50k-user preset, mirroring the crash-resume
/// gate: checkpoint after 2 of 4 epochs, drop the simulation (the
/// "crash"), rebuild it from scratch, restore, finish — and require the
/// final `V` and `Θ` bit-identical to the uninterrupted run, at 1, 2 and
/// 8 client-round threads, with the smoke fault plan active throughout.
#[test]
fn ncf_kill_and_resume_matches_straight_run() {
    let data = Arc::new(ScaleFreeConfig::smoke_50k().generate(0xD1E));
    let build = |threads: usize| -> Simulation {
        let fed = FedConfig {
            k: 8,
            lr: 0.05,
            epochs: 4,
            client_fraction: 0.01,
            threads,
            seed: 97,
            ..FedConfig::default()
        };
        let num_malicious = 100;
        let m = data.num_items() as u32;
        let targets = vec![m - 1];
        let env = AttackEnv::over(&*data, &targets)
            .malicious(num_malicious)
            .kappa(40)
            .k(fed.k)
            .seed(3)
            .public(0.02, 5);
        let mut sim = Simulation::with_model(
            data.clone() as Arc<dyn InteractionSource + Send + Sync>,
            fed,
            Box::new(NcfClientModel::new(HIDDEN, fed.k)),
            build_adversary(AttackMethod::FedRecAttack, &env),
            num_malicious,
            pipeline(1),
            StoreBackend::sharded(),
        );
        sim.enable_faults(FaultPlan::smoke(), 0xFA17);
        sim
    };
    let straight = {
        let mut sim = build(1);
        let mut history = fedrecattack::federated::history::TrainingHistory::new();
        sim.run_segment(&mut history, 4);
        (
            digest(sim.items().as_slice().iter().copied()),
            digest(sim.shared().iter().copied()),
            history
                .losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
        )
    };
    for threads in [1usize, 2, 8] {
        let blob = {
            let mut sim = build(threads);
            let mut history = fedrecattack::federated::history::TrainingHistory::new();
            sim.run_segment(&mut history, 2);
            sim.checkpoint(&history)
            // sim dropped here: the "crash".
        };
        let mut sim = build(threads);
        let mut history = sim.restore(&blob);
        sim.run_segment(&mut history, 4);
        let resumed = (
            digest(sim.items().as_slice().iter().copied()),
            digest(sim.shared().iter().copied()),
            history
                .losses
                .iter()
                .map(|l| l.to_bits())
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            resumed, straight,
            "NCF kill-and-resume diverged at {threads} threads"
        );
    }
}

/// Eval-mode identity over NCF scores: MLP scores admit no norm-bound
/// pruning, so NCF matrix cells pin the full sweep — records under
/// `full`, `pruned` and `incremental` requests must be byte-identical
/// *including* the mode bookkeeping fields (every record says `full`).
#[test]
fn ncf_records_are_identical_across_requested_eval_modes() {
    let base = MatrixConfig {
        eval_every: 2,
        epochs: Some(4),
        ..MatrixConfig::at_scale(ScalePreset::Tiny, 23)
    };
    let cell = CellSpec {
        model: ModelKind::Ncf,
        attack: AttackMethod::Popular,
        defense: DefenseKind::DetectorGated,
        rho: 0.01,
    };
    let full = matrix::run_cell(&base, &cell);
    assert!(!full.is_empty());
    for mode in [EvalMode::Pruned, EvalMode::Incremental] {
        let cfg = MatrixConfig {
            eval_mode: mode,
            ..base.clone()
        };
        let got = matrix::run_cell(&cfg, &cell);
        let vol = |lines: &[String]| -> Vec<String> {
            lines.iter().map(|l| project(l, Mask::VOLATILE)).collect()
        };
        assert_eq!(
            vol(&got),
            vol(&full),
            "NCF records diverged under requested {} mode",
            mode.label()
        );
    }
    for line in &full {
        let rec = Record::parse(line).unwrap();
        assert_eq!(rec.eval_mode, EvalMode::Full);
        assert_eq!(rec.model, ModelKind::Ncf);
    }
}
