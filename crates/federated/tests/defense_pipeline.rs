//! In-loop defense pipeline integration: real detectors from
//! `fedrec-defense` gating the live round loop. (These tests live in the
//! integration directory, not in-crate, because the defense crate is a
//! dev-dependency cycle — unit tests would link a second copy of this
//! crate and the trait objects would not unify.)

use fedrec_data::synthetic::SyntheticConfig;
use fedrec_defense::{DefensePipeline, NormDetector};
use fedrec_federated::adversary::{Adversary, RoundCtx};
use fedrec_federated::server::SumAggregator;
use fedrec_federated::{FedConfig, NoAttack, Simulation};
use fedrec_linalg::{Matrix, SeededRng, SparseGrad};

fn smoke_cfg() -> FedConfig {
    FedConfig {
        k: 8,
        epochs: 10,
        lr: 0.05,
        ..FedConfig::default()
    }
}

/// An adversary whose uploads are norm outliers by construction.
struct Blatant;

impl Adversary for Blatant {
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        _rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        ctx.selected_malicious
            .iter()
            .map(|_| {
                let mut g = SparseGrad::new(items.cols());
                for item in 0..50u32 {
                    g.accumulate(item, 1.0, &vec![10.0; items.cols()]);
                }
                g
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "blatant"
    }
}

#[test]
fn gated_pipeline_excludes_detected_attack_in_loop() {
    let data = SyntheticConfig::smoke().generate(8);
    let run = |defended: bool| {
        let pipeline = if defended {
            DefensePipeline::gated(Box::new(NormDetector::new(3.0)), Box::new(SumAggregator))
        } else {
            DefensePipeline::plain(Box::new(SumAggregator))
        };
        let mut sim = Simulation::with_defense(&data, smoke_cfg(), Box::new(Blatant), 10, pipeline);
        let h = sim.run();
        (h, sim.items().row(0).to_vec())
    };
    let (defended, defended_row0) = run(true);
    let (undefended, undefended_row0) = run(false);

    assert!(undefended.defense.is_empty(), "no detector, no records");
    assert_eq!(defended.defense.len(), 10, "one record per round");
    // 10 malicious uploads per round for 10 rounds, all giant: the gate
    // must remove (nearly) all of them.
    assert!(
        defended.total_excluded() >= 90,
        "gate barely fired: {} exclusions",
        defended.total_excluded()
    );
    let recall = defended.mean_detector_recall().unwrap();
    assert!(recall > 0.9, "norm detector should catch it: {recall}");
    let precision = defended.mean_detector_precision().unwrap();
    assert!(precision > 0.9, "honest clients misflagged: {precision}");
    // Dropping the poison changes the trajectory of the target row.
    assert_ne!(defended_row0, undefended_row0);
}

#[test]
fn monitored_pipeline_matches_undefended_training_bitwise() {
    let data = SyntheticConfig::smoke().generate(9);
    let run = |monitored: bool| {
        let pipeline = if monitored {
            DefensePipeline::monitored(Box::new(NormDetector::new(3.0)), Box::new(SumAggregator))
        } else {
            DefensePipeline::plain(Box::new(SumAggregator))
        };
        let mut sim = Simulation::with_defense(&data, smoke_cfg(), Box::new(NoAttack), 5, pipeline);
        let h = sim.run();
        (h, sim.items().clone())
    };
    let (monitored, v_monitored) = run(true);
    let (plain, v_plain) = run(false);
    assert_eq!(
        monitored.losses, plain.losses,
        "monitoring must not perturb training"
    );
    assert_eq!(v_monitored, v_plain);
    assert_eq!(monitored.defense.len(), 10);
    assert!(plain.defense.is_empty());
    // NoAttack uploads empty gradients for the malicious slots; recall is
    // over whatever the detector flags among them.
    for d in &monitored.defense {
        assert_eq!(d.excluded, 0, "monitor mode never excludes");
        assert_eq!(d.malicious, 5);
    }
}
