//! Fig. 3: side effects of FedRecAttack — training loss and HR@10 per
//! epoch, with and without the attack.

use crate::report::Table;
use crate::runner::{default_targets, run_experiment, ExperimentSpec};
use crate::scale::{DatasetId, Scale};
use crate::tables::NUM_TARGETS;
use fedrec_baselines::AttackMethod;
use fedrec_data::split::leave_one_out;

/// The ρ arms of Fig. 3 (`None` plus three malicious proportions).
pub const FIG3_RHOS: [(&str, f64); 4] = [
    ("none", 0.0),
    ("rho=3%", 0.03),
    ("rho=5%", 0.05),
    ("rho=10%", 0.10),
];

/// Produce the Fig. 3 series for one dataset: per epoch, the training
/// loss and (every `eval_every` epochs) HR@10 for each ρ arm.
///
/// Returns one long-format table: `arm, epoch, loss, hr_at_10` (the HR
/// column is empty on epochs without an evaluation), which plots directly
/// as the paper's two panels per dataset.
pub fn fig3_side_effects(scale: Scale, id: DatasetId, eval_every: usize, seed: u64) -> Table {
    assert!(eval_every > 0);
    let full = scale.dataset(id, None, seed);
    let (train, test) = leave_one_out(&full, seed ^ 0x10);
    let targets = default_targets(&train, NUM_TARGETS);

    let mut t = Table::new(
        format!(
            "Fig. 3: side effects of FedRecAttack on {} (training loss & HR@10 per epoch)",
            id.label()
        ),
        vec!["arm", "epoch", "training_loss", "hr_at_10"],
    );
    for &(arm, rho) in &FIG3_RHOS {
        let spec = ExperimentSpec {
            train: &train,
            test: &test,
            method: if rho == 0.0 {
                AttackMethod::None
            } else {
                AttackMethod::FedRecAttack
            },
            xi: match scale {
                Scale::Paper => 0.01,
                Scale::Smoke => 0.05,
            },
            rho,
            kappa: 60,
            fed: scale.fed_config(seed),
            targets: targets.clone(),
            seed,
            eval_every: Some(eval_every),
        };
        let out = run_experiment(&spec);
        let hr_at: std::collections::BTreeMap<usize, f64> = out.hr_series.into_iter().collect();
        for (epoch, loss) in out.history.losses.iter().enumerate() {
            let hr = hr_at
                .get(&(epoch + 1))
                .map(|v| format!("{v:.4}"))
                .unwrap_or_default();
            t.push_row(vec![
                arm.to_string(),
                format!("{}", epoch + 1),
                format!("{loss:.3}"),
                hr,
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_emits_all_arms_and_epochs() {
        let t = fig3_side_effects(Scale::Smoke, DatasetId::Ml100k, 10, 3);
        let epochs = Scale::Smoke.fed_config(3).epochs;
        assert_eq!(t.rows.len(), 4 * epochs);
        // HR cells appear exactly on eval epochs.
        let with_hr = t.rows.iter().filter(|r| !r[3].is_empty()).count();
        assert_eq!(with_hr, 4 * (epochs / 10));
        // All four arms present.
        for (arm, _) in FIG3_RHOS {
            assert!(t.rows.iter().any(|r| r[0] == arm), "missing arm {arm}");
        }
    }

    #[test]
    fn attacked_loss_stays_close_to_clean_loss() {
        // The stealthiness claim of §V-D at smoke scale: final training
        // loss under attack is within a modest factor of the clean loss.
        let t = fig3_side_effects(Scale::Smoke, DatasetId::Ml100k, 30, 4);
        let final_loss = |arm: &str| -> f64 {
            t.rows.iter().rfind(|r| r[0] == arm).expect("arm present")[2]
                .parse()
                .unwrap()
        };
        let clean = final_loss("none");
        let attacked = final_loss("rho=5%");
        assert!(
            attacked < clean * 1.5,
            "attack visibly distorts the loss curve: {clean} vs {attacked}"
        );
    }
}
