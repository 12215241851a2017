//! The central experiment runner: one federated training run under one
//! attack, evaluated with the paper's metrics. With an evaluation cadence
//! the run steps the simulation to each evaluation epoch and measures
//! HR@10 between rounds (Fig. 3).

use fedrec_baselines::registry::{build_adversary, AttackEnv, AttackMethod};
use fedrec_data::split::TestSet;
use fedrec_data::Dataset;
use fedrec_federated::history::TrainingHistory;
use fedrec_federated::{FedConfig, Simulation};
use fedrec_recsys::eval::Evaluator;

/// Specification of one run.
#[derive(Debug, Clone)]
pub struct ExperimentSpec<'a> {
    /// Training interactions (after leave-one-out).
    pub train: &'a Dataset,
    /// Held-out test items.
    pub test: &'a TestSet,
    /// Which attack to run.
    pub method: AttackMethod,
    /// Proportion of public interactions ξ (only FedRecAttack reads it).
    pub xi: f64,
    /// Proportion of malicious users ρ (relative to the benign count).
    pub rho: f64,
    /// Row budget κ.
    pub kappa: usize,
    /// Federation configuration.
    pub fed: FedConfig,
    /// Target items `V^tar`.
    pub targets: Vec<u32>,
    /// Master seed for attack construction and splits.
    pub seed: u64,
    /// Measure HR@10 every this many epochs (None = only at the end).
    /// Powers Fig. 3.
    pub eval_every: Option<usize>,
}

/// Result of one run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// ER@5 at the end of training.
    pub er5: f64,
    /// ER@10 at the end of training.
    pub er10: f64,
    /// NDCG@10 of target items at the end of training.
    pub ndcg10: f64,
    /// HR@10 at the end of training.
    pub hr10: f64,
    /// `(epochs done, HR@10)` at every evaluation epoch of
    /// [`ExperimentSpec::eval_every`]; empty without one.
    pub hr_series: Vec<(usize, f64)>,
    /// What the rounds recorded.
    pub history: TrainingHistory,
}

/// Number of malicious clients for a benign population of `n` at ratio ρ.
pub fn malicious_count(n: usize, rho: f64) -> usize {
    ((n as f64) * rho).round() as usize
}

/// Pick the default target set: `count` cold items (zero exposure before
/// the attack, the paper's starting condition).
pub fn default_targets(train: &Dataset, count: usize) -> Vec<u32> {
    train.coldest_items(count)
}

/// Run one experiment end to end.
pub fn run_experiment(spec: &ExperimentSpec<'_>) -> Outcome {
    let n = spec.train.num_users();
    let num_malicious = malicious_count(n, spec.rho);
    let env = AttackEnv::over_dataset(spec.train, &spec.targets)
        .malicious(num_malicious)
        .kappa(spec.kappa)
        .k(spec.fed.k)
        .seed(spec.seed ^ 0xA7)
        .public(spec.xi, spec.seed ^ 0xD1);
    let adversary = build_adversary(spec.method, &env);
    let mut sim = Simulation::new(spec.train, spec.fed, adversary, num_malicious);

    let evaluator = Evaluator::new(spec.train, spec.test, &spec.targets, spec.seed ^ 0xE7);
    let mut history = TrainingHistory::new();
    let mut hr_series = Vec::new();
    if let Some(every) = spec.eval_every.filter(|&e| e > 0) {
        for done in (every..=spec.fed.epochs).step_by(every) {
            sim.run_segment(&mut history, done);
            let rep = evaluator.evaluate(sim.items(), sim.user_rows(), spec.train, spec.test);
            hr_series.push((done, rep.hr_at_10));
        }
    }
    sim.run_segment(&mut history, spec.fed.epochs);

    let rep = evaluator.evaluate(sim.items(), sim.user_rows(), spec.train, spec.test);
    Outcome {
        er5: rep.attack.er_at_5,
        er10: rep.attack.er_at_10,
        ndcg10: rep.attack.ndcg_at_10,
        hr10: rep.hr_at_10,
        hr_series,
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scale::{DatasetId, Scale};
    use fedrec_data::split::leave_one_out;

    fn spec_base<'a>(train: &'a Dataset, test: &'a TestSet) -> ExperimentSpec<'a> {
        let targets = default_targets(train, 1);
        ExperimentSpec {
            train,
            test,
            method: AttackMethod::None,
            xi: 0.05,
            rho: 0.05,
            kappa: 60,
            fed: FedConfig {
                epochs: 20,
                ..Scale::Smoke.fed_config(3)
            },
            targets,
            seed: 11,
            eval_every: None,
        }
    }

    #[test]
    fn none_attack_leaves_targets_unexposed() {
        let full = Scale::Smoke.synthetic(DatasetId::Ml100k).generate(31);
        let (train, test) = leave_one_out(&full, 5);
        let spec = spec_base(&train, &test);
        let out = run_experiment(&spec);
        assert!(
            out.er10 < 0.1,
            "cold target exposed without attack: {}",
            out.er10
        );
        assert!(out.hr10 > 0.1, "model failed to learn: HR {}", out.hr10);
    }

    #[test]
    fn fedrecattack_beats_none() {
        let full = Scale::Smoke.synthetic(DatasetId::Ml100k).generate(32);
        let (train, test) = leave_one_out(&full, 5);
        let mut spec = spec_base(&train, &test);
        spec.fed.epochs = 50;
        let none = run_experiment(&spec);
        spec.method = AttackMethod::FedRecAttack;
        let fra = run_experiment(&spec);
        assert!(
            fra.er10 > none.er10 + 0.3,
            "attack ineffective: none {} vs fra {}",
            none.er10,
            fra.er10
        );
    }

    #[test]
    fn eval_every_records_series() {
        let full = Scale::Smoke.synthetic(DatasetId::Ml100k).generate(33);
        let (train, test) = leave_one_out(&full, 5);
        let mut spec = spec_base(&train, &test);
        spec.eval_every = Some(5);
        let out = run_experiment(&spec);
        let epochs: Vec<usize> = out.hr_series.iter().map(|&(e, _)| e).collect();
        assert_eq!(epochs, [5, 10, 15, 20], "20 epochs / every 5");
        assert_eq!(out.history.losses.len(), 20);
    }

    #[test]
    fn malicious_count_rounds() {
        assert_eq!(malicious_count(100, 0.05), 5);
        assert_eq!(malicious_count(943, 0.03), 28);
        assert_eq!(malicious_count(10, 0.0), 0);
    }

    #[test]
    fn runs_are_deterministic() {
        let full = Scale::Smoke.synthetic(DatasetId::Ml100k).generate(34);
        let (train, test) = leave_one_out(&full, 5);
        let mut spec = spec_base(&train, &test);
        spec.method = AttackMethod::Random;
        let a = run_experiment(&spec);
        let b = run_experiment(&spec);
        assert_eq!(a.er10, b.er10);
        assert_eq!(a.hr10, b.hr10);
        assert_eq!(a.history.losses, b.history.losses);
    }
}
