//! Centralized MF/BPR trainer.
//!
//! The data-poisoning baselines P1 and P2 assume the classic *centralized*
//! setting: the attacker trains a surrogate model on the full interaction
//! matrix (plus injected fake users) to decide which filler items to
//! interact with. This trainer provides that surrogate. It runs the same
//! per-user BPR rounds as the federated clients, just without the
//! server/client split, noise or clipping.

use crate::bpr;
use crate::model::MfModel;
use fedrec_data::negative::NegativeSampler;
use fedrec_data::Dataset;
use fedrec_linalg::{vector, SeededRng};

/// Hyper-parameters for centralized training.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over all users.
    pub epochs: usize,
    /// SGD learning rate η.
    pub lr: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 10,
            lr: 0.01,
        }
    }
}

/// Centralized SGD trainer over per-user BPR rounds.
#[derive(Debug, Clone)]
pub struct CentralizedTrainer {
    cfg: TrainConfig,
}

impl CentralizedTrainer {
    /// Trainer with the given config.
    pub fn new(cfg: TrainConfig) -> Self {
        Self { cfg }
    }

    /// Train `model` on `data`; returns the total BPR loss per epoch.
    ///
    /// Each epoch visits users in a fresh random order, samples one
    /// negative per positive (Eq. 4) and applies plain SGD to both factor
    /// matrices.
    pub fn fit(&self, model: &mut MfModel, data: &Dataset, rng: &mut SeededRng) -> Vec<f32> {
        assert_eq!(model.num_users(), data.num_users());
        assert_eq!(model.num_items(), data.num_items());
        let sampler = NegativeSampler::new(data.num_items());
        let mut order: Vec<usize> = (0..data.num_users()).collect();
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0f32;
            for &u in &order {
                if data.user_degree(u) == 0 {
                    continue;
                }
                let pairs = sampler.pair_for_user(data, u, rng);
                let g =
                    bpr::user_round_grads(model.user_factors.row(u), &model.item_factors, &pairs);
                epoch_loss += g.loss;
                vector::axpy(-self.cfg.lr, &g.grad_user, model.user_factors.row_mut(u));
                g.grad_items.apply_to(&mut model.item_factors, self.cfg.lr);
            }
            losses.push(epoch_loss);
        }
        losses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrec_data::synthetic::SyntheticConfig;

    #[test]
    fn loss_decreases_over_epochs() {
        let data = SyntheticConfig::smoke().generate(1);
        let mut rng = SeededRng::new(2);
        let mut model = MfModel::init(data.num_users(), data.num_items(), 8, &mut rng);
        let cfg = TrainConfig {
            epochs: 15,
            lr: 0.05,
        };
        let losses = CentralizedTrainer::new(cfg).fit(&mut model, &data, &mut rng);
        assert_eq!(losses.len(), 15);
        assert!(
            losses[14] < losses[0] * 0.9,
            "training failed to descend: {losses:?}"
        );
    }

    #[test]
    fn training_is_deterministic() {
        let data = SyntheticConfig::smoke().generate(3);
        let run = |seed: u64| {
            let mut rng = SeededRng::new(seed);
            let mut model = MfModel::init(data.num_users(), data.num_items(), 4, &mut rng);
            let cfg = TrainConfig {
                epochs: 2,
                lr: 0.05,
            };
            let losses = CentralizedTrainer::new(cfg).fit(&mut model, &data, &mut rng);
            (losses, model)
        };
        let (l1, m1) = run(9);
        let (l2, m2) = run(9);
        assert_eq!(l1, l2);
        assert_eq!(m1, m2);
    }

    #[test]
    fn trained_model_ranks_positives_above_random_negatives() {
        let data = SyntheticConfig::smoke().generate(5);
        let mut rng = SeededRng::new(6);
        let mut model = MfModel::init(data.num_users(), data.num_items(), 16, &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            lr: 0.05,
        };
        CentralizedTrainer::new(cfg).fit(&mut model, &data, &mut rng);
        // AUC-style check on a sample of users.
        let sampler = NegativeSampler::new(data.num_items());
        let mut wins = 0usize;
        let mut total = 0usize;
        for u in 0..data.num_users().min(50) {
            if data.user_degree(u) == 0 {
                continue;
            }
            for (p, n) in sampler.pair_for_user(&data, u, &mut rng) {
                total += 1;
                if model.predict(u, p as usize) > model.predict(u, n as usize) {
                    wins += 1;
                }
            }
        }
        let auc = wins as f64 / total as f64;
        assert!(auc > 0.8, "pairwise accuracy too low: {auc}");
    }

    #[test]
    #[should_panic]
    fn rejects_shape_mismatch() {
        let data = SyntheticConfig::smoke().generate(1);
        let mut rng = SeededRng::new(2);
        let mut model = MfModel::init(3, 3, 4, &mut rng);
        let _ = CentralizedTrainer::new(TrainConfig::default()).fit(&mut model, &data, &mut rng);
    }
}
