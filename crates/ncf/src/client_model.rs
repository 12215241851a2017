//! NCF's instantiation of the federated model seam.
//!
//! [`NcfClientModel`] plugs the paper's learnable interaction function
//! into `fedrec_federated::Simulation` through the
//! [`ClientModel`] trait: the shared block `Θ` is the flattened MLP
//! parameters, and the local step computes BPR gradients *through* the
//! MLP (both `∇V_i` and `∇Θ_i`, each clipped and noised per Eq. 5)
//! while the private `u_i` update (Eq. 6) uses the raw gradient.
//!
//! Because the client state is the plain `BenignClient` (a private
//! vector plus an RNG stream — NCF clients own nothing more), the
//! sharded store's lazy materialization, RNG-replay reconstruction, and
//! checkpoint machinery all carry over unchanged, and every
//! byte-identity gate (dense-vs-sharded, thread-count, kill-and-resume,
//! faulted-round) extends to NCF by construction.

use crate::model::NcfModel;
use crate::theta::Theta;
use fedrec_federated::client::{BenignClient, RoundScratch};
use fedrec_federated::model::ClientModel;
use fedrec_federated::FedConfig;
use fedrec_linalg::{Matrix, SeededRng, SparseGrad};

/// Neural collaborative filtering as a pluggable [`ClientModel`].
///
/// The shape (`hidden`, `k`) is fixed at construction; `k` must match
/// the federated config's latent dimension. The local objective is the
/// paper's plain BPR through the MLP.
#[derive(Debug, Clone, Copy)]
pub struct NcfClientModel {
    hidden: usize,
    k: usize,
}

impl NcfClientModel {
    /// NCF model seam with MLP hidden width `hidden` over latent
    /// dimension `k`.
    pub fn new(hidden: usize, k: usize) -> Self {
        assert!(hidden > 0 && k > 0, "NCF shape must be positive");
        Self { hidden, k }
    }
}

impl ClientModel for NcfClientModel {
    fn name(&self) -> &'static str {
        "ncf"
    }

    fn shared_len(&self) -> usize {
        Theta::len_for(self.hidden, self.k)
    }

    fn init_shared(&self, rng: &mut SeededRng) -> Vec<f32> {
        // Θ is drawn right after V, before any client forks.
        Theta::init(self.hidden, self.k, rng).as_slice().to_vec()
    }

    fn local_round(
        &self,
        client: &mut BenignClient,
        items: &Matrix,
        shared: &[f32],
        cfg: &FedConfig,
        scratch: &mut RoundScratch,
        out: &mut SparseGrad,
        shared_out: &mut Vec<f32>,
    ) -> Option<f32> {
        shared_out.clear();
        if !client.can_train() {
            return None;
        }
        // Negative sampling shares MF's draw discipline (client-owned
        // stream, one pair per positive).
        client.sample_pairs_into(scratch.pairs_mut());
        let theta = Theta::from_flat(self.hidden, cfg.k, shared);
        let (loss, grad_u, mut grad_items, mut grad_theta) =
            NcfModel::bpr_round(&theta, items, client.user_vec(), scratch.pairs_mut());
        // Private update with the raw gradient (Eq. 6); clip + noise only
        // what leaves the device (Eq. 5), in item-then-theta order.
        client.apply_user_step(cfg.lr, &grad_u);
        grad_items.clip_rows(cfg.clip_norm);
        grad_items.add_gaussian_noise(cfg.noise_scale * cfg.clip_norm, client.rng_mut());
        grad_theta.clip(cfg.clip_norm);
        grad_theta.add_gaussian_noise(cfg.noise_scale * cfg.clip_norm, client.rng_mut());
        *out = grad_items;
        shared_out.extend_from_slice(grad_theta.as_slice());
        Some(loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evaluate, ncf_sim, smoke_cfg};
    use fedrec_data::split::leave_one_out;
    use fedrec_data::synthetic::SyntheticConfig;
    use fedrec_federated::NoAttack;

    #[test]
    fn shape_and_shared_length_agree_with_theta() {
        let m = NcfClientModel::new(16, 8);
        assert_eq!(m.name(), "ncf");
        assert_eq!(m.shared_len(), Theta::len_for(16, 8));
        let mut rng = SeededRng::new(3);
        let shared = m.init_shared(&mut rng);
        assert_eq!(shared.len(), m.shared_len());
        // Same draws as a direct Theta::init with the same stream.
        let direct = Theta::init(16, 8, &mut SeededRng::new(3));
        assert_eq!(shared, direct.as_slice());
    }

    #[test]
    fn local_round_uploads_both_parts_and_steps_the_private_vector() {
        let m = NcfClientModel::new(4, 4);
        let mut rng = SeededRng::new(9);
        let items = Matrix::random_normal(20, 4, 0.0, 0.1, &mut rng);
        let shared = m.init_shared(&mut rng);
        let mut client = BenignClient::new(0, vec![2, 5, 9], 20, 4, &mut rng);
        let before = client.user_vec().to_vec();
        let cfg = FedConfig {
            k: 4,
            lr: 0.05,
            ..FedConfig::default()
        };
        let mut scratch = RoundScratch::new();
        let mut out = SparseGrad::new(4);
        let mut shared_out = Vec::new();
        let loss = m
            .local_round(
                &mut client,
                &items,
                &shared,
                &cfg,
                &mut scratch,
                &mut out,
                &mut shared_out,
            )
            .expect("trainable client");
        assert!(loss.is_finite());
        assert!(out.nnz_rows() > 3, "positives + negatives carry gradient");
        assert_eq!(shared_out.len(), m.shared_len());
        assert_ne!(client.user_vec(), before.as_slice(), "Eq. 6 fired");
    }

    #[test]
    fn untrainable_client_leaves_buffers_empty() {
        let m = NcfClientModel::new(4, 4);
        let mut rng = SeededRng::new(2);
        let items = Matrix::random_normal(6, 4, 0.0, 0.1, &mut rng);
        let shared = m.init_shared(&mut rng);
        let mut client = BenignClient::new(1, vec![], 6, 4, &mut rng);
        let cfg = FedConfig {
            k: 4,
            ..FedConfig::default()
        };
        let mut scratch = RoundScratch::new();
        let mut out = SparseGrad::new(4);
        let mut shared_out = vec![1.0];
        assert!(m
            .local_round(
                &mut client,
                &items,
                &shared,
                &cfg,
                &mut scratch,
                &mut out,
                &mut shared_out,
            )
            .is_none());
        assert!(shared_out.is_empty());
    }

    #[test]
    fn clean_ncf_training_descends_and_learns() {
        let data = SyntheticConfig::smoke().generate(1);
        let (train, test) = leave_one_out(&data, 2);
        let mut sim = ncf_sim(&train, smoke_cfg(), Box::new(NoAttack), 0);
        let losses = sim.run().losses;
        assert!(losses.last().unwrap() < &(losses[0] * 0.95), "{losses:?}");
        let targets = train.coldest_items(1);
        let rep = evaluate(&sim, &train, &test, &targets, 3);
        assert!(rep.hr_at_10 > 0.15, "NCF failed to learn: {rep:?}");
        assert!(rep.attack.er_at_10 < 0.2, "cold target exposed: {rep:?}");
    }

    #[test]
    fn run_is_deterministic() {
        let data = SyntheticConfig::smoke().generate(2);
        let go = || {
            let mut sim = ncf_sim(&data, smoke_cfg(), Box::new(NoAttack), 3);
            let losses = sim.run().losses;
            (losses, sim.shared().to_vec())
        };
        let (l1, t1) = go();
        let (l2, t2) = go();
        assert_eq!(l1, l2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn theta_moves_during_training() {
        let data = SyntheticConfig::smoke().generate(3);
        let mut sim = ncf_sim(&data, smoke_cfg(), Box::new(NoAttack), 0);
        let before = sim.shared().to_vec();
        sim.step_faulted(0);
        assert_ne!(before, sim.shared(), "Θ must be updated by Eq. 7");
    }

    #[test]
    fn dp_noise_changes_the_trajectory() {
        let data = SyntheticConfig::smoke().generate(4);
        let mut clean = ncf_sim(&data, smoke_cfg(), Box::new(NoAttack), 0);
        let noisy_cfg = FedConfig {
            noise_scale: 0.1,
            ..smoke_cfg()
        };
        let mut noisy = ncf_sim(&data, noisy_cfg, Box::new(NoAttack), 0);
        clean.step_faulted(0);
        noisy.step_faulted(0);
        assert_ne!(clean.shared(), noisy.shared());
    }
}
