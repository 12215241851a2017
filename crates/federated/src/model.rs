//! The model seam: what a client computes locally, abstracted.
//!
//! §III-B of the paper defines the protocol over shared parameters — the
//! item matrix `V` plus, "if Υ is learnable through a deep neural
//! network", the network parameters `Θ`. Everything else in the round
//! loop (client selection, the sharded store, fault injection, the
//! quarantine gate, the defense pipeline, checkpoint/resume) is
//! model-agnostic; only the local step and the extra shared-parameter
//! block differ between MF and NCF. [`ClientModel`] is that seam: the
//! [`Simulation`](crate::Simulation) owns one and routes every local
//! round through it, so a second model family inherits the whole
//! determinism battery — dense-vs-sharded, thread-count,
//! kill-and-resume, faulted-round byte-identity — for free.
//!
//! The MF instantiation ([`MfClientModel`]) is the identity refactor: it
//! has no shared block (`shared_len() == 0`, [`ClientModel::init_shared`]
//! consumes **zero** RNG draws) and delegates the local step verbatim to
//! [`BenignClient::local_round_into`], so every MF run is byte-identical
//! to the pre-seam round loop.

use crate::client::{BenignClient, RoundScratch};
use crate::config::FedConfig;
use fedrec_linalg::{Matrix, SeededRng, SparseGrad};

/// A model family pluggable into the federated round loop.
///
/// Implementations must be stateless configuration objects: all mutable
/// training state lives in the [`BenignClient`]s (private `u_i` + RNG
/// stream), the server's `V`, and the simulation's flat shared block.
/// That split is what lets the existing store/checkpoint machinery carry
/// a new model without changes.
///
/// # Determinism contract
///
/// * [`ClientModel::init_shared`] draws from the construction RNG
///   *between* the server's `V` init and the client-store build; a model
///   with no shared block must consume zero draws.
/// * [`ClientModel::local_round`] may draw only from the client's own
///   RNG stream ([`BenignClient::rng_mut`]), never from thread-shared
///   state — that is what keeps rounds bit-identical for any thread
///   count.
pub trait ClientModel: Send + Sync {
    /// Short name for reports and checkpoint fingerprints ("mf", "ncf").
    fn name(&self) -> &'static str;

    /// Length of the flat server-side shared-parameter block `Θ`
    /// (0 for MF: the only shared state is `V`).
    fn shared_len(&self) -> usize;

    /// Draw the initial shared block. Called exactly once at
    /// construction, straight after `V` is drawn and before the client
    /// store builds. Must return exactly [`ClientModel::shared_len`]
    /// values and consume no draws when that is zero.
    fn init_shared(&self, rng: &mut SeededRng) -> Vec<f32>;

    /// Run one local round for `client` against the received shared
    /// parameters (`items` = `V`, `shared` = flat `Θ`).
    ///
    /// Writes the clipped-and-noised item upload into `out` and the
    /// model-specific shared-parameter gradient into `shared_out`
    /// (cleared first; left empty when the model has none). Returns the
    /// local loss, or `None` when the client has nothing to train on —
    /// in which case both buffers must be left empty/cleared.
    #[allow(clippy::too_many_arguments)]
    fn local_round(
        &self,
        client: &mut BenignClient,
        items: &Matrix,
        shared: &[f32],
        cfg: &FedConfig,
        scratch: &mut RoundScratch,
        out: &mut SparseGrad,
        shared_out: &mut Vec<f32>,
    ) -> Option<f32>;
}

/// Matrix factorization — the paper's §V model and the identity
/// instantiation of the seam: no shared block, and the local step is
/// exactly [`BenignClient::local_round_into`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MfClientModel;

impl ClientModel for MfClientModel {
    fn name(&self) -> &'static str {
        "mf"
    }

    fn shared_len(&self) -> usize {
        0
    }

    fn init_shared(&self, _rng: &mut SeededRng) -> Vec<f32> {
        // Zero draws: MF construction streams must match the pre-seam
        // round loop bit-for-bit.
        Vec::new()
    }

    fn local_round(
        &self,
        client: &mut BenignClient,
        items: &Matrix,
        _shared: &[f32],
        cfg: &FedConfig,
        scratch: &mut RoundScratch,
        out: &mut SparseGrad,
        shared_out: &mut Vec<f32>,
    ) -> Option<f32> {
        shared_out.clear();
        client.local_round_into(items, cfg.lr, cfg.clip_norm, cfg.noise_scale, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mf_model_has_no_shared_block_and_draws_nothing() {
        let m = MfClientModel;
        assert_eq!(m.name(), "mf");
        assert_eq!(m.shared_len(), 0);
        let mut rng = SeededRng::new(7);
        let before = rng.full_state();
        assert!(m.init_shared(&mut rng).is_empty());
        assert_eq!(
            rng.full_state(),
            before,
            "MF shared init must not consume RNG draws"
        );
    }

    #[test]
    fn mf_local_round_matches_direct_client_call() {
        let mut rng = SeededRng::new(3);
        let items = Matrix::random_normal(20, 4, 0.0, 0.1, &mut rng);
        let cfg = FedConfig {
            k: 4,
            lr: 0.05,
            noise_scale: 0.1,
            ..FedConfig::default()
        };
        let mk = || {
            let mut r = SeededRng::new(11);
            BenignClient::new(2, vec![1, 5, 9], 20, 4, &mut r)
        };
        let (mut a, mut b) = (mk(), mk());
        let mut scratch_a = RoundScratch::new();
        let mut scratch_b = RoundScratch::new();
        let mut out_a = SparseGrad::new(4);
        let mut out_b = SparseGrad::new(4);
        let mut shared_out = vec![1.0f32];
        let la = MfClientModel.local_round(
            &mut a,
            &items,
            &[],
            &cfg,
            &mut scratch_a,
            &mut out_a,
            &mut shared_out,
        );
        let lb = b.local_round_into(
            &items,
            cfg.lr,
            cfg.clip_norm,
            cfg.noise_scale,
            &mut scratch_b,
            &mut out_b,
        );
        assert_eq!(la, lb);
        assert_eq!(out_a, out_b);
        assert!(shared_out.is_empty(), "MF must clear the shared buffer");
    }
}
