//! The adversary interface.
//!
//! The threat model of §III-C: the attacker controls `ρ·n` malicious user
//! clients. Whenever the server selects some of them for a round, the
//! attacker sees the current shared parameters `V` (the server just sent
//! them) and decides what each selected malicious client uploads. The
//! attacker never sees benign clients' data or feature vectors.
//!
//! Every attack in this workspace — FedRecAttack itself and all baselines —
//! implements [`Adversary`].

use fedrec_linalg::{Matrix, SeededRng, SparseGrad};

/// Round context handed to the adversary.
#[derive(Debug, Clone, Copy)]
pub struct RoundCtx<'a> {
    /// Round (epoch) index, 0-based.
    pub round: usize,
    /// Learning rate η the server will apply (assumed known, §III-C:
    /// "attacker knows the model structure and some hyper parameters").
    pub lr: f32,
    /// The ℓ2 row bound `C` malicious uploads must respect.
    pub clip_norm: f32,
    /// Indices `0..num_malicious` of the malicious clients selected this
    /// round.
    pub selected_malicious: &'a [usize],
}

/// A coordinated attacker controlling all malicious clients.
pub trait Adversary {
    /// Produce the upload of every selected malicious client for this
    /// round. Must return exactly `ctx.selected_malicious.len()` gradients
    /// (empty `SparseGrad`s are allowed and mean "upload nothing").
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<SparseGrad>;

    /// Like [`Adversary::poison`], but for model families with an extra
    /// flat shared-parameter block `Θ` (NCF): the attacker sees the
    /// current `shared` alongside `V` and returns, per selected malicious
    /// client, the item gradient plus a shared-parameter gradient (empty
    /// = "no Θ upload", the paper's §IV generic choice of poisoning `V`
    /// only).
    ///
    /// The provided default wraps [`Adversary::poison`] with empty shared
    /// uploads, so every MF adversary participates in shared-parameter
    /// rounds unchanged — and byte-identically, since the default
    /// forwards the same RNG stream to the same `poison` call.
    fn poison_with_shared(
        &mut self,
        items: &Matrix,
        _shared: &[f32],
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<(SparseGrad, Vec<f32>)> {
        self.poison(items, ctx, rng)
            .into_iter()
            .map(|g| (g, Vec::new()))
            .collect()
    }

    /// Short name for reports ("fedrecattack", "random", ...).
    fn name(&self) -> &'static str;

    /// Append the adversary's mutable state to a checkpoint blob.
    ///
    /// Stateless adversaries (the default) write nothing. Stateful ones
    /// (e.g. FedRecAttack's user approximator and its RNG) must serialize
    /// everything their future `poison` calls depend on, or a resumed run
    /// diverges from a straight-through one.
    fn checkpoint_state(&self, _out: &mut Vec<u8>) {}

    /// Restore the state written by [`Adversary::checkpoint_state`].
    ///
    /// The default pairs with the default writer: it accepts only an
    /// empty blob, so it catches an adversary that writes state but has
    /// no reader. It cannot catch one that keeps state but writes none:
    /// such an adversary must implement both methods, or a resumed run
    /// silently diverges.
    fn restore_state(&mut self, bytes: &[u8]) {
        assert!(
            bytes.is_empty(),
            "adversary '{}' has {} bytes of checkpointed state but no restore_state \
             implementation",
            self.name(),
            bytes.len()
        );
    }
}

/// The `None` baseline: malicious clients upload nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoAttack;

impl Adversary for NoAttack {
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        _rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        ctx.selected_malicious
            .iter()
            .map(|_| SparseGrad::new(items.cols()))
            .collect()
    }

    fn name(&self) -> &'static str {
        "none"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_attack_returns_one_empty_grad_per_selection() {
        let items = Matrix::zeros(4, 2);
        let mut rng = SeededRng::new(0);
        let selected = [0usize, 2];
        let ctx = RoundCtx {
            round: 0,
            lr: 0.01,
            clip_norm: 1.0,
            selected_malicious: &selected,
        };
        let got = NoAttack.poison(&items, &ctx, &mut rng);
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|g| g.is_empty()));
        assert_eq!(NoAttack.name(), "none");
    }
}
