//! Bayesian Personalized Ranking: loss and hand-derived gradients.
//!
//! For one training pair `(v_j⁺, v_k⁻)` of user `u` (Eq. 4):
//!
//! ```text
//! L = -ln σ(d)          with d = x̂_uj - x̂_uk = u · (v_j - v_k)
//! ∂L/∂d   = -(1 - σ(d)) = -σ(-d)
//! ∂L/∂u   = -σ(-d) · (v_j - v_k)
//! ∂L/∂v_j = -σ(-d) · u
//! ∂L/∂v_k = +σ(-d) · u
//! ```
//!
//! This is the paper's plain BPR: Eq. 4 has no ℓ2 term. All formulas are
//! verified against central finite differences in the tests below.

use fedrec_linalg::{vector, Matrix, SparseGrad};

/// Loss and gradients of one user's local BPR round.
#[derive(Debug, Clone)]
pub struct UserRoundGrads {
    /// Total BPR loss over the user's pairs (`L_i^rec` of Eq. 4).
    pub loss: f32,
    /// Gradient with respect to the user's own feature vector `∇u_i`.
    pub grad_user: Vec<f32>,
    /// Sparse gradient with respect to item features `∇V_i`.
    pub grad_items: SparseGrad,
}

/// Reusable buffers for [`user_round_grads_into`].
///
/// One scratch per worker thread lets thousands of client rounds per epoch
/// run without a single heap allocation: the user-gradient and difference
/// vectors are `k`-wide and persist across calls.
#[derive(Debug, Clone, Default)]
pub struct GradScratch {
    /// `∇u_i` accumulator; sized/zeroed per call.
    pub grad_user: Vec<f32>,
    /// `v_j − v_k` workspace.
    diff: Vec<f32>,
}

impl GradScratch {
    /// Fresh (empty) scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, k: usize) {
        self.grad_user.clear();
        self.grad_user.resize(k, 0.0);
        self.diff.clear();
        self.diff.resize(k, 0.0);
    }
}

/// Compute loss and gradients for a user vector `u` over `(pos, neg)` item
/// pairs against the item matrix `items`.
///
/// This is exactly the computation a federated client performs locally in
/// each round (§III-B); the centralized trainer reuses it too. This
/// convenience wrapper allocates fresh buffers per call; the round loop
/// uses [`user_round_grads_into`] with pooled buffers instead.
pub fn user_round_grads(u: &[f32], items: &Matrix, pairs: &[(u32, u32)]) -> UserRoundGrads {
    let mut scratch = GradScratch::new();
    let mut grad_items = SparseGrad::with_capacity(items.cols(), pairs.len() * 2);
    let loss = user_round_grads_into(u, items, pairs, &mut scratch, &mut grad_items);
    UserRoundGrads {
        loss,
        grad_user: std::mem::take(&mut scratch.grad_user),
        grad_items,
    }
}

/// The user side of one pair `(v_j⁺, v_k⁻)`: writes `v_j − v_k` into
/// `diff`, adds `∂L/∂u = −σ(−d)·(v_j − v_k)` into `grad_user`, and returns
/// `d = u·(v_j − v_k)` and `∂L/∂d = −σ(−d)`.
///
/// Every BPR user gradient goes through this step: the client round
/// ([`user_round_grads_into`]) and the attacker's user-only refinement of
/// `Û`, which must reproduce the client arithmetic bit for bit. It is
/// never inlined, so both run the same compiled step: inlined, the
/// optimizer may fold its negations differently per caller and give a
/// NaN from non-finite inputs a different sign.
#[inline(never)]
pub fn user_pair_step(
    u: &[f32],
    vj: &[f32],
    vk: &[f32],
    diff: &mut [f32],
    grad_user: &mut [f32],
) -> (f32, f32) {
    vector::sub(vj, vk, diff);
    let d = vector::dot(u, diff);
    let coeff = -vector::sigmoid(-d);
    vector::axpy(coeff, diff, grad_user);
    (d, coeff)
}

/// Allocation-free core of [`user_round_grads`]: writes `∇u_i` into
/// `scratch.grad_user` and `∇V_i` into `grad_items` (cleared first, `k`
/// preserved), returning the loss.
pub fn user_round_grads_into(
    u: &[f32],
    items: &Matrix,
    pairs: &[(u32, u32)],
    scratch: &mut GradScratch,
    grad_items: &mut SparseGrad,
) -> f32 {
    let k = items.cols();
    assert_eq!(u.len(), k, "user vector dimension mismatch");
    assert_eq!(grad_items.k(), k, "grad_items dimension mismatch");
    scratch.reset(k);
    grad_items.clear();
    let mut loss = 0.0f32;

    for &(pos, neg) in pairs {
        let vj = items.row(pos as usize);
        let vk = items.row(neg as usize);
        let (d, coeff) = user_pair_step(u, vj, vk, &mut scratch.diff, &mut scratch.grad_user);
        loss += -vector::log_sigmoid(d);
        grad_items.accumulate(pos, coeff, u);
        grad_items.accumulate(neg, -coeff, u);
    }
    loss
}

/// The BPR loss alone (no gradients), for evaluation curves (Fig. 3 plots
/// training loss per epoch).
pub fn user_loss(u: &[f32], items: &Matrix, pairs: &[(u32, u32)]) -> f32 {
    let mut diff = vec![0.0f32; items.cols()];
    let mut loss = 0.0f32;
    for &(pos, neg) in pairs {
        vector::sub(items.row(pos as usize), items.row(neg as usize), &mut diff);
        loss += -vector::log_sigmoid(vector::dot(u, &diff));
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrec_linalg::SeededRng;

    const EPS: f32 = 1e-3;

    fn setup(seed: u64) -> (Vec<f32>, Matrix, Vec<(u32, u32)>) {
        let mut rng = SeededRng::new(seed);
        let k = 6;
        let u: Vec<f32> = (0..k).map(|_| rng.normal(0.0, 0.5)).collect();
        let items = Matrix::random_normal(8, k, 0.0, 0.5, &mut rng);
        let pairs = vec![(0u32, 3u32), (1, 4), (2, 3), (0, 5)];
        (u, items, pairs)
    }

    #[test]
    fn grad_user_matches_finite_differences() {
        let (u, items, pairs) = setup(5);
        let g = user_round_grads(&u, &items, &pairs);
        for dim in 0..u.len() {
            let mut up = u.clone();
            up[dim] += EPS;
            let mut dn = u.clone();
            dn[dim] -= EPS;
            let num =
                (user_loss(&up, &items, &pairs) - user_loss(&dn, &items, &pairs)) / (2.0 * EPS);
            assert!(
                (g.grad_user[dim] - num).abs() < 2e-2,
                "dim={dim}: analytic {} vs numeric {}",
                g.grad_user[dim],
                num
            );
        }
    }

    #[test]
    fn grad_items_matches_finite_differences() {
        let (u, items, pairs) = setup(11);
        let g = user_round_grads(&u, &items, &pairs);
        for (item, row) in g.grad_items.iter() {
            for (dim, &analytic) in row.iter().enumerate() {
                let mut up = items.clone();
                up.row_mut(item as usize)[dim] += EPS;
                let mut dn = items.clone();
                dn.row_mut(item as usize)[dim] -= EPS;
                let num = (user_loss(&u, &up, &pairs) - user_loss(&u, &dn, &pairs)) / (2.0 * EPS);
                assert!(
                    (analytic - num).abs() < 2e-2,
                    "item={item} dim={dim}: analytic {analytic} vs numeric {num}",
                );
            }
        }
    }

    #[test]
    fn gradient_step_reduces_loss() {
        let (u, items, pairs) = setup(23);
        let g = user_round_grads(&u, &items, &pairs);
        let before = user_loss(&u, &items, &pairs);
        let mut u2 = u.clone();
        vector::axpy(-0.05, &g.grad_user, &mut u2);
        let mut items2 = items.clone();
        g.grad_items.apply_to(&mut items2, 0.05);
        let after = user_loss(&u2, &items2, &pairs);
        assert!(after < before, "descent failed: {before} -> {after}");
    }

    #[test]
    fn empty_pairs_yield_zero() {
        let (u, items, _) = setup(1);
        let g = user_round_grads(&u, &items, &[]);
        assert_eq!(g.loss, 0.0);
        assert!(g.grad_user.iter().all(|&x| x == 0.0));
        assert!(g.grad_items.is_empty());
    }

    #[test]
    fn touched_items_are_exactly_pair_items() {
        let (u, items, pairs) = setup(3);
        let g = user_round_grads(&u, &items, &pairs);
        let mut expect: Vec<u32> = pairs.iter().flat_map(|&(p, n)| [p, n]).collect();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(g.grad_items.items(), expect.as_slice());
    }

    #[test]
    fn loss_is_positive_and_shrinks_with_good_separation() {
        let k = 2;
        let u = vec![1.0, 0.0];
        // pos item aligned with u, neg item anti-aligned.
        let good = Matrix::from_vec(2, k, vec![5.0, 0.0, -5.0, 0.0]);
        let bad = Matrix::from_vec(2, k, vec![-5.0, 0.0, 5.0, 0.0]);
        let pairs = vec![(0u32, 1u32)];
        assert!(user_loss(&u, &good, &pairs) < 0.01);
        assert!(user_loss(&u, &bad, &pairs) > 5.0);
    }

    #[test]
    fn user_loss_agrees_with_round_grads_loss() {
        let (u, items, pairs) = setup(7);
        let g = user_round_grads(&u, &items, &pairs);
        assert!((g.loss - user_loss(&u, &items, &pairs)).abs() < 1e-5);
    }
}
