//! The NCF scorer and its hand-derived backprop.
//!
//! Interaction function (one hidden layer, the smallest structure that
//! makes Υ genuinely learnable):
//!
//! ```text
//! z   = [u ; v]                 (2k)
//! pre = W₁ z + b₁               (H)
//! h   = relu(pre)               (H)
//! x̂   = w₂ · h + b₂             (scalar)
//! ```
//!
//! Backward pass for `∂x̂/∂·` (chain rule, relu′ = 1 on the active set):
//!
//! ```text
//! d_pre = w₂ ⊙ relu′(pre)
//! ∂x̂/∂w₂ = h        ∂x̂/∂b₂ = 1
//! ∂x̂/∂W₁[h,:] = d_pre[h] · z      ∂x̂/∂b₁ = d_pre
//! ∂x̂/∂z = W₁ᵀ d_pre  →  ∂x̂/∂u = first k, ∂x̂/∂v = last k
//! ```
//!
//! BPR over a `(positive, negative)` pair applies the scalar factor
//! `∂L/∂d = −σ(−d)` to the positive pass and its negation to the
//! negative pass (`d = x̂_p − x̂_n`), exactly as in the MF crate — only
//! the per-score jacobians differ.

use crate::theta::Theta;
use fedrec_linalg::{kernel, vector, Matrix, SparseGrad};

/// Cached forward-pass state for one `(u, v)` scoring.
#[derive(Debug, Clone)]
pub struct Forward {
    /// Concatenated input `[u; v]`.
    pub z: Vec<f32>,
    /// Pre-activation `W₁ z + b₁`.
    pub pre: Vec<f32>,
    /// Hidden activation `relu(pre)`.
    pub h: Vec<f32>,
    /// The score `x̂`.
    pub score: f32,
}

/// Gradients of a scalar objective with respect to one scoring pass.
#[derive(Debug, Clone)]
pub struct Backward {
    /// `∂L/∂u` (length k).
    pub du: Vec<f32>,
    /// `∂L/∂v` (length k).
    pub dv: Vec<f32>,
    /// `∂L/∂Θ`.
    pub dtheta: Theta,
}

/// The NCF scorer. Its parameters live where the federated protocol
/// keeps them — `Θ` in the round loop's shared block, `V` on the server,
/// each `u_i` on its client — so every function takes them explicitly.
pub struct NcfModel;

impl NcfModel {
    /// Forward pass for explicit vectors (the federated clients score
    /// with their private `u`).
    pub fn forward_vec(theta: &Theta, u: &[f32], v: &[f32]) -> Forward {
        let k = theta.k;
        assert_eq!(u.len(), k, "user vector dimension");
        assert_eq!(v.len(), k, "item vector dimension");
        let mut z = Vec::with_capacity(2 * k);
        z.extend_from_slice(u);
        z.extend_from_slice(v);
        let mut pre = Vec::with_capacity(theta.hidden);
        for hrow in 0..theta.hidden {
            pre.push(vector::dot(theta.w1_row(hrow), &z) + theta.b1()[hrow]);
        }
        let h: Vec<f32> = pre.iter().map(|&p| p.max(0.0)).collect();
        let score = vector::dot(theta.w2(), &h) + theta.b2();
        Forward { z, pre, h, score }
    }

    /// Scores of every item for an explicit user vector.
    ///
    /// Algebraically the same pass as [`Self::forward_vec`] per item, but
    /// restructured around the shared scoring kernel: the user half of
    /// each hidden pre-activation `pre_h = W₁[h,..k]·u + W₁[h,k..]·v + b₁[h]`
    /// is item-independent and hoisted, and the item halves are batched
    /// through [`kernel::score_rows`] tile by tile — no per-item
    /// allocation. (Sum association differs from `forward_vec`, so scores
    /// agree to rounding, not bitwise.)
    pub fn scores_for_vector(theta: &Theta, items: &Matrix, u: &[f32], out: &mut [f32]) {
        assert_eq!(out.len(), items.rows());
        let k = theta.k;
        assert_eq!(u.len(), k, "user vector dimension");
        assert_eq!(items.cols(), k, "item dimension");
        let hdim = theta.hidden;
        let mut user_part = Vec::with_capacity(hdim);
        for hrow in 0..hdim {
            user_part.push(vector::dot(&theta.w1_row(hrow)[..k], u) + theta.b1()[hrow]);
        }
        const TILE: usize = 256;
        let mut cols = vec![0.0f32; hdim * TILE];
        let mut lo = 0usize;
        while lo < items.rows() {
            let hi = (lo + TILE).min(items.rows());
            let t = hi - lo;
            let tile_rows = &items.as_slice()[lo * k..hi * k];
            for hrow in 0..hdim {
                kernel::score_rows(
                    tile_rows,
                    k,
                    &theta.w1_row(hrow)[k..],
                    &mut cols[hrow * t..(hrow + 1) * t],
                );
            }
            for ti in 0..t {
                let mut score = theta.b2();
                for hrow in 0..hdim {
                    let pre = user_part[hrow] + cols[hrow * t + ti];
                    if pre > 0.0 {
                        score += theta.w2()[hrow] * pre;
                    }
                }
                out[lo + ti] = score;
            }
            lo = hi;
        }
    }

    /// Backward pass: gradients of `coeff · x̂` for one cached forward.
    pub fn backward(theta: &Theta, fwd: &Forward, coeff: f32) -> Backward {
        let k = theta.k;
        let hdim = theta.hidden;
        // d_pre = coeff * w2 ⊙ relu'(pre)
        let d_pre: Vec<f32> = (0..hdim)
            .map(|i| {
                if fwd.pre[i] > 0.0 {
                    coeff * theta.w2()[i]
                } else {
                    0.0
                }
            })
            .collect();
        let mut dtheta = Theta::zeros(hdim, k);
        // ∂/∂w2 = coeff * h ; ∂/∂b2 = coeff
        for i in 0..hdim {
            dtheta.w2_mut()[i] = coeff * fwd.h[i];
        }
        *dtheta.b2_mut() = coeff;
        // ∂/∂W1[h,:] = d_pre[h] * z ; ∂/∂b1 = d_pre ; dz = W1^T d_pre
        let mut dz = vec![0.0f32; 2 * k];
        for (hrow, &dp) in d_pre.iter().enumerate().take(hdim) {
            dtheta.b1_mut()[hrow] = dp;
            if dp != 0.0 {
                vector::axpy(dp, &fwd.z, dtheta.w1_row_mut(hrow));
                vector::axpy(dp, theta.w1_row(hrow), &mut dz);
            }
        }
        Backward {
            du: dz[..k].to_vec(),
            dv: dz[k..].to_vec(),
            dtheta,
        }
    }

    /// One user's BPR round through the NCF: loss plus gradients with
    /// respect to the private `u`, the touched item rows, and `Θ`.
    pub fn bpr_round(
        theta: &Theta,
        items: &Matrix,
        u: &[f32],
        pairs: &[(u32, u32)],
    ) -> (f32, Vec<f32>, SparseGrad, Theta) {
        let k = theta.k;
        let mut loss = 0.0f32;
        let mut grad_u = vec![0.0f32; k];
        let mut grad_items = SparseGrad::with_capacity(k, pairs.len() * 2);
        let mut grad_theta = Theta::zeros(theta.hidden, k);
        for &(pos, neg) in pairs {
            let fp = Self::forward_vec(theta, u, items.row(pos as usize));
            let fneg = Self::forward_vec(theta, u, items.row(neg as usize));
            let d = fp.score - fneg.score;
            loss += -vector::log_sigmoid(d);
            let coeff = -vector::sigmoid(-d); // ∂L/∂d
            let bp = Self::backward(theta, &fp, coeff);
            let bn = Self::backward(theta, &fneg, -coeff);
            vector::add_assign(&mut grad_u, &bp.du);
            vector::add_assign(&mut grad_u, &bn.du);
            grad_items.accumulate(pos, 1.0, &bp.dv);
            grad_items.accumulate(neg, 1.0, &bn.dv);
            grad_theta.axpy(1.0, &bp.dtheta);
            grad_theta.axpy(1.0, &bn.dtheta);
        }
        (loss, grad_u, grad_items, grad_theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrec_linalg::SeededRng;

    const EPS: f32 = 1e-3;

    fn setup() -> (Theta, Vec<f32>, Vec<f32>) {
        let mut rng = SeededRng::new(3);
        let theta = Theta::init(5, 4, &mut rng);
        let u: Vec<f32> = (0..4).map(|_| rng.normal(0.0, 0.5)).collect();
        let v: Vec<f32> = (0..4).map(|_| rng.normal(0.0, 0.5)).collect();
        (theta, u, v)
    }

    #[test]
    fn forward_matches_manual_computation() {
        // 1 hidden unit, k=1: x̂ = w2 * relu(w1u*u + w1v*v + b1) + b2.
        let mut theta = Theta::zeros(1, 1);
        theta.w1_row_mut(0)[0] = 2.0; // weight on u
        theta.w1_row_mut(0)[1] = -1.0; // weight on v
        theta.b1_mut()[0] = 0.5;
        theta.w2_mut()[0] = 3.0;
        *theta.b2_mut() = 0.25;
        let f = NcfModel::forward_vec(&theta, &[1.0], &[0.5]);
        // pre = 2*1 - 1*0.5 + 0.5 = 2.0; x̂ = 3*2 + 0.25 = 6.25.
        assert!((f.score - 6.25).abs() < 1e-6);
        // Negative pre goes through relu: u = -1 → pre = -2+(-0.5)+0.5=-2 → h=0.
        let f2 = NcfModel::forward_vec(&theta, &[-1.0], &[0.5]);
        assert!((f2.score - 0.25).abs() < 1e-6);
    }

    #[test]
    fn backward_matches_finite_differences_on_u_and_v() {
        let (theta, u, v) = setup();
        let fwd = NcfModel::forward_vec(&theta, &u, &v);
        let b = NcfModel::backward(&theta, &fwd, 1.0);
        for dim in 0..u.len() {
            let mut up = u.clone();
            up[dim] += EPS;
            let mut dn = u.clone();
            dn[dim] -= EPS;
            let num = (NcfModel::forward_vec(&theta, &up, &v).score
                - NcfModel::forward_vec(&theta, &dn, &v).score)
                / (2.0 * EPS);
            assert!(
                (b.du[dim] - num).abs() < 1e-2,
                "du[{dim}]: {} vs {num}",
                b.du[dim]
            );

            let mut vp = v.clone();
            vp[dim] += EPS;
            let mut vn = v.clone();
            vn[dim] -= EPS;
            let num = (NcfModel::forward_vec(&theta, &u, &vp).score
                - NcfModel::forward_vec(&theta, &u, &vn).score)
                / (2.0 * EPS);
            assert!(
                (b.dv[dim] - num).abs() < 1e-2,
                "dv[{dim}]: {} vs {num}",
                b.dv[dim]
            );
        }
    }

    #[test]
    fn backward_matches_finite_differences_on_theta() {
        let (theta, u, v) = setup();
        let fwd = NcfModel::forward_vec(&theta, &u, &v);
        let b = NcfModel::backward(&theta, &fwd, 1.0);
        let n = theta.as_slice().len();
        // Probe a spread of parameter indices across all sections.
        for idx in [0usize, 3, 7, n - 11, n - 6, n - 2, n - 1] {
            let mut tp = theta.clone();
            let mut tn = theta.clone();
            *tp.param_mut(idx) += EPS;
            *tn.param_mut(idx) -= EPS;
            let num = (NcfModel::forward_vec(&tp, &u, &v).score
                - NcfModel::forward_vec(&tn, &u, &v).score)
                / (2.0 * EPS);
            let ana = b.dtheta.as_slice()[idx];
            assert!((ana - num).abs() < 2e-2, "theta[{idx}]: {ana} vs {num}");
        }
    }

    #[test]
    fn bpr_round_descends() {
        let mut rng = SeededRng::new(9);
        let items = Matrix::random_normal(10, 4, 0.0, 0.3, &mut rng);
        let theta = Theta::init(6, 4, &mut rng);
        let u: Vec<f32> = (0..4).map(|_| rng.normal(0.0, 0.3)).collect();
        let pairs = vec![(0u32, 5u32), (1, 6), (2, 7)];
        let (loss, gu, gv, gt) = NcfModel::bpr_round(&theta, &items, &u, &pairs);
        assert!(loss > 0.0);
        // Take a step on everything and verify the loss drops.
        let lr = 0.05;
        let mut u2 = u.clone();
        vector::axpy(-lr, &gu, &mut u2);
        let mut items2 = items.clone();
        gv.apply_to(&mut items2, lr);
        let mut theta2 = theta.clone();
        theta2.axpy(-lr, &gt);
        let (loss2, _, _, _) = NcfModel::bpr_round(&theta2, &items2, &u2, &pairs);
        assert!(loss2 < loss, "descent failed: {loss} -> {loss2}");
    }

    #[test]
    fn bpr_round_touches_exactly_the_pair_items() {
        let mut rng = SeededRng::new(11);
        let items = Matrix::random_normal(8, 3, 0.0, 0.3, &mut rng);
        let theta = Theta::init(4, 3, &mut rng);
        let u = vec![0.1, -0.2, 0.3];
        let (_, _, gv, _) = NcfModel::bpr_round(&theta, &items, &u, &[(1, 4), (2, 4)]);
        assert_eq!(gv.items(), &[1, 2, 4]);
    }

    #[test]
    fn scores_for_vector_matches_pointwise_forward() {
        let mut rng = SeededRng::new(17);
        let items = Matrix::random_normal(5, 3, 0.0, 0.1, &mut rng);
        let theta = Theta::init(4, 3, &mut rng);
        let u: Vec<f32> = (0..3).map(|_| rng.normal(0.0, 0.1)).collect();
        let mut out = vec![0.0f32; 5];
        NcfModel::scores_for_vector(&theta, &items, &u, &mut out);
        for (item, &score) in out.iter().enumerate() {
            let pointwise = NcfModel::forward_vec(&theta, &u, items.row(item)).score;
            assert!((score - pointwise).abs() < 1e-6);
        }
    }
}
