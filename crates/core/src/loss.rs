//! The attack loss `L^atk` and its gradient with respect to `V`.
//!
//! ER@K is discontinuous, so the paper optimizes the surrogate (Eq. 15):
//!
//! ```text
//! L_i^atk = Σ_{t ∈ V^tar, (u_i,t) ∉ D′}  g( min_{v_j ∈ V_i^rec′, v_j ∉ V^tar} x̂_ij  −  x̂_it )
//! g(x) = x        (x ≥ 0)
//!      = eˣ − 1   (x < 0)
//! ```
//!
//! `V_i^rec′` is the user's top-K list computed from the attacker's
//! approximation `Û` and restricted to `V_i⁻″` (items without *public*
//! interactions — the attacker's best guess at what is recommendable).
//! [`attack_gradient`] ranks the users [`USER_BLOCK`] at a time through
//! the recommender's pruned block sweep ([`top_ranked_block`]), the same
//! exact ranking the evaluator and the online service use, and rescores
//! the margin item and each target with [`vector::dot`]: the ranked list
//! holds sanitized scores, the loss needs the raw ones.
//!
//! Gradient (hand-derived; `u_i` is a constant here because the attacker
//! only poisons `V`): with margin item `j* = argmin …` and
//! `d = x̂_ij* − x̂_it`,
//!
//! ```text
//! ∂L/∂v_t  = −g′(d)·u_i          g′(x) = 1 (x ≥ 0), eˣ (x < 0)
//! ∂L/∂v_j* = +g′(d)·u_i          (sub-gradient through the min)
//! ```
//!
//! `g` saturates for very negative margins (targets already well inside
//! the list), which is exactly why the paper's side effects are small
//! (§V-D): scores are pushed just past the boundary, not to infinity.

use fedrec_data::PublicView;
use fedrec_linalg::{vector, Matrix};
use fedrec_recsys::stream_eval::USER_BLOCK;
use fedrec_recsys::{top_ranked_block, PrunedItems};

/// The saturating surrogate `g` of Eq. 14.
#[inline]
pub fn g(x: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        x.exp() - 1.0
    }
}

/// Derivative `g′` (1 for `x ≥ 0`, `eˣ` below).
#[inline]
pub fn g_prime(x: f32) -> f32 {
    if x >= 0.0 {
        1.0
    } else {
        x.exp()
    }
}

/// A (possibly partial) view of user feature vectors for the attack loss.
///
/// The attacker's approximation only covers the public view's active
/// users — the rest have no estimate and cannot contribute signal — so
/// the gradient is generic over a source that may return `None` for some
/// users. A dense [`Matrix`] (white-box tests) covers everyone.
pub trait UserRows {
    /// Population size `n` (the valid range of user ids).
    fn num_users(&self) -> usize;
    /// User `u`'s feature vector, or `None` when no estimate exists.
    fn row_of(&self, u: usize) -> Option<&[f32]>;
}

impl UserRows for Matrix {
    fn num_users(&self) -> usize {
        self.rows()
    }

    fn row_of(&self, u: usize) -> Option<&[f32]> {
        Some(self.row(u))
    }
}

/// Result of one attack-gradient evaluation.
#[derive(Debug, Clone)]
pub struct AttackGradient {
    /// Dense `m × k` gradient `∂L^atk/∂V` (most rows are zero; the dense
    /// layout keeps Eq. 22's row-norm sampling trivial).
    pub grad: Matrix,
    /// The attack loss value `L^atk` (diagnostics / convergence tests).
    pub loss: f32,
}

/// Compute `L^atk` and `∂L^atk/∂V` over the given users.
///
/// * `users` — the attacker's approximation `Û` (or, in white-box tests,
///   the true `U`); users without a row ([`UserRows::row_of`] = `None`)
///   are skipped.
/// * `items` — the shared `V^t`.
/// * `public` — `D′`; provides each user's public exclusion set `V_i⁻″`
///   and the `(u_i, t) ∉ D′` filter.
/// * `targets` — sorted `V^tar`.
/// * `top_k` — list length K.
/// * `user_subset` — evaluate only these users (`None` = all), the
///   `max_users_per_round` scaling knob.
///
/// The margin penalty is the saturating [`g`] of Eq. 14.
pub fn attack_gradient<U: UserRows + ?Sized>(
    users: &U,
    items: &Matrix,
    public: &PublicView,
    targets: &[u32],
    top_k: usize,
    user_subset: Option<&[usize]>,
) -> AttackGradient {
    debug_assert!(targets.windows(2).all(|w| w[0] < w[1]), "targets unsorted");
    let m = items.rows();
    let k = items.cols();
    let mut grad = Matrix::zeros(m, k);
    let mut loss = 0.0f32;

    let all_users: Vec<usize>;
    let user_ids: &[usize] = match user_subset {
        Some(s) => s,
        None => {
            all_users = (0..users.num_users()).collect();
            &all_users
        }
    };

    // The top list must contain at least one non-target even when targets
    // occupy the whole top-K, so fetch K + |targets| entries.
    let fetch = top_k + targets.len();
    // Users without an estimate carry no signal and are skipped; the rest
    // are ranked USER_BLOCK at a time, in the order given.
    let estimated: Vec<(usize, &[f32])> = user_ids
        .iter()
        .filter_map(|&ui| users.row_of(ui).map(|u| (ui, u)))
        .collect();
    let pruned = PrunedItems::build(items);
    let mut packed: Vec<f32> = Vec::with_capacity(USER_BLOCK * k);
    let mut excludes: Vec<&[u32]> = Vec::with_capacity(USER_BLOCK);
    let mut lists: Vec<Vec<(u32, f32)>> = vec![Vec::new(); USER_BLOCK];
    let mut extended: Vec<u32> = Vec::with_capacity(fetch);
    for block in estimated.chunks(USER_BLOCK) {
        packed.clear();
        excludes.clear();
        for &(ui, u) in block {
            packed.extend_from_slice(u);
            excludes.push(public.user_items(ui));
        }
        let lists = &mut lists[..block.len()];
        top_ranked_block(&pruned, &packed, &excludes, fetch, lists);

        for (&(ui, u), list) in block.iter().zip(lists.iter()) {
            extended.clear();
            extended.extend(list.iter().map(|&(item, _)| item));
            let Some(jstar) = margin_item(&extended, targets, top_k) else {
                continue; // degenerate: fewer non-target items than K
            };
            // The list carries sanitized scores; the loss needs raw dots.
            let margin = vector::dot(u, items.row(jstar as usize));

            for &t in targets {
                if public.contains(ui, t) {
                    continue; // (u_i, t) ∈ D′ — already interacted publicly
                }
                let d = margin - vector::dot(u, items.row(t as usize));
                loss += g(d);
                let gp = g_prime(d);
                // ∂L/∂v_t = −g′·u ; ∂L/∂v_j* = +g′·u
                grad.axpy_row(t as usize, -gp, u);
                grad.axpy_row(jstar as usize, gp, u);
            }
        }
    }
    AttackGradient { grad, loss }
}

/// The margin item `j*` of Eq. 15 in a user's ranked list `extended`
/// (the top `K + |V^tar|` items, best first): the weakest non-target
/// inside the top-`top_k` window, else the strongest non-target just
/// below it. `None` when `extended` holds no non-target at all. `targets`
/// is sorted ascending.
pub fn margin_item(extended: &[u32], targets: &[u32], top_k: usize) -> Option<u32> {
    let non_target = |v: &&u32| targets.binary_search(v).is_err();
    let (window, below) = extended.split_at(top_k.min(extended.len()));
    window
        .iter()
        .rev()
        .find(non_target)
        .or_else(|| below.iter().find(non_target))
        .copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrec_data::Dataset;
    use fedrec_linalg::SeededRng;

    #[test]
    fn margin_item_is_the_weakest_non_target_in_the_window() {
        // Window [7, 3, 9] with target 3: the weakest non-target is 9.
        assert_eq!(margin_item(&[7, 3, 9, 4], &[3], 3), Some(9));
        // A target at the window's end does not hide the non-target
        // before it.
        assert_eq!(margin_item(&[7, 9, 3, 4], &[3], 3), Some(9));
    }

    #[test]
    fn margin_item_falls_below_a_window_full_of_targets() {
        // Targets fill the top-2 window: the first non-target below it.
        assert_eq!(margin_item(&[5, 2, 8, 6], &[2, 5], 2), Some(8));
        assert_eq!(margin_item(&[5, 2, 5, 8], &[2, 5], 2), Some(8));
    }

    #[test]
    fn margin_item_is_none_without_a_non_target() {
        // Fewer non-targets than K, and none at all in the list.
        assert_eq!(margin_item(&[2, 5], &[2, 5], 10), None);
        assert_eq!(margin_item(&[], &[2, 5], 10), None);
    }

    #[test]
    fn g_matches_definition_and_is_continuous() {
        assert_eq!(g(2.0), 2.0);
        assert_eq!(g(0.0), 0.0);
        assert!((g(-1.0) - ((-1.0f32).exp() - 1.0)).abs() < 1e-7);
        // Continuity and derivative continuity at 0.
        assert!((g(1e-6) - g(-1e-6)).abs() < 1e-5);
        assert!((g_prime(0.0) - 1.0).abs() < 1e-7);
        assert!((g_prime(-1e-6) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn g_saturates_for_very_negative_margins() {
        assert!(g(-30.0) > -1.0 - 1e-6);
        assert!(g_prime(-30.0) < 1e-12);
    }

    fn tiny_setup() -> (Matrix, Matrix, PublicView, Vec<u32>) {
        // 2 users, 6 items, k=2. Users point along e0 and e1.
        let users = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let items = Matrix::from_vec(
            6,
            2,
            vec![
                0.9, 0.1, // item 0: high for user 0
                0.5, 0.5, // item 1
                0.1, 0.9, // item 2: high for user 1
                -0.5, -0.5, // item 3: the target, low for both
                0.3, 0.2, // item 4
                0.2, 0.3, // item 5
            ],
        );
        let data = Dataset::from_tuples(2, 6, vec![(0, 0), (1, 2)]);
        let public = PublicView::sample(&data, 1.0, 1);
        (users, items, public, vec![3u32])
    }

    #[test]
    fn gradient_pushes_target_toward_users() {
        let (users, items, public, targets) = tiny_setup();
        let out = attack_gradient(&users, &items, &public, &targets, 2, None);
        // Target row gradient = -Σ g'·u_i: descending it *raises* target
        // scores. Both users contribute, so both coords negative.
        let trow = out.grad.row(3);
        assert!(trow[0] < 0.0, "target grad {trow:?}");
        assert!(trow[1] < 0.0, "target grad {trow:?}");
        assert!(out.loss > 0.0, "unreached target must produce loss");
    }

    #[test]
    fn margin_item_receives_positive_gradient() {
        let (users, items, public, targets) = tiny_setup();
        let out = attack_gradient(&users, &items, &public, &targets, 2, None);
        // Some non-target row must be pushed *down* (positive gradient,
        // since the server descends).
        let any_positive = (0..6)
            .filter(|&i| i != 3)
            .any(|i| out.grad.row(i).iter().any(|&x| x > 0.0));
        assert!(any_positive);
    }

    #[test]
    fn finite_difference_check_on_v() {
        let (users, items, public, targets) = tiny_setup();
        let eps = 1e-3f32;
        let base = attack_gradient(&users, &items, &public, &targets, 2, None);
        // Check the target row (the only row with smooth dependence; the
        // margin item can switch discretely so we test the target).
        for dim in 0..2 {
            let mut up = items.clone();
            up.row_mut(3)[dim] += eps;
            let mut dn = items.clone();
            dn.row_mut(3)[dim] -= eps;
            let lu = attack_gradient(&users, &up, &public, &targets, 2, None).loss;
            let ld = attack_gradient(&users, &dn, &public, &targets, 2, None).loss;
            let num = (lu - ld) / (2.0 * eps);
            let ana = base.grad.row(3)[dim];
            assert!(
                (ana - num).abs() < 1e-2,
                "dim {dim}: analytic {ana} vs numeric {num}"
            );
        }
    }

    #[test]
    fn publicly_interacted_targets_are_skipped() {
        // User 0 publicly interacted with the target: no loss from them.
        let users = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let items = Matrix::from_vec(3, 2, vec![0.9, 0.0, 0.5, 0.0, -0.5, 0.0]);
        let data = Dataset::from_tuples(1, 3, vec![(0, 2)]);
        let public = PublicView::sample(&data, 1.0, 1);
        let out = attack_gradient(&users, &items, &public, &[2], 1, None);
        assert_eq!(out.loss, 0.0);
        assert!(out.grad.row(2).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn reached_targets_contribute_negligible_gradient() {
        // Target already far above the boundary: margin − target ≪ 0.
        let users = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let items = Matrix::from_vec(3, 2, vec![20.0, 0.0, 0.1, 0.0, 0.2, 0.0]);
        let public = PublicView::empty(1, 3);
        let out = attack_gradient(&users, &items, &public, &[0], 1, None);
        assert!(out.loss < 0.0, "saturated g is negative but bounded");
        assert!(out.loss > -1.01);
        assert!(vector::l2_norm(out.grad.row(0)) < 1e-6);
    }

    #[test]
    fn user_subset_restricts_contributions() {
        let (users, items, public, targets) = tiny_setup();
        let only0 = attack_gradient(&users, &items, &public, &targets, 2, Some(&[0]));
        // Only user 0 = e0 contributes: target grad dim 1 must be zero.
        assert!(only0.grad.row(3)[0] < 0.0);
        assert_eq!(only0.grad.row(3)[1], 0.0);
    }

    /// The gradient as it was before block ranking: per user, one dense
    /// `kernel::score_rows` sweep and one `top_k_excluding` call, with the
    /// margin and the targets read from the raw dense scores.
    fn attack_gradient_reference<U: UserRows + ?Sized>(
        users: &U,
        items: &Matrix,
        public: &PublicView,
        targets: &[u32],
        top_k: usize,
        user_subset: Option<&[usize]>,
    ) -> AttackGradient {
        let (m, k) = (items.rows(), items.cols());
        let mut grad = Matrix::zeros(m, k);
        let mut loss = 0.0f32;
        let mut scores = vec![0.0f32; m];
        let all_users: Vec<usize> = (0..users.num_users()).collect();
        for &ui in user_subset.unwrap_or(&all_users) {
            let Some(u) = users.row_of(ui) else { continue };
            fedrec_linalg::kernel::score_rows(items.as_slice(), k, u, &mut scores);
            let extended = fedrec_recsys::topk::top_k_excluding(
                &scores,
                public.user_items(ui),
                top_k + targets.len(),
            );
            let Some(jstar) = margin_item(&extended, targets, top_k) else {
                continue;
            };
            let margin = scores[jstar as usize];
            for &t in targets {
                if public.contains(ui, t) {
                    continue;
                }
                let d = margin - scores[t as usize];
                loss += g(d);
                let gp = g_prime(d);
                grad.axpy_row(t as usize, -gp, u);
                grad.axpy_row(jstar as usize, gp, u);
            }
        }
        AttackGradient { grad, loss }
    }

    /// An estimate for every user except the multiples of 7.
    struct Holey(Matrix);

    impl UserRows for Holey {
        fn num_users(&self) -> usize {
            self.0.rows()
        }

        fn row_of(&self, u: usize) -> Option<&[f32]> {
            (!u.is_multiple_of(7)).then(|| self.0.row(u))
        }
    }

    /// One battery catalog: the item matrix, the targets, and public sets
    /// in which every fifth user exposes the first target and every
    /// thirteenth exposes every non-target (so only targets stay
    /// rankable and `margin_item` finds nothing).
    fn battery_catalog(
        shape: usize,
        k: usize,
        n: usize,
        rng: &mut SeededRng,
    ) -> (Matrix, Vec<u32>, PublicView) {
        let m = [300, 300, 40, 300, 40, 6][shape];
        let targets: Vec<u32> = if m == 6 { vec![1, 4] } else { vec![2, 5, 11] };
        let mut items = Matrix::random_normal(m, k, 0.0, 0.5, rng);
        match shape {
            // Score ties: every row repeats one of 17, targets included.
            1 => {
                for i in 17..m {
                    let src = items.row(i % 17).to_vec();
                    items.row_mut(i).copy_from_slice(&src);
                }
            }
            // Targets outscore everything for the (non-negative) users.
            2 => {
                for &t in &targets {
                    items.row_mut(t as usize).fill(3.0);
                }
            }
            // ±∞ entries, in non-targets and in one target.
            3 => {
                items.row_mut(3)[0] = f32::INFINITY;
                items.row_mut(150)[0] = f32::INFINITY;
                items.row_mut(77)[k - 1] = f32::NEG_INFINITY;
                items.row_mut(11)[k / 2] = f32::INFINITY;
            }
            // NaN entries, in a non-target and in one target.
            4 => {
                items.row_mut(6)[0] = f32::NAN;
                items.row_mut(5)[k - 1] = f32::NAN;
            }
            _ => {}
        }
        let mut tuples = Vec::new();
        for u in 0..n {
            let own: Vec<u32> = if u % 13 == 2 {
                (0..m as u32).filter(|v| !targets.contains(v)).collect()
            } else {
                let degree = rng.below(m.min(12) + 1);
                rng.sample_indices(m, degree)
                    .into_iter()
                    .map(|v| v as u32)
                    .collect()
            };
            tuples.extend(own.into_iter().map(|v| (u as u32, v)));
            if u % 5 == 1 {
                tuples.push((u as u32, targets[0]));
            }
        }
        let public = PublicView::sample(&Dataset::from_tuples(n, m, tuples), 1.0, 1);
        (items, targets, public)
    }

    /// The block-ranked gradient equals the per-user reference bit for bit
    /// (`grad` and `loss` by `to_bits`, NaN entries included) at latent
    /// widths on and off the 8-lane split; over subsets of 0, 1, 63, 64,
    /// 65 and 130 users (one block, a block edge, past it, three blocks)
    /// and `None`; with users that have no estimate, targets inside public
    /// sets, duplicate rows, targets that fill the top-K window, catalogs
    /// smaller than K where `margin_item` finds nothing, and ±∞ / NaN
    /// entries whose margin scores only the raw dot keeps.
    #[test]
    fn attack_gradient_matches_the_per_user_reference() {
        let mut rng = SeededRng::new(3701);
        let n = 140;
        let bits = |g: &AttackGradient| -> (Vec<u32>, u32) {
            let grad = g.grad.as_slice().iter().map(|x| x.to_bits()).collect();
            (grad, g.loss.to_bits())
        };
        for k in [1usize, 3, 8, 16, 17] {
            for shape in 0..6 {
                let (items, targets, public) = battery_catalog(shape, k, n, &mut rng);
                let mut rows = Matrix::random_normal(n, k, 0.0, 0.5, &mut rng);
                if shape == 2 {
                    rows.as_mut_slice().iter_mut().for_each(|x| *x = x.abs());
                }
                let users = Holey(rows);
                let mut subsets: Vec<Option<Vec<usize>>> = vec![None];
                for size in [0usize, 1, 63, 64, 65, 130] {
                    let mut s = rng.sample_indices(n, size);
                    s.sort_unstable();
                    subsets.push(Some(s));
                }
                for subset in &subsets {
                    for top_k in [1usize, 2, 10] {
                        let subset = subset.as_deref();
                        let got = attack_gradient(&users, &items, &public, &targets, top_k, subset);
                        let want = attack_gradient_reference(
                            &users, &items, &public, &targets, top_k, subset,
                        );
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "k {k} shape {shape} subset {:?} top_k {top_k}",
                            subset.map(<[usize]>::len)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn loss_decreases_when_descending_the_gradient() {
        let (users, items, public, targets) = tiny_setup();
        let out = attack_gradient(&users, &items, &public, &targets, 2, None);
        let mut poisoned = items.clone();
        for r in 0..poisoned.rows() {
            let g = out.grad.row(r).to_vec();
            vector::axpy(-0.1, &g, poisoned.row_mut(r));
        }
        let after = attack_gradient(&users, &poisoned, &public, &targets, 2, None);
        assert!(
            after.loss < out.loss,
            "descent failed: {} -> {}",
            out.loss,
            after.loss
        );
    }
}
