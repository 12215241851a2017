//! Approximating the private user matrix (Eq. 19).
//!
//! The attacker cannot see any user's feature vector, but it does see the
//! shared `V^t` every round (it controls selected clients) and it knows
//! the public interactions `D′`. Since optimal user vectors satisfy
//! `U* = argmin_U L^rec(U, V*, Θ*; D)` (Eq. 18), the attacker substitutes
//! what it has: `Û^t ≈ argmin_U L^rec(U, V^t; D′)` — BPR SGD over the
//! public interactions with the item matrix frozen.
//!
//! The approximation warm-starts across rounds: `V^t` moves slowly, so a
//! few SGD passes per round keep `Û` tracking it. Only *active* users —
//! those with at least one public interaction — carry any signal (which
//! is exactly why the ξ = 0 ablation of Table IX kills the attack), so
//! the estimate is stored **compacted**: an `a × k` matrix over the
//! sorted active-user ids instead of a dense `n × k` allocation. At
//! million-user scale with ξ = 1 % public knowledge that is a ~100×
//! memory reduction; users outside the active set simply have no row
//! ([`UserApproximator::row_of`] returns `None`) and contribute nothing
//! to the attack loss.
//!
//! [`UserApproximator::refine`] is the user half of a client's BPR round:
//! the same per-pair [`bpr::user_pair_step`], summed into one reused
//! `k`-wide gradient, without the item gradient the attacker would
//! discard.

use crate::loss::UserRows;
use fedrec_data::PublicView;
use fedrec_linalg::{vector, Matrix, SeededRng};
use fedrec_recsys::bpr;

/// Tracks the attacker's running estimate `Û` of the private user matrix,
/// restricted to the public view's active users.
#[derive(Debug, Clone)]
pub struct UserApproximator {
    /// Sorted global ids of users with ≥ 1 public interaction; row `i` of
    /// `u_hat` estimates user `active[i]`.
    active: Vec<u32>,
    /// Compacted `a × k` estimate.
    u_hat: Matrix,
    /// Negative-sampling stream for [`UserApproximator::refine`].
    rng: SeededRng,
    /// Population size `n` (for interface assertions; the allocation
    /// never depends on it).
    num_users: usize,
}

impl UserApproximator {
    /// Initialize `Û` over `public`'s active users with the same
    /// `N(0, 0.1²)` prior clients use. Each row is derived from
    /// `(seed, user)` alone, so a user's initialization does not depend
    /// on which other users happen to be active.
    pub fn new(public: &PublicView, k: usize, seed: u64) -> Self {
        let active: Vec<u32> = public.active_users().iter().map(|&u| u as u32).collect();
        let mut u_hat = Matrix::zeros(active.len(), k);
        for (i, &u) in active.iter().enumerate() {
            let mut row_rng = SeededRng::new(seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            for x in u_hat.row_mut(i) {
                *x = row_rng.normal(0.0, 0.1);
            }
        }
        Self {
            active,
            u_hat,
            rng: SeededRng::new(seed),
            num_users: public.num_users(),
        }
    }

    /// Sorted global ids of the users the estimate covers.
    pub fn active_users(&self) -> &[u32] {
        &self.active
    }

    /// Number of active users `a` (the estimate's row count).
    pub fn num_active(&self) -> usize {
        self.active.len()
    }

    /// The compacted `a × k` estimate matrix (row order =
    /// [`UserApproximator::active_users`] order).
    pub fn u_hat(&self) -> &Matrix {
        &self.u_hat
    }

    /// The estimated vector for *global* user `u`, or `None` when the
    /// user has no public interactions (and therefore no estimate).
    pub fn row_of(&self, u: usize) -> Option<&[f32]> {
        let i = self.active.binary_search(&(u as u32)).ok()?;
        Some(self.u_hat.row(i))
    }

    /// Sample up to `max` *global* user ids from the active set (sorted),
    /// the `max_users_per_round` scaling knob restricted to users that
    /// can actually contribute gradient.
    pub fn sample_active_subset(&self, max: usize, rng: &mut SeededRng) -> Vec<usize> {
        if max >= self.active.len() {
            self.active.iter().map(|&u| u as usize).collect()
        } else {
            let mut picks = rng.sample_indices(self.active.len(), max);
            picks.sort_unstable();
            picks.into_iter().map(|i| self.active[i] as usize).collect()
        }
    }

    /// Run `epochs` passes of BPR SGD over the public interactions,
    /// updating only `Û` (items frozen — they belong to the server).
    ///
    /// Negative items are sampled from `V_i⁻″` (items the user has not
    /// *publicly* interacted with), the only negative set the attacker can
    /// construct.
    ///
    /// As in a client round (no regularization), a user's row stays frozen
    /// while its pairs' gradients are summed, then takes one step.
    pub fn refine(&mut self, public: &PublicView, items: &Matrix, epochs: usize, lr: f32) {
        let m = public.num_items();
        let k = self.u_hat.cols();
        assert_eq!(items.rows(), m, "item universe mismatch");
        assert_eq!(items.cols(), k, "latent dimension mismatch");
        assert_eq!(self.num_users, public.num_users(), "user count mismatch");
        let mut grad = vec![0.0f32; k];
        let mut diff = vec![0.0f32; k];
        for _ in 0..epochs {
            for (i, &u) in self.active.iter().enumerate() {
                let pos = public.user_items(u as usize);
                if pos.is_empty() || pos.len() >= m {
                    continue;
                }
                grad.fill(0.0);
                let row = self.u_hat.row(i);
                for &p in pos {
                    // One negative per public positive, from V_i⁻″.
                    let v = loop {
                        let v = self.rng.below(m) as u32;
                        if pos.binary_search(&v).is_err() {
                            break v;
                        }
                    };
                    bpr::user_pair_step(
                        row,
                        items.row(p as usize),
                        items.row(v as usize),
                        &mut diff,
                        &mut grad,
                    );
                }
                descend(self.u_hat.row_mut(i), &grad, lr);
            }
        }
    }

    /// Full RNG state for checkpointing (the refine stream, including any
    /// cached Gaussian spare).
    pub fn rng_state(&self) -> ([u64; 4], Option<f64>) {
        self.rng.full_state()
    }

    /// Overwrite the estimate and RNG from checkpointed state. The
    /// approximator must have been rebuilt over the same public view
    /// (`values` is the row-major `a × k` matrix).
    pub fn restore_state(&mut self, values: &[f32], rng_state: ([u64; 4], Option<f64>)) {
        let k = self.u_hat.cols();
        assert_eq!(
            values.len(),
            self.active.len() * k,
            "checkpointed estimate shape mismatch"
        );
        for (i, chunk) in values.chunks(k).enumerate() {
            self.u_hat.row_mut(i).copy_from_slice(chunk);
        }
        self.rng = SeededRng::from_full_state(rng_state.0, rng_state.1);
    }
}

/// One SGD step `row ← row − lr·grad` on a user estimate. Never inlined,
/// like [`bpr::user_pair_step`], so the refinement and its pair-list
/// reference in the tests run the same compiled step and agree on NaN
/// signs too.
#[inline(never)]
fn descend(row: &mut [f32], grad: &[f32], lr: f32) {
    vector::axpy(-lr, grad, row);
}

impl UserRows for UserApproximator {
    fn num_users(&self) -> usize {
        self.num_users
    }

    fn row_of(&self, u: usize) -> Option<&[f32]> {
        UserApproximator::row_of(self, u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrec_data::synthetic::SyntheticConfig;
    use fedrec_data::{Dataset, PublicView};
    use fedrec_recsys::trainer::{CentralizedTrainer, TrainConfig};
    use fedrec_recsys::MfModel;

    /// Train a ground-truth model, expose some interactions, approximate U
    /// from them, and verify approximated vectors rank the user's *true*
    /// items above random ones more often than a random vector does.
    #[test]
    fn approximation_recovers_preference_signal() {
        let data = SyntheticConfig::smoke().generate(11);
        let mut rng = SeededRng::new(12);
        let mut model = MfModel::init(data.num_users(), data.num_items(), 16, &mut rng);
        let cfg = TrainConfig {
            epochs: 30,
            lr: 0.05,
        };
        CentralizedTrainer::new(cfg).fit(&mut model, &data, &mut rng);

        let public = PublicView::sample(&data, 0.3, 13);
        let mut approx = UserApproximator::new(&public, 16, 14);
        let random = approx.clone();
        approx.refine(&public, &model.item_factors, 40, 0.05);

        // AUC over active users only — the users the estimate covers.
        let auc = |a: &UserApproximator| {
            let mut wins = 0usize;
            let mut total = 0usize;
            let mut lrng = SeededRng::new(15);
            for u in 0..data.num_users() {
                let Some(row) = a.row_of(u) else { continue };
                for &p in data.user_items(u) {
                    let n = loop {
                        let v = lrng.below(data.num_items()) as u32;
                        if !data.contains(u, v) {
                            break v;
                        }
                    };
                    let sp = vector::dot(row, model.item_factors.row(p as usize));
                    let sn = vector::dot(row, model.item_factors.row(n as usize));
                    total += 1;
                    if sp > sn {
                        wins += 1;
                    }
                }
            }
            wins as f64 / total as f64
        };
        let random_auc = auc(&random);
        let approx_auc = auc(&approx);
        assert!(
            approx_auc > random_auc + 0.1,
            "approximation adds no signal: random {random_auc:.3} vs approx {approx_auc:.3}"
        );
        assert!(approx_auc > 0.6, "approx AUC too low: {approx_auc:.3}");
    }

    #[test]
    fn inactive_users_have_no_row_and_active_rows_move() {
        let data = Dataset::from_tuples(3, 10, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
        let public = PublicView::sample(&data, 1.0, 1);
        let mut rng = SeededRng::new(2);
        let items = Matrix::random_normal(10, 4, 0.0, 0.1, &mut rng);
        let mut approx = UserApproximator::new(&public, 4, 3);
        assert_eq!(approx.num_active(), 1, "only user 0 interacts");
        assert_eq!(approx.active_users(), &[0]);
        assert!(approx.row_of(1).is_none(), "inactive users carry no row");
        assert!(approx.row_of(2).is_none());
        let before_u0 = approx.row_of(0).unwrap().to_vec();
        approx.refine(&public, &items, 5, 0.1);
        assert_ne!(approx.row_of(0).unwrap(), before_u0.as_slice());
    }

    /// The compaction: the allocation tracks the active count, not the
    /// population, and a user's init row does not depend on which other
    /// users are active.
    #[test]
    fn estimate_is_compact_and_init_is_population_independent() {
        // Same 6-user universe, two public views: one where only users 2
        // and 4 interact, one where everyone does.
        let small = Dataset::from_tuples(6, 10, vec![(2, 1), (2, 3), (4, 5)]);
        let big = Dataset::from_tuples(
            6,
            10,
            vec![(0, 0), (1, 1), (2, 1), (2, 3), (3, 2), (4, 5), (5, 6)],
        );
        let a_small = UserApproximator::new(&PublicView::sample(&small, 1.0, 9), 8, 7);
        let a_big = UserApproximator::new(&PublicView::sample(&big, 1.0, 9), 8, 7);
        assert_eq!(a_small.active_users(), &[2, 4]);
        assert_eq!(
            a_small.u_hat().rows(),
            2,
            "allocation must track the active count, not the population"
        );
        assert_eq!(a_big.num_active(), 6);
        // A user active in both views gets the same initialization even
        // though its compacted row index differs.
        for u in [2usize, 4] {
            assert_eq!(
                a_small.row_of(u).unwrap(),
                a_big.row_of(u).unwrap(),
                "init must be a pure function of (seed, user)"
            );
        }
    }

    #[test]
    fn sample_active_subset_draws_from_active_ids() {
        let data = SyntheticConfig::smoke().generate(32);
        let public = PublicView::sample(&data, 0.3, 9);
        let approx = UserApproximator::new(&public, 4, 5);
        let mut rng = SeededRng::new(6);
        let all = approx.sample_active_subset(usize::MAX, &mut rng);
        assert_eq!(all.len(), approx.num_active());
        let some = approx.sample_active_subset(3, &mut rng);
        assert_eq!(some.len(), 3);
        assert!(some.windows(2).all(|w| w[0] < w[1]), "subset sorted");
        for u in &some {
            assert!(approx.row_of(*u).is_some(), "subset must be active users");
        }
    }

    #[test]
    fn refine_is_deterministic() {
        let data = SyntheticConfig::smoke().generate(1);
        let public = PublicView::sample(&data, 0.1, 2);
        let mut rng = SeededRng::new(3);
        let items = Matrix::random_normal(data.num_items(), 8, 0.0, 0.1, &mut rng);
        let run = || {
            let mut a = UserApproximator::new(&public, 8, 7);
            a.refine(&public, &items, 3, 0.05);
            a.u_hat().clone()
        };
        assert_eq!(run(), run());
    }

    /// The refinement as it was before it shed its per-user allocations:
    /// one sampled negative per public positive collected into a pair list,
    /// then `∇u` taken from the full client round (`bpr::user_round_grads`).
    fn refine_reference(
        a: &mut UserApproximator,
        public: &PublicView,
        items: &Matrix,
        epochs: usize,
        lr: f32,
    ) {
        let m = public.num_items();
        for _ in 0..epochs {
            for (i, &u) in a.active.iter().enumerate() {
                let pos = public.user_items(u as usize);
                if pos.is_empty() || pos.len() >= m {
                    continue;
                }
                let pairs: Vec<(u32, u32)> = pos
                    .iter()
                    .map(|&p| loop {
                        let v = a.rng.below(m) as u32;
                        if pos.binary_search(&v).is_err() {
                            return (p, v);
                        }
                    })
                    .collect();
                let g = bpr::user_round_grads(a.u_hat.row(i), items, &pairs);
                descend(a.u_hat.row_mut(i), &g.grad_user, lr);
            }
        }
    }

    /// The allocation-free refinement equals the pair-list reference bit
    /// for bit — `Û` and the negative-sampling stream — at latent widths on
    /// and off the 8-lane split, with users whose public set covers the
    /// catalog (skipped) or holds one item, and over catalogs with
    /// duplicate rows, ±∞ and NaN entries (NaN rows compare by `to_bits`:
    /// both sides run the same operations in the same order).
    #[test]
    fn refine_matches_the_pair_list_reference() {
        let mut rng = SeededRng::new(3901);
        let (n, m) = (40usize, 30usize);
        let mut tuples = Vec::new();
        for u in 0..n as u32 {
            let degree = match u % 5 {
                0 => 0,
                1 => 1,
                2 => m,
                _ => 2 + rng.below(12),
            };
            for v in rng.sample_indices(m, degree) {
                tuples.push((u, v as u32));
            }
        }
        let public = PublicView::sample(&Dataset::from_tuples(n, m, tuples), 1.0, 1);
        let bits = |a: &UserApproximator| -> Vec<u32> {
            a.u_hat().as_slice().iter().map(|x| x.to_bits()).collect()
        };
        for k in [1usize, 3, 8, 16, 17] {
            for catalog in 0..4 {
                let mut items = Matrix::random_normal(m, k, 0.0, 0.5, &mut rng);
                match catalog {
                    1 => {
                        let dup = items.row(0).to_vec();
                        for i in (0..m).step_by(3) {
                            items.row_mut(i).copy_from_slice(&dup);
                        }
                    }
                    2 => {
                        items.row_mut(4)[0] = f32::INFINITY;
                        items.row_mut(9)[k - 1] = f32::NEG_INFINITY;
                    }
                    3 => items.row_mut(7)[k / 2] = f32::NAN,
                    _ => {}
                }
                for epochs in [1usize, 3] {
                    let mut got = UserApproximator::new(&public, k, 3902 + k as u64);
                    let mut want = got.clone();
                    got.refine(&public, &items, epochs, 0.05);
                    refine_reference(&mut want, &public, &items, epochs, 0.05);
                    let case = format!("k {k} catalog {catalog} epochs {epochs}");
                    assert_eq!(bits(&got), bits(&want), "{case}");
                    assert_eq!(got.rng_state(), want.rng_state(), "{case}");
                }
            }
        }
    }

    #[test]
    fn restore_state_round_trips() {
        let data = SyntheticConfig::smoke().generate(2);
        let public = PublicView::sample(&data, 0.2, 4);
        let mut rng = SeededRng::new(3);
        let items = Matrix::random_normal(data.num_items(), 8, 0.0, 0.1, &mut rng);
        let mut a = UserApproximator::new(&public, 8, 7);
        a.refine(&public, &items, 2, 0.05);
        let values = a.u_hat().as_slice().to_vec();
        let rng_state = a.rng_state();
        let mut b = UserApproximator::new(&public, 8, 7);
        b.restore_state(&values, rng_state);
        assert_eq!(a.u_hat(), b.u_hat());
        // Continued refinement agrees bit-for-bit.
        a.refine(&public, &items, 2, 0.05);
        b.refine(&public, &items, 2, 0.05);
        assert_eq!(a.u_hat(), b.u_hat());
    }

    #[test]
    #[should_panic(expected = "item universe mismatch")]
    fn rejects_wrong_item_matrix() {
        let data = SyntheticConfig::smoke().generate(1);
        let public = PublicView::sample(&data, 0.1, 2);
        let items = Matrix::zeros(3, 8);
        let mut a = UserApproximator::new(&public, 8, 7);
        a.refine(&public, &items, 1, 0.05);
    }
}
