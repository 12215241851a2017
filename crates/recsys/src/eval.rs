//! The evaluator: fixed HR@10 negatives plus the whole-population pass.
//!
//! Combines the metrics of [`crate::metrics`] into one sweep over users:
//! each user's ranking feeds the attack metrics (ER@5 / ER@10 / NDCG@10
//! against the target items) and HR@10 (against the held-out test item
//! and 99 fixed sampled negatives, the protocol of NCF which the paper
//! follows). The sweep itself is [`crate::stream_eval`]'s shard loop.

use crate::metrics::AttackMetrics;
use crate::stream_eval::{EvalMode, UserRowSource};
use fedrec_data::split::TestSet;
use fedrec_data::InteractionSource;
use fedrec_linalg::{Matrix, SeededRng};

/// Evaluation output for one model state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalReport {
    /// Target-item exposure metrics (Eq. 8 and NDCG@10).
    pub attack: AttackMetrics,
    /// Recommendation accuracy HR@10 on the leave-one-out test set.
    pub hr_at_10: f64,
}

/// Evaluator with a fixed negative sample per user so HR@10 curves across
/// epochs are comparable (re-sampling negatives each epoch adds noise).
#[derive(Debug, Clone)]
pub struct Evaluator {
    targets: Vec<u32>,
    /// 99 negatives per user (empty for users without a test item). May be
    /// shorter than the population: users beyond it have no held-out item
    /// (the sharded / partial-population protocol).
    pub(crate) hr_negatives: Vec<Vec<u32>>,
}

/// Number of sampled negatives for HR@K, per the NCF protocol.
pub const HR_NUM_NEGATIVES: usize = 99;

impl Evaluator {
    /// Prepare an evaluator for `train`/`test` and the given target items.
    ///
    /// Negatives exclude the user's training items *and* the test item.
    /// `test` may cover only a prefix of the population (`test.len() ≤ n`);
    /// users without an entry are simply excluded from HR@K, exactly like
    /// users whose entry is `None`. A million-user run can therefore hold
    /// out items for a sample of users instead of paying `O(n)` negative
    /// sampling up front.
    pub fn new<D: InteractionSource + ?Sized>(
        train: &D,
        test: &TestSet,
        targets: &[u32],
        seed: u64,
    ) -> Self {
        let mut targets = targets.to_vec();
        targets.sort_unstable();
        targets.dedup();
        let mut rng = SeededRng::new(seed);
        assert!(
            test.len() <= train.num_users(),
            "test set larger than population: {} > {}",
            test.len(),
            train.num_users()
        );
        let mut hr_negatives = Vec::with_capacity(test.len());
        for (u, t) in test.iter().enumerate() {
            match *t {
                Some(test_item) => {
                    let pos = train.user_items(u);
                    let mut negs = Vec::with_capacity(HR_NUM_NEGATIVES);
                    // Rejection sampling over the item universe.
                    let available =
                        train.num_items() - pos.len() - 1 /* test item */;
                    let want = HR_NUM_NEGATIVES.min(available);
                    while negs.len() < want {
                        let v = rng.below(train.num_items()) as u32;
                        if v != test_item && pos.binary_search(&v).is_err() && !negs.contains(&v) {
                            negs.push(v);
                        }
                    }
                    hr_negatives.push(negs);
                }
                None => hr_negatives.push(Vec::new()),
            }
        }
        Self {
            targets,
            hr_negatives,
        }
    }

    /// Sorted, deduplicated target items.
    pub fn targets(&self) -> &[u32] {
        &self.targets
    }

    /// The fixed HR@10 negatives prepared for user `u`.
    ///
    /// Empty when no item is held out for `u` or `u` lies beyond the
    /// prepared test prefix. Exposed so sweeps outside this crate can rank
    /// the *same* negative sample per user.
    pub fn hr_negatives(&self, u: usize) -> &[u32] {
        self.hr_negatives.get(u).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Evaluate the model with item rows `items` and user rows `users`
    /// over the whole population: the full-mode streamed sweep
    /// ([`Self::evaluate_user_range_mode`]) as one population-wide shard
    /// on the calling thread.
    ///
    /// Attack metrics cover every user of the population; HR@10 covers the
    /// users the (possibly partial) test set holds an item out for.
    pub fn evaluate<D: InteractionSource + Sync + ?Sized>(
        &self,
        items: &Matrix,
        users: &dyn UserRowSource,
        train: &D,
        test: &TestSet,
    ) -> EvalReport {
        let n = train.num_users();
        let shard = n.max(1);
        self.evaluate_user_range_mode(
            items,
            users,
            train,
            test,
            0..n,
            1,
            shard,
            EvalMode::Full,
            None,
        )
        .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MfModel;
    use crate::trainer::{CentralizedTrainer, TrainConfig};
    use fedrec_data::split::leave_one_out;
    use fedrec_data::synthetic::SyntheticConfig;
    use fedrec_data::Dataset;

    fn setup() -> (Dataset, TestSet, Evaluator) {
        let full = SyntheticConfig::smoke().generate(1);
        let (train, test) = leave_one_out(&full, 2);
        let targets = train.coldest_items(2);
        let eval = Evaluator::new(&train, &test, &targets, 3);
        (train, test, eval)
    }

    #[test]
    fn negatives_avoid_positives_and_test_item() {
        let (train, test, eval) = setup();
        for (u, held) in test.iter().enumerate() {
            if let Some(t) = *held {
                let negs = &eval.hr_negatives[u];
                let available = train.num_items() - train.user_degree(u) - 1;
                assert_eq!(negs.len(), HR_NUM_NEGATIVES.min(available));
                assert!(!negs.contains(&t));
                for &n in negs {
                    assert!(!train.contains(u, n));
                }
            } else {
                assert!(eval.hr_negatives[u].is_empty());
            }
        }
    }

    #[test]
    fn untrained_model_has_negligible_target_exposure() {
        let (train, test, eval) = setup();
        let mut rng = SeededRng::new(4);
        let model = MfModel::init(train.num_users(), train.num_items(), 8, &mut rng);
        let rep = eval.evaluate(&model.item_factors, &model.user_factors, &train, &test);
        // Two cold targets among 200 items: random chance is ~5% at K=10.
        assert!(rep.attack.er_at_10 < 0.2, "{:?}", rep.attack);
    }

    #[test]
    fn training_improves_hr() {
        let (train, test, eval) = setup();
        let mut rng = SeededRng::new(5);
        let mut model = MfModel::init(train.num_users(), train.num_items(), 16, &mut rng);
        let before = eval
            .evaluate(&model.item_factors, &model.user_factors, &train, &test)
            .hr_at_10;
        let cfg = TrainConfig {
            epochs: 30,
            lr: 0.05,
        };
        CentralizedTrainer::new(cfg).fit(&mut model, &train, &mut rng);
        let after = eval
            .evaluate(&model.item_factors, &model.user_factors, &train, &test)
            .hr_at_10;
        assert!(
            after > before + 0.1,
            "HR did not improve: {before} -> {after}"
        );
    }

    #[test]
    fn planted_target_scores_give_full_exposure() {
        let (train, test, eval) = setup();
        let mut rng = SeededRng::new(6);
        let mut model = MfModel::init(train.num_users(), train.num_items(), 8, &mut rng);
        // Force both targets to dominate every user's list.
        for &t in eval.targets() {
            for d in 0..model.k() {
                model.item_factors.row_mut(t as usize)[d] = 0.0;
            }
        }
        for u in 0..model.num_users() {
            let unorm: f32 = model.user_factors.row(u).iter().map(|x| x * x).sum();
            let _ = unorm;
        }
        // Simplest construction: set every user vector to e0 and targets to
        // a huge first coordinate.
        for u in 0..model.num_users() {
            let r = model.user_factors.row_mut(u);
            r.fill(0.0);
            r[0] = 1.0;
        }
        for &t in eval.targets() {
            model.item_factors.row_mut(t as usize)[0] = 100.0;
        }
        let rep = eval.evaluate(&model.item_factors, &model.user_factors, &train, &test);
        assert!(rep.attack.er_at_10 > 0.99, "{:?}", rep.attack);
        assert!(rep.attack.ndcg_at_10 > 0.99);
    }

    #[test]
    fn evaluator_is_deterministic() {
        let (train, test, _) = setup();
        let e1 = Evaluator::new(&train, &test, &[1, 2], 9);
        let e2 = Evaluator::new(&train, &test, &[1, 2], 9);
        assert_eq!(e1.hr_negatives, e2.hr_negatives);
    }

    #[test]
    fn duplicate_targets_are_deduped() {
        let (train, test, _) = setup();
        let e = Evaluator::new(&train, &test, &[5, 5, 1], 9);
        assert_eq!(e.targets(), &[1, 5]);
    }

    /// Regression test for the partial-population protocol: `evaluate`
    /// used to assert `test.len() == train.num_users()`, which made
    /// sharded / sampled-holdout evaluation impossible. A truncated test
    /// set must behave exactly like the same set padded with `None`:
    /// attack metrics still cover every user, HR only the held-out ones.
    #[test]
    fn partial_test_set_matches_none_padded_equivalent() {
        let (train, test, _) = setup();
        let targets = train.coldest_items(2);
        let cut = train.num_users() / 3;
        let partial: TestSet = test[..cut].to_vec();
        let mut padded = partial.clone();
        padded.resize(train.num_users(), None);
        let mut rng = SeededRng::new(8);
        let model = MfModel::init(train.num_users(), train.num_items(), 8, &mut rng);
        let ep = Evaluator::new(&train, &partial, &targets, 13);
        let ef = Evaluator::new(&train, &padded, &targets, 13);
        let rp = ep.evaluate(&model.item_factors, &model.user_factors, &train, &partial);
        let rf = ef.evaluate(&model.item_factors, &model.user_factors, &train, &padded);
        assert_eq!(rp, rf);
        // Attack metrics still cover the full population: identical to a
        // full-test-set evaluator on the same model.
        let efull = Evaluator::new(&train, &test, &targets, 13);
        let rfull = efull.evaluate(&model.item_factors, &model.user_factors, &train, &test);
        assert_eq!(rp.attack, rfull.attack);
    }

    #[test]
    #[should_panic(expected = "test set larger than population")]
    fn oversized_test_set_rejected() {
        let (train, test, _) = setup();
        let mut too_big = test.clone();
        too_big.push(None);
        let _ = Evaluator::new(&train, &too_big, &[1], 9);
    }

    /// An evaluator built over a partial test set must reject a *longer*
    /// test set at evaluate time with a clear message (it has no prepared
    /// negatives for the extra users), not an index panic.
    #[test]
    #[should_panic(expected = "prepared negatives")]
    fn evaluate_rejects_test_set_longer_than_prepared() {
        let (train, test, _) = setup();
        let partial: TestSet = test[..10].to_vec();
        let e = Evaluator::new(&train, &partial, &[1], 9);
        let mut rng = SeededRng::new(3);
        let model = MfModel::init(train.num_users(), train.num_items(), 4, &mut rng);
        let _ = e.evaluate(&model.item_factors, &model.user_factors, &train, &test);
    }
}
