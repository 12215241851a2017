//! Evaluation metrics: ER@K (Eq. 8), NDCG@K and HR@K.
//!
//! * **ER@K** — the exposure ratio of the target items: the fraction of a
//!   user's still-exposable target items (`V^tar ∧ V_i⁻`) that appear in
//!   the user's top-K list, averaged over all users. A `0/0` user (someone
//!   who already interacted with every target) contributes 0, which is
//!   immaterial in practice because target items are cold.
//! * **NDCG@K** — rank-sensitive version over the target items, as the
//!   paper uses to "reflect the ranks of target items in users'
//!   recommendation lists" (following Krichene & Rendle's advice the paper
//!   cites, we compute it over the full item set, not a sample).
//! * **HR@K** — recommendation accuracy on the leave-one-out test item
//!   under the NCF protocol the paper adopts from \[1\]: the held-out item
//!   is ranked against 99 sampled negatives; a hit means top-K membership.

use crate::scorer::{DenseScores, ScoreSource};

/// Per-user exposure contribution for ER@K: `|V^tar ∧ V^rec| / |V^tar ∧ V⁻|`.
///
/// `recommended` is the user's top-K list; `user_pos` the user's sorted
/// interacted items; `targets` the sorted target set.
pub fn exposure_ratio_user(recommended: &[u32], user_pos: &[u32], targets: &[u32]) -> f64 {
    debug_assert!(targets.windows(2).all(|w| w[0] < w[1]));
    let exposable = targets
        .iter()
        .filter(|&&t| user_pos.binary_search(&t).is_err())
        .count();
    if exposable == 0 {
        return 0.0;
    }
    let hit = recommended
        .iter()
        .filter(|&&v| targets.binary_search(&v).is_ok())
        .count();
    hit as f64 / exposable as f64
}

/// Per-user NDCG@K of the target items within the top-K list.
///
/// Relevance is 1 for target items, 0 otherwise; the ideal list places all
/// exposable targets first. `k` is the K of "NDCG@K": the IDCG normalizes
/// against an ideal *K-slot* list, not against however many candidates
/// were actually available — when a small catalog or a large exclusion
/// set leaves `recommended` shorter than `k`, normalizing by the short
/// list length would inflate the score.
pub fn ndcg_user(recommended: &[u32], user_pos: &[u32], targets: &[u32], k: usize) -> f64 {
    debug_assert!(
        recommended.len() <= k,
        "top-K list longer than K: {} > {k}",
        recommended.len()
    );
    let exposable = targets
        .iter()
        .filter(|&&t| user_pos.binary_search(&t).is_err())
        .count();
    if exposable == 0 {
        return 0.0;
    }
    let mut dcg = 0.0f64;
    for (rank, &v) in recommended.iter().enumerate() {
        if targets.binary_search(&v).is_ok() {
            dcg += 1.0 / ((rank as f64 + 2.0).log2());
        }
    }
    let ideal_hits = exposable.min(k.max(1));
    let idcg: f64 = (0..ideal_hits)
        .map(|i| 1.0 / ((i as f64 + 2.0).log2()))
        .sum();
    if idcg == 0.0 {
        0.0
    } else {
        dcg / idcg
    }
}

/// Hit-ratio contribution of one user under the sampled-negatives
/// protocol: whether `test_item` ranks within the top `k` among itself
/// plus `negatives` (item scores are `scores[v]`).
pub fn hit_user(scores: &[f32], test_item: u32, negatives: &[u32], k: usize) -> bool {
    hit_scored(&mut DenseScores::new(scores), test_item, negatives, k)
}

/// [`hit_user`] over any [`ScoreSource`]: only the test item and its
/// negatives are ever queried, so pruned/incremental sources answer with
/// ~100 direct dots instead of a dense sweep — bit-identical outcome.
pub fn hit_scored<S: ScoreSource + ?Sized>(
    scores: &mut S,
    test_item: u32,
    negatives: &[u32],
    k: usize,
) -> bool {
    #[inline]
    fn sane(x: f32) -> f32 {
        if x.is_nan() {
            f32::MIN
        } else {
            x.clamp(f32::MIN, f32::MAX)
        }
    }
    let ts = sane(scores.score_of(test_item));
    let mut better = 0usize;
    for &n in negatives {
        debug_assert_ne!(n, test_item);
        let s = sane(scores.score_of(n));
        if s > ts || (s == ts && n < test_item) {
            better += 1;
            if better >= k {
                return false;
            }
        }
    }
    better < k
}

/// Aggregate attack-effectiveness metrics over all users.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AttackMetrics {
    /// ER@5 (Eq. 8 with K = 5).
    pub er_at_5: f64,
    /// ER@10.
    pub er_at_10: f64,
    /// NDCG@10 over target items.
    pub ndcg_at_10: f64,
}

/// Running accumulator for [`AttackMetrics`] plus HR@10; push one user at
/// a time to avoid materializing per-user score matrices.
#[derive(Debug, Clone, Default)]
pub struct MetricsAccumulator {
    users: usize,
    er5_sum: f64,
    er10_sum: f64,
    ndcg10_sum: f64,
    hr_users: usize,
    hr_hits: usize,
}

impl MetricsAccumulator {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one user's attack metrics from any [`ScoreSource`] — a
    /// dense vector ([`DenseScores`]) or a replayed exact ranking
    /// ([`ListScores`](crate::scorer::ListScores)). Only the top-10 list
    /// is consumed, which is what lets the evaluator rank with a pruned
    /// sweep that skips provably-losing items, or with cached candidates.
    pub fn push_user_attack<S: ScoreSource + ?Sized>(
        &mut self,
        scores: &mut S,
        user_pos: &[u32],
        targets: &[u32],
    ) {
        let top10 = scores.top_k_excluding(user_pos, 10);
        let top5 = &top10[..top10.len().min(5)];
        self.er5_sum += exposure_ratio_user(top5, user_pos, targets);
        self.er10_sum += exposure_ratio_user(&top10, user_pos, targets);
        self.ndcg10_sum += ndcg_user(&top10, user_pos, targets, 10);
        self.users += 1;
    }

    /// Record one user's HR@10 outcome (skips users without a test item).
    pub fn push_user_hr<S: ScoreSource + ?Sized>(
        &mut self,
        scores: &mut S,
        test_item: u32,
        negatives: &[u32],
    ) {
        self.hr_users += 1;
        if hit_scored(scores, test_item, negatives, 10) {
            self.hr_hits += 1;
        }
    }

    /// Fold another accumulator into this one.
    ///
    /// The streaming sharded evaluator computes one accumulator per
    /// user-shard (possibly on different worker threads) and merges them
    /// in shard-index order — a fixed summation order, so the result is
    /// deterministic for a given shard size regardless of thread count.
    pub fn merge(&mut self, other: &Self) {
        self.users += other.users;
        self.er5_sum += other.er5_sum;
        self.er10_sum += other.er10_sum;
        self.ndcg10_sum += other.ndcg10_sum;
        self.hr_users += other.hr_users;
        self.hr_hits += other.hr_hits;
    }

    /// Number of users pushed through [`Self::push_user_attack`].
    pub fn attack_users(&self) -> usize {
        self.users
    }

    /// Finalized attack metrics (averages over pushed users).
    pub fn attack_metrics(&self) -> AttackMetrics {
        if self.users == 0 {
            return AttackMetrics::default();
        }
        let n = self.users as f64;
        AttackMetrics {
            er_at_5: self.er5_sum / n,
            er_at_10: self.er10_sum / n,
            ndcg_at_10: self.ndcg10_sum / n,
        }
    }

    /// HR@10 over the pushed test users; `0.0` if none.
    pub fn hr_at_10(&self) -> f64 {
        if self.hr_users == 0 {
            0.0
        } else {
            self.hr_hits as f64 / self.hr_users as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposure_counts_recommended_targets() {
        // targets {2,5}, user interacted with nothing, top list holds one.
        let er = exposure_ratio_user(&[1, 2, 3], &[], &[2, 5]);
        assert!((er - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exposure_excludes_interacted_targets_from_denominator() {
        // target 5 already interacted: only target 2 is exposable.
        let er = exposure_ratio_user(&[2, 9], &[5], &[2, 5]);
        assert!((er - 1.0).abs() < 1e-12);
    }

    #[test]
    fn exposure_zero_over_zero_is_zero() {
        let er = exposure_ratio_user(&[1, 2], &[3, 4], &[3, 4]);
        assert_eq!(er, 0.0);
    }

    #[test]
    fn ndcg_perfect_when_targets_lead_the_list() {
        let n = ndcg_user(&[7, 8, 1, 2], &[], &[7, 8], 4);
        assert!((n - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ndcg_decreases_with_worse_rank() {
        let high = ndcg_user(&[7, 1, 2, 3], &[], &[7], 4);
        let low = ndcg_user(&[1, 2, 3, 7], &[], &[7], 4);
        assert!(high > low);
        assert!(low > 0.0);
    }

    #[test]
    fn ndcg_zero_when_no_target_recommended() {
        assert_eq!(ndcg_user(&[1, 2], &[], &[9], 10), 0.0);
    }

    /// Regression test for the IDCG normalization fix: when fewer than K
    /// candidates exist (tiny catalog, huge exclusion set), the ideal
    /// list still has K slots. The old code normalized by the *actual*
    /// list length, scoring a 3-item list holding 3 of 5 targets as a
    /// perfect 1.0.
    #[test]
    fn ndcg_short_candidate_list_does_not_inflate() {
        let targets = [1, 2, 3, 4, 5];
        let n = ndcg_user(&[1, 2, 3], &[], &targets, 10);
        // DCG over ranks 0..2, IDCG over the 5 exposable targets an ideal
        // 10-slot list would hold.
        let dcg: f64 = (0..3).map(|r| 1.0 / ((r as f64 + 2.0).log2())).sum();
        let idcg: f64 = (0..5).map(|r| 1.0 / ((r as f64 + 2.0).log2())).sum();
        assert!((n - dcg / idcg).abs() < 1e-12);
        assert!(
            n < 0.75,
            "3 of 5 targets in a short list must not score near-perfect: {n}"
        );
        // A genuinely full ideal list still scores 1.0.
        let full = ndcg_user(&[1, 2, 3, 4, 5], &[], &targets, 5);
        assert!((full - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hit_user_rank_boundary() {
        // scores: test item = 0.5; negatives above/below.
        let mut scores = vec![0.0f32; 20];
        scores[0] = 0.5;
        // nine better negatives -> rank 9 -> hit at k=10
        scores[1..=9].fill(1.0);
        scores[10..20].fill(0.1);
        let negs: Vec<u32> = (1..20).collect();
        assert!(hit_user(&scores, 0, &negs, 10));
        // one more better negative pushes it out.
        let mut scores2 = scores.clone();
        scores2[10] = 1.0;
        assert!(!hit_user(&scores2, 0, &negs, 10));
    }

    #[test]
    fn hit_user_tie_break_by_id() {
        let scores = vec![0.5f32, 0.5];
        // negative id 1 ties with test item 0; tie goes to smaller id (0).
        assert!(hit_user(&scores, 0, &[1], 1));
        // reversed roles: test item 1 loses the tie to negative 0.
        assert!(!hit_user(&scores, 1, &[0], 1));
    }

    #[test]
    fn accumulator_averages_users() {
        let mut acc = MetricsAccumulator::new();
        // user A: target 0 at the very top.
        let mut s = vec![0.0f32; 12];
        s[0] = 9.0;
        acc.push_user_attack(&mut DenseScores::new(&s), &[], &[0]);
        // user B: target 0 dead last.
        let mut s2 = vec![1.0f32; 12];
        s2[0] = -9.0;
        acc.push_user_attack(&mut DenseScores::new(&s2), &[], &[0]);
        let m = acc.attack_metrics();
        assert!((m.er_at_5 - 0.5).abs() < 1e-12);
        assert!((m.er_at_10 - 0.5).abs() < 1e-12);
        assert!(m.ndcg_at_10 > 0.0 && m.ndcg_at_10 <= 0.51);
        assert_eq!(acc.attack_users(), 2);
    }

    #[test]
    fn accumulator_hr_fraction() {
        let mut acc = MetricsAccumulator::new();
        let scores = vec![1.0f32, 0.0, 0.0];
        acc.push_user_hr(&mut DenseScores::new(&scores), 0, &[1, 2]); // hit
        let scores2 = vec![0.0f32, 1.0, 1.0];
        acc.push_user_hr(&mut DenseScores::new(&scores2), 0, &[1, 2]); // rank 2 still < 10: hit
        assert!((acc.hr_at_10() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_accumulator_is_zeroes() {
        let acc = MetricsAccumulator::new();
        assert_eq!(acc.attack_metrics(), AttackMetrics::default());
        assert_eq!(acc.hr_at_10(), 0.0);
    }

    #[test]
    fn merge_equals_single_accumulation() {
        let mut s = vec![0.0f32; 12];
        s[0] = 9.0;
        let mut s2 = vec![1.0f32; 12];
        s2[0] = -9.0;
        let mut whole = MetricsAccumulator::new();
        whole.push_user_attack(&mut DenseScores::new(&s), &[], &[0]);
        whole.push_user_attack(&mut DenseScores::new(&s2), &[], &[0]);
        whole.push_user_hr(&mut DenseScores::new(&s), 0, &[1, 2]);
        let mut a = MetricsAccumulator::new();
        a.push_user_attack(&mut DenseScores::new(&s), &[], &[0]);
        a.push_user_hr(&mut DenseScores::new(&s), 0, &[1, 2]);
        let mut b = MetricsAccumulator::new();
        b.push_user_attack(&mut DenseScores::new(&s2), &[], &[0]);
        a.merge(&b);
        assert_eq!(a.attack_metrics(), whole.attack_metrics());
        assert_eq!(a.hr_at_10(), whole.hr_at_10());
        assert_eq!(a.attack_users(), 2);
    }
}
