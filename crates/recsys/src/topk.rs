//! Top-K recommendation lists — the one top-K core.
//!
//! §III-C: "for each user `u_i`, the recommender system recommends K items
//! in `V_i⁻` with the top-K predicted scores" — i.e. already-interacted
//! items are excluded. The same ranking with the *public* exclusion set
//! `V_i⁻″` produces the attacker's approximate lists `V_i^rec′` (Eq. 15):
//! the MF attack ranks user blocks through the pruned sweep
//! ([`crate::scorer::top_ranked_block`]); the dense [`top_k_excluding`]
//! builds only the NCF attacker's lists.
//!
//! Every ranking in the workspace — the metrics, the attacker's lists and
//! the online service — selects through [`TopKHeap`], and this module is
//! the only place that decides which candidate may enter a top-K:
//!
//! * [`TopKHeap::push`] holds the order (descending sanitized score, ties
//!   to the smaller id);
//! * [`TopKHeap::rejects_group`] is the exact group pre-screen that lets a
//!   feed skip [`GROUP`] scores at once;
//! * [`TopKHeap::push_run`] is the one heap feed for scores of ascending
//!   item ids: an exclusion cursor plus the pre-screen. The dense
//!   [`top_k_excluding`] and the blocked evaluation sweep both feed through
//!   it, and the norm-sorted pruned feed in [`crate::scorer`] screens its
//!   groups with the same test.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scored item for heap ordering (min-heap on score, ties by item id so
/// results are deterministic).
#[derive(Debug, PartialEq)]
struct Scored {
    score: f32,
    item: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap: reverse order on score. Ties order by *ascending* id
        // here so the heap's greatest element — the eviction victim — is
        // the largest id among tied-lowest scores, matching the selection
        // order (descending score, ties won by the smaller id). The
        // reversed tie (`other.item.cmp(&self.item)`) would evict the
        // smallest tied id and make the retained set depend on push order.
        other
            .score
            .partial_cmp(&self.score)
            .expect("NaN score in top-k")
            .then_with(|| self.item.cmp(&other.item))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Replace non-finite scores (NaN/±inf from a diverged model — the
/// paper's "numerically unstable" attacks produce them) with negative
/// infinity-like values so ordering stays total and diverged items sink.
#[inline]
fn sanitize(score: f32) -> f32 {
    if score.is_nan() {
        f32::MIN
    } else {
        score.clamp(f32::MIN, f32::MAX)
    }
}

/// Scores per pre-screen group ([`TopKHeap::rejects_group`]).
pub const GROUP: usize = 8;

/// Incremental top-K selection under the module's deterministic total
/// order: descending sanitized score, ties broken by ascending item id.
///
/// This is the single implementation of the tie rule: the dense
/// [`top_k_excluding`] sweep, the blocked/tile-fed evaluation path and
/// the bound-pruned path all offer candidates to this heap, so they
/// cannot disagree on orderings. Because the order is total and the
/// replacement rule is strict, the final selection is independent of the
/// order in which candidates are pushed — the property the pruned
/// evaluator relies on when it visits items norm-sorted instead of
/// id-sorted.
#[derive(Debug)]
pub struct TopKHeap {
    k: usize,
    heap: BinaryHeap<Scored>,
}

impl TopKHeap {
    /// Heap retaining the `k` best candidates.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            heap: BinaryHeap::with_capacity(k + 1),
        }
    }

    /// Empty the heap for reuse (keeps the allocation), selecting `k`
    /// from now on.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Offer one candidate. Non-finite scores are sanitized exactly as in
    /// [`top_k_excluding`] (NaN → `f32::MIN`, ±∞ clamped).
    #[inline]
    pub fn push(&mut self, item: u32, score: f32) {
        let score = sanitize(score);
        if self.heap.len() < self.k {
            self.heap.push(Scored { score, item });
        } else if let Some(min) = self.heap.peek() {
            // Replace the current minimum if strictly better (or equal
            // score with smaller id, matching the deterministic ordering).
            if score > min.score || (score == min.score && item < min.item) {
                self.heap.pop();
                self.heap.push(Scored { score, item });
            }
        }
    }

    /// Number of retained candidates.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been retained yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether all `k` slots are occupied — only then may a caller prune
    /// on [`Self::min_score`].
    pub fn is_full(&self) -> bool {
        self.heap.len() == self.k
    }

    /// Sanitized score of the current worst retained candidate.
    ///
    /// When the heap [`is full`](Self::is_full), a candidate with
    /// sanitized score *strictly below* this value can never enter: the
    /// replacement rule admits equal scores only on a smaller id, never
    /// lower scores.
    pub fn min_score(&self) -> Option<f32> {
        self.heap.peek().map(|s| s.score)
    }

    /// Whether no score of the group `g` can enter the heap, so a feed may
    /// skip the whole group without offering it.
    ///
    /// True only when the heap is full, its floor (the sanitized score of
    /// the worst retained candidate) is above `f32::MIN`, and the pairwise
    /// `f32::max` tree of the group lies *strictly below* the floor. Once
    /// the heap is full a candidate enters only with a sanitized score
    /// `> floor`, or `== floor` on a smaller id ([`Self::push`]), so the
    /// test is exact, not approximate:
    /// - equal-to-floor scores (which may still enter on the id tie-break)
    ///   never satisfy the strict `<`;
    /// - NaN and `-∞` sanitize to `f32::MIN`, and `f32::max` may ignore a
    ///   NaN operand — both are covered by requiring `floor > f32::MIN`,
    ///   below which no sanitized score can sink;
    /// - an all-NaN group yields a NaN tree max, which fails `< floor` and
    ///   falls through to per-item offers.
    #[inline]
    pub fn rejects_group(&self, g: &[f32; GROUP]) -> bool {
        match self.heap.peek() {
            Some(min) if self.is_full() && min.score > f32::MIN => {
                let gmax = g[0]
                    .max(g[1])
                    .max(g[2].max(g[3]))
                    .max(g[4].max(g[5]).max(g[6].max(g[7])));
                gmax < min.score
            }
            _ => false,
        }
    }

    /// Offer `scores[i]` as the score of item `first + i`, skipping the
    /// items in `exclude` (sorted ascending ids; ids outside the run are
    /// allowed). Leaves the heap exactly as offering every non-excluded
    /// item through [`Self::push`] would, with two shortcuts that keep a
    /// long run off the per-item path (at million scale that path is
    /// itself a multi-second cost: 10⁹ heap offers per 10k-user sweep):
    ///
    /// * **Exclusion cursor.** Items arrive in ascending id order, so one
    ///   cursor walk over `exclude` replaces a binary search per item.
    /// * **Group pre-screen.** Each aligned group of [`GROUP`] scores that
    ///   [`Self::rejects_group`] rules out is skipped wholesale; the tail
    ///   of fewer than [`GROUP`] scores is offered item by item.
    #[inline]
    pub fn push_run(&mut self, first: usize, scores: &[f32], exclude: &[u32]) {
        let mut ec = exclude.partition_point(|&x| (x as usize) < first);
        let mut offer = |heap: &mut TopKHeap, i: usize, s: f32| {
            let item = (first + i) as u32;
            while ec < exclude.len() && exclude[ec] < item {
                ec += 1;
            }
            if ec < exclude.len() && exclude[ec] == item {
                ec += 1;
                return;
            }
            heap.push(item, s);
        };
        let mut i = 0usize;
        while i + GROUP <= scores.len() {
            let g: &[f32; GROUP] = scores[i..i + GROUP].try_into().expect("GROUP scores");
            if !self.rejects_group(g) {
                for (d, &s) in g.iter().enumerate() {
                    offer(self, i + d, s);
                }
            }
            i += GROUP;
        }
        for (d, &s) in scores[i..].iter().enumerate() {
            offer(self, i + d, s);
        }
    }

    /// Drain into `out` as `(item, sanitized score)` pairs sorted by the
    /// total order (descending score, ties ascending id), emptying the
    /// heap for reuse.
    pub fn drain_sorted_into(&mut self, out: &mut Vec<(u32, f32)>) {
        out.clear();
        out.extend(self.heap.drain().map(|s| (s.item, s.score)));
        // Sanitized scores are never NaN, so the comparator is total.
        out.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("NaN score in top-k")
                .then_with(|| a.0.cmp(&b.0))
        });
    }
}

/// The `k` highest-scoring items not in `exclude` (sorted ascending item
/// ids), ordered by descending score (ties broken by ascending item id).
///
/// `scores[v]` is the predicted score of item `v`. Runs in `O(m log k)`,
/// through [`TopKHeap::push_run`]. NaN scores are treated as the lowest
/// possible value and ±∞ are clamped to the finite range.
pub fn top_k_excluding(scores: &[f32], exclude: &[u32], k: usize) -> Vec<u32> {
    debug_assert!(exclude.windows(2).all(|w| w[0] < w[1]), "exclude unsorted");
    if k == 0 {
        return Vec::new();
    }
    let mut heap = TopKHeap::new(k);
    heap.push_run(0, scores, exclude);
    let mut out = Vec::with_capacity(heap.len());
    heap.drain_sorted_into(&mut out);
    out.into_iter().map(|(item, _)| item).collect()
}

/// Rank (0-based) of `target` among items not in `exclude`, by descending
/// score with the same tie rule as [`top_k_excluding`]. Returns `None` if
/// `target` is excluded.
pub fn rank_of(scores: &[f32], exclude: &[u32], target: u32) -> Option<usize> {
    if exclude.binary_search(&target).is_ok() {
        return None;
    }
    let ts = sanitize(scores[target as usize]);
    let mut rank = 0usize;
    for (item, &score) in scores.iter().enumerate() {
        let score = sanitize(score);
        let item = item as u32;
        if item == target || exclude.binary_search(&item).is_ok() {
            continue;
        }
        if score > ts || (score == ts && item < target) {
            rank += 1;
        }
    }
    Some(rank)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_highest_scores() {
        let scores = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_excluding(&scores, &[], 2), vec![1, 3]);
    }

    #[test]
    fn excludes_interacted_items() {
        let scores = [0.1, 0.9, 0.5, 0.7];
        assert_eq!(top_k_excluding(&scores, &[1, 3], 2), vec![2, 0]);
    }

    #[test]
    fn k_larger_than_candidates() {
        let scores = [0.3, 0.2];
        assert_eq!(top_k_excluding(&scores, &[0], 10), vec![1]);
    }

    #[test]
    fn k_zero_is_empty() {
        assert!(top_k_excluding(&[1.0, 2.0], &[], 0).is_empty());
    }

    #[test]
    fn ties_break_by_ascending_id() {
        let scores = [0.5, 0.5, 0.5, 0.5];
        assert_eq!(top_k_excluding(&scores, &[], 2), vec![0, 1]);
        assert_eq!(top_k_excluding(&scores, &[0], 2), vec![1, 2]);
    }

    #[test]
    fn ordering_is_descending_score() {
        let scores = [0.2, 0.9, 0.4, 0.6, 0.8];
        assert_eq!(top_k_excluding(&scores, &[], 4), vec![1, 4, 3, 2]);
    }

    #[test]
    fn rank_of_agrees_with_topk_membership() {
        let scores = [0.2, 0.9, 0.4, 0.6, 0.8];
        for target in 0..5u32 {
            let rank = rank_of(&scores, &[], target).unwrap();
            let in_top3 = top_k_excluding(&scores, &[], 3).contains(&target);
            assert_eq!(rank < 3, in_top3, "target {target} rank {rank}");
        }
    }

    #[test]
    fn rank_of_excluded_is_none() {
        assert_eq!(rank_of(&[0.1, 0.2], &[1], 1), None);
    }

    #[test]
    fn rank_of_respects_exclusions() {
        let scores = [0.9, 0.8, 0.7];
        // Excluding the best item promotes everyone below it.
        assert_eq!(rank_of(&scores, &[0], 2).unwrap(), 1);
        assert_eq!(rank_of(&scores, &[], 2).unwrap(), 2);
    }

    #[test]
    fn rank_tie_break_matches_topk() {
        let scores = [0.5, 0.5];
        assert_eq!(rank_of(&scores, &[], 0).unwrap(), 0);
        assert_eq!(rank_of(&scores, &[], 1).unwrap(), 1);
    }

    #[test]
    fn heap_selection_is_push_order_independent() {
        let scores = [0.5f32, 0.5, 0.9, 0.5, 0.1, 0.9, f32::NAN, 0.5];
        let forward: Vec<u32> = (0..scores.len() as u32).collect();
        let mut reversed = forward.clone();
        reversed.reverse();
        let mut shuffled = vec![3u32, 6, 0, 7, 2, 5, 1, 4];
        for order in [forward, reversed, std::mem::take(&mut shuffled)] {
            let mut heap = TopKHeap::new(3);
            for &item in &order {
                heap.push(item, scores[item as usize]);
            }
            let mut out = Vec::new();
            heap.drain_sorted_into(&mut out);
            let items: Vec<u32> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(items, top_k_excluding(&scores, &[], 3), "order {order:?}");
        }
    }

    #[test]
    fn heap_reset_reuses_cleanly() {
        let mut heap = TopKHeap::new(2);
        heap.push(0, 1.0);
        heap.push(1, 2.0);
        heap.push(2, 3.0);
        assert!(heap.is_full());
        assert_eq!(heap.min_score(), Some(2.0));
        heap.reset(1);
        assert!(heap.is_empty());
        heap.push(5, 0.5);
        let mut out = Vec::new();
        heap.drain_sorted_into(&mut out);
        assert_eq!(out, vec![(5, 0.5)]);
    }

    #[test]
    fn group_prescreen_keeps_groups_that_tie_the_floor() {
        let mut heap = TopKHeap::new(1);
        heap.push(9, 0.5);
        assert!(heap.rejects_group(&[0.4; GROUP]));
        // A member equal to the floor may still enter on a smaller id.
        assert!(!heap.rejects_group(&[0.1, 0.1, 0.1, 0.5, 0.1, 0.1, 0.1, 0.1]));
        // At the lowest floor, NaN and -inf tie it: f32::max skips the
        // NaNs, the tree max is -inf, and yet a NaN at a smaller id enters.
        heap.reset(1);
        heap.push(9, f32::NAN);
        let (nan, ninf) = (f32::NAN, f32::NEG_INFINITY);
        assert!(!heap.rejects_group(&[nan, ninf, nan, nan, ninf, nan, nan, nan]));
        heap.push(3, nan);
        let mut out = Vec::new();
        heap.drain_sorted_into(&mut out);
        assert_eq!(out, vec![(3, f32::MIN)]);
    }

    #[test]
    fn zero_capacity_heap_accepts_nothing() {
        let mut heap = TopKHeap::new(0);
        heap.push(0, 1.0);
        assert!(heap.is_empty());
        assert_eq!(heap.min_score(), None);
    }

    #[test]
    fn non_finite_scores_sink_instead_of_panicking() {
        let scores = [f32::NAN, 0.5, f32::INFINITY, 0.7, f32::NEG_INFINITY];
        let top = top_k_excluding(&scores, &[], 3);
        assert_eq!(top[0], 2, "+inf clamps to MAX and still ranks first");
        assert_eq!(top[1], 3);
        assert_eq!(top[2], 1);
        // NaN ties with -inf at f32::MIN; both rank below every finite.
        assert!(rank_of(&scores, &[], 0).unwrap() >= 3);
    }
}
