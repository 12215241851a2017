//! Score sources — the pruning interface between models and metrics.
//!
//! [`crate::metrics::MetricsAccumulator`] used to require a dense `&[f32]`
//! score vector per user, forcing every evaluation path to compute all `m`
//! dot products even though the metrics only consume the top-10 list and a
//! handful of individual scores (the HR@10 test item and its 99
//! negatives). [`ScoreSource`] is the replacement contract: a per-user
//! scorer that can produce the exact top-K-excluding list and exact
//! individual scores, however it wants to get there.
//!
//! Two implementations, **byte-identical** in what they feed the
//! metrics:
//!
//! * [`DenseScores`] — wraps a precomputed dense score vector; the
//!   ranking of the dense-scorer sweep
//!   ([`crate::eval::Evaluator::evaluate_user_range_scored`], which NCF
//!   uses) and of tests.
//! * [`ListScores`] — replays an exact ranking computed earlier (by the
//!   blocked kernel sweep, the pruned sweep or the incremental candidate
//!   rescore) and answers point queries with direct dots.
//!
//! The rankings [`ListScores`] replays come from [`top_ranked_block`],
//! the one pruned sweep: it scores a block of users over
//! [`PrunedItems`] (the item matrix re-ordered by descending row norm)
//! and skips whole norm blocks once the Cauchy–Schwarz bound
//! `u·v ≤ ‖u‖·‖v‖` proves no remaining item can enter a user's heap (see
//! the soundness notes on [`PrunedItems`]). The evaluator runs it per
//! user block, the serving layer per request batch, the MF attacker per
//! block of its sampled users, and
//! [`PrunedScores`] is its one-user case for callers that rank a single
//! user. The candidate rule itself — heap order and the group pre-screen
//! — lives in [`crate::topk`]; this module only decides which items to
//! score and in what order.

use crate::topk::{TopKHeap, GROUP};
use fedrec_linalg::{kernel, vector, Matrix};
use std::cmp::Ordering;

/// Per-user scorer interface consumed by the metrics accumulator.
///
/// Implementations must reproduce, bit for bit, what a dense score sweep
/// would produce: `top_k_excluding` must equal
/// [`crate::topk::top_k_excluding`] over the full dense score vector
/// (including its NaN sanitation and index tie rule), and `score_of` must
/// equal the dense vector entry.
pub trait ScoreSource {
    /// The `k` best non-excluded items under the deterministic total
    /// order of [`crate::topk`] (`exclude` sorted ascending).
    fn top_k_excluding(&mut self, exclude: &[u32], k: usize) -> Vec<u32>;

    /// The raw (unsanitized) score of one item.
    fn score_of(&mut self, item: u32) -> f32;
}

/// A dense per-item score vector (`scores[v]` is item `v`'s score).
#[derive(Debug)]
pub struct DenseScores<'a> {
    scores: &'a [f32],
}

impl<'a> DenseScores<'a> {
    /// Wrap a dense score vector.
    pub fn new(scores: &'a [f32]) -> Self {
        Self { scores }
    }
}

impl ScoreSource for DenseScores<'_> {
    fn top_k_excluding(&mut self, exclude: &[u32], k: usize) -> Vec<u32> {
        crate::topk::top_k_excluding(self.scores, exclude, k)
    }

    fn score_of(&mut self, item: u32) -> f32 {
        self.scores[item as usize]
    }
}

/// Items per pruning block. Blocks are the skip granularity: one bound
/// comparison can discard this many items at once, while keeping the
/// bound tight enough to fire early on norm-skewed catalogs.
pub const PRUNE_BLOCK: usize = 256;

/// Multiplicative slack applied to every Cauchy–Schwarz bound.
///
/// The f32 dot kernel accumulates with relative error at most
/// `O(k · ε)` of `Σ|u_j v_j| ≤ ‖u‖‖v‖` (ε = 2⁻²⁴ ≈ 6e-8, and the 8-lane
/// split of `vector::dot` shortens the dependency chains further), so a
/// computed score can exceed the true mathematical bound by that margin.
/// `1e-4` covers latent dimensions up to ~10³ with two orders of
/// magnitude to spare; norms are themselves accumulated in f64 where the
/// error is negligible. Skipping stays *sound*: a block is skipped only
/// when even the inflated bound sits strictly below the heap minimum.
pub const BOUND_SLACK: f64 = 1e-4;

/// ℓ2 norm of a row, accumulated in f64 (an order of magnitude more
/// headroom than the f32 kernels; used only for bounds, never scores).
pub fn row_norm_f64(row: &[f32]) -> f64 {
    let mut acc = 0.0f64;
    for &x in row {
        acc += f64::from(x) * f64::from(x);
    }
    acc.sqrt()
}

/// The item matrix prepared for bound-based pruning: rows re-ordered by
/// descending ℓ2 norm plus per-block norm bounds.
///
/// # Bound soundness
///
/// For any user vector `u` and item row `v`, `u·v ≤ ‖u‖·‖v‖`
/// (Cauchy–Schwarz). Rows are visited in descending-norm blocks, so once
/// the top-K heap is full and `‖u‖ · maxnorm(block) · (1 + slack)` falls
/// *strictly below* the heap minimum, no remaining item can be admitted:
/// admission needs a score above the minimum, or equal to it with a
/// smaller id — and a strictly smaller score can do neither. Because the
/// selection order of [`TopKHeap`] is total, visiting items norm-sorted
/// instead of id-sorted yields the identical final list. Rows whose norm
/// is NaN sort first (treated as +∞) and are therefore always scored,
/// and a NaN or +∞ bound never satisfies the strict `<`, so degenerate
/// inputs fall back to scoring everything rather than skipping unsafely.
#[derive(Debug, Clone)]
pub struct PrunedItems {
    /// Item rows in visit order (row-major, width `k`), copied verbatim
    /// so each dot is bit-identical to a dot against the original row.
    rows: Vec<f32>,
    /// Original item id at each visit position.
    order: Vec<u32>,
    /// Visit position of each original item id (inverse of `order`) —
    /// lets a scorer turn an exclusion list into position bits instead
    /// of binary-searching ids per visited item.
    pos_of: Vec<u32>,
    /// Per block of [`PRUNE_BLOCK`] positions: the block's maximum row
    /// norm inflated by [`BOUND_SLACK`] (NaN norms become +∞).
    bounds: Vec<f64>,
    k: usize,
}

impl PrunedItems {
    /// Re-order `items` by descending row norm and precompute the block
    /// bounds. One `O(m·k)` pass plus an `O(m log m)` sort — done once
    /// per eval epoch, amortized over every scored user.
    pub fn build(items: &Matrix) -> Self {
        let k = items.cols();
        let m = items.rows();
        // NaN norms are treated as +∞ so their rows are always visited.
        let key = |n: f64| if n.is_nan() { f64::INFINITY } else { n };
        let mut by_norm: Vec<(f64, u32)> = Vec::with_capacity(m);
        for i in 0..m {
            by_norm.push((key(row_norm_f64(items.row(i))), i as u32));
        }
        by_norm.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(Ordering::Equal)
                .then_with(|| a.1.cmp(&b.1))
        });
        let mut rows = Vec::with_capacity(m * k);
        let mut order = Vec::with_capacity(m);
        let mut pos_of = vec![0u32; m];
        for (p, &(_, item)) in by_norm.iter().enumerate() {
            rows.extend_from_slice(items.row(item as usize));
            order.push(item);
            pos_of[item as usize] = p as u32;
        }
        let mut bounds = Vec::with_capacity(m.div_ceil(PRUNE_BLOCK));
        for block in by_norm.chunks(PRUNE_BLOCK) {
            // Sorted descending: the block maximum is its first norm.
            bounds.push(block[0].0 * (1.0 + BOUND_SLACK));
        }
        Self {
            rows,
            order,
            pos_of,
            bounds,
            k,
        }
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.order.len()
    }

    /// Latent dimension.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// The pruned sweep for one user vector against [`PrunedItems`]: its
/// ranking runs [`top_ranked_block`] for this one user.
#[derive(Debug)]
pub struct PrunedScores<'a> {
    pruned: &'a PrunedItems,
    u: &'a [f32],
    scored: u64,
}

impl<'a> PrunedScores<'a> {
    /// Scorer for user vector `u`. `items` must be the matrix
    /// `pruned` was built from.
    pub fn new(pruned: &'a PrunedItems, items: &Matrix, u: &'a [f32]) -> Self {
        assert_eq!(pruned.num_items(), items.rows(), "item count mismatch");
        assert_eq!(pruned.k(), items.cols(), "latent dimension mismatch");
        assert_eq!(u.len(), pruned.k(), "user vector dimension mismatch");
        Self {
            pruned,
            u,
            scored: 0,
        }
    }

    /// Number of top-K candidate dots counted so far by
    /// [`Self::top_ranked_excluding`].
    pub fn items_scored(&self) -> u64 {
        self.scored
    }

    /// Exact ranked top-`k` (item, sanitized score) pairs excluding
    /// `exclude`, written into `out` in the total order of
    /// [`crate::topk`] — equal to [`crate::topk::top_k_excluding`] over
    /// the dense scores, plus the scores. It is the one-user case of
    /// [`top_ranked_block`], whose dot count it adds to
    /// [`Self::items_scored`].
    pub fn top_ranked_excluding(&mut self, exclude: &[u32], k: usize, out: &mut Vec<(u32, f32)>) {
        let out = std::slice::from_mut(out);
        self.scored += top_ranked_block(self.pruned, self.u, &[exclude], k, out);
    }
}

/// Feed one pruning block's precomputed scores (`scores[i]` is visit
/// position `pos + i`) into a user's heap, skipping the positions set in
/// `excl`, in groups of [`GROUP`] screened by [`TopKHeap::rejects_group`].
/// Unlike [`TopKHeap::push_run`], items arrive norm-sorted, not id-sorted,
/// so exclusions are visit-position bits rather than a cursor over ids.
/// Skipped groups still count their non-excluded members into `scored` —
/// the group's dots were already computed — so counters are identical to
/// the per-item formulation. `pos` is a multiple of [`PRUNE_BLOCK`], so
/// groups stay aligned within the `u64` exclusion words.
fn feed_pruned_scores(
    heap: &mut TopKHeap,
    order: &[u32],
    scores: &[f32],
    pos: usize,
    excl: &[u64],
    scored: &mut u64,
) {
    let end = pos + scores.len();
    let group_end = pos + scores.len() / GROUP * GROUP;
    let mut p = pos;
    while p < group_end {
        let g: &[f32; GROUP] = scores[p - pos..p - pos + GROUP]
            .try_into()
            .expect("GROUP scores");
        if heap.rejects_group(g) {
            let bits = excl[p / 64] >> (p % 64) & 0xFF;
            *scored += GROUP as u64 - u64::from(bits.count_ones());
        } else {
            for d in p..p + GROUP {
                if excl[d / 64] >> (d % 64) & 1 == 0 {
                    *scored += 1;
                    heap.push(order[d], scores[d - pos]);
                }
            }
        }
        p += GROUP;
    }
    for d in group_end..end {
        if excl[d / 64] >> (d % 64) & 1 == 0 {
            *scored += 1;
            heap.push(order[d], scores[d - pos]);
        }
    }
}

/// The pruned sweep: exact top-`k` for a block of users over the
/// norm-sorted [`PrunedItems`]. Every user's ranked `(item, sanitized
/// score)` list is **byte-identical** to the batch of that user alone
/// ([`PrunedScores::top_ranked_excluding`]) — same dots (the blocked
/// kernel computes bit-identical [`vector::dot`]s), same block visit
/// order, same per-user bound deactivation at block boundaries, same
/// group pre-screen, same heap total order. The batch only amortizes `V`
/// memory traffic: each [`PRUNE_BLOCK`] item tile is streamed once for
/// all still-active users instead of once per user.
///
/// `users` holds the row-major user vectors (`excludes.len()` rows of
/// width `pruned.k()`); each exclusion list must be sorted ascending.
/// Users whose bound fires are dropped from subsequent kernel calls, so a
/// batch of mostly-prunable users converges to the cheap rows quickly.
/// Returns the summed per-user dot counts: non-excluded offers in
/// visited blocks (excluded rows are scored by the kernel but never
/// counted).
pub fn top_ranked_block(
    pruned: &PrunedItems,
    users: &[f32],
    excludes: &[&[u32]],
    k: usize,
    out: &mut [Vec<(u32, f32)>],
) -> u64 {
    let b = excludes.len();
    let kdim = pruned.k;
    assert_eq!(users.len(), b * kdim, "user block shape mismatch");
    assert_eq!(out.len(), b, "output slot count mismatch");
    for o in out.iter_mut() {
        o.clear();
    }
    if b == 0 || k == 0 {
        return 0;
    }
    let m = pruned.order.len();
    let words = m.div_ceil(64);
    let mut excl = vec![0u64; b * words];
    for (j, exclude) in excludes.iter().enumerate() {
        debug_assert!(exclude.windows(2).all(|w| w[0] < w[1]), "exclude unsorted");
        for &e in *exclude {
            let p = pruned.pos_of[e as usize] as usize;
            excl[j * words + p / 64] |= 1 << (p % 64);
        }
    }
    let mut heaps: Vec<TopKHeap> = (0..b).map(|_| TopKHeap::new(k)).collect();
    let unorms: Vec<f64> = (0..b)
        .map(|j| row_norm_f64(&users[j * kdim..(j + 1) * kdim]))
        .collect();
    let mut active: Vec<usize> = (0..b).collect();
    let mut packed = vec![0.0f32; b * kdim];
    let mut tile = vec![0.0f32; b * PRUNE_BLOCK];
    let mut scored = 0u64;
    let mut pos = 0usize;
    let mut block = 0usize;
    while pos < m {
        // Cauchy–Schwarz: once a user's bound for this and every later
        // (lower-norm) block sits strictly below their heap minimum,
        // nothing left can be admitted, and the user is never fed again.
        active.retain(|&j| {
            if heaps[j].is_full() {
                if let Some(min) = heaps[j].min_score() {
                    if unorms[j] * pruned.bounds[block] < f64::from(min) {
                        return false;
                    }
                }
            }
            true
        });
        if active.is_empty() {
            break;
        }
        let end = (pos + PRUNE_BLOCK).min(m);
        let t = end - pos;
        let a = active.len();
        for (slot, &j) in active.iter().enumerate() {
            packed[slot * kdim..(slot + 1) * kdim]
                .copy_from_slice(&users[j * kdim..(j + 1) * kdim]);
        }
        // Excluded rows are scored too (their dots are wasted, a
        // per-user-degree cost) but are neither offered to a heap nor
        // counted in `scored`, keeping counters identical to the per-item
        // formulation.
        kernel::score_block(
            &packed[..a * kdim],
            &pruned.rows[pos * kdim..end * kdim],
            kdim,
            &mut tile[..a * t],
        );
        for (slot, &j) in active.iter().enumerate() {
            feed_pruned_scores(
                &mut heaps[j],
                &pruned.order,
                &tile[slot * t..(slot + 1) * t],
                pos,
                &excl[j * words..(j + 1) * words],
                &mut scored,
            );
        }
        pos = end;
        block += 1;
    }
    for (j, o) in out.iter_mut().enumerate() {
        heaps[j].drain_sorted_into(o);
    }
    scored
}

/// Replays an exact precomputed ranking; point queries are direct dots.
///
/// `ranked` must be the exact top-`k'` (item, score) ranking for this
/// user *with the exclusion set already applied*, for some `k'` at least
/// as large as any `k` later requested — the blocked full sweep, the
/// pruned sweep and the incremental candidate rescore all produce
/// exactly that.
#[derive(Debug)]
pub struct ListScores<'a> {
    ranked: &'a [(u32, f32)],
    items: &'a Matrix,
    u: &'a [f32],
}

impl<'a> ListScores<'a> {
    /// Wrap an exact ranking for the user vector `u`.
    pub fn new(ranked: &'a [(u32, f32)], items: &'a Matrix, u: &'a [f32]) -> Self {
        Self { ranked, items, u }
    }
}

impl ScoreSource for ListScores<'_> {
    fn top_k_excluding(&mut self, _exclude: &[u32], k: usize) -> Vec<u32> {
        debug_assert!(
            self.ranked
                .iter()
                .all(|&(i, _)| _exclude.binary_search(&i).is_err()),
            "precomputed ranking contains excluded items"
        );
        self.ranked.iter().take(k).map(|&(item, _)| item).collect()
    }

    fn score_of(&mut self, item: u32) -> f32 {
        vector::dot(self.u, self.items.row(item as usize))
    }
}

/// One epoch step of the incremental evaluator's drift tracking: the
/// maximum ℓ2 row distance between two snapshots of the item matrix, and
/// the maximum row norm of the new snapshot (both f64, the distance
/// inflated by a relative `1e-9` to absorb its own rounding).
///
/// NaNs propagate: a NaN anywhere yields NaN, which fails every
/// incremental validity comparison and forces the exact fallback sweep.
pub fn drift_step(prev: &Matrix, now: &Matrix) -> (f64, f64) {
    assert_eq!(prev.rows(), now.rows(), "item count changed between evals");
    assert_eq!(prev.cols(), now.cols(), "latent dimension changed");
    let mut max_delta = 0.0f64;
    let mut max_norm = 0.0f64;
    for i in 0..now.rows() {
        let (p, n) = (prev.row(i), now.row(i));
        let mut d2 = 0.0f64;
        let mut n2 = 0.0f64;
        for j in 0..n.len() {
            let diff = f64::from(n[j]) - f64::from(p[j]);
            d2 += diff * diff;
            n2 += f64::from(n[j]) * f64::from(n[j]);
        }
        // max() would hide NaN (it returns the other operand); propagate
        // explicitly so degenerate inputs disable the incremental path.
        if d2.is_nan() || n2.is_nan() {
            return (f64::NAN, f64::NAN);
        }
        max_delta = max_delta.max(d2);
        max_norm = max_norm.max(n2);
    }
    (max_delta.sqrt() * (1.0 + 1e-9), max_norm.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk;
    use fedrec_linalg::SeededRng;

    fn random_items(m: usize, k: usize, seed: u64) -> Matrix {
        let mut rng = SeededRng::new(seed);
        Matrix::random_normal(m, k, 0.0, 1.0, &mut rng)
    }

    fn dense_scores(items: &Matrix, u: &[f32]) -> Vec<f32> {
        (0..items.rows())
            .map(|i| vector::dot(u, items.row(i)))
            .collect()
    }

    /// The pruned sweep's top-`k` ids for `u` and the dots it spent.
    fn pruned_top(items: &Matrix, u: &[f32], exclude: &[u32], k: usize) -> (Vec<u32>, u64) {
        let pruned = PrunedItems::build(items);
        let mut ps = PrunedScores::new(&pruned, items, u);
        let mut ranked = Vec::new();
        ps.top_ranked_excluding(exclude, k, &mut ranked);
        let ids = ranked.into_iter().map(|(item, _)| item).collect();
        (ids, ps.items_scored())
    }

    #[test]
    fn pruned_matches_dense_topk_exactly() {
        let items = random_items(500, 8, 3);
        let mut rng = SeededRng::new(4);
        for trial in 0..20 {
            let u: Vec<f32> = (0..8).map(|_| rng.normal(0.0, 1.0)).collect();
            let dense = dense_scores(&items, &u);
            let exclude: Vec<u32> = (0..items.rows() as u32).filter(|i| i % 7 == 0).collect();
            for k in [1usize, 5, 10, 100, 600] {
                assert_eq!(
                    pruned_top(&items, &u, &exclude, k).0,
                    topk::top_k_excluding(&dense, &exclude, k),
                    "trial {trial} k={k}"
                );
            }
        }
    }

    #[test]
    fn pruned_actually_prunes_on_norm_skew() {
        // A few huge-norm rows dominate: the bound must fire early.
        let mut items = random_items(2048, 8, 9);
        for i in 0..16 {
            for x in items.row_mut(i) {
                *x *= 100.0;
            }
        }
        let u = vec![1.0f32; 8];
        let (top, scored) = pruned_top(&items, &u, &[], 10);
        let dense = dense_scores(&items, &u);
        assert_eq!(top, topk::top_k_excluding(&dense, &[], 10));
        assert!(
            scored < items.rows() as u64 / 2,
            "no pruning happened: scored {scored}"
        );
    }

    #[test]
    fn pruned_handles_ties_zero_rows_and_nans() {
        // Many identical rows (score ties resolved by id), zero rows, and
        // a NaN row that must sink without breaking the selection.
        let k = 4usize;
        let m = 64usize;
        let mut data = vec![0.0f32; m * k];
        for i in 0..32 {
            data[i * k] = 1.0; // 32 identical rows
        }
        data[40 * k] = f32::NAN;
        let items = Matrix::from_vec(m, k, data);
        let u = vec![1.0f32, 0.0, 0.0, 0.0];
        let dense = dense_scores(&items, &u);
        for (kreq, exclude) in [(10usize, vec![]), (40, vec![0u32, 1, 2]), (100, vec![])] {
            assert_eq!(
                pruned_top(&items, &u, &exclude, kreq).0,
                topk::top_k_excluding(&dense, &exclude, kreq)
            );
        }
    }

    #[test]
    fn pruned_zero_user_vector_matches_dense() {
        let items = random_items(100, 4, 5);
        let u = vec![0.0f32; 4];
        let dense = dense_scores(&items, &u);
        assert_eq!(
            pruned_top(&items, &u, &[], 10).0,
            topk::top_k_excluding(&dense, &[], 10)
        );
    }

    /// A replayed ranking answers point queries with the dense vector's
    /// bits, item by item.
    #[test]
    fn score_of_is_bitwise_dense() {
        let items = random_items(50, 8, 6);
        let mut rng = SeededRng::new(7);
        let u: Vec<f32> = (0..8).map(|_| rng.normal(0.0, 1.0)).collect();
        let dense = dense_scores(&items, &u);
        let mut ls = ListScores::new(&[], &items, &u);
        let mut ds = DenseScores::new(&dense);
        for item in 0..50u32 {
            assert_eq!(
                ls.score_of(item).to_bits(),
                ds.score_of(item).to_bits(),
                "item {item}"
            );
        }
    }

    #[test]
    fn list_scores_replay_prefixes() {
        let items = random_items(30, 4, 8);
        let u = vec![0.3f32, -0.1, 0.7, 0.2];
        let dense = dense_scores(&items, &u);
        let pruned = PrunedItems::build(&items);
        let mut ps = PrunedScores::new(&pruned, &items, &u);
        let mut ranked = Vec::new();
        ps.top_ranked_excluding(&[], 20, &mut ranked);
        let mut ls = ListScores::new(&ranked, &items, &u);
        for k in [1usize, 5, 10, 20] {
            assert_eq!(
                ls.top_k_excluding(&[], k),
                topk::top_k_excluding(&dense, &[], k)
            );
        }
        assert_eq!(ls.score_of(3).to_bits(), dense[3].to_bits());
    }

    /// A 13-user batch must reproduce one-user calls bit for bit — ranked
    /// lists, score bits, and summed dot counters — across norm skew
    /// (users deactivate at different blocks), partial tail blocks,
    /// exclusions, and varying k.
    #[test]
    fn top_ranked_block_matches_rowwise_pruned_exactly() {
        // 1000 items = 3 full blocks + a 232-item tail; skew the front so
        // bounds actually fire for small-norm users.
        let mut items = random_items(1000, 8, 11);
        for i in 0..24 {
            for x in items.row_mut(i) {
                *x *= 50.0;
            }
        }
        let pruned = PrunedItems::build(&items);
        let mut rng = SeededRng::new(12);
        for k in [1usize, 10, 74, 1200] {
            let b = 13usize;
            let mut users = Vec::with_capacity(b * 8);
            let mut excludes: Vec<Vec<u32>> = Vec::with_capacity(b);
            for j in 0..b {
                // Mix magnitudes so some users' bounds fire early and
                // others never do.
                let scale = if j % 3 == 0 { 0.02f32 } else { 1.0 };
                for _ in 0..8 {
                    users.push(rng.normal(0.0, 1.0) * scale);
                }
                excludes.push(
                    (0..items.rows() as u32)
                        .filter(|i| (i + j as u32).is_multiple_of(11))
                        .collect(),
                );
            }
            let excl_refs: Vec<&[u32]> = excludes.iter().map(|e| e.as_slice()).collect();
            let mut batched: Vec<Vec<(u32, f32)>> = vec![Vec::new(); b];
            let batched_scored = top_ranked_block(&pruned, &users, &excl_refs, k, &mut batched);
            let mut rowwise_scored = 0u64;
            for j in 0..b {
                let u = &users[j * 8..(j + 1) * 8];
                let mut ps = PrunedScores::new(&pruned, &items, u);
                let mut ranked = Vec::new();
                ps.top_ranked_excluding(&excludes[j], k, &mut ranked);
                rowwise_scored += ps.items_scored();
                assert_eq!(ranked.len(), batched[j].len(), "k={k} user {j}");
                for (r, bt) in ranked.iter().zip(&batched[j]) {
                    assert_eq!(r.0, bt.0, "k={k} user {j}");
                    assert_eq!(r.1.to_bits(), bt.1.to_bits(), "k={k} user {j}");
                }
            }
            assert_eq!(batched_scored, rowwise_scored, "counter mismatch k={k}");
        }
    }

    #[test]
    fn top_ranked_block_handles_empty_and_degenerate_batches() {
        let items = random_items(64, 4, 13);
        let pruned = PrunedItems::build(&items);
        let mut out: Vec<Vec<(u32, f32)>> = Vec::new();
        assert_eq!(top_ranked_block(&pruned, &[], &[], 10, &mut out), 0);
        // k = 0 clears outputs and scores nothing.
        let u = vec![1.0f32, 0.0, 0.0, 0.0];
        let mut out = vec![vec![(7u32, 0.5f32)]];
        let ex: &[u32] = &[];
        assert_eq!(top_ranked_block(&pruned, &u, &[ex], 0, &mut out), 0);
        assert!(out[0].is_empty());
    }

    #[test]
    fn drift_step_measures_the_moved_row() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let b = Matrix::from_vec(2, 2, vec![1.0, 0.0, 3.0, 5.0]);
        let (delta, vmax) = drift_step(&a, &b);
        assert!((delta - 5.0).abs() < 1e-6, "delta={delta}");
        assert!((vmax - 34.0f64.sqrt()).abs() < 1e-9, "vmax={vmax}");
        let (zero, _) = drift_step(&a, &a);
        assert_eq!(zero, 0.0);
    }

    #[test]
    fn drift_step_propagates_nan() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 0.0]);
        let b = Matrix::from_vec(1, 2, vec![f32::NAN, 0.0]);
        let (delta, vmax) = drift_step(&a, &b);
        assert!(delta.is_nan() && vmax.is_nan());
    }
}
