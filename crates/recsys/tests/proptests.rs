//! Property-based tests for the recommender core.

use fedrec_data::split::leave_one_out;
use fedrec_data::Dataset;
use fedrec_linalg::{Matrix, SeededRng};
use fedrec_recsys::candidates::{rank_cached, Candidates, DriftTracker, CAND_K};
use fedrec_recsys::eval::{EvalReport, Evaluator};
use fedrec_recsys::scorer::{PrunedItems, PrunedScores};
use fedrec_recsys::topk::{TopKHeap, GROUP};
use fedrec_recsys::{
    bpr, metrics, ranking, topk, EvalCounters, EvalMode, IncrementalEvalState, MfModel,
};
use proptest::prelude::*;

fn scores_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-10.0f32..10.0, 5..60)
}

proptest! {
    /// top-K membership is exactly "rank < K" for every item and K.
    #[test]
    fn topk_and_rank_agree(scores in scores_strategy(), k in 1usize..12) {
        let top = topk::top_k_excluding(&scores, &[], k);
        for item in 0..scores.len() as u32 {
            let rank = topk::rank_of(&scores, &[], item).unwrap();
            prop_assert_eq!(
                rank < k.min(scores.len()),
                top.contains(&item),
                "item {} rank {} k {}", item, rank, k
            );
        }
    }

    /// Excluded items never appear; list length is min(k, candidates).
    #[test]
    fn topk_respects_exclusions(
        scores in scores_strategy(),
        k in 1usize..12,
        seed in 0u64..100,
    ) {
        let mut rng = SeededRng::new(seed);
        let n_excl = rng.below(scores.len());
        let mut exclude: Vec<u32> = rng
            .sample_indices(scores.len(), n_excl)
            .into_iter()
            .map(|x| x as u32)
            .collect();
        exclude.sort_unstable();
        let top = topk::top_k_excluding(&scores, &exclude, k);
        prop_assert_eq!(top.len(), k.min(scores.len() - n_excl));
        for v in &top {
            prop_assert!(exclude.binary_search(v).is_err());
        }
    }

    /// Top-K lists are sorted by strictly non-increasing score.
    #[test]
    fn topk_is_score_sorted(scores in scores_strategy(), k in 1usize..12) {
        let top = topk::top_k_excluding(&scores, &[], k);
        for w in top.windows(2) {
            prop_assert!(scores[w[0] as usize] >= scores[w[1] as usize]);
        }
    }

    /// BPR gradients always descend for a small enough step.
    #[test]
    fn bpr_gradient_descends(seed in 0u64..300) {
        let mut rng = SeededRng::new(seed);
        let k = 4;
        let items = Matrix::random_normal(12, k, 0.0, 0.5, &mut rng);
        let u: Vec<f32> = (0..k).map(|_| rng.normal(0.0, 0.5)).collect();
        let pairs: Vec<(u32, u32)> = (0..4)
            .map(|_| {
                let p = rng.below(12) as u32;
                let mut n = rng.below(12) as u32;
                while n == p {
                    n = rng.below(12) as u32;
                }
                (p, n)
            })
            .collect();
        let g = bpr::user_round_grads(&u, &items, &pairs);
        prop_assume!(g.loss > 1e-3); // skip already-perfect cases
        let mut u2 = u.clone();
        fedrec_linalg::vector::axpy(-0.01, &g.grad_user, &mut u2);
        let mut items2 = items.clone();
        g.grad_items.apply_to(&mut items2, 0.01);
        let after = bpr::user_loss(&u2, &items2, &pairs);
        prop_assert!(after <= g.loss + 1e-5, "ascent: {} -> {}", g.loss, after);
    }

    /// ER/NDCG per-user values are probabilities, and ER is monotone in
    /// the number of recommended targets.
    #[test]
    fn exposure_metrics_bounded(
        seed in 0u64..300,
        num_targets in 1usize..4,
    ) {
        let mut rng = SeededRng::new(seed);
        let m = 30u32;
        let mut targets: Vec<u32> = rng
            .sample_indices(m as usize, num_targets)
            .into_iter()
            .map(|x| x as u32)
            .collect();
        targets.sort_unstable();
        let recommended: Vec<u32> = rng
            .sample_indices(m as usize, 10)
            .into_iter()
            .map(|x| x as u32)
            .collect();
        let er = metrics::exposure_ratio_user(&recommended, &[], &targets);
        let ndcg = metrics::ndcg_user(&recommended, &[], &targets, 10);
        prop_assert!((0.0..=1.0).contains(&er));
        prop_assert!((0.0..=1.0).contains(&ndcg));
        // Adding every target to the list yields ER = 1.
        let full: Vec<u32> = targets.clone();
        prop_assert_eq!(metrics::exposure_ratio_user(&full, &[], &targets), 1.0);
    }

    /// The Gini index is scale-invariant and within [0, 1).
    #[test]
    fn gini_properties(counts in proptest::collection::vec(0u32..50, 2..40)) {
        let g1 = ranking::gini_index(&counts);
        prop_assert!((0.0..1.0).contains(&g1) || g1.abs() < 1e-9);
        let doubled: Vec<u32> = counts.iter().map(|&c| c * 2).collect();
        let g2 = ranking::gini_index(&doubled);
        prop_assert!((g1 - g2).abs() < 1e-9, "not scale invariant: {g1} vs {g2}");
    }

    /// Precision and recall relate through list/relevant sizes:
    /// hits = precision·|list| = recall·|relevant|.
    #[test]
    fn precision_recall_consistency(seed in 0u64..300) {
        let mut rng = SeededRng::new(seed);
        let m = 40usize;
        let list: Vec<u32> = rng.sample_indices(m, 10).into_iter().map(|x| x as u32).collect();
        let mut relevant: Vec<u32> =
            rng.sample_indices(m, 5).into_iter().map(|x| x as u32).collect();
        relevant.sort_unstable();
        let p = ranking::precision_at_k(&list, &relevant);
        let r = ranking::recall_at_k(&list, &relevant);
        let hits_from_p = p * list.len() as f64;
        let hits_from_r = r * relevant.len() as f64;
        prop_assert!((hits_from_p - hits_from_r).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// The one heap feed: `top_k_excluding` (exclusion cursor plus the group
// pre-screen) must select exactly what offering every item through
// `TopKHeap::push`, with a binary search per exclusion, selects.
// ---------------------------------------------------------------------------

/// Scores that stress the top-K order: NaN, ±∞, ±0.0, the finite extremes
/// and heavy ties. The first three all sanitize to `f32::MIN`.
const HOSTILE: [f32; 11] = [
    f32::NAN,
    f32::NEG_INFINITY,
    f32::MIN,
    f32::INFINITY,
    f32::MAX,
    0.0,
    -0.0,
    0.5,
    0.5,
    -0.5,
    1.0,
];

/// `len` scores drawn from the first `span` entries of [`HOSTILE`]; a
/// `span` past its end adds fresh normal draws to the mix.
fn hostile_scores(len: usize, span: usize, rng: &mut SeededRng) -> Vec<f32> {
    (0..len)
        .map(|_| match HOSTILE.get(rng.below(span)) {
            Some(&s) => s,
            None => rng.normal(0.0, 1.0),
        })
        .collect()
}

/// The heap's sanitation: NaN lowest, ±∞ clamped to the finite range.
fn sanitized(s: f32) -> f32 {
    if s.is_nan() {
        f32::MIN
    } else {
        s.clamp(f32::MIN, f32::MAX)
    }
}

/// The dense top-K before the one heap feed: every item offered through
/// [`TopKHeap::push`], exclusions found by binary search.
fn top_k_binary_search(scores: &[f32], exclude: &[u32], k: usize) -> Vec<u32> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap = TopKHeap::new(k);
    for (item, &score) in scores.iter().enumerate() {
        let item = item as u32;
        if exclude.binary_search(&item).is_ok() {
            continue;
        }
        heap.push(item, score);
    }
    let mut out = Vec::with_capacity(heap.len());
    heap.drain_sorted_into(&mut out);
    out.into_iter().map(|(item, _)| item).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `top_k_excluding` equals the binary-search loop on lengths that are
    /// mostly not multiples of [`GROUP`], hostile and tied scores, sorted
    /// exclusion lists reaching past the last item, and k from 0 to past
    /// the candidate count; its list is in descending sanitized score,
    /// ties to the smaller id.
    #[test]
    fn top_k_excluding_matches_the_binary_search_loop(
        len in 0usize..300,
        span in 1usize..HOSTILE.len() + 2,
        density in 0u64..4,
        ki in 0usize..6,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = SeededRng::new(seed);
        let scores = hostile_scores(len, span, &mut rng);
        let exclude: Vec<u32> = (0..len as u32 + 8)
            .filter(|_| (rng.below(4) as u64) < density)
            .collect();
        let k = [0, 1, 7, 10, len, len + 5][ki];
        let top = topk::top_k_excluding(&scores, &exclude, k);
        prop_assert_eq!(&top, &top_k_binary_search(&scores, &exclude, k), "len {} k {}", len, k);
        for w in top.windows(2) {
            let (a, b) = (sanitized(scores[w[0] as usize]), sanitized(scores[w[1] as usize]));
            prop_assert!(a > b || (a == b && w[0] < w[1]), "order {:?} at len {}", w, len);
        }
    }

    /// The group pre-screen rejects a group only when no member could
    /// enter the heap under any id: every sanitized member lies strictly
    /// below the floor (an equal one may still enter on a smaller id,
    /// which the norm-sorted pruned feed offers).
    #[test]
    fn rejects_group_only_rejects_groups_no_member_can_enter(
        k in 1usize..4,
        fill in 0usize..6,
        span in 1usize..HOSTILE.len() + 2,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = SeededRng::new(seed);
        let mut heap = TopKHeap::new(k);
        for (i, s) in hostile_scores(fill, span, &mut rng).into_iter().enumerate() {
            heap.push(100 + i as u32, s);
        }
        let group: [f32; GROUP] = hostile_scores(GROUP, span, &mut rng).try_into().unwrap();
        if heap.rejects_group(&group) {
            prop_assert!(heap.is_full());
            let floor = heap.min_score().unwrap();
            for &s in &group {
                prop_assert!(sanitized(s) < floor, "{:?} rejected at floor {}", group, floor);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Eval-mode equivalence: the pruned and incremental streamed-evaluation
// fast paths must reproduce the full blocked sweep's EvalReport *exactly*
// (same f64 bytes, not "close"), whatever the thread count or shard size.
// ---------------------------------------------------------------------------

/// Quantized factor entries make exact score ties ubiquitous — the
/// adversarial case for top-K selection order.
const QUANTA: [f32; 4] = [-0.5, 0.0, 0.5, 1.0];

fn quantized(rows: usize, cols: usize, rng: &mut SeededRng) -> Matrix {
    let data: Vec<f32> = (0..rows * cols)
        .map(|_| QUANTA[rng.below(QUANTA.len())])
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// A small tie-heavy world: quantized factors, one all-zero user row and
/// one all-zero item row (degenerate norms for the pruning bounds), and
/// populations small enough that the top-10 list can cover every item
/// (the k ≥ m case).
fn eval_world(
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
) -> (Dataset, Vec<Option<u32>>, Evaluator, MfModel) {
    let mut rng = SeededRng::new(seed);
    let mut users = quantized(n, k, &mut rng);
    let mut items = quantized(m, k, &mut rng);
    users.as_mut_slice()[(seed as usize % n) * k..][..k].fill(0.0);
    items.as_mut_slice()[(seed as usize % m) * k..][..k].fill(0.0);
    let mut tuples = Vec::new();
    for u in 0..n {
        let deg = 2 + rng.below((m - 1).min(4));
        for v in rng.sample_indices(m, deg) {
            tuples.push((u as u32, v as u32));
        }
    }
    let full = Dataset::from_tuples(n, m, tuples);
    let (train, test) = leave_one_out(&full, seed ^ 0x9e37);
    let targets = train.coldest_items(2);
    let eval = Evaluator::new(&train, &test, &targets, seed.wrapping_add(1));
    (train, test, eval, MfModel::from_factors(users, items))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pruned evaluation returns the full sweep's report exactly, across
    /// thread counts and shard sizes, and accounts for every item either
    /// as scored or skipped.
    #[test]
    fn pruned_reports_match_full_exactly(
        n in 4usize..14,
        m in 3usize..24,
        k in 1usize..6,
        seed in 0u64..64,
    ) {
        let (train, test, eval, model) = eval_world(n, m, k, seed);
        for (threads, shard_rows) in [(1usize, 3usize), (2, 5), (8, 16)] {
            let (full, fc) = eval.evaluate_user_range_mode(
                &model.item_factors, &model.user_factors, &train, &test,
                0..n, threads, shard_rows, EvalMode::Full, None);
            let (pruned, pc) = eval.evaluate_user_range_mode(
                &model.item_factors, &model.user_factors, &train, &test,
                0..n, threads, shard_rows, EvalMode::Pruned, None);
            prop_assert_eq!(full, pruned, "threads {} shard {}", threads, shard_rows);
            prop_assert_eq!(
                fc.items_scored + fc.items_skipped,
                pc.items_scored + pc.items_skipped,
                "budget mismatch at threads {} shard {}", threads, shard_rows
            );
        }
    }

    /// Incremental re-evaluation tracks the full sweep exactly across
    /// drifting epochs, with identical reports *and counters* at 1, 2 and
    /// 8 threads (each thread count replays the same drift sequence
    /// against its own cache state).
    #[test]
    fn incremental_reports_match_full_across_epochs(
        n in 4usize..12,
        m in 3usize..20,
        k in 1usize..5,
        seed in 0u64..64,
    ) {
        let (train, test, eval, model) = eval_world(n, m, k, seed);
        let mut per_thread: Vec<Vec<(EvalReport, EvalCounters)>> = Vec::new();
        for threads in [1usize, 2, 8] {
            let mut state = IncrementalEvalState::new();
            let mut items = model.item_factors.clone();
            let mut drift_rng = SeededRng::new(seed ^ 0xabcd);
            let mut reports = Vec::new();
            for epoch in 0..4 {
                let (full, _) = eval.evaluate_user_range_mode(
                    &items, &model.user_factors, &train, &test,
                    0..n, threads, 4, EvalMode::Full, None);
                let (inc, ic) = eval.evaluate_user_range_mode(
                    &items, &model.user_factors, &train, &test,
                    0..n, threads, 4, EvalMode::Incremental, Some(&mut state));
                prop_assert_eq!(full, inc, "epoch {} threads {}", epoch, threads);
                reports.push((inc, ic));
                // Drift one quantized item entry per epoch.
                let row = drift_rng.below(m);
                let col = drift_rng.below(k);
                items.as_mut_slice()[row * k + col] += 0.25;
            }
            per_thread.push(reports);
        }
        prop_assert_eq!(&per_thread[0], &per_thread[1], "2-thread incremental diverged");
        prop_assert_eq!(&per_thread[0], &per_thread[2], "8-thread incremental diverged");
    }
}

// ---------------------------------------------------------------------------
// The one hit-or-sweep step: a block through `rank_cached` answers every
// user as a one-user call does, and each answer and charge is what the
// primitives give — the entry's rescore for a hit, the one-user pruned
// sweep at the band width for a miss.
// ---------------------------------------------------------------------------

/// One user's expected `rank_cached` answer from the primitives:
/// (ranked list, dots charged, whether it missed).
fn rank_one_by_hand(
    (pruned, items): (&PrunedItems, &Matrix),
    row: &[f32],
    exclude: &[u32],
    entry: Option<&Candidates>,
    (drift, vmax_seen): (f64, f64),
    (k, cand_k): (usize, usize),
) -> (Vec<(u32, f32)>, u64, bool) {
    let mut list = Vec::new();
    if let Some(c) = entry {
        let mut heap = TopKHeap::new(k);
        if c.revalidate(row, items, drift, vmax_seen, &mut heap) {
            heap.drain_sorted_into(&mut list);
            return (list, c.ids().len() as u64, false);
        }
    }
    let mut ps = PrunedScores::new(pruned, items, row);
    ps.top_ranked_excluding(exclude, cand_k, &mut list);
    (list, ps.items_scored(), true)
}

fn same_bits(a: &[(u32, f32)], b: &[(u32, f32)]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.0 == y.0 && x.1.to_bits() == y.1.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Blocks of 1–70 users mixing no entry, entries that still
    /// revalidate after a small drift, entries that fail (an entry built
    /// a huge or NaN drift ago) and floor-`−∞` entries (the user's
    /// catalog fits in the band), for k ∈ {1, 10} and cand_k ∈ {k,
    /// `CAND_K`}: every list (ids and score bits), miss and summed charge
    /// equals one-user calls and the primitives.
    #[test]
    fn rank_cached_blocks_match_one_user_calls(
        b in 1usize..71,
        m in 8usize..600,
        kdim in 1usize..9,
        ki in 0usize..4,
        seed in 0u64..1 << 32,
    ) {
        let mut rng = SeededRng::new(seed);
        let k = [1usize, 10][ki % 2];
        let cand_k = if ki < 2 { k } else { CAND_K };
        // Norm-skewed rows, so some sweeps stop early, then a small drift.
        let mut old = Matrix::random_normal(m, kdim, 0.0, 1.0, &mut rng);
        for i in 0..m {
            let scale = 4.0 / (1.0 + i as f32 / 16.0);
            old.row_mut(i).iter_mut().for_each(|x| *x *= scale);
        }
        let mut items = old.clone();
        for _ in 0..3 {
            let i = rng.below(m);
            items.row_mut(i).iter_mut().for_each(|x| *x += rng.normal(0.0, 1e-4));
        }
        let mut tracker = DriftTracker::new();
        tracker.observe(&old);
        tracker.observe(&items);
        let bounds = (tracker.drift(), tracker.vmax_seen());
        let (old_pruned, pruned) = (PrunedItems::build(&old), PrunedItems::build(&items));
        let rows: Vec<f32> = (0..b * kdim).map(|_| rng.normal(0.0, 1.0)).collect();
        let mut excludes: Vec<Vec<u32>> = Vec::with_capacity(b);
        let mut entries: Vec<Option<Candidates>> = Vec::with_capacity(b);
        for j in 0..b {
            let row = &rows[j * kdim..(j + 1) * kdim];
            let kind = rng.below(5);
            let exclude: Vec<u32> = if kind == 4 {
                // Keep fewer than cand_k items: the entry holds them all.
                let keep = rng.below(cand_k.min(m));
                let kept = rng.sample_indices(m, keep);
                (0..m as u32).filter(|i| !kept.contains(&(*i as usize))).collect()
            } else {
                (0..m as u32).filter(|_| rng.below(8) == 0).collect()
            };
            let drift_at = match kind {
                0 => None,
                1 | 4 => Some(0.0),
                2 => Some(-1e3),
                _ => Some(f64::NAN),
            };
            entries.push(drift_at.map(|at| {
                let mut ranked = Vec::new();
                PrunedScores::new(&old_pruned, &old, row)
                    .top_ranked_excluding(&exclude, cand_k, &mut ranked);
                Candidates::new(row, &ranked, cand_k, at)
            }));
            excludes.push(exclude);
        }
        let excl: Vec<&[u32]> = excludes.iter().map(Vec::as_slice).collect();
        let cached: Vec<Option<&Candidates>> = entries.iter().map(Option::as_ref).collect();
        let mut out = vec![Vec::new(); b];
        let (dots, misses) = rank_cached(
            &pruned, &items, &rows, &excl, &cached, bounds, (k, cand_k), &mut out);
        let (mut one_dots, mut hand_dots) = (0u64, 0u64);
        for j in 0..b {
            let row = &rows[j * kdim..(j + 1) * kdim];
            let mut one = [Vec::new()];
            let (d, one_miss) = rank_cached(
                &pruned, &items, row, &[excl[j]], &[cached[j]], bounds, (k, cand_k), &mut one);
            one_dots += d;
            let missed = misses.contains(&j);
            prop_assert_eq!(one_miss.is_empty(), !missed, "user {} of {}", j, b);
            prop_assert!(same_bits(&one[0], &out[j]), "user {} of {}: block list", j, b);
            let (list, d, hand_miss) = rank_one_by_hand(
                (&pruned, &items), row, excl[j], cached[j], bounds, (k, cand_k));
            hand_dots += d;
            prop_assert_eq!(hand_miss, missed, "user {} of {}", j, b);
            prop_assert!(same_bits(&list, &out[j]), "user {} of {}: primitive list", j, b);
        }
        prop_assert!(misses.windows(2).all(|w| w[0] < w[1]), "misses {:?}", misses);
        prop_assert_eq!(dots, one_dots, "block vs one-user dots");
        prop_assert_eq!(dots, hand_dots, "block vs primitive dots");
    }
}
