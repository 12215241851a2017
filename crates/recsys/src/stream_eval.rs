//! Streaming sharded evaluation — the one evaluation sweep.
//!
//! Every metric in the workspace runs through one shard loop: the users
//! of a range are split into fixed `shard_rows` shards, scoped worker
//! threads claim shards through an atomic cursor, and the per-shard
//! [`MetricsAccumulator`]s are merged in shard-index order. The result is
//! deterministic for a fixed `shard_rows` no matter the thread count, and
//! [`Evaluator::evaluate`] is the same loop over one population-wide shard
//! (one shard merged into an empty accumulator adds to `0.0`, so it equals
//! a plain single pass over the users).
//!
//! User rows come through the [`UserRowSource`] abstraction, scored
//! against the server's `V`, so the dense `n × k` user matrix never has to
//! exist: peak memory is `O(threads · (B·T + B·k))` regardless of the
//! population size.
//!
//! Two entry points feed the loop:
//!
//! * [`Evaluator::evaluate_user_range_mode`] ranks dot-product (MF) scores
//!   in one of three [`EvalMode`]s;
//! * [`Evaluator::evaluate_user_range_scored`] takes a caller's per-user
//!   dense scorer (the NCF MLP, for one) and ranks through
//!   [`DenseScores`].
//!
//! # Evaluation modes
//!
//! Three [`EvalMode`]s produce **byte-identical** [`EvalReport`]s; they
//! differ only in how many dot products they spend. Every mode ranks a
//! shard [`USER_BLOCK`] users at a time and replays each user's exact
//! ranking into the metrics through [`ListScores`]:
//!
//! * [`EvalMode::Full`] — every user × item pair, but through the blocked
//!   [`fedrec_linalg::kernel::score_block`] kernel: the block is scored
//!   against item tiles of [`ITEM_TILE`] rows, so `V` streams from memory
//!   once per *block* instead of once per *user*. Each user's tile of
//!   scores goes to their [`TopKHeap`] through [`TopKHeap::push_run`],
//!   the one heap feed of [`crate::topk`] — the heap's total order makes
//!   the result independent of feeding order.
//! * [`EvalMode::Pruned`] — one [`top_ranked_block`] call per block:
//!   exact top-K via Cauchy–Schwarz norm bounds over the norm-sorted
//!   [`PrunedItems`], where provably-losing item blocks are never scored
//!   (see the soundness notes in [`crate::scorer`]). When no bound fires
//!   the call does the same kernel-batched work as [`EvalMode::Full`], so
//!   no probe has to choose between the two.
//! * [`EvalMode::Incremental`] — reuses an [`IncrementalEvalState`]
//!   across eval epochs: only `V` changes between evals, so each block
//!   goes through [`rank_cached`], which serves a user's cached
//!   [`Candidates`] (top-10 plus a margin band) when the drift bound of
//!   [`crate::candidates`] proves no outside item can have entered the
//!   top-10, and ranks the rest with one pruned sweep whose bands refresh
//!   their caches.

use crate::candidates::{rank_cached, Candidates, DriftTracker, CAND_K};
use crate::eval::{EvalReport, Evaluator};
use crate::metrics::MetricsAccumulator;
use crate::scorer::{top_ranked_block, DenseScores, ListScores, PrunedItems, ScoreSource};
use crate::topk::TopKHeap;
use fedrec_data::split::TestSet;
use fedrec_data::InteractionSource;
use fedrec_linalg::{kernel, Matrix, ShardedMatrix};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Users ranked per block in every dot-product mode: in
/// [`EvalMode::Full`] the item tile is reused across this many users,
/// dividing `V` memory traffic by the same factor.
pub const USER_BLOCK: usize = 64;

/// Item rows per cache tile in [`EvalMode::Full`]; at `k = 32` a tile is
/// 32 KiB — comfortably L1/L2-resident while a user block consumes it.
pub const ITEM_TILE: usize = 256;

/// How the streamed evaluator computes each user's exact top-10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// Blocked full sweep: every item scored through the tiled kernel.
    Full,
    /// Norm-bound pruning: skip item blocks that provably lose.
    Pruned,
    /// Cross-epoch candidate caching with drift-bound validity checks.
    Incremental,
}

impl EvalMode {
    /// Stable lowercase label (JSONL records, CLI flags).
    pub fn label(self) -> &'static str {
        match self {
            EvalMode::Full => "full",
            EvalMode::Pruned => "pruned",
            EvalMode::Incremental => "incremental",
        }
    }

    /// Inverse of [`Self::label`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "full" => Some(EvalMode::Full),
            "pruned" => Some(EvalMode::Pruned),
            "incremental" => Some(EvalMode::Incremental),
            _ => None,
        }
    }
}

/// Work counters for one streamed evaluation: how many top-K candidate
/// dot products were computed versus avoided.
///
/// `items_scored` counts the dots spent selecting top-10 lists;
/// `items_skipped` is the remainder of `|range| · m` — items excluded by
/// the user's interaction set, pruned by a norm bound, or covered by a
/// still-valid incremental cache. HR@10 point queries are not counted.
/// Both are deterministic for fixed inputs: they never depend on thread
/// count or shard claiming order. Per user, the modes charge:
///
/// * [`EvalMode::Full`] — all `m` kernel dots, excluded items included;
/// * [`EvalMode::Pruned`] — the pruned sweep's count: every non-excluded
///   item in the norm blocks visited before the bound fired;
/// * [`EvalMode::Incremental`] — a cache hit its rescore (one dot per
///   cached candidate), anything else only its pruned sweep at
///   [`CAND_K`]; an entry that fails revalidation is not charged its
///   rescore (see [`rank_cached`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalCounters {
    /// Dot products computed during top-K selection.
    pub items_scored: u64,
    /// `|range| · m − items_scored`.
    pub items_skipped: u64,
}

/// Cross-epoch state for [`EvalMode::Incremental`]; create once per cell
/// with [`IncrementalEvalState::new`] and pass to every eval call. It
/// holds the item drift across eval epochs and one [`Candidates`] entry
/// per evaluated user; the exactness argument lives in
/// [`crate::candidates`].
#[derive(Debug, Default)]
pub struct IncrementalEvalState {
    /// Item drift across eval epochs.
    tracker: DriftTracker,
    /// Per-user caches, indexed by absolute user id.
    users: Vec<Option<Candidates>>,
}

impl IncrementalEvalState {
    /// Empty state: the first evaluation performs a full (pruned) sweep
    /// for every user and populates the caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of users currently holding a valid-as-of-last-eval cache.
    pub fn cached_users(&self) -> usize {
        self.users.iter().filter(|c| c.is_some()).count()
    }
}

/// A source of current user feature rows that never requires the dense
/// `n × k` matrix to exist.
///
/// Implementors must be cheap per row and thread-safe: evaluation workers
/// pull rows concurrently.
pub trait UserRowSource: Sync {
    /// Number of users `n`.
    fn num_users(&self) -> usize;

    /// Latent dimension `k`.
    fn k(&self) -> usize;

    /// Write user `u`'s current feature vector into `out`
    /// (`out.len() == k`).
    fn write_user_row(&self, u: usize, out: &mut [f32]);
}

/// A dense user matrix is trivially a row source (rows are users).
impl UserRowSource for Matrix {
    fn num_users(&self) -> usize {
        self.rows()
    }

    fn k(&self) -> usize {
        self.cols()
    }

    fn write_user_row(&self, u: usize, out: &mut [f32]) {
        out.copy_from_slice(self.row(u));
    }
}

/// A lazily-materialized user matrix streams its rows without ever
/// densifying: stored rows are copied, untouched rows derived.
impl UserRowSource for ShardedMatrix {
    fn num_users(&self) -> usize {
        self.num_rows()
    }

    fn k(&self) -> usize {
        self.cols()
    }

    fn write_user_row(&self, u: usize, out: &mut [f32]) {
        self.peek_row(u, out);
    }
}

/// Reusable per-worker buffers for [`Evaluator::evaluate_user_range_mode`]
/// — allocated once per worker and reused across every shard it claims
/// (the round loop's `RoundScratch` pattern applied to evaluation).
struct EvalScratch {
    /// User block rows, `USER_BLOCK × k` row-major.
    rows: Vec<f32>,
    /// Kernel output tile, `USER_BLOCK × ITEM_TILE` ([`EvalMode::Full`]).
    tile: Vec<f32>,
    /// One top-10 heap per block slot ([`EvalMode::Full`]).
    heaps: Vec<TopKHeap>,
    /// One exact ranking per block slot, replayed into the metrics.
    lists: Vec<Vec<(u32, f32)>>,
}

impl EvalScratch {
    fn new(k: usize) -> Self {
        Self {
            rows: vec![0.0f32; USER_BLOCK * k],
            tile: vec![0.0f32; USER_BLOCK * ITEM_TILE],
            heaps: (0..USER_BLOCK).map(|_| TopKHeap::new(10)).collect(),
            lists: vec![Vec::new(); USER_BLOCK],
        }
    }
}

/// Per-shard worker output: shard index, its metrics, dots spent, and
/// (incremental mode only) candidate entries to install after the join.
type ShardOut = (usize, MetricsAccumulator, u64, Vec<(usize, Candidates)>);

impl Evaluator {
    /// Evaluate users `range` against the item matrix `items` in the
    /// given [`EvalMode`], in `shard_rows`-user shards over up to
    /// `threads` workers.
    ///
    /// All modes return byte-identical [`EvalReport`]s (a property the
    /// proptests and `repro matrix --smoke` gate on); the [`EvalCounters`]
    /// expose how much work the chosen mode avoided. A strict `range`
    /// prefix is the partial-population protocol: a scale run scores a
    /// user sample at `O(|range|)` cost instead of sweeping a million
    /// users per epoch.
    ///
    /// Every mode ranks [`USER_BLOCK`] users at a time (see the module
    /// docs), so the counters depend only on each block's own users,
    /// never on the thread count.
    /// [`EvalMode::Incremental`] requires `state` and panics without it.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_user_range_mode<D>(
        &self,
        items: &Matrix,
        users: &dyn UserRowSource,
        train: &D,
        test: &TestSet,
        range: Range<usize>,
        threads: usize,
        shard_rows: usize,
        mode: EvalMode,
        state: Option<&mut IncrementalEvalState>,
    ) -> (EvalReport, EvalCounters)
    where
        D: InteractionSource + Sync + ?Sized,
    {
        assert_eq!(users.k(), items.cols(), "latent dimension mismatch");
        let k = items.cols();
        // Incremental misses rank through the same pruned sweep.
        let pruned = (mode != EvalMode::Full).then(|| PrunedItems::build(items));
        let inc = match mode {
            EvalMode::Incremental => {
                let st = state.expect("EvalMode::Incremental requires an IncrementalEvalState");
                st.tracker.observe(items);
                if st.users.len() < range.end {
                    st.users.resize_with(range.end, || None);
                }
                Some(st)
            }
            _ => None,
        };
        // Validity decisions read this pre-epoch snapshot, so claiming
        // order cannot leak into the result.
        let snapshot = inc.as_deref();
        let (report, counters, refreshes) = self.sweep(
            users,
            train,
            test,
            range,
            items.rows(),
            threads,
            shard_rows,
            || EvalScratch::new(k),
            |scratch, lo, hi, acc, refreshes| {
                let (pi, st) = (pruned.as_ref(), snapshot);
                self.eval_shard(
                    items, mode, pi, st, users, train, test, lo, hi, scratch, acc, refreshes,
                )
            },
        );
        if let Some(st) = inc {
            // Installed after the join; each refresh targets a distinct
            // user.
            for (u, cache) in refreshes {
                st.users[u] = Some(cache);
            }
        }
        (report, counters)
    }

    /// The shard loop of [`Self::evaluate_user_range_mode`] with a
    /// caller's per-user dense scorer in place of the dot-product modes:
    /// `score(row, out)` writes the score of each of the `num_items` items
    /// for the user row `row` into `out`. Ranking goes through
    /// [`DenseScores`], so the report is that of a one-user-at-a-time
    /// dense sweep summed in shard order, and the counters charge every
    /// `(user, item)` pair as scored. Model families whose scores are not
    /// dot products (NCF) evaluate here and get `threads` for free.
    #[allow(clippy::too_many_arguments)]
    pub fn evaluate_user_range_scored<D, F>(
        &self,
        num_items: usize,
        users: &dyn UserRowSource,
        train: &D,
        test: &TestSet,
        range: Range<usize>,
        threads: usize,
        shard_rows: usize,
        score: F,
    ) -> (EvalReport, EvalCounters)
    where
        D: InteractionSource + Sync + ?Sized,
        F: Fn(&[f32], &mut [f32]) + Sync,
    {
        let k = users.k();
        let (report, counters, _) = self.sweep(
            users,
            train,
            test,
            range,
            num_items,
            threads,
            shard_rows,
            || (vec![0.0f32; k], vec![0.0f32; num_items]),
            |(row, scores), lo, hi, acc, _| {
                for u in lo..hi {
                    users.write_user_row(u, row);
                    score(row, scores);
                    self.push_user(&mut DenseScores::new(scores), u, train, test, acc);
                }
                ((hi - lo) * num_items) as u64
            },
        );
        (report, counters)
    }

    /// The one shard loop: split `range` into `shard_rows`-user shards,
    /// let up to `threads` workers (each with its own `new_scratch()`)
    /// claim them through an atomic cursor, run `shard(scratch, lo, hi,
    /// acc, refreshes)` on each — it returns the top-K dots it spent —
    /// and merge the accumulators in shard-index order.
    #[allow(clippy::too_many_arguments)]
    fn sweep<D, S>(
        &self,
        users: &dyn UserRowSource,
        train: &D,
        test: &TestSet,
        range: Range<usize>,
        num_items: usize,
        threads: usize,
        shard_rows: usize,
        new_scratch: impl Fn() -> S + Sync,
        shard: impl Fn(&mut S, usize, usize, &mut MetricsAccumulator, &mut Vec<(usize, Candidates)>) -> u64
            + Sync,
    ) -> (EvalReport, EvalCounters, Vec<(usize, Candidates)>)
    where
        D: InteractionSource + Sync + ?Sized,
    {
        assert!(shard_rows > 0, "shard_rows must be positive");
        assert_eq!(users.num_users(), train.num_users(), "population mismatch");
        assert!(
            range.end <= train.num_users(),
            "user range {}..{} exceeds population {}",
            range.start,
            range.end,
            train.num_users()
        );
        assert!(
            test.len() <= train.num_users(),
            "test set larger than population: {} > {}",
            test.len(),
            train.num_users()
        );
        assert!(
            test.len() <= self.hr_negatives.len(),
            "test set has {} entries but the evaluator prepared negatives for {}: \
             construct the evaluator with a test set at least this long",
            test.len(),
            self.hr_negatives.len()
        );
        let span = range.end.saturating_sub(range.start);
        let num_shards = span.div_ceil(shard_rows);
        let workers = threads.max(1).min(num_shards.max(1));

        let cursor = AtomicUsize::new(0);
        let run_worker = || -> Vec<ShardOut> {
            let mut scratch = new_scratch();
            let mut done: Vec<ShardOut> = Vec::new();
            loop {
                let si = cursor.fetch_add(1, Ordering::Relaxed);
                if si >= num_shards {
                    return done;
                }
                let lo = range.start + si * shard_rows;
                let hi = (lo + shard_rows).min(range.end);
                let mut acc = MetricsAccumulator::new();
                let mut refreshes = Vec::new();
                let scored = shard(&mut scratch, lo, hi, &mut acc, &mut refreshes);
                done.push((si, acc, scored, refreshes));
            }
        };
        let mut per_shard: Vec<ShardOut> = if workers <= 1 {
            run_worker()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(run_worker)).collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("eval worker panicked"))
                    .collect()
            })
        };
        per_shard.sort_unstable_by_key(|(si, _, _, _)| *si);
        let mut total = MetricsAccumulator::new();
        let mut items_scored = 0u64;
        let mut all_refreshes = Vec::new();
        for (_, acc, scored, refreshes) in per_shard {
            total.merge(&acc);
            items_scored += scored;
            all_refreshes.extend(refreshes);
        }
        let report = EvalReport {
            attack: total.attack_metrics(),
            hr_at_10: total.hr_at_10(),
        };
        let counters = EvalCounters {
            items_scored,
            items_skipped: (span as u64) * (num_items as u64) - items_scored,
        };
        (report, counters, all_refreshes)
    }

    /// Push user `u`'s attack metrics and, when an item is held out for
    /// them, their HR@10 outcome.
    fn push_user<S, D>(
        &self,
        src: &mut S,
        u: usize,
        train: &D,
        test: &TestSet,
        acc: &mut MetricsAccumulator,
    ) where
        S: ScoreSource + ?Sized,
        D: InteractionSource + ?Sized,
    {
        acc.push_user_attack(src, train.user_items(u), self.targets());
        if let Some(test_item) = test.get(u).copied().flatten() {
            acc.push_user_hr(src, test_item, &self.hr_negatives[u]);
        }
    }

    /// Rank users `lo..hi` [`USER_BLOCK`] at a time in `mode` (with its
    /// prepared pruning view `pi` and incremental state `st`), push each
    /// user's ranking through [`ListScores`], and queue the refreshed
    /// cache entries of incremental misses. Returns the dots spent.
    #[allow(clippy::too_many_arguments)]
    fn eval_shard<D>(
        &self,
        items: &Matrix,
        mode: EvalMode,
        pi: Option<&PrunedItems>,
        st: Option<&IncrementalEvalState>,
        users: &dyn UserRowSource,
        train: &D,
        test: &TestSet,
        lo: usize,
        hi: usize,
        scratch: &mut EvalScratch,
        acc: &mut MetricsAccumulator,
        refreshes: &mut Vec<(usize, Candidates)>,
    ) -> u64
    where
        D: InteractionSource + Sync + ?Sized,
    {
        let (m, k) = (items.rows(), items.cols());
        let mut scored = 0u64;
        let mut block_lo = lo;
        while block_lo < hi {
            let block_hi = (block_lo + USER_BLOCK).min(hi);
            let b = block_hi - block_lo;
            let rows = &mut scratch.rows[..b * k];
            for (j, u) in (block_lo..block_hi).enumerate() {
                users.write_user_row(u, &mut rows[j * k..(j + 1) * k]);
            }
            let rows = &*rows;
            let lists = &mut scratch.lists[..b];
            let mut excludes: [&[u32]; USER_BLOCK] = [&[]; USER_BLOCK];
            if mode != EvalMode::Full {
                for (j, u) in (block_lo..block_hi).enumerate() {
                    excludes[j] = train.user_items(u);
                }
            }
            scored += match (mode, pi, st) {
                (EvalMode::Full, _, _) => {
                    let heaps = &mut scratch.heaps[..b];
                    for heap in heaps.iter_mut() {
                        heap.reset(10);
                    }
                    let mut tile_lo = 0usize;
                    while tile_lo < m {
                        let tile_hi = (tile_lo + ITEM_TILE).min(m);
                        let t = tile_hi - tile_lo;
                        let tile = &mut scratch.tile[..b * t];
                        let slab = &items.as_slice()[tile_lo * k..tile_hi * k];
                        kernel::score_block(rows, slab, k, tile);
                        for (j, heap) in heaps.iter_mut().enumerate() {
                            let exclude = train.user_items(block_lo + j);
                            heap.push_run(tile_lo, &tile[j * t..(j + 1) * t], exclude);
                        }
                        tile_lo = tile_hi;
                    }
                    for (heap, list) in heaps.iter_mut().zip(lists.iter_mut()) {
                        heap.drain_sorted_into(list);
                    }
                    (b * m) as u64
                }
                (EvalMode::Pruned, Some(pi), _) => {
                    top_ranked_block(pi, rows, &excludes[..b], 10, lists)
                }
                (EvalMode::Incremental, Some(pi), Some(st)) => {
                    let mut cached: [Option<&Candidates>; USER_BLOCK] = [None; USER_BLOCK];
                    for (j, u) in (block_lo..block_hi).enumerate() {
                        let row = &rows[j * k..(j + 1) * k];
                        cached[j] = st.users[u].as_ref().filter(|c| c.same_row(row));
                    }
                    let (drift, vmax) = (st.tracker.drift(), st.tracker.vmax_seen());
                    let (dots, misses) = rank_cached(
                        pi,
                        items,
                        rows,
                        &excludes[..b],
                        &cached[..b],
                        (drift, vmax),
                        (10, CAND_K),
                        lists,
                    );
                    for j in misses {
                        let row = &rows[j * k..(j + 1) * k];
                        let entry = Candidates::new(row, &lists[j], CAND_K, drift);
                        refreshes.push((block_lo + j, entry));
                    }
                    dots
                }
                _ => unreachable!("mode-specific state prepared above"),
            };
            for (j, list) in lists.iter().enumerate() {
                let mut src = ListScores::new(list, items, &rows[j * k..(j + 1) * k]);
                self.push_user(&mut src, block_lo + j, train, test, acc);
            }
            block_lo = block_hi;
        }
        scored
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MfModel;
    use fedrec_data::split::leave_one_out;
    use fedrec_data::synthetic::SyntheticConfig;
    use fedrec_data::Dataset;
    use fedrec_linalg::{SeededGaussianInit, SeededRng};

    fn setup() -> (Dataset, TestSet, Evaluator, MfModel) {
        let full = SyntheticConfig::smoke().generate(21);
        let (train, test) = leave_one_out(&full, 4);
        let targets = train.coldest_items(2);
        let eval = Evaluator::new(&train, &test, &targets, 5);
        let mut rng = SeededRng::new(6);
        let model = MfModel::init(train.num_users(), train.num_items(), 8, &mut rng);
        (train, test, eval, model)
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    /// [`Evaluator::evaluate_user_range_mode`] over `model`'s whole
    /// population.
    fn run_mode(
        eval: &Evaluator,
        model: &MfModel,
        (train, test): (&Dataset, &TestSet),
        threads: usize,
        shard_rows: usize,
        mode: EvalMode,
        state: Option<&mut IncrementalEvalState>,
    ) -> (EvalReport, EvalCounters) {
        let (items, users, n) = (&model.item_factors, &model.user_factors, train.num_users());
        eval.evaluate_user_range_mode(
            items,
            users,
            train,
            test,
            0..n,
            threads,
            shard_rows,
            mode,
            state,
        )
    }

    /// Full-mode streamed report over users `range`.
    fn streamed(
        eval: &Evaluator,
        items: &Matrix,
        users: &dyn UserRowSource,
        (train, test): (&Dataset, &TestSet),
        range: Range<usize>,
        threads: usize,
        shard_rows: usize,
    ) -> EvalReport {
        let mode = EvalMode::Full;
        eval.evaluate_user_range_mode(
            items, users, train, test, range, threads, shard_rows, mode, None,
        )
        .0
    }

    /// The one-user-at-a-time reference sweep: dense scores per user,
    /// one accumulator per `shard_rows` shard merged in order — or, with
    /// `None`, a single pass into one accumulator with no merge at all.
    fn rowwise_reference(
        eval: &Evaluator,
        model: &MfModel,
        train: &Dataset,
        test: &TestSet,
        shard_rows: Option<usize>,
    ) -> EvalReport {
        let n = train.num_users();
        let mut total = MetricsAccumulator::new();
        let mut acc = MetricsAccumulator::new();
        let mut scores = vec![0.0f32; model.num_items()];
        for u in 0..n {
            model.scores_for_user(u, &mut scores);
            let mut src = crate::scorer::DenseScores::new(&scores);
            acc.push_user_attack(&mut src, train.user_items(u), eval.targets());
            if let Some(test_item) = test.get(u).copied().flatten() {
                acc.push_user_hr(&mut src, test_item, &eval.hr_negatives[u]);
            }
            if shard_rows.is_some_and(|s| (u + 1) % s == 0 || u + 1 == n) {
                total.merge(&std::mem::take(&mut acc));
            }
        }
        let done = if shard_rows.is_some() { total } else { acc };
        EvalReport {
            attack: done.attack_metrics(),
            hr_at_10: done.hr_at_10(),
        }
    }

    #[test]
    fn streamed_matches_dense_evaluation() {
        let (train, test, eval, model) = setup();
        let (items, users) = (&model.item_factors, &model.user_factors);
        let dense = eval.evaluate(items, users, &train, &test);
        let n = train.num_users();
        let sharded = streamed(&eval, items, users, (&train, &test), 0..n, 1, 16);
        assert!(close(dense.attack.er_at_5, sharded.attack.er_at_5));
        assert!(close(dense.attack.er_at_10, sharded.attack.er_at_10));
        assert!(close(dense.attack.ndcg_at_10, sharded.attack.ndcg_at_10));
        // HR is a counted fraction: exactly equal.
        assert_eq!(dense.hr_at_10, sharded.hr_at_10);
    }

    /// The blocked kernel path must reproduce the original one-user-at-a-
    /// time sweep bit for bit: same dots, same heap feeding order, same
    /// accumulator pushes. `Evaluator::evaluate`, one population-wide
    /// shard, must equal a single pass with no merge: dense callers'
    /// records depend on that summation order.
    #[test]
    fn blocked_full_matches_rowwise_reference() {
        let (train, test, eval, model) = setup();
        let (items, users) = (&model.item_factors, &model.user_factors);
        let n = train.num_users();
        let blocked = streamed(&eval, items, users, (&train, &test), 0..n, 1, 16);
        assert_eq!(
            rowwise_reference(&eval, &model, &train, &test, Some(16)),
            blocked
        );
        let single_pass = rowwise_reference(&eval, &model, &train, &test, None);
        assert_eq!(single_pass, eval.evaluate(items, users, &train, &test));
    }

    /// A dot-product closure through the dense-scorer sweep is the full
    /// mode in reports and counters, at every thread count.
    #[test]
    fn scored_sweep_matches_full_mode() {
        let (train, test, eval, model) = setup();
        let (items, users) = (&model.item_factors, &model.user_factors);
        let n = train.num_users();
        for threads in [1usize, 2, 8] {
            let full = eval.evaluate_user_range_mode(
                items,
                users,
                &train,
                &test,
                0..n,
                threads,
                16,
                EvalMode::Full,
                None,
            );
            let scored = eval.evaluate_user_range_scored(
                items.rows(),
                users,
                &train,
                &test,
                0..n,
                threads,
                16,
                |row, out| MfModel::scores_for_vector(items, row, out),
            );
            assert_eq!(full, scored, "scored sweep diverged at {threads} threads");
        }
    }

    #[test]
    fn streamed_is_thread_count_invariant() {
        let (train, test, eval, model) = setup();
        let (items, users) = (&model.item_factors, &model.user_factors);
        let n = train.num_users();
        let r1 = streamed(&eval, items, users, (&train, &test), 0..n, 1, 16);
        for t in [2usize, 4, 8] {
            let rt = streamed(&eval, items, users, (&train, &test), 0..n, t, 16);
            assert_eq!(r1, rt, "streamed eval diverged at {t} threads");
        }
    }

    #[test]
    fn pruned_mode_is_byte_identical_to_full() {
        let (train, test, eval, model) = setup();
        let n = train.num_users();
        for (threads, shard_rows) in [(1usize, 16usize), (2, 7), (8, 16), (2, 64)] {
            let (full, fc) = run_mode(
                &eval,
                &model,
                (&train, &test),
                threads,
                shard_rows,
                EvalMode::Full,
                None,
            );
            let (pruned, pc) = run_mode(
                &eval,
                &model,
                (&train, &test),
                threads,
                shard_rows,
                EvalMode::Pruned,
                None,
            );
            assert_eq!(full, pruned, "t={threads} s={shard_rows}");
            assert_eq!(fc.items_scored, (n as u64) * (model.num_items() as u64));
            assert_eq!(fc.items_skipped, 0);
            assert_eq!(
                pc.items_scored + pc.items_skipped,
                fc.items_scored,
                "counter budget mismatch"
            );
            assert!(pc.items_scored <= fc.items_scored);
        }
    }

    #[test]
    fn pruned_counters_are_thread_invariant() {
        let (train, test, eval, model) = setup();
        let run = |threads: usize| {
            run_mode(
                &eval,
                &model,
                (&train, &test),
                threads,
                16,
                EvalMode::Pruned,
                None,
            )
        };
        let (r1, c1) = run(1);
        for t in [2usize, 8] {
            let (rt, ct) = run(t);
            assert_eq!(r1, rt);
            assert_eq!(c1, ct, "counters diverged at {t} threads");
        }
    }

    /// Summed exclusion-list lengths over `train`'s users.
    fn excluded(train: &Dataset) -> u64 {
        let n = train.num_users();
        (0..n).map(|u| train.user_items(u).len() as u64).sum()
    }

    /// Uniform-norm item factors are the norm bound's adversarial case:
    /// no block can ever be skipped. The pruned sweep then scores every
    /// non-excluded item — the same kernel-batched work as the full sweep
    /// — so it skips exactly the exclusion lists, with the full report
    /// and thread-invariant counters.
    #[test]
    fn pruned_on_uniform_norms_skips_only_exclusions() {
        let (train, test, eval, mut model) = setup();
        // Rescale every item row to unit norm: directions (and therefore
        // rankings) stay distinct, but every Cauchy–Schwarz bound is flat.
        for i in 0..model.item_factors.rows() {
            let row = model.item_factors.row_mut(i);
            let inv = (1.0 / crate::scorer::row_norm_f64(row)) as f32;
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
        // Shards of one full and one partial user block.
        let shard_rows = USER_BLOCK + 16;
        let run = |threads: usize, mode: EvalMode| {
            run_mode(
                &eval,
                &model,
                (&train, &test),
                threads,
                shard_rows,
                mode,
                None,
            )
        };
        let (full, fc) = run(1, EvalMode::Full);
        let (pruned, pc) = run(1, EvalMode::Pruned);
        assert_eq!(full, pruned, "uniform norms changed report bytes");
        assert_eq!(pc.items_scored + pc.items_skipped, fc.items_scored);
        let excluded = excluded(&train);
        assert!(excluded > 0, "smoke train set unexpectedly empty");
        assert_eq!(pc.items_skipped, excluded, "a flat bound pruned something");
        for t in [2usize, 8] {
            let (rt, ct) = run(t, EvalMode::Pruned);
            assert_eq!(pruned, rt, "pruned report diverged at {t} threads");
            assert_eq!(pc, ct, "pruned counters diverged at {t} threads");
        }
    }

    /// Norm-skewed factors (the realistic post-training shape) make the
    /// bound fire, so `items_skipped` stays well above the pure exclusion
    /// count, and a block's count is its users' one-user pruned sweeps
    /// at k = 10. Needs a catalog wider than one [`PRUNE_BLOCK`] — the
    /// block bound can't skip anything inside the block holding the top
    /// candidates.
    ///
    /// [`PRUNE_BLOCK`]: crate::scorer::PRUNE_BLOCK
    #[test]
    fn pruned_keeps_pruning_on_skewed_norms() {
        let full_ds = SyntheticConfig {
            name: "prune-skew",
            num_items: 900,
            ..SyntheticConfig::smoke()
        }
        .generate(33);
        let (train, test) = leave_one_out(&full_ds, 4);
        let targets = train.coldest_items(2);
        let eval = Evaluator::new(&train, &test, &targets, 5);
        let mut rng = SeededRng::new(6);
        let mut model = MfModel::init(train.num_users(), train.num_items(), 8, &mut rng);
        // Exaggerate the norm spread: geometric decay across item rows.
        for i in 0..model.item_factors.rows() {
            let scale = 0.99f32.powi(i as i32) * 4.0;
            for v in model.item_factors.row_mut(i).iter_mut() {
                *v *= scale;
            }
        }
        let shard_rows = USER_BLOCK + 16;
        let (full, _) = run_mode(
            &eval,
            &model,
            (&train, &test),
            1,
            shard_rows,
            EvalMode::Full,
            None,
        );
        let (pruned, pc) = run_mode(
            &eval,
            &model,
            (&train, &test),
            1,
            shard_rows,
            EvalMode::Pruned,
            None,
        );
        assert_eq!(full, pruned);
        let excluded = excluded(&train);
        assert!(
            pc.items_skipped > excluded,
            "skewed norms should prune beyond exclusions: skipped={} excluded={excluded}",
            pc.items_skipped
        );
        let (items, users) = (&model.item_factors, &model.user_factors);
        let pi = PrunedItems::build(items);
        let mut one_user = 0u64;
        for u in 0..train.num_users() {
            let mut ps = crate::scorer::PrunedScores::new(&pi, items, users.row(u));
            ps.top_ranked_excluding(train.user_items(u), 10, &mut Vec::new());
            one_user += ps.items_scored();
        }
        assert_eq!(pc.items_scored, one_user, "pruned mode ranked past k = 10");
    }

    /// Drive the incremental evaluator through several epochs of genuine
    /// item-factor drift (as a federated round loop produces) and check
    /// every epoch's report byte-equals the full sweep of the same state.
    #[test]
    fn incremental_tracks_full_across_epochs() {
        let (train, test, eval, mut model) = setup();
        let n = train.num_users();
        let mut state = IncrementalEvalState::new();
        let mut drift_rng = SeededRng::new(99);
        let mut saved_some = false;
        for epoch in 0..6 {
            let (full, _) = run_mode(&eval, &model, (&train, &test), 2, 16, EvalMode::Full, None);
            let (pruned, pc) = run_mode(
                &eval,
                &model,
                (&train, &test),
                2,
                16,
                EvalMode::Pruned,
                None,
            );
            let (inc, ic) = run_mode(
                &eval,
                &model,
                (&train, &test),
                2,
                16,
                EvalMode::Incremental,
                Some(&mut state),
            );
            assert_eq!(full, inc, "incremental diverged at epoch {epoch}");
            assert_eq!(full, pruned, "pruned diverged at epoch {epoch}");
            assert_eq!(state.cached_users(), n);
            // A validated cache costs CAND_K dots; an invalidated one costs
            // only its pruned sweep at CAND_K, which ranks past the top-10
            // and so spends at least the plain pruned sweep's dots. Beating
            // that sweep therefore requires genuine cache hits.
            if epoch > 0 && ic.items_scored < pc.items_scored {
                saved_some = true;
            }
            // Small drift: a few item rows move a little.
            for _ in 0..3 {
                let i = drift_rng.below(model.num_items());
                for x in model.item_factors.row_mut(i) {
                    *x += drift_rng.normal(0.0, 1e-3);
                }
            }
        }
        assert!(
            saved_some,
            "small drift never validated any incremental cache"
        );
    }

    /// Changed user rows (participants who trained between evals) must
    /// invalidate their cache; large item drift must force fallbacks. In
    /// both cases the result stays exact.
    #[test]
    fn incremental_survives_row_changes_and_large_drift() {
        let (train, test, eval, mut model) = setup();
        let n = train.num_users();
        let mut state = IncrementalEvalState::new();
        let _ = run_mode(
            &eval,
            &model,
            (&train, &test),
            1,
            16,
            EvalMode::Incremental,
            Some(&mut state),
        );
        // Violent change: rewrite half the item matrix and some users.
        let mut rng = SeededRng::new(123);
        for i in 0..model.num_items() / 2 {
            for x in model.item_factors.row_mut(i) {
                *x = rng.normal(0.0, 0.5);
            }
        }
        for u in 0..n / 3 {
            for x in model.user_factors.row_mut(u) {
                *x = rng.normal(0.0, 0.5);
            }
        }
        let (full, _) = run_mode(&eval, &model, (&train, &test), 2, 16, EvalMode::Full, None);
        let (inc, _) = run_mode(
            &eval,
            &model,
            (&train, &test),
            2,
            16,
            EvalMode::Incremental,
            Some(&mut state),
        );
        assert_eq!(full, inc);
    }

    #[test]
    fn incremental_is_thread_count_invariant() {
        let (train, test, eval, mut model) = setup();
        let run_epochs = |threads: usize, model: &mut MfModel| {
            let mut state = IncrementalEvalState::new();
            let mut rng = SeededRng::new(7);
            let mut reports = Vec::new();
            for _ in 0..3 {
                let (rep, counters) = run_mode(
                    &eval,
                    model,
                    (&train, &test),
                    threads,
                    16,
                    EvalMode::Incremental,
                    Some(&mut state),
                );
                reports.push((rep, counters));
                for _ in 0..2 {
                    let i = rng.below(model.num_items());
                    for x in model.item_factors.row_mut(i) {
                        *x += rng.normal(0.0, 1e-3);
                    }
                }
            }
            reports
        };
        let mut m1 = model.clone();
        let base = run_epochs(1, &mut m1);
        for t in [2usize, 8] {
            let mut mt = model.clone();
            let got = run_epochs(t, &mut mt);
            assert_eq!(base, got, "incremental diverged at {t} threads");
        }
        let _ = &mut model;
    }

    #[test]
    #[should_panic(expected = "requires an IncrementalEvalState")]
    fn incremental_without_state_panics() {
        let (train, test, eval, model) = setup();
        let _ = eval.evaluate_user_range_mode(
            &model.item_factors,
            &model.user_factors,
            &train,
            &test,
            0..4,
            1,
            16,
            EvalMode::Incremental,
            None,
        );
    }

    #[test]
    fn eval_mode_labels_roundtrip() {
        for mode in [EvalMode::Full, EvalMode::Pruned, EvalMode::Incremental] {
            assert_eq!(EvalMode::parse(mode.label()), Some(mode));
        }
        assert_eq!(EvalMode::parse("nope"), None);
    }

    #[test]
    fn user_range_restricts_coverage() {
        let (train, test, eval, model) = setup();
        let (items, users) = (&model.item_factors, &model.user_factors);
        let half = train.num_users() / 2;
        let ranged = streamed(&eval, items, users, (&train, &test), 0..half, 2, 8);
        // Equivalent: evaluate a truncated population the slow way.
        let mut acc = MetricsAccumulator::new();
        let mut scores = vec![0.0f32; model.num_items()];
        for u in 0..half {
            model.scores_for_user(u, &mut scores);
            let mut src = crate::scorer::DenseScores::new(&scores);
            acc.push_user_attack(&mut src, train.user_items(u), eval.targets());
        }
        assert!(close(ranged.attack.er_at_10, acc.attack_metrics().er_at_10));
        // Empty range is a no-op report.
        let empty = streamed(&eval, items, users, (&train, &test), 0..0, 2, 8);
        assert_eq!(empty, EvalReport::default());
    }

    #[test]
    fn sharded_matrix_streams_like_its_dense_twin() {
        let (train, test, eval, model) = setup();
        let n = train.num_users();
        let k = 8usize;
        // Eager twin: per-row forked Gaussian rows.
        let mut parent = SeededRng::new(33);
        let mut dense_users = Matrix::zeros(n, k);
        for r in 0..n {
            let mut child = parent.fork(r as u64);
            for x in dense_users.row_mut(r) {
                *x = child.normal(0.0, 0.1);
            }
        }
        let mut parent = SeededRng::new(33);
        let init = SeededGaussianInit::record(&mut parent, n, 32, 0.0, 0.1);
        let lazy_users = ShardedMatrix::new(n, k, 32, Box::new(init));
        let items = &model.item_factors;
        let a = streamed(&eval, items, &dense_users, (&train, &test), 0..n, 2, 16);
        let b = streamed(&eval, items, &lazy_users, (&train, &test), 0..n, 2, 16);
        assert_eq!(a, b, "lazy user rows must evaluate identically");
        assert_eq!(
            lazy_users.materialized_rows(),
            0,
            "evaluation must not materialize rows"
        );
    }
}
