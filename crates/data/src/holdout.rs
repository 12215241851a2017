//! Leave-one-out holdout over a lazily generated interaction source.
//!
//! [`crate::split::leave_one_out`] rebuilds the training set as a new
//! [`crate::Dataset`] — fine when the population is materialized, hopeless
//! for the lazily sharded scale-free generators where each user's row is a
//! pure function of `(seed, user)` and removing an interaction up front
//! would force generating the whole population. [`HoldoutView`] instead
//! masks at *read time*: it wraps any [`InteractionSource`] and hides one
//! deterministically chosen item per eligible user (degree ≥ 2), exposing
//! the masked rows through the same trait. Training code sees a population
//! that genuinely lacks the held item; evaluation fetches it through
//! [`HoldoutView::test_set`], so scale-free cells report a real HR@10
//! instead of skipping hit-rate evaluation entirely.
//!
//! The view is the only row cache of a lazily generated population. It
//! keeps masked rows in blocks of 16 users behind [`OnceLock`]s; the first
//! read of a block generates its rows straight from the wrapped source
//! through [`InteractionSource::append_user_items`], which a
//! [`crate::scalefree::ScaleFreeDataset`] answers without filling its own
//! shards. So a run generates only the blocks it reads, an unread block
//! costs one empty lock, and the choice of held item is a pure function of
//! `(holdout seed, user)` — independent of access order, thread count and
//! block size.

use crate::dataset::InteractionSource;
use crate::split::TestSet;
use fedrec_linalg::SeededRng;
use std::sync::OnceLock;

/// Default users per masked-row block. Participants are drawn uniformly
/// over the population, so each one faults in a whole block: small blocks
/// keep a million-user run near the users it reads (each block costs a
/// lock and three exact-size allocations).
const DEFAULT_SHARD_ROWS: usize = 16;

/// One cached block of masked CSR rows.
#[derive(Debug)]
struct MaskShard {
    /// Local CSR offsets (`ptr[i]..ptr[i+1]` indexes local user `i`).
    ptr: Vec<usize>,
    /// Concatenated sorted item ids with the held item removed.
    items: Vec<u32>,
    /// The held-out item per local user (`None` below degree 2).
    held: Vec<Option<u32>>,
}

/// An [`InteractionSource`] wrapper that holds out one item per eligible
/// user at read time (see the module docs).
#[derive(Debug)]
pub struct HoldoutView<S> {
    inner: S,
    seed: u64,
    shard_rows: usize,
    shards: Vec<OnceLock<MaskShard>>,
}

impl<S: InteractionSource> HoldoutView<S> {
    /// Wrap `inner`, deriving each user's held item from `(seed, user)`.
    pub fn new(inner: S, seed: u64) -> Self {
        Self::with_shard_rows(inner, seed, DEFAULT_SHARD_ROWS)
    }

    /// [`HoldoutView::new`] with an explicit mask-shard size (tests and
    /// granularity tuning).
    pub fn with_shard_rows(inner: S, seed: u64, shard_rows: usize) -> Self {
        assert!(shard_rows > 0, "shard_rows must be positive");
        let num_shards = inner.num_users().div_ceil(shard_rows);
        Self {
            inner,
            seed,
            shard_rows,
            shards: (0..num_shards).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The wrapped source (rows *include* held items).
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The item held out for user `u`, or `None` when the user's degree
    /// is below 2 (nothing can be held without emptying the row).
    pub fn held_item(&self, u: usize) -> Option<u32> {
        let shard = self.shard(u / self.shard_rows);
        shard.held[u % self.shard_rows]
    }

    /// The held items of users `0..span` as a [`TestSet`] — the partial
    /// test set the streamed evaluators accept. Faults in the mask shards
    /// covering the span (`O(span)` work).
    pub fn test_set(&self, span: usize) -> TestSet {
        assert!(span <= self.inner.num_users(), "span exceeds population");
        (0..span).map(|u| self.held_item(u)).collect()
    }

    fn shard(&self, si: usize) -> &MaskShard {
        self.shards[si].get_or_init(|| self.build_shard(si))
    }

    fn build_shard(&self, si: usize) -> MaskShard {
        let start = si * self.shard_rows;
        let rows = (self.inner.num_users() - start).min(self.shard_rows);
        let mut ptr = Vec::with_capacity(rows + 1);
        ptr.push(0usize);
        let mut items: Vec<u32> = Vec::new();
        let mut held = Vec::with_capacity(rows);
        for u in start..start + rows {
            // The row lands in `items[base..]`; removing the held item
            // shifts only this row's tail.
            let base = items.len();
            self.inner.append_user_items(u, &mut items);
            let degree = items.len() - base;
            if degree >= 2 {
                // The pick is a pure function of (seed, u): access order,
                // thread count and shard size cannot change it.
                let mut rng =
                    SeededRng::new(self.seed ^ (u as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let pick = rng.below(degree);
                held.push(Some(items.remove(base + pick)));
            } else {
                held.push(None);
            }
            ptr.push(items.len());
        }
        items.shrink_to_fit();
        MaskShard { ptr, items, held }
    }
}

impl<S: InteractionSource> InteractionSource for HoldoutView<S> {
    fn num_users(&self) -> usize {
        self.inner.num_users()
    }

    fn num_items(&self) -> usize {
        self.inner.num_items()
    }

    fn user_items(&self, u: usize) -> &[u32] {
        assert!(u < self.inner.num_users(), "user {u} out of range");
        let shard = self.shard(u / self.shard_rows);
        let local = u % self.shard_rows;
        &shard.items[shard.ptr[local]..shard.ptr[local + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalefree::ScaleFreeConfig;
    use crate::Dataset;

    #[test]
    fn masks_exactly_one_item_per_eligible_user() {
        let data = ScaleFreeConfig::tiny().generate(5);
        let view = HoldoutView::new(ScaleFreeConfig::tiny().generate(5), 77);
        for u in 0..data.num_users() {
            let full = data.user_items(u);
            let masked = view.user_items(u);
            match view.held_item(u) {
                Some(h) => {
                    assert_eq!(masked.len(), full.len() - 1, "user {u}");
                    assert!(full.contains(&h), "held item must come from the row");
                    assert!(!masked.contains(&h), "held item leaked into training");
                    assert!(masked.iter().all(|v| full.contains(v)));
                    assert!(masked.windows(2).all(|w| w[0] < w[1]), "row unsorted");
                }
                None => {
                    assert!(full.len() < 2);
                    assert_eq!(masked, full);
                }
            }
        }
    }

    /// Rows and held items of `users` agree across block sizes 1, 16 and
    /// 1024, with the 1024-user view touched in reverse order.
    fn assert_block_size_free(cfg: &ScaleFreeConfig, users: std::ops::Range<usize>) {
        let mk = |rows| HoldoutView::with_shard_rows(cfg.generate(3), 9, rows);
        let views = [mk(1), mk(16), mk(1_024)];
        for u in users.clone().rev() {
            let _ = views[2].user_items(u);
        }
        let read = |v: &HoldoutView<_>, u| (v.held_item(u), v.user_items(u).to_vec());
        for u in users {
            for v in &views[1..] {
                assert_eq!(read(&views[0], u), read(v, u), "user {u} diverged");
            }
        }
    }

    #[test]
    fn holdout_is_deterministic_and_shard_size_free() {
        let tiny = ScaleFreeConfig::tiny();
        assert_block_size_free(&tiny, 0..tiny.num_users);
        // A span of the million preset whose ends fall inside 1024-user
        // blocks.
        assert_block_size_free(&ScaleFreeConfig::million(), 497_000..502_000);
    }

    #[test]
    fn test_set_covers_the_span_and_matches_held_items() {
        let view = HoldoutView::new(ScaleFreeConfig::tiny().generate(4), 11);
        let test = view.test_set(200);
        assert_eq!(test.len(), 200);
        for (u, slot) in test.iter().enumerate() {
            assert_eq!(*slot, view.held_item(u));
        }
        // tiny() guarantees min_degree 2: every span user holds an item.
        assert!(test.iter().all(|t| t.is_some()));
    }

    #[test]
    fn low_degree_users_keep_everything() {
        let data = Dataset::from_tuples(3, 10, vec![(0, 4), (1, 2), (1, 7)]);
        let view = HoldoutView::new(data, 13);
        assert_eq!(view.held_item(0), None, "singleton user keeps its item");
        assert_eq!(view.user_items(0), &[4]);
        assert_eq!(view.held_item(2), None, "empty user stays empty");
        assert!(view.user_items(2).is_empty());
        assert!(view.held_item(1).is_some());
        assert_eq!(view.user_items(1).len(), 1);
    }

    #[test]
    fn different_holdout_seeds_pick_different_items() {
        let a = HoldoutView::new(ScaleFreeConfig::tiny().generate(6), 1);
        let b = HoldoutView::new(ScaleFreeConfig::tiny().generate(6), 2);
        let diff = (0..a.num_users()).any(|u| a.held_item(u) != b.held_item(u));
        assert!(diff, "holdout seed must matter");
    }
}
