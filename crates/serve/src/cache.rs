//! Per-user candidate caches with drift-bound validity — the serving
//! twin of the offline incremental evaluator's per-user entries.
//!
//! This module only stores entries: [`CandidateCache::lookup`] hands out
//! the entry that applies to a request (same row, same exclusions, not
//! newer than the pinned snapshot) and [`CandidateCache::install`] stores
//! the band of a miss as a [`Candidates`] entry built at the snapshot's
//! cumulative drift. Whether an entry may answer is decided by
//! [`rank_cached`], the hit-or-sweep step the offline
//! [`IncrementalEvalState`](fedrec_recsys::IncrementalEvalState) uses
//! too: a later request rescores just the cached [`CAND_K`] candidates
//! (a few dozen dots instead of a full catalog sweep) and serves them iff
//! [`Candidates::revalidate`] proves no outside item can have caught up,
//! so a hit serves the identical bytes a full sweep of the pinned
//! snapshot would. NaN drift (degenerate training) fails the bound and
//! degrades every lookup to a miss — wrong-but-fast is never an outcome.
//!
//! Entries are sharded `user id % 64` across mutexes; each shard is an
//! id-sorted vec probed by binary search, so lookups take no allocation
//! and the lock is held for microseconds. Invalidation is lazy: publishes
//! touch no cache state, entries simply fail their validity check against
//! the newer snapshot and get replaced on the next miss.

use crate::snapshot::ItemSnapshot;
use fedrec_recsys::candidates::Candidates;
#[cfg(doc)]
use fedrec_recsys::candidates::{rank_cached, CAND_K};
use std::sync::Mutex;

/// Cache shards (locks); 64 keeps cross-user contention negligible at
/// serving thread counts this side of absurd.
const SHARDS: usize = 64;

/// One user's cached ranking context.
#[derive(Debug, Clone)]
pub struct CachedUser {
    /// The exact ranking and what it was built against.
    cands: Candidates,
    /// Exclusion list the ranking was computed under; a request with a
    /// different list cannot reuse it.
    exclude: Vec<u32>,
    /// Publish sequence the entry was built against: a request pinned to
    /// an *older* snapshot must not consult a future cache (drift only
    /// bounds forward movement), and installs never clobber newer
    /// entries with older ones.
    seq_at: u64,
}

/// Sharded per-user candidate cache.
#[derive(Debug)]
pub struct CandidateCache {
    shards: Vec<Mutex<Vec<(u32, CachedUser)>>>,
}

impl Default for CandidateCache {
    fn default() -> Self {
        Self::new()
    }
}

impl CandidateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Number of cached users (test/report helper; takes every shard
    /// lock in turn).
    pub fn len(&self) -> usize {
        let mut n = 0usize;
        for s in &self.shards {
            n += s.lock().expect("cache shard poisoned").len();
        }
        n
    }

    /// True when no user is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `user`'s entry if it applies to a request for `row` and `exclude`
    /// against the pinned `snap`: built for this exact row and exclusion
    /// list, against `snap` or an older publish (drift only bounds
    /// forward movement). Whether the entry still holds at `snap` is
    /// [`rank_cached`]'s call, not this one. Clones the entry out, so the
    /// shard lock is held only for the comparisons.
    pub fn lookup(
        &self,
        user: u32,
        row: &[f32],
        exclude: &[u32],
        snap: &ItemSnapshot,
    ) -> Option<Candidates> {
        let shard = self.shards[user as usize % SHARDS]
            .lock()
            .expect("cache shard poisoned");
        let i = shard.binary_search_by_key(&user, |(u, _)| *u).ok()?;
        let entry = &shard[i].1;
        let applies =
            entry.seq_at <= snap.seq && entry.cands.same_row(row) && entry.exclude == exclude;
        applies.then(|| entry.cands.clone())
    }

    /// Install (or refresh) `user`'s entry from a miss resolved against
    /// `snap`: `ranked` is the exact ranked top-`cand_k` list
    /// (exclusions applied; shorter only when it covers every
    /// non-excluded item). Never replaces an entry built against a
    /// newer publish (two workers pinning different snapshots race
    /// benignly: the newer snapshot's entry wins).
    pub fn install(
        &self,
        user: u32,
        row: &[f32],
        exclude: &[u32],
        snap: &ItemSnapshot,
        ranked: &[(u32, f32)],
        cand_k: usize,
    ) {
        let entry = CachedUser {
            cands: Candidates::new(row, ranked, cand_k, snap.drift),
            exclude: exclude.to_vec(),
            seq_at: snap.seq,
        };
        let mut shard = self.shards[user as usize % SHARDS]
            .lock()
            .expect("cache shard poisoned");
        match shard.binary_search_by_key(&user, |(u, _)| *u) {
            Ok(i) => {
                if shard[i].1.seq_at <= snap.seq {
                    shard[i].1 = entry;
                }
            }
            Err(i) => shard.insert(i, (user, entry)),
        }
    }
}
