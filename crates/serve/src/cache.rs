//! Per-user candidate caches with drift-bound validity — the serving
//! twin of the offline incremental evaluator.
//!
//! A cache miss ranks the user's top-[`CAND_K`] candidates exactly (via
//! the batched pruned scorer) and stores them as a
//! [`Candidates`] entry built at the snapshot's cumulative drift. A later
//! request against a newer snapshot rescores just those candidates (a
//! few dozen dots instead of a full catalog sweep) and serves them iff
//! [`Candidates::revalidate`] proves no outside item can have caught up
//! — the same type, band and bound the offline
//! [`IncrementalEvalState`](fedrec_recsys::IncrementalEvalState) uses, so
//! the hit path inherits the offline evaluator's exactness proof: a hit
//! serves the identical bytes a full sweep of the pinned snapshot would.
//! NaN drift (degenerate training) fails the bound and degrades every
//! lookup to a miss — wrong-but-fast is never an outcome.
//!
//! Entries are sharded `user id % 64` across mutexes; each shard is an
//! id-sorted vec probed by binary search, so lookups take no allocation
//! and the lock is held for microseconds. Invalidation is lazy: publishes
//! touch no cache state, entries simply fail their validity check against
//! the newer snapshot and get replaced on the next miss.

use crate::snapshot::ItemSnapshot;
use fedrec_recsys::candidates::Candidates;
#[cfg(doc)]
use fedrec_recsys::candidates::CAND_K;
use fedrec_recsys::topk::TopKHeap;
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

    /// Try to serve `user`'s exact top-`k` from cache against the pinned
    /// `snap`. On success writes the ranked `(item, sanitized score)`
    /// list into `out` — byte-identical to a full sweep of `snap` — and
    /// returns `true`. Costs at most [`CAND_K`] dots; never allocates
    /// under the shard lock beyond the entry clone-out.
    pub fn try_serve(
        &self,
        user: u32,
        row: &[f32],
        exclude: &[u32],
        snap: &ItemSnapshot,
        k: usize,
        out: &mut Vec<(u32, f32)>,
    ) -> bool {
        let entry = {
            let shard = self.shards[user as usize % SHARDS]
                .lock()
                .expect("cache shard poisoned");
            match shard.binary_search_by_key(&user, |(u, _)| *u) {
                Ok(i) => shard[i].1.clone(),
                Err(_) => return false,
            }
        };
        // A cache built against a newer publish can't serve an older
        // pinned snapshot: drift only bounds forward movement.
        if entry.seq_at > snap.seq || !entry.cands.same_row(row) || entry.exclude != exclude {
            return false;
        }
        let mut heap = TopKHeap::new(k);
        let valid =
            entry
                .cands
                .revalidate(row, snap.items(), snap.drift, snap.vmax_seen, &mut heap);
        if valid {
            heap.drain_sorted_into(out);
        }
        valid
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
