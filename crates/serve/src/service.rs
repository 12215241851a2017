//! The request path: bounded queue, batch coalescing, and the
//! hit/miss serving pipeline.
//!
//! Requests enter through [`Service::submit`] (asynchronous, replies on a
//! per-request channel) or [`Service::serve_inline`] (synchronous, for
//! tests and single-shot queries). Workers coalesce queued requests into
//! blocks of up to [`SERVE_BATCH`] users and pin **one** snapshot for the
//! whole block. Both entry points then look up each user's applicable
//! cache entry and hand the block — one request, inline — to
//! [`rank_cached`], the hit-or-sweep step the incremental evaluator uses:
//! entries that revalidate answer, and the misses are ranked together by
//! one pruned sweep that streams each norm-sorted item tile once for the
//! whole block instead of once per user. Batching is invisible in the
//! output: the block scorer gives each user the bytes of a one-user
//! batch, so a response never depends on which other requests happened
//! to share its batch — the serving determinism contract (fixed snapshot
//! epoch, user, exclusions ⇒ fixed bytes, any thread count, hit or miss)
//! reduces to the offline evaluator's own invariants.

use crate::cache::CandidateCache;
use crate::snapshot::{ItemSnapshot, SnapshotStore};
use fedrec_linalg::Matrix;
use fedrec_recsys::candidates::{rank_cached, Candidates, CAND_K};
use fedrec_recsys::UserRowSource;
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};

/// Users coalesced per scoring batch — matches the blocked kernel's
/// user-block size, so one batch is one kernel-shaped unit of work.
pub const SERVE_BATCH: usize = 64;

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Recommendations returned per request.
    pub k: usize,
    /// Bounded queue capacity; [`Service::submit`] blocks when full
    /// (backpressure instead of unbounded memory).
    pub queue_cap: usize,
    /// Max users coalesced into one scoring batch.
    pub batch: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            k: 10,
            queue_cap: 4096,
            batch: SERVE_BATCH,
        }
    }
}

/// One served response, pinned to the snapshot it was scored against.
#[derive(Debug, Clone, PartialEq)]
pub struct ServedTopK {
    /// The requesting user.
    pub user: u32,
    /// Training epoch of the snapshot the ranking was computed on.
    pub epoch: u64,
    /// Publish sequence of that snapshot (strictly increasing).
    pub seq: u64,
    /// Whether the candidate cache answered without a catalog sweep.
    pub cache_hit: bool,
    /// Ranked `(item, sanitized score)` — byte-identical to an offline
    /// sweep of the same snapshot with the same exclusions.
    pub top: Vec<(u32, f32)>,
}

/// A queued request.
struct Request {
    user: u32,
    exclude: Vec<u32>,
    reply: Sender<ServedTopK>,
}

#[derive(Default)]
struct QueueInner {
    pending: VecDeque<Request>,
    closed: bool,
}

/// The in-process top-K recommendation service.
///
/// Training publishes snapshots; any number of serving threads answer
/// requests against the latest one. See the module docs for the data
/// path.
pub struct Service {
    cfg: ServeConfig,
    store: SnapshotStore,
    cache: CandidateCache,
    queue: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl Service {
    /// A service with no snapshot yet; queued requests wait (and
    /// [`Self::serve_inline`] returns `None`) until the first
    /// [`Self::publish`].
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.k >= 1, "k must be at least 1");
        assert!(cfg.batch >= 1, "batch must be at least 1");
        assert!(cfg.queue_cap >= 1, "queue_cap must be at least 1");
        Self {
            cfg,
            store: SnapshotStore::new(),
            cache: CandidateCache::new(),
            queue: Mutex::new(QueueInner::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Publish `items` as the serving snapshot for `epoch` (called by
    /// the training loop between rounds). Readers currently scoring
    /// against the previous snapshot keep their pinned `Arc`; new
    /// batches pick up this one.
    pub fn publish(&self, epoch: u64, items: &Matrix) {
        self.store.publish(epoch, items);
        // Wake workers that were parked waiting for the first snapshot.
        self.not_empty.notify_all();
    }

    /// The currently served snapshot, if any has been published.
    pub fn snapshot(&self) -> Option<Arc<ItemSnapshot>> {
        self.store.current()
    }

    /// Epoch of the newest publish (staleness reference point).
    pub fn latest_epoch(&self) -> u64 {
        self.store.latest_epoch()
    }

    /// Total snapshot publishes.
    pub fn publish_count(&self) -> u64 {
        self.store.publish_count()
    }

    /// Answer one request synchronously against the current snapshot.
    /// Returns `None` before the first publish. `exclude` must be sorted
    /// ascending.
    pub fn serve_inline(
        &self,
        user: u32,
        exclude: &[u32],
        rows: &dyn UserRowSource,
    ) -> Option<ServedTopK> {
        let snap = self.store.current()?;
        let mut row = vec![0.0f32; snap.items().cols()];
        rows.write_user_row(user as usize, &mut row);
        let entry = self.cache.lookup(user, &row, exclude, &snap);
        let (mut out, mut resp) = ([Vec::new()], None);
        let cached = [entry.as_ref()];
        self.answer(
            &snap,
            &[user],
            &row,
            &[exclude],
            &cached,
            &mut out,
            |_, r| resp = Some(r),
        );
        resp
    }

    /// Enqueue a request; the reply arrives on `reply` once a worker
    /// (or [`Self::drain_now`]) processes it. Blocks while the queue is
    /// at capacity. Returns `false` if the service is closed (the
    /// request is dropped). `exclude` must be sorted ascending.
    pub fn submit(&self, user: u32, exclude: Vec<u32>, reply: Sender<ServedTopK>) -> bool {
        let mut q = self.queue.lock().expect("queue poisoned");
        while !q.closed && q.pending.len() >= self.cfg.queue_cap {
            q = self.not_full.wait(q).expect("queue poisoned");
        }
        if q.closed {
            return false;
        }
        q.pending.push_back(Request {
            user,
            exclude,
            reply,
        });
        drop(q);
        self.not_empty.notify_one();
        true
    }

    /// Number of requests currently queued.
    pub fn queued(&self) -> usize {
        self.queue.lock().expect("queue poisoned").pending.len()
    }

    /// Close the queue: queued requests are still drained by workers,
    /// further [`Self::submit`]s are refused, and worker loops exit once
    /// the queue runs dry.
    pub fn close(&self) {
        self.queue.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Pop up to one batch; blocks until work, the first publish, or
    /// close. `None` means closed-and-drained.
    fn pop_batch(&self) -> Option<Vec<Request>> {
        let mut q = self.queue.lock().expect("queue poisoned");
        loop {
            let starved = q.pending.is_empty() || self.store.publish_count() == 0;
            if !starved {
                let take = q.pending.len().min(self.cfg.batch);
                let batch: Vec<Request> = q.pending.drain(..take).collect();
                drop(q);
                self.not_full.notify_all();
                return Some(batch);
            }
            if q.closed && q.pending.is_empty() {
                return None;
            }
            q = self.not_empty.wait(q).expect("queue poisoned");
        }
    }

    /// Worker loop: batch, serve, reply, until closed and drained.
    /// Run it from as many threads as desired; determinism does not
    /// depend on the count.
    pub fn worker_loop(&self, rows: &dyn UserRowSource) {
        while let Some(batch) = self.pop_batch() {
            self.process_batch(batch, rows);
        }
    }

    /// Spawn `n` background workers. Callers keep the handles and
    /// [`Self::close`] the service to let them finish.
    pub fn start_workers(
        self: &Arc<Self>,
        rows: Arc<dyn UserRowSource + Send + Sync>,
        n: usize,
    ) -> Vec<std::thread::JoinHandle<()>> {
        (0..n)
            .map(|_| {
                let svc = Arc::clone(self);
                let rows = Arc::clone(&rows);
                std::thread::spawn(move || svc.worker_loop(rows.as_ref()))
            })
            .collect()
    }

    /// Drain everything currently queued using `threads` transient
    /// workers (scoped; returns when the backlog is gone). The training
    /// integration calls this from the between-rounds hook, where the
    /// trainer is paused and user rows are stable. Returns the number of
    /// requests served. Requires at least one prior publish.
    pub fn drain_now(&self, rows: &(dyn UserRowSource + Sync), threads: usize) -> usize {
        assert!(
            self.store.publish_count() > 0,
            "drain_now before first publish"
        );
        let backlog: Vec<Request> = {
            let mut q = self.queue.lock().expect("queue poisoned");
            q.pending.drain(..).collect()
        };
        self.not_full.notify_all();
        if backlog.is_empty() {
            return 0;
        }
        let total = backlog.len();
        let batches: Vec<Vec<Request>> = {
            let mut batches = Vec::new();
            let mut it = backlog.into_iter();
            loop {
                let chunk: Vec<Request> = it.by_ref().take(self.cfg.batch).collect();
                if chunk.is_empty() {
                    break;
                }
                batches.push(chunk);
            }
            batches
        };
        let workers = threads.max(1).min(batches.len());
        let work = Mutex::new(batches);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let batch = work.lock().expect("batch list poisoned").pop();
                    let Some(batch) = batch else { return };
                    self.process_batch(batch, rows);
                });
            }
        });
        total
    }

    /// Serve one coalesced batch against a single pinned snapshot.
    fn process_batch(&self, batch: Vec<Request>, rows: &dyn UserRowSource) {
        let Some(snap) = self.store.current() else {
            // Only reachable from drain paths that raced a publish;
            // pop_batch never hands out work before the first publish.
            // Drop the replies: senders disconnect, requesters see it.
            return;
        };
        let kdim = snap.items().cols();
        let b = batch.len();
        let mut urows = vec![0.0f32; b * kdim];
        let mut entries = Vec::with_capacity(b);
        for (j, req) in batch.iter().enumerate() {
            let row = &mut urows[j * kdim..(j + 1) * kdim];
            rows.write_user_row(req.user as usize, row);
            entries.push(self.cache.lookup(req.user, row, &req.exclude, &snap));
        }
        let users: Vec<u32> = batch.iter().map(|req| req.user).collect();
        let excludes: Vec<&[u32]> = batch.iter().map(|req| req.exclude.as_slice()).collect();
        let cached: Vec<Option<&Candidates>> = entries.iter().map(Option::as_ref).collect();
        let mut out = vec![Vec::new(); b];
        self.answer(
            &snap,
            &users,
            &urows,
            &excludes,
            &cached,
            &mut out,
            |j, resp| {
                // A dropped receiver is the requester's business, not ours.
                let _ = batch[j].reply.send(resp);
            },
        );
    }

    /// Rank a block of `users` (their `rows`, `excludes` and applicable
    /// `cached` entries) against the pinned `snap` through
    /// [`rank_cached`] into `out`, install the band of every miss, and
    /// hand each user's `k`-prefix to `reply`. The heap order is total,
    /// so the prefix of a miss's band ranking *is* its top-k.
    #[allow(clippy::too_many_arguments)]
    fn answer(
        &self,
        snap: &ItemSnapshot,
        users: &[u32],
        rows: &[f32],
        excludes: &[&[u32]],
        cached: &[Option<&Candidates>],
        out: &mut [Vec<(u32, f32)>],
        mut reply: impl FnMut(usize, ServedTopK),
    ) {
        let (k, kdim) = (self.cfg.k, snap.items().cols());
        let cand_k = CAND_K.max(k);
        let bounds = (snap.drift, snap.vmax_seen);
        let (pruned, items) = (snap.pruned(), snap.items());
        let (_, misses) = rank_cached(
            pruned,
            items,
            rows,
            excludes,
            cached,
            bounds,
            (k, cand_k),
            out,
        );
        for &j in &misses {
            let row = &rows[j * kdim..(j + 1) * kdim];
            self.cache
                .install(users[j], row, excludes[j], snap, &out[j], cand_k);
        }
        let mut misses = misses.into_iter().peekable();
        for (j, list) in out.iter_mut().enumerate() {
            let cache_hit = misses.next_if_eq(&j).is_none();
            list.truncate(k);
            reply(
                j,
                ServedTopK {
                    user: users[j],
                    epoch: snap.epoch,
                    seq: snap.seq,
                    cache_hit,
                    top: std::mem::take(list),
                },
            );
        }
    }
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("cfg", &self.cfg)
            .field("queued", &self.queued())
            .field("publishes", &self.publish_count())
            .finish_non_exhaustive()
    }
}
