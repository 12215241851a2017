//! Epoch-pinned double-buffered item-matrix snapshots.
//!
//! Training `publish()`es the item matrix once per round; serving threads
//! `current()` an [`Arc`] to the latest [`ItemSnapshot`] and score every
//! request in a batch against that one pinned epoch. The two-slot design
//! is a hand-rolled arc-swap (the workspace builds offline, so no
//! external crate): the publisher always writes the *inactive* slot and
//! only then flips the active index with a release store, so a reader can
//! never observe a torn or partially built snapshot — it either gets the
//! old `Arc` or the new one, whole. Readers take a slot mutex only for
//! the duration of an `Arc` clone (no allocation, no scoring), so
//! serving never blocks on the expensive parts of publishing (matrix
//! clone, norm sort, drift pass), which all happen outside any slot lock.
//!
//! Each snapshot carries the publisher's [`DriftTracker`] readings —
//! `drift` (Σ max item-row movement across publishes) and `vmax_seen`
//! (largest row norm ever published) — which is what lets the per-user
//! candidate caches prove, per request, that a ranking cached at an
//! earlier epoch is still exact (see [`crate::cache`]).

use fedrec_linalg::Matrix;
use fedrec_recsys::candidates::DriftTracker;
use fedrec_recsys::scorer::PrunedItems;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// One published item matrix, pinned to the training epoch it came from.
#[derive(Debug)]
pub struct ItemSnapshot {
    /// Training epoch the matrix was published at (0-based, as tagged on
    /// every response scored against this snapshot).
    pub epoch: u64,
    /// Publish sequence number (strictly increasing; disambiguates
    /// re-publishes of the same epoch).
    pub seq: u64,
    /// Cumulative `Σ max_i ‖ΔV_i‖` across all publishes up to this one.
    pub drift: f64,
    /// Largest item-row norm seen in any publish up to this one.
    pub vmax_seen: f64,
    items: Matrix,
    pruned: PrunedItems,
}

impl ItemSnapshot {
    /// The item matrix exactly as published.
    pub fn items(&self) -> &Matrix {
        &self.items
    }

    /// The norm-sorted pruning view of [`Self::items`].
    pub fn pruned(&self) -> &PrunedItems {
        &self.pruned
    }
}

/// Publisher-side drift bookkeeping, serialized by a single mutex (there
/// is one logical publisher: the training loop between rounds).
#[derive(Debug, Default)]
struct PublishState {
    tracker: DriftTracker,
    seq: u64,
}

/// Two-slot snapshot store: wait-free-in-practice reads, publisher never
/// blocks readers on snapshot construction.
#[derive(Debug, Default)]
pub struct SnapshotStore {
    slots: [Mutex<Option<Arc<ItemSnapshot>>>; 2],
    /// Index of the slot holding the newest snapshot.
    active: AtomicUsize,
    publish: Mutex<PublishState>,
    publishes: AtomicU64,
}

impl SnapshotStore {
    /// An empty store; [`Self::current`] returns `None` until the first
    /// [`Self::publish`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish `items` as the serving snapshot for `epoch`.
    ///
    /// Clones the matrix, rebuilds the pruning order, and advances the
    /// cumulative drift — all outside any reader-visible lock — then
    /// installs the result into the inactive slot and flips. NaNs in the
    /// drift pass poison `drift`/`vmax_seen` for good (the offline
    /// incremental evaluator's [`DriftTracker`]), which silently degrades
    /// every cache check to a miss rather than serving an unprovable
    /// ranking.
    pub fn publish(&self, epoch: u64, items: &Matrix) {
        let snap = {
            let mut st = self.publish.lock().expect("publish state poisoned");
            st.tracker.observe(items);
            st.seq += 1;
            Arc::new(ItemSnapshot {
                epoch,
                seq: st.seq,
                drift: st.tracker.drift(),
                vmax_seen: st.tracker.vmax_seen(),
                items: items.clone(),
                pruned: PrunedItems::build(items),
            })
        };
        let inactive = 1 - self.active.load(Ordering::Acquire);
        *self.slots[inactive].lock().expect("snapshot slot poisoned") = Some(snap);
        // Release: the slot write above happens-before any reader that
        // acquires the new index.
        self.active.store(inactive, Ordering::Release);
        self.publishes.fetch_add(1, Ordering::Relaxed);
    }

    /// The newest published snapshot, or `None` before the first publish.
    ///
    /// Lock held only for the `Arc` clone; per-reader epochs are
    /// monotone (the active index only ever advances to newer snapshots,
    /// and slot contents are only ever replaced by newer ones).
    pub fn current(&self) -> Option<Arc<ItemSnapshot>> {
        let idx = self.active.load(Ordering::Acquire);
        self.slots[idx]
            .lock()
            .expect("snapshot slot poisoned")
            .clone()
    }

    /// Total publishes so far.
    pub fn publish_count(&self) -> u64 {
        self.publishes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(v: f32) -> Matrix {
        Matrix::from_vec(2, 2, vec![v, 0.0, 0.0, v])
    }

    #[test]
    fn empty_store_serves_nothing() {
        let s = SnapshotStore::new();
        assert!(s.current().is_none());
        assert_eq!(s.publish_count(), 0);
    }

    #[test]
    fn publish_flips_and_accumulates_drift() {
        let s = SnapshotStore::new();
        s.publish(0, &mat(1.0));
        let first = s.current().expect("published");
        assert_eq!(first.epoch, 0);
        assert_eq!(first.seq, 1);
        assert_eq!(first.drift, 0.0);
        assert!((first.vmax_seen - 1.0).abs() < 1e-12);

        s.publish(3, &mat(2.0));
        let second = s.current().expect("published");
        assert_eq!(second.epoch, 3);
        assert_eq!(second.seq, 2);
        // Each row moved by 1.0 (with the 1e-9 inflation).
        assert!((second.drift - 1.0).abs() < 1e-6, "drift={}", second.drift);
        assert!((second.vmax_seen - 2.0).abs() < 1e-9);
        assert_eq!(s.publish_count(), 2);
        // The earlier Arc stays intact for readers that pinned it.
        assert_eq!(first.epoch, 0);
        assert!((first.items().row(0)[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nan_publish_poisons_drift() {
        let s = SnapshotStore::new();
        s.publish(0, &mat(1.0));
        s.publish(1, &Matrix::from_vec(2, 2, vec![f32::NAN, 0.0, 0.0, 1.0]));
        let snap = s.current().unwrap();
        assert!(snap.drift.is_nan());
        assert!(snap.vmax_seen.is_nan());
        // Recovery never un-poisons: drift stays NaN for the store's life.
        s.publish(2, &mat(1.0));
        assert!(s.current().unwrap().drift.is_nan());
    }

    #[test]
    fn concurrent_readers_see_whole_snapshots() {
        let s = Arc::new(SnapshotStore::new());
        s.publish(0, &mat(1.0));
        let stop = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = Arc::clone(&s);
                let stop = Arc::clone(&stop);
                scope.spawn(move || {
                    let mut last_epoch = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let snap = s.current().expect("always published");
                        // Snapshot internally consistent: diagonal matrix
                        // of epoch+1.
                        let want = (snap.epoch + 1) as f32;
                        assert_eq!(snap.items().row(0)[0].to_bits(), want.to_bits());
                        assert_eq!(snap.items().row(1)[1].to_bits(), want.to_bits());
                        assert!(snap.epoch >= last_epoch, "epoch went backwards");
                        last_epoch = snap.epoch;
                    }
                });
            }
            for e in 1..200u64 {
                s.publish(e, &mat((e + 1) as f32));
            }
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(s.publish_count(), 200);
    }
}
