//! The drift-bound exact top-K cache — one implementation shared by the
//! incremental evaluator ([`crate::IncrementalEvalState`]) and the online
//! serving layer's per-user candidate caches.
//!
//! A cache entry ([`Candidates`]) holds a user's exact ranked top-`c`
//! items (exclusions applied), the *floor* — the sanitized score of the
//! worst of them — and the cumulative item drift when it was built. A
//! [`DriftTracker`] accumulates that drift across successive snapshots
//! of the item matrix `V`.
//!
//! Validity argument: between snapshots only `V` moves (a changed user
//! row fails [`Candidates::same_row`] and is never revalidated). For an
//! entry built at drift `D_s` with floor `f`, any item outside the entry
//! scored `≤ f` then, and its score can have grown by at most
//! `‖u‖ · Σ max_i ‖ΔV_i‖ = ‖u‖ · (D_t − D_s)` since (triangle inequality
//! over the per-snapshot maximum row movements). If the rescored k-th
//! candidate sits *strictly above* `f + ‖u‖(D_t − D_s)` plus the f32
//! rounding slack, no outside item can enter the top-k — not even via
//! the index tie rule, which needs score equality. NaN anywhere in the
//! drift accounting poisons the bound, so degenerate models permanently
//! fall back to exact sweeps: wrong-but-fast is never an outcome.
//!
//! [`rank_cached`] is the one hit-or-sweep step built on that argument:
//! given a block of users and the entries that apply to them, it serves
//! every entry that revalidates and ranks every other user with one
//! pruned sweep. The incremental evaluator calls it per user block, the
//! serving layer per request batch and per inline request, so this module
//! alone decides when a cached ranking may stand in for a sweep.

use crate::scorer::{drift_step, row_norm_f64, top_ranked_block, PrunedItems};
use crate::topk::TopKHeap;
use fedrec_linalg::{vector, Matrix};

/// Margin band: candidates cached beyond the top-10. A wider band
/// survives more drift before the exact fallback fires, at the cost of
/// rescoring more candidates per revalidation.
const CAND_EXTRA: usize = 54;

/// Cached candidates per user (top-10 plus the margin band), used by
/// both the incremental evaluator and the serving caches.
pub const CAND_K: usize = 10 + CAND_EXTRA;

/// Relative slack absorbing f32 dot rounding in the validity bound,
/// applied as `DOT_SLACK · ‖u‖ · max‖V_i‖`. Same reasoning as
/// [`crate::scorer::BOUND_SLACK`]: the f32 kernel's error is `O(k·ε)` of
/// `‖u‖‖v‖`, and `1e-4` dominates it for any realistic latent dimension.
pub const DOT_SLACK: f64 = 1e-4;

/// Cumulative item drift `Σ max_i ‖ΔV_i‖` across observed snapshots of
/// `V`, plus the largest item-row norm ever observed (which scales the
/// rounding slack). Both poison to NaN for good once a snapshot carries
/// a NaN.
#[derive(Debug, Clone, Default)]
pub struct DriftTracker {
    /// `V` as of the previous snapshot (drift is measured step-wise).
    prev: Option<Matrix>,
    drift: f64,
    vmax_seen: f64,
}

impl DriftTracker {
    /// A tracker that has observed nothing yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advance to the snapshot `items`: the first observation starts the
    /// drift at 0, every later one adds its step-wise movement (inflated
    /// per step to absorb its own rounding).
    pub fn observe(&mut self, items: &Matrix) {
        match &mut self.prev {
            None => {
                let (_, vmax) = drift_step(items, items);
                self.vmax_seen = vmax;
                self.drift = 0.0;
                self.prev = Some(items.clone());
            }
            Some(prev) => {
                let (step, vmax) = drift_step(prev, items);
                self.drift += step;
                // max() hides NaN; propagate it so every validity check
                // fails and users fall back to exact sweeps.
                self.vmax_seen = if vmax.is_nan() || self.vmax_seen.is_nan() {
                    f64::NAN
                } else {
                    self.vmax_seen.max(vmax)
                };
                prev.as_mut_slice().copy_from_slice(items.as_slice());
            }
        }
    }

    /// Cumulative drift up to the latest observed snapshot.
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// Largest item-row norm of any observed snapshot.
    pub fn vmax_seen(&self) -> f64 {
        self.vmax_seen
    }
}

/// One user's cached exact ranking, revalidated against later snapshots
/// by the drift bound (see the module docs).
#[derive(Debug, Clone)]
pub struct Candidates {
    /// The user row the ranking was built for; any bitwise change (the
    /// user trained since) invalidates the entry.
    row: Vec<f32>,
    /// `‖row‖` in f64, for the drift bound.
    unorm: f64,
    /// Exact ranked candidate ids at cache time (exclusions applied).
    ids: Vec<u32>,
    /// Sanitized score of the worst cached candidate — every item
    /// outside `ids` scored at or below this at cache time. `-∞` when
    /// `ids` holds *all* non-excluded items (tiny catalogs), making the
    /// entry unconditionally valid.
    floor: f64,
    /// Cumulative drift when the entry was built.
    drift_at: f64,
}

impl Candidates {
    /// Cache `ranked`, the exact ranked top-`cand_k` list of `row`
    /// (exclusions applied), built at cumulative drift `drift_at`. A list
    /// shorter than `cand_k` means the exclusion-filtered catalog fits in
    /// the band, so the entry holds every candidate there is.
    pub fn new(row: &[f32], ranked: &[(u32, f32)], cand_k: usize, drift_at: f64) -> Self {
        let floor = if ranked.len() == cand_k {
            f64::from(ranked[cand_k - 1].1)
        } else {
            f64::NEG_INFINITY
        };
        Self {
            row: row.to_vec(),
            unorm: row_norm_f64(row),
            ids: ranked.iter().map(|&(item, _)| item).collect(),
            floor,
            drift_at,
        }
    }

    /// Whether `row` is bitwise the row this entry was built for (`==`
    /// on f32 would treat NaN rows as always-changed *and* `0.0 == -0.0`
    /// as equal; bit equality is the conservative choice on both).
    #[inline]
    pub fn same_row(&self, row: &[f32]) -> bool {
        self.row.len() == row.len()
            && self
                .row
                .iter()
                .zip(row)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// The cached candidate ids, best first.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Rescore the cached candidates for `row` (which must pass
    /// [`Self::same_row`]) against `items` into `heap`, already reset to
    /// the wanted k, and return whether the drift bound proves the heap
    /// now holds the exact top-k of `items` — `drift` and `vmax_seen`
    /// being the [`DriftTracker`] readings at `items`. Costs one dot per
    /// cached candidate.
    // Inlined: this is the serving cache's per-request hit path.
    #[inline]
    pub fn revalidate(
        &self,
        row: &[f32],
        items: &Matrix,
        drift: f64,
        vmax_seen: f64,
        heap: &mut TopKHeap,
    ) -> bool {
        for &cand in &self.ids {
            heap.push(cand, vector::dot(row, items.row(cand as usize)));
        }
        if self.floor == f64::NEG_INFINITY {
            // The entry holds every non-excluded item: the rescore *is*
            // the exact full ranking, whatever the drift.
            return true;
        }
        if !heap.is_full() {
            // Fewer candidates than k and the band isn't the whole
            // catalog: the entry can't answer this k.
            return false;
        }
        let kth = f64::from(heap.min_score().expect("full heap has a min"));
        let slack = DOT_SLACK * self.unorm * vmax_seen;
        // Strict: an outside item tying the k-th score could still win
        // on a smaller index.
        kth > self.floor + self.unorm * (drift - self.drift_at) + slack
    }
}

/// The exact top-K of a block of users, from their cached candidates
/// where those still hold and from one pruned sweep where they do not.
///
/// `rows` holds `excludes.len()` row-major user vectors of width
/// `items.cols()`, `pruned` is the norm-sorted view of `items`, and
/// `(drift, vmax_seen)` are the [`DriftTracker`] readings at `items`.
/// `cached[j]` is user `j`'s entry if one *applies* (the caller checked
/// it was built for this row and these exclusions); this step only
/// revalidates it. A user whose entry revalidates gets its exact ranked
/// top-`k` in `out[j]`. Every other user is a miss: all misses are ranked
/// together at `cand_k` by one [`top_ranked_block`] call over their
/// packed rows, so `out[j]` holds the band a fresh [`Candidates`] is built
/// from, and its `k`-prefix is the top-`k` (the heap order is total).
///
/// Returns the dots spent and the miss indices, ascending. A hit is
/// charged its rescore (`ids().len()` dots), a miss only its sweep: an
/// entry that fails revalidation is not charged its rescore, which keeps
/// every user's charge within the `m` dots of a full sweep.
#[allow(clippy::too_many_arguments)]
pub fn rank_cached(
    pruned: &PrunedItems,
    items: &Matrix,
    rows: &[f32],
    excludes: &[&[u32]],
    cached: &[Option<&Candidates>],
    (drift, vmax_seen): (f64, f64),
    (k, cand_k): (usize, usize),
    out: &mut [Vec<(u32, f32)>],
) -> (u64, Vec<usize>) {
    let (b, kdim) = (excludes.len(), items.cols());
    assert_eq!(rows.len(), b * kdim, "user block shape mismatch");
    assert_eq!(cached.len(), b, "cache slot count mismatch");
    assert_eq!(out.len(), b, "output slot count mismatch");
    let mut dots = 0u64;
    let mut misses = Vec::new();
    // Built on the first entry only, so a block without one allocates
    // no heap.
    let mut heap: Option<TopKHeap> = None;
    for (j, entry) in cached.iter().enumerate() {
        let row = &rows[j * kdim..(j + 1) * kdim];
        let hit = entry.is_some_and(|c| {
            let heap = heap.get_or_insert_with(|| TopKHeap::new(k));
            heap.reset(k);
            let valid = c.revalidate(row, items, drift, vmax_seen, heap);
            if valid {
                dots += c.ids().len() as u64;
                heap.drain_sorted_into(&mut out[j]);
            }
            valid
        });
        if !hit {
            misses.push(j);
        }
    }
    if misses.len() == b {
        // Nothing hit (a first epoch, an inline miss): rank the block in
        // place, without copying rows or allocating a packed batch.
        dots += top_ranked_block(pruned, rows, excludes, cand_k, out);
    } else if !misses.is_empty() {
        let mut packed = Vec::with_capacity(misses.len() * kdim);
        let mut miss_excludes = Vec::with_capacity(misses.len());
        let mut lists = Vec::with_capacity(misses.len());
        for &j in &misses {
            packed.extend_from_slice(&rows[j * kdim..(j + 1) * kdim]);
            miss_excludes.push(excludes[j]);
            lists.push(std::mem::take(&mut out[j]));
        }
        dots += top_ranked_block(pruned, &packed, &miss_excludes, cand_k, &mut lists);
        for (&j, list) in misses.iter().zip(lists) {
            out[j] = list;
        }
    }
    (dots, misses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_revalidates_only_while_the_drift_bound_holds() {
        let items = Matrix::from_vec(3, 1, vec![3.0, 2.0, 1.0]);
        let row = [1.0f32];
        let ranked = [(0u32, 3.0f32), (1, 2.0)];
        let c = Candidates::new(&row, &ranked, 2, 0.0);
        assert!(c.same_row(&row) && !c.same_row(&[-1.0]));
        assert_eq!(c.ids(), &[0, 1]);
        let mut heap = TopKHeap::new(1);
        assert!(c.revalidate(&row, &items, 0.1, 3.0, &mut heap));
        // Item 2 may have caught up with item 1 under drift 1.5.
        let mut heap = TopKHeap::new(2);
        assert!(!c.revalidate(&row, &items, 1.5, 3.0, &mut heap));
        // NaN drift fails closed.
        let mut heap = TopKHeap::new(1);
        assert!(!c.revalidate(&row, &items, f64::NAN, 3.0, &mut heap));
    }
}
