//! Sparse per-row gradients of the item feature matrix.
//!
//! In federated recommendation a client only touches the items it trained
//! on, so the gradient `∇V_i` it uploads has few non-zero rows. The paper's
//! stealth constraint κ ("maximum number of non-zero rows in ∇V_i") and the
//! ℓ2 row bound C act directly on this structure, so we represent uploads
//! as `SparseGrad`: a sorted list of item ids plus one dense `k`-vector per
//! id.

use crate::matrix::Matrix;
use crate::rng::SeededRng;
use crate::vector;

/// A sparse set of item-row gradients: `rows[j]` is the gradient for item
/// `items[j]`. Item ids are kept sorted and unique.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SparseGrad {
    k: usize,
    items: Vec<u32>,
    rows: Vec<f32>, // items.len() * k, row-major
}

impl SparseGrad {
    /// Empty gradient with latent dimension `k`.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            items: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Empty gradient pre-sized for `n` rows.
    pub fn with_capacity(k: usize, n: usize) -> Self {
        Self {
            k,
            items: Vec::with_capacity(n),
            rows: Vec::with_capacity(n * k),
        }
    }

    /// Drop all rows but keep `k` and the allocated capacity, so a pooled
    /// gradient can be refilled round after round without reallocating.
    pub fn clear(&mut self) {
        self.items.clear();
        self.rows.clear();
    }

    /// Build directly from a sorted unique id list and its packed row
    /// buffer (`items.len() * k` entries). This is the zero-copy exit of
    /// the scatter-add aggregation path.
    pub fn from_sorted_rows(k: usize, items: Vec<u32>, rows: Vec<f32>) -> Self {
        assert_eq!(rows.len(), items.len() * k, "from_sorted_rows: bad rows");
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "from_sorted_rows: ids must be sorted and unique"
        );
        Self { k, items, rows }
    }

    /// Append a row for `item`, which must be strictly greater than every
    /// stored id. O(k) — no binary search, no shifting — which is what
    /// makes building a large upload from an already-sorted item list
    /// linear instead of quadratic.
    pub fn push_sorted(&mut self, item: u32, row: &[f32]) {
        assert_eq!(row.len(), self.k, "push_sorted: dimension mismatch");
        assert!(
            self.items.last().is_none_or(|&last| last < item),
            "push_sorted: id {item} not greater than current tail"
        );
        self.items.push(item);
        self.rows.extend_from_slice(row);
    }

    /// Latent dimension.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of non-zero rows (`Σ_j δ(∇v_ij)` in Eq. 9's constraint).
    #[inline]
    pub fn nnz_rows(&self) -> usize {
        self.items.len()
    }

    /// True if no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sorted item ids with stored rows.
    #[inline]
    pub fn items(&self) -> &[u32] {
        &self.items
    }

    /// Row for the `idx`-th stored item (not the item id!).
    #[inline]
    pub fn row(&self, idx: usize) -> &[f32] {
        &self.rows[idx * self.k..(idx + 1) * self.k]
    }

    /// Mutable row for the `idx`-th stored item.
    #[inline]
    pub fn row_mut(&mut self, idx: usize) -> &mut [f32] {
        &mut self.rows[idx * self.k..(idx + 1) * self.k]
    }

    /// Gradient row for item `item`, if stored.
    pub fn get(&self, item: u32) -> Option<&[f32]> {
        self.items
            .binary_search(&item)
            .ok()
            .map(|idx| self.row(idx))
    }

    /// Accumulate `alpha * grad` into the row for `item`, inserting a zero
    /// row first if the item is new. Keeps ids sorted.
    pub fn accumulate(&mut self, item: u32, alpha: f32, grad: &[f32]) {
        assert_eq!(grad.len(), self.k, "accumulate: dimension mismatch");
        let idx = match self.items.binary_search(&item) {
            Ok(idx) => idx,
            Err(pos) => {
                self.items.insert(pos, item);
                let at = pos * self.k;
                self.rows.splice(at..at, std::iter::repeat_n(0.0, self.k));
                pos
            }
        };
        vector::axpy(alpha, grad, self.row_mut(idx));
    }

    /// Iterate `(item_id, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[f32])> {
        self.items
            .iter()
            .copied()
            .zip(self.rows.chunks_exact(self.k))
    }

    /// Sum many sparse gradients in one two-phase scatter-add.
    ///
    /// Phase 1 merges the (sorted) per-update id lists into one sorted
    /// unique id list; phase 2 zero-fills the packed output rows once and
    /// scatter-adds every update row into its slot with a fused
    /// [`vector::axpy`]. Compared with folding [`SparseGrad::add_assign`]
    /// over the updates this does no per-row binary-search-insert and no
    /// `Vec::insert` shifting, and the inner loop is the `k`-wide chunked
    /// axpy the autovectorizer lifts to SIMD.
    ///
    /// Row contributions are added in `updates` order — exactly the order
    /// the sequential fold used — so the result is bit-identical to the
    /// old path and independent of how the updates were computed.
    pub fn sum_all(updates: &[SparseGrad], k: usize) -> SparseGrad {
        let total: usize = updates.iter().map(|u| u.nnz_rows()).sum();
        let mut ids: Vec<u32> = Vec::with_capacity(total);
        for u in updates {
            assert_eq!(u.k, k, "sum_all: dimension mismatch");
            ids.extend_from_slice(u.items());
        }
        ids.sort_unstable();
        ids.dedup();

        let mut rows = vec![0.0f32; ids.len() * k];
        for u in updates {
            // Both id lists are sorted, so one forward cursor per update
            // places every row; partition_point on the remaining suffix
            // keeps each step sub-linear without ever rescanning.
            let mut cursor = 0usize;
            for (item, row) in u.iter() {
                cursor += ids[cursor..].partition_point(|&x| x < item);
                debug_assert_eq!(ids[cursor], item);
                let at = cursor * k;
                vector::axpy(1.0, row, &mut rows[at..at + k]);
                cursor += 1;
            }
        }
        Self::from_sorted_rows(k, ids, rows)
    }

    /// `self ← self + other` (row-wise union).
    pub fn add_assign(&mut self, other: &SparseGrad) {
        assert_eq!(self.k, other.k, "add_assign: dimension mismatch");
        for (item, row) in other.iter() {
            self.accumulate(item, 1.0, row);
        }
    }

    /// `self ← self - other`; Eq. 24 of the paper updates the residual
    /// poisoned gradient by subtracting what a malicious user uploaded.
    pub fn sub_assign(&mut self, other: &SparseGrad) {
        assert_eq!(self.k, other.k, "sub_assign: dimension mismatch");
        for (item, row) in other.iter() {
            self.accumulate(item, -1.0, row);
        }
    }

    /// Scale every stored row by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        vector::scale(alpha, &mut self.rows);
    }

    /// Clip every row to ℓ2 norm at most `max_norm` (Eq. 23 applied
    /// row-wise). Returns how many rows were actually shrunk.
    pub fn clip_rows(&mut self, max_norm: f32) -> usize {
        let mut clipped = 0;
        for idx in 0..self.items.len() {
            if vector::clip_l2(self.row_mut(idx), max_norm) > max_norm {
                clipped += 1;
            }
        }
        clipped
    }

    /// ℓ2 norm of each stored row, in `items()` order.
    pub fn row_norms(&self) -> Vec<f32> {
        (0..self.items.len())
            .map(|i| vector::l2_norm(self.row(i)))
            .collect()
    }

    /// Maximum row norm; `0.0` for an empty gradient.
    pub fn max_row_norm(&self) -> f32 {
        self.row_norms().into_iter().fold(0.0, f32::max)
    }

    /// Add i.i.d. Gaussian noise `N(0, sigma²)` to every stored entry
    /// (Eq. 5's differential-privacy noise with `sigma = µ·C`).
    pub fn add_gaussian_noise(&mut self, sigma: f32, rng: &mut SeededRng) {
        if sigma == 0.0 {
            return;
        }
        for x in self.rows.iter_mut() {
            *x += rng.normal(0.0, sigma);
        }
    }

    /// Apply this gradient to a dense item matrix with step `-lr` (the
    /// server-side SGD update of Eq. 7): `V[item] ← V[item] - lr * row`.
    pub fn apply_to(&self, v: &mut Matrix, lr: f32) {
        assert_eq!(v.cols(), self.k, "apply_to: dimension mismatch");
        for (item, row) in self.iter() {
            v.axpy_row(item as usize, -lr, row);
        }
    }

    /// Dense flat representation (`num_items * k`), used by robust
    /// aggregators that need a fixed coordinate system across clients.
    pub fn to_dense(&self, num_items: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; num_items * self.k];
        for (item, row) in self.iter() {
            let at = item as usize * self.k;
            out[at..at + self.k].copy_from_slice(row);
        }
        out
    }

    /// Build from a dense flat buffer, keeping only rows whose norm exceeds
    /// `eps`.
    pub fn from_dense(dense: &[f32], k: usize, eps: f32) -> Self {
        assert_eq!(dense.len() % k, 0, "from_dense: length not multiple of k");
        let mut g = Self::new(k);
        for (item, row) in dense.chunks_exact(k).enumerate() {
            if vector::l2_norm(row) > eps {
                g.push_sorted(item as u32, row);
            }
        }
        g
    }

    /// Sum of squared entries across all rows.
    pub fn frobenius_norm_sq(&self) -> f32 {
        vector::l2_norm_sq(&self.rows)
    }

    /// Inner product `⟨self, other⟩` treating both as flat sparse vectors
    /// (rows for items absent from either side count as zero).
    ///
    /// This merge walk is the reference definition: [`PairDots`] computes
    /// the same value for many pairs at once, bit for bit.
    pub fn dot(&self, other: &SparseGrad) -> f32 {
        assert_eq!(self.k, other.k, "dot: dimension mismatch");
        let mut acc = 0.0f32;
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.items.len() && j < other.items.len() {
            match self.items[i].cmp(&other.items[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += vector::dot(self.row(i), other.row(j));
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }
}

/// Pairwise inner products of one round of uploads, read one row of the
/// Gram matrix at a time through an inverted item index (Gustavson's
/// row-by-row sparse product, ACM TOMS 1978).
///
/// The index holds one `(upload, row)` posting per stored upload row,
/// grouped by item and ordered by upload within an item. Row `i` from
/// column `from` walks upload `i`'s rows in ascending item order and, for
/// each, adds `vector::dot(row_i, row_j)` into `out[j]` for every upload
/// `j >= from` in that item's posting list. Each `out[j]` thus receives
/// exactly the additions [`SparseGrad::dot`]'s merge walk makes for
/// `updates[i].dot(&updates[j])`, in the same order and with the same
/// argument order, so the two agree bit for bit — no symmetry of the
/// kernel is assumed.
///
/// The work per row is the number of shared-item row pairs, not `n`
/// merge walks, and memory is `O(n + uploaded rows)`: no `n × n` matrix
/// is ever held.
#[derive(Debug)]
pub struct PairDots<'a> {
    updates: &'a [SparseGrad],
    /// `(upload, row)` postings, sorted by item and then upload.
    postings: Vec<(u32, u32)>,
    /// Posting range of each upload row's item, uploads in order and each
    /// upload's rows in ascending item order.
    spans: Vec<(u32, u32)>,
    /// Where each upload's rows start in `spans`; `n + 1` entries.
    starts: Vec<usize>,
}

impl<'a> PairDots<'a> {
    /// Index one round of uploads (all with the same `k`).
    pub fn new(updates: &'a [SparseGrad]) -> Self {
        let mut starts = Vec::with_capacity(updates.len() + 1);
        let rows = updates.iter().map(SparseGrad::nnz_rows).sum();
        let mut keyed: Vec<(u32, u32, u32)> = Vec::with_capacity(rows);
        starts.push(0);
        for (u, g) in updates.iter().enumerate() {
            assert_eq!(g.k, updates[0].k, "PairDots: dimension mismatch");
            let u = u32::try_from(u).expect("PairDots: too many uploads");
            keyed.extend(g.items.iter().zip(0u32..).map(|(&item, r)| (item, u, r)));
            starts.push(keyed.len());
        }
        assert!(
            u32::try_from(keyed.len()).is_ok(),
            "PairDots: too many upload rows"
        );
        keyed.sort_unstable();
        let mut spans = vec![(0u32, 0u32); keyed.len()];
        let mut lo = 0usize;
        while lo < keyed.len() {
            let item = keyed[lo].0;
            let hi = lo + keyed[lo..].partition_point(|p| p.0 == item);
            for &(_, u, r) in &keyed[lo..hi] {
                spans[starts[u as usize] + r as usize] = (lo as u32, hi as u32);
            }
            lo = hi;
        }
        let postings = keyed.into_iter().map(|(_, u, r)| (u, r)).collect();
        Self {
            updates,
            postings,
            spans,
            starts,
        }
    }

    /// Fill `out` (length `n`) with row `i` of the Gram matrix from
    /// column `from` on: `out[j] = updates[i].dot(&updates[j])` bit for
    /// bit for every `j >= from`, and `out[j] = 0.0` below `from`.
    pub fn row_into(&self, i: usize, from: usize, out: &mut [f32]) {
        assert_eq!(out.len(), self.updates.len(), "row_into: bad out length");
        out.fill(0.0);
        let a = &self.updates[i];
        let spans = &self.spans[self.starts[i]..self.starts[i + 1]];
        for (r, &(lo, hi)) in spans.iter().enumerate() {
            let list = &self.postings[lo as usize..hi as usize];
            let first = list.partition_point(|&(u, _)| (u as usize) < from);
            let row_i = a.row(r);
            for &(j, rj) in &list[first..] {
                out[j as usize] += vector::dot(row_i, self.updates[j as usize].row(rj as usize));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad_of(pairs: &[(u32, [f32; 2])]) -> SparseGrad {
        let mut g = SparseGrad::new(2);
        for (item, row) in pairs {
            g.accumulate(*item, 1.0, row);
        }
        g
    }

    #[test]
    fn sum_all_matches_sequential_fold() {
        let updates = vec![
            grad_of(&[(1, [1.0, 2.0]), (5, [3.0, 4.0])]),
            grad_of(&[(0, [0.5, 0.5]), (5, [1.0, -1.0])]),
            grad_of(&[(7, [9.0, 9.0])]),
            SparseGrad::new(2),
        ];
        let scatter = SparseGrad::sum_all(&updates, 2);
        let mut fold = SparseGrad::new(2);
        for u in &updates {
            fold.add_assign(u);
        }
        assert_eq!(scatter, fold);
        assert_eq!(scatter.items(), &[0, 1, 5, 7]);
        assert_eq!(scatter.get(5).unwrap(), &[4.0, 3.0]);
    }

    #[test]
    fn sum_all_of_nothing_is_empty() {
        assert!(SparseGrad::sum_all(&[], 4).is_empty());
    }

    #[test]
    fn sorted_builders_match_accumulate() {
        let rows: Vec<(u32, [f32; 2])> = vec![(2, [1.0, 2.0]), (4, [3.0, 4.0]), (9, [5.0, 6.0])];
        let mut batch = SparseGrad::new(2);
        for (i, r) in &rows {
            batch.push_sorted(*i, r);
        }
        let mut inc = SparseGrad::new(2);
        for (i, r) in &rows {
            inc.accumulate(*i, 1.0, r);
        }
        assert_eq!(batch, inc);
    }

    #[test]
    #[should_panic(expected = "push_sorted")]
    fn push_sorted_rejects_out_of_order_ids() {
        let mut g = SparseGrad::new(2);
        g.push_sorted(5, &[1.0, 1.0]);
        g.push_sorted(5, &[2.0, 2.0]);
    }

    #[test]
    fn clear_keeps_dimension_and_capacity() {
        let mut g = grad_of(&[(0, [1.0, 2.0]), (3, [3.0, 4.0])]);
        g.clear();
        assert!(g.is_empty());
        assert_eq!(g.k(), 2);
        g.accumulate(1, 1.0, &[7.0, 8.0]);
        assert_eq!(g.get(1).unwrap(), &[7.0, 8.0]);
    }

    #[test]
    fn accumulate_inserts_sorted_and_sums() {
        let mut g = SparseGrad::new(2);
        g.accumulate(5, 1.0, &[1.0, 0.0]);
        g.accumulate(2, 1.0, &[0.0, 1.0]);
        g.accumulate(5, 2.0, &[1.0, 1.0]);
        assert_eq!(g.items(), &[2, 5]);
        assert_eq!(g.get(2).unwrap(), &[0.0, 1.0]);
        assert_eq!(g.get(5).unwrap(), &[3.0, 2.0]);
        assert_eq!(g.get(7), None);
        assert_eq!(g.nnz_rows(), 2);
    }

    #[test]
    fn add_and_sub_roundtrip() {
        let a = grad_of(&[(1, [1.0, 2.0]), (3, [3.0, 4.0])]);
        let b = grad_of(&[(3, [1.0, 1.0]), (9, [5.0, 5.0])]);
        let mut c = a.clone();
        c.add_assign(&b);
        assert_eq!(c.get(3).unwrap(), &[4.0, 5.0]);
        assert_eq!(c.get(9).unwrap(), &[5.0, 5.0]);
        c.sub_assign(&b);
        assert_eq!(c.get(1).unwrap(), a.get(1).unwrap());
        assert_eq!(c.get(3).unwrap(), &[3.0, 4.0]);
        assert_eq!(c.get(9).unwrap(), &[0.0, 0.0]);
    }

    #[test]
    fn clip_rows_bounds_all_norms() {
        let mut g = grad_of(&[(0, [3.0, 4.0]), (1, [0.1, 0.0])]);
        let clipped = g.clip_rows(1.0);
        assert_eq!(clipped, 1);
        assert!(g.max_row_norm() <= 1.0 + 1e-5);
        assert_eq!(g.get(1).unwrap(), &[0.1, 0.0], "short rows untouched");
    }

    #[test]
    fn apply_to_is_sgd_step() {
        let mut v = Matrix::zeros(4, 2);
        let g = grad_of(&[(1, [1.0, -2.0])]);
        g.apply_to(&mut v, 0.5);
        assert_eq!(v.row(1), &[-0.5, 1.0]);
        assert_eq!(v.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn dense_roundtrip() {
        let g = grad_of(&[(0, [1.0, 2.0]), (3, [0.0, 5.0])]);
        let d = g.to_dense(4);
        assert_eq!(d.len(), 8);
        assert_eq!(&d[0..2], &[1.0, 2.0]);
        assert_eq!(&d[6..8], &[0.0, 5.0]);
        let g2 = SparseGrad::from_dense(&d, 2, 1e-9);
        assert_eq!(g, g2);
    }

    #[test]
    fn noise_changes_entries_with_positive_sigma_only() {
        let mut rng = SeededRng::new(3);
        let mut g = grad_of(&[(0, [1.0, 1.0])]);
        let before = g.clone();
        g.add_gaussian_noise(0.0, &mut rng);
        assert_eq!(g, before);
        g.add_gaussian_noise(0.5, &mut rng);
        assert_ne!(g, before);
    }

    #[test]
    fn scale_affects_all_rows() {
        let mut g = grad_of(&[(0, [1.0, 2.0]), (4, [3.0, 4.0])]);
        g.scale(2.0);
        assert_eq!(g.get(0).unwrap(), &[2.0, 4.0]);
        assert_eq!(g.get(4).unwrap(), &[6.0, 8.0]);
    }

    #[test]
    fn frobenius_matches_dense() {
        let g = grad_of(&[(0, [3.0, 0.0]), (1, [0.0, 4.0])]);
        assert!((g.frobenius_norm_sq() - 25.0).abs() < 1e-6);
    }

    #[test]
    fn sparse_dot_only_counts_shared_items() {
        let a = grad_of(&[(0, [1.0, 2.0]), (3, [1.0, 0.0])]);
        let b = grad_of(&[(3, [2.0, 5.0]), (7, [9.0, 9.0])]);
        assert!((a.dot(&b) - 2.0).abs() < 1e-6);
        assert!((a.dot(&a) - a.frobenius_norm_sq()).abs() < 1e-5);
    }
}
