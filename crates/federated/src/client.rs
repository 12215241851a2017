//! Benign user clients.
//!
//! A [`BenignClient`] owns exactly what the paper says a client owns: its
//! interaction set `V_i⁺` and its private feature vector `u_i`. Per local
//! round it samples fresh negatives (Eq. 4), computes BPR gradients against
//! the received `V`, clips and noises the item gradient (Eq. 5), uploads
//! it, and steps its own `u_i` (Eq. 6).

use fedrec_linalg::{vector, Matrix, SeededRng, SparseGrad};
use fedrec_recsys::bpr;

/// What a client sends back to the server for one round.
#[derive(Debug, Clone)]
pub struct ClientUpdate {
    /// Sparse item-feature gradient `∇V_i` (after clipping and noise).
    pub item_grads: SparseGrad,
    /// The client's local BPR loss this round (used only for the Fig. 3
    /// loss curves; a real deployment would not upload it).
    pub loss: f32,
}

/// Reusable per-worker buffers for the round loop.
///
/// One `RoundScratch` lives on each worker thread of the simulation's
/// round engine; every client the worker processes borrows it, so a
/// steady-state epoch performs no heap allocation in the client hot path
/// (pair list, BPR gradient buffers — the uploaded gradient itself comes
/// from the simulation's update pool).
#[derive(Debug, Clone, Default)]
pub struct RoundScratch {
    /// Sampled `(positive, negative)` training pairs (Eq. 4 workspace).
    pairs: Vec<(u32, u32)>,
    /// BPR gradient buffers (`∇u_i` accumulator, `v_j − v_k` difference).
    bpr: bpr::GradScratch,
}

impl RoundScratch {
    /// Fresh scratch; buffers grow to steady-state size on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The pooled pair buffer, for model implementations that drive the
    /// local step themselves (e.g. the NCF `ClientModel`): sample into it
    /// with [`BenignClient::sample_pairs_into`], then feed it to the
    /// model's gradient routine.
    pub fn pairs_mut(&mut self) -> &mut Vec<(u32, u32)> {
        &mut self.pairs
    }
}

/// A benign federated client.
#[derive(Debug, Clone)]
pub struct BenignClient {
    user_id: usize,
    /// Sorted positive items `V_i⁺`.
    positives: Vec<u32>,
    /// Private feature vector `u_i`.
    user_vec: Vec<f32>,
    /// Client-owned RNG stream (negative sampling + DP noise).
    rng: SeededRng,
    num_items: usize,
}

impl BenignClient {
    /// Create a client for `user_id` with positive set `positives`
    /// (sorted) over an item universe of `num_items`, with its private
    /// vector initialized `N(0, 0.1²)`.
    pub fn new(
        user_id: usize,
        positives: Vec<u32>,
        num_items: usize,
        k: usize,
        rng: &mut SeededRng,
    ) -> Self {
        debug_assert!(positives.windows(2).all(|w| w[0] < w[1]));
        let mut own_rng = rng.fork(user_id as u64);
        let user_vec = (0..k).map(|_| own_rng.normal(0.0, 0.1)).collect();
        Self {
            user_id,
            positives,
            user_vec,
            rng: own_rng,
            num_items,
        }
    }

    /// The user id this client belongs to.
    pub fn user_id(&self) -> usize {
        self.user_id
    }

    /// The private feature vector `u_i` (evaluation assembles the global
    /// `U` from these; the server never sees them).
    pub fn user_vec(&self) -> &[f32] {
        &self.user_vec
    }

    /// Number of positive interactions `|V_i⁺|`.
    pub fn degree(&self) -> usize {
        self.positives.len()
    }

    /// The sorted positive set `V_i⁺`.
    pub fn positives(&self) -> &[u32] {
        &self.positives
    }

    /// Whether this client has anything to train on: at least one
    /// positive and at least one available negative.
    pub fn can_train(&self) -> bool {
        !self.positives.is_empty() && self.positives.len() < self.num_items
    }

    /// Sample one `(positive, negative)` pair per positive (Eq. 4) into
    /// `pairs`, drawing from the client's own RNG stream — the public
    /// entry model implementations use to share MF's negative-sampling
    /// draws (and therefore its byte-level RNG discipline).
    pub fn sample_pairs_into(&mut self, pairs: &mut Vec<(u32, u32)>) {
        self.sample_pairs(pairs);
    }

    /// Apply the private update `u_i ← u_i − lr · grad` (Eq. 6).
    pub fn apply_user_step(&mut self, lr: f32, grad: &[f32]) {
        vector::axpy(-lr, grad, &mut self.user_vec);
    }

    /// The client-owned RNG stream. Model implementations draw DP noise
    /// from here — never from shared state — so rounds stay bit-identical
    /// for any thread count.
    pub fn rng_mut(&mut self) -> &mut SeededRng {
        &mut self.rng
    }

    /// The client's full mutable state for checkpointing: its private
    /// vector plus the full RNG state (including the Box–Muller spare —
    /// DP noise draws Gaussians, so a checkpoint can land mid-pair).
    /// Positives are *not* part of the snapshot: they are re-derived from
    /// the interaction source on restore.
    pub fn checkpoint_state(&self) -> (&[f32], ([u64; 4], Option<f64>)) {
        (&self.user_vec, self.rng.full_state())
    }

    /// Overwrite the client's mutable state from a checkpoint. The client
    /// must already exist with its positives (rebuilt through the normal
    /// constructor path so lazy-store materialization replays
    /// identically).
    pub fn restore_state(&mut self, user_vec: &[f32], rng_state: ([u64; 4], Option<f64>)) {
        assert_eq!(
            user_vec.len(),
            self.user_vec.len(),
            "checkpoint user vector dimension mismatch for user {}",
            self.user_id
        );
        self.user_vec.copy_from_slice(user_vec);
        self.rng = SeededRng::from_full_state(rng_state.0, rng_state.1);
    }

    /// Run one local round against the received item matrix.
    ///
    /// `clip_norm` is `C`, `noise_scale` is `µ` (noise std is `µ·C` per
    /// Eq. 5). Returns `None` for users with no interactions or no
    /// available negatives — they have nothing to train on.
    ///
    /// Convenience wrapper over [`BenignClient::local_round_into`] that
    /// allocates fresh buffers per call; the simulation's round engine
    /// uses the pooled variant instead.
    pub fn local_round(
        &mut self,
        items: &Matrix,
        lr: f32,
        clip_norm: f32,
        noise_scale: f32,
    ) -> Option<ClientUpdate> {
        let mut scratch = RoundScratch::new();
        let mut out = SparseGrad::new(items.cols());
        let loss =
            self.local_round_into(items, lr, clip_norm, noise_scale, &mut scratch, &mut out)?;
        Some(ClientUpdate {
            item_grads: out,
            loss,
        })
    }

    /// Allocation-free core of [`BenignClient::local_round`]: computes
    /// into `scratch`, writes the clipped-and-noised upload into `out`
    /// (cleared first) and returns the local loss.
    #[allow(clippy::too_many_arguments)]
    pub fn local_round_into(
        &mut self,
        items: &Matrix,
        lr: f32,
        clip_norm: f32,
        noise_scale: f32,
        scratch: &mut RoundScratch,
        out: &mut SparseGrad,
    ) -> Option<f32> {
        if self.positives.is_empty() || self.positives.len() >= self.num_items {
            return None;
        }
        self.sample_pairs(&mut scratch.pairs);
        let loss = bpr::user_round_grads_into(
            &self.user_vec,
            items,
            &scratch.pairs,
            &mut scratch.bpr,
            out,
        );
        // Local private update of u_i (Eq. 6) happens with the *raw*
        // gradient; clipping/noise only protect what leaves the device.
        vector::axpy(-lr, &scratch.bpr.grad_user, &mut self.user_vec);
        out.clip_rows(clip_norm);
        out.add_gaussian_noise(noise_scale * clip_norm, &mut self.rng);
        Some(loss)
    }

    /// Sample one negative per positive (the `V_i` of Eq. 4) into `pairs`.
    ///
    /// Sparse users (at most half the catalog interacted) keep the classic
    /// rejection loop — its expected retry count is below 2, and keeping
    /// its draw sequence unchanged means the dense-user fast path below
    /// alters no sparse user's stream. Dense users would degrade toward
    /// `O(num_items)` retries per draw, so beyond the half-way point each
    /// negative is drawn with a *single* uniform index into the sorted
    /// complement of the positive set, mapped through a binary search.
    fn sample_pairs(&mut self, pairs: &mut Vec<(u32, u32)>) {
        pairs.clear();
        pairs.reserve(self.positives.len());
        let complement = self.num_items - self.positives.len();
        if self.positives.len() > self.num_items / 2 {
            for &p in &self.positives {
                let r = self.rng.below(complement);
                let v = complement_select(&self.positives, r);
                pairs.push((p, v));
            }
        } else {
            for &p in &self.positives {
                loop {
                    let v = self.rng.below(self.num_items) as u32;
                    if self.positives.binary_search(&v).is_err() {
                        pairs.push((p, v));
                        break;
                    }
                }
            }
        }
    }
}

/// The `r`-th (0-based) item id *not* present in the sorted `positives`.
///
/// The answer `v` satisfies `v = r + |{q ∈ positives : q ≤ v}|`; the count
/// is found by binary-searching the invariant `positives[idx] − idx ≤ r`,
/// which is monotone in `idx`.
fn complement_select(positives: &[u32], r: usize) -> u32 {
    let (mut lo, mut hi) = (0usize, positives.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if positives[mid] as usize - mid <= r {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    (r + lo) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn items(k: usize, m: usize) -> Matrix {
        let mut rng = SeededRng::new(99);
        Matrix::random_normal(m, k, 0.0, 0.1, &mut rng)
    }

    fn client(positives: Vec<u32>) -> BenignClient {
        let mut rng = SeededRng::new(1);
        BenignClient::new(0, positives, 20, 4, &mut rng)
    }

    #[test]
    fn round_touches_positives_and_some_negatives() {
        let v = items(4, 20);
        let mut c = client(vec![2, 5, 9]);
        let up = c.local_round(&v, 0.01, 1.0, 0.0).unwrap();
        for &p in &[2u32, 5, 9] {
            assert!(up.item_grads.get(p).is_some(), "positive {p} missing");
        }
        // 3 positives + up to 3 distinct negatives.
        assert!(up.item_grads.nnz_rows() > 3);
        assert!(up.item_grads.nnz_rows() <= 6);
    }

    #[test]
    fn empty_client_skips_round() {
        let v = items(4, 20);
        let mut c = client(vec![]);
        assert!(c.local_round(&v, 0.01, 1.0, 0.0).is_none());
    }

    #[test]
    fn saturated_client_skips_round() {
        let v = items(4, 3);
        let mut rng = SeededRng::new(1);
        let mut c = BenignClient::new(0, vec![0, 1, 2], 3, 4, &mut rng);
        assert!(c.local_round(&v, 0.01, 1.0, 0.0).is_none());
    }

    #[test]
    fn private_vector_moves_each_round() {
        let v = items(4, 20);
        let mut c = client(vec![2, 5]);
        let before = c.user_vec().to_vec();
        c.local_round(&v, 0.1, 1.0, 0.0);
        assert_ne!(before, c.user_vec());
    }

    #[test]
    fn uploaded_rows_respect_clip_bound() {
        let v = items(4, 20);
        // A large user vector produces large raw gradients.
        let mut rng = SeededRng::new(1);
        let mut c = BenignClient::new(0, vec![1, 2, 3], 20, 4, &mut rng);
        for x in c.user_vec.iter_mut() {
            *x = 10.0;
        }
        let up = c.local_round(&v, 0.01, 0.5, 0.0).unwrap();
        assert!(up.item_grads.max_row_norm() <= 0.5 + 1e-4);
    }

    #[test]
    fn noise_perturbs_uploads() {
        let v = items(4, 20);
        let run = |noise: f32| {
            let mut rng = SeededRng::new(7);
            let mut c = BenignClient::new(3, vec![1, 4], 20, 4, &mut rng);
            c.local_round(&v, 0.01, 1.0, noise).unwrap()
        };
        let clean = run(0.0);
        let noisy = run(0.3);
        assert_ne!(
            clean.item_grads.get(1).unwrap(),
            noisy.item_grads.get(1).unwrap()
        );
    }

    #[test]
    fn complement_select_enumerates_absent_items() {
        let positives = [2u32, 5, 6, 9];
        let absent: Vec<u32> = (0..12u32).filter(|v| !positives.contains(v)).collect();
        for (r, &want) in absent.iter().enumerate() {
            assert_eq!(complement_select(&positives, r), want);
        }
        assert_eq!(complement_select(&[], 4), 4);
        assert_eq!(complement_select(&[0, 1, 2], 0), 3);
    }

    #[test]
    fn dense_client_negatives_come_from_the_complement() {
        // 15 of 16 items are positives → the dense path runs and the only
        // legal negative is item 15, which must therefore carry gradient.
        let v = items(4, 16);
        let mut rng = SeededRng::new(3);
        let mut c = BenignClient::new(0, (0..15u32).collect(), 16, 4, &mut rng);
        let up = c.local_round(&v, 0.01, 10.0, 0.0).unwrap();
        assert_eq!(up.item_grads.nnz_rows(), 16);
        assert!(up.item_grads.get(15).is_some());
    }

    #[test]
    fn dense_clients_are_deterministic_per_seed() {
        let v = items(4, 20);
        let mk = || {
            let mut rng = SeededRng::new(5);
            BenignClient::new(2, (0..15u32).collect(), 20, 4, &mut rng)
        };
        let (mut a, mut b) = (mk(), mk());
        let ua = a.local_round(&v, 0.01, 1.0, 0.1).unwrap();
        let ub = b.local_round(&v, 0.01, 1.0, 0.1).unwrap();
        assert_eq!(ua.item_grads, ub.item_grads);
    }

    #[test]
    fn pooled_round_matches_allocating_round() {
        let v = items(4, 20);
        let mk = || {
            let mut rng = SeededRng::new(9);
            BenignClient::new(1, vec![2, 5, 9], 20, 4, &mut rng)
        };
        let (mut a, mut b) = (mk(), mk());
        let mut scratch = RoundScratch::new();
        let mut out = SparseGrad::new(4);
        // The same scratch and output slot serve consecutive rounds; state
        // must not leak between calls.
        for _ in 0..3 {
            let up = a.local_round(&v, 0.05, 1.0, 0.1).unwrap();
            let loss = b
                .local_round_into(&v, 0.05, 1.0, 0.1, &mut scratch, &mut out)
                .unwrap();
            assert_eq!(up.item_grads, out);
            assert_eq!(up.loss, loss);
        }
    }

    #[test]
    fn clients_are_deterministic_per_seed() {
        let v = items(4, 20);
        let mk = || {
            let mut rng = SeededRng::new(5);
            BenignClient::new(2, vec![0, 7], 20, 4, &mut rng)
        };
        let mut a = mk();
        let mut b = mk();
        let ua = a.local_round(&v, 0.01, 1.0, 0.1).unwrap();
        let ub = b.local_round(&v, 0.01, 1.0, 0.1).unwrap();
        assert_eq!(ua.item_grads, ub.item_grads);
        assert_eq!(ua.loss, ub.loss);
    }

    #[test]
    fn distinct_clients_have_distinct_streams() {
        let mut rng = SeededRng::new(5);
        let a = BenignClient::new(0, vec![1], 10, 4, &mut rng);
        let b = BenignClient::new(1, vec![1], 10, 4, &mut rng);
        assert_ne!(a.user_vec(), b.user_vec());
    }
}
