//! The shared MLP parameters `Θ`.
//!
//! `Θ = {W₁ ∈ ℝ^{H×2k}, b₁ ∈ ℝ^H, w₂ ∈ ℝ^H, b₂ ∈ ℝ}` for the one-hidden-
//! layer interaction function of [`crate::model`]. The federated protocol
//! treats `Θ` exactly like `V`: clients upload `∇Θ_i` (noised per Eq. 5),
//! the server applies `Θ ← Θ − η Σ ∇Θ_i` (Eq. 7). All of that is plain
//! vector algebra over the flattened parameters, which this type owns.

use fedrec_linalg::{vector, SeededRng};

/// The MLP parameters, stored flat: `[W₁ | b₁ | w₂ | b₂]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Theta {
    data: Vec<f32>,
    /// Hidden width `H`.
    pub hidden: usize,
    /// Latent dimension `k` (input is `[u; v]`, width `2k`).
    pub k: usize,
}

impl Theta {
    /// Number of parameters for the given shape.
    pub fn len_for(hidden: usize, k: usize) -> usize {
        hidden * 2 * k + hidden + hidden + 1
    }

    /// Zero-initialized Θ (used for gradients).
    pub fn zeros(hidden: usize, k: usize) -> Self {
        Self {
            data: vec![0.0; Self::len_for(hidden, k)],
            hidden,
            k,
        }
    }

    /// Rebuild a `Θ` from its flat parameter vector (the inverse of
    /// [`Theta::as_slice`]) — the bridge between the federated round
    /// loop's model-agnostic flat shared block and the structured MLP
    /// view the NCF gradients need.
    pub fn from_flat(hidden: usize, k: usize, data: &[f32]) -> Self {
        assert_eq!(
            data.len(),
            Self::len_for(hidden, k),
            "flat theta length mismatch for hidden={hidden}, k={k}"
        );
        Self {
            data: data.to_vec(),
            hidden,
            k,
        }
    }

    /// [`Theta::from_flat`] for a block whose hidden width is not known
    /// to the caller: [`Theta::len_for`] is `H·(2k+2) + 1`, so `H`
    /// follows from the block's length and `k` (the item matrix's width).
    pub fn from_shared(k: usize, data: &[f32]) -> Self {
        let hidden = data.len().saturating_sub(1) / (2 * k + 2);
        Self::from_flat(hidden, k, data)
    }

    /// He-style random init for the weights, zero biases, except `w₂`
    /// which starts small-positive so initial scores are near zero but
    /// gradients flow.
    pub fn init(hidden: usize, k: usize, rng: &mut SeededRng) -> Self {
        let mut t = Self::zeros(hidden, k);
        let w1_std = (2.0 / (2 * k) as f32).sqrt();
        for i in 0..hidden * 2 * k {
            t.data[i] = rng.normal(0.0, w1_std);
        }
        let (w2_at, _) = t.w2_range();
        let w2_std = (2.0 / hidden as f32).sqrt();
        for i in 0..hidden {
            t.data[w2_at + i] = rng.normal(0.0, w2_std);
        }
        t
    }

    fn b1_range(&self) -> (usize, usize) {
        let at = self.hidden * 2 * self.k;
        (at, at + self.hidden)
    }

    fn w2_range(&self) -> (usize, usize) {
        let (_, b1_end) = self.b1_range();
        (b1_end, b1_end + self.hidden)
    }

    /// Row `h` of `W₁` (length `2k`).
    #[inline]
    pub fn w1_row(&self, h: usize) -> &[f32] {
        &self.data[h * 2 * self.k..(h + 1) * 2 * self.k]
    }

    /// Mutable row `h` of `W₁`.
    #[inline]
    pub fn w1_row_mut(&mut self, h: usize) -> &mut [f32] {
        &mut self.data[h * 2 * self.k..(h + 1) * 2 * self.k]
    }

    /// Bias vector `b₁`.
    #[inline]
    pub fn b1(&self) -> &[f32] {
        let (a, b) = self.b1_range();
        &self.data[a..b]
    }

    /// Mutable `b₁`.
    #[inline]
    pub fn b1_mut(&mut self) -> &mut [f32] {
        let (a, b) = self.b1_range();
        &mut self.data[a..b]
    }

    /// Output weights `w₂`.
    #[inline]
    pub fn w2(&self) -> &[f32] {
        let (a, b) = self.w2_range();
        &self.data[a..b]
    }

    /// Mutable `w₂`.
    #[inline]
    pub fn w2_mut(&mut self) -> &mut [f32] {
        let (a, b) = self.w2_range();
        &mut self.data[a..b]
    }

    /// Output bias `b₂`.
    #[inline]
    pub fn b2(&self) -> f32 {
        *self.data.last().expect("non-empty")
    }

    /// Mutable `b₂`.
    #[inline]
    pub fn b2_mut(&mut self) -> &mut f32 {
        self.data.last_mut().expect("non-empty")
    }

    /// Flat view (for norms/serialization).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to one flat parameter (finite-difference probes).
    pub fn param_mut(&mut self, idx: usize) -> &mut f32 {
        &mut self.data[idx]
    }

    /// `self ← self + alpha · other` (the SGD update with `alpha = -η`).
    pub fn axpy(&mut self, alpha: f32, other: &Theta) {
        assert_eq!(self.data.len(), other.data.len(), "theta shape mismatch");
        vector::axpy(alpha, &other.data, &mut self.data);
    }

    /// Scale all parameters.
    pub fn scale(&mut self, alpha: f32) {
        vector::scale(alpha, &mut self.data);
    }

    /// Clip the whole gradient to ℓ2 norm `max_norm` (Eq. 5's `C` applied
    /// to `∇Θ`); returns the pre-clip norm.
    pub fn clip(&mut self, max_norm: f32) -> f32 {
        vector::clip_l2(&mut self.data, max_norm)
    }

    /// Add `N(0, σ²)` noise to every parameter (Eq. 5 for `∇Θ`).
    pub fn add_gaussian_noise(&mut self, sigma: f32, rng: &mut SeededRng) {
        if sigma == 0.0 {
            return;
        }
        for x in self.data.iter_mut() {
            *x += rng.normal(0.0, sigma);
        }
    }

    /// ℓ2 norm of the flattened parameters.
    pub fn norm(&self) -> f32 {
        vector::l2_norm(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_contiguous_and_sized() {
        let t = Theta::zeros(4, 3);
        assert_eq!(t.as_slice().len(), Theta::len_for(4, 3));
        assert_eq!(Theta::len_for(4, 3), 4 * 6 + 4 + 4 + 1);
        assert_eq!(t.w1_row(3).len(), 6);
        assert_eq!(t.b1().len(), 4);
        assert_eq!(t.w2().len(), 4);
        assert_eq!(t.b2(), 0.0);
    }

    #[test]
    fn sections_do_not_alias() {
        let mut t = Theta::zeros(2, 2);
        t.w1_row_mut(0)[0] = 1.0;
        t.b1_mut()[1] = 2.0;
        t.w2_mut()[0] = 3.0;
        *t.b2_mut() = 4.0;
        assert_eq!(t.w1_row(0)[0], 1.0);
        assert_eq!(t.b1(), &[0.0, 2.0]);
        assert_eq!(t.w2(), &[3.0, 0.0]);
        assert_eq!(t.b2(), 4.0);
        // Each write landed in exactly one slot.
        let nonzero = t.as_slice().iter().filter(|&&x| x != 0.0).count();
        assert_eq!(nonzero, 4);
    }

    #[test]
    fn init_is_seeded_and_nontrivial() {
        let a = Theta::init(4, 3, &mut SeededRng::new(1));
        let b = Theta::init(4, 3, &mut SeededRng::new(1));
        let c = Theta::init(4, 3, &mut SeededRng::new(2));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.norm() > 0.0);
        assert_eq!(a.b1(), &[0.0; 4], "biases start at zero");
    }

    #[test]
    fn from_flat_round_trips() {
        let t = Theta::init(4, 3, &mut SeededRng::new(5));
        let back = Theta::from_flat(4, 3, t.as_slice());
        assert_eq!(t, back);
    }

    #[test]
    #[should_panic(expected = "flat theta length mismatch")]
    fn from_flat_rejects_wrong_length() {
        let _ = Theta::from_flat(4, 3, &[0.0; 7]);
    }

    #[test]
    fn from_shared_infers_the_hidden_width() {
        for (hidden, k) in [(1, 1), (4, 3), (16, 8)] {
            let t = Theta::init(hidden, k, &mut SeededRng::new(6));
            assert_eq!(Theta::from_shared(k, t.as_slice()), t);
        }
        let truncated = Theta::zeros(4, 3).as_slice()[1..].to_vec();
        let caught = std::panic::catch_unwind(|| Theta::from_shared(3, &truncated));
        assert!(caught.is_err(), "a length no hidden width fits is rejected");
    }

    #[test]
    fn axpy_and_clip() {
        let mut t = Theta::zeros(2, 1);
        let mut g = Theta::zeros(2, 1);
        g.w2_mut()[0] = 3.0;
        g.w2_mut()[1] = 4.0;
        t.axpy(-0.5, &g);
        assert_eq!(t.w2(), &[-1.5, -2.0]);
        let pre = g.clip(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((g.norm() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn noise_is_seed_deterministic() {
        let mut a = Theta::zeros(2, 2);
        let mut b = Theta::zeros(2, 2);
        a.add_gaussian_noise(0.1, &mut SeededRng::new(9));
        b.add_gaussian_noise(0.1, &mut SeededRng::new(9));
        assert_eq!(a, b);
        let before = a.clone();
        a.add_gaussian_noise(0.0, &mut SeededRng::new(10));
        assert_eq!(a, before, "zero sigma is a no-op");
    }
}
