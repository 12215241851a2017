//! The central server: aggregation and the shared-parameter update.
//!
//! Eq. 7 of the paper: `V ← V - η Σ_{u_i ∈ U'} ∇V_i`. The summation is the
//! [`SumAggregator`]; byzantine-robust alternatives (Krum, trimmed mean,
//! median — the future-work defenses of §VI) implement the same
//! [`Aggregator`] trait in the `fedrec-defense` crate.

use fedrec_linalg::{Matrix, SparseGrad};

/// Combines one round's client uploads into a single gradient the server
/// applies to `V`.
pub trait Aggregator: Send {
    /// Aggregate `updates` (one per participating client, possibly empty
    /// gradients). `num_items` is `m`, `k` the latent dimension.
    fn aggregate(&self, updates: &[SparseGrad], num_items: usize, k: usize) -> SparseGrad;

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

/// Plain federated summation (Eq. 7). This is what the paper's target
/// system runs, and what FedRecAttack exploits.
#[derive(Debug, Clone, Copy, Default)]
pub struct SumAggregator;

impl Aggregator for SumAggregator {
    fn aggregate(&self, updates: &[SparseGrad], _num_items: usize, k: usize) -> SparseGrad {
        // Two-phase scatter-add: merge the sorted id lists once, then
        // fused axpy per row — same result, no per-row insert shifting.
        SparseGrad::sum_all(updates, k)
    }

    fn name(&self) -> &'static str {
        "sum"
    }
}

/// The server-side shared state: the item matrix `V` plus the update rule.
///
/// `V` has no mutable accessor: [`Server::apply`] is its only write
/// channel, so no attack or defense path can change it out of band.
#[derive(Debug)]
pub struct Server {
    items: Matrix,
    lr: f32,
}

impl Server {
    /// New server with initialized item factors.
    pub fn new(items: Matrix, lr: f32) -> Self {
        assert!(lr > 0.0);
        Self { items, lr }
    }

    /// The current shared item matrix `V^t` (what gets "sent" to clients).
    pub fn items(&self) -> &Matrix {
        &self.items
    }

    /// Apply one aggregated round: `V ← V - η · aggregate`.
    pub fn apply(&mut self, aggregate: &SparseGrad) {
        aggregate.apply_to(&mut self.items, self.lr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad(k: usize, item: u32, val: f32) -> SparseGrad {
        let mut g = SparseGrad::new(k);
        g.accumulate(item, 1.0, &vec![val; k]);
        g
    }

    #[test]
    fn sum_aggregator_adds_overlapping_rows() {
        let a = grad(2, 1, 1.0);
        let b = grad(2, 1, 2.0);
        let c = grad(2, 3, 5.0);
        let agg = SumAggregator.aggregate(&[a, b, c], 4, 2);
        assert_eq!(agg.get(1).unwrap(), &[3.0, 3.0]);
        assert_eq!(agg.get(3).unwrap(), &[5.0, 5.0]);
    }

    #[test]
    fn sum_of_nothing_is_empty() {
        let agg = SumAggregator.aggregate(&[], 4, 2);
        assert!(agg.is_empty());
    }

    #[test]
    fn server_applies_descent_step() {
        let mut server = Server::new(Matrix::zeros(4, 2), 0.5);
        server.apply(&grad(2, 2, 1.0));
        assert_eq!(server.items().row(2), &[-0.5, -0.5]);
        assert_eq!(server.items().row(0), &[0.0, 0.0]);
    }

    #[test]
    fn repeated_apply_accumulates() {
        let mut server = Server::new(Matrix::zeros(4, 2), 1.0);
        let g = grad(2, 0, 1.0);
        server.apply(&g);
        server.apply(&g);
        assert_eq!(server.items().row(0), &[-2.0, -2.0]);
    }
}
