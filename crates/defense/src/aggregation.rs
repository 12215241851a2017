//! Byzantine-robust aggregation rules.
//!
//! All implement [`Aggregator`] and are drop-in replacements for the plain
//! sum of Eq. 7. To stay comparable with sum semantics (the server's
//! update is `V ← V − η·agg`), robust *averages* are rescaled by the
//! number of contributing clients.
//!
//! The recommendation-specific subtlety: client gradients are sparse and
//! touch disjoint item sets, so coordinate-wise statistics are computed
//! over the clients that actually touched an item (an all-clients
//! convention would zero out every item seen by a minority, destroying
//! benign learning — the "FL defenses do not fit FR perfectly" point of
//! §VI).

use fedrec_federated::server::Aggregator;
use fedrec_linalg::{stats, SparseGrad};

/// Krum (Blanchard et al.): pick the single update closest (in summed
/// squared distance) to its `n − f − 2` nearest neighbors and use it as
/// the round's update, scaled by `n` to match sum semantics.
#[derive(Debug, Clone, Copy)]
pub struct Krum {
    /// Number of byzantine clients the rule should tolerate (`f`).
    pub assumed_byzantine: usize,
}

impl Krum {
    /// Index of the Krum-selected update (exposed for tests/detection).
    pub fn select(&self, updates: &[SparseGrad]) -> Option<usize> {
        if updates.is_empty() {
            return None;
        }
        let n = updates.len();
        let keep = n.saturating_sub(self.assumed_byzantine + 2).max(1);
        let mut best: Option<(f32, usize)> = None;
        for i in 0..n {
            let mut dists: Vec<f32> = (0..n)
                .filter(|&j| j != i)
                .map(|j| updates[i].dist_sq(&updates[j]))
                .collect();
            dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            let score: f32 = dists.iter().take(keep).sum();
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| i)
    }
}

impl Aggregator for Krum {
    fn aggregate(&self, updates: &[SparseGrad], _num_items: usize, k: usize) -> SparseGrad {
        match self.select(updates) {
            Some(i) => {
                let mut out = updates[i].clone();
                out.scale(updates.len() as f32);
                out
            }
            None => SparseGrad::new(k),
        }
    }

    fn name(&self) -> &'static str {
        "krum"
    }
}

/// Coordinate-wise trimmed mean over the clients touching each item,
/// rescaled by the toucher count.
#[derive(Debug, Clone, Copy)]
pub struct TrimmedMean {
    /// Fraction trimmed from *each* tail (e.g. 0.1 drops the 10 % largest
    /// and 10 % smallest values per coordinate).
    pub trim_fraction: f64,
}

/// Coordinate-wise median over the clients touching each item, rescaled
/// by the toucher count.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoordinateMedian;

/// Group each item's rows across updates: `(item, rows, count)`.
fn rows_by_item(updates: &[SparseGrad], k: usize) -> Vec<(u32, Vec<&[f32]>)> {
    let mut map: std::collections::BTreeMap<u32, Vec<&[f32]>> = std::collections::BTreeMap::new();
    for u in updates {
        debug_assert_eq!(u.k(), k);
        for (item, row) in u.iter() {
            map.entry(item).or_default().push(row);
        }
    }
    map.into_iter().collect()
}

impl Aggregator for TrimmedMean {
    fn aggregate(&self, updates: &[SparseGrad], _num_items: usize, k: usize) -> SparseGrad {
        assert!((0.0..0.5).contains(&self.trim_fraction));
        let mut out = SparseGrad::new(k);
        let mut buf = vec![0.0f32; k];
        for (item, rows) in rows_by_item(updates, k) {
            let n = rows.len();
            let trim = ((n as f64) * self.trim_fraction).floor() as usize;
            let trim = trim.min((n - 1) / 2);
            for (d, slot) in buf.iter_mut().enumerate() {
                let vals: Vec<f32> = rows.iter().map(|r| r[d]).collect();
                *slot = stats::trimmed_mean(&vals, trim) * n as f32;
            }
            out.push_sorted(item, &buf);
        }
        out
    }

    fn name(&self) -> &'static str {
        "trimmed-mean"
    }
}

impl Aggregator for CoordinateMedian {
    fn aggregate(&self, updates: &[SparseGrad], _num_items: usize, k: usize) -> SparseGrad {
        let mut out = SparseGrad::new(k);
        let mut buf = vec![0.0f32; k];
        for (item, rows) in rows_by_item(updates, k) {
            let n = rows.len();
            for (d, slot) in buf.iter_mut().enumerate() {
                let vals: Vec<f32> = rows.iter().map(|r| r[d]).collect();
                *slot = stats::median(&vals) * n as f32;
            }
            out.push_sorted(item, &buf);
        }
        out
    }

    fn name(&self) -> &'static str {
        "median"
    }
}

/// Norm filtering: drop whole client updates whose Frobenius norm exceeds
/// `factor ×` the median norm of the round, then sum the survivors.
#[derive(Debug, Clone, Copy)]
pub struct NormBound {
    /// Multiplier over the round's median update norm.
    pub factor: f32,
}

impl Aggregator for NormBound {
    fn aggregate(&self, updates: &[SparseGrad], _num_items: usize, k: usize) -> SparseGrad {
        assert!(self.factor > 0.0);
        let norms: Vec<f32> = updates
            .iter()
            .map(|u| u.frobenius_norm_sq().sqrt())
            .collect();
        let med = stats::median(&norms);
        let cutoff = if med > 0.0 {
            med * self.factor
        } else {
            f32::MAX
        };
        let mut out = SparseGrad::new(k);
        for (u, &n) in updates.iter().zip(norms.iter()) {
            if n <= cutoff {
                out.add_assign(u);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "norm-bound"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grad(k: usize, rows: &[(u32, f32)]) -> SparseGrad {
        let mut g = SparseGrad::new(k);
        for &(item, v) in rows {
            g.accumulate(item, 1.0, &vec![v; k]);
        }
        g
    }

    /// Five honest updates near 1.0 on item 0, one byzantine at 100.
    fn honest_plus_outlier() -> Vec<SparseGrad> {
        let mut v: Vec<SparseGrad> = (0..5)
            .map(|i| grad(2, &[(0, 1.0 + 0.01 * i as f32)]))
            .collect();
        v.push(grad(2, &[(0, 100.0)]));
        v
    }

    #[test]
    fn krum_selects_an_honest_update() {
        let updates = honest_plus_outlier();
        let krum = Krum {
            assumed_byzantine: 1,
        };
        let idx = krum.select(&updates).unwrap();
        assert!(idx < 5, "krum picked the byzantine update");
        let agg = krum.aggregate(&updates, 4, 2);
        // Scaled by n=6; honest value ~1.0.
        let got = agg.get(0).unwrap()[0];
        assert!((5.8..6.4).contains(&got), "got {got}");
    }

    /// With `n <= f + 2` the neighbor count clamps to 1 instead of
    /// underflowing; Krum degrades to nearest-neighbor selection but must
    /// stay well-defined and deterministic.
    #[test]
    fn krum_tiny_population_clamps_neighbor_count() {
        let updates = vec![
            grad(2, &[(0, 1.0)]),
            grad(2, &[(0, 1.1)]),
            grad(2, &[(0, 50.0)]),
        ];
        let krum = Krum {
            assumed_byzantine: 2, // n = 3 <= f + 2 = 4
        };
        let idx = krum.select(&updates).unwrap();
        assert!(idx < 2, "nearest-neighbor fallback picked the outlier");
        let agg = krum.aggregate(&updates, 4, 2);
        assert!(agg.get(0).unwrap().iter().all(|x| x.is_finite()));
        // Scaled by n = 3, honest value ~1.0.
        assert!((2.8..3.5).contains(&agg.get(0).unwrap()[0]));
    }

    #[test]
    fn krum_two_updates_selects_deterministically() {
        // n = 2: each update's only neighbor is the other, so both score
        // identically; the strict `<` comparison must keep the first.
        let updates = vec![grad(2, &[(0, 1.0)]), grad(2, &[(0, 2.0)])];
        let krum = Krum {
            assumed_byzantine: 3,
        };
        assert_eq!(krum.select(&updates), Some(0));
    }

    /// All-identical updates score identically everywhere; selection must
    /// break the tie to the first index every time (no ordering
    /// nondeterminism).
    #[test]
    fn krum_identical_updates_tie_break_is_first_index() {
        let updates = vec![grad(2, &[(3, 1.5)]); 5];
        let krum = Krum {
            assumed_byzantine: 1,
        };
        for _ in 0..10 {
            assert_eq!(krum.select(&updates), Some(0));
        }
        let agg = krum.aggregate(&updates, 4, 2);
        // One identical update scaled by n = 5 == the sum of all five.
        assert!((agg.get(3).unwrap()[0] - 7.5).abs() < 1e-5);
    }

    #[test]
    fn krum_handles_empty_and_single() {
        let krum = Krum {
            assumed_byzantine: 0,
        };
        assert!(krum.select(&[]).is_none());
        let one = vec![grad(2, &[(0, 3.0)])];
        assert_eq!(krum.select(&one), Some(0));
    }

    #[test]
    fn median_suppresses_minority_outlier() {
        let updates = honest_plus_outlier();
        let agg = CoordinateMedian.aggregate(&updates, 4, 2);
        let got = agg.get(0).unwrap()[0];
        // Median of {1.0..1.04, 100} is ~1.015, times 6 touchers.
        assert!((5.9..6.5).contains(&got), "got {got}");
    }

    #[test]
    fn median_cannot_defend_items_where_attackers_are_majority() {
        // The FR weakness: 2 attackers vs 1 honest toucher on item 7.
        let updates = vec![
            grad(2, &[(7, 50.0)]),
            grad(2, &[(7, 50.0)]),
            grad(2, &[(7, 0.1)]),
        ];
        let agg = CoordinateMedian.aggregate(&updates, 8, 2);
        let got = agg.get(7).unwrap()[0];
        assert!(
            got > 100.0,
            "attacker majority should win the median: {got}"
        );
    }

    #[test]
    fn trimmed_mean_drops_tails() {
        let updates = honest_plus_outlier();
        let tm = TrimmedMean { trim_fraction: 0.2 };
        let agg = tm.aggregate(&updates, 4, 2);
        let got = agg.get(0).unwrap()[0];
        assert!((5.8..6.6).contains(&got), "got {got}");
    }

    #[test]
    fn trimmed_mean_with_zero_trim_is_sum() {
        let updates = vec![grad(2, &[(0, 1.0)]), grad(2, &[(0, 3.0)])];
        let tm = TrimmedMean { trim_fraction: 0.0 };
        let agg = tm.aggregate(&updates, 4, 2);
        assert!((agg.get(0).unwrap()[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn norm_bound_filters_oversized_clients() {
        let updates = honest_plus_outlier();
        let nb = NormBound { factor: 3.0 };
        let agg = nb.aggregate(&updates, 4, 2);
        let got = agg.get(0).unwrap()[0];
        // Sum of the five honest updates only.
        assert!((5.0..5.2).contains(&got), "got {got}");
    }

    #[test]
    fn norm_bound_keeps_everything_when_homogeneous() {
        let updates = vec![grad(2, &[(0, 1.0)]); 4];
        let nb = NormBound { factor: 1.5 };
        let agg = nb.aggregate(&updates, 4, 2);
        assert!((agg.get(0).unwrap()[0] - 4.0).abs() < 1e-5);
    }

    #[test]
    fn aggregators_handle_disjoint_items() {
        let updates = vec![grad(2, &[(1, 2.0)]), grad(2, &[(3, 4.0)])];
        for agg in [
            CoordinateMedian.aggregate(&updates, 8, 2),
            TrimmedMean { trim_fraction: 0.1 }.aggregate(&updates, 8, 2),
        ] {
            // Single toucher per item: robust stat over one value = value.
            assert!((agg.get(1).unwrap()[0] - 2.0).abs() < 1e-5);
            assert!((agg.get(3).unwrap()[0] - 4.0).abs() < 1e-5);
        }
    }
}
