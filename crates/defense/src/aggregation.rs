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
use fedrec_linalg::{stats, PairDots, SparseGrad};

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
    ///
    /// Each upload's squared norm is computed once, and the pair products
    /// come one Gram row at a time from a [`PairDots`] index, so a round
    /// costs one pass over its shared-item row pairs and `O(n + rows)`
    /// memory.
    pub fn select(&self, updates: &[SparseGrad]) -> Option<usize> {
        if updates.is_empty() {
            return None;
        }
        let n = updates.len();
        let keep = n.saturating_sub(self.assumed_byzantine + 2).max(1);
        let norms: Vec<f32> = updates.iter().map(SparseGrad::frobenius_norm_sq).collect();
        let index = PairDots::new(updates);
        let mut dots = vec![0.0f32; n];
        let mut dists: Vec<f32> = Vec::with_capacity(n);
        let by_value = |a: &f32, b: &f32| a.partial_cmp(b).expect("finite distances");
        let mut best: Option<(f32, usize)> = None;
        for i in 0..n {
            index.row_into(i, 0, &mut dots);
            dists.clear();
            dists.extend(
                (0..n)
                    .filter(|&j| j != i)
                    .map(|j| dist_sq(norms[i], norms[j], dots[j])),
            );
            // Only the `keep` smallest distances are summed, in ascending
            // order; equal distances are bitwise equal up to ±0, which
            // cannot change the strict `<` below.
            let kept = keep.min(dists.len());
            if kept < dists.len() {
                dists.select_nth_unstable_by(kept, by_value);
            }
            dists[..kept].sort_unstable_by(by_value);
            let score: f32 = dists[..kept].iter().sum();
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| i)
    }
}

/// Squared Euclidean distance `‖a‖² + ‖b‖² − 2⟨a,b⟩` from the two squared
/// norms and the inner product, clamped at zero against floating error.
fn dist_sq(norm_sq_a: f32, norm_sq_b: f32, dot: f32) -> f32 {
    (norm_sq_a + norm_sq_b - 2.0 * dot).max(0.0)
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

    /// The pre-index Krum loop: `n(n−1)` merge walks with both norms
    /// recomputed per pair, then a full sort of every row.
    fn select_reference(krum: &Krum, updates: &[SparseGrad]) -> Option<usize> {
        if updates.is_empty() {
            return None;
        }
        let n = updates.len();
        let keep = n.saturating_sub(krum.assumed_byzantine + 2).max(1);
        let mut best: Option<(f32, usize)> = None;
        for i in 0..n {
            let mut dists: Vec<f32> = (0..n)
                .filter(|&j| j != i)
                .map(|j| pair_dist_sq(&updates[i], &updates[j]))
                .collect();
            dists.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            let score: f32 = dists.iter().take(keep).sum();
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| i)
    }

    fn pair_dist_sq(a: &SparseGrad, b: &SparseGrad) -> f32 {
        dist_sq(a.frobenius_norm_sq(), b.frobenius_norm_sq(), a.dot(b))
    }

    #[test]
    fn krum_distance_matches_dense_distance() {
        let mut a = SparseGrad::new(2);
        a.push_sorted(0, &[1.0, 0.0]);
        a.push_sorted(2, &[0.0, 2.0]);
        let mut b = SparseGrad::new(2);
        b.push_sorted(0, &[0.0, 1.0]);
        b.push_sorted(5, &[3.0, 0.0]);
        let (da, db) = (a.to_dense(8), b.to_dense(8));
        let dense: f32 = da.iter().zip(&db).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((pair_dist_sq(&a, &b) - dense).abs() < 1e-5);
        assert_eq!(pair_dist_sq(&a, &a), 0.0);
    }

    /// The index-backed selection equals the pairwise reference on seeded
    /// rounds with shared items, duplicates and zero-norm uploads, at every
    /// neighbor count: `keep = 1` (f ≥ n − 3), `1 < keep < n − 2`,
    /// `keep = n − 2` (f = 0, the largest `n − f − 2` allows) and, at
    /// `n = 2`, `keep = n − 1`.
    #[test]
    fn krum_select_matches_the_pairwise_reference() {
        for seed in 0..40u64 {
            for n in [1usize, 2, 3, 5, 12, 30] {
                for k in [1usize, 3, 16] {
                    let updates = crate::testkit::round(seed, n, k);
                    for f in [0, 1, 2, n / 3, n] {
                        let krum = Krum {
                            assumed_byzantine: f,
                        };
                        assert_eq!(
                            krum.select(&updates),
                            select_reference(&krum, &updates),
                            "seed {seed} n {n} k {k} f {f}"
                        );
                    }
                }
            }
        }
    }

    /// Ties: identical uploads (all distances 0) keep the first index, and
    /// zero-norm uploads are ordinary candidates.
    #[test]
    fn krum_select_matches_reference_on_ties_and_zero_norms() {
        let a = grad(3, &[(1, 0.5), (4, -2.0)]);
        let zero_row = grad(3, &[(2, 0.0)]);
        let rounds = [
            vec![a.clone(); 6],
            vec![SparseGrad::new(3); 4],
            vec![zero_row.clone(), SparseGrad::new(3), zero_row.clone()],
            vec![
                SparseGrad::new(3),
                a.clone(),
                zero_row,
                a.clone(),
                grad(3, &[(4, -2.0)]),
                a,
            ],
        ];
        for updates in &rounds {
            for f in 0..updates.len() + 1 {
                let krum = Krum {
                    assumed_byzantine: f,
                };
                assert_eq!(krum.select(updates), select_reference(&krum, updates));
            }
        }
        let identical = Krum {
            assumed_byzantine: 1,
        };
        assert_eq!(identical.select(&rounds[0]), Some(0));
        assert_eq!(identical.select(&rounds[1]), Some(0));
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
