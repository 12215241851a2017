//! Poisoned-gradient detection heuristics.
//!
//! §V-D of the paper surveys detection in FR and explains why it is hard:
//! honest clients' gradients already "vary widely" (different users,
//! different items, DP noise). These detectors implement the two standard
//! signals anyway, so experiments can quantify exactly how much (or
//! little) they see:
//!
//! * [`NormDetector`] — flags clients whose update norm is an outlier
//!   (z-score over the round);
//! * [`SimilarityDetector`] — flags groups of clients uploading unusually
//!   *similar* updates (coordinated malicious clients pushing the same
//!   target rows look alike; honest clients rarely do).
//!
//! Both implement the round loop's [`Detector`] trait, so either can
//! be attached to a [`DefensePipeline`](fedrec_federated::DefensePipeline)
//! and run *inside* federated training. In-loop, a flagged client's
//! upload is excluded **from that round's aggregation onward** (gated
//! mode), which feeds back into every later round — unlike offline
//! scoring, where the same detector merely grades a captured round of
//! traffic after the fact and training is unaffected. The
//! [`DetectionReport`] type itself lives in `fedrec-federated` (the round
//! loop records one per round) and is re-exported here.

pub use fedrec_federated::defense::{DetectionReport, Detector};
use fedrec_linalg::{stats, PairDots, SparseGrad};

/// Flags clients whose update Frobenius norm is an outlier for the round.
///
/// Only the *high* side is flagged (`z > z_threshold`): poisoning has to
/// inject signal, so attack uploads sit at or above the benign norm range,
/// while unusually *small* norms are ordinary honest users with few
/// interactions (or a quiet round) — flagging them is a guaranteed false
/// positive.
#[derive(Debug, Clone, Copy)]
pub struct NormDetector {
    /// Z-score threshold (e.g. 3.0).
    pub z_threshold: f32,
}

impl NormDetector {
    /// One-sided (high-norm) detector with the given threshold.
    pub fn new(z_threshold: f32) -> Self {
        Self { z_threshold }
    }

    /// Score one round of uploads.
    pub fn inspect(&self, updates: &[SparseGrad]) -> DetectionReport {
        let norms: Vec<f32> = updates
            .iter()
            .map(|u| u.frobenius_norm_sq().sqrt())
            .collect();
        let mean = stats::mean(&norms);
        let sd = stats::std_dev(&norms).max(1e-9);
        let scores: Vec<f32> = norms.iter().map(|n| (n - mean) / sd).collect();
        let flagged = scores
            .iter()
            .enumerate()
            .filter(|(_, &s)| s > self.z_threshold)
            .map(|(i, _)| i)
            .collect();
        DetectionReport { scores, flagged }
    }
}

impl Default for NormDetector {
    fn default() -> Self {
        Self::new(3.0)
    }
}

impl Detector for NormDetector {
    fn inspect(&self, updates: &[SparseGrad]) -> DetectionReport {
        NormDetector::inspect(self, updates)
    }

    fn name(&self) -> &'static str {
        "norm"
    }
}

/// Flags clients whose update is unusually similar to other clients'
/// updates (cosine over the sparse gradients). Coordinated poisoning
/// concentrates on the same target rows; honest updates mostly don't
/// overlap.
#[derive(Debug, Clone, Copy)]
pub struct SimilarityDetector {
    /// Cosine similarity above which a *pair* counts as suspicious.
    pub cosine_threshold: f32,
    /// Minimum number of suspicious pairs before a client is flagged.
    pub min_pairs: usize,
}

impl SimilarityDetector {
    /// Score one round of uploads.
    pub fn inspect(&self, updates: &[SparseGrad]) -> DetectionReport {
        let n = updates.len();
        let norms: Vec<f32> = updates
            .iter()
            .map(|u| u.frobenius_norm_sq().sqrt())
            .collect();
        let mut suspicious_pairs = vec![0usize; n];
        let index = PairDots::new(updates);
        let mut dots = vec![0.0f32; n];
        for i in 0..n {
            if norms[i] == 0.0 {
                continue;
            }
            index.row_into(i, i + 1, &mut dots);
            for j in (i + 1)..n {
                if norms[j] == 0.0 {
                    continue;
                }
                let cos = dots[j] / (norms[i] * norms[j]);
                if cos > self.cosine_threshold {
                    suspicious_pairs[i] += 1;
                    suspicious_pairs[j] += 1;
                }
            }
        }
        let scores: Vec<f32> = suspicious_pairs.iter().map(|&c| c as f32).collect();
        let flagged = suspicious_pairs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= self.min_pairs)
            .map(|(i, _)| i)
            .collect();
        DetectionReport { scores, flagged }
    }
}

impl Detector for SimilarityDetector {
    fn inspect(&self, updates: &[SparseGrad]) -> DetectionReport {
        SimilarityDetector::inspect(self, updates)
    }

    fn name(&self) -> &'static str {
        "similarity"
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

    #[test]
    fn norm_detector_flags_giant_update() {
        let mut updates: Vec<SparseGrad> = (0..10)
            .map(|i| grad(2, &[(i, 1.0 + 0.05 * i as f32)]))
            .collect();
        updates.push(grad(2, &[(0, 500.0)]));
        let rep = NormDetector::new(2.5).inspect(&updates);
        assert_eq!(rep.flagged, vec![10]);
        assert_eq!(rep.recall(&[10]), 1.0);
        assert_eq!(rep.precision(&[10]), 1.0);
    }

    #[test]
    fn norm_detector_passes_homogeneous_round() {
        let updates: Vec<SparseGrad> = (0..8).map(|i| grad(2, &[(i, 1.0)])).collect();
        let rep = NormDetector::new(3.0).inspect(&updates);
        assert!(rep.flagged.is_empty());
    }

    #[test]
    fn norm_detector_misses_clipped_attack() {
        // FedRecAttack-style uploads are clipped to the same C as benign
        // rows: the norm signal vanishes.
        let mut updates: Vec<SparseGrad> = (0..10)
            .map(|i| grad(2, &[(i, 1.0 + 0.05 * i as f32)]))
            .collect();
        updates.push(grad(2, &[(0, 1.02)])); // the "attack"
        let rep = NormDetector::new(2.5).inspect(&updates);
        assert_eq!(rep.recall(&[10]), 0.0, "clipped attack should evade");
    }

    /// Regression test for the one-sidedness fix: a low-interaction honest
    /// client uploads a tiny-but-normal gradient, a >3σ *downward*
    /// outlier. An `.abs()` z-score flagged it as an attacker; the
    /// one-sided detector must not.
    #[test]
    fn norm_detector_spares_low_interaction_honest_client() {
        // Eleven ordinary clients near norm ~1.4, one honest client with a
        // single interaction (norm ~0.014).
        let mut updates: Vec<SparseGrad> = (0..11).map(|i| grad(2, &[(i, 1.0)])).collect();
        updates.push(grad(2, &[(11, 0.01)]));
        let rep = NormDetector::new(3.0).inspect(&updates);
        assert!(
            rep.flagged.is_empty(),
            "low-norm honest client must not be flagged: {:?}",
            rep.flagged
        );
    }

    #[test]
    fn norm_detector_default_is_one_sided() {
        let d = NormDetector::default();
        assert_eq!(d.z_threshold, 3.0);
    }

    /// The pre-index detector loop: one merge walk per upper-triangle pair.
    fn inspect_reference(d: &SimilarityDetector, updates: &[SparseGrad]) -> DetectionReport {
        let n = updates.len();
        let norms: Vec<f32> = updates
            .iter()
            .map(|u| u.frobenius_norm_sq().sqrt())
            .collect();
        let mut suspicious_pairs = vec![0usize; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if norms[i] == 0.0 || norms[j] == 0.0 {
                    continue;
                }
                let cos = updates[i].dot(&updates[j]) / (norms[i] * norms[j]);
                if cos > d.cosine_threshold {
                    suspicious_pairs[i] += 1;
                    suspicious_pairs[j] += 1;
                }
            }
        }
        let scores: Vec<f32> = suspicious_pairs.iter().map(|&c| c as f32).collect();
        let flagged = suspicious_pairs
            .iter()
            .enumerate()
            .filter(|(_, &c)| c >= d.min_pairs)
            .map(|(i, _)| i)
            .collect();
        DetectionReport { scores, flagged }
    }

    /// The index-backed detector equals the pairwise reference on seeded
    /// rounds with shared items, duplicates, scaled copies (cosine 1) and
    /// zero-norm uploads, at thresholds from "every pair" to "near-copies".
    #[test]
    fn similarity_detector_matches_the_pairwise_reference() {
        for seed in 0..40u64 {
            for n in [0usize, 1, 2, 5, 12, 30] {
                for k in [1usize, 3, 16] {
                    let updates = crate::testkit::round(seed, n, k);
                    for cosine_threshold in [-1.0f32, 0.0, 0.5, 0.9, 0.999] {
                        for min_pairs in [1usize, 2, 3] {
                            let d = SimilarityDetector {
                                cosine_threshold,
                                min_pairs,
                            };
                            assert_eq!(
                                d.inspect(&updates),
                                inspect_reference(&d, &updates),
                                "seed {seed} n {n} k {k} threshold {cosine_threshold}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn similarity_detector_flags_coordinated_clients() {
        // Three attackers upload near-identical target-row pushes; five
        // honest clients touch disjoint items.
        let mut updates: Vec<SparseGrad> = (0..5).map(|i| grad(3, &[(10 + i, 1.0)])).collect();
        for _ in 0..3 {
            updates.push(grad(3, &[(0, 2.0)]));
        }
        let rep = SimilarityDetector {
            cosine_threshold: 0.95,
            min_pairs: 2,
        }
        .inspect(&updates);
        assert_eq!(rep.flagged, vec![5, 6, 7]);
        assert_eq!(rep.recall(&[5, 6, 7]), 1.0);
    }

    #[test]
    fn similarity_detector_ignores_disjoint_honest_updates() {
        let updates: Vec<SparseGrad> = (0..6).map(|i| grad(3, &[(i, 1.0)])).collect();
        let rep = SimilarityDetector {
            cosine_threshold: 0.9,
            min_pairs: 1,
        }
        .inspect(&updates);
        assert!(rep.flagged.is_empty());
    }

    #[test]
    fn report_precision_with_false_positives() {
        let rep = DetectionReport {
            scores: vec![0.0; 4],
            flagged: vec![0, 1],
        };
        assert_eq!(rep.precision(&[1]), 0.5);
        assert_eq!(rep.recall(&[1, 2]), 0.5);
    }

    /// Regression test for the empty-set convention fix: with zero
    /// malicious clients there is nothing to miss, so recall is vacuously
    /// perfect (mirroring precision's empty-flagged convention). The old
    /// 0.0 dragged down every `ρ = 0` baseline row of grid averages.
    #[test]
    fn recall_is_vacuously_perfect_without_malicious_clients() {
        let rep = DetectionReport {
            scores: vec![0.0; 4],
            flagged: vec![2],
        };
        assert_eq!(rep.recall(&[]), 1.0);
    }

    /// The sorted-lookup rewrite must not care about input order.
    #[test]
    fn metrics_are_order_insensitive() {
        let rep = DetectionReport {
            scores: vec![0.0; 6],
            flagged: vec![5, 1, 3],
        };
        assert_eq!(rep.precision(&[3, 5, 0]), rep.precision(&[0, 5, 3]));
        assert_eq!(rep.recall(&[5, 0]), 0.5);
        assert_eq!(rep.precision(&[1, 3, 5]), 1.0);
    }

    #[test]
    fn empty_round_is_clean() {
        let rep = NormDetector::new(3.0).inspect(&[]);
        assert!(rep.flagged.is_empty());
        let rep = SimilarityDetector {
            cosine_threshold: 0.9,
            min_pairs: 1,
        }
        .inspect(&[]);
        assert!(rep.flagged.is_empty());
        assert_eq!(rep.precision(&[]), 1.0);
    }

    #[test]
    fn detectors_expose_trait_names() {
        let n: &dyn Detector = &NormDetector::new(3.0);
        let s: &dyn Detector = &SimilarityDetector {
            cosine_threshold: 0.9,
            min_pairs: 2,
        };
        assert_eq!(n.name(), "norm");
        assert_eq!(s.name(), "similarity");
    }
}
