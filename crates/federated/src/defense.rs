//! The in-loop defense pipeline: detect → exclude → aggregate.
//!
//! §V-D/§VI of the paper ask how much standard FL defenses see of
//! FedRecAttack. Answering that end-to-end needs defenses *inside* the
//! round loop, not just as offline scoring over a captured round of
//! uploads: a detector that fires in round `t` changes which uploads the
//! aggregator sees, which changes `V^{t+1}`, which changes every
//! subsequent round. [`DefensePipeline`] is that stage. Each round the
//! simulation hands it the full upload set (benign uploads first, in
//! client-id order, then the adversary's); the pipeline
//!
//! 1. runs the attached [`Detector`] (if any) over all uploads,
//! 2. optionally drops the flagged uploads (*gated* mode — monitor-only
//!    mode records the report but aggregates everything), and
//! 3. hands the survivors to the [`Aggregator`].
//!
//! Because the simulation knows which upload slots are malicious, it can
//! score the detector's per-round precision/recall against ground truth
//! and record a [`RoundDefense`] into the
//! [`TrainingHistory`](crate::history::TrainingHistory) — the raw
//! material for detector-trajectory plots next to ER@K/HR@K. Ground
//! truth is used for *measurement only*; the defense itself never sees
//! it.
//!
//! Detection runs over uploads in client-id order (the order is fixed by
//! the round engine regardless of thread count), so a defended run is as
//! bit-reproducible as an undefended one.
//!
//! The concrete detectors (norm outlier, cosine similarity) live in the
//! `fedrec-defense` crate, which depends on this one; the trait lives
//! here so the round loop needs no knowledge of specific heuristics.

use crate::history::RoundDefense;
use crate::server::Aggregator;
use fedrec_linalg::SparseGrad;

/// Per-round detection outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionReport {
    /// Per-client anomaly score (higher = more suspicious).
    pub scores: Vec<f32>,
    /// Indices flagged by the detector's threshold.
    pub flagged: Vec<usize>,
}

impl DetectionReport {
    /// Fraction of the given (ground-truth malicious) indices that were
    /// flagged — the detector's recall. Vacuously `1.0` when there are no
    /// malicious clients (nothing to catch, nothing was missed), so the
    /// `ρ = 0` baseline rows of a scenario grid do not drag averages
    /// down.
    ///
    /// ```
    /// use fedrec_federated::defense::DetectionReport;
    ///
    /// let report = DetectionReport {
    ///     scores: vec![0.1, 0.9, 0.2, 0.8],
    ///     flagged: vec![1, 3],
    /// };
    /// // Caught one of the two malicious uploads.
    /// assert_eq!(report.recall(&[1, 2]), 0.5);
    /// // No malicious uploads this round (a rho = 0 cell): vacuously 1.0,
    /// // NOT 0.0 — nothing was there to miss.
    /// assert_eq!(report.recall(&[]), 1.0);
    /// ```
    pub fn recall(&self, malicious: &[usize]) -> f64 {
        if malicious.is_empty() {
            return 1.0;
        }
        let flagged = sorted(&self.flagged);
        let hit = malicious
            .iter()
            .filter(|m| flagged.binary_search(m).is_ok())
            .count();
        hit as f64 / malicious.len() as f64
    }

    /// Fraction of flagged clients that are actually malicious — the
    /// detector's precision. Vacuously `1.0` when nothing is flagged.
    pub fn precision(&self, malicious: &[usize]) -> f64 {
        if self.flagged.is_empty() {
            return 1.0;
        }
        let malicious = sorted(malicious);
        let hit = self
            .flagged
            .iter()
            .filter(|f| malicious.binary_search(f).is_ok())
            .count();
        hit as f64 / self.flagged.len() as f64
    }
}

fn sorted(ids: &[usize]) -> Vec<usize> {
    let mut s = ids.to_vec();
    s.sort_unstable();
    s
}

/// Scores one round of uploads and flags the suspicious ones.
///
/// Implementations must be deterministic functions of the upload slice:
/// the round engine presents uploads in client-id order independent of
/// the thread count, and defended runs promise bit-identical results.
/// Flagged indices refer to positions in `updates`; the pipeline ignores
/// out-of-range indices and counts duplicates once.
pub trait Detector: Send {
    /// Score `updates` and decide which indices to flag.
    fn inspect(&self, updates: &[SparseGrad]) -> DetectionReport;

    /// Short name for reports ("norm", "similarity", ...).
    fn name(&self) -> &'static str;
}

/// The defense stage of the round loop: an optional [`Detector`], an
/// exclusion policy, and an [`Aggregator`].
pub struct DefensePipeline {
    detector: Option<Box<dyn Detector>>,
    exclude_flagged: bool,
    aggregator: Box<dyn Aggregator>,
}

impl DefensePipeline {
    /// No detection at all: uploads go straight to `aggregator`. This is
    /// what [`Simulation::new`](crate::Simulation::new) runs (with plain
    /// summation), and it records no [`RoundDefense`] history.
    pub fn plain(aggregator: Box<dyn Aggregator>) -> Self {
        Self {
            detector: None,
            exclude_flagged: false,
            aggregator,
        }
    }

    /// Monitor-only: run `detector` every round and record its report,
    /// but aggregate *all* uploads. Training is bit-identical to an
    /// undefended run; only the history gains detection trajectories.
    pub fn monitored(detector: Box<dyn Detector>, aggregator: Box<dyn Aggregator>) -> Self {
        Self {
            detector: Some(detector),
            exclude_flagged: false,
            aggregator,
        }
    }

    /// Detector-gated: flagged uploads are dropped before aggregation
    /// (the in-loop exclusion semantics; false positives cost benign
    /// signal, which is exactly the trade-off the grid measures).
    pub fn gated(detector: Box<dyn Detector>, aggregator: Box<dyn Aggregator>) -> Self {
        Self {
            detector: Some(detector),
            exclude_flagged: true,
            aggregator,
        }
    }

    /// Name of the attached detector, if any.
    pub fn detector_name(&self) -> Option<&'static str> {
        self.detector.as_deref().map(Detector::name)
    }

    /// Whether flagged uploads are excluded from aggregation.
    pub fn excludes(&self) -> bool {
        self.exclude_flagged
    }

    /// Run one round's uploads through the pipeline, for model families
    /// with a flat shared-parameter block: `shared[i]` is upload `i`'s
    /// `∇Θ` (empty = none; MF rounds pass all-empty slots and get back an
    /// empty shared aggregate, making this path byte-invisible to them).
    ///
    /// `uploads[malicious_from..]` are the adversary's uploads (ground
    /// truth known to the *simulation*, used only to score the detector —
    /// never by the defense logic itself). May reorder `uploads` when
    /// excluding; the round engine rewrites its pool every round, so the
    /// caller does not care. Exclusion swaps are mirrored onto `shared` so
    /// survivor pairing is preserved, and the survivors' shared gradients
    /// are summed **in upload order** (the plain Eq. 7 rule). Returns the
    /// `∇V` aggregate, the shared aggregate and, when a detector is
    /// attached, the round's defense record.
    ///
    /// Design note: the robust aggregation rules (Krum, trimmed mean, …)
    /// apply to `∇V` only. They reduce the upload set internally without
    /// exposing which uploads survived, so their selection cannot be
    /// mirrored onto `Θ`; the shared block instead gets the plain sum
    /// over the *detector-admitted* set — the same set every aggregator
    /// sees.
    pub fn process_paired(
        &self,
        uploads: &mut [SparseGrad],
        shared: &mut [Vec<f32>],
        malicious_from: usize,
        epoch: usize,
        num_items: usize,
        k: usize,
    ) -> (SparseGrad, Vec<f32>, Option<RoundDefense>) {
        assert_eq!(uploads.len(), shared.len(), "upload/shared slot mismatch");
        let total = uploads.len();
        let Some(detector) = self.detector.as_deref() else {
            return (
                self.aggregator.aggregate(uploads, num_items, k),
                Self::sum_shared(shared),
                None,
            );
        };
        let report = detector.inspect(uploads);
        // Sanitize the detector's output before it touches the upload
        // slots: out-of-range indices are ignored, duplicates count once.
        let mut is_flagged = vec![false; total];
        for &f in &report.flagged {
            if f < total {
                is_flagged[f] = true;
            }
        }
        let flagged = is_flagged.iter().filter(|&&b| b).count();
        let true_positives = is_flagged[malicious_from..].iter().filter(|&&b| b).count();
        let malicious = total - malicious_from;
        // Precision/recall derive from the same sanitized mask as the
        // counts (same vacuous conventions as `DetectionReport`), so the
        // record is internally consistent even for a detector emitting
        // duplicate or out-of-range flags.
        let precision = if flagged == 0 {
            1.0
        } else {
            true_positives as f64 / flagged as f64
        };
        let recall = if malicious == 0 {
            1.0
        } else {
            true_positives as f64 / malicious as f64
        };
        let record = RoundDefense {
            epoch,
            inspected: total,
            flagged,
            excluded: if self.exclude_flagged { flagged } else { 0 },
            malicious,
            true_positives,
            precision,
            recall,
        };
        let (aggregate, shared_agg) = if self.exclude_flagged && flagged > 0 {
            // Stable-compact the kept uploads to the front, then
            // aggregate only those. Relative order of survivors is
            // preserved, keeping float summation order deterministic;
            // the shared slots are swapped in lockstep so pairing holds.
            let mut kept = 0usize;
            for (i, flag) in is_flagged.iter().enumerate() {
                if !flag {
                    uploads.swap(kept, i);
                    shared.swap(kept, i);
                    kept += 1;
                }
            }
            (
                self.aggregator.aggregate(&uploads[..kept], num_items, k),
                Self::sum_shared(&shared[..kept]),
            )
        } else {
            (
                self.aggregator.aggregate(uploads, num_items, k),
                Self::sum_shared(shared),
            )
        };
        (aggregate, shared_agg, Some(record))
    }

    /// Sum shared-gradient vectors in slot order, skipping empty ones.
    /// Returns an empty vec when nothing contributed.
    fn sum_shared(shared: &[Vec<f32>]) -> Vec<f32> {
        let mut agg: Vec<f32> = Vec::new();
        for s in shared {
            if s.is_empty() {
                continue;
            }
            if agg.is_empty() {
                agg = s.clone();
            } else {
                assert_eq!(agg.len(), s.len(), "shared gradient length mismatch");
                for (a, &x) in agg.iter_mut().zip(s) {
                    *a += x;
                }
            }
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::SumAggregator;

    /// Flags a fixed set of indices, faithfully — including any
    /// out-of-range or duplicate entries it was built with, so tests can
    /// exercise the pipeline's sanitization.
    struct StubDetector(Vec<usize>);

    impl Detector for StubDetector {
        fn inspect(&self, updates: &[SparseGrad]) -> DetectionReport {
            DetectionReport {
                scores: vec![0.0; updates.len()],
                flagged: self.0.clone(),
            }
        }

        fn name(&self) -> &'static str {
            "stub"
        }
    }

    fn grad(k: usize, item: u32, val: f32) -> SparseGrad {
        let mut g = SparseGrad::new(k);
        g.accumulate(item, 1.0, &vec![val; k]);
        g
    }

    fn round() -> Vec<SparseGrad> {
        vec![
            grad(2, 0, 1.0),
            grad(2, 0, 2.0),
            grad(2, 0, 4.0),
            grad(2, 0, 8.0),
        ]
    }

    /// [`round`] through `p` as an MF round: every shared slot empty.
    fn process_mf(
        p: &DefensePipeline,
        malicious_from: usize,
        epoch: usize,
    ) -> (SparseGrad, Option<RoundDefense>) {
        let mut uploads = round();
        let mut shared = vec![Vec::new(); uploads.len()];
        let (agg, sagg, rec) =
            p.process_paired(&mut uploads, &mut shared, malicious_from, epoch, 4, 2);
        assert!(sagg.is_empty(), "MF rounds must see no shared aggregate");
        (agg, rec)
    }

    #[test]
    fn plain_pipeline_records_nothing() {
        let p = DefensePipeline::plain(Box::new(SumAggregator));
        let (agg, rec) = process_mf(&p, 3, 0);
        assert!(rec.is_none());
        assert_eq!(agg.get(0).unwrap()[0], 15.0);
        assert_eq!(p.detector_name(), None);
        assert!(!p.excludes());
    }

    #[test]
    fn monitored_pipeline_records_but_keeps_everything() {
        let p =
            DefensePipeline::monitored(Box::new(StubDetector(vec![3])), Box::new(SumAggregator));
        let (agg, rec) = process_mf(&p, 3, 5);
        let rec = rec.expect("detector attached");
        assert_eq!(agg.get(0).unwrap()[0], 15.0, "monitoring must not exclude");
        assert_eq!(rec.epoch, 5);
        assert_eq!(rec.inspected, 4);
        assert_eq!(rec.flagged, 1);
        assert_eq!(rec.excluded, 0);
        assert_eq!(rec.malicious, 1);
        assert_eq!(rec.true_positives, 1);
        assert_eq!(rec.precision, 1.0);
        assert_eq!(rec.recall, 1.0);
        assert_eq!(p.detector_name(), Some("stub"));
    }

    #[test]
    fn gated_pipeline_excludes_flagged_uploads() {
        let p = DefensePipeline::gated(Box::new(StubDetector(vec![1, 3])), Box::new(SumAggregator));
        let (agg, rec) = process_mf(&p, 3, 0);
        let rec = rec.unwrap();
        // Uploads 1 (benign, false positive) and 3 (malicious) dropped.
        assert_eq!(agg.get(0).unwrap()[0], 5.0);
        assert_eq!(rec.excluded, 2);
        assert_eq!(rec.true_positives, 1);
        assert_eq!(rec.precision, 0.5);
        assert_eq!(rec.recall, 1.0);
        assert!(p.excludes());
    }

    #[test]
    fn gated_pipeline_with_clean_report_is_plain_sum() {
        let p = DefensePipeline::gated(Box::new(StubDetector(vec![])), Box::new(SumAggregator));
        let (agg, rec) = process_mf(&p, 4, 0);
        assert_eq!(agg.get(0).unwrap()[0], 15.0);
        let rec = rec.unwrap();
        // No malicious uploads this round: recall is vacuously perfect.
        assert_eq!(rec.recall, 1.0);
        assert_eq!(rec.precision, 1.0);
        assert_eq!(rec.malicious, 0);
    }

    /// Detectors are outside the engine's control: out-of-range and
    /// duplicate flags must not panic, corrupt the kept set, or inflate
    /// the record's counts.
    #[test]
    fn rogue_detector_flags_are_sanitized() {
        let p = DefensePipeline::gated(
            Box::new(StubDetector(vec![1, 1, 99, 3, usize::MAX])),
            Box::new(SumAggregator),
        );
        let (agg, rec) = process_mf(&p, 3, 0);
        let rec = rec.unwrap();
        // Only in-range indices 1 and 3 count, each once — and the rates
        // must agree with those sanitized counts, not the raw flag list.
        assert_eq!(rec.flagged, 2);
        assert_eq!(rec.excluded, 2);
        assert_eq!(rec.true_positives, 1);
        assert_eq!(rec.precision, 0.5);
        assert_eq!(rec.recall, 1.0);
        assert_eq!(agg.get(0).unwrap()[0], 5.0, "kept uploads 0 and 2");
    }

    #[test]
    fn paired_pipeline_mirrors_exclusion_onto_shared() {
        let p = DefensePipeline::gated(Box::new(StubDetector(vec![1, 3])), Box::new(SumAggregator));
        let mut uploads = round();
        let mut shared = vec![
            vec![1.0f32, 0.0],
            vec![2.0, 0.0],
            vec![4.0, 1.0],
            vec![8.0, 0.0],
        ];
        let (agg, sagg, rec) = p.process_paired(&mut uploads, &mut shared, 3, 0, 4, 2);
        // Slots 1 and 3 are excluded from *both* aggregates.
        assert_eq!(agg.get(0).unwrap()[0], 5.0);
        assert_eq!(sagg, vec![5.0, 1.0]);
        assert_eq!(rec.unwrap().excluded, 2);
    }

    #[test]
    fn paired_pipeline_with_all_empty_shared_returns_empty_aggregate() {
        let p = DefensePipeline::plain(Box::new(SumAggregator));
        let mut uploads = round();
        let mut shared = vec![Vec::new(); 4];
        let (agg, sagg, rec) = p.process_paired(&mut uploads, &mut shared, 3, 0, 4, 2);
        assert!(rec.is_none());
        assert!(sagg.is_empty(), "MF rounds must see no shared aggregate");
        assert_eq!(agg.get(0).unwrap()[0], 15.0);
    }

    #[test]
    fn paired_pipeline_skips_empty_shared_slots_in_the_sum() {
        let p = DefensePipeline::plain(Box::new(SumAggregator));
        let mut uploads = round();
        let mut shared = vec![vec![1.0f32], Vec::new(), vec![2.0], Vec::new()];
        let (_, sagg, _) = p.process_paired(&mut uploads, &mut shared, 4, 0, 4, 2);
        assert_eq!(sagg, vec![3.0]);
    }

    #[test]
    fn report_conventions() {
        let rep = DetectionReport {
            scores: vec![0.0; 4],
            flagged: vec![0, 2],
        };
        assert_eq!(rep.recall(&[]), 1.0, "no malicious clients: vacuous recall");
        assert_eq!(rep.precision(&[2]), 0.5);
        assert_eq!(rep.recall(&[2, 3]), 0.5);
        let empty = DetectionReport {
            scores: vec![0.0; 4],
            flagged: vec![],
        };
        assert_eq!(empty.precision(&[1]), 1.0);
        assert_eq!(empty.recall(&[1]), 0.0);
    }
}
