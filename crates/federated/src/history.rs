//! Training history — what the round loop records.
//!
//! The paper's stealthiness analysis (§V-D) plots training loss and HR@10
//! per epoch under attack and without. The simulation records the loss
//! of every round; a caller that wants accuracy or exposure per epoch
//! steps the simulation one epoch at a time and evaluates the model in
//! between. When a defense pipeline with a detector is attached, the
//! simulation also records one [`RoundDefense`] per round, so experiments
//! can plot detector precision/recall trajectories next to ER@K/HR@K, and
//! with a fault plan attached one [`RoundFaults`] per round.

/// One round's outcome of the in-loop defense pipeline, scored against
/// the simulation's ground truth (which upload slots were malicious).
/// Recorded only when a detector is attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundDefense {
    /// Round (epoch) index, 0-based.
    pub epoch: usize,
    /// Number of uploads the detector inspected this round.
    pub inspected: usize,
    /// Number of uploads the detector flagged.
    pub flagged: usize,
    /// Number of uploads actually excluded from aggregation (0 in
    /// monitor-only pipelines).
    pub excluded: usize,
    /// Number of ground-truth malicious uploads this round.
    pub malicious: usize,
    /// Flagged uploads that really were malicious.
    pub true_positives: usize,
    /// Detector precision this round (vacuously 1.0 when nothing was
    /// flagged).
    pub precision: f64,
    /// Detector recall this round (vacuously 1.0 when no malicious
    /// upload participated).
    pub recall: f64,
}

/// One round's fault bookkeeping, recorded whenever a fault plan is
/// attached to the simulation (even when nothing faulted that round, so
/// series stay aligned with the loss curve).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundFaults {
    /// Round (epoch) index, 0-based.
    pub epoch: usize,
    /// Benign clients selected this round.
    pub selected: usize,
    /// Uploads lost outright (dropouts plus stragglers that exhausted
    /// their retry budget).
    pub dropped: usize,
    /// Uploads deferred this round (queued to arrive late).
    pub deferred: usize,
    /// Late uploads that *arrived* and were applied this round, with
    /// staleness-aware downweighting.
    pub late: usize,
    /// Uploads quarantined by the validation gate (corrupted payloads and
    /// malformed adversarial uploads).
    pub rejected: usize,
    /// Total straggler retry attempts spent this round.
    pub retried: usize,
    /// True when participation fell below the quorum floor and the server
    /// skipped applying the aggregate.
    pub quorum_skipped: bool,
}

/// Everything a simulation run records.
#[derive(Debug, Clone, Default)]
pub struct TrainingHistory {
    /// Total benign BPR loss per epoch (Fig. 3 left column).
    pub losses: Vec<f32>,
    /// One record per round when the defense pipeline has a detector,
    /// in round order; empty otherwise.
    pub defense: Vec<RoundDefense>,
    /// One record per round when a fault plan is attached, in round
    /// order; empty otherwise.
    pub faults: Vec<RoundFaults>,
}

impl TrainingHistory {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mean per-round detector precision, if any rounds were recorded.
    pub fn mean_detector_precision(&self) -> Option<f64> {
        mean(self.defense.iter().map(|d| d.precision))
    }

    /// Mean per-round detector recall, if any rounds were recorded.
    pub fn mean_detector_recall(&self) -> Option<f64> {
        mean(self.defense.iter().map(|d| d.recall))
    }

    /// Total uploads excluded from aggregation over the whole run.
    pub fn total_excluded(&self) -> usize {
        self.defense.iter().map(|d| d.excluded).sum()
    }

    /// Cumulative fault counters over the whole run:
    /// `(dropped, late, rejected, retried, quorum_skipped_rounds)`.
    pub fn fault_totals(&self) -> (usize, usize, usize, usize, usize) {
        self.faults.iter().fold((0, 0, 0, 0, 0), |acc, f| {
            (
                acc.0 + f.dropped,
                acc.1 + f.late,
                acc.2 + f.rejected,
                acc.3 + f.retried,
                acc.4 + usize::from(f.quorum_skipped),
            )
        })
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values.fold((0.0f64, 0usize), |(s, n), v| (s + v, n + 1));
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_default_is_empty() {
        let h = TrainingHistory::new();
        assert!(h.losses.is_empty());
        assert!(h.defense.is_empty());
        assert_eq!(h.mean_detector_precision(), None);
        assert_eq!(h.mean_detector_recall(), None);
        assert_eq!(h.total_excluded(), 0);
    }

    #[test]
    fn defense_summaries_average_rounds() {
        let mut h = TrainingHistory::new();
        let base = RoundDefense {
            epoch: 0,
            inspected: 10,
            flagged: 2,
            excluded: 2,
            malicious: 1,
            true_positives: 1,
            precision: 0.5,
            recall: 1.0,
        };
        h.defense.push(base);
        h.defense.push(RoundDefense {
            epoch: 1,
            precision: 1.0,
            recall: 0.0,
            excluded: 3,
            ..base
        });
        assert_eq!(h.mean_detector_precision(), Some(0.75));
        assert_eq!(h.mean_detector_recall(), Some(0.5));
        assert_eq!(h.total_excluded(), 5);
    }

    #[test]
    fn fault_totals_accumulate() {
        let mut h = TrainingHistory::new();
        assert_eq!(h.fault_totals(), (0, 0, 0, 0, 0));
        h.faults.push(RoundFaults {
            epoch: 0,
            selected: 10,
            dropped: 1,
            deferred: 2,
            late: 0,
            rejected: 1,
            retried: 3,
            quorum_skipped: false,
        });
        h.faults.push(RoundFaults {
            epoch: 1,
            selected: 10,
            dropped: 0,
            deferred: 0,
            late: 2,
            rejected: 0,
            retried: 0,
            quorum_skipped: true,
        });
        assert_eq!(h.fault_totals(), (1, 2, 1, 3, 1));
    }
}
