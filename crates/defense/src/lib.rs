//! Defenses for federated recommendation.
//!
//! §VI of the paper points at two defense families as future work:
//! byzantine-robust aggregation (Krum, trimmed mean, median — citing Yin
//! et al. \[52\]) and poisoned-gradient detection \[51\]. This crate
//! implements both so the repository can *measure* how FedRecAttack fares
//! against them (the `repro matrix` scenario grid, the
//! `ablation_defenses` bench and the `defense_evaluation` example):
//!
//! * [`aggregation`] — [`aggregation::Krum`],
//!   [`aggregation::TrimmedMean`], [`aggregation::CoordinateMedian`] and
//!   [`aggregation::NormBound`], all implementing the federated server's
//!   [`fedrec_federated::server::Aggregator`] trait.
//! * [`detection`] — gradient-norm and cosine-similarity anomaly scoring
//!   over per-client uploads, implementing the round loop's
//!   [`fedrec_federated::defense::Detector`] trait.
//!
//! # In-loop exclusion vs. offline scoring
//!
//! Every detector here can be used two ways, and the results mean
//! different things:
//!
//! * **Offline scoring** — capture one round of uploads, call
//!   `inspect`, read precision/recall. Training is untouched; this
//!   measures the detector's *signal* in isolation (the `repro detection`
//!   table).
//! * **In-loop exclusion** — attach the detector to a
//!   [`DefensePipeline`] in gated mode and hand that to
//!   [`fedrec_federated::Simulation::with_defense`]. Now a flag in round
//!   `t` removes that upload before aggregation, which changes
//!   `V^{t+1}` and therefore everything the detector (and the attacker)
//!   sees in round `t+1`. False positives stop being cosmetic: each one
//!   deletes a benign client's contribution for the round, trading
//!   recommendation accuracy for robustness. The per-round
//!   [`fedrec_federated::RoundDefense`] records in the training history
//!   capture exactly that trajectory. A pipeline in *monitored* mode
//!   records the same trajectory without excluding anyone, so a run can
//!   be graded without being perturbed.
//!
//! A practical subtlety the paper calls out (§V-D, §VI): in federated
//! *recommendation* the honest gradients themselves vary wildly across
//! clients (different users touch different items with different
//! intensity), so coordinate-wise defenses that work in homogeneous
//! classification FL are far weaker here. The tests below encode both
//! sides: defenses neutralize crude large-norm attacks, yet leave
//! norm-bounded FedRecAttack-style uploads largely intact.

#![warn(missing_docs)]

pub mod aggregation;
pub mod detection;
#[cfg(test)]
mod testkit;

pub use aggregation::{CoordinateMedian, Krum, NormBound, TrimmedMean};
pub use detection::{DetectionReport, Detector, NormDetector, SimilarityDetector};
pub use fedrec_federated::defense::DefensePipeline;
