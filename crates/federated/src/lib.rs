//! Federated-recommendation simulation framework.
//!
//! Implements §III-B of the paper (Fig. 1b): a central server maintains the
//! shared item feature matrix `V`; each user client keeps its interaction
//! data `V_i⁺` and private feature vector `u_i` locally. Per round the
//! server selects a batch of clients and sends them `V`; each selected
//! client computes BPR gradients, adds Gaussian differential-privacy noise
//! (Eq. 5), uploads `∇V_i`, and applies `u_i ← u_i - η∇u_i` locally
//! (Eq. 6); the server applies the aggregate `V ← V - η Σ ∇V_i` (Eq. 7).
//!
//! Attacks plug in through the [`adversary::Adversary`] trait: malicious
//! clients are extra client slots whose uploads are produced by the
//! adversary instead of by local training. Defenses plug in through the
//! [`defense::DefensePipeline`] round stage (detector → flagged-client
//! exclusion → robust aggregation); a bare [`server::Aggregator`] is the
//! detector-less special case. Model families plug in through the
//! [`model::ClientModel`] seam: the local step and an optional flat
//! shared-parameter block `Θ` maintained next to `V` — MF is the
//! zero-`Θ` instantiation, NCF (in `fedrec-ncf`) the learnable-Υ one.
//!
//! # Example
//!
//! ```
//! use fedrec_data::synthetic::SyntheticConfig;
//! use fedrec_federated::{adversary::NoAttack, config::FedConfig, simulation::Simulation};
//!
//! let data = SyntheticConfig::smoke().generate(1);
//! let cfg = FedConfig { epochs: 3, ..FedConfig::default() };
//! let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 0);
//! let history = sim.run();
//! assert_eq!(history.losses.len(), 3);
//! ```

#![deny(missing_docs)]

pub mod adversary;
pub mod checkpoint;
pub mod client;
pub mod config;
pub mod defense;
pub mod faults;
pub mod history;
pub mod model;
pub mod server;
pub mod simulation;
pub mod store;

pub use adversary::{Adversary, NoAttack};
pub use config::FedConfig;
pub use defense::{DefensePipeline, DetectionReport, Detector};
pub use faults::{FaultDecision, FaultInjector, FaultPlan, RejectReason};
pub use history::{RoundDefense, RoundFaults};
pub use model::{ClientModel, MfClientModel};
pub use simulation::Simulation;
pub use store::{ClientStore, DenseStore, ShardedStore, StoreBackend};
