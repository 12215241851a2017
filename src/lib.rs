//! # fedrecattack
//!
//! A from-scratch Rust reproduction of **"FedRecAttack: Model Poisoning
//! Attack to Federated Recommendation"** (Rong et al., ICDE 2022):
//! the federated matrix-factorization recommender the paper targets, the
//! FedRecAttack adversary itself, every baseline attack the paper
//! compares against, byzantine-robust defenses, and a harness that
//! regenerates every table and figure of the evaluation section.
//!
//! This crate is a facade: it re-exports the workspace's public API under
//! one roof. The pieces:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`linalg`] | `fedrec-linalg` | matrices, RNG, sparse gradients |
//! | [`data`] | `fedrec-data` | datasets, splits, public views, loaders, synthetic generators |
//! | [`recsys`] | `fedrec-recsys` | MF + BPR (manual gradients), top-K, metrics |
//! | [`federated`] | `fedrec-federated` | server/client simulation, DP noise, adversary hook |
//! | [`attack`] | `fedrec-attack` | **FedRecAttack** (the paper's contribution) |
//! | [`baselines`] | `fedrec-baselines` | Random/Bandwagon/Popular, EB, PipAttack, P1–P4 |
//! | [`defense`] | `fedrec-defense` | Krum, trimmed mean, median, norm bound, detectors |
//! | [`ncf`] | `fedrec-ncf` | neural CF extension: learnable Θ, federated MLP, V-/Θ-poisoning |
//! | [`experiments`] | `fedrec-experiments` | Table II–IX and Fig. 3 runners, the attack×defense×ρ scenario matrix, `repro` CLI |
//!
//! ## Quickstart
//!
//! ```
//! use fedrecattack::prelude::*;
//!
//! // 1. A dataset (synthetic stand-in for MovieLens-100K; loaders for
//! //    the real files live in `data::loader`).
//! let data = SyntheticConfig::smoke().generate(7);
//! let (train, test) = leave_one_out(&data, 1);
//!
//! // 2. The attacker's world: ξ = 5 % public interactions, one cold
//! //    target item, ρ = 5 % malicious clients.
//! let public = PublicView::sample(&train, 0.05, 2);
//! let targets = train.coldest_items(1);
//! let malicious = train.num_users() / 20;
//! let attack = FedRecAttack::new(AttackConfig::new(targets.clone()), public, malicious);
//!
//! // 3. Run federated training under attack.
//! let fed = FedConfig { epochs: 10, ..FedConfig::smoke() };
//! let mut sim = Simulation::new(&train, fed, Box::new(attack), malicious);
//! sim.run();
//!
//! // 4. Measure the damage.
//! let eval = Evaluator::new(&train, &test, &targets, 3);
//! let report = eval.evaluate(sim.items(), sim.user_rows(), &train, &test);
//! println!("ER@10 after attack: {:.4}", report.attack.er_at_10);
//! ```

#![warn(missing_docs)]

pub use fedrec_attack as attack;
pub use fedrec_baselines as baselines;
pub use fedrec_data as data;
pub use fedrec_defense as defense;
pub use fedrec_experiments as experiments;
pub use fedrec_federated as federated;
pub use fedrec_linalg as linalg;
pub use fedrec_ncf as ncf;
pub use fedrec_recsys as recsys;

/// The names most programs need, in one import.
pub mod prelude {
    pub use fedrec_attack::{AttackConfig, FedRecAttack};
    pub use fedrec_baselines::{build_adversary, AttackMethod};
    pub use fedrec_data::split::leave_one_out;
    pub use fedrec_data::synthetic::SyntheticConfig;
    pub use fedrec_data::{Dataset, PublicView};
    pub use fedrec_defense::{
        CoordinateMedian, DefensePipeline, DetectionReport, Detector, Krum, NormBound,
        NormDetector, SimilarityDetector, TrimmedMean,
    };
    pub use fedrec_federated::{Adversary, FedConfig, NoAttack, RoundDefense, Simulation};
    pub use fedrec_linalg::{Matrix, SeededRng, SparseGrad};
    pub use fedrec_recsys::eval::Evaluator;
    pub use fedrec_recsys::MfModel;
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let data = SyntheticConfig::smoke().generate(1);
        assert!(data.num_users() > 0);
        let _ = FedConfig::default();
        let _ = AttackMethod::parse("fedrecattack");
    }
}
