//! Neural collaborative filtering in the federated setting — the
//! paper's *learnable interaction function* case.
//!
//! §III-B of the paper: "If Υ is learnable through a deep neural
//! network, Θ is the set of the parameters in the neural network", and
//! the shared parameters maintained by the server are then `V` **and**
//! `Θ` (Eqs. 5 and 7 add noise to and aggregate both). The MF experiments
//! of §V never exercise that branch; this crate builds it:
//!
//! * [`model::NcfModel`] — an NCF-style scorer
//!   `x̂ = w₂ · relu(W₁·[u; v] + b₁) + b₂` with hand-derived backprop
//!   (finite-difference-checked, like every other gradient in this
//!   repository); its `scores_for_vector` is the per-user scorer the
//!   workspace's one evaluation sweep
//!   (`Evaluator::evaluate_user_range_scored`) ranks;
//! * [`theta::Theta`] — the shared MLP parameters with the flat-vector
//!   algebra the federated update needs (clip, noise, aggregate);
//! * [`client_model::NcfClientModel`] — NCF plugged into the
//!   `fedrec_federated::ClientModel` seam (`Θ` as the flat shared block),
//!   so `fedrec_federated::Simulation::with_model` trains it while
//!   keeping each `u_i` private;
//! * [`attack`] — both attack variants §IV discusses, as plain
//!   `fedrec_federated::Adversary`s: poisoning `V` only (the paper's
//!   generic choice, here driven through the NCF gradients) and poisoning
//!   `Θ` (the "possibly simpler and more effective" option the paper
//!   notes is *not* generic because MF has no Θ).
//!
//! # Example
//!
//! ```
//! use fedrec_data::synthetic::SyntheticConfig;
//! use fedrec_federated::server::SumAggregator;
//! use fedrec_federated::{DefensePipeline, FedConfig, NoAttack, Simulation, StoreBackend};
//! use fedrec_ncf::{NcfClientModel, Theta};
//! use std::sync::Arc;
//!
//! let data = SyntheticConfig::smoke().generate(1);
//! let cfg = FedConfig { k: 8, lr: 0.05, epochs: 2, ..FedConfig::default() };
//! let mut sim = Simulation::with_model(
//!     Arc::new(data),
//!     cfg,
//!     Box::new(NcfClientModel::new(16, cfg.k)),
//!     Box::new(NoAttack),
//!     0,
//!     DefensePipeline::plain(Box::new(SumAggregator)),
//!     StoreBackend::Dense,
//! );
//! assert_eq!(sim.run().losses.len(), 2);
//! assert_eq!(Theta::from_shared(cfg.k, sim.shared()).hidden, 16);
//! ```

#![warn(missing_docs)]

pub mod attack;
pub mod client_model;
pub mod model;
pub mod theta;

pub use client_model::NcfClientModel;
pub use model::NcfModel;
pub use theta::Theta;

/// Fixtures shared by the crate's simulation-level tests.
#[cfg(test)]
mod testkit {
    use crate::{NcfClientModel, NcfModel, Theta};
    use fedrec_data::split::TestSet;
    use fedrec_data::Dataset;
    use fedrec_federated::server::SumAggregator;
    use fedrec_federated::{Adversary, DefensePipeline, FedConfig, Simulation, StoreBackend};
    use fedrec_recsys::eval::{EvalReport, Evaluator};
    use std::sync::Arc;

    /// Hidden width of the test MLP.
    const HIDDEN: usize = 16;

    /// Small, fast NCF training: `k = 8`, `η = 0.05`, 40 full-participation
    /// rounds, no DP noise.
    pub(crate) fn smoke_cfg() -> FedConfig {
        FedConfig {
            k: 8,
            lr: 0.05,
            epochs: 40,
            ..FedConfig::default()
        }
    }

    /// An undefended, dense-store NCF simulation over `data`.
    pub(crate) fn ncf_sim(
        data: &Dataset,
        cfg: FedConfig,
        adversary: Box<dyn Adversary>,
        num_malicious: usize,
    ) -> Simulation {
        Simulation::with_model(
            Arc::new(data.clone()),
            cfg,
            Box::new(NcfClientModel::new(HIDDEN, cfg.k)),
            adversary,
            num_malicious,
            DefensePipeline::plain(Box::new(SumAggregator)),
            StoreBackend::Dense,
        )
    }

    /// Target exposure and HR@10 of the simulation's current model,
    /// through the scored sweep over the whole population.
    pub(crate) fn evaluate(
        sim: &Simulation,
        train: &Dataset,
        test: &TestSet,
        targets: &[u32],
        seed: u64,
    ) -> EvalReport {
        let evaluator = Evaluator::new(train, test, targets, seed);
        let theta = Theta::from_shared(sim.config().k, sim.shared());
        let items = sim.items();
        // Every user, in a single shard.
        let n = train.num_users();
        let score =
            |row: &[f32], out: &mut [f32]| NcfModel::scores_for_vector(&theta, items, row, out);
        evaluator
            .evaluate_user_range_scored(
                items.rows(),
                sim.user_rows(),
                train,
                test,
                0..n,
                1,
                n,
                score,
            )
            .0
    }
}
