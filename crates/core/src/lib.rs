//! **FedRecAttack** — the model-poisoning attack of the paper (§IV).
//!
//! The attacker's pipeline, run every round a malicious client is selected
//! (Algorithm 1):
//!
//! 1. **Approximate the private user matrix** `U` from the shared item
//!    matrix `V^t` and the public interactions `D′` by minimizing the BPR
//!    loss over `D′` with `V` frozen (Eq. 19) — module [`approx`].
//! 2. **Compute the poisoned gradient** `∇Ṽ^t = ζ·∂L^atk/∂V` (Eq. 20),
//!    where `L^atk` (Eqs. 13–16) penalizes, for every user and every
//!    unreached target item, the margin between the weakest non-target
//!    item in the user's (approximate) top-K list and the target's score,
//!    through the saturating surrogate `g(x) = x (x ≥ 0), eˣ−1 (x < 0)` —
//!    module [`loss`].
//! 3. **Upload under constraints** (Eqs. 21–24): each malicious client
//!    fixes, on first participation, an item set `V_i` of at most κ items
//!    — the targets plus filler items sampled with probability
//!    proportional to the poisoned gradient's row norms — then uploads the
//!    gradient restricted to `V_i` with rows clipped to `C`, and the
//!    residual is handed to the next malicious client — module [`upload`].
//!
//! The whole attack plugs into the federated simulation as an
//! [`fedrec_federated::Adversary`] — module [`attack`].
//!
//! # Example
//!
//! ```
//! use fedrec_attack::{AttackConfig, FedRecAttack};
//! use fedrec_data::{synthetic::SyntheticConfig, PublicView};
//! use fedrec_federated::{FedConfig, Simulation};
//!
//! let data = SyntheticConfig::smoke().generate(1);
//! let public = PublicView::sample(&data, 0.05, 2);
//! let targets = data.coldest_items(1);
//! let num_malicious = 6; // 5% of 120 users
//! let attack = FedRecAttack::new(AttackConfig::new(targets), public, num_malicious);
//! let fed = FedConfig { epochs: 5, ..FedConfig::smoke() };
//! let mut sim = Simulation::new(&data, fed, Box::new(attack), num_malicious);
//! sim.run();
//! ```

#![deny(missing_docs)]

pub mod approx;
pub mod attack;
pub mod config;
pub mod loss;
pub mod upload;

pub use attack::FedRecAttack;
pub use config::AttackConfig;
