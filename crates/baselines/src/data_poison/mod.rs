//! Data-poisoning attacks with full knowledge of the interaction matrix
//! (Table VI's P1 and P2).
//!
//! Both attacks come from the *centralized* recommendation literature and
//! assume the attacker can read all of `D` (the paper: "we conduct the
//! experiments with the same settings as in \[16\], assuming attacker has
//! access to all user-item interactions"). They optimize fake user
//! profiles offline against a surrogate model, then the fake users join
//! the federation as shilling clients (local training on the optimized
//! profiles). Table VI's finding — effective per-fake-user in the tiny-ρ
//! regime but unable to reach high exposure — falls out of the profiles
//! being static data rather than adaptive gradients.

pub mod p1;
pub mod p2;

pub use p1::p1_attack;
pub use p2::p2_attack;

use fedrec_data::Dataset;
use fedrec_linalg::SeededRng;
use fedrec_recsys::trainer::{CentralizedTrainer, TrainConfig};
use fedrec_recsys::MfModel;

/// Train the attacker's surrogate MF model on (possibly augmented) data.
pub(crate) fn train_surrogate(
    data: &Dataset,
    k: usize,
    epochs: usize,
    rng: &mut SeededRng,
) -> MfModel {
    let mut model = MfModel::init(data.num_users(), data.num_items(), k, rng);
    let cfg = TrainConfig { epochs, lr: 0.05 };
    CentralizedTrainer::new(cfg).fit(&mut model, data, rng);
    model
}
