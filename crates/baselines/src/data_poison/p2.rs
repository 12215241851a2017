//! P2 — data poisoning against deep-learning recommenders, after Huang et
//! al. \[16\].
//!
//! The original trains a "poison model" jointly with fake-user profile
//! construction: fake users start with the target items, and filler items
//! are chosen greedily — at each step the item the current surrogate
//! predicts the fake user is most likely to engage with (so the profile
//! looks organic while steering training). We reproduce that greedy
//! hill-climb on the MF surrogate (the base recommender here is MF; the
//! paper's Table VI applies P2 to the same federated MF target): grow each
//! profile a few items at a time, retraining the surrogate between growth
//! steps. Fake users then join the federation as shilling clients.

use crate::data_poison::train_surrogate;
use crate::shilling::{filler_budget, ShillingAdversary};
use fedrec_data::Dataset;
use fedrec_linalg::SeededRng;

/// How many filler items are added between surrogate retrainings.
const GROWTH_CHUNK: usize = 5;

/// Training epochs of the surrogate model per growth step.
const SURROGATE_EPOCHS: usize = 8;

/// Build the P2 adversary from full knowledge of `data`.
pub fn p2_attack(
    data: &Dataset,
    targets: &[u32],
    num_malicious: usize,
    kappa: usize,
    k: usize,
    seed: u64,
) -> ShillingAdversary {
    let mut rng = SeededRng::new(seed);
    let budget = filler_budget(kappa, targets.len(), data.num_items());

    let mut profiles: Vec<Vec<u32>> = (0..num_malicious)
        .map(|_| {
            let mut p = targets.to_vec();
            p.sort_unstable();
            p.dedup();
            p
        })
        .collect();

    let mut remaining = budget;
    while remaining > 0 {
        let chunk = GROWTH_CHUNK.min(remaining);
        let augmented = data.with_injected_users(&profiles);
        let surrogate = train_surrogate(&augmented, k, SURROGATE_EPOCHS, &mut rng);
        for (i, profile) in profiles.iter_mut().enumerate() {
            let fake_uid = data.num_users() + i;
            // Greedy: take the `chunk` highest-scoring unselected items for
            // this fake user under the current surrogate.
            let mut scores = vec![0.0f32; data.num_items()];
            surrogate.scores_for_user(fake_uid, &mut scores);
            let top = fedrec_recsys::topk::top_k_excluding(&scores, profile, chunk);
            profile.extend(top);
            profile.sort_unstable();
            profile.dedup();
        }
        remaining -= chunk;
    }
    ShillingAdversary::new("p2", profiles, data.num_items(), k, seed ^ 0x22)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrec_data::synthetic::SyntheticConfig;

    #[test]
    fn profiles_grow_to_budget() {
        let data = SyntheticConfig::smoke().generate(3);
        let targets = data.coldest_items(1);
        let adv = p2_attack(&data, &targets, 2, 16, 8, 5);
        assert_eq!(adv.len(), 2);
        for i in 0..2 {
            assert_eq!(adv.profile(i), 1 + 7); // 1 target + (8-1) fillers
        }
    }

    #[test]
    fn fake_users_can_differ_from_each_other() {
        // Each fake user hill-climbs from its own embedding, so profiles
        // are not forced identical (unlike the Popular attack).
        let data = SyntheticConfig::smoke().generate(4);
        let targets = data.coldest_items(1);
        let adv = p2_attack(&data, &targets, 4, 20, 8, 9);
        // All profiles have the same size either way.
        for i in 0..4 {
            assert_eq!(adv.profile(i), 10);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = SyntheticConfig::smoke().generate(5);
        let targets = data.coldest_items(1);
        let a = p2_attack(&data, &targets, 2, 12, 8, 7);
        let b = p2_attack(&data, &targets, 2, 12, 8, 7);
        for i in 0..2 {
            assert_eq!(a.profile(i), b.profile(i));
        }
    }
}
