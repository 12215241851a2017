//! P1 — data poisoning against factorization-based collaborative
//! filtering, after Li et al. \[15\] / Fang et al. \[41\].
//!
//! The original poses a bi-level problem: choose fake users' interactions
//! to maximize the target items' predicted scores after retraining, and
//! solves it with gradient/influence approximations on a surrogate MF
//! model. The tractable core of those approximations: a filler item helps
//! iff liking it moves the fake-influenced user factors so the targets'
//! scores rise — which, in MF geometry, selects fillers whose embeddings
//! *align with the target embeddings*.
//!
//! Implementation (documented simplification, DESIGN.md §3): train a
//! surrogate on the full `D`, rank candidate fillers by embedding cosine
//! to the mean target embedding, retrain with the injected profiles, and
//! re-select once (two alternations). Fake users then join the federation
//! as shilling clients.

use crate::data_poison::train_surrogate;
use crate::shilling::{filler_budget, profile_from, ShillingAdversary};
use fedrec_data::Dataset;
use fedrec_linalg::{vector, SeededRng};

/// Number of surrogate alternations (profile selection → retrain).
const ALTERNATIONS: usize = 2;

/// Training epochs of the surrogate model per alternation.
const SURROGATE_EPOCHS: usize = 15;

/// Build the P1 adversary from full knowledge of `data`.
pub fn p1_attack(
    data: &Dataset,
    targets: &[u32],
    num_malicious: usize,
    kappa: usize,
    k: usize,
    seed: u64,
) -> ShillingAdversary {
    let mut rng = SeededRng::new(seed);
    let budget = filler_budget(kappa, targets.len(), data.num_items());
    let target_set: std::collections::HashSet<u32> = targets.iter().copied().collect();

    let mut profiles: Vec<Vec<u32>> = vec![targets.to_vec(); num_malicious];
    for _ in 0..ALTERNATIONS {
        let augmented = data.with_injected_users(&profiles);
        let surrogate = train_surrogate(&augmented, k, SURROGATE_EPOCHS, &mut rng);

        // Mean target embedding direction.
        let target_rows: Vec<usize> = targets.iter().map(|&t| t as usize).collect();
        let centroid = surrogate.item_factors.mean_of_rows(&target_rows);

        // Rank non-target items by alignment with the target direction.
        let mut scored: Vec<(f32, u32)> = (0..data.num_items() as u32)
            .filter(|v| !target_set.contains(v))
            .map(|v| {
                (
                    vector::cosine(surrogate.item_factors.row(v as usize), &centroid),
                    v,
                )
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite cosines"));
        let fillers: Vec<u32> = scored.iter().take(budget).map(|&(_, v)| v).collect();
        profiles = (0..num_malicious)
            .map(|_| profile_from(targets, fillers.iter().copied()))
            .collect();
    }
    ShillingAdversary::new("p1", profiles, data.num_items(), k, seed ^ 0x11)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrec_data::synthetic::SyntheticConfig;

    #[test]
    fn profiles_contain_targets_and_budgeted_fillers() {
        let data = SyntheticConfig::smoke().generate(1);
        let targets = data.coldest_items(2);
        let adv = p1_attack(&data, &targets, 3, 20, 8, 5);
        assert_eq!(adv.len(), 3);
        for i in 0..3 {
            assert_eq!(adv.profile(i), 2 + 8); // 2 targets + (10-2) fillers
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let data = SyntheticConfig::smoke().generate(2);
        let targets = data.coldest_items(1);
        let a = p1_attack(&data, &targets, 2, 12, 8, 7);
        let b = p1_attack(&data, &targets, 2, 12, 8, 7);
        for i in 0..2 {
            assert_eq!(a.profile(i), b.profile(i));
        }
    }
}
