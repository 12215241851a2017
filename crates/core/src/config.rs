//! Attack configuration.

/// κ of §V-A: at most this many non-zero rows per malicious upload.
pub const DEFAULT_KAPPA: usize = 60;

/// K of §V-A: the recommendation-list length inside `L^atk`, the largest
/// K the paper's metrics use.
pub const DEFAULT_TOP_K: usize = 10;

/// SGD passes over `D′` per round when refining the user-matrix
/// approximation (Eq. 19). The approximation warm-starts from the previous
/// round, so a few passes suffice.
pub const APPROX_EPOCHS_PER_ROUND: usize = 4;

/// Learning rate of the approximation SGD (Eq. 19).
pub const APPROX_LR: f32 = 0.05;

/// Hyper-parameters of FedRecAttack.
///
/// Defaults follow §V-A: κ = [`DEFAULT_KAPPA`], step size ζ = 1,
/// recommendation length K = [`DEFAULT_TOP_K`]. The attack loss is the
/// saturating `g` of Eq. 14 and each malicious client's item set is frozen
/// at first participation (Eq. 21); neither is configurable. The ℓ2 bound
/// C is not here — it is a property of the *federation* (the adversary
/// reads it from the round context, since malicious uploads must look like
/// benign ones).
#[derive(Debug, Clone, PartialEq)]
pub struct AttackConfig {
    /// The target items `V^tar` whose exposure the attacker maximizes.
    pub targets: Vec<u32>,
    /// Maximum number of non-zero rows per malicious upload (κ).
    pub kappa: usize,
    /// Step size ζ of Eq. 20.
    pub zeta: f32,
    /// Length K of the (approximate) recommendation lists used inside
    /// `L^atk` (Eq. 15).
    pub top_k: usize,
    /// Optional cap on how many users enter the attack loss each round
    /// (subsampling keeps paper-scale datasets affordable; `None` = all
    /// users, the paper's formulation).
    pub max_users_per_round: Option<usize>,
}

impl AttackConfig {
    /// Default configuration for the given target items.
    pub fn new(targets: Vec<u32>) -> Self {
        Self {
            targets,
            kappa: DEFAULT_KAPPA,
            zeta: 1.0,
            top_k: DEFAULT_TOP_K,
            max_users_per_round: None,
        }
    }

    /// Validate invariants; called by the attack constructor.
    pub fn validate(&self) {
        assert!(!self.targets.is_empty(), "need at least one target item");
        assert!(
            self.kappa >= self.targets.len(),
            "kappa ({}) must cover the target set ({})",
            self.kappa,
            self.targets.len()
        );
        assert!(self.zeta > 0.0, "zeta must be positive");
        assert!(self.top_k > 0, "top_k must be positive");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = AttackConfig::new(vec![3]);
        assert_eq!(c.kappa, 60);
        assert!((c.zeta - 1.0).abs() < 1e-9);
        assert_eq!(c.top_k, 10);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one target")]
    fn rejects_empty_targets() {
        AttackConfig::new(vec![]).validate();
    }

    #[test]
    #[should_panic(expected = "must cover the target set")]
    fn rejects_kappa_below_targets() {
        let mut c = AttackConfig::new(vec![1, 2, 3]);
        c.kappa = 2;
        c.validate();
    }
}
