//! Simulation configuration.

/// Hyper-parameters of the federated training process.
///
/// Defaults follow §V-A of the paper: `k = 32`, `η = 0.01`, `C = 1`,
/// 200 epochs. `noise_scale` (µ) defaults to 0 — the paper's Eq. 5 supports
/// DP noise and the experiments in this repo expose it, but the paper's
/// tables do not state a non-zero µ; pass a positive value to enable it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FedConfig {
    /// Latent dimension `k`.
    pub k: usize,
    /// Learning rate `η` used both client-side (Eq. 6) and server-side
    /// (Eq. 7).
    pub lr: f32,
    /// Number of training epochs (rounds) `T`.
    pub epochs: usize,
    /// Fraction of clients selected each round (`|U^t| / |U|`); 1.0 means
    /// full participation.
    pub client_fraction: f64,
    /// Differential-privacy noise scale `µ` of Eq. 5 (`σ = µ·C`).
    pub noise_scale: f32,
    /// ℓ2 bound `C` on uploaded gradient rows; benign clients clip to it
    /// (standard DP-SGD practice) and malicious uploads must respect it.
    pub clip_norm: f32,
    /// Worker threads for client-round computation. 1 = sequential.
    /// Results are identical for any thread count (aggregation order is
    /// fixed by client id).
    pub threads: usize,
    /// Master seed; everything stochastic derives from it.
    pub seed: u64,
}

impl Default for FedConfig {
    fn default() -> Self {
        Self {
            k: 32,
            lr: 0.01,
            epochs: 200,
            client_fraction: 1.0,
            noise_scale: 0.0,
            clip_norm: 1.0,
            threads: 1,
            seed: 42,
        }
    }
}

impl FedConfig {
    /// Validate ranges; called by the simulation constructor.
    pub fn validate(&self) {
        assert!(self.k > 0, "k must be positive");
        assert!(self.lr > 0.0, "learning rate must be positive");
        assert!(
            (0.0..=1.0).contains(&self.client_fraction) && self.client_fraction > 0.0,
            "client_fraction must be in (0, 1]"
        );
        assert!(self.clip_norm > 0.0, "clip norm must be positive");
        assert!(self.noise_scale >= 0.0, "noise scale must be non-negative");
        assert!(self.threads >= 1, "need at least one thread");
    }

    /// A small, fast configuration for tests and smoke experiments.
    pub fn smoke() -> Self {
        Self {
            k: 16,
            epochs: 40,
            lr: 0.05,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_section_5a() {
        let c = FedConfig::default();
        assert_eq!(c.k, 32);
        assert!((c.lr - 0.01).abs() < 1e-9);
        assert_eq!(c.epochs, 200);
        assert!((c.clip_norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn default_validates() {
        FedConfig::default().validate();
        FedConfig::smoke().validate();
    }

    #[test]
    #[should_panic(expected = "client_fraction")]
    fn rejects_zero_fraction() {
        FedConfig {
            client_fraction: 0.0,
            ..FedConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn rejects_zero_k() {
        FedConfig {
            k: 0,
            ..FedConfig::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "clip norm")]
    fn rejects_zero_clip() {
        FedConfig {
            clip_norm: 0.0,
            ..FedConfig::default()
        }
        .validate();
    }
}
