//! P4 — "A little is enough" after Baruch et al. \[50\].
//!
//! The original circumvents defenses on distributed learning by keeping
//! every byzantine worker's update within the *statistical envelope* of
//! honest updates: all attackers upload `μ̂ + z·σ̂` where `μ̂`, `σ̂` are the
//! per-coordinate mean/std of (estimated) honest gradients and `z` is the
//! largest deviation that `n−m` honest workers cannot out-vote.
//!
//! In federated recommendation the attacker cannot observe honest
//! gradients, so — following the comparison protocol the paper adopts from
//! \[31\] — the malicious clients *estimate* the envelope from their own
//! benign-behaving side: each maintains a camouflage profile and computes
//! a genuine BPR gradient; the attacker aggregates the per-row mean `μ̂`
//! and std `σ̂` across its clients and every client uploads
//!
//! ```text
//! μ̂          on camouflage rows
//! μ̂ − z·σ̂·û  on target rows    (û = mean malicious user direction,
//!                               pushing the server's descent to *raise*
//!                               target scores)
//! ```
//!
//! With small ρ the envelope estimate is poor and the deviation budget is
//! tiny — matching Table VIII, where P4 is ineffective at ρ = 10 % and
//! erratic above.

use fedrec_federated::adversary::{Adversary, RoundCtx};
use fedrec_federated::checkpoint::{read_rng_state, write_rng_state, ByteReader, ByteWriter};
use fedrec_federated::client::BenignClient;
use fedrec_linalg::{vector, Matrix, SeededRng, SparseGrad};

/// The P4 adversary.
pub struct P4 {
    clients: Vec<BenignClient>,
    targets: Vec<u32>,
    z: f32,
}

impl P4 {
    /// Create the adversary with deviation budget `z` (the original's
    /// `z_max`; 1.5 reproduces the "just inside the envelope" regime).
    pub fn new(
        targets: Vec<u32>,
        num_malicious: usize,
        num_items: usize,
        kappa: usize,
        k: usize,
        z: f32,
        seed: u64,
    ) -> Self {
        assert!(z >= 0.0);
        let mut t = targets;
        t.sort_unstable();
        t.dedup();
        let mut rng = SeededRng::new(seed);
        let budget = (kappa / 2).max(1).min(num_items);
        let clients = (0..num_malicious)
            .map(|i| {
                let mut profile: Vec<u32> = rng
                    .sample_indices(num_items, budget)
                    .into_iter()
                    .map(|v| v as u32)
                    .collect();
                profile.sort_unstable();
                BenignClient::new(i, profile, num_items, k, &mut rng)
            })
            .collect();
        Self {
            clients,
            targets: t,
            z,
        }
    }
}

impl Adversary for P4 {
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        _rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        let k = items.cols();
        let selected = ctx.selected_malicious;

        // Estimate the honest envelope from own benign-behaving rounds.
        let honest: Vec<SparseGrad> = selected
            .iter()
            .map(|&mi| {
                self.clients[mi]
                    .local_round(items, ctx.lr, ctx.clip_norm, 0.0)
                    .map(|u| u.item_grads)
                    .unwrap_or_else(|| SparseGrad::new(k))
            })
            .collect();
        let n = honest.len().max(1) as f32;

        // Per-row mean over the selected malicious clients.
        let mut mean = SparseGrad::new(k);
        for g in &honest {
            mean.add_assign(g);
        }
        mean.scale(1.0 / n);

        // Per-row, per-coordinate std (over the same sample).
        let mut var = SparseGrad::new(k);
        for g in &honest {
            for (item, row) in mean.iter() {
                let zero = vec![0.0f32; k];
                let observed = g.get(item).unwrap_or(&zero);
                let sq: Vec<f32> = observed
                    .iter()
                    .zip(row.iter())
                    .map(|(o, m)| (o - m) * (o - m))
                    .collect();
                var.accumulate(item, 1.0 / n, &sq);
            }
        }

        // Mean malicious "user direction" drives the target perturbation.
        let mut u_dir = vec![0.0f32; k];
        for &mi in selected {
            vector::add_assign(&mut u_dir, self.clients[mi].user_vec());
        }
        let norm = vector::l2_norm(&u_dir);
        if norm > 0.0 {
            vector::scale(1.0 / norm, &mut u_dir);
        }

        // Everyone uploads the same crafted update (as in the original).
        let mut crafted = mean.clone();
        for &t in &self.targets {
            let zero = vec![0.0f32; k];
            let sigma: Vec<f32> = var
                .get(t)
                .unwrap_or(&zero)
                .iter()
                .map(|v| v.sqrt())
                .collect();
            let sigma_mag = vector::l2_norm(&sigma).max(1e-3);
            // Descent direction −z·σ·û raises target scores for users
            // aligned with û while staying inside the envelope.
            let mut dev = u_dir.clone();
            vector::scale(-self.z * sigma_mag, &mut dev);
            crafted.accumulate(t, 1.0, &dev);
        }
        selected.iter().map(|_| crafted.clone()).collect()
    }

    fn name(&self) -> &'static str {
        "p4"
    }

    /// P4's clients are eager, so the snapshot covers all of them:
    /// private vector plus RNG stream each.
    fn checkpoint_state(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        w.usize(self.clients.len());
        for c in &self.clients {
            let (user_vec, rng_state) = c.checkpoint_state();
            w.f32_slice(user_vec);
            write_rng_state(&mut w, rng_state);
        }
        out.extend_from_slice(&w.into_bytes());
    }

    fn restore_state(&mut self, bytes: &[u8]) {
        let mut r = ByteReader::new(bytes);
        let n = r.usize();
        assert_eq!(
            n,
            self.clients.len(),
            "checkpointed malicious-client count mismatch"
        );
        for c in &mut self.clients {
            let user_vec = r.f32_vec();
            let rng_state = read_rng_state(&mut r);
            c.restore_state(&user_vec, rng_state);
        }
        assert!(r.is_exhausted(), "trailing bytes in p4 checkpoint");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(selected: &[usize]) -> RoundCtx<'_> {
        RoundCtx {
            round: 0,
            lr: 0.05,
            clip_norm: 1.0,
            selected_malicious: selected,
        }
    }

    #[test]
    fn all_selected_clients_upload_identical_updates() {
        let mut rng = SeededRng::new(1);
        let items = Matrix::random_normal(30, 4, 0.0, 0.1, &mut rng);
        let mut adv = P4::new(vec![5], 3, 30, 10, 4, 1.5, 2);
        let sel = [0usize, 1, 2];
        let ups = adv.poison(&items, &ctx(&sel), &mut rng);
        assert_eq!(ups.len(), 3);
        assert_eq!(ups[0], ups[1]);
        assert_eq!(ups[1], ups[2]);
    }

    #[test]
    fn target_rows_are_perturbed_from_the_mean() {
        let mut rng = SeededRng::new(3);
        let items = Matrix::random_normal(30, 4, 0.0, 0.1, &mut rng);
        let target = 5u32;
        let mk = |z: f32| {
            let mut adv = P4::new(vec![target], 2, 30, 10, 4, z, 9);
            let sel = [0usize, 1];
            let mut r = SeededRng::new(4);
            adv.poison(&items, &ctx(&sel), &mut r).remove(0)
        };
        let honest_mean = mk(0.0);
        let attacked = mk(1.5);
        let zero = vec![0.0f32; 4];
        let hm = honest_mean.get(target).unwrap_or(&zero);
        let at = attacked.get(target).expect("target row must exist");
        assert_ne!(hm, at, "z>0 must perturb the target row");
    }

    #[test]
    fn checkpoint_resumes_camouflage_clients_byte_identically() {
        let mut rng = SeededRng::new(8);
        let items = Matrix::random_normal(30, 4, 0.0, 0.1, &mut rng);
        let mk = || P4::new(vec![5], 3, 30, 10, 4, 1.5, 21);
        let mut straight = mk();
        let _ = straight.poison(&items, &ctx(&[0, 2]), &mut rng);
        let mut blob = Vec::new();
        straight.checkpoint_state(&mut blob);
        let mut resumed = mk();
        resumed.restore_state(&blob);
        for sel in [[0usize, 1].as_slice(), &[2]] {
            assert_eq!(
                straight.poison(&items, &ctx(sel), &mut rng),
                resumed.poison(&items, &ctx(sel), &mut rng)
            );
        }
    }

    #[test]
    fn zero_z_reduces_to_envelope_mean() {
        let mut rng = SeededRng::new(5);
        let items = Matrix::random_normal(30, 4, 0.0, 0.1, &mut rng);
        let mut adv = P4::new(vec![5], 2, 30, 10, 4, 0.0, 9);
        let sel = [0usize, 1];
        let ups = adv.poison(&items, &ctx(&sel), &mut rng);
        // With z = 0 the crafted update is just μ̂; row norms stay within
        // the clip bound of the honest rounds that produced it.
        assert!(ups[0].max_row_norm() <= 1.0 + 1e-4);
    }
}
