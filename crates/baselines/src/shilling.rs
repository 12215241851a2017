//! Shared machinery for shilling-style attacks.
//!
//! A shilling attack injects fake users whose interaction profiles contain
//! the target items plus filler items. In the federated setting the fake
//! users cannot inject *data* directly — instead each malicious client
//! locally trains on its fake profile like any benign client would and
//! uploads the resulting (genuine) BPR gradients. The filler budget is
//! `⌊κ/2⌋ − |V^tar|` items per profile: a profile of `p` items touches up
//! to `2p` gradient rows (positives plus sampled negatives), so this
//! budget keeps uploads within the same κ-row envelope FedRecAttack obeys.
//!
//! # Lazy malicious client state
//!
//! The profiles themselves are the attack's payload and stay eager, but
//! the per-client *trainer state* (private vector + RNG stream) follows
//! the same rule as the benign [`ShardedStore`](fedrec_federated::store):
//! a malicious client materializes into a fixed-stride [`RowShards`] slot
//! on its **first participation**, by replaying the construction RNG
//! stream from a [`StreamCheckpoints`] recording. At population scale
//! (ρ = 0.1 % of a million users = 1,000 fake clients, a few of which are
//! sampled per round) the attacker pays for the clients the protocol
//! actually selects — and every materialized client is byte-identical to
//! what the historical eager constructor built, so dense runs reproduce
//! exactly.

use fedrec_federated::adversary::{Adversary, RoundCtx};
use fedrec_federated::checkpoint::{read_rng_state, write_rng_state, ByteReader, ByteWriter};
use fedrec_federated::client::BenignClient;
use fedrec_linalg::rng::StreamCheckpoints;
use fedrec_linalg::{Matrix, RowShards, SeededRng, SparseGrad};

/// Number of filler items per fake profile: `⌊κ/2⌋ − |targets|`
/// (§V-A of the paper), clamped to the available catalog.
pub fn filler_budget(kappa: usize, num_targets: usize, num_items: usize) -> usize {
    (kappa / 2)
        .saturating_sub(num_targets)
        .min(num_items.saturating_sub(num_targets))
}

/// Build a sorted fake profile: the targets plus the given fillers.
pub fn profile_from(targets: &[u32], fillers: impl IntoIterator<Item = u32>) -> Vec<u32> {
    let mut p: Vec<u32> = targets.iter().copied().chain(fillers).collect();
    p.sort_unstable();
    p.dedup();
    p
}

/// Stride of the malicious-client shards: the fake population is orders
/// of magnitude smaller than the benign one, so a small stride keeps the
/// replay cost of a cold materialization negligible.
const MALICIOUS_SHARD_ROWS: usize = 256;

/// An adversary whose malicious clients are ordinary local trainers over
/// fixed fake profiles, materialized lazily on first participation.
pub struct ShillingAdversary {
    profiles: Vec<Vec<u32>>,
    /// Recorded construction RNG stream; replayed per client on first
    /// participation, byte-identical to an eager construction loop.
    ckpt: StreamCheckpoints,
    clients: RowShards<BenignClient>,
    num_items: usize,
    k: usize,
    name: &'static str,
}

impl ShillingAdversary {
    /// Register one fake client per profile. `num_items`/`k` describe the
    /// model; `seed` derives each client's private stream. No client
    /// state is built here — a client materializes when the protocol
    /// first selects it.
    pub fn new(
        name: &'static str,
        profiles: Vec<Vec<u32>>,
        num_items: usize,
        k: usize,
        seed: u64,
    ) -> Self {
        let mut rng = SeededRng::new(seed);
        // Record the parent stream the historical eager loop consumed
        // (one fork per client), without building any client.
        let ckpt = StreamCheckpoints::record(&mut rng, profiles.len(), MALICIOUS_SHARD_ROWS);
        let clients = RowShards::new(profiles.len(), MALICIOUS_SHARD_ROWS);
        Self {
            profiles,
            ckpt,
            clients,
            num_items,
            k,
            name,
        }
    }

    /// Size of the fake profile of malicious client `i`.
    pub fn profile(&self, i: usize) -> usize {
        self.profiles[i].len()
    }

    /// Number of fake clients.
    pub fn len(&self) -> usize {
        self.profiles.len()
    }

    /// Whether no fake clients exist.
    pub fn is_empty(&self) -> bool {
        self.profiles.is_empty()
    }

    /// Fake clients whose trainer state is currently materialized — the
    /// malicious analogue of the benign store's `materialized ≤ touched`
    /// scale invariant.
    pub fn materialized(&self) -> usize {
        self.clients.occupied()
    }

    fn client(&mut self, mi: usize) -> &mut BenignClient {
        assert!(mi < self.profiles.len(), "unknown malicious client {mi}");
        let Self {
            profiles,
            ckpt,
            clients,
            num_items,
            k,
            ..
        } = self;
        clients.get_or_insert_with(mi, || {
            // Replay the parent stream at position `mi`; BenignClient::new
            // forks it exactly as the eager constructor did.
            let mut parent = ckpt.rng_at(mi);
            BenignClient::new(mi, profiles[mi].clone(), *num_items, *k, &mut parent)
        })
    }
}

impl Adversary for ShillingAdversary {
    fn poison(
        &mut self,
        items: &Matrix,
        ctx: &RoundCtx<'_>,
        _rng: &mut SeededRng,
    ) -> Vec<SparseGrad> {
        ctx.selected_malicious
            .iter()
            .map(|&mi| {
                self.client(mi)
                    // Fake clients obey the same clip bound as benign ones
                    // and add no DP noise (the attacker has no privacy to
                    // protect).
                    .local_round(items, ctx.lr, ctx.clip_norm, 0.0)
                    .map(|up| up.item_grads)
                    .unwrap_or_else(|| SparseGrad::new(items.cols()))
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        self.name
    }

    /// Snapshot every materialized fake client (private vector plus RNG
    /// stream). Profiles and the construction recording are rebuilt by
    /// the constructor, so only the per-client trainer state travels.
    fn checkpoint_state(&self, out: &mut Vec<u8>) {
        let mut w = ByteWriter::new();
        w.usize(self.clients.occupied());
        for mi in 0..self.profiles.len() {
            if let Some(c) = self.clients.get(mi) {
                let (user_vec, rng_state) = c.checkpoint_state();
                w.usize(mi);
                w.f32_slice(user_vec);
                write_rng_state(&mut w, rng_state);
            }
        }
        out.extend_from_slice(&w.into_bytes());
    }

    /// Re-materialize each checkpointed client through the normal replay
    /// path (so untouched clients stay lazy), then overwrite its mutable
    /// state.
    fn restore_state(&mut self, bytes: &[u8]) {
        let mut r = ByteReader::new(bytes);
        let n = r.usize();
        for _ in 0..n {
            let mi = r.usize();
            let user_vec = r.f32_vec();
            let rng_state = read_rng_state(&mut r);
            self.client(mi).restore_state(&user_vec, rng_state);
        }
        assert!(r.is_exhausted(), "trailing bytes in shilling checkpoint");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filler_budget_formula() {
        assert_eq!(filler_budget(60, 1, 1000), 29);
        assert_eq!(filler_budget(60, 5, 1000), 25);
        assert_eq!(filler_budget(4, 5, 1000), 0, "saturating");
        assert_eq!(filler_budget(60, 1, 10), 9, "catalog-capped");
    }

    #[test]
    fn profile_contains_targets_sorted_dedup() {
        let p = profile_from(&[5, 2], [7, 2, 9]);
        assert_eq!(p, vec![2, 5, 7, 9]);
    }

    #[test]
    fn shilling_clients_upload_genuine_gradients() {
        let mut rng = SeededRng::new(1);
        let items = Matrix::random_normal(20, 4, 0.0, 0.1, &mut rng);
        let mut adv = ShillingAdversary::new("test", vec![vec![0, 1, 2], vec![3, 4]], 20, 4, 7);
        let selected = [0usize, 1];
        let ctx = RoundCtx {
            round: 0,
            lr: 0.05,
            clip_norm: 1.0,
            selected_malicious: &selected,
        };
        let ups = adv.poison(&items, &ctx, &mut rng);
        assert_eq!(ups.len(), 2);
        // Profile items must appear in the gradient (as positives).
        for &item in &[0u32, 1, 2] {
            assert!(ups[0].get(item).is_some(), "item {item} missing");
        }
        assert!(ups[0].max_row_norm() <= 1.0 + 1e-4);
    }

    #[test]
    fn lazy_clients_match_the_eager_construction_loop() {
        // The historical constructor built every client eagerly from one
        // shared parent stream; the lazy path must replay it exactly.
        let profiles: Vec<Vec<u32>> = (0..9u32).map(|i| vec![i, i + 5]).collect();
        let mut parent = SeededRng::new(41);
        let mut eager: Vec<BenignClient> = profiles
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, p)| BenignClient::new(i, p, 20, 4, &mut parent))
            .collect();
        let mut adv = ShillingAdversary::new("test", profiles, 20, 4, 41);
        assert_eq!(adv.materialized(), 0, "construction builds nothing");
        let mut rng = SeededRng::new(2);
        let items = Matrix::random_normal(20, 4, 0.0, 0.1, &mut rng);
        // Materialize out of order; uploads must match the eager clients'
        // (identical state *and* RNG stream).
        for &mi in &[7usize, 0, 3] {
            let selected = [mi];
            let ctx = RoundCtx {
                round: 0,
                lr: 0.05,
                clip_norm: 1.0,
                selected_malicious: &selected,
            };
            let lazy_up = adv.poison(&items, &ctx, &mut rng);
            let eager_up = eager[mi]
                .local_round(&items, 0.05, 1.0, 0.0)
                .expect("profiles train");
            assert_eq!(lazy_up[0], eager_up.item_grads, "client {mi} diverged");
        }
        assert_eq!(adv.materialized(), 3, "only selected clients exist");
    }

    #[test]
    fn checkpoint_resumes_trained_clients_byte_identically() {
        let profiles: Vec<Vec<u32>> = (0..6u32).map(|i| vec![i, i + 8]).collect();
        let mk = || ShillingAdversary::new("test", profiles.clone(), 20, 4, 31);
        let mut rng = SeededRng::new(5);
        let items = Matrix::random_normal(20, 4, 0.0, 0.1, &mut rng);
        let round = |adv: &mut ShillingAdversary, sel: &[usize]| {
            let ctx = RoundCtx {
                round: 0,
                lr: 0.05,
                clip_norm: 1.0,
                selected_malicious: sel,
            };
            adv.poison(&items, &ctx, &mut SeededRng::new(0))
        };
        let mut straight = mk();
        // Train a subset so some clients are materialized mid-stream and
        // others stay lazy.
        let _ = round(&mut straight, &[1, 4]);
        let _ = round(&mut straight, &[4]);
        let mut blob = Vec::new();
        straight.checkpoint_state(&mut blob);
        let mut resumed = mk();
        resumed.restore_state(&blob);
        assert_eq!(resumed.materialized(), 2, "only touched clients restore");
        // Continued rounds — including a first touch of a lazy client —
        // must match the uninterrupted adversary exactly.
        for sel in [[4usize, 5].as_slice(), &[1], &[0]] {
            assert_eq!(round(&mut straight, sel), round(&mut resumed, sel));
        }
    }

    #[test]
    fn unselected_clients_do_not_train() {
        let mut rng = SeededRng::new(2);
        let items = Matrix::random_normal(10, 4, 0.0, 0.1, &mut rng);
        let mut adv = ShillingAdversary::new("test", vec![vec![0], vec![1]], 10, 4, 8);
        let selected = [1usize];
        let ctx = RoundCtx {
            round: 0,
            lr: 0.05,
            clip_norm: 1.0,
            selected_malicious: &selected,
        };
        let ups = adv.poison(&items, &ctx, &mut rng);
        assert_eq!(ups.len(), 1);
        assert!(ups[0].get(1).is_some());
    }
}
