//! Client-state stores: where the benign population lives.
//!
//! The paper's protocol only ever touches the sampled participant set
//! `U'` per round, but the original simulation materialized every one of
//! the `n` clients up front, so memory scaled with the population rather
//! than the workload. [`ClientStore`] abstracts that choice:
//!
//! * [`DenseStore`] — the eager `Vec<BenignClient>`; right for
//!   MovieLens-scale runs where `n` is thousands and every client
//!   participates anyway.
//! * [`ShardedStore`] — fixed-size row shards
//!   ([`RowShards`]) holding only the clients that have *participated*;
//!   an untouched user's state is derived on demand from a checkpointed
//!   replay of the construction RNG stream
//!   ([`SeededGaussianInit`]), byte-identical to what the eager loop
//!   would have built. Round cost and memory are `O(|U'|)`.
//!
//! Both stores expose the population's current user rows through
//! [`UserRowSource`], so evaluation (dense or streaming) reads either
//! backend without knowing which one it is — and reading never
//! materializes: peeking an untouched sharded client derives its initial
//! vector into the caller's buffer and stores nothing.
//!
//! Determinism: a client's initial state depends only on `(seed, user)`,
//! and the round engine processes participants in client-id order, so
//! dense and sharded backends produce bit-identical
//! [`TrainingHistory`](crate::history::TrainingHistory) for any thread
//! count (enforced by property tests).

use crate::client::BenignClient;
use fedrec_data::InteractionSource;
use fedrec_linalg::{RowInit, RowShards, SeededGaussianInit, SeededRng};
use fedrec_recsys::UserRowSource;
use std::sync::Arc;

/// Which client-state backend a simulation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreBackend {
    /// Eager `Vec<BenignClient>`: all `n` clients built at construction.
    Dense,
    /// Lazily-materialized shards: clients built on first participation.
    Sharded {
        /// Users per shard (allocation granularity and RNG checkpoint
        /// stride).
        shard_rows: usize,
    },
}

impl StoreBackend {
    /// Default shard size: big enough to amortize bookkeeping, small
    /// enough that one shard is cache-friendly.
    pub const DEFAULT_SHARD_ROWS: usize = 4_096;

    /// Sharded backend with the default shard size.
    pub fn sharded() -> Self {
        StoreBackend::Sharded {
            shard_rows: Self::DEFAULT_SHARD_ROWS,
        }
    }
}

/// Storage of the benign client population.
///
/// The round engine asks for the selected participants; measurement code
/// reads current user rows through the [`UserRowSource`] supertrait.
pub trait ClientStore: UserRowSource + Send {
    /// Clients whose state is currently materialized in memory. Dense
    /// stores report the whole population; sharded stores report exactly
    /// the users that have participated — the counter the scale
    /// acceptance check (`materialized ≤ participants touched`) reads.
    fn materialized(&self) -> usize;

    /// Mutable borrows of the clients with the given **sorted, distinct**
    /// ids, in id order, materializing lazily-stored ones first.
    /// `O(|ids|)` for the dense store, `O(|ids| + shards)` for the
    /// sharded one — never a scan over the population.
    fn selected_mut(&mut self, ids: &[usize]) -> Vec<&mut BenignClient>;

    /// This store as a read-only row source (measurement-only view).
    fn as_user_rows(&self) -> &dyn UserRowSource;
}

/// The eager backend: every client exists from construction on.
pub struct DenseStore {
    clients: Vec<BenignClient>,
    k: usize,
}

impl DenseStore {
    /// Build all clients, consuming one parent fork per user — the
    /// construction loop whose RNG stream the sharded backend replays.
    pub fn build<D: InteractionSource + ?Sized>(data: &D, k: usize, rng: &mut SeededRng) -> Self {
        let clients = (0..data.num_users())
            .map(|u| BenignClient::new(u, data.user_items(u).to_vec(), data.num_items(), k, rng))
            .collect();
        Self { clients, k }
    }
}

impl UserRowSource for DenseStore {
    fn num_users(&self) -> usize {
        self.clients.len()
    }

    fn k(&self) -> usize {
        self.k
    }

    fn write_user_row(&self, u: usize, out: &mut [f32]) {
        out.copy_from_slice(self.clients[u].user_vec());
    }
}

impl ClientStore for DenseStore {
    fn materialized(&self) -> usize {
        self.clients.len()
    }

    fn selected_mut(&mut self, ids: &[usize]) -> Vec<&mut BenignClient> {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]));
        let mut out = Vec::with_capacity(ids.len());
        let mut rest: &mut [BenignClient] = &mut self.clients;
        let mut offset = 0usize;
        for &u in ids {
            let (_, tail) = rest.split_at_mut(u - offset);
            let (c, tail) = tail.split_first_mut().expect("client id in range");
            out.push(c);
            rest = tail;
            offset = u + 1;
        }
        out
    }

    fn as_user_rows(&self) -> &dyn UserRowSource {
        self
    }
}

/// The lazy backend: clients materialize on first participation.
pub struct ShardedStore {
    data: Arc<dyn InteractionSource + Send + Sync>,
    /// Checkpointed construction stream; also derives untouched users'
    /// initial rows for reads.
    init: SeededGaussianInit,
    slots: RowShards<BenignClient>,
    num_items: usize,
    k: usize,
}

impl ShardedStore {
    /// Record the construction RNG stream (advancing `rng` exactly as
    /// [`DenseStore::build`] would) without building a single client.
    pub fn build(
        data: Arc<dyn InteractionSource + Send + Sync>,
        k: usize,
        rng: &mut SeededRng,
        shard_rows: usize,
    ) -> Self {
        let n = data.num_users();
        let num_items = data.num_items();
        // 0.0 / 0.1 is the BenignClient user-vector init distribution.
        let init = SeededGaussianInit::record(rng, n, shard_rows, 0.0, 0.1);
        Self {
            data,
            init,
            slots: RowShards::new(n, shard_rows),
            num_items,
            k,
        }
    }

    /// Shards currently allocated (diagnostics).
    pub fn shards_allocated(&self) -> usize {
        self.slots.shards_allocated()
    }

    fn materialize(&mut self, u: usize) {
        let Self {
            data,
            init,
            slots,
            num_items,
            k,
        } = self;
        slots.get_or_insert_with(u, || {
            // Replay the parent stream at position `u`; BenignClient::new
            // forks it exactly like the eager loop did.
            let mut parent = init.parent_rng_at(u);
            BenignClient::new(u, data.user_items(u).to_vec(), *num_items, *k, &mut parent)
        });
    }
}

impl UserRowSource for ShardedStore {
    fn num_users(&self) -> usize {
        self.slots.len()
    }

    fn k(&self) -> usize {
        self.k
    }

    fn write_user_row(&self, u: usize, out: &mut [f32]) {
        match self.slots.get(u) {
            Some(c) => out.copy_from_slice(c.user_vec()),
            // Untouched user: derive the initial vector, store nothing.
            None => self.init.fill_row(u, out),
        }
    }
}

impl ClientStore for ShardedStore {
    fn materialized(&self) -> usize {
        self.slots.occupied()
    }

    fn selected_mut(&mut self, ids: &[usize]) -> Vec<&mut BenignClient> {
        for &u in ids {
            self.materialize(u);
        }
        self.slots.occupied_mut(ids)
    }

    fn as_user_rows(&self) -> &dyn UserRowSource {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedrec_data::synthetic::SyntheticConfig;

    fn stores(seed: u64) -> (DenseStore, ShardedStore) {
        let data = SyntheticConfig::smoke().generate(seed);
        let k = 6usize;
        let mut r1 = SeededRng::new(seed);
        let dense = DenseStore::build(&data, k, &mut r1);
        let mut r2 = SeededRng::new(seed);
        let sharded = ShardedStore::build(Arc::new(data), k, &mut r2, 32);
        // Both constructions must leave the parent stream identically.
        assert_eq!(r1.next_u64(), r2.next_u64());
        (dense, sharded)
    }

    fn row_bits(s: &dyn UserRowSource, u: usize) -> Vec<u32> {
        let mut buf = vec![0.0f32; s.k()];
        s.write_user_row(u, &mut buf);
        buf.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sharded_rows_derive_byte_identical_to_dense() {
        let (dense, sharded) = stores(3);
        assert_eq!(dense.num_users(), sharded.num_users());
        for u in [0usize, 1, 17, 63, 119] {
            assert_eq!(row_bits(&dense, u), row_bits(&sharded, u), "user {u}");
        }
        assert_eq!(sharded.materialized(), 0, "reads must not materialize");
        assert_eq!(sharded.shards_allocated(), 0);
    }

    #[test]
    fn materialized_clients_match_dense_clients_exactly() {
        let (mut dense, mut sharded) = stores(5);
        let ids = [2usize, 40, 41, 100];
        let items = fedrec_linalg::Matrix::random_normal(200, 6, 0.0, 0.1, &mut SeededRng::new(9));
        // Run one local round on both backends' clients: identical
        // uploads and losses prove identical state *and* RNG streams.
        let d_ups: Vec<_> = dense
            .selected_mut(&ids)
            .into_iter()
            .map(|c| c.local_round(&items, 0.05, 1.0, 0.1))
            .collect();
        let s_ups: Vec<_> = sharded
            .selected_mut(&ids)
            .into_iter()
            .map(|c| c.local_round(&items, 0.05, 1.0, 0.1))
            .collect();
        assert_eq!(sharded.materialized(), ids.len());
        for ((d, s), u) in d_ups.iter().zip(&s_ups).zip(ids) {
            let (d, s) = (d.as_ref().expect("trains"), s.as_ref().expect("trains"));
            assert_eq!(d.item_grads, s.item_grads, "user {u} upload diverged");
            assert_eq!(d.loss.to_bits(), s.loss.to_bits(), "user {u} loss");
        }
        // Post-round rows must now read back the *updated* vectors.
        for &u in &ids {
            assert_eq!(row_bits(&dense, u), row_bits(&sharded, u));
        }
    }

    #[test]
    fn selected_mut_is_id_ordered_and_repeatable() {
        let (_, mut sharded) = stores(7);
        let ids = [5usize, 6, 90];
        let got: Vec<usize> = sharded
            .selected_mut(&ids)
            .iter()
            .map(|c| c.user_id())
            .collect();
        assert_eq!(got, ids);
        // Second selection returns the same (already materialized) clients.
        let again: Vec<usize> = sharded
            .selected_mut(&ids)
            .iter()
            .map(|c| c.user_id())
            .collect();
        assert_eq!(again, ids);
        assert_eq!(sharded.materialized(), 3);
    }

    #[test]
    fn write_user_row_uses_the_benign_client_init_distribution() {
        // Guard against the store and BenignClient drifting apart: the
        // derived row must equal a fresh client's initial vector.
        let data = SyntheticConfig::smoke().generate(11);
        let mut rng = SeededRng::new(11);
        let store = ShardedStore::build(Arc::new(data.clone()), 4, &mut rng, 16);
        let mut expect = {
            let mut parent = store.init.parent_rng_at(42);
            BenignClient::new(
                42,
                data.user_items(42).to_vec(),
                data.num_items(),
                4,
                &mut parent,
            )
        };
        let mut buf = vec![0.0f32; 4];
        store.write_user_row(42, &mut buf);
        assert_eq!(buf, expect.user_vec());
        // And the RowInit path agrees with itself.
        let mut via_init = vec![0.0f32; 4];
        store.init.fill_row(42, &mut via_init);
        assert_eq!(buf, via_init);
        let _ = &mut expect;
    }

    #[test]
    fn backend_default_shard_rows() {
        assert_eq!(
            StoreBackend::sharded(),
            StoreBackend::Sharded { shard_rows: 4096 }
        );
    }
}
