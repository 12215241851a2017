//! `fedrec-serve` — online top-K recommendation serving over live
//! training snapshots.
//!
//! The offline pipeline measures attack metrics; this crate is the path
//! that actually *serves heavy traffic*: an in-process service that runs
//! concurrently with federated training and answers per-user top-K
//! requests against an epoch-pinned snapshot of the item matrix.
//!
//! Three mechanisms, each reusing a determinism-proven offline seam:
//!
//! * **Double-buffered snapshot publishing** ([`snapshot`]) — training
//!   `publish()`es `V` once per round; readers clone an [`Arc`] from a
//!   two-slot store and never block on snapshot construction. Every
//!   response is tagged with the epoch (and publish sequence) it was
//!   scored against.
//! * **Request batching** ([`service`]) — a bounded queue coalesces
//!   requests into [`SERVE_BATCH`]-user blocks, and every block (a
//!   single request, inline) goes through
//!   [`rank_cached`](fedrec_recsys::candidates::rank_cached), the
//!   incremental evaluator's own hit-or-sweep step: its misses are
//!   ranked by one blocked pass over the norm-sorted pruning order
//!   ([`fedrec_recsys::scorer::top_ranked_block`]), amortizing item-tile
//!   memory traffic across the batch exactly as the offline evaluator
//!   does.
//! * **Drift-bound candidate caches** ([`cache`]) — a hit rescores the
//!   user's cached [`CAND_K`](fedrec_recsys::candidates::CAND_K)-item
//!   band (dozens of dots) instead of sweeping the catalog, and is
//!   served only when the incremental evaluator's drift bound proves the
//!   ranking unchanged. Invalidation is lazy — publishing never touches
//!   cache state.
//!
//! **Determinism contract (invariant 11).** For a fixed (snapshot epoch,
//! user, exclusion list), the served top-K — ids *and* score bits — is
//! identical to offline evaluation of that epoch's item matrix: cache
//! hit or miss, inline or batched, one serving thread or eight. Cold
//! users (never materialized in a sharded row store) hold too: row
//! derivation goes through the same [`UserRowSource`] the evaluator
//! uses.
//!
//! Wall-clock instrumentation (latency histograms, [`telemetry`]) is
//! observational only and is the sole wall-clock-exempt production code
//! in the workspace (`fedrec-lint` pins the exemption to that one file):
//! its [`Stamp`] is the one clock every production timing reads.

#![warn(missing_docs)]

pub mod cache;
pub mod service;
pub mod snapshot;
pub mod telemetry;

pub use cache::CandidateCache;
pub use service::{ServeConfig, ServedTopK, Service, SERVE_BATCH};
pub use snapshot::{ItemSnapshot, SnapshotStore};
pub use telemetry::{LatencyHistogram, ServeStats, Stamp};

#[cfg(doc)]
use fedrec_recsys::UserRowSource;
#[cfg(doc)]
use std::sync::Arc;
