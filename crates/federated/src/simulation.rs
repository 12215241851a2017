//! The end-to-end federated training loop.
//!
//! [`Simulation`] wires together the server (shared `V`), the benign
//! clients (private `u_i`, `V_i⁺`), the adversary (malicious client slots
//! appended after the benign ones) and an aggregator, and runs the round
//! loop of §III-B.
//!
//! # The round engine
//!
//! With [`FedConfig::threads`] > 1 the selected benign clients are split
//! into contiguous id-ordered shards, one per scoped worker thread
//! (`std::thread::scope`); each worker owns a reusable
//! [`RoundScratch`] buffer set and writes every client's
//! upload into that client's pre-assigned slot of a pooled update buffer.
//! Because the slots are indexed by selection order and every client owns
//! its private RNG stream, the observable sequence of a run is
//! deterministic in the [`FedConfig::seed`] and **bit-identical for any
//! thread count**: client work is computed in parallel but losses are
//! summed and uploads aggregated in client-id order. The upload pool and
//! the per-worker scratches are reused across epochs, so a steady-state
//! round performs no per-client heap allocation.
//!
//! # The client store
//!
//! The benign population lives behind a [`ClientStore`]: the eager
//! [`DenseStore`] (every client built at
//! construction — the right call at MovieLens scale) or the lazily
//! materialized [`ShardedStore`], where a
//! client's state is only ever built on its first participation and an
//! untouched user's vector is *derived* for reads instead of stored.
//! Per-round work is `O(|U'|)` either way — the engine asks the store for
//! exactly the selected ids, never scanning the population — and the two
//! backends are bit-identical for any thread count.
//!
//! # Faults and recovery
//!
//! With a [`FaultPlan`] attached ([`Simulation::enable_faults`]) every
//! benign upload passes a deterministic fault stage: the
//! [`FaultInjector`] decides dropout / straggling / corruption as a pure
//! function of `(fault_seed, round, client)`, late uploads wait in a
//! pending queue and arrive staleness-downweighted, and every admitted
//! upload (including the adversary's) passes the validation gate *before*
//! the defense pipeline sees it. Because fault sampling never touches the
//! simulation's own RNG streams, a zero-rate plan leaves a run
//! byte-identical to one with no plan at all, and faulted runs stay
//! bit-identical across thread counts. [`Simulation::checkpoint`] /
//! [`Simulation::restore`] serialize the complete mutable state (server
//! `V`, all RNG streams including cached Gaussian spares, touched client
//! state, the pending queue, adversary state, recorded history) so a
//! killed run resumes byte-identical to a straight-through one.

use crate::adversary::{Adversary, RoundCtx};
use crate::checkpoint::{
    read_grad, read_history, read_rng, read_rng_state, write_grad, write_history, write_rng,
    write_rng_state, ByteReader, ByteWriter,
};
use crate::client::{BenignClient, RoundScratch};
use crate::config::FedConfig;
use crate::defense::DefensePipeline;
use crate::faults::{
    validate_grad, validate_shared, validate_upload, FaultDecision, FaultInjector, FaultPlan,
};
use crate::history::{RoundDefense, RoundFaults, TrainingHistory};
use crate::model::{ClientModel, MfClientModel};
use crate::server::{Server, SumAggregator};
use crate::store::{ClientStore, DenseStore, ShardedStore, StoreBackend};
use fedrec_data::InteractionSource;
use fedrec_linalg::{Matrix, SeededRng, SparseGrad};
use fedrec_recsys::UserRowSource;
use std::sync::Arc;

/// Checkpoint header magic ("FEDCKPT\0" little-endian-ish constant).
const CHECKPOINT_MAGIC: u64 = 0x4645_4443_4B50_5400;
/// Checkpoint layout version; bumped on any format change.
/// v2: model-seam fingerprint (model name + shared length), the flat
/// shared-parameter block after `V`, and per-pending-upload shared
/// gradients.
/// v3: the history block lost its HR@10 and ER@10 lists.
/// v4: FedRecAttack's adversary blob lost its per-round loss trace.
const CHECKPOINT_VERSION: u64 = 4;

/// A benign upload in flight: produced in `produced_round` against that
/// round's item matrix, due to arrive (staleness-downweighted) in
/// `due_round`.
#[derive(Debug, Clone)]
struct PendingUpload {
    due_round: usize,
    produced_round: usize,
    client_id: usize,
    /// `due_round − produced_round`: how many rounds stale the gradient
    /// is at arrival.
    staleness: usize,
    grad: SparseGrad,
    /// The upload's shared-parameter gradient (empty for MF), delayed and
    /// staleness-downweighted alongside the item gradient.
    shared: Vec<f32>,
}

/// Pooled state of the parallel round engine, reused across epochs.
#[derive(Debug, Default)]
struct RoundEngine {
    /// One scratch per worker thread.
    scratches: Vec<RoundScratch>,
    /// Upload slot per selected client (benign prefix, then malicious).
    outs: Vec<SparseGrad>,
    /// Shared-parameter gradient slot paired 1:1 with `outs` (empty vecs
    /// for MF); every swap/compaction of `outs` is mirrored here so the
    /// pairing survives the fault and defense stages.
    shared_outs: Vec<Vec<f32>>,
    /// Loss slot per selected benign client; `None` = nothing to train on.
    losses: Vec<Option<f32>>,
}

/// A federated recommendation deployment under (possible) attack and
/// (possible) defense.
pub struct Simulation {
    server: Server,
    store: Box<dyn ClientStore>,
    /// The model seam: what a local round computes and whether a flat
    /// shared block `Θ` rides alongside `V`.
    model: Box<dyn ClientModel>,
    /// The server-side shared-parameter block (empty for MF).
    shared: Vec<f32>,
    adversary: Box<dyn Adversary>,
    num_malicious: usize,
    defense: DefensePipeline,
    cfg: FedConfig,
    rng: SeededRng,
    adv_rng: SeededRng,
    engine: RoundEngine,
    /// Which benign clients have ever been selected, plus their count —
    /// the "participants touched" side of the `materialized ≤ touched`
    /// scale invariant.
    touched: Vec<bool>,
    touched_count: usize,
    /// Fault sampler; `None` (the default) leaves the round loop exactly
    /// as it was — no gate, no counters, byte-identical behavior.
    faults: Option<FaultInjector>,
    /// Straggler uploads waiting to arrive, in enqueue order (which is
    /// `(produced_round, client_id)` order, so draining is deterministic).
    pending: Vec<PendingUpload>,
    /// The next epoch [`Simulation::run_segment`] will execute — the
    /// resume cursor; manual [`Simulation::step_faulted`] calls do not
    /// advance it.
    next_epoch: usize,
}

impl Simulation {
    /// Build a simulation over `data` with `num_malicious` malicious
    /// client slots controlled by `adversary` and plain sum aggregation.
    pub fn new<D: InteractionSource + ?Sized>(
        data: &D,
        cfg: FedConfig,
        adversary: Box<dyn Adversary>,
        num_malicious: usize,
    ) -> Self {
        let plain = DefensePipeline::plain(Box::new(SumAggregator));
        Self::with_defense(data, cfg, adversary, num_malicious, plain)
    }

    /// Like [`Simulation::new`] but with a full in-loop defense pipeline
    /// (detector → flagged-client exclusion → robust aggregator), or just
    /// a robust aggregator through [`DefensePipeline::plain`]. When the
    /// pipeline carries a detector, every round records a
    /// [`RoundDefense`] into the run's [`TrainingHistory`].
    ///
    /// Uses the eager [`DenseStore`]; million-user populations should go
    /// through [`Simulation::with_model`] and a sharded backend instead.
    pub fn with_defense<D: InteractionSource + ?Sized>(
        data: &D,
        cfg: FedConfig,
        adversary: Box<dyn Adversary>,
        num_malicious: usize,
        defense: DefensePipeline,
    ) -> Self {
        let store = |rng: &mut SeededRng| -> Box<dyn ClientStore> {
            Box::new(DenseStore::build(data, cfg.k, rng))
        };
        let mf = Box::new(MfClientModel);
        Self::build(
            data.num_items(),
            cfg,
            mf,
            adversary,
            num_malicious,
            defense,
            store,
        )
    }

    /// Build a simulation over a shared interaction source with an
    /// explicit model and client-state backend. `model` defines the local
    /// step and the (possibly empty) flat shared-parameter block `Θ` the
    /// server maintains alongside `V`; [`MfClientModel`] is the paper's
    /// matrix factorization.
    ///
    /// With [`StoreBackend::Sharded`] the population is never built up
    /// front: a client materializes on first participation, round cost is
    /// `O(|U'|)`, and the run is bit-identical to the dense backend for
    /// any thread count (the construction RNG stream is checkpointed and
    /// replayed per user).
    pub fn with_model(
        data: Arc<dyn InteractionSource + Send + Sync>,
        cfg: FedConfig,
        model: Box<dyn ClientModel>,
        adversary: Box<dyn Adversary>,
        num_malicious: usize,
        defense: DefensePipeline,
        backend: StoreBackend,
    ) -> Self {
        let num_items = data.num_items();
        let store = |rng: &mut SeededRng| -> Box<dyn ClientStore> {
            match backend {
                StoreBackend::Dense => Box::new(DenseStore::build(&*data, cfg.k, rng)),
                StoreBackend::Sharded { shard_rows } => {
                    Box::new(ShardedStore::build(data, cfg.k, rng, shard_rows))
                }
            }
        };
        Self::build(
            num_items,
            cfg,
            model,
            adversary,
            num_malicious,
            defense,
            store,
        )
    }

    /// The one construction path. Draw order is `V` → `Θ` → client store
    /// (`store` draws from the stream it is handed), mirroring the
    /// shared-then-private order of the paper's setup. [`MfClientModel`]
    /// draws nothing for `Θ`, which is why every MF run is byte-identical
    /// whichever constructor built it.
    fn build(
        num_items: usize,
        cfg: FedConfig,
        model: Box<dyn ClientModel>,
        adversary: Box<dyn Adversary>,
        num_malicious: usize,
        defense: DefensePipeline,
        store: impl FnOnce(&mut SeededRng) -> Box<dyn ClientStore>,
    ) -> Self {
        cfg.validate();
        let mut rng = SeededRng::new(cfg.seed);
        let server = Server::new(
            Matrix::random_normal(num_items, cfg.k, 0.0, 0.1, &mut rng),
            cfg.lr,
        );
        let shared = model.init_shared(&mut rng);
        assert_eq!(
            shared.len(),
            model.shared_len(),
            "model '{}' initialized a shared block of the wrong length",
            model.name()
        );
        let store = store(&mut rng);
        let adv_rng = rng.fork(0xADBE);
        let touched = vec![false; store.num_users()];
        Self {
            server,
            store,
            model,
            shared,
            adversary,
            num_malicious,
            defense,
            cfg,
            rng,
            adv_rng,
            engine: RoundEngine::default(),
            touched,
            touched_count: 0,
            faults: None,
            pending: Vec::new(),
            next_epoch: 0,
        }
    }

    /// Attach a fault plan. `seed` is the fault stream's own seed
    /// (derived per matrix cell); fault decisions are pure functions of
    /// `(seed, round, client)` and never consume the simulation's RNGs,
    /// so enabling a zero-rate plan changes nothing but the bookkeeping.
    pub fn enable_faults(&mut self, plan: FaultPlan, seed: u64) {
        self.faults = Some(FaultInjector::new(plan, seed));
    }

    /// Straggler uploads currently in flight.
    pub fn pending_uploads(&self) -> usize {
        self.pending.len()
    }

    /// The next epoch [`Simulation::run_segment`] will execute.
    pub fn next_epoch(&self) -> usize {
        self.next_epoch
    }

    /// The configuration in use.
    pub fn config(&self) -> &FedConfig {
        &self.cfg
    }

    /// Number of benign clients.
    pub fn num_benign(&self) -> usize {
        self.store.num_users()
    }

    /// Number of malicious client slots.
    pub fn num_malicious(&self) -> usize {
        self.num_malicious
    }

    /// Current shared item matrix.
    pub fn items(&self) -> &Matrix {
        self.server.items()
    }

    /// The flat server-side shared-parameter block `Θ` (empty for MF).
    pub fn shared(&self) -> &[f32] {
        &self.shared
    }

    /// Benign clients whose state is currently materialized in memory
    /// (always `n` for the dense backend; exactly the ever-selected
    /// clients for the sharded one).
    pub fn rows_materialized(&self) -> usize {
        self.store.materialized()
    }

    /// Distinct benign clients selected in at least one round so far.
    pub fn participants_touched(&self) -> usize {
        self.touched_count
    }

    /// The population's current user rows as a streaming source —
    /// measurement-only, and reading never materializes lazy state.
    pub fn user_rows(&self) -> &dyn UserRowSource {
        self.store.as_user_rows()
    }

    /// Assemble the (measurement-only) global user matrix `U` from the
    /// benign clients' private vectors. `O(n·k)` memory by definition —
    /// million-user runs should stream [`Simulation::user_rows`] instead.
    pub fn user_factors(&self) -> Matrix {
        let k = self.cfg.k;
        let n = self.store.num_users();
        let mut m = Matrix::zeros(n, k);
        for u in 0..n {
            self.store.write_user_row(u, m.row_mut(u));
        }
        m
    }

    /// Run the full training loop and return what the rounds recorded.
    pub fn run(&mut self) -> TrainingHistory {
        let mut history = TrainingHistory::new();
        self.run_segment(&mut history, self.cfg.epochs);
        history
    }

    /// Drive rounds from the internal resume cursor up to (exclusive)
    /// `stop_after`, appending each round's loss, [`RoundDefense`] (when
    /// a detector is attached) and [`RoundFaults`] (when a fault plan is
    /// attached) to `history` — the primitive behind [`Simulation::run`],
    /// checkpoint-resumed continuation and per-epoch measurement: a caller
    /// that evaluates between rounds steps one epoch at a time and reads
    /// [`Simulation::items`], [`Simulation::user_rows`],
    /// [`Simulation::shared`] and the store counters in between. A
    /// straight-through run and a run split into segments (with a
    /// [`Simulation::checkpoint`] / [`Simulation::restore`] round-trip in
    /// between) record byte-identical histories and end in byte-identical
    /// states.
    pub fn run_segment(&mut self, history: &mut TrainingHistory, stop_after: usize) {
        assert!(
            stop_after <= self.cfg.epochs,
            "stop_after {} exceeds configured epochs {}",
            stop_after,
            self.cfg.epochs
        );
        while self.next_epoch < stop_after {
            let epoch = self.next_epoch;
            let (loss, defense, faults) = self.step_faulted(epoch);
            history.losses.push(loss);
            if let Some(d) = defense {
                history.defense.push(d);
            }
            if let Some(f) = faults {
                history.faults.push(f);
            }
            self.next_epoch = epoch + 1;
        }
    }

    /// Execute one round (epoch): the benign-loss total, the defense
    /// record (when a detector is attached), and the round's fault
    /// counters (when a fault plan is attached). It does not advance the
    /// resume cursor of [`Simulation::run_segment`].
    pub fn step_faulted(
        &mut self,
        epoch: usize,
    ) -> (f32, Option<RoundDefense>, Option<RoundFaults>) {
        let num_benign = self.store.num_users();
        let total_slots = num_benign + self.num_malicious;
        let batch = ((total_slots as f64) * self.cfg.client_fraction).ceil() as usize;
        let batch = batch.clamp(1, total_slots);
        let mut selected = self.rng.sample_indices(total_slots, batch);
        selected.sort_unstable();
        let benign_sel: Vec<usize> = selected
            .iter()
            .copied()
            .filter(|&s| s < num_benign)
            .collect();
        let malicious_sel: Vec<usize> = selected
            .iter()
            .copied()
            .filter(|&s| s >= num_benign)
            .map(|s| s - num_benign)
            .collect();
        for &b in &benign_sel {
            if !self.touched[b] {
                self.touched[b] = true;
                self.touched_count += 1;
            }
        }

        let (benign_produced, loss) = self.benign_updates(&benign_sel);
        let mut total = benign_produced;
        let mut malicious_from = benign_produced;

        // Fault stage: a pure function of (fault_seed, round, client) —
        // it consumes none of the simulation's RNG streams, so the shape
        // of every other stage is untouched and the faulted run stays
        // thread-count- and resume-invariant.
        let mut fault_rec = self.faults.map(|inj| {
            let rec = self.fault_stage(inj, epoch, &benign_sel, benign_produced);
            total = rec.0;
            malicious_from = rec.0;
            rec.1
        });

        if !malicious_sel.is_empty() {
            let ctx = RoundCtx {
                round: epoch,
                lr: self.cfg.lr,
                clip_norm: self.cfg.clip_norm,
                selected_malicious: &malicious_sel,
            };
            let poisoned = self.adversary.poison_with_shared(
                self.server.items(),
                &self.shared,
                &ctx,
                &mut self.adv_rng,
            );
            assert_eq!(
                poisoned.len(),
                malicious_sel.len(),
                "adversary must answer for every selected malicious client"
            );
            let num_items = self.server.items().rows();
            for (g, s) in poisoned {
                // The quarantine gate covers *every* upload when a fault
                // plan is active — a malformed adversarial payload (item
                // or shared part) is rejected before the detector ever
                // scores it.
                if let Some(rec) = fault_rec.as_mut() {
                    if validate_grad(&g, num_items).is_err()
                        || validate_shared(&s, self.shared.len()).is_err()
                    {
                        rec.rejected += 1;
                        continue;
                    }
                }
                if total < self.engine.outs.len() {
                    self.engine.outs[total] = g;
                    self.engine.shared_outs[total] = s;
                } else {
                    self.engine.outs.push(g);
                    self.engine.shared_outs.push(s);
                }
                total += 1;
            }
        }

        // Defense stage: detection (over uploads in client-id order, so
        // the report is thread-count-invariant), optional exclusion, then
        // aggregation of the survivors — item and shared parts paired.
        let (aggregate, shared_agg, record) = self.defense.process_paired(
            &mut self.engine.outs[..total],
            &mut self.engine.shared_outs[..total],
            malicious_from,
            epoch,
            self.server.items().rows(),
            self.cfg.k,
        );
        let quorum_skipped = fault_rec.as_ref().is_some_and(|r| r.quorum_skipped);
        if !quorum_skipped {
            self.server.apply(&aggregate);
            if !shared_agg.is_empty() {
                // Θ ← Θ − η Σ ∇Θ_i (Eq. 7 for the shared block).
                assert_eq!(shared_agg.len(), self.shared.len());
                fedrec_linalg::vector::axpy(-self.cfg.lr, &shared_agg, &mut self.shared);
            }
        }
        (loss, record, fault_rec)
    }

    /// Apply the fault injector to this round's produced benign uploads:
    /// drop/defer/corrupt per decision, drain due stragglers into the
    /// upload pool with staleness-aware downweighting, run the quarantine
    /// gate on every admitted payload, and check the participation
    /// quorum. Returns the number of admitted benign uploads (now
    /// compacted at the front of the pool) and the round's counters.
    fn fault_stage(
        &mut self,
        inj: FaultInjector,
        epoch: usize,
        benign_sel: &[usize],
        benign_produced: usize,
    ) -> (usize, RoundFaults) {
        let mut rec = RoundFaults {
            epoch,
            selected: benign_sel.len(),
            ..RoundFaults::default()
        };
        // Produced upload j belongs to the j-th selected benign client
        // whose local round yielded an update (compaction preserved
        // selection order, which is client-id order).
        let producers: Vec<usize> = benign_sel
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.engine.losses[i].is_some())
            .map(|(_, &c)| c)
            .collect();
        debug_assert_eq!(producers.len(), benign_produced);
        let num_items = self.server.items().rows();
        let k = self.cfg.k;

        let mut kept = 0usize;
        for (j, &client) in producers.iter().enumerate() {
            match inj.decide(epoch, client) {
                FaultDecision::None => {
                    if validate_grad(&self.engine.outs[j], num_items).is_ok()
                        && validate_shared(&self.engine.shared_outs[j], self.shared.len()).is_ok()
                    {
                        self.engine.outs.swap(kept, j);
                        self.engine.shared_outs.swap(kept, j);
                        kept += 1;
                    } else {
                        rec.rejected += 1;
                    }
                }
                FaultDecision::Dropped => rec.dropped += 1,
                FaultDecision::TimedOut { retried } => {
                    rec.dropped += 1;
                    rec.retried += retried;
                }
                FaultDecision::Late { delay, retried } => {
                    rec.deferred += 1;
                    rec.retried += retried;
                    let grad = std::mem::replace(&mut self.engine.outs[j], SparseGrad::new(k));
                    let shared = std::mem::take(&mut self.engine.shared_outs[j]);
                    self.pending.push(PendingUpload {
                        due_round: epoch + delay,
                        produced_round: epoch,
                        client_id: client,
                        staleness: delay,
                        grad,
                        shared,
                    });
                }
                FaultDecision::Corrupted(kind) => {
                    // Corruption mangles the raw wire parts; the gate
                    // must (and provably does) quarantine every kind.
                    let (raw_items, raw_values) =
                        inj.corrupt(&self.engine.outs[j], kind, epoch, client);
                    let verdict = validate_upload(&raw_items, &raw_values, k, num_items);
                    debug_assert!(verdict.is_err(), "corrupted payload passed the gate");
                    rec.rejected += 1;
                }
            }
        }

        // Deliver stragglers that are due. The queue is in enqueue order
        // = (produced_round, client_id) order, so arrival order is
        // deterministic without a sort. A stale gradient was computed
        // against the round-(t−d) item matrix; downweight it by its
        // staleness so a long-delayed update cannot yank `V` as hard as a
        // fresh one.
        let (due, still): (Vec<PendingUpload>, Vec<PendingUpload>) =
            self.pending.drain(..).partition(|p| p.due_round <= epoch);
        self.pending = still;
        for mut p in due {
            debug_assert_eq!(p.due_round, p.produced_round + p.staleness);
            let weight = 1.0 / (1.0 + p.staleness as f32);
            p.grad.scale(weight);
            // The shared part is downweighted by the same staleness
            // factor — both halves of the upload were computed against
            // the same stale parameters.
            for x in p.shared.iter_mut() {
                *x *= weight;
            }
            if validate_grad(&p.grad, num_items).is_ok()
                && validate_shared(&p.shared, self.shared.len()).is_ok()
            {
                if kept < self.engine.outs.len() {
                    self.engine.outs[kept] = p.grad;
                    self.engine.shared_outs[kept] = p.shared;
                } else {
                    self.engine.outs.push(p.grad);
                    self.engine.shared_outs.push(p.shared);
                }
                kept += 1;
                rec.late += 1;
            } else {
                rec.rejected += 1;
            }
        }

        // Quorum: below the participation floor the server does not
        // apply this round's aggregate (the defense pipeline still runs
        // so detection series stay aligned).
        let arrived = kept;
        if rec.selected > 0 && (arrived as f64) < inj.plan().quorum_floor * (rec.selected as f64) {
            rec.quorum_skipped = true;
        }
        (kept, rec)
    }

    /// Compute the selected benign clients' updates (in parallel when
    /// configured), leaving them compacted into the first slots of the
    /// engine's upload pool in client-id order. Returns the number of
    /// produced updates and the summed loss (also in client-id order, so
    /// the total is bit-identical for any thread count).
    fn benign_updates(&mut self, benign_sel: &[usize]) -> (usize, f32) {
        let cfg = self.cfg;
        let n = benign_sel.len();
        let engine = &mut self.engine;
        while engine.outs.len() < n {
            engine.outs.push(SparseGrad::new(cfg.k));
        }
        while engine.shared_outs.len() < n {
            engine.shared_outs.push(Vec::new());
        }
        engine.losses.clear();
        engine.losses.resize(n, None);

        // Small batches aren't worth the spawn overhead; the result is
        // identical either way.
        let threads = if n < 2 * cfg.threads { 1 } else { cfg.threads };
        while engine.scratches.len() < threads.max(1) {
            engine.scratches.push(RoundScratch::new());
        }

        // The store hands back exactly the selected clients in id order,
        // materializing lazily-stored ones — O(|U'|), no population scan.
        let mut refs: Vec<&mut BenignClient> = self.store.selected_mut(benign_sel);

        let items = self.server.items();
        let model = &*self.model;
        let shared = self.shared.as_slice();
        let run_one = |c: &mut BenignClient,
                       scratch: &mut RoundScratch,
                       out: &mut SparseGrad,
                       shared_out: &mut Vec<f32>| {
            model.local_round(c, items, shared, &cfg, scratch, out, shared_out)
        };

        if threads <= 1 {
            let scratch = &mut engine.scratches[0];
            for (i, c) in refs.iter_mut().enumerate() {
                engine.losses[i] =
                    run_one(c, scratch, &mut engine.outs[i], &mut engine.shared_outs[i]);
            }
        } else {
            let chunk = n.div_ceil(threads);
            std::thread::scope(|scope| {
                for ((((shard, outs), shared_outs), losses), scratch) in refs
                    .chunks_mut(chunk)
                    .zip(engine.outs[..n].chunks_mut(chunk))
                    .zip(engine.shared_outs[..n].chunks_mut(chunk))
                    .zip(engine.losses.chunks_mut(chunk))
                    .zip(engine.scratches.iter_mut())
                {
                    scope.spawn(|| {
                        for (((c, out), shared_out), loss) in
                            shard.iter_mut().zip(outs).zip(shared_outs).zip(losses)
                        {
                            *loss = run_one(c, scratch, out, shared_out);
                        }
                    });
                }
            });
        }

        // Compact produced uploads to the front of the pool; slots stay in
        // client-id order because the shards were contiguous id-ordered
        // chunks written back by index. Shared slots travel with their
        // item slots.
        let mut produced = 0usize;
        let mut loss = 0.0f32;
        for i in 0..n {
            if let Some(l) = engine.losses[i] {
                loss += l;
                engine.outs.swap(produced, i);
                engine.shared_outs.swap(produced, i);
                produced += 1;
            }
        }
        (produced, loss)
    }

    /// Serialize the complete mutable state of the run — server `V`, all
    /// RNG streams (full states, including cached Box–Muller spares),
    /// every ever-touched client's private state, the pending straggler
    /// queue, the adversary's state, and the recorded `history` prefix —
    /// into a binary blob a fresh, identically-configured simulation can
    /// [`Simulation::restore`] and continue **byte-identical** to a
    /// straight-through run.
    ///
    /// Takes `&mut self` because reading touched clients goes through the
    /// store's selected-clients path (a no-op materialization for clients
    /// that already participated).
    pub fn checkpoint(&mut self, history: &TrainingHistory) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(CHECKPOINT_MAGIC);
        w.u64(CHECKPOINT_VERSION);
        // Configuration fingerprint, asserted on restore: a checkpoint is
        // only meaningful against the same run setup.
        w.u64(self.cfg.seed);
        w.usize(self.cfg.epochs);
        w.usize(self.cfg.k);
        w.usize(self.store.num_users());
        w.usize(self.num_malicious);
        // Model-seam fingerprint: a checkpoint written by one model
        // family must not restore into another.
        w.bytes(self.model.name().as_bytes());
        w.usize(self.shared.len());
        match &self.faults {
            Some(inj) => {
                w.bool(true);
                w.u64(inj.seed());
            }
            None => w.bool(false),
        }
        w.usize(self.next_epoch);
        write_rng(&mut w, &self.rng);
        write_rng(&mut w, &self.adv_rng);
        let v = self.server.items();
        w.usize(v.rows());
        w.usize(v.cols());
        for r in 0..v.rows() {
            for &x in v.row(r) {
                w.f32(x);
            }
        }
        w.f32_slice(&self.shared);
        // Touched clients as a sparse id list; untouched clients are
        // still in their constructor-derived state and need no bytes.
        let touched_ids: Vec<usize> = self
            .touched
            .iter()
            .enumerate()
            .filter_map(|(i, &t)| t.then_some(i))
            .collect();
        w.usize(touched_ids.len());
        for &id in &touched_ids {
            w.usize(id);
        }
        for c in self.store.selected_mut(&touched_ids) {
            let (user_vec, rng_state) = c.checkpoint_state();
            w.f32_slice(user_vec);
            write_rng_state(&mut w, rng_state);
        }
        w.usize(self.pending.len());
        for p in &self.pending {
            w.usize(p.due_round);
            w.usize(p.produced_round);
            w.usize(p.client_id);
            w.usize(p.staleness);
            write_grad(&mut w, &p.grad);
            w.f32_slice(&p.shared);
        }
        let mut blob = Vec::new();
        self.adversary.checkpoint_state(&mut blob);
        w.bytes(&blob);
        write_history(&mut w, history);
        w.into_bytes()
    }

    /// Restore a [`Simulation::checkpoint`] into this simulation, which
    /// must have been freshly built with the *same* configuration (data,
    /// config, adversary, defense, backend — the checkpoint carries a
    /// fingerprint and panics on mismatch). Returns the history recorded
    /// up to the checkpointed round; continue with
    /// [`Simulation::run_segment`] to finish the run byte-identically.
    pub fn restore(&mut self, bytes: &[u8]) -> TrainingHistory {
        let mut r = ByteReader::new(bytes);
        assert_eq!(r.u64(), CHECKPOINT_MAGIC, "not a fedrec checkpoint");
        assert_eq!(r.u64(), CHECKPOINT_VERSION, "checkpoint version mismatch");
        assert_eq!(r.u64(), self.cfg.seed, "checkpoint seed mismatch");
        assert_eq!(r.usize(), self.cfg.epochs, "checkpoint epochs mismatch");
        assert_eq!(r.usize(), self.cfg.k, "checkpoint k mismatch");
        assert_eq!(
            r.usize(),
            self.store.num_users(),
            "checkpoint population mismatch"
        );
        assert_eq!(
            r.usize(),
            self.num_malicious,
            "checkpoint malicious-slot mismatch"
        );
        assert_eq!(
            r.bytes(),
            self.model.name().as_bytes(),
            "checkpoint model mismatch"
        );
        assert_eq!(
            r.usize(),
            self.shared.len(),
            "checkpoint shared-length mismatch"
        );
        // The writer records a fault seed only when a plan is attached.
        let had_faults = r.bool();
        match (&self.faults, had_faults) {
            (Some(inj), true) => {
                assert_eq!(inj.seed(), r.u64(), "checkpoint fault seed mismatch")
            }
            (None, false) => {}
            (Some(_), false) | (None, true) => {
                panic!("checkpoint fault configuration mismatch")
            }
        }
        let next_epoch = r.usize();
        let rng = read_rng(&mut r);
        let adv_rng = read_rng(&mut r);
        let rows = r.usize();
        let cols = r.usize();
        assert_eq!(
            rows,
            self.server.items().rows(),
            "checkpoint V row mismatch"
        );
        assert_eq!(cols, self.cfg.k, "checkpoint V column mismatch");
        let mut v = Matrix::zeros(rows, cols);
        for i in 0..rows {
            for x in v.row_mut(i) {
                *x = r.f32();
            }
        }
        let shared = r.f32_vec();
        assert_eq!(
            shared.len(),
            self.shared.len(),
            "checkpoint shared-block length mismatch"
        );
        let nt = r.count(8);
        let touched_ids: Vec<usize> = (0..nt).map(|_| r.usize()).collect();
        // `touched` is indexed by these ids and `selected_mut` requires them
        // sorted and distinct: check before the first write, so a damaged
        // list leaves this simulation as it was.
        let n = self.num_benign();
        assert!(
            touched_ids.windows(2).all(|w| w[0] < w[1])
                && touched_ids.last().is_none_or(|&id| id < n),
            "checkpoint touched ids are not strictly increasing below the population {n}"
        );
        self.next_epoch = next_epoch;
        self.rng = rng;
        self.adv_rng = adv_rng;
        self.server = Server::new(v, self.cfg.lr);
        self.shared = shared;
        self.touched.fill(false);
        for &id in &touched_ids {
            self.touched[id] = true;
        }
        self.touched_count = touched_ids.len();
        // Materialize-by-replay, then overwrite: the store rebuilds each
        // touched client through its normal constructor path (so a lazy
        // backend's materialization counters match a straight-through
        // run), and the checkpointed private state replaces the freshly
        // initialized one.
        for c in self.store.selected_mut(&touched_ids) {
            let user_vec = r.f32_vec();
            let rng_state = read_rng_state(&mut r);
            c.restore_state(&user_vec, rng_state);
        }
        // Four `usize` fields, a gradient (`k` and two empty lists) and an
        // empty shared block per pending upload.
        let np = r.count(4 * 8 + 3 * 8 + 8);
        self.pending = (0..np)
            .map(|_| PendingUpload {
                due_round: r.usize(),
                produced_round: r.usize(),
                client_id: r.usize(),
                staleness: r.usize(),
                grad: read_grad(&mut r),
                shared: r.f32_vec(),
            })
            .collect();
        let blob = r.bytes().to_vec();
        self.adversary.restore_state(&blob);
        let history = read_history(&mut r);
        assert!(r.is_exhausted(), "trailing bytes in checkpoint");
        history
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NoAttack;
    use fedrec_data::synthetic::SyntheticConfig;

    fn smoke_cfg() -> FedConfig {
        FedConfig {
            k: 8,
            epochs: 10,
            lr: 0.05,
            ..FedConfig::default()
        }
    }

    #[test]
    fn loss_decreases_without_attack() {
        let data = SyntheticConfig::smoke().generate(1);
        let mut sim = Simulation::new(&data, smoke_cfg(), Box::new(NoAttack), 0);
        let h = sim.run();
        assert_eq!(h.losses.len(), 10);
        assert!(
            h.losses[9] < h.losses[0],
            "federated training failed to descend: {:?}",
            h.losses
        );
    }

    #[test]
    fn run_is_deterministic() {
        let data = SyntheticConfig::smoke().generate(2);
        let run = || {
            let mut sim = Simulation::new(&data, smoke_cfg(), Box::new(NoAttack), 5);
            let h = sim.run();
            (h.losses, sim.items().clone())
        };
        let (l1, v1) = run();
        let (l2, v2) = run();
        assert_eq!(l1, l2);
        assert_eq!(v1, v2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let data = SyntheticConfig::smoke().generate(3);
        let result = |threads: usize| {
            let cfg = FedConfig {
                threads,
                ..smoke_cfg()
            };
            let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 0);
            let h = sim.run();
            (h.losses, sim.items().clone())
        };
        let (l1, v1) = result(1);
        let (l4, v4) = result(4);
        assert_eq!(l1, l4, "losses diverge across thread counts");
        assert_eq!(v1, v4, "item factors diverge across thread counts");
    }

    #[test]
    fn partial_participation_trains_fewer_clients_per_round() {
        let data = SyntheticConfig::smoke().generate(4);
        let cfg = FedConfig {
            client_fraction: 0.25,
            ..smoke_cfg()
        };
        let mut full = Simulation::new(&data, smoke_cfg(), Box::new(NoAttack), 0);
        let mut part = Simulation::new(&data, cfg, Box::new(NoAttack), 0);
        let lf = full.step_faulted(0).0;
        let lp = part.step_faulted(0).0;
        assert!(
            lp < lf * 0.5,
            "quarter participation should produce well under half the loss mass"
        );
    }

    #[test]
    fn user_factors_shape_matches() {
        let data = SyntheticConfig::smoke().generate(6);
        let sim = Simulation::new(&data, smoke_cfg(), Box::new(NoAttack), 3);
        let u = sim.user_factors();
        assert_eq!(u.rows(), data.num_users());
        assert_eq!(u.cols(), 8);
        assert_eq!(sim.num_malicious(), 3);
        assert_eq!(sim.num_benign(), data.num_users());
    }

    /// An adversary that records how often it is called and always uploads
    /// a fixed large gradient on item 0.
    struct Recording {
        calls: std::rc::Rc<std::cell::RefCell<usize>>,
    }

    impl Adversary for Recording {
        fn poison(
            &mut self,
            items: &Matrix,
            ctx: &RoundCtx<'_>,
            _rng: &mut SeededRng,
        ) -> Vec<SparseGrad> {
            *self.calls.borrow_mut() += 1;
            ctx.selected_malicious
                .iter()
                .map(|_| {
                    let mut g = SparseGrad::new(items.cols());
                    g.accumulate(0, 1.0, &vec![1.0; items.cols()]);
                    g
                })
                .collect()
        }

        fn name(&self) -> &'static str {
            "recording"
        }
    }

    #[test]
    fn adversary_participates_and_moves_items() {
        let data = SyntheticConfig::smoke().generate(7);
        let calls = std::rc::Rc::new(std::cell::RefCell::new(0usize));
        let adv = Recording {
            calls: calls.clone(),
        };
        let mut with_attack = Simulation::new(&data, smoke_cfg(), Box::new(adv), 10);
        let mut without = Simulation::new(&data, smoke_cfg(), Box::new(NoAttack), 10);
        with_attack.run();
        without.run();
        assert_eq!(
            *calls.borrow(),
            10,
            "full participation selects malicious clients every epoch"
        );
        assert_ne!(
            with_attack.items().row(0),
            without.items().row(0),
            "poisoned item row should differ"
        );
    }

    use crate::faults::FaultPlan;

    #[test]
    fn gate_only_plan_is_byte_identical_to_no_plan() {
        let data = SyntheticConfig::smoke().generate(8);
        let run = |gate: bool| {
            let mut sim = Simulation::new(&data, smoke_cfg(), Box::new(NoAttack), 4);
            if gate {
                sim.enable_faults(FaultPlan::gate_only(), 77);
            }
            let h = sim.run();
            (h.losses, sim.items().clone(), h.faults.len())
        };
        let (l0, v0, f0) = run(false);
        let (l1, v1, f1) = run(true);
        assert_eq!(l0, l1, "a zero-rate plan must not change the loss curve");
        assert_eq!(v0, v1, "a zero-rate plan must not change V");
        assert_eq!((f0, f1), (0, 10), "only the gated run records counters");
    }

    #[test]
    fn faulted_run_is_thread_count_invariant() {
        let data = SyntheticConfig::smoke().generate(9);
        let run = |threads: usize| {
            let cfg = FedConfig {
                threads,
                ..smoke_cfg()
            };
            let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 4);
            sim.enable_faults(FaultPlan::smoke(), 13);
            let h = sim.run();
            (h.losses, h.faults, sim.items().clone())
        };
        let (l1, f1, v1) = run(1);
        for t in [2usize, 8] {
            let (lt, ft, vt) = run(t);
            assert_eq!(l1, lt, "faulted losses diverge at {t} threads");
            assert_eq!(f1, ft, "fault counters diverge at {t} threads");
            assert_eq!(v1, vt, "faulted V diverges at {t} threads");
        }
    }

    #[test]
    fn faults_actually_fire_and_stragglers_arrive() {
        let data = SyntheticConfig::smoke().generate(10);
        let cfg = FedConfig {
            epochs: 30,
            ..smoke_cfg()
        };
        let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 0);
        sim.enable_faults(
            FaultPlan {
                dropout: 0.1,
                straggler: 0.2,
                corruption: 0.1,
                ..FaultPlan::smoke()
            },
            21,
        );
        let h = sim.run();
        assert_eq!(h.faults.len(), 30);
        let (dropped, late, rejected, _retried, _skipped) = h.fault_totals();
        let deferred: usize = h.faults.iter().map(|f| f.deferred).sum();
        assert!(dropped > 0, "dropout rate 0.1 produced no drops");
        assert!(rejected > 0, "corruption rate 0.1 produced no rejections");
        assert!(deferred > 0, "straggler rate 0.2 deferred nothing");
        assert!(late > 0, "no straggler upload ever arrived");
        assert_eq!(
            deferred,
            late + sim.pending_uploads(),
            "every deferred upload either arrived or is still pending"
        );
        // Training still descends through the churn.
        assert!(h.losses[29] < h.losses[0], "faulted training diverged");
    }

    #[test]
    fn quorum_floor_skips_starved_rounds() {
        let data = SyntheticConfig::smoke().generate(11);
        let mut sim = Simulation::new(&data, smoke_cfg(), Box::new(NoAttack), 0);
        sim.enable_faults(
            FaultPlan {
                dropout: 1.0,
                straggler: 0.0,
                corruption: 0.0,
                quorum_floor: 0.5,
                ..FaultPlan::gate_only()
            },
            5,
        );
        let before = sim.items().clone();
        let h = sim.run();
        assert!(
            h.faults.iter().all(|f| f.quorum_skipped),
            "total dropout must starve every round below quorum"
        );
        assert_eq!(
            sim.items(),
            &before,
            "skipped rounds must not move the item matrix"
        );
    }

    /// An adversary that uploads NaN-poisoned gradients: without the
    /// quarantine gate these reach the aggregator and destroy `V`.
    struct NanAdversary;

    impl Adversary for NanAdversary {
        fn poison(
            &mut self,
            items: &Matrix,
            ctx: &RoundCtx<'_>,
            _rng: &mut SeededRng,
        ) -> Vec<SparseGrad> {
            ctx.selected_malicious
                .iter()
                .map(|_| {
                    let mut g = SparseGrad::new(items.cols());
                    g.accumulate(0, 1.0, &vec![f32::NAN; items.cols()]);
                    g
                })
                .collect()
        }

        fn name(&self) -> &'static str {
            "nan"
        }
    }

    #[test]
    fn quarantine_gate_keeps_nan_uploads_out_of_v() {
        let data = SyntheticConfig::smoke().generate(12);
        let mut gated = Simulation::new(&data, smoke_cfg(), Box::new(NanAdversary), 3);
        gated.enable_faults(FaultPlan::gate_only(), 1);
        let h = gated.run();
        assert!(
            gated.items().row(0).iter().all(|x| x.is_finite()),
            "gated run must keep V finite"
        );
        let (_, _, rejected, _, _) = h.fault_totals();
        assert_eq!(rejected, 30, "3 NaN uploads × 10 rounds all quarantined");

        let mut open = Simulation::new(&data, smoke_cfg(), Box::new(NanAdversary), 3);
        let _ = open.run();
        assert!(
            open.items().row(0).iter().any(|x| x.is_nan()),
            "without the gate the NaN upload must poison V (the regression \
             this test pins)"
        );
    }

    /// Kill-and-resume with and without a fault plan: the checkpoint
    /// carries a fault seed only when a plan is attached, and both blob
    /// shapes must restore.
    #[test]
    fn checkpoint_resume_is_byte_identical() {
        let data = SyntheticConfig::smoke().generate(13);
        let cfg = FedConfig {
            epochs: 12,
            ..smoke_cfg()
        };
        for faulted in [true, false] {
            let build = || {
                let mut sim = Simulation::new(&data, cfg, Box::new(NoAttack), 4);
                if faulted {
                    sim.enable_faults(FaultPlan::smoke(), 31);
                }
                sim
            };
            // Straight-through reference.
            let mut straight = build();
            let h_straight = straight.run();

            // Killed at epoch 5, resumed in a fresh simulation.
            let mut first = build();
            let mut h_first = TrainingHistory::new();
            first.run_segment(&mut h_first, 5);
            let blob = first.checkpoint(&h_first);
            drop(first);
            let mut resumed = build();
            let mut h_resumed = resumed.restore(&blob);
            assert_eq!(resumed.next_epoch(), 5);
            resumed.run_segment(&mut h_resumed, cfg.epochs);

            assert_eq!(h_straight.losses, h_resumed.losses);
            assert_eq!(h_straight.faults, h_resumed.faults);
            assert_eq!(
                straight.items(),
                resumed.items(),
                "resumed V must be byte-identical to straight-through V (faulted: {faulted})"
            );
            assert_eq!(straight.user_factors(), resumed.user_factors());
            assert_eq!(
                straight.rows_materialized(),
                resumed.rows_materialized(),
                "materialization counters must replay identically"
            );
            assert_eq!(
                straight.participants_touched(),
                resumed.participants_touched()
            );
            // And a second checkpoint at the end agrees byte-for-byte.
            let b1 = straight.checkpoint(&h_straight);
            let b2 = resumed.checkpoint(&h_resumed);
            assert_eq!(b1, b2, "end-state checkpoints must be byte-identical");
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint seed mismatch")]
    fn restore_rejects_mismatched_config() {
        let data = SyntheticConfig::smoke().generate(14);
        let mut a = Simulation::new(&data, smoke_cfg(), Box::new(NoAttack), 0);
        let blob = a.checkpoint(&TrainingHistory::new());
        let other_cfg = FedConfig {
            seed: 999,
            ..smoke_cfg()
        };
        let mut b = Simulation::new(&data, other_cfg, Box::new(NoAttack), 0);
        let _ = b.restore(&blob);
    }

    /// A damaged touched-id list in a real mid-run checkpoint — an id equal
    /// to the population, a duplicate, a swapped pair — is refused with one
    /// named panic before `restore` writes anything, on both stores.
    #[test]
    fn restore_rejects_bad_touched_ids_before_writing() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let data = Arc::new(SyntheticConfig::smoke().generate(15));
        for backend in [StoreBackend::Dense, StoreBackend::sharded()] {
            let build = || {
                Simulation::with_model(
                    data.clone(),
                    smoke_cfg(),
                    Box::new(MfClientModel),
                    Box::new(NoAttack),
                    0,
                    DefensePipeline::plain(Box::new(SumAggregator)),
                    backend,
                )
            };
            let mut first = build();
            let mut history = TrainingHistory::new();
            first.run_segment(&mut history, 3);
            let blob = first.checkpoint(&history);
            let ids: Vec<usize> = (0..first.num_benign())
                .filter(|&i| first.touched[i])
                .collect();
            assert!(ids.len() >= 2, "need two touched ids to damage");
            // The list is written as its length, then one u64 per id.
            let words: Vec<u8> = std::iter::once(ids.len())
                .chain(ids.iter().copied())
                .flat_map(|x| (x as u64).to_le_bytes())
                .collect();
            let at = 8 + blob
                .windows(words.len())
                .position(|w| w == words)
                .expect("touched-id list in the blob");
            let last = ids.len() - 1;
            let cases = [
                ("id = population", vec![(last, first.num_benign())]),
                ("duplicate", vec![(1, ids[0])]),
                ("swapped", vec![(0, ids[1]), (1, ids[0])]),
            ];
            for (what, edits) in cases {
                let mut bad = blob.clone();
                for (i, id) in edits {
                    bad[at + 8 * i..at + 8 * i + 8].copy_from_slice(&(id as u64).to_le_bytes());
                }
                let mut fresh = build();
                let v0 = fresh.items().clone();
                let err = catch_unwind(AssertUnwindSafe(|| fresh.restore(&bad)))
                    .expect_err(&format!("{what}: restore accepted the list"));
                let msg = err
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| err.downcast_ref::<&str>().copied())
                    .unwrap_or_default();
                assert!(msg.contains("checkpoint touched ids"), "{what}: {msg}");
                assert_eq!(fresh.next_epoch(), 0, "{what}: cursor written");
                assert_eq!(fresh.items(), &v0, "{what}: V written");
            }
        }
    }
}
