//! The scenario matrix: every attack × every defense × every ρ, in
//! parallel, streamed as JSONL — over dense Table II datasets *or*
//! million-user scale-free populations.
//!
//! The paper evaluates attacks one table at a time; the §V-D/§VI question
//! — *how much do standard FL defenses see of each attack, and at what
//! accuracy cost?* — needs the full grid. This module fans the grid out
//! across scoped worker threads (the same engine pattern as the federated
//! round loop: a shared atomic cursor over an id-ordered work list, no
//! shared mutable state between cells) and streams one JSONL record per
//! cell per eval epoch into a run directory, one file per cell.
//!
//! # Populations and backends
//!
//! A grid runs over a [`Population`]: either a dense synthetic stand-in
//! for a Table II dataset ([`Population::Dense`], the historical path),
//! or a lazily generated scale-free population
//! ([`Population::ScaleFree`]) — the regime the paper's threat model
//! actually assumes, where attackers control a tiny fraction of a huge
//! user base. Cells are wired through
//! [`Simulation::with_model`] with the configured [`StoreBackend`], so a
//! million-user cell materializes only the clients the protocol selects
//! (`rows_materialized ≤ participants_touched`, recorded per record) and
//! the malicious users exist as lazily materialized rows of the
//! adversary's own shard store. Every cell evaluates through the one
//! streamed sweep ([`Evaluator::evaluate_user_range_mode`], or
//! [`Evaluator::evaluate_user_range_scored`] for NCF), which pulls user
//! rows from the store and never assembles the dense `n × k` model;
//! scale-free cells cover an `eval_users` prefix, dense cells every user.
//!
//! # Model axis
//!
//! Each cell also names a [`ModelKind`]: matrix factorization (the
//! paper's experimental model, the historical path) or NCF with its
//! shared interaction MLP `Θ` riding the round loop's flat shared block.
//! MF cells keep their pre-model-axis ids, seeds and filenames, and their
//! records are byte-identical to before the model axis existed modulo the
//! new `model` key ([`Mask::MODEL`](crate::record::Mask::MODEL)). NCF cells (`ncf_`-
//! prefixed ids) run the same attacks (poisoning `V` only — the paper's
//! §IV generic choice) and defenses, evaluate through the MLP scorer in
//! `full` mode only (the pruned/incremental norm bounds are dot-product
//! math), and skip the MF-specific live-serving probe.
//!
//! # Determinism contract
//!
//! Every cell derives its RNG seed from the master seed and the cell's
//! identity alone ([`CellSpec::cell_seed`]), never from scheduling: a
//! cell rerun standalone (`repro cell`) reproduces its JSONL records
//! **byte-identically** — modulo the wall-clock field `eval_ms` and the
//! serve probe's counters, which every identity gate strips
//! ([`Mask::VOLATILE`]) — regardless of worker count or which other cells
//! ran. Dense and sharded backends are bit-identical too: a record
//! differs only in its `backend` and `rows_materialized` fields
//! ([`Mask::BACKEND`]). `repro matrix --smoke` asserts both on a
//! scale-free preset (50k users in CI, the tiny one in tier-1 tests).
//! [`Record`] is the record's schema, and [`project`] the projection
//! every gate compares under.
//!
//! [`Mask::VOLATILE`]: crate::record::Mask::VOLATILE
//! [`Mask::BACKEND`]: crate::record::Mask::BACKEND
//! [`project`]: crate::record::project
//!
//! # Evaluation fast path
//!
//! MF cells evaluate through the streamed [`EvalMode`] machinery: `full`
//! (blocked kernel sweep), `pruned` (norm-bound exact top-K) or
//! `incremental` (cross-epoch candidate caching, with per-cell
//! [`IncrementalEvalState`] living for the cell's lifetime). All three
//! produce byte-identical metric fields; only
//! `eval_mode`/`items_scored`/`items_skipped` (and the volatile
//! `eval_ms`) differ ([`Mask::MODE`](crate::record::Mask::MODE)). Scale-free cells
//! sweep fixed 1,024-user shards; dense cells sweep the population as one
//! shard, which sums the metrics in the historical one-pass order.

// `parse_record` keeps its `matrix` path: perfbench imports it from here.
pub use crate::record::parse_record;
use crate::record::Record;
use crate::report::Table;
use crate::runner::{default_targets, malicious_count};
use crate::scale::{DatasetId, Scale};
use fedrec_baselines::registry::{build_adversary, AttackEnv, AttackMethod};
use fedrec_data::scalefree::ScaleFreeConfig;
use fedrec_data::split::{leave_one_out, TestSet};
use fedrec_data::{Dataset, HoldoutView, InteractionSource};
use fedrec_defense::{Krum, NormBound, NormDetector, SimilarityDetector, TrimmedMean};
use fedrec_federated::defense::{DefensePipeline, Detector};
use fedrec_federated::history::TrainingHistory;
use fedrec_federated::server::SumAggregator;
use fedrec_federated::{ClientModel, FaultPlan, MfClientModel, Simulation, StoreBackend};
use fedrec_ncf::{NcfClientModel, NcfModel, Theta};
use fedrec_recsys::eval::Evaluator;
use fedrec_recsys::scorer::{PrunedItems, PrunedScores};
use fedrec_recsys::{EvalMode, IncrementalEvalState};
use fedrec_serve::{ServeConfig, ServedTopK, Service, Stamp};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};

/// Presets of the lazily generated scale-free population a grid can run
/// on (see [`ScaleFreeConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScalePreset {
    /// One million users over a 100k-item catalog — the headline scale.
    Million,
    /// The 50k-user CI shrink behind `repro matrix --smoke`.
    Smoke50k,
    /// A 600-user miniature for unit tests.
    Tiny,
}

impl ScalePreset {
    /// The population generator for this preset.
    pub fn config(&self) -> ScaleFreeConfig {
        match self {
            ScalePreset::Million => ScaleFreeConfig::million(),
            ScalePreset::Smoke50k => ScaleFreeConfig::smoke_50k(),
            ScalePreset::Tiny => ScaleFreeConfig::tiny(),
        }
    }

    /// JSONL `population` field and CLI name.
    pub fn label(&self) -> &'static str {
        match self {
            ScalePreset::Million => "million",
            ScalePreset::Smoke50k => "smoke50k",
            ScalePreset::Tiny => "scalefree-tiny",
        }
    }

    /// Fraction of clients selected per round — the whole point of the
    /// sharded store is that this is small at scale (≈500 participants
    /// per round for every preset).
    pub fn client_fraction(&self) -> f64 {
        match self {
            ScalePreset::Million => 0.000_5,
            ScalePreset::Smoke50k => 0.01,
            ScalePreset::Tiny => 0.05,
        }
    }

    /// Users covered by the streamed partial-population evaluation.
    pub fn eval_users(&self) -> usize {
        match self {
            ScalePreset::Million => 10_000,
            ScalePreset::Smoke50k => 2_000,
            ScalePreset::Tiny => 200,
        }
    }

    /// Default malicious ratios: the tiny-ρ regime the paper's threat
    /// model assumes at population scale (0.1 % of a million users is
    /// still a thousand colluding clients).
    pub fn default_rhos(&self) -> Vec<f64> {
        match self {
            ScalePreset::Million => vec![0.0, 0.001],
            ScalePreset::Smoke50k | ScalePreset::Tiny => vec![0.0, 0.01],
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "million" | "1m" => ScalePreset::Million,
            "smoke50k" | "50k" => ScalePreset::Smoke50k,
            "scalefree-tiny" | "tiny" => ScalePreset::Tiny,
            _ => return None,
        })
    }
}

/// Which population a scenario grid runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Population {
    /// A dense synthetic stand-in for a Table II dataset, split
    /// leave-one-out and evaluated over every user — the historical path,
    /// byte-identical to pre-population grids.
    Dense(DatasetId),
    /// A lazily generated scale-free population: a read-time holdout
    /// ([`HoldoutView`]) masks one item per eligible user so HR@10 is
    /// real, targets are deterministic top ids, evaluation streams a
    /// partial-population prefix, and client state sits behind the
    /// configured [`StoreBackend`].
    ScaleFree(ScalePreset),
}

impl Population {
    /// JSONL `population` field value.
    pub fn label(&self) -> &'static str {
        match self {
            Population::Dense(id) => id.label(),
            Population::ScaleFree(p) => p.label(),
        }
    }

    /// Parse a CLI name: a scale preset (`million`, `smoke50k`, `tiny`)
    /// or a dense dataset name (`ml100k`, `ml1m`, `steam`).
    pub fn parse(s: &str) -> Option<Self> {
        if let Some(p) = ScalePreset::parse(s) {
            return Some(Population::ScaleFree(p));
        }
        DatasetId::parse(s).map(Population::Dense)
    }
}

/// The defense arm of a scenario cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DefenseKind {
    /// Plain summation — the undefended baseline the paper attacks.
    None,
    /// Whole-update norm filtering ([`NormBound`], 3× the median norm).
    NormClip,
    /// Krum selection with `f` = the cell's malicious count.
    Krum,
    /// Coordinate-wise 10 % trimmed mean.
    TrimmedMean,
    /// Similarity-detector-gated sum: flagged uploads are excluded from
    /// aggregation inside the round loop.
    DetectorGated,
}

impl DefenseKind {
    /// Every defense arm, in report order.
    pub const ALL: [DefenseKind; 5] = [
        DefenseKind::None,
        DefenseKind::NormClip,
        DefenseKind::Krum,
        DefenseKind::TrimmedMean,
        DefenseKind::DetectorGated,
    ];

    /// Display name (also the JSONL `defense` field and filename part).
    pub fn label(&self) -> &'static str {
        match self {
            DefenseKind::None => "none",
            DefenseKind::NormClip => "norm-clip",
            DefenseKind::Krum => "krum",
            DefenseKind::TrimmedMean => "trimmed-mean",
            DefenseKind::DetectorGated => "detector-gated",
        }
    }

    /// Parse a CLI name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "none" | "sum" => DefenseKind::None,
            "norm-clip" | "normclip" | "norm-bound" => DefenseKind::NormClip,
            "krum" => DefenseKind::Krum,
            "trimmed-mean" | "trimmedmean" | "trim" => DefenseKind::TrimmedMean,
            "detector-gated" | "detector" | "gated" => DefenseKind::DetectorGated,
            _ => return None,
        })
    }

    /// Build the cell's [`DefensePipeline`]. Aggregation-only defenses
    /// carry a one-sided norm detector in *monitor* mode so every cell
    /// records detection trajectories without perturbing training; only
    /// [`DefenseKind::DetectorGated`] actually excludes flagged uploads.
    ///
    /// Krum's `f` is `num_malicious.max(1)`: the whole malicious
    /// population, not the malicious uploads expected in one round. On
    /// the scale-free presets a round samples a small share of the users,
    /// so `f` can exceed the round's upload count. At smoke50k, ρ = 1 %,
    /// it is 500 against ~466 uploads per round, so Krum keeps a single
    /// neighbour (`n − f − 2` clamps to 1) and becomes nearest-neighbour
    /// selection. Passing the per-round expectation instead would change
    /// every Krum cell's records.
    pub fn build(&self, num_malicious: usize) -> DefensePipeline {
        let monitor = || Box::new(NormDetector::new(3.0)) as Box<dyn Detector>;
        match self {
            DefenseKind::None => DefensePipeline::monitored(monitor(), Box::new(SumAggregator)),
            DefenseKind::NormClip => {
                DefensePipeline::monitored(monitor(), Box::new(NormBound { factor: 3.0 }))
            }
            DefenseKind::Krum => DefensePipeline::monitored(
                monitor(),
                Box::new(Krum {
                    assumed_byzantine: num_malicious.max(1),
                }),
            ),
            DefenseKind::TrimmedMean => {
                DefensePipeline::monitored(monitor(), Box::new(TrimmedMean { trim_fraction: 0.1 }))
            }
            DefenseKind::DetectorGated => DefensePipeline::gated(
                Box::new(SimilarityDetector {
                    cosine_threshold: 0.9,
                    min_pairs: 2,
                }),
                Box::new(SumAggregator),
            ),
        }
    }
}

/// The model family a cell trains — the [`ClientModel`] seam
/// instantiation plugged into its round loop.
///
/// [`ClientModel`]: fedrec_federated::ClientModel
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Matrix factorization (§III-B with fixed dot-product Υ) — the
    /// historical path and the paper's experimental model.
    Mf,
    /// Neural collaborative filtering: the learnable interaction MLP `Θ`
    /// shared next to `V` ([`fedrec_ncf::NcfClientModel`]).
    Ncf,
}

impl ModelKind {
    /// Every model family, in grid order.
    pub const ALL: [ModelKind; 2] = [ModelKind::Mf, ModelKind::Ncf];

    /// JSONL `model` field, CLI name, and (for NCF) cell-id prefix.
    pub fn label(&self) -> &'static str {
        match self {
            ModelKind::Mf => "mf",
            ModelKind::Ncf => "ncf",
        }
    }

    /// Parse a CLI name (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s.to_ascii_lowercase().as_str() {
            "mf" => ModelKind::Mf,
            "ncf" => ModelKind::Ncf,
            _ => return None,
        })
    }
}

/// One cell of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Model family.
    pub model: ModelKind,
    /// Attack arm.
    pub attack: AttackMethod,
    /// Defense arm.
    pub defense: DefenseKind,
    /// Malicious-client ratio ρ.
    pub rho: f64,
}

impl CellSpec {
    /// Stable, filename-safe identity, e.g. `fedrecattack_krum_rho0.05`.
    /// ρ is rendered with `f64`'s shortest-roundtrip formatting so
    /// distinct ratios can never collide in the id (and therefore in the
    /// derived seed or the output filename). MF cells keep the historical
    /// unprefixed spelling — their ids, derived seeds and filenames are
    /// byte-identical to pre-model-axis grids — while NCF cells carry an
    /// `ncf_` prefix.
    pub fn id(&self) -> String {
        let prefix = match self.model {
            ModelKind::Mf => "",
            ModelKind::Ncf => "ncf_",
        };
        format!(
            "{prefix}{}_{}_rho{}",
            self.attack.label().to_ascii_lowercase(),
            self.defense.label(),
            self.rho
        )
    }

    /// The cell's own seed: a hash of the master seed and the cell
    /// identity. Independent of grid composition, worker count and run
    /// order — the heart of the standalone-rerun byte-identity promise.
    pub fn cell_seed(&self, master: u64) -> u64 {
        let mut h = mix64(master ^ 0x5EED_CE11);
        for b in self.id().bytes() {
            h = mix64(h ^ b as u64);
        }
        h
    }
}

/// `splitmix64` finalizer.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Cap on the users entering FedRecAttack's per-round loss when the grid
/// runs on a scale-free population: the paper's all-users formulation is
/// `O(n · m)` per round, which is exactly what population scale cannot
/// pay. Deterministic (the subset is drawn from the attack's own seeded
/// stream), and dense grids keep the uncapped formulation.
const SCALE_ATTACK_USER_CAP: usize = 1_024;

/// Hidden width of the interaction MLP in NCF grid cells. Fixed (like
/// the scale presets' `k`) so an NCF cell's identity is fully determined
/// by its [`CellSpec`].
const NCF_HIDDEN: usize = 16;

/// Grid configuration.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Experiment scale (training epochs, k) for dense populations.
    pub scale: Scale,
    /// Which population the grid runs on.
    pub population: Population,
    /// Where client state lives. Dense populations default to
    /// [`StoreBackend::Dense`] (byte-identical to the historical path);
    /// scale-free populations default to the sharded store.
    pub backend: StoreBackend,
    /// Master seed; every cell seed derives from it.
    pub seed: u64,
    /// Attack arms of the MF half of the grid (empty = no MF cells).
    pub attacks: Vec<AttackMethod>,
    /// Defense arms of the MF half of the grid.
    pub defenses: Vec<DefenseKind>,
    /// Malicious ratios ρ (shared by both model families).
    pub rhos: Vec<f64>,
    /// Attack arms of the NCF half of the grid (empty = no NCF cells,
    /// the default). NCF cells poison `V` only, through the same MF
    /// adversary registry — the paper's §IV generic choice.
    pub ncf_attacks: Vec<AttackMethod>,
    /// Defense arms of the NCF half of the grid.
    pub ncf_defenses: Vec<DefenseKind>,
    /// Emit one JSONL record every this many epochs (0 = final only).
    pub eval_every: usize,
    /// Override the scale's epoch count (None = scale default).
    pub epochs: Option<usize>,
    /// Worker threads fanning out over cells.
    pub workers: usize,
    /// Public-interaction proportion ξ (FedRecAttack's knowledge).
    pub xi: f64,
    /// Row budget κ.
    pub kappa: usize,
    /// Users covered by the streamed evaluation on scale-free populations
    /// (dense populations always evaluate every user).
    pub eval_users: usize,
    /// Deterministic fault plan injected into every cell's round loop
    /// (`None` = perfect network). Each cell derives its own fault seed
    /// from the cell seed, so faulted grids keep the standalone-rerun
    /// byte-identity promise.
    pub faults: Option<FaultPlan>,
    /// How MF cells compute their streamed evaluation (NCF cells always
    /// run the full scored sweep and record `full`). All modes produce
    /// byte-identical metric fields; see
    /// [`Mask::MODE`](crate::record::Mask::MODE).
    pub eval_mode: EvalMode,
    /// Worker threads inside each streamed evaluation (results are
    /// thread-invariant; >1 only pays off when the grid itself is not
    /// already saturating the machine with cells).
    pub eval_threads: usize,
    /// Drive a live [`fedrec_serve::Service`] while each cell trains:
    /// every emitting epoch publishes the item snapshot, drains the probe
    /// requests queued at the previous one, and verifies each response
    /// byte-identical to offline evaluation of the snapshot its epoch tag
    /// names before the record is emitted. Adds the volatile
    /// `serve_publishes`/`served_epoch_lag` record fields; every
    /// deterministic field is untouched.
    pub serve: bool,
}

impl MatrixConfig {
    /// Default grid at the given scale: a representative attack subset,
    /// every defense, ρ ∈ {0, 5 %}, on the dense MovieLens-100K stand-in.
    pub fn new(scale: Scale, seed: u64) -> Self {
        Self {
            scale,
            population: Population::Dense(DatasetId::Ml100k),
            backend: StoreBackend::Dense,
            seed,
            attacks: vec![
                AttackMethod::None,
                AttackMethod::Random,
                AttackMethod::Popular,
                AttackMethod::FedRecAttack,
            ],
            defenses: DefenseKind::ALL.to_vec(),
            rhos: vec![0.0, 0.05],
            ncf_attacks: Vec::new(),
            ncf_defenses: Vec::new(),
            eval_every: 10,
            epochs: None,
            workers: default_workers(),
            xi: 0.05,
            kappa: 60,
            eval_users: 0,
            faults: None,
            eval_mode: EvalMode::Full,
            eval_threads: 1,
            serve: false,
        }
    }

    /// Grid over a scale-free population through the sharded store: the
    /// headline attack subset, every defense, the preset's tiny-ρ arms,
    /// short training (the attack lands in a handful of rounds at these
    /// participant counts).
    pub fn at_scale(preset: ScalePreset, seed: u64) -> Self {
        Self {
            population: Population::ScaleFree(preset),
            backend: StoreBackend::sharded(),
            rhos: preset.default_rhos(),
            eval_every: 0,
            epochs: Some(8),
            eval_users: preset.eval_users(),
            ..Self::new(Scale::Smoke, seed)
        }
    }

    /// The grid behind `repro matrix --smoke`: the full attack roster
    /// (minus the full-knowledge data-poisoning pair, whose surrogate
    /// training dominates a CI budget) × every defense × the tiny-ρ arms,
    /// on the `preset` scale-free population (CI gates at
    /// [`ScalePreset::Smoke50k`], tier-1 tests at [`ScalePreset::Tiny`])
    /// through the sharded store — under the [`FaultPlan::smoke`] fault
    /// preset, so the gate exercises dropouts, stragglers and quarantined
    /// corruption on every cell — with the live serving probe on, so
    /// every cell also serves verified mid-training top-K traffic. The NCF
    /// half of the grid runs a representative attack × defense subset
    /// (rather than the full roster) so the gate stays inside its CI
    /// wall-clock budget; NCF cells skip the serving probe (its offline
    /// verifier is MF dot-product math) and always evaluate in `full`
    /// mode.
    pub fn smoke(preset: ScalePreset, seed: u64) -> Self {
        Self {
            faults: Some(FaultPlan::smoke()),
            serve: true,
            ncf_attacks: vec![
                AttackMethod::Random,
                AttackMethod::Popular,
                AttackMethod::FedRecAttack,
            ],
            ncf_defenses: vec![
                DefenseKind::None,
                DefenseKind::TrimmedMean,
                DefenseKind::DetectorGated,
            ],
            attacks: vec![
                AttackMethod::None,
                AttackMethod::Random,
                AttackMethod::Bandwagon,
                AttackMethod::Popular,
                AttackMethod::ExplicitBoost,
                AttackMethod::PipAttack,
                AttackMethod::P3,
                AttackMethod::P4,
                AttackMethod::FedRecAttack,
            ],
            eval_every: 4,
            workers: 2,
            ..Self::at_scale(preset, seed)
        }
    }

    /// The grid's cells, in deterministic (model, attack, defense, ρ)
    /// order: every MF cell first (in the historical order), then the
    /// NCF half.
    pub fn cells(&self) -> Vec<CellSpec> {
        let mut out = Vec::with_capacity(
            (self.attacks.len() * self.defenses.len()
                + self.ncf_attacks.len() * self.ncf_defenses.len())
                * self.rhos.len(),
        );
        let arms = [
            (ModelKind::Mf, &self.attacks, &self.defenses),
            (ModelKind::Ncf, &self.ncf_attacks, &self.ncf_defenses),
        ];
        for (model, attacks, defenses) in arms {
            for &attack in attacks.iter() {
                for &defense in defenses.iter() {
                    for &rho in &self.rhos {
                        out.push(CellSpec {
                            model,
                            attack,
                            defense,
                            rho,
                        });
                    }
                }
            }
        }
        out
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The grid-constant world every cell shares: population, split, targets.
/// Derived from the *master* seed only, so it is built once per matrix
/// run and borrowed by every worker — and a standalone cell rerun
/// rebuilds the identical world from the same config.
///
/// Dense populations carry the leave-one-out split and cold-item targets
/// of the historical path. Scale-free populations get a *read-time*
/// holdout instead: rebuilding the training set would force materializing
/// the lazily generated population, so a [`HoldoutView`] masks one item
/// per eligible user as rows are read, and the held items over the eval
/// prefix form the test set — HR@10 is real on scale-free cells. Targets
/// are the highest item ids — deterministic without a popularity sweep,
/// and of arbitrary popularity because the generator scatters ranks over
/// the id space with a seeded permutation.
struct GridWorld {
    /// The training population behind the engine's seam.
    source: Arc<dyn InteractionSource + Send + Sync>,
    /// Set for [`Population::Dense`] (same object as `source`).
    dense: Option<Arc<Dataset>>,
    test: TestSet,
    targets: Vec<u32>,
}

impl GridWorld {
    fn build(cfg: &MatrixConfig) -> Self {
        match cfg.population {
            Population::Dense(id) => {
                let full = cfg.scale.synthetic(id).generate(cfg.seed ^ 0xDA7A);
                let (train, test) = leave_one_out(&full, cfg.seed ^ 0x10);
                let targets = default_targets(&train, 1);
                let train = Arc::new(train);
                Self {
                    source: train.clone(),
                    dense: Some(train),
                    test,
                    targets,
                }
            }
            Population::ScaleFree(preset) => {
                let data = Arc::new(HoldoutView::new(
                    preset.config().generate(cfg.seed ^ 0xDA7A),
                    cfg.seed ^ 0x401D,
                ));
                let span = cfg.eval_users.clamp(1, data.num_users());
                let test = data.test_set(span);
                let m = data.num_items() as u32;
                Self {
                    source: data,
                    dense: None,
                    test,
                    targets: vec![m - 1],
                }
            }
        }
    }
}

/// Run one cell, streaming one JSONL record per eval epoch (plus a final
/// record) into `sink`. Returns the number of records written; on a
/// write error, returns it and writes nothing more.
///
/// Everything stochastic derives from `cfg.seed` and the cell identity,
/// so repeated calls — in any process, under any worker count — produce
/// byte-identical output.
pub fn run_cell_into<W: Write>(
    cfg: &MatrixConfig,
    cell: &CellSpec,
    sink: &mut W,
) -> io::Result<usize> {
    run_cell_in(cfg, &GridWorld::build(cfg), cell, sink)
}

/// Shard size of the streamed scale-free evaluation. Fixed regardless of
/// backend and thread count: the shard partition fixes the metric
/// summation order, so dense and sharded backends produce identical
/// reports.
const EVAL_SHARD_ROWS: usize = 1_024;

/// One cell's evaluation: the streamed sweep over the eval span — in the
/// configured [`EvalMode`] for MF cells, through the MLP scorer for NCF
/// cells.
struct CellEval<'w> {
    source: &'w (dyn InteractionSource + Send + Sync),
    test: &'w TestSet,
    evaluator: Evaluator,
    eval_users: usize,
    /// Users per eval shard: the whole population for dense MF cells
    /// (one pass over the users, the historical summation order),
    /// [`EVAL_SHARD_ROWS`] for NCF and scale-free cells.
    shard_rows: usize,
    mode: EvalMode,
    threads: usize,
    /// NCF cells score through the MLP instead of dot products, which
    /// rules out the pruned/incremental fast paths (their norm bounds are
    /// dot-product math) — they always run the full scored sweep and
    /// record `eval_mode:"full"`.
    ncf: bool,
    /// Cross-epoch candidate caches for [`EvalMode::Incremental`]; lives
    /// for the cell's lifetime (one eval per epoch snapshot warms the
    /// next). Note: this state is *not* checkpointed; a crash-resumed cell
    /// re-evaluates cold, which changes `items_scored` but — by the
    /// exactness guarantee — never a metric byte.
    inc: IncrementalEvalState,
}

impl CellEval<'_> {
    /// Evaluate one model state into `rec`'s metric and eval fields.
    fn run(
        &mut self,
        items: &fedrec_linalg::Matrix,
        shared: &[f32],
        users: &dyn fedrec_recsys::UserRowSource,
        rec: &mut Record,
    ) {
        // Times the eval pass for the volatile `eval_ms` record field;
        // every identity gate strips it (Mask::VOLATILE).
        let started = Stamp::now();
        let span = 0..self.eval_users;
        let (rep, counters, mode) = if self.ncf {
            let theta = Theta::from_shared(items.cols(), shared);
            let score =
                |row: &[f32], out: &mut [f32]| NcfModel::scores_for_vector(&theta, items, row, out);
            let (rep, counters) = self.evaluator.evaluate_user_range_scored(
                items.rows(),
                users,
                self.source,
                self.test,
                span,
                self.threads,
                self.shard_rows,
                score,
            );
            (rep, counters, EvalMode::Full)
        } else {
            let state = (self.mode == EvalMode::Incremental).then_some(&mut self.inc);
            let (rep, counters) = self.evaluator.evaluate_user_range_mode(
                items,
                users,
                self.source,
                self.test,
                span,
                self.threads,
                self.shard_rows,
                self.mode,
                state,
            );
            (rep, counters, self.mode)
        };
        rec.eval_ms = started.elapsed_ns() / 1_000_000;
        rec.er5 = rep.attack.er_at_5;
        rec.er10 = rep.attack.er_at_10;
        rec.ndcg10 = rep.attack.ndcg_at_10;
        rec.hr10 = rep.hr_at_10;
        rec.eval_mode = mode;
        rec.items_scored = counters.items_scored;
        rec.items_skipped = counters.items_skipped;
    }
}

/// Probe users submitted to the live serving layer at each emitting
/// epoch when [`MatrixConfig::serve`] is on.
const SERVE_PROBE_USERS: usize = 4;

/// Live-serving probe state for one cell ([`MatrixConfig::serve`]): a
/// real [`Service`] whose queue is fed a few probe users per emitting
/// epoch and drained at the next one, so grid runs continuously exercise
/// the batched serving path against genuine mid-training snapshots. The
/// previously published matrix is kept so every drained response can be
/// verified byte-identical to offline evaluation of exactly the snapshot
/// its epoch tag names — a torn or stale `V` cannot pass. None of this
/// state is checkpointed, which is why the two record fields it feeds
/// are volatile ([`Mask::VOLATILE`](crate::record::Mask::VOLATILE)).
struct CellServe {
    svc: Service,
    tx: mpsc::Sender<ServedTopK>,
    rx: mpsc::Receiver<ServedTopK>,
    /// The last published (epoch tag, item matrix): the offline reference
    /// for the probes queued against it, drained at the next tick.
    published: Option<(u64, fedrec_linalg::Matrix)>,
    lag_max: u64,
}

/// Everything a prepared cell carries besides the simulation itself:
/// the evaluation harness, the record template, and the streaming
/// cadence.
struct CellHarness<'w> {
    eval: CellEval<'w>,
    /// The cell's identity fields over neutral defaults; every record the
    /// cell emits starts as a copy.
    base: Record,
    eval_every: usize,
    /// Live serving probe; `None` unless [`MatrixConfig::serve`] is on.
    serve: Option<CellServe>,
}

impl CellHarness<'_> {
    /// The record of `sim`'s current state, `sim.next_epoch()` epochs in:
    /// tick the serve probe, evaluate, and copy in the last round's loss,
    /// the store counters and the run's defense and fault counters.
    fn line(&mut self, sim: &Simulation, hist: &TrainingHistory, is_final: bool) -> String {
        let (items, shared, users) = (sim.items(), sim.shared(), sim.user_rows());
        let mut rec = Record {
            epoch: sim.next_epoch(),
            is_final,
            loss: hist.losses.last().copied().unwrap_or(0.0) as f64,
            rows_materialized: sim.rows_materialized(),
            participants_touched: sim.participants_touched(),
            ..self.base.clone()
        };
        (rec.serve_publishes, rec.served_epoch_lag) = self.serve_tick(rec.epoch, items, users);
        self.eval.run(items, shared, users, &mut rec);
        if let Some(d) = hist.defense.last() {
            rec.det_inspected = d.inspected;
            rec.det_flagged = d.flagged;
            rec.det_excluded = d.excluded;
            rec.det_precision = d.precision;
            rec.det_recall = d.recall;
            rec.malicious = d.malicious;
        }
        rec.excluded_total = hist.total_excluded();
        (
            rec.f_dropped,
            rec.f_late,
            rec.f_rejected,
            rec.f_retried,
            rec.f_skipped,
        ) = hist.fault_totals();
        rec.to_line()
    }

    /// One live-serving step at an emitting epoch (`done` epochs have
    /// finished): drain the probe requests queued at the previous tick —
    /// verifying every response byte-identical to offline evaluation of
    /// the snapshot its epoch tag names, with the user rows the drain
    /// itself served from — then publish this epoch's snapshot and queue
    /// fresh probes against it. Returns the `(serve_publishes,
    /// served_epoch_lag)` record fields; `(0, 0)` when serving is off.
    fn serve_tick(
        &mut self,
        done: usize,
        items: &fedrec_linalg::Matrix,
        users: &dyn fedrec_recsys::UserRowSource,
    ) -> (u64, u64) {
        let Some(st) = &mut self.serve else {
            return (0, 0);
        };
        let k = st.svc.config().k;
        if let Some((prev_tag, prev_items)) = st.published.take() {
            let served = st.svc.drain_now(users, 1);
            let pruned = PrunedItems::build(&prev_items);
            let mut row = vec![0.0f32; prev_items.cols()];
            let mut seen = 0usize;
            while let Ok(resp) = st.rx.try_recv() {
                seen += 1;
                assert_eq!(
                    resp.epoch, prev_tag,
                    "serve identity (cell {}): response tagged epoch {} but only \
                     epoch {prev_tag} was published when it was queued",
                    self.base.cell, resp.epoch
                );
                st.lag_max = st.lag_max.max((done as u64).saturating_sub(resp.epoch));
                users.write_user_row(resp.user as usize, &mut row);
                let mut offline = Vec::new();
                PrunedScores::new(&pruned, &prev_items, &row).top_ranked_excluding(
                    &[],
                    k,
                    &mut offline,
                );
                let matches = resp.top.len() == offline.len()
                    && resp
                        .top
                        .iter()
                        .zip(&offline)
                        .all(|(s, o)| s.0 == o.0 && s.1.to_bits() == o.1.to_bits());
                assert!(
                    matches,
                    "serve identity (cell {}): user {} response at epoch {prev_tag} is \
                     not byte-identical to offline evaluation of that snapshot",
                    self.base.cell, resp.user
                );
            }
            assert_eq!(
                seen, served,
                "serve identity (cell {}): drained {served} responses but received {seen}",
                self.base.cell
            );
        }
        st.svc.publish(done as u64, items);
        st.published = Some((done as u64, items.clone()));
        for u in 0..self.base.users.min(SERVE_PROBE_USERS) as u32 {
            let tx = st.tx.clone();
            assert!(st.svc.submit(u, Vec::new(), tx), "serve queue closed");
        }
        (st.svc.publish_count(), st.lag_max)
    }
}

/// Build one cell's simulation and harness from the shared world. All
/// construction derives from `cfg` and the cell identity, so two calls
/// produce simulations on identical trajectories — the property the
/// crash-resume path leans on when it rebuilds a cell from scratch before
/// restoring a checkpoint. `threads` overrides the client-round worker
/// count (`None` keeps the scale default); results are thread-invariant
/// either way.
fn prepare_cell<'w>(
    cfg: &MatrixConfig,
    world: &'w GridWorld,
    cell: &CellSpec,
    threads: Option<usize>,
) -> (Simulation, CellHarness<'w>) {
    let GridWorld {
        source,
        dense,
        test,
        targets,
    } = world;
    let cseed = cell.cell_seed(cfg.seed);
    let mut fed = cfg.scale.fed_config(cseed);
    if let Some(epochs) = cfg.epochs {
        fed.epochs = epochs;
    }
    if let Some(t) = threads {
        fed.threads = t;
    }
    let scale_free = match cfg.population {
        Population::ScaleFree(preset) => {
            fed.client_fraction = preset.client_fraction();
            true
        }
        Population::Dense(_) => false,
    };
    let num_malicious = malicious_count(source.num_users(), cell.rho);
    let env = match dense {
        Some(train) => AttackEnv::over_dataset(train, targets),
        None => AttackEnv::over(&**source, targets),
    }
    .malicious(num_malicious)
    .kappa(cfg.kappa)
    .k(fed.k)
    .seed(cseed ^ 0xA7)
    .public(cfg.xi, cseed ^ 0xD1)
    .max_attack_users(scale_free.then_some(SCALE_ATTACK_USER_CAP));
    // NCF cells share the MF adversary registry: poisoning `V` only is the
    // paper's §IV generic choice, and it keeps every attack's checkpoint
    // support intact.
    let model: Box<dyn ClientModel> = match cell.model {
        ModelKind::Mf => Box::new(MfClientModel),
        ModelKind::Ncf => Box::new(NcfClientModel::new(NCF_HIDDEN, fed.k)),
    };
    let mut sim = Simulation::with_model(
        source.clone(),
        fed,
        model,
        build_adversary(cell.attack, &env),
        num_malicious,
        cell.defense.build(num_malicious),
        cfg.backend,
    );
    if let Some(plan) = cfg.faults {
        sim.enable_faults(plan, cseed ^ 0xFA17);
    }
    let evaluator = Evaluator::new(&**source, test, targets, cseed ^ 0xE7);
    let eval_users = if scale_free {
        cfg.eval_users.clamp(1, source.num_users())
    } else {
        source.num_users()
    };
    let backend = match cfg.backend {
        StoreBackend::Dense => "dense",
        StoreBackend::Sharded { .. } => "sharded",
    };
    let shard_rows = match (dense, cell.model) {
        (Some(_), ModelKind::Mf) => source.num_users().max(1),
        _ => EVAL_SHARD_ROWS,
    };
    let base = Record {
        cell: cell.id(),
        model: cell.model,
        attack: cell.attack,
        defense: cell.defense,
        rho: cell.rho,
        seed: cseed,
        population: cfg.population.label().to_string(),
        backend: backend.to_string(),
        users: source.num_users(),
        epoch: 0,
        is_final: false,
        loss: 0.0,
        er5: 0.0,
        er10: 0.0,
        ndcg10: 0.0,
        hr10: 0.0,
        // A cell without a detector inspects nothing: precision and recall
        // hold vacuously.
        det_inspected: 0,
        det_flagged: 0,
        det_excluded: 0,
        det_precision: 1.0,
        det_recall: 1.0,
        excluded_total: 0,
        malicious: 0,
        rows_materialized: 0,
        participants_touched: 0,
        f_dropped: 0,
        f_late: 0,
        f_rejected: 0,
        f_retried: 0,
        f_skipped: 0,
        eval_ms: 0,
        eval_mode: cfg.eval_mode,
        items_scored: 0,
        items_skipped: 0,
        serve_publishes: 0,
        served_epoch_lag: 0,
    };
    let harness = CellHarness {
        eval: CellEval {
            source: &**source,
            test,
            evaluator,
            eval_users,
            shard_rows,
            mode: cfg.eval_mode,
            threads: cfg.eval_threads.max(1),
            ncf: cell.model == ModelKind::Ncf,
            inc: IncrementalEvalState::new(),
        },
        base,
        eval_every: cfg.eval_every,
        // The serve probe verifies responses against offline MF
        // dot-product evaluation (`PrunedScores`), which does not apply
        // to MLP scores — NCF cells train and evaluate without it and
        // report the zero serve fields.
        serve: (cfg.serve && cell.model == ModelKind::Mf).then(|| {
            let (tx, rx) = mpsc::channel();
            CellServe {
                svc: Service::new(ServeConfig::default()),
                tx,
                rx,
                published: None,
                lag_max: 0,
            }
        }),
    };
    (sim, harness)
}

/// Train `sim` up to (exclusive) epoch `stop`, one epoch at a time,
/// handing the record of every emitting epoch to `emit` (the final epoch
/// is covered by the summary record instead); stops at the first error.
fn run_to(
    sim: &mut Simulation,
    harness: &mut CellHarness<'_>,
    history: &mut TrainingHistory,
    stop: usize,
    emit: &mut dyn FnMut(String) -> io::Result<()>,
) -> io::Result<()> {
    while sim.next_epoch() < stop {
        let done = sim.next_epoch() + 1;
        sim.run_segment(history, done);
        let every = harness.eval_every;
        if every > 0 && done.is_multiple_of(every) && done != sim.config().epochs {
            emit(harness.line(sim, history, false))?;
        }
    }
    Ok(())
}

/// The one way a cell runs: run `cell` and hand every record line to `emit`
/// in order. With `kill_after`, the cell stops after that many epochs,
/// checkpoints, drops its simulation, is built again from the config (as
/// a restarted process would), restores the checkpoint and finishes.
/// Returns the final item-matrix digest.
fn drive(
    cfg: &MatrixConfig,
    world: &GridWorld,
    cell: &CellSpec,
    threads: Option<usize>,
    kill_after: Option<usize>,
    emit: &mut dyn FnMut(String) -> io::Result<()>,
) -> io::Result<u64> {
    let (mut sim, mut harness) = prepare_cell(cfg, world, cell, threads);
    let mut history = TrainingHistory::new();
    if let Some(kill) = kill_after {
        let stop = kill.min(sim.config().epochs);
        run_to(&mut sim, &mut harness, &mut history, stop, emit)?;
        let blob = sim.checkpoint(&history);
        drop(sim); // the "crash"
        (sim, harness) = prepare_cell(cfg, world, cell, threads);
        history = sim.restore(&blob);
    }
    let epochs = sim.config().epochs;
    run_to(&mut sim, &mut harness, &mut history, epochs, emit)?;
    emit(harness.line(&sim, &history, true))?;
    Ok(items_digest(sim.items()))
}

fn run_cell_in<W: Write>(
    cfg: &MatrixConfig,
    world: &GridWorld,
    cell: &CellSpec,
    sink: &mut W,
) -> io::Result<usize> {
    let mut written = 0;
    drive(cfg, world, cell, None, None, &mut |mut line| {
        line.push('\n');
        sink.write_all(line.as_bytes())?;
        written += 1;
        Ok(())
    })?;
    Ok(written)
}

/// Run one cell into memory: its lines and final item-matrix digest.
fn cell_lines(
    cfg: &MatrixConfig,
    world: &GridWorld,
    cell: &CellSpec,
    threads: Option<usize>,
    kill_after: Option<usize>,
) -> (Vec<String>, u64) {
    let mut lines = Vec::new();
    let digest = drive(cfg, world, cell, threads, kill_after, &mut |line| {
        lines.push(line);
        Ok(())
    })
    .expect("collecting lines cannot fail");
    (lines, digest)
}

/// Run one cell into memory; the returned lines match what
/// [`run_matrix`] writes to the cell's file, byte for byte.
pub fn run_cell(cfg: &MatrixConfig, cell: &CellSpec) -> Vec<String> {
    cell_lines(cfg, &GridWorld::build(cfg), cell, None, None).0
}

/// Order-stable digest of an item matrix's raw `f32` bit patterns — the
/// equality probe of the crash-resume gate (full matrices are too large
/// to diff in a report).
pub fn items_digest(items: &fedrec_linalg::Matrix) -> u64 {
    let mut h = 0x17E6_D16Eu64;
    for &x in items.as_slice() {
        h = mix64(h ^ x.to_bits() as u64);
    }
    h
}

/// Run one cell straight through at an explicit client-round thread
/// count, returning its JSONL lines and the final item-matrix digest —
/// the reference side of the crash-resume identity gate.
pub fn run_cell_traced(cfg: &MatrixConfig, cell: &CellSpec, threads: usize) -> (Vec<String>, u64) {
    cell_lines(cfg, &GridWorld::build(cfg), cell, Some(threads), None)
}

/// Run one cell but kill it after `kill_after` epochs: checkpoint, drop
/// the simulation, rebuild the cell from scratch (exactly as a restarted
/// process would), restore the checkpoint, and finish. Returns the
/// concatenated JSONL lines and the final item-matrix digest; both must
/// be byte-identical to [`run_cell_traced`] of the same cell at *any*
/// thread count — the crash-resume gate `repro matrix --smoke` enforces.
pub fn run_cell_resumed(
    cfg: &MatrixConfig,
    cell: &CellSpec,
    kill_after: usize,
    threads: usize,
) -> (Vec<String>, u64) {
    cell_lines(
        cfg,
        &GridWorld::build(cfg),
        cell,
        Some(threads),
        Some(kill_after),
    )
}

/// Fan `cells` out across `workers` scoped threads with a shared atomic
/// cursor; results come back in cell order.
fn fan_out<T, F>(cells: &[CellSpec], workers: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &CellSpec) -> T + Sync,
{
    let workers = workers.clamp(1, cells.len().max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(cells.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let out = run(i, cell);
                slots.lock().expect("worker panicked").push((i, out));
            });
        }
    });
    let mut slots = slots.into_inner().expect("worker panicked");
    slots.sort_by_key(|(i, _)| *i);
    slots.into_iter().map(|(_, t)| t).collect()
}

/// Run the whole grid in memory (no IO): one `Vec` of JSONL lines per
/// cell, in cell order. Used by tests and the throughput bench.
pub fn run_matrix_collect(cfg: &MatrixConfig) -> Vec<(CellSpec, Vec<String>)> {
    let world = GridWorld::build(cfg);
    let cells = cfg.cells();
    let lines = fan_out(&cells, cfg.workers, |_, cell| {
        cell_lines(cfg, &world, cell, None, None).0
    });
    cells.into_iter().zip(lines).collect()
}

/// One written cell of a matrix run.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell.
    pub cell: CellSpec,
    /// Its JSONL file.
    pub path: PathBuf,
    /// Records written.
    pub records: usize,
}

/// Run the whole grid across worker threads, streaming each cell into
/// `<out_dir>/<cell-id>.jsonl`. Returns the outcomes in cell order.
pub fn run_matrix(cfg: &MatrixConfig, out_dir: &Path) -> io::Result<Vec<CellOutcome>> {
    std::fs::create_dir_all(out_dir)?;
    let world = GridWorld::build(cfg);
    let cells = cfg.cells();
    let results = fan_out(&cells, cfg.workers, |_, cell| -> io::Result<CellOutcome> {
        let path = out_dir.join(format!("{}.jsonl", cell.id()));
        let file = std::fs::File::create(&path)?;
        let mut sink = BufWriter::new(file);
        let records = run_cell_in(cfg, &world, cell, &mut sink)?;
        sink.flush()?;
        Ok(CellOutcome {
            cell: *cell,
            path,
            records,
        })
    });
    results.into_iter().collect()
}

/// Render the defended paper table from a matrix run directory: one row
/// per cell from its final record, over **every** `.jsonl` file in the
/// directory — including cells left over from earlier runs with other
/// grids. To report on exactly one run's cells, use
/// [`matrix_report_from`] with that run's outcome paths. Fails like
/// [`matrix_report_from`] on a file without a final record, and with
/// [`io::ErrorKind::InvalidData`] on a directory that holds no `.jsonl`
/// file (a mistyped or not-yet-written run directory is not a run with
/// no cells).
pub fn matrix_report(dir: &Path) -> io::Result<Table> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    if entries.is_empty() {
        let msg = format!("no cell files (*.jsonl) in {}", dir.display());
        return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
    }
    entries.sort();
    matrix_report_from(&entries)
}

/// Render the defended paper table from specific cell files (one row per
/// file, from its last final record), sorted by (model, attack, defense,
/// ρ). Only lines [`Record::parse`] accepts count. A file without such a
/// final record — a truncated cell, an older schema — is an
/// [`io::ErrorKind::InvalidData`] error that names the first such file
/// and carries the parse error of its last rejected line, if any.
pub fn matrix_report_from(paths: &[PathBuf]) -> io::Result<Table> {
    let mut rows: Vec<Record> = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path)?;
        let mut rejected = None;
        let last_final = text.lines().rev().find_map(|l| match Record::parse(l) {
            Ok(r) => r.is_final.then_some(r),
            Err(e) => {
                rejected.get_or_insert(e);
                None
            }
        });
        let Some(record) = last_final else {
            let why = rejected.map_or(String::new(), |e| format!("; last rejected line: {e}"));
            let msg = format!("{}: no final record{why}", path.display());
            return Err(io::Error::new(io::ErrorKind::InvalidData, msg));
        };
        rows.push(record);
    }
    let sort_key = |r: &Record| (r.model.label(), r.attack.label(), r.defense.label());
    rows.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)).then(a.rho.total_cmp(&b.rho)));
    let mut t = Table::new(
        "Scenario matrix: model x attack x defense x rho (final epoch)",
        vec![
            "Model",
            "Attack",
            "Defense",
            "rho",
            "ER@10",
            "HR@10",
            "det precision",
            "det recall",
            "excluded",
        ],
    );
    let f4 = |v: f64| format!("{v:.4}");
    for r in rows {
        t.push_row(vec![
            r.model.label().to_string(),
            r.attack.label().to_string(),
            r.defense.label().to_string(),
            r.rho.to_string(),
            f4(r.er10),
            f4(r.hr10),
            f4(r.det_precision),
            f4(r.det_recall),
            r.excluded_total.to_string(),
        ]);
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{project, Mask};

    /// Project every line under `mask`.
    fn proj(lines: &[String], mask: Mask) -> Vec<String> {
        lines.iter().map(|l| project(l, mask)).collect()
    }

    /// Strip the volatile fields from every line — the projection under
    /// which reruns are byte-identical.
    fn vol(lines: &[String]) -> Vec<String> {
        proj(lines, Mask::VOLATILE)
    }

    fn rec(line: &str) -> Record {
        Record::parse(line).unwrap()
    }

    fn tiny_cfg(seed: u64) -> MatrixConfig {
        MatrixConfig {
            attacks: vec![AttackMethod::None, AttackMethod::Random],
            defenses: vec![DefenseKind::None, DefenseKind::DetectorGated],
            rhos: vec![0.0, 0.05],
            eval_every: 2,
            epochs: Some(4),
            workers: 2,
            ..MatrixConfig::new(Scale::Smoke, seed)
        }
    }

    #[test]
    fn defense_kind_parse_roundtrips() {
        for d in DefenseKind::ALL {
            assert_eq!(DefenseKind::parse(d.label()), Some(d), "{}", d.label());
        }
        assert_eq!(DefenseKind::parse("garbage"), None);
    }

    #[test]
    fn cell_ids_are_unique_and_filename_safe() {
        // Include near-identical rhos that a fixed-precision format would
        // collapse onto the same id (and therefore the same seed + file).
        let cells = MatrixConfig {
            rhos: vec![0.0, 0.0001, 0.0004, 0.001, 0.0014, 0.05],
            ..MatrixConfig::new(Scale::Smoke, 1)
        }
        .cells();
        let mut ids: Vec<String> = cells.iter().map(CellSpec::id).collect();
        ids.sort();
        let before = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate cell ids");
        for id in &ids {
            assert!(
                id.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "-_.".contains(c)),
                "unsafe filename: {id}"
            );
        }
    }

    #[test]
    fn cell_seeds_are_stable_and_distinct() {
        let cells = MatrixConfig::new(Scale::Smoke, 7).cells();
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.cell_seed(7)).collect();
        assert_eq!(
            seeds,
            cells.iter().map(|c| c.cell_seed(7)).collect::<Vec<_>>()
        );
        seeds.sort_unstable();
        let before = seeds.len();
        seeds.dedup();
        assert_eq!(seeds.len(), before, "cell seed collision");
        // A different master seed moves every cell.
        assert_ne!(cells[0].cell_seed(7), cells[0].cell_seed(8));
    }

    #[test]
    fn records_parse_and_validate() {
        let cfg = tiny_cfg(3);
        let cell = CellSpec {
            model: ModelKind::Mf,
            attack: AttackMethod::Random,
            defense: DefenseKind::DetectorGated,
            rho: 0.05,
        };
        let lines = run_cell(&cfg, &cell);
        // 4 epochs, eval every 2, final epoch folded into the summary
        // record: epochs 2 (mid-run) and 4 (final).
        assert_eq!(lines.len(), 2);
        let recs: Vec<Record> = lines.iter().map(|l| rec(l)).collect();
        assert!(!recs[0].is_final && recs[1].is_final);
        assert_eq!(recs[1].attack, AttackMethod::Random);
        assert_eq!(recs[1].defense, DefenseKind::DetectorGated);
        assert_eq!(recs[1].epoch, 4);
        assert_eq!(recs[1].cell, cell.id());
    }

    /// The acceptance criterion: rerunning any single cell standalone
    /// reproduces its records byte-identically (modulo `eval_ms`, the one
    /// wall-clock field).
    #[test]
    fn standalone_cell_rerun_is_byte_identical() {
        let cfg = tiny_cfg(11);
        let all = run_matrix_collect(&cfg);
        assert_eq!(all.len(), 8);
        for (cell, lines) in &all {
            let rerun = run_cell(&cfg, cell);
            assert_eq!(
                vol(&rerun),
                vol(lines),
                "cell {} diverged on rerun",
                cell.id()
            );
        }
    }

    #[test]
    fn worker_count_does_not_change_output() {
        let base = tiny_cfg(13);
        let one = run_matrix_collect(&MatrixConfig {
            workers: 1,
            ..base.clone()
        });
        let three = run_matrix_collect(&MatrixConfig { workers: 3, ..base });
        let flat = |v: &[(CellSpec, Vec<String>)]| -> Vec<String> {
            v.iter().flat_map(|(_, l)| vol(l)).collect()
        };
        assert_eq!(flat(&one), flat(&three));
    }

    #[test]
    fn matrix_writes_files_and_report_renders() {
        let dir =
            std::env::temp_dir().join(format!("fedrec-matrix-test-{}-report", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = tiny_cfg(17);
        cfg.attacks = vec![AttackMethod::None, AttackMethod::Random];
        cfg.defenses = vec![DefenseKind::None];
        cfg.ncf_attacks = vec![AttackMethod::Random];
        cfg.ncf_defenses = vec![DefenseKind::None];
        cfg.rhos = vec![0.05];
        let outcomes = run_matrix(&cfg, &dir).unwrap();
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert!(o.path.is_file());
            assert_eq!(o.records, 2);
            let text = std::fs::read_to_string(&o.path).unwrap();
            let written: Vec<String> = text.lines().map(String::from).collect();
            let rerun = run_cell(&cfg, &o.cell);
            assert_eq!(
                vol(&written),
                vol(&rerun),
                "file bytes differ from standalone rerun"
            );
        }
        let table = matrix_report(&dir).unwrap();
        assert_eq!(table.rows.len(), 3);
        assert_eq!(table.header.len(), 9);
        // The MF and NCF Random cells are told apart by the Model column.
        let random: Vec<&str> = table
            .rows
            .iter()
            .filter(|r| r[1] == "Random")
            .map(|r| r[0].as_str())
            .collect();
        assert_eq!(random, ["mf", "ncf"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rho_zero_keeps_vacuous_detection_metrics() {
        // Regression guard for the recall convention fix: the rho = 0
        // baseline row must report perfect (vacuous) recall, not 0.0.
        let cfg = tiny_cfg(19);
        let cell = CellSpec {
            model: ModelKind::Mf,
            attack: AttackMethod::None,
            defense: DefenseKind::None,
            rho: 0.0,
        };
        let lines = run_cell(&cfg, &cell);
        for line in &lines {
            let r = rec(line);
            assert_eq!(r.malicious, 0);
            assert_eq!(r.det_recall, 1.0, "vacuous recall must be 1.0: {line}");
        }
    }

    fn tiny_scale_cfg(seed: u64) -> MatrixConfig {
        MatrixConfig {
            attacks: vec![AttackMethod::None, AttackMethod::Random],
            defenses: vec![DefenseKind::None, DefenseKind::DetectorGated],
            eval_every: 2,
            epochs: Some(4),
            workers: 2,
            ..MatrixConfig::at_scale(ScalePreset::Tiny, seed)
        }
    }

    #[test]
    fn population_parse_roundtrips() {
        for p in [
            ScalePreset::Million,
            ScalePreset::Smoke50k,
            ScalePreset::Tiny,
        ] {
            assert_eq!(
                Population::parse(p.label()),
                Some(Population::ScaleFree(p)),
                "{}",
                p.label()
            );
        }
        assert_eq!(
            Population::parse("ml100k"),
            Some(Population::Dense(DatasetId::Ml100k))
        );
        assert_eq!(Population::parse("garbage"), None);
    }

    #[test]
    fn smoke_grid_runs_on_the_sharded_scale_free_preset() {
        let cfg = MatrixConfig::smoke(ScalePreset::Smoke50k, 1);
        assert_eq!(cfg.population, Population::ScaleFree(ScalePreset::Smoke50k));
        assert_eq!(cfg.backend, StoreBackend::sharded());
        assert!(cfg.attacks.len() >= 9, "full attack roster (minus P1/P2)");
        assert_eq!(cfg.defenses.len(), DefenseKind::ALL.len());
        assert!(
            !cfg.attacks.contains(&AttackMethod::P1) && !cfg.attacks.contains(&AttackMethod::P2),
            "full-knowledge pair runs via the dense path, not the CI gate"
        );
    }

    #[test]
    fn backend_invariant_strips_exactly_the_backend_fields() {
        let line = "{\"cell\":\"x\",\"backend\":\"sharded\",\"users\":600,\
                    \"rows_materialized\":12,\"participants_touched\":30}";
        let stripped = project(line, Mask::BACKEND);
        assert_eq!(
            stripped,
            "{\"cell\":\"x\",\"users\":600,\"participants_touched\":30}"
        );
        // Idempotent, and identical for the dense spelling of the cell.
        assert_eq!(project(&stripped, Mask::BACKEND), stripped);
        let dense = "{\"cell\":\"x\",\"backend\":\"dense\",\"users\":600,\
                     \"rows_materialized\":600,\"participants_touched\":30}";
        assert_eq!(project(dense, Mask::BACKEND), stripped);
        // The volatile timing field is stripped too — dense and sharded
        // runs never agree on wall-clock.
        let timed = "{\"cell\":\"x\",\"backend\":\"dense\",\"users\":600,\
                     \"rows_materialized\":600,\"eval_ms\":17,\
                     \"participants_touched\":30}";
        assert_eq!(project(timed, Mask::BACKEND), stripped);
    }

    #[test]
    fn volatile_and_mode_projections_strip_their_fields() {
        let line = "{\"cell\":\"x\",\"eval_ms\":42,\"eval_mode\":\"pruned\",\
                    \"items_scored\":100,\"items_skipped\":900,\"hr10\":0.5}";
        assert_eq!(
            project(line, Mask::VOLATILE),
            "{\"cell\":\"x\",\"eval_mode\":\"pruned\",\"items_scored\":100,\
             \"items_skipped\":900,\"hr10\":0.5}"
        );
        let mode = project(line, Mask::MODE);
        assert_eq!(mode, "{\"cell\":\"x\",\"hr10\":0.5}");
        // Idempotent.
        assert_eq!(project(&mode, Mask::MODE), mode);
    }

    /// The tentpole invariant at miniature scale: the same attacked,
    /// defended grid over a scale-free population is byte-identical
    /// between the dense and sharded backends (modulo the backend
    /// fields), and the sharded store never holds more client rows than
    /// participants were touched.
    #[test]
    fn scale_free_grid_is_backend_invariant_and_lazy() {
        let sharded_cfg = tiny_scale_cfg(29);
        let dense_cfg = MatrixConfig {
            backend: StoreBackend::Dense,
            ..sharded_cfg.clone()
        };
        let sharded = run_matrix_collect(&sharded_cfg);
        let dense = run_matrix_collect(&dense_cfg);
        assert_eq!(sharded.len(), 8);
        let mut saw_lazy_win = false;
        for ((cell, s_lines), (_, d_lines)) in sharded.iter().zip(&dense) {
            assert_eq!(s_lines.len(), d_lines.len(), "cell {}", cell.id());
            assert_eq!(
                proj(s_lines, Mask::BACKEND),
                proj(d_lines, Mask::BACKEND),
                "cell {} diverged across backends",
                cell.id()
            );
            for (s, d) in s_lines.iter().zip(d_lines) {
                let (s, d) = (rec(s), rec(d));
                assert_eq!(s.backend, "sharded");
                assert_eq!(d.backend, "dense");
                assert_eq!(s.population, "scalefree-tiny");
                assert!(s.rows_materialized <= s.participants_touched, "{s:?}");
                if s.rows_materialized < s.users {
                    saw_lazy_win = true;
                }
                // Dense stores are eager by definition.
                assert_eq!(d.rows_materialized, s.users);
            }
        }
        assert!(saw_lazy_win, "sharded runs must not materialize everyone");
    }

    /// The live serving probe changes the two volatile serve fields and
    /// nothing else: a cell run with serving on is byte-identical to the
    /// same cell with serving off after the volatile projection, and the
    /// serve fields themselves report real publishes and real staleness
    /// (each drain serves probes queued one emitting epoch earlier).
    /// `serve_tick` panics internally if any served response is not
    /// byte-identical to offline evaluation of its tagged snapshot, so
    /// this test also gates the serve identity contract mid-training.
    #[test]
    fn serving_probe_is_volatile_only_and_reports_staleness() {
        let off_cfg = tiny_scale_cfg(41);
        let on_cfg = MatrixConfig {
            serve: true,
            ..off_cfg.clone()
        };
        let cell = CellSpec {
            model: ModelKind::Mf,
            attack: AttackMethod::Random,
            defense: DefenseKind::NormClip,
            rho: 0.01,
        };
        let off = run_cell(&off_cfg, &cell);
        let on = run_cell(&on_cfg, &cell);
        assert_eq!(vol(&on), vol(&off), "serving leaked into a record byte");
        for line in &off {
            assert_eq!(rec(line).serve_publishes, 0);
            assert_eq!(rec(line).served_epoch_lag, 0);
        }
        let publishes: Vec<u64> = on.iter().map(|l| rec(l).serve_publishes).collect();
        assert!(
            publishes.windows(2).all(|w| w[0] < w[1]),
            "publish counts must strictly increase across records: {publishes:?}"
        );
        assert_eq!(*publishes.last().unwrap(), on.len() as u64);
        // Probes queued at epoch 2 drain at epoch 4: observed lag 2.
        let lag = rec(on.last().unwrap()).served_epoch_lag;
        assert_eq!(lag, 2, "expected eval-cadence staleness");
    }

    #[test]
    fn scale_free_cells_report_real_hit_rates() {
        // The read-time holdout gives scale-free cells a genuine test set:
        // HR@10 must be a real measurement, not the 0.0 placeholder the
        // no-holdout path reported.
        let cfg = tiny_scale_cfg(31);
        let cell = CellSpec {
            model: ModelKind::Mf,
            attack: AttackMethod::None,
            defense: DefenseKind::None,
            rho: 0.0,
        };
        let lines = run_cell(&cfg, &cell);
        let hr = rec(lines.last().unwrap()).hr10;
        assert!(hr > 0.0, "holdout produced no hit-rate signal: {hr}");
    }

    #[test]
    fn faulted_cells_report_counters_and_unfaulted_cells_report_zeros() {
        let clean_cfg = tiny_scale_cfg(37);
        let faulted_cfg = MatrixConfig {
            faults: Some(FaultPlan::smoke()),
            ..clean_cfg.clone()
        };
        let cell = CellSpec {
            model: ModelKind::Mf,
            attack: AttackMethod::Random,
            defense: DefenseKind::None,
            rho: 0.01,
        };
        let clean = run_cell(&clean_cfg, &cell);
        let faulted = run_cell(&faulted_cfg, &cell);
        let fault_sum = |line: &str| -> usize {
            let r = rec(line);
            r.f_dropped + r.f_late + r.f_rejected + r.f_retried + r.f_skipped
        };
        for line in &clean {
            assert_eq!(fault_sum(line), 0, "no-plan run must report zeros");
        }
        // The counters are cumulative: the final record carries at least
        // as much as any mid-run record, and the smoke rates over a whole
        // cell fire with near-certainty.
        assert!(
            fault_sum(faulted.last().unwrap()) >= fault_sum(faulted.first().unwrap()),
            "fault counters must be cumulative"
        );
        assert!(
            fault_sum(faulted.last().unwrap()) > 0,
            "smoke fault rates fired nothing across the run"
        );
        // Faulted reruns stay byte-identical (modulo eval_ms).
        assert_eq!(vol(&faulted), vol(&run_cell(&faulted_cfg, &cell)));
    }

    /// A sink that fails on its second write: `run_cell_into` returns that
    /// error and writes nothing after it.
    #[test]
    fn run_cell_into_stops_at_the_first_write_error() {
        struct FailsSecond {
            writes: usize,
            bytes: Vec<u8>,
        }
        impl Write for FailsSecond {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.writes += 1;
                if self.writes == 2 {
                    return Err(io::Error::other("disk full"));
                }
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        // Eval every epoch: three mid-run records before the final one,
        // so the failing write is a mid-run record.
        let cfg = MatrixConfig {
            eval_every: 1,
            ..tiny_cfg(23)
        };
        let cell = CellSpec {
            model: ModelKind::Mf,
            attack: AttackMethod::Random,
            defense: DefenseKind::None,
            rho: 0.05,
        };
        let mut sink = FailsSecond {
            writes: 0,
            bytes: Vec::new(),
        };
        let err = run_cell_into(&cfg, &cell, &mut sink).unwrap_err();
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(sink.writes, 2, "a record was written after a failed write");
        let written = String::from_utf8(sink.bytes).unwrap();
        let expected = run_cell(&cfg, &cell);
        assert_eq!(expected.len(), 4);
        assert_eq!(vol(&[written.trim_end().to_string()]), vol(&expected[..1]));
        assert!(written.ends_with('\n'));
    }

    /// The crash-resume acceptance gate at miniature scale: a faulted
    /// cell killed mid-run and resumed from its checkpoint produces
    /// byte-identical records and final item matrix to the uninterrupted
    /// run, at every client-round thread count.
    #[test]
    fn crash_resume_matches_straight_run_across_thread_counts() {
        let cfg = MatrixConfig {
            faults: Some(FaultPlan::smoke()),
            ..tiny_scale_cfg(41)
        };
        let cell = CellSpec {
            model: ModelKind::Mf,
            attack: AttackMethod::Random,
            defense: DefenseKind::TrimmedMean,
            rho: 0.01,
        };
        let (straight_lines, straight_digest) = run_cell_traced(&cfg, &cell, 1);
        // The plain sink path agrees with the traced one.
        assert_eq!(vol(&straight_lines), vol(&run_cell(&cfg, &cell)));
        for threads in [1usize, 2, 8] {
            let (lines, digest) = run_cell_resumed(&cfg, &cell, 2, threads);
            assert_eq!(
                vol(&lines),
                vol(&straight_lines),
                "resumed records diverged at {threads} threads"
            );
            assert_eq!(
                digest, straight_digest,
                "resumed item matrix diverged at {threads} threads"
            );
        }
    }

    /// The eval fast-path invariant at miniature scale: the same grid run
    /// under pruned and incremental evaluation is byte-identical to the
    /// full blocked sweep modulo the mode-dependent bookkeeping fields
    /// (`eval_mode`, `items_scored`, `items_skipped`) and `eval_ms`.
    #[test]
    fn eval_modes_are_byte_identical_to_full() {
        let full_cfg = tiny_scale_cfg(43);
        let full = run_matrix_collect(&full_cfg);
        for mode in [EvalMode::Pruned, EvalMode::Incremental] {
            for threads in [1usize, 2] {
                let cfg = MatrixConfig {
                    eval_mode: mode,
                    eval_threads: threads,
                    ..full_cfg.clone()
                };
                let got = run_matrix_collect(&cfg);
                assert_eq!(got.len(), full.len());
                for ((cell, g_lines), (_, f_lines)) in got.iter().zip(&full) {
                    assert_eq!(
                        proj(g_lines, Mask::MODE),
                        proj(f_lines, Mask::MODE),
                        "cell {} diverged under {} x{threads}",
                        cell.id(),
                        mode.label()
                    );
                    assert!(g_lines.iter().all(|g| rec(g).eval_mode == mode));
                }
            }
        }
        // Pruning must actually skip work somewhere, or the mode is a
        // no-op relabeling.
        let pruned = run_matrix_collect(&MatrixConfig {
            eval_mode: EvalMode::Pruned,
            ..full_cfg.clone()
        });
        let skipped: u64 = pruned
            .iter()
            .flat_map(|(_, lines)| lines.iter())
            .map(|l| rec(l).items_skipped)
            .sum();
        assert!(skipped > 0, "pruned mode never skipped an item");
    }

    /// Dense MF cells evaluate through the same streamed sweep (as one
    /// population-wide shard), so the mode knob reaches them too: the
    /// dense grid's pruned and incremental records equal the full
    /// sweep's modulo the mode-dependent fields.
    #[test]
    fn dense_grid_eval_modes_are_byte_identical_to_full() {
        let full = run_matrix_collect(&tiny_cfg(47));
        for mode in [EvalMode::Pruned, EvalMode::Incremental] {
            let got = run_matrix_collect(&MatrixConfig {
                eval_mode: mode,
                ..tiny_cfg(47)
            });
            assert_eq!(got.len(), full.len());
            for ((cell, g_lines), (_, f_lines)) in got.iter().zip(&full) {
                let id = cell.id();
                assert_eq!(
                    proj(g_lines, Mask::MODE),
                    proj(f_lines, Mask::MODE),
                    "{id} under {mode:?}"
                );
                assert!(g_lines.iter().all(|g| rec(g).eval_mode == mode));
            }
        }
    }

    #[test]
    fn model_kind_parse_roundtrips() {
        for m in ModelKind::ALL {
            assert_eq!(ModelKind::parse(m.label()), Some(m), "{}", m.label());
        }
        assert_eq!(ModelKind::parse("garbage"), None);
    }

    /// MF ids keep their historical, unprefixed spelling (so every MF
    /// cell seed and output filename survives the model axis); NCF ids
    /// are prefixed and land on their own seeds.
    #[test]
    fn model_axis_ids_and_seeds() {
        let mf = CellSpec {
            model: ModelKind::Mf,
            attack: AttackMethod::FedRecAttack,
            defense: DefenseKind::Krum,
            rho: 0.05,
        };
        let ncf = CellSpec {
            model: ModelKind::Ncf,
            ..mf
        };
        assert_eq!(mf.id(), "fedrecattack_krum_rho0.05");
        assert_eq!(ncf.id(), "ncf_fedrecattack_krum_rho0.05");
        assert_ne!(mf.cell_seed(7), ncf.cell_seed(7));
    }

    /// A grid with both model families enumerates every MF cell first,
    /// in the historical order, then the NCF half.
    #[test]
    fn cells_enumerate_mf_before_ncf() {
        let cfg = MatrixConfig {
            ncf_attacks: vec![AttackMethod::None, AttackMethod::Random],
            ncf_defenses: vec![DefenseKind::None],
            ..tiny_cfg(3)
        };
        let cells = cfg.cells();
        assert_eq!(cells.len(), 8 + 4);
        assert!(cells[..8].iter().all(|c| c.model == ModelKind::Mf));
        assert!(cells[8..].iter().all(|c| c.model == ModelKind::Ncf));
        // The MF prefix is exactly the pure-MF enumeration.
        let mf_only = tiny_cfg(3).cells();
        assert_eq!(&cells[..8], &mf_only[..]);
    }

    #[test]
    fn smoke_grid_carries_an_ncf_arm() {
        let cfg = MatrixConfig::smoke(ScalePreset::Smoke50k, 1);
        assert_eq!(cfg.ncf_attacks.len(), 3);
        assert_eq!(cfg.ncf_defenses.len(), 3);
        let cells = cfg.cells();
        let ncf = cells.iter().filter(|c| c.model == ModelKind::Ncf).count();
        assert_eq!(ncf, 3 * 3 * cfg.rhos.len());
    }

    #[test]
    fn model_projection_strips_the_model_field() {
        let line = "{\"cell\":\"x\",\"model\":\"mf\",\"eval_ms\":42,\"hr10\":0.5}";
        let stripped = project(line, Mask::MODEL);
        assert_eq!(stripped, "{\"cell\":\"x\",\"hr10\":0.5}");
        // Idempotent, and the NCF spelling strips identically.
        assert_eq!(project(&stripped, Mask::MODEL), stripped);
        assert_eq!(project(&line.replace("mf", "ncf"), Mask::MODEL), stripped);
    }

    /// The refactor gate: MF cells produce records byte-identical to the
    /// checked-in reference generated *before* the `ClientModel` seam and
    /// the model axis existed, modulo the volatile fields and the new
    /// `model` key. A byte of drift here means the seam changed MF
    /// training, evaluation, or serialization.
    #[test]
    fn mf_records_match_the_pre_model_axis_reference() {
        let reference = include_str!("../testdata/mf_tiny_reference.jsonl");
        let cfg = MatrixConfig {
            eval_every: 2,
            epochs: Some(4),
            ..MatrixConfig::at_scale(ScalePreset::Tiny, 42)
        };
        let cells = [
            (AttackMethod::FedRecAttack, DefenseKind::TrimmedMean, 0.01),
            (AttackMethod::Random, DefenseKind::None, 0.01),
            (AttackMethod::Popular, DefenseKind::DetectorGated, 0.01),
            (AttackMethod::None, DefenseKind::Krum, 0.0),
        ];
        let mut produced = Vec::new();
        for (attack, defense, rho) in cells {
            let cell = CellSpec {
                model: ModelKind::Mf,
                attack,
                defense,
                rho,
            };
            produced.extend(run_cell(&cfg, &cell));
        }
        let old: Vec<String> = reference
            .lines()
            .map(|l| project(l, Mask::VOLATILE))
            .collect();
        let new = proj(&produced, Mask::MODEL);
        assert_eq!(old.len(), new.len());
        for (o, n) in old.iter().zip(&new) {
            assert_eq!(o, n, "MF record drifted across the model-axis refactor");
        }
    }

    /// The pairwise-defense gate: records byte-identical (volatile fields
    /// aside) to the checked-in reference generated before Krum and the
    /// similarity detector read their pair products from one inverted item
    /// index. The tiny preset has ~31 uploads per round, so the Krum cells
    /// cover one kept neighbor (f = 30 at ρ = 0.05) and a middle count
    /// (f = 6 at ρ = 0.01). The NCF random cell gates nothing at this
    /// scale; the NCF P4 cell at ρ = 0.1 excludes 10 flagged uploads, so
    /// the detector's flags are pinned too.
    #[test]
    fn pairwise_defense_records_match_the_pre_index_reference() {
        let reference = include_str!("../testdata/pairwise_tiny_reference.jsonl");
        let cfg = MatrixConfig {
            eval_every: 2,
            epochs: Some(4),
            ..MatrixConfig::at_scale(ScalePreset::Tiny, 42)
        };
        let cells = [
            (
                ModelKind::Mf,
                AttackMethod::FedRecAttack,
                DefenseKind::Krum,
                0.05,
            ),
            (ModelKind::Mf, AttackMethod::Random, DefenseKind::Krum, 0.01),
            (
                ModelKind::Ncf,
                AttackMethod::Random,
                DefenseKind::DetectorGated,
                0.05,
            ),
            (
                ModelKind::Ncf,
                AttackMethod::P4,
                DefenseKind::DetectorGated,
                0.1,
            ),
        ];
        let mut produced = Vec::new();
        for (model, attack, defense, rho) in cells {
            let cell = CellSpec {
                model,
                attack,
                defense,
                rho,
            };
            produced.extend(run_cell(&cfg, &cell));
        }
        let old: Vec<String> = reference
            .lines()
            .map(|l| project(l, Mask::VOLATILE))
            .collect();
        let new = vol(&produced);
        assert_eq!(old.len(), new.len());
        for (o, n) in old.iter().zip(&new) {
            assert_eq!(o, n, "record drifted from the pre-index reference");
        }
    }

    /// NCF grid cells at miniature scale: records validate, carry the
    /// `ncf` model field and `ncf_`-prefixed ids, always evaluate in
    /// `full` mode (even when the grid asks for pruned), never serve,
    /// and are byte-identical between the dense and sharded backends.
    #[test]
    fn ncf_cells_validate_and_are_backend_invariant() {
        let sharded_cfg = MatrixConfig {
            attacks: Vec::new(),
            defenses: Vec::new(),
            ncf_attacks: vec![AttackMethod::Random],
            ncf_defenses: vec![DefenseKind::None, DefenseKind::TrimmedMean],
            rhos: vec![0.0, 0.01],
            eval_mode: EvalMode::Pruned,
            serve: true,
            ..tiny_scale_cfg(53)
        };
        let dense_cfg = MatrixConfig {
            backend: StoreBackend::Dense,
            ..sharded_cfg.clone()
        };
        let sharded = run_matrix_collect(&sharded_cfg);
        let dense = run_matrix_collect(&dense_cfg);
        assert_eq!(sharded.len(), 4);
        for ((cell, s_lines), (_, d_lines)) in sharded.iter().zip(&dense) {
            assert_eq!(cell.model, ModelKind::Ncf);
            assert!(cell.id().starts_with("ncf_"), "{}", cell.id());
            assert_eq!(
                proj(s_lines, Mask::BACKEND),
                proj(d_lines, Mask::BACKEND),
                "NCF cell {} diverged across backends",
                cell.id()
            );
            for s in s_lines.iter().map(|l| rec(l)) {
                assert_eq!(s.model, ModelKind::Ncf);
                assert_eq!(s.eval_mode, EvalMode::Full);
                assert_eq!(s.serve_publishes, 0);
            }
            // Standalone rerun byte-identity holds for NCF cells too.
            assert_eq!(vol(&run_cell(&sharded_cfg, cell)), vol(s_lines));
        }
        // NCF training learns something at this scale: the clean cell's
        // final HR@10 is a real measurement.
        let hr = rec(sharded[0].1.last().unwrap()).hr10;
        assert!(hr > 0.0, "NCF eval produced no hit-rate signal");
    }

    /// The crash-resume gate extended to NCF: a faulted NCF cell killed
    /// mid-run and restored through `Simulation::checkpoint/restore`
    /// (which round-trips the shared `Θ` block) matches the straight run
    /// byte-for-byte at every client-round thread count.
    #[test]
    fn ncf_crash_resume_matches_straight_run_across_thread_counts() {
        let cfg = MatrixConfig {
            faults: Some(FaultPlan::smoke()),
            ..tiny_scale_cfg(59)
        };
        let cell = CellSpec {
            model: ModelKind::Ncf,
            attack: AttackMethod::Random,
            defense: DefenseKind::TrimmedMean,
            rho: 0.01,
        };
        let (straight_lines, straight_digest) = run_cell_traced(&cfg, &cell, 1);
        assert_eq!(vol(&straight_lines), vol(&run_cell(&cfg, &cell)));
        for threads in [1usize, 2, 8] {
            let (lines, digest) = run_cell_resumed(&cfg, &cell, 2, threads);
            assert_eq!(
                vol(&lines),
                vol(&straight_lines),
                "resumed NCF records diverged at {threads} threads"
            );
            assert_eq!(
                digest, straight_digest,
                "resumed NCF item matrix diverged at {threads} threads"
            );
        }
    }
}
