//! Scenario-cell workloads: one matrix cell rebuilt from the public
//! constructors and timed from outside.
//!
//! The cell is wired exactly as `matrix::run_cell_traced` wires it (world
//! → `AttackEnv`/`build_adversary` → `DefenseKind::build` →
//! `Simulation::with_model` → `enable_faults` → `Evaluator::new`, then
//! `step_faulted` per round and one final streamed evaluation), so its
//! final `items_digest` and ER@10/HR@10 must equal the matrix's own run
//! of the same `MatrixConfig` — the per-cell output check. The traced
//! variant swaps every trait object for its decorator in
//! [`crate::trace`]; the same check proves the decorators are invisible.

use crate::clock;
use crate::trace::{
    Recorder, SpanGuard, Trace, TracedAdversary, TracedAggregator, TracedDetector, TracedModel,
    TracedSource,
};
use fedrec_baselines::registry::{build_adversary, AttackEnv, AttackMethod};
use fedrec_data::split::TestSet;
use fedrec_data::{HoldoutView, InteractionSource, ScaleFreeDataset};
use fedrec_defense::{Krum, NormBound, NormDetector, SimilarityDetector, TrimmedMean};
use fedrec_experiments::matrix::{
    items_digest, parse_record, run_cell_traced, CellSpec, DefenseKind, MatrixConfig, ModelKind,
    ScalePreset,
};
use fedrec_experiments::runner::malicious_count;
use fedrec_federated::defense::{DefensePipeline, Detector};
use fedrec_federated::server::{Aggregator, SumAggregator};
use fedrec_federated::{Adversary, ClientModel, FaultPlan, MfClientModel, Simulation};
use fedrec_ncf::{NcfClientModel, NcfModel, Theta};
use fedrec_recsys::eval::{EvalReport, Evaluator};
use fedrec_recsys::metrics::MetricsAccumulator;
use fedrec_recsys::scorer::DenseScores;
use fedrec_recsys::{EvalCounters, UserRowSource};
use std::sync::Arc;

/// FedRecAttack's per-round user cap on scale-free populations (the
/// matrix's `SCALE_ATTACK_USER_CAP`).
const ATTACK_USER_CAP: usize = 1_024;
/// Hidden width of NCF cells (the matrix's `NCF_HIDDEN`).
const NCF_HIDDEN: usize = 16;
/// Users per streamed-eval shard (the matrix's `EVAL_SHARD_ROWS`).
const EVAL_SHARD_ROWS: usize = 1_024;

/// One scenario-cell workload.
#[derive(Debug, Clone)]
pub struct CellWorkload {
    /// Population preset.
    pub preset: ScalePreset,
    /// Model family.
    pub model: ModelKind,
    /// Attack arm.
    pub attack: AttackMethod,
    /// Defense arm.
    pub defense: DefenseKind,
    /// Malicious ratio ρ.
    pub rho: f64,
    /// Run under `FaultPlan::smoke`.
    pub faults: bool,
}

impl CellWorkload {
    /// The matrix configuration whose `run_cell_traced` is the reference.
    pub fn config(&self, seed: u64) -> MatrixConfig {
        let mut cfg = MatrixConfig::at_scale(self.preset, seed);
        cfg.faults = self.faults.then(FaultPlan::smoke);
        cfg.rhos = vec![self.rho];
        cfg.workers = 1;
        cfg
    }

    /// The cell identity.
    pub fn cell(&self) -> CellSpec {
        CellSpec {
            model: self.model,
            attack: self.attack,
            defense: self.defense,
            rho: self.rho,
        }
    }
}

/// The matrix's own result for a cell: final digest and ER@10/HR@10 as
/// rendered in its final record.
#[derive(Debug, Clone)]
pub struct Reference {
    digest: u64,
    er10: String,
    hr10: String,
}

/// Run the cell through `matrix::run_cell_traced` (one client thread).
pub fn reference(cfg: &MatrixConfig, cell: &CellSpec) -> Reference {
    let (lines, digest) = run_cell_traced(cfg, cell, 1);
    let last = lines.last().expect("a cell emits a final record");
    let rec = parse_record(last).expect("final record parses");
    let field = |key: &str| {
        rec.iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    Reference {
        digest,
        er10: field("er10"),
        hr10: field("hr10"),
    }
}

/// The record spelling of a metric (the matrix's `num`).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// What one cell run measured.
pub struct CellRun {
    /// Seconds from world build to just before round 0.
    pub setup_s: f64,
    /// Seconds from world build to the final evaluation's end.
    pub cell_s: f64,
    /// Milliseconds per `step_faulted`.
    pub round_ms: Vec<f64>,
    /// Whether digest, ER@10 and HR@10 match the reference.
    pub matches: bool,
    /// The trained simulation (for the serving phase).
    pub sim: Simulation,
    /// The reduced trace of a traced run.
    pub trace: Option<Trace>,
}

fn span<'a>(rec: Option<&'a Arc<Recorder>>, name: &'static str) -> Option<SpanGuard<'a>> {
    rec.map(|r| r.span(name))
}

/// The world, adversary, pipeline, simulation and evaluator of a cell,
/// built exactly as the matrix builds them.
struct Prepared {
    data: Arc<HoldoutView<ScaleFreeDataset>>,
    source: Arc<dyn InteractionSource + Send + Sync>,
    test: TestSet,
    sim: Simulation,
    evaluator: Evaluator,
    eval_users: usize,
}

fn prepare(w: &CellWorkload, cfg: &MatrixConfig, rec: Option<&Arc<Recorder>>) -> Prepared {
    let (data, source, test, targets) = {
        let _s = span(rec, "data.build");
        let data = Arc::new(HoldoutView::new(
            w.preset.config().generate(cfg.seed ^ 0xDA7A),
            cfg.seed ^ 0x401D,
        ));
        let span_users = cfg.eval_users.clamp(1, data.num_users());
        let test = data.test_set(span_users);
        let targets = vec![data.num_items() as u32 - 1];
        let source: Arc<dyn InteractionSource + Send + Sync> = match rec {
            Some(r) => Arc::new(TracedSource::new(data.clone(), r.clone())),
            None => data.clone(),
        };
        (data, source, test, targets)
    };
    let cell = w.cell();
    let cseed = cell.cell_seed(cfg.seed);
    let mut fed = cfg.scale.fed_config(cseed);
    fed.epochs = cfg.epochs.expect("scale-free configs fix the epoch count");
    fed.threads = 1;
    fed.client_fraction = w.preset.client_fraction();
    let num_malicious = malicious_count(source.num_users(), cell.rho);

    let adversary = {
        let _s = span(rec, "attack.build");
        let env = AttackEnv::over(&*source, &targets)
            .malicious(num_malicious)
            .kappa(cfg.kappa)
            .k(fed.k)
            .seed(cseed ^ 0xA7)
            .public(cfg.xi, cseed ^ 0xD1)
            .max_attack_users(Some(ATTACK_USER_CAP));
        let adversary = build_adversary(cell.attack, &env);
        match rec {
            Some(r) => Box::new(TracedAdversary::new(adversary, r.clone())) as Box<dyn Adversary>,
            None => adversary,
        }
    };

    let sim = {
        let _s = span(rec, "federated.build");
        let pipeline = match rec {
            Some(r) => traced_pipeline(cell.defense, num_malicious, r),
            None => cell.defense.build(num_malicious),
        };
        let model: Box<dyn ClientModel> = match cell.model {
            ModelKind::Mf => Box::new(MfClientModel),
            ModelKind::Ncf => Box::new(NcfClientModel::new(NCF_HIDDEN, fed.k)),
        };
        let model = match rec {
            Some(r) => Box::new(TracedModel::new(model, r.clone())) as Box<dyn ClientModel>,
            None => model,
        };
        let mut sim = Simulation::with_model(
            source.clone(),
            fed,
            model,
            adversary,
            num_malicious,
            pipeline,
            cfg.backend,
        );
        if let Some(plan) = cfg.faults {
            sim.enable_faults(plan, cseed ^ 0xFA17);
        }
        sim
    };

    let evaluator = {
        let _s = span(rec, "recsys.eval_build");
        Evaluator::new(&*source, &test, &targets, cseed ^ 0xE7)
    };
    Prepared {
        eval_users: cfg.eval_users.clamp(1, source.num_users()),
        data,
        source,
        test,
        sim,
        evaluator,
    }
}

/// `DefenseKind::build` with every detector and aggregator decorated.
fn traced_pipeline(
    kind: DefenseKind,
    num_malicious: usize,
    rec: &Arc<Recorder>,
) -> DefensePipeline {
    let det = |d: Box<dyn Detector>, pairwise: bool| {
        Box::new(TracedDetector::new(d, pairwise, rec.clone())) as Box<dyn Detector>
    };
    let agg = |a: Box<dyn Aggregator>, pairwise: bool| {
        Box::new(TracedAggregator::new(a, pairwise, rec.clone())) as Box<dyn Aggregator>
    };
    let monitor = || det(Box::new(NormDetector::new(3.0)), false);
    match kind {
        DefenseKind::None => {
            DefensePipeline::monitored(monitor(), agg(Box::new(SumAggregator), false))
        }
        DefenseKind::NormClip => {
            DefensePipeline::monitored(monitor(), agg(Box::new(NormBound { factor: 3.0 }), false))
        }
        DefenseKind::Krum => DefensePipeline::monitored(
            monitor(),
            agg(
                Box::new(Krum {
                    assumed_byzantine: num_malicious.max(1),
                }),
                true,
            ),
        ),
        DefenseKind::TrimmedMean => DefensePipeline::monitored(
            monitor(),
            agg(Box::new(TrimmedMean { trim_fraction: 0.1 }), false),
        ),
        DefenseKind::DetectorGated => DefensePipeline::gated(
            det(
                Box::new(SimilarityDetector {
                    cosine_threshold: 0.9,
                    min_pairs: 2,
                }),
                true,
            ),
            agg(Box::new(SumAggregator), false),
        ),
    }
}

/// The NCF sweep of `CellEval::run_ncf`: every item through the MLP for
/// each user of the eval span, in fixed user shards.
fn eval_ncf(
    p: &Prepared,
    items: &fedrec_linalg::Matrix,
    shared: &[f32],
    users: &dyn UserRowSource,
) -> (EvalReport, EvalCounters) {
    let theta = Theta::from_flat(NCF_HIDDEN, items.cols(), shared);
    let m = items.rows();
    let mut total = MetricsAccumulator::new();
    let mut row = vec![0.0f32; items.cols()];
    let mut scores = vec![0.0f32; m];
    let mut lo = 0usize;
    while lo < p.eval_users {
        let hi = (lo + EVAL_SHARD_ROWS).min(p.eval_users);
        let mut acc = MetricsAccumulator::new();
        for u in lo..hi {
            users.write_user_row(u, &mut row);
            NcfModel::scores_for_vector(&theta, items, &row, &mut scores);
            let mut src = DenseScores::new(&scores);
            acc.push_user_attack(&mut src, p.source.user_items(u), p.evaluator.targets());
            if let Some(test_item) = p.test.get(u).copied().flatten() {
                acc.push_user_hr(&mut src, test_item, p.evaluator.hr_negatives(u));
            }
        }
        total.merge(&acc);
        lo = hi;
    }
    let rep = EvalReport {
        attack: total.attack_metrics(),
        hr_at_10: total.hr_at_10(),
    };
    let counters = EvalCounters {
        items_scored: (p.eval_users as u64) * (m as u64),
        items_skipped: 0,
    };
    (rep, counters)
}

/// Set up a cell and drop it: one extra `setup_s` sample.
pub fn setup_only(w: &CellWorkload, cfg: &MatrixConfig) -> f64 {
    let t = clock::now();
    let _prepared = prepare(w, cfg, None);
    clock::secs_since(t)
}

/// Run one cell (traced when `rec` is given) and check it against `want`.
pub fn run(
    w: &CellWorkload,
    cfg: &MatrixConfig,
    want: &Reference,
    rec: Option<&Arc<Recorder>>,
) -> CellRun {
    let t0 = clock::now();
    let root = span(rec, "cell");
    let mut p = prepare(w, cfg, rec);
    let setup_s = clock::secs_since(t0);
    let epochs = p.sim.config().epochs;
    let mut round_ms = Vec::with_capacity(epochs);
    let (mut dropped, mut late, mut rejected) = (0u64, 0u64, 0u64);
    for epoch in 0..epochs {
        let t = clock::now();
        let faults = {
            let _s = span(rec, "federated.round");
            p.sim.step_faulted(epoch).2
        };
        round_ms.push(clock::secs_since(t) * 1e3);
        if let Some(f) = faults {
            dropped += f.dropped as u64;
            late += f.late as u64;
            rejected += f.rejected as u64;
        }
    }
    let (rep, counters) = {
        let _s = span(rec, "recsys.eval");
        let sim = &p.sim;
        match w.model {
            ModelKind::Mf => p.evaluator.evaluate_user_range_mode(
                sim.items(),
                sim.user_rows(),
                &*p.source,
                &p.test,
                0..p.eval_users,
                cfg.eval_threads.max(1),
                EVAL_SHARD_ROWS,
                cfg.eval_mode,
                None,
            ),
            ModelKind::Ncf => eval_ncf(&p, sim.items(), sim.shared(), sim.user_rows()),
        }
    };
    drop(root);
    let cell_s = clock::secs_since(t0);
    let matches = items_digest(p.sim.items()) == want.digest
        && num(rep.attack.er_at_10) == want.er10
        && num(rep.hr_at_10) == want.hr10;
    let trace = rec.map(|r| {
        let counts = [
            (
                "data.shards_generated",
                p.data.inner().shards_generated() as u64,
            ),
            (
                "federated.rows_materialized",
                p.sim.rows_materialized() as u64,
            ),
            (
                "federated.participants_touched",
                p.sim.participants_touched() as u64,
            ),
            ("federated.faults_dropped", dropped),
            ("federated.faults_late", late),
            ("federated.faults_rejected", rejected),
            ("recsys.items_scored", counters.items_scored),
            ("recsys.items_skipped", counters.items_skipped),
        ];
        for (name, n) in counts {
            r.count(name, n);
        }
        r.trace()
    });
    CellRun {
        setup_s,
        cell_s,
        round_ms,
        matches,
        sim: p.sim,
        trace,
    }
}
