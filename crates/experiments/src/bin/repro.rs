//! `repro` — regenerate any table or figure of the paper, or run the
//! defended attack×defense×ρ scenario matrix.
//!
//! ```text
//! repro <experiment> [--scale smoke|paper] [--seed N] [--csv] [--out FILE]
//! repro fig3|all [--scale smoke|paper] [--seed N] [--eval-every N] [--csv] [--out FILE]
//!
//! experiments: table2 table3 table4 table5 table6 table7 table8 table9
//!              fig3 defenses detection all
//!
//! repro matrix [--attacks a,b,..|all] [--defenses d,e,..|all] [--rhos r1,r2,..]
//!       [--workers N] [--out-dir DIR] [--csv] [grid flags]
//! repro matrix --smoke [--population smoke50k|tiny] [--out-dir DIR] [--workers N]
//! repro cell --attack A --defense D --rho R [--out FILE] [grid flags]
//! repro report --dir DIR [--csv] [--out FILE]
//! repro lint [--json] [--rules] [--root DIR]
//!
//! grid flags: [--scale smoke|paper] [--seed N] [--dataset ml100k|ml1m|steam]
//!       [--population million|smoke50k|tiny|ml100k|ml1m|steam]
//!       [--backend dense|sharded] [--eval-users N] [--epochs N]
//!       [--eval-every N] [--eval-mode full|pruned|incremental]
//!       [--eval-threads N] [--serve] [--model mf|ncf] [--smoke]
//! ```
//!
//! Each subcommand accepts only the flags it reads; any other flag is a
//! usage error (exit 2), never silently ignored.
//!
//! `--scale smoke` (default) runs in seconds on miniature datasets;
//! `--scale paper` reproduces the full §V-A protocol (much slower).
//! `matrix --population million` runs the grid on a 1M-user scale-free
//! population through the sharded client store (malicious users
//! materialize as rows of the adversary's shard store on first
//! participation; ~500 participants per round). `matrix --smoke` runs
//! the {MF, NCF} × attack × defense grid on the scale-free preset
//! `--population` names (`smoke50k` by default, the CI gate; `tiny` runs
//! the same gate in seconds), the NCF half over a representative
//! attack/defense subset, at seed 42. It checks every record's schema and
//! that the report has a row per cell, asserts the lazy-store invariant
//! (`rows_materialized ≤ participants_touched`, and fewer rows than the
//! population on the sharded backend), reruns the grid on the dense
//! backend to assert dense-vs-sharded byte-identity, reruns one cell
//! standalone to assert byte-identical output, reruns a probe cell under
//! `--eval-mode pruned` and `incremental` to assert the eval fast paths
//! reproduce the full sweep's records byte-identically (modulo the mode
//! bookkeeping fields), and compares each cell's digest, written to
//! `<out-dir>/digests.txt`, against the preset's checked-in golden — the
//! CI determinism gate. The golden pins the preset's default grid, so
//! with `--smoke` only `--population`, `--out-dir` and `--workers` are
//! accepted, and a preset without a golden (`million`) or a dense
//! population is a usage error.
//!
//! `--eval-mode` selects the streamed-evaluation strategy for MF cells:
//! `full` (blocked exact sweep, default), `pruned`
//! (norm-bound top-K pruning) or `incremental` (cross-epoch candidate
//! caching with drift bounds). All three produce byte-identical metrics;
//! only `eval_mode`/`items_scored`/`items_skipped` differ in the records.
//!
//! `lint` runs the `fedrec-lint` determinism & checkpoint-safety static
//! pass over the workspace sources (same engine as
//! `cargo run -p fedrec-lint`) and exits nonzero on any violation that is
//! not suppressed in-source with a justification.

use fedrec_baselines::registry::AttackMethod;
use fedrec_experiments::matrix::{
    self, matrix_report, matrix_report_from, run_cell_into, run_matrix, CellSpec, DefenseKind,
    MatrixConfig, ModelKind, Population, ScalePreset,
};
use fedrec_experiments::record::{project, Mask, Record};
use fedrec_experiments::{
    fig3_side_effects, table2_datasets, table3_xi_sweep, table4_rho_sweep, table5_kappa_sweep,
    table6_data_poisoning, table7_effectiveness, table8_model_poisoning, table9_ablation,
    DatasetId, Scale, Table,
};
use fedrec_federated::StoreBackend;
use fedrec_recsys::EvalMode;
use fedrec_serve::Stamp;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::{Path, PathBuf};

struct Args {
    experiment: String,
    scale: Scale,
    seed: u64,
    dataset: DatasetId,
    eval_every: Option<usize>,
    csv: bool,
    out: Option<String>,
    // matrix / cell / report options
    attacks: Option<Vec<AttackMethod>>,
    defenses: Option<Vec<DefenseKind>>,
    rhos: Option<Vec<f64>>,
    population: Option<Population>,
    attack: Option<AttackMethod>,
    defense: Option<DefenseKind>,
    rho: Option<f64>,
    model: Option<ModelKind>,
    epochs: Option<usize>,
    workers: Option<usize>,
    out_dir: Option<PathBuf>,
    dir: Option<PathBuf>,
    smoke: bool,
    eval_users: Option<usize>,
    backend: Option<StoreBackend>,
    eval_mode: Option<EvalMode>,
    eval_threads: Option<usize>,
    serve: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: repro <table2|table3|table4|table5|table6|table7|table8|table9|defenses|detection>\n\
         \x20      [--scale smoke|paper] [--seed N] [--csv] [--out FILE]\n\
         \x20 repro <fig3|all> [--scale smoke|paper] [--seed N] [--eval-every N] [--csv] [--out FILE]\n\
         \x20 repro matrix [--attacks a,b|all] [--defenses d,e|all] [--rhos r1,r2]\n\
         \x20      [--workers N] [--out-dir DIR] [--csv] [grid flags]\n\
         \x20 repro matrix --smoke [--population smoke50k|tiny] [--out-dir DIR] [--workers N]\n\
         \x20 repro cell --attack A --defense D --rho R [--out FILE] [grid flags]\n\
         \x20 repro report --dir DIR [--csv] [--out FILE]\n\
         \x20 repro lint [--json] [--rules] [--root DIR]\n\
         grid flags: [--scale smoke|paper] [--seed N] [--dataset ml100k|ml1m|steam]\n\
         \x20      [--population million|smoke50k|tiny|ml100k|ml1m|steam]\n\
         \x20      [--backend dense|sharded] [--eval-users N] [--epochs N] [--eval-every N]\n\
         \x20      [--eval-mode full|pruned|incremental] [--eval-threads N] [--serve]\n\
         \x20      [--model mf|ncf] [--smoke]"
    );
    std::process::exit(2);
}

/// The flags [`matrix_config`] reads, shared by `matrix` and `cell`.
const GRID_FLAGS: &[&str] = &[
    "--scale",
    "--seed",
    "--dataset",
    "--population",
    "--backend",
    "--eval-users",
    "--epochs",
    "--eval-every",
    "--eval-mode",
    "--eval-threads",
    "--serve",
    "--model",
    "--smoke",
];

/// Whether `experiment` reads `flag`; every other flag is a usage error.
fn reads(experiment: &str, smoke: bool, flag: &str) -> bool {
    let (own, grid): (&[&str], bool) = match experiment {
        // The digest golden pins the preset's default grid at seed 42.
        "matrix" if smoke => (
            &["--smoke", "--population", "--out-dir", "--workers"],
            false,
        ),
        "matrix" => (
            &[
                "--attacks",
                "--defenses",
                "--rhos",
                "--workers",
                "--out-dir",
                "--csv",
            ],
            true,
        ),
        "cell" => (&["--attack", "--defense", "--rho", "--out"], true),
        "report" => (&["--dir", "--csv", "--out"], false),
        "fig3" | "all" => (
            &["--scale", "--seed", "--eval-every", "--csv", "--out"],
            false,
        ),
        _ => (&["--scale", "--seed", "--csv", "--out"], false),
    };
    own.contains(&flag) || (grid && GRID_FLAGS.contains(&flag))
}

fn parse_args() -> Args {
    let mut args = Args {
        experiment: String::new(),
        scale: Scale::Smoke,
        seed: 42,
        dataset: DatasetId::Ml100k,
        eval_every: None,
        csv: false,
        out: None,
        attacks: None,
        defenses: None,
        rhos: None,
        population: None,
        attack: None,
        defense: None,
        rho: None,
        model: None,
        epochs: None,
        workers: None,
        out_dir: None,
        dir: None,
        smoke: false,
        eval_users: None,
        backend: None,
        eval_mode: None,
        eval_threads: None,
        serve: false,
    };
    // fedrec-lint: allow(wall-clock) — CLI entry point: argv selects the experiment, it never feeds simulation state
    let mut it = std::env::args().skip(1);
    match it.next() {
        Some(e) => args.experiment = e,
        None => usage(),
    }
    let mut given = Vec::new();
    while let Some(flag) = it.next() {
        let mut next = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scale" => args.scale = Scale::parse(&next()).unwrap_or_else(|| usage()),
            "--seed" => args.seed = next().parse().unwrap_or_else(|_| usage()),
            "--dataset" => args.dataset = DatasetId::parse(&next()).unwrap_or_else(|| usage()),
            "--eval-every" => args.eval_every = Some(next().parse().unwrap_or_else(|_| usage())),
            "--csv" => args.csv = true,
            "--out" => args.out = Some(next()),
            "--attacks" => args.attacks = Some(parse_attacks(&next())),
            "--defenses" => args.defenses = Some(parse_defenses(&next())),
            "--rhos" => args.rhos = Some(parse_rhos(&next())),
            "--population" => {
                args.population = Some(Population::parse(&next()).unwrap_or_else(|| usage()))
            }
            "--attack" => {
                args.attack = Some(AttackMethod::parse(&next()).unwrap_or_else(|| usage()))
            }
            "--defense" => {
                args.defense = Some(DefenseKind::parse(&next()).unwrap_or_else(|| usage()))
            }
            "--rho" => args.rho = Some(parse_rho(&next())),
            "--model" => args.model = Some(ModelKind::parse(&next()).unwrap_or_else(|| usage())),
            "--epochs" => args.epochs = Some(next().parse().unwrap_or_else(|_| usage())),
            "--workers" => args.workers = Some(next().parse().unwrap_or_else(|_| usage())),
            "--out-dir" => args.out_dir = Some(PathBuf::from(next())),
            "--dir" => args.dir = Some(PathBuf::from(next())),
            "--smoke" => args.smoke = true,
            "--eval-users" => args.eval_users = Some(next().parse().unwrap_or_else(|_| usage())),
            "--backend" => {
                args.backend = Some(match next().to_ascii_lowercase().as_str() {
                    "dense" => StoreBackend::Dense,
                    "sharded" => StoreBackend::sharded(),
                    _ => usage(),
                })
            }
            "--eval-mode" => {
                args.eval_mode = Some(EvalMode::parse(&next()).unwrap_or_else(|| usage()))
            }
            "--eval-threads" => {
                let v: usize = next().parse().unwrap_or_else(|_| usage());
                if v == 0 {
                    usage()
                }
                args.eval_threads = Some(v);
            }
            "--serve" => args.serve = true,
            _ => usage(),
        }
        given.push(flag);
    }
    if !given
        .iter()
        .all(|flag| reads(&args.experiment, args.smoke, flag))
    {
        usage()
    }
    args
}

fn parse_attacks(s: &str) -> Vec<AttackMethod> {
    if s.eq_ignore_ascii_case("all") {
        return AttackMethod::ALL.to_vec();
    }
    s.split(',')
        .map(|a| AttackMethod::parse(a.trim()).unwrap_or_else(|| usage()))
        .collect()
}

fn parse_defenses(s: &str) -> Vec<DefenseKind> {
    if s.eq_ignore_ascii_case("all") {
        return DefenseKind::ALL.to_vec();
    }
    s.split(',')
        .map(|d| DefenseKind::parse(d.trim()).unwrap_or_else(|| usage()))
        .collect()
}

/// A malicious ratio ρ: a finite number in [0, 1] (`-0` reads as `0`);
/// anything else is a usage error.
fn parse_rho(s: &str) -> f64 {
    match s.trim().parse::<f64>() {
        Ok(r) if (0.0..=1.0).contains(&r) => r.abs(),
        _ => usage(),
    }
}

fn parse_rhos(s: &str) -> Vec<f64> {
    s.split(',').map(parse_rho).collect()
}

fn matrix_config(args: &Args) -> MatrixConfig {
    let mut cfg = if args.smoke {
        match args.population {
            None => MatrixConfig::smoke(ScalePreset::Smoke50k, args.seed),
            Some(Population::ScaleFree(preset)) => MatrixConfig::smoke(preset, args.seed),
            Some(Population::Dense(_)) => usage(),
        }
    } else {
        match args.population {
            // `--population million|smoke50k|tiny` turns on the tuned
            // scale-free defaults (sharded store, tiny-ρ arms, streamed
            // partial-population eval).
            Some(Population::ScaleFree(preset)) => MatrixConfig::at_scale(preset, args.seed),
            Some(pop @ Population::Dense(_)) => MatrixConfig {
                population: pop,
                ..MatrixConfig::new(args.scale, args.seed)
            },
            None => MatrixConfig {
                population: Population::Dense(args.dataset),
                ..MatrixConfig::new(args.scale, args.seed)
            },
        }
    };
    if let Some(every) = args.eval_every {
        // Only an explicit --eval-every overrides the preset's cadence:
        // scale-free defaults record the final epoch only, and clobbering
        // that with the dense default would add a mid-training streamed
        // evaluation to every million-user cell.
        cfg.eval_every = every;
    }
    if let Some(backend) = args.backend {
        cfg.backend = backend;
    }
    if let Some(e) = args.eval_users {
        cfg.eval_users = e;
    }
    if let Some(a) = &args.attacks {
        cfg.attacks = a.clone();
    }
    if let Some(d) = &args.defenses {
        cfg.defenses = d.clone();
    }
    if let Some(r) = &args.rhos {
        cfg.rhos = r.clone();
    }
    if let Some(e) = args.epochs {
        cfg.epochs = Some(e);
    }
    if let Some(w) = args.workers {
        cfg.workers = w.max(1);
    }
    if let Some(m) = args.eval_mode {
        cfg.eval_mode = m;
    }
    if let Some(t) = args.eval_threads {
        cfg.eval_threads = t;
    }
    if args.serve {
        cfg.serve = true;
    }
    // `--model` restricts the grid to one family: `ncf` moves the (possibly
    // flag-overridden) attack/defense arms onto the NCF half, `mf` drops
    // any preset NCF arms (e.g. the smoke grid's).
    match args.model {
        Some(ModelKind::Ncf) => {
            cfg.ncf_attacks = std::mem::take(&mut cfg.attacks);
            cfg.ncf_defenses = std::mem::take(&mut cfg.defenses);
        }
        Some(ModelKind::Mf) => {
            cfg.ncf_attacks.clear();
            cfg.ncf_defenses.clear();
        }
        None => {}
    }
    cfg
}

fn fail(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(1);
}

fn cmd_matrix(args: &Args) {
    let cfg = matrix_config(args);
    let golden = args
        .smoke
        .then(|| smoke_golden(cfg.population).unwrap_or_else(|| usage()));
    let out_dir = args.out_dir.clone().unwrap_or_else(|| {
        PathBuf::from(if args.smoke {
            "target/matrix-smoke"
        } else {
            "matrix-out"
        })
    });
    // Progress timing on stderr only; record bytes never include it.
    let started = Stamp::now();
    let outcomes =
        run_matrix(&cfg, &out_dir).unwrap_or_else(|e| fail(&format!("matrix run failed: {e}")));
    let records: usize = outcomes.iter().map(|o| o.records).sum();
    eprintln!(
        "ran {} cells ({} records) into {} with {} workers in {:.1}s",
        outcomes.len(),
        records,
        out_dir.display(),
        cfg.workers,
        started.elapsed_ns() as f64 / 1e9
    );
    if let Some(golden) = golden {
        smoke_checks(&cfg, &outcomes, &out_dir, golden);
    } else {
        // Report over exactly the cells this run wrote — the directory
        // may hold files from earlier runs with other grids.
        let paths: Vec<std::path::PathBuf> = outcomes.iter().map(|o| o.path.clone()).collect();
        let table =
            matrix_report_from(&paths).unwrap_or_else(|e| fail(&format!("report failed: {e}")));
        print!(
            "{}",
            if args.csv {
                table.to_csv()
            } else {
                table.to_markdown()
            }
        );
    }
}

/// The gate behind `matrix --smoke`, on the run's scale-free preset (50k
/// users in CI, the tiny one in tier-1 tests) through the sharded store,
/// with the [`FaultPlan::smoke`] preset active on every cell:
///
/// 1. every record parses against the schema ([`Record::parse`]), and
///    the report rendered over the run's cell files has one row per cell
///    and one `ncf` row per NCF cell;
/// 2. every record satisfies the lazy-store invariant
///    `rows_materialized ≤ participants_touched`, and on the sharded
///    backend materialized fewer rows than the population (`users`);
/// 3. rerunning the whole grid on the **dense** backend reproduces every
///    record byte-identically after the [`Mask::BACKEND`] projection
///    (only the `backend`/`rows_materialized` fields and the volatile
///    fields may differ);
/// 4. one cell rerun standalone reproduces its file bytes (modulo
///    `eval_ms`, the wall-clock field);
/// 5. the fedrecattack cell of **each model family** killed at a mid-run
///    checkpoint and resumed in a fresh simulation reproduces the
///    straight run's records and final item matrix byte-identically at
///    1, 2 and 8 threads (the NCF arm additionally round-trips the
///    shared `Θ` block through the checkpoint);
/// 6. rerunning the MF probe cell under `--eval-mode pruned` and
///    `incremental` (at 1 and 2 eval threads) reproduces the full
///    sweep's records byte-identically after the [`Mask::MODE`]
///    projection — and the pruned rerun actually skips items;
/// 7. every MF cell served live mid-training top-K traffic
///    ([`MatrixConfig::serve`] is on for the smoke grid): publish counts
///    strictly increase across each cell's records, the final record
///    observed real staleness (probes queued one emitting epoch drain at
///    the next), and — enforced inside the harness, which panics
///    otherwise — every served response was byte-identical to offline
///    evaluation of the snapshot its epoch tag names (no torn `V`).
///    NCF cells skip the probe (its offline verifier is MF dot-product
///    math) and must report the zero serve fields;
/// 8. the NCF probe cell reruns byte-identically standalone, and a rerun
///    under `--eval-mode pruned` is byte-identical *including* the mode
///    fields — NCF cells pin `full`-mode evaluation;
/// 9. every cell's [`cell_digest`], written to `<out_dir>/digests.txt`
///    before any check runs, equals the preset's checked-in `golden` —
///    the only absolute pin: checks 3–8 compare the code with itself, so
///    a change that moves every cell the same way passes them.
///
/// [`FaultPlan::smoke`]: fedrec_federated::FaultPlan::smoke
fn smoke_checks(
    cfg: &MatrixConfig,
    outcomes: &[matrix::CellOutcome],
    out_dir: &Path,
    golden: &str,
) {
    let sharded_backend = cfg.backend != StoreBackend::Dense;
    let mut checked = 0usize;
    // One read and one parse per cell file; the later identity checks
    // reuse these lines.
    let sharded_cells: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            std::fs::read_to_string(&o.path)
                .unwrap_or_else(|e| fail(&format!("read {}: {e}", o.path.display())))
                .lines()
                .map(String::from)
                .collect()
        })
        .collect();
    let digests: String = outcomes
        .iter()
        .zip(&sharded_cells)
        .map(|(o, lines)| format!("{} {:016x}\n", o.cell.id(), cell_digest(lines)))
        .collect();
    let digests_path = out_dir.join("digests.txt");
    std::fs::write(&digests_path, &digests)
        .unwrap_or_else(|e| fail(&format!("write {}: {e}", digests_path.display())));
    for (o, lines) in outcomes.iter().zip(&sharded_cells) {
        let records: Vec<Record> = lines
            .iter()
            .map(|l| Record::parse(l).unwrap_or_else(|e| fail(&format!("schema: {e}"))))
            .collect();
        for rec in &records {
            let (rows, touched) = (rec.rows_materialized, rec.participants_touched);
            if rows > touched {
                fail(&format!(
                    "lazy invariant violated in cell {}: {rows} rows materialized > \
                     {touched} participants touched",
                    o.cell.id()
                ));
            }
            if sharded_backend && rows >= rec.users {
                fail(&format!(
                    "lazy invariant violated in cell {}: the sharded store materialized the \
                     whole population ({rows} rows)",
                    o.cell.id()
                ));
            }
            checked += 1;
        }
        // Serve gate: the smoke grid runs with the live serving probe on,
        // so every MF cell must have published each emitting epoch's
        // snapshot (strictly increasing counts) and its final record must
        // have observed genuine staleness — probes queued at one emitting
        // epoch are served at the next, one eval cadence behind training.
        // NCF cells are exempt by design (the probe's offline verifier is
        // MF dot-product math) and must report the zero serve fields.
        let serve_counts: Vec<u64> = records.iter().map(|r| r.serve_publishes).collect();
        if o.cell.model == ModelKind::Ncf {
            if serve_counts.iter().any(|&c| c != 0) {
                fail(&format!(
                    "serve gate: NCF cell {} reported serve publishes: {serve_counts:?}",
                    o.cell.id()
                ));
            }
            continue;
        }
        if serve_counts.windows(2).any(|w| w[0] >= w[1]) || serve_counts.last() == Some(&0) {
            fail(&format!(
                "serve gate: publish counts not strictly increasing in cell {}: {serve_counts:?}",
                o.cell.id()
            ));
        }
        if records.last().map_or(0, |r| r.served_epoch_lag) == 0 {
            fail(&format!(
                "serve gate: cell {} never observed serving staleness",
                o.cell.id()
            ));
        }
    }

    // Report gate: the table rendered over this run's cell files has one
    // row per cell, and one `ncf` row per NCF cell.
    let paths: Vec<PathBuf> = outcomes.iter().map(|o| o.path.clone()).collect();
    let report =
        matrix_report_from(&paths).unwrap_or_else(|e| fail(&format!("report failed: {e}")));
    let ncf_cells = outcomes
        .iter()
        .filter(|o| o.cell.model == ModelKind::Ncf)
        .count();
    let ncf_rows = report
        .rows
        .iter()
        .filter(|r| r[0] == ModelKind::Ncf.label())
        .count();
    if report.rows.len() != outcomes.len() || ncf_rows != ncf_cells {
        fail(&format!(
            "report gate: {} rows ({ncf_rows} ncf) for {} cells ({ncf_cells} ncf)",
            report.rows.len(),
            outcomes.len()
        ));
    }

    // Dense-vs-sharded byte-identity: the same grid on the eager backend
    // must agree on every backend-invariant byte of every record.
    let dense_cfg = MatrixConfig {
        backend: StoreBackend::Dense,
        ..cfg.clone()
    };
    let dense = matrix::run_matrix_collect(&dense_cfg);
    if dense.len() != outcomes.len() {
        fail("dense rerun produced a different cell count");
    }
    for ((o, s_lines), (cell, dense_lines)) in outcomes.iter().zip(&sharded_cells).zip(&dense) {
        if o.cell != *cell {
            fail("dense rerun cell order diverged");
        }
        let sharded = projected(s_lines, Mask::BACKEND);
        let dense_inv = projected(dense_lines, Mask::BACKEND);
        if sharded != dense_inv {
            fail(&format!(
                "dense vs sharded records diverged for cell {}:\n  sharded: {:?}\n  dense:   {:?}",
                cell.id(),
                sharded,
                dense_inv
            ));
        }
    }

    let vol = |lines: &[String]| projected(lines, Mask::VOLATILE);
    // The eval-mode probe must be an MF cell: NCF cells pin `full` mode
    // (the pruned/incremental bounds are dot-product math), so rerunning
    // one under another mode would trivially pass without exercising the
    // fast paths.
    let probe_idx = outcomes
        .iter()
        .rposition(|o| o.cell.model == ModelKind::Mf)
        .unwrap_or_else(|| fail("smoke grid produced no MF cells"));
    let probe = &outcomes[probe_idx];
    let rerun = matrix::run_cell(cfg, &probe.cell);
    let original = &sharded_cells[probe_idx];
    if vol(&rerun) != vol(original) {
        fail(&format!(
            "determinism: standalone rerun of cell {} diverged from its file",
            probe.cell.id()
        ));
    }

    // Eval-mode identity gate: the pruned and incremental fast paths must
    // reproduce the full blocked sweep's records byte-identically modulo
    // the mode bookkeeping fields, at both 1 and 2 eval threads.
    let full_inv = projected(original, Mask::MODE);
    let mut pruned_skipped = 0u64;
    for mode in [EvalMode::Pruned, EvalMode::Incremental] {
        for threads in [1usize, 2] {
            let mode_cfg = MatrixConfig {
                eval_mode: mode,
                eval_threads: threads,
                ..cfg.clone()
            };
            let lines = matrix::run_cell(&mode_cfg, &probe.cell);
            if projected(&lines, Mask::MODE) != full_inv {
                fail(&format!(
                    "eval-mode identity: cell {} under {} x{threads} eval threads diverged \
                     from the full sweep",
                    probe.cell.id(),
                    mode.label()
                ));
            }
            if mode == EvalMode::Pruned && threads == 1 {
                pruned_skipped = lines
                    .iter()
                    .map(|l| {
                        Record::parse(l)
                            .unwrap_or_else(|e| fail(&format!("schema: {e}")))
                            .items_skipped
                    })
                    .sum();
            }
        }
    }
    if pruned_skipped == 0 {
        fail("eval-mode identity: pruned evaluation never skipped an item");
    }

    // NCF probe gate: the last NCF cell rerun standalone must reproduce
    // its file bytes, and a rerun under `--eval-mode pruned` must be
    // byte-identical *including* the mode bookkeeping fields — NCF cells
    // always evaluate in `full` mode, whatever the grid asks for.
    let ncf_idx = outcomes
        .iter()
        .rposition(|o| o.cell.model == ModelKind::Ncf)
        .unwrap_or_else(|| fail("smoke grid produced no NCF cells"));
    let ncf_probe = &outcomes[ncf_idx];
    if vol(&matrix::run_cell(cfg, &ncf_probe.cell)) != vol(&sharded_cells[ncf_idx]) {
        fail(&format!(
            "determinism: standalone rerun of NCF cell {} diverged from its file",
            ncf_probe.cell.id()
        ));
    }
    let ncf_pruned_cfg = MatrixConfig {
        eval_mode: EvalMode::Pruned,
        ..cfg.clone()
    };
    if vol(&matrix::run_cell(&ncf_pruned_cfg, &ncf_probe.cell)) != vol(&sharded_cells[ncf_idx]) {
        fail(&format!(
            "NCF cell {} did not pin full-mode evaluation under --eval-mode pruned",
            ncf_probe.cell.id()
        ));
    }

    // Crash-resume gate: kill the fedrecattack cell mid-run (checkpoint
    // after epoch 3 of 8, drop the simulation), restore in a fresh one
    // and finish. Records *and* the final server item matrix must be
    // byte-identical to an uninterrupted run, whatever the thread count.
    // An attacked (ρ > 0) cell so the adversary's own checkpointed state
    // (the user approximator and its RNG) is part of what must resume.
    // Run once per model family: the NCF arm additionally round-trips the
    // shared `Θ` block and the paired pending-upload state through
    // `Simulation::checkpoint/restore`.
    let mut crash_ids = Vec::new();
    for model in ModelKind::ALL {
        let crash_cell = outcomes
            .iter()
            .find(|o| {
                o.cell.model == model
                    && o.cell.attack == AttackMethod::FedRecAttack
                    && o.cell.rho > 0.0
            })
            .map(|o| o.cell)
            .unwrap_or_else(|| {
                fail(&format!(
                    "smoke grid has no attacked {} fedrecattack cell",
                    model.label()
                ))
            });
        let (straight_lines, straight_digest) = matrix::run_cell_traced(cfg, &crash_cell, 1);
        for threads in [1usize, 2, 8] {
            let (lines, digest) = matrix::run_cell_resumed(cfg, &crash_cell, 3, threads);
            if vol(&lines) != vol(&straight_lines) {
                fail(&format!(
                    "crash-resume: records of cell {} at {threads} thread(s) diverged from the \
                     uninterrupted run",
                    crash_cell.id()
                ));
            }
            if digest != straight_digest {
                fail(&format!(
                    "crash-resume: final item matrix of cell {} at {threads} thread(s) diverged \
                     from the uninterrupted run",
                    crash_cell.id()
                ));
            }
        }
        crash_ids.push(crash_cell.id());
    }

    let diverged = digest_mismatches(golden, &digests);
    if !diverged.is_empty() {
        fail(&format!(
            "digest gate: {} cell(s) differ from the checked-in golden (this run's digests are \
             in {}):\n  {}",
            diverged.len(),
            digests_path.display(),
            diverged.join("\n  ")
        ));
    }

    println!(
        "smoke OK: {checked} records schema-valid, rows_materialized <= participants_touched \
         and < users in every record, report renders {} rows ({ncf_rows} ncf), dense/sharded \
         byte-identical across {} cells (MF and NCF), cell {} \
         byte-identical on standalone rerun and under pruned/incremental eval modes at 1/2 \
         eval threads ({pruned_skipped} items pruned), NCF cell {} byte-identical on \
         standalone rerun and pinned to full-mode eval, cells {} kill-and-resume \
         byte-identical at 1/2/8 threads, every MF cell served offline-identical \
         mid-training top-K traffic, {} cell digests equal the golden",
        report.rows.len(),
        outcomes.len(),
        probe.cell.id(),
        ncf_probe.cell.id(),
        crash_ids.join(" and "),
        outcomes.len()
    );
}

/// The checked-in `matrix --smoke` cell digests of a scale-free preset's
/// default grid at seed 42, or `None` when the population has none.
/// Regenerate one by copying a run's `digests.txt` over it.
fn smoke_golden(population: Population) -> Option<&'static str> {
    match population {
        Population::ScaleFree(ScalePreset::Smoke50k) => {
            Some(include_str!("../../testdata/smoke_digests_smoke50k.txt"))
        }
        Population::ScaleFree(ScalePreset::Tiny) => {
            Some(include_str!("../../testdata/smoke_digests_tiny.txt"))
        }
        Population::ScaleFree(ScalePreset::Million) | Population::Dense(_) => None,
    }
}

/// FNV-1a 64 of a cell file's lines under the [`Mask::VOLATILE`]
/// projection, each line followed by `\n`. The smoke run is always
/// sharded, so `backend` and `rows_materialized` are pinned too.
fn cell_digest(lines: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for line in lines {
        for b in project(line, Mask::VOLATILE).bytes().chain([b'\n']) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every cell whose `<cell-id> <digest>` line differs between the golden
/// and this run's digests, is missing from the run or is extra in it.
fn digest_mismatches(golden: &str, run: &str) -> Vec<String> {
    fn cells(text: &str) -> BTreeMap<&str, &str> {
        text.lines()
            .map(|l| l.split_once(' ').unwrap_or((l, "")))
            .collect()
    }
    let (want, got) = (cells(golden), cells(run));
    let ids: BTreeSet<&str> = want.keys().chain(got.keys()).copied().collect();
    ids.into_iter()
        .filter_map(|id| match (want.get(id), got.get(id)) {
            (Some(w), Some(g)) if w == g => None,
            (Some(w), Some(g)) => Some(format!("{id}: {g}, golden {w}")),
            (None, _) => Some(format!("{id}: extra, not in the golden")),
            (_, None) => Some(format!("{id}: missing from this run")),
        })
        .collect()
}

/// Project every line of one cell under `mask`.
fn projected(lines: &[String], mask: Mask) -> Vec<String> {
    lines.iter().map(|l| project(l, mask)).collect()
}

fn cmd_cell(args: &Args) {
    let (Some(attack), Some(defense), Some(rho)) = (args.attack, args.defense, args.rho) else {
        usage()
    };
    let cfg = matrix_config(args);
    let cell = CellSpec {
        model: args.model.unwrap_or(ModelKind::Mf),
        attack,
        defense,
        rho,
    };
    match &args.out {
        Some(path) => {
            let file = std::fs::File::create(path)
                .unwrap_or_else(|e| fail(&format!("create {path}: {e}")));
            let mut w = std::io::BufWriter::new(file);
            let n = run_cell_into(&cfg, &cell, &mut w)
                .unwrap_or_else(|e| fail(&format!("cell failed: {e}")));
            w.flush().unwrap_or_else(|e| fail(&format!("flush: {e}")));
            eprintln!("wrote {n} records for cell {} to {path}", cell.id());
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = stdout.lock();
            run_cell_into(&cfg, &cell, &mut w)
                .unwrap_or_else(|e| fail(&format!("cell failed: {e}")));
        }
    }
}

fn cmd_report(args: &Args) {
    let dir = args.dir.clone().unwrap_or_else(|| usage());
    let table = matrix_report(&dir).unwrap_or_else(|e| fail(&format!("report failed: {e}")));
    let rendered = if args.csv {
        format!("# {}\n{}\n", table.title, table.to_csv())
    } else {
        format!("{}\n", table.to_markdown())
    };
    emit(&rendered, args, 1);
}

fn run_one(name: &str, args: &Args) -> Vec<Table> {
    match name {
        "table2" => vec![table2_datasets(args.scale, args.seed)],
        "table3" => vec![table3_xi_sweep(args.scale, args.seed)],
        "table4" => vec![table4_rho_sweep(args.scale, args.seed)],
        "table5" => vec![table5_kappa_sweep(args.scale, args.seed)],
        "table6" => vec![table6_data_poisoning(args.scale, args.seed)],
        "table7" => vec![table7_effectiveness(args.scale, args.seed)],
        "table8" => vec![table8_model_poisoning(args.scale, args.seed)],
        "table9" => vec![table9_ablation(args.scale, args.seed)],
        "fig3" => DatasetId::ALL
            .iter()
            .map(|id| fig3_side_effects(args.scale, *id, args.eval_every.unwrap_or(10), args.seed))
            .collect(),
        "defenses" => vec![fedrec_experiments::tables::extension_defenses(
            args.scale, args.seed,
        )],
        "detection" => vec![fedrec_experiments::extension_detection(
            args.scale, args.seed,
        )],
        "all" => {
            let mut v = Vec::new();
            for e in [
                "table2",
                "table3",
                "table4",
                "table5",
                "table6",
                "table7",
                "table8",
                "table9",
                "fig3",
                "defenses",
                "detection",
            ] {
                v.extend(run_one(e, args));
            }
            v
        }
        _ => usage(),
    }
}

fn emit(rendered: &str, args: &Args, tables: usize) {
    match &args.out {
        Some(path) => {
            std::fs::write(path, rendered).unwrap_or_else(|e| fail(&format!("write {path}: {e}")));
            eprintln!("wrote {tables} table(s) to {path}");
        }
        None => print!("{rendered}"),
    }
}

fn main() {
    // `repro lint` forwards its flags verbatim to the shared fedrec-lint
    // CLI driver, bypassing the experiment-flag parser.
    {
        // fedrec-lint: allow(wall-clock) — CLI dispatch; argv never feeds simulation state
        let mut raw = std::env::args().skip(1);
        if raw.next().as_deref() == Some("lint") {
            std::process::exit(fedrec_lint::run_cli(&raw.collect::<Vec<_>>()));
        }
    }
    let args = parse_args();
    match args.experiment.as_str() {
        "matrix" => return cmd_matrix(&args),
        "cell" => return cmd_cell(&args),
        "report" => return cmd_report(&args),
        _ => {}
    }
    // Progress timing on stderr only; table bytes never include it.
    let started = Stamp::now();
    let tables = run_one(&args.experiment, &args);
    let rendered: String = tables
        .iter()
        .map(|t| {
            if args.csv {
                format!("# {}\n{}\n", t.title, t.to_csv())
            } else {
                format!("{}\n", t.to_markdown())
            }
        })
        .collect();
    emit(&rendered, &args, tables.len());
    eprintln!(
        "({} table(s) in {:.1}s)",
        tables.len(),
        started.elapsed_ns() as f64 / 1e9
    );
}
