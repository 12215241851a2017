//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selftest
//! ```
//!
//! Builds the workload's inputs from `--seed`, measures for `--seconds`,
//! checks every operation's output, and prints one JSON object as the
//! last line of stdout: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics (public calls timed with
//! no decorator in the way); `--trace 1` reports the per-layer split from
//! the decorated run in [`trace`]. `--selftest` runs the traced run twice
//! on a tiny variant of every workload and checks that every count
//! repeats exactly and that the metric names match `BENCHMARK.json`.
//! See `perfbench/README.md`.

mod cell;
mod clock;
mod serve;
mod trace;

use cell::CellWorkload;
use fedrec_baselines::registry::AttackMethod;
use fedrec_experiments::matrix::{DefenseKind, ModelKind, ScalePreset};
use fedrec_linalg::{Matrix, SeededGaussianInit, SeededRng, ShardedMatrix};
use serve::{ServeLoad, ServeOutcome};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: &[(&str, &str)] = &[
    ("cell_s", "s"),
    ("setup_s", "s"),
    ("round_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("serve_rps", "1/s"),
    ("serve_p50_us", "us"),
    ("serve_p99_us", "us"),
];

/// Per-layer metrics (`--trace 1`), with units. Times are self times of
/// one cell (medians over the traced cells of a run); counts are per cell
/// or per serving session and must repeat exactly.
const PER_LAYER: &[(&str, &str)] = &[
    ("data.build_ms", "ms"),
    ("data.user_items_ms", "ms"),
    ("data.user_items_calls", "count"),
    ("data.shards_generated", "count"),
    ("attack.build_ms", "ms"),
    ("attack.poison_ms", "ms"),
    ("attack.poison_calls", "count"),
    ("attack.uploads", "count"),
    ("federated.build_ms", "ms"),
    ("federated.local_ms", "ms"),
    ("federated.local_calls", "count"),
    ("federated.upload_rows", "count"),
    ("federated.other_ms", "ms"),
    ("federated.rows_materialized", "count"),
    ("federated.participants_touched", "count"),
    ("federated.faults_dropped", "count"),
    ("federated.faults_late", "count"),
    ("federated.faults_rejected", "count"),
    ("defense.detect_ms", "ms"),
    ("defense.detect_uploads", "count"),
    ("defense.detect_pairs", "count"),
    ("defense.aggregate_ms", "ms"),
    ("defense.aggregate_uploads", "count"),
    ("defense.aggregate_rows_in", "count"),
    ("defense.aggregate_pairs", "count"),
    ("recsys.eval_build_ms", "ms"),
    ("recsys.eval_ms", "ms"),
    ("recsys.items_scored", "count"),
    ("recsys.items_skipped", "count"),
    ("serve.publish_ms", "ms"),
    ("serve.publishes", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.refused", "count"),
    ("serve.rows_materialized", "count"),
    ("serve.gen_lag_us", "us"),
    ("trace.attributed_share", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// `setup_s` samples per run: cells and sessions set up as often as the
/// run allows, topped up with set-up-only repetitions.
const MIN_SETUPS: usize = 9;

/// Traced repetitions per `--trace 1` run (the counts must agree).
const MIN_TRACED: usize = 2;

/// The offline-serving shape of the serve-million workload.
#[derive(Debug, Clone)]
struct ServeWorld {
    users: usize,
    items: usize,
    k: usize,
}

enum Workload {
    /// A scenario cell, then a serving session over its trained model.
    Cell(CellWorkload, ServeLoad),
    /// A serving session over a lazily derived population.
    Serve(ServeWorld, ServeLoad),
}

/// Serving phase after a cell: the trained `V` and user rows behind a
/// fresh service, served inline (closed loop; its latencies give the cell
/// workloads' `serve_p50_us`/`serve_p99_us`), no publishes.
fn cell_serve(tiny: bool) -> ServeLoad {
    ServeLoad {
        top_k: 10,
        hot: if tiny { 64 } else { 1_024 },
        closed: if tiny { 1_024 } else { 16_384 },
        open: 0,
        rate: 0.0,
        publish_every: 0,
        sample_every: 97,
    }
}

/// The workload table. `tiny` selects the self-test shrink: the tiny
/// population preset and a small serving world.
fn workload(name: &str, tiny: bool) -> Option<Workload> {
    let preset = |p: ScalePreset| if tiny { ScalePreset::Tiny } else { p };
    let cell = |p, model, attack, defense, rho, faults| CellWorkload {
        preset: preset(p),
        model,
        attack,
        defense,
        rho,
        faults,
    };
    Some(match name {
        "mf-fedrecattack-krum" => Workload::Cell(
            cell(
                ScalePreset::Smoke50k,
                ModelKind::Mf,
                AttackMethod::FedRecAttack,
                DefenseKind::Krum,
                0.01,
                true,
            ),
            cell_serve(tiny),
        ),
        "ncf-random-gated" => Workload::Cell(
            cell(
                ScalePreset::Smoke50k,
                ModelKind::Ncf,
                AttackMethod::Random,
                DefenseKind::DetectorGated,
                0.01,
                false,
            ),
            cell_serve(tiny),
        ),
        "mf-random-million" => Workload::Cell(
            cell(
                ScalePreset::Million,
                ModelKind::Mf,
                AttackMethod::Random,
                DefenseKind::None,
                0.001,
                false,
            ),
            cell_serve(tiny),
        ),
        "serve-million" if tiny => Workload::Serve(
            ServeWorld {
                users: 20_000,
                items: 2_000,
                k: 16,
            },
            ServeLoad {
                top_k: 10,
                hot: 1_024,
                closed: 4_096,
                open: 4_096,
                rate: OPEN_RATE_SERVE,
                publish_every: 2_000,
                sample_every: 97,
            },
        ),
        "serve-million" => Workload::Serve(
            ServeWorld {
                users: 1_000_000,
                items: 100_000,
                k: 32,
            },
            ServeLoad {
                top_k: 10,
                hot: 4_096,
                closed: 150_000,
                open: 150_000,
                rate: OPEN_RATE_SERVE,
                publish_every: 50_000,
                sample_every: 997,
            },
        ),
        _ => return None,
    })
}

/// Open-loop offered rate of serve-million.
const OPEN_RATE_SERVE: f64 = 40_000.0;

/// The workloads `BENCHMARK.json` lists, in its order.
const WORKLOADS: &[&str] = &[
    "mf-fedrecattack-krum",
    "ncf-random-gated",
    "mf-random-million",
];

/// Runnable by name but not listed in `BENCHMARK.json`: its thread
/// hand-offs make every time swing up to 2.5x with this 2-vCPU host's
/// slow phases, past any regression bound (see `perfbench/README.md`).
const UNLISTED: &[&str] = &["serve-million"];

/// One run's result.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Served responses checked byte-for-byte against offline ranking.
    verified: u64,
    /// Set when a traced count failed to repeat.
    inconsistent: bool,
    metrics: BTreeMap<&'static str, f64>,
}

/// Samples gathered over a run.
#[derive(Debug, Default)]
struct Samples {
    cell_s: Vec<f64>,
    setup_s: Vec<f64>,
    /// Per cell (session): its mean round (publish step) time. Lazy shard
    /// generation makes a million-user cell's rounds bimodal, so a median
    /// over pooled rounds would jump with the seed; the mean does not.
    round_ms: Vec<f64>,
    rps: Vec<f64>,
    latency_ns: Vec<f64>,
}

impl Samples {
    /// Closed-loop (or inline) throughput and the session's latencies.
    fn serve(&mut self, out: &ServeOutcome) {
        self.rps
            .push(out.closed_done as f64 / out.closed_s.max(1e-9));
        self.latency_ns.extend_from_slice(&out.latency_ns);
    }
}

/// Process high-water mark in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: f64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0.0);
            return kb / 1024.0;
        }
    }
    0.0
}

/// The norm-skewed catalog and lazily derived population of serve-million.
fn serve_world(w: &ServeWorld, seed: u64) -> (Matrix, Arc<ShardedMatrix>) {
    let mut rng = SeededRng::new(seed ^ 0x5E21);
    let mut items = Matrix::random_normal(w.items, w.k, 0.0, 0.1, &mut rng);
    // Trained-model norm profile: popular items carry long vectors.
    for i in 0..w.items {
        let scale = ((i + 1) as f32).powf(-0.5);
        for x in &mut items.as_mut_slice()[i * w.k..(i + 1) * w.k] {
            *x *= scale;
        }
    }
    let mut parent = SeededRng::new(seed ^ 0xC01D);
    let init = SeededGaussianInit::record(&mut parent, w.users, 64, 0.0, 0.1);
    let users = Arc::new(ShardedMatrix::new(w.users, w.k, 4_096, Box::new(init)));
    (items, users)
}

/// Per-layer serve metrics of one session.
fn serve_layer(out: &ServeOutcome, rows_materialized: u64) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let mut publish = out.publish_ms.clone();
    publish.push(out.first_publish_ms);
    m.insert("serve.publish_ms", clock::median(&publish));
    m.insert("serve.publishes", out.publishes as f64);
    m.insert(
        "serve.hit_ratio",
        out.closed_hits as f64 / (out.closed_done.max(1) as f64),
    );
    m.insert("serve.refused", out.refused as f64);
    m.insert("serve.rows_materialized", rows_materialized as f64);
    let mut lag = out.lag_ns.clone();
    m.insert(
        "serve.gen_lag_us",
        if lag.is_empty() {
            0.0
        } else {
            clock::quantile(&mut lag, 0.99) / 1e3
        },
    );
    m
}

/// Per-layer metrics of one traced cell.
fn cell_layer(t: &trace::Trace) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    for (metric, span) in [
        ("data.build_ms", "data.build"),
        ("data.user_items_ms", "data.user_items"),
        ("attack.build_ms", "attack.build"),
        ("attack.poison_ms", "attack.poison"),
        ("federated.build_ms", "federated.build"),
        ("federated.local_ms", "federated.local"),
        ("federated.other_ms", "federated.round"),
        ("defense.detect_ms", "defense.detect"),
        ("defense.aggregate_ms", "defense.aggregate"),
        ("recsys.eval_build_ms", "recsys.eval_build"),
        ("recsys.eval_ms", "recsys.eval"),
    ] {
        m.insert(metric, t.ms(span));
    }
    for (metric, span) in [
        ("data.user_items_calls", "data.user_items"),
        ("attack.poison_calls", "attack.poison"),
        ("federated.local_calls", "federated.local"),
    ] {
        m.insert(metric, t.calls(span) as f64);
    }
    for name in [
        "data.shards_generated",
        "attack.uploads",
        "federated.upload_rows",
        "federated.rows_materialized",
        "federated.participants_touched",
        "federated.faults_dropped",
        "federated.faults_late",
        "federated.faults_rejected",
        "defense.detect_uploads",
        "defense.detect_pairs",
        "defense.aggregate_uploads",
        "defense.aggregate_rows_in",
        "defense.aggregate_pairs",
        "recsys.items_scored",
        "recsys.items_skipped",
    ] {
        m.insert(name, t.count(name) as f64);
    }
    m
}

fn is_count(name: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|(n, unit)| *n == name && *unit == "count")
}

/// Reduce per-repetition per-layer maps: medians of times and ratios,
/// the first repetition's counts (which must all agree).
fn reduce_layers(reps: &[BTreeMap<&'static str, f64>], out: &mut Outcome) {
    for &(name, _) in PER_LAYER {
        let vals: Vec<f64> = reps
            .iter()
            .map(|r| r.get(name).copied().unwrap_or(0.0))
            .collect();
        let v = if is_count(name) {
            if vals.iter().any(|&x| x.to_bits() != vals[0].to_bits()) {
                eprintln!("count {name} did not repeat: {vals:?}");
                out.inconsistent = true;
            }
            vals[0]
        } else {
            clock::median(&vals)
        };
        out.metrics.insert(name, v);
    }
}

fn run_cell_workload(
    w: &CellWorkload,
    load: &ServeLoad,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let cfg = w.config(seed);
    let want = cell::reference(&cfg, &w.cell());
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let mut layers = Vec::new();
    let mut share = Vec::new();
    let mut overhead_ms = Vec::new();
    // A traced run alternates untraced and traced cells; each traced cell
    // is compared with the untraced one just before it, so both sides of
    // the coverage and overhead ratios see the same host conditions.
    let t_run = clock::now();
    let mut rep = 0usize;
    loop {
        let rec = (traced && rep % 2 == 1).then(trace::Recorder::new);
        let run = cell::run(w, &cfg, &want, rec.as_ref());
        out.attempted += 1;
        if !run.matches {
            out.failed += 1;
        }
        let before = run.sim.rows_materialized();
        let sv = serve::inline_session(run.sim.items(), run.sim.user_rows(), load);
        out.attempted += sv.attempted;
        out.failed += sv.failed;
        out.verified += sv.verified;
        let served_rows = (run.sim.rows_materialized() - before) as u64;
        match run.trace {
            Some(t) => {
                let mut m = cell_layer(&t);
                m.extend(serve_layer(&sv, served_rows));
                let untraced = *s
                    .cell_s
                    .last()
                    .expect("an untraced cell precedes each traced one");
                share.push(t.attributed_ms("cell") / (untraced * 1e3));
                overhead_ms.push((run.cell_s - untraced) * 1e3);
                layers.push(m);
            }
            None => {
                s.cell_s.push(run.cell_s);
                s.setup_s.push(run.setup_s);
                s.round_ms.push(clock::mean(&run.round_ms));
                s.serve(&sv);
            }
        }
        rep += 1;
        let enough = !traced || layers.len() >= MIN_TRACED;
        if enough && clock::secs_since(t_run) >= seconds {
            break;
        }
    }
    if traced {
        reduce_layers(&layers, &mut out);
        out.metrics
            .insert("trace.attributed_share", clock::median(&share));
        out.metrics
            .insert("trace.overhead_ms", clock::median(&overhead_ms));
    } else {
        while s.setup_s.len() < MIN_SETUPS {
            s.setup_s.push(cell::setup_only(w, &cfg));
        }
        end_to_end(&mut s, &mut out);
    }
    out
}

fn run_serve_workload(
    w: &ServeWorld,
    load: &ServeLoad,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Outcome {
    let mut out = Outcome::default();
    let mut s = Samples::default();
    let mut layers = Vec::new();
    let t_run = clock::now();
    loop {
        let t = clock::now();
        let (mut items, users) = serve_world(w, seed);
        let build_s = clock::secs_since(t);
        let sv = serve::session(&mut items, &*users, load);
        out.attempted += sv.attempted;
        out.failed += sv.failed;
        out.verified += sv.verified;
        let rows = users.materialized_rows() as u64;
        if rows != 0 {
            out.failed += 1;
        }
        s.setup_s.push(build_s + sv.warm_s);
        s.cell_s.push(build_s + sv.warm_s + sv.closed_s);
        s.round_ms.push(clock::mean(&sv.publish_ms));
        s.serve(&sv);
        layers.push(serve_layer(&sv, rows));
        let floor = if traced { MIN_TRACED } else { 1 };
        if layers.len() >= floor && clock::secs_since(t_run) >= seconds {
            break;
        }
    }
    if traced {
        reduce_layers(&layers, &mut out);
    } else {
        let warm_only = ServeLoad {
            closed: 0,
            open: 0,
            ..load.clone()
        };
        while s.setup_s.len() < MIN_SETUPS {
            let t = clock::now();
            let (mut items, users) = serve_world(w, seed);
            let build_s = clock::secs_since(t);
            let sv = serve::session(&mut items, &*users, &warm_only);
            out.attempted += sv.attempted;
            out.failed += sv.failed;
            s.setup_s.push(build_s + sv.warm_s);
        }
        end_to_end(&mut s, &mut out);
    }
    out
}

fn end_to_end(s: &mut Samples, out: &mut Outcome) {
    eprintln!(
        "samples: cell_s {} setup_s {} round_ms {} serve_rps {} latency {}; \
         {} responses verified byte-for-byte",
        s.cell_s.len(),
        s.setup_s.len(),
        s.round_ms.len(),
        s.rps.len(),
        s.latency_ns.len(),
        out.verified
    );
    out.metrics.insert("cell_s", clock::median(&s.cell_s));
    out.metrics.insert("setup_s", clock::median(&s.setup_s));
    out.metrics.insert("round_ms", clock::median(&s.round_ms));
    out.metrics.insert("peak_rss_mb", peak_rss_mb());
    out.metrics.insert("serve_rps", clock::median(&s.rps));
    out.metrics.insert(
        "serve_p50_us",
        clock::quantile(&mut s.latency_ns, 0.5) / 1e3,
    );
    out.metrics.insert(
        "serve_p99_us",
        clock::quantile(&mut s.latency_ns, 0.99) / 1e3,
    );
}

fn run(name: &str, seed: u64, seconds: f64, traced: bool, tiny: bool) -> Option<Outcome> {
    Some(match workload(name, tiny)? {
        Workload::Cell(w, load) => run_cell_workload(&w, &load, seed, seconds, traced),
        Workload::Serve(w, load) => run_serve_workload(&w, &load, seed, seconds, traced),
    })
}

fn render(out: &Outcome, traced: bool) -> String {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut parts = Vec::new();
    for &(name, unit) in table {
        let v = out.metrics.get(name).copied().unwrap_or(0.0);
        let v = if v.is_finite() { v } else { 0.0 };
        parts.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && !out.inconsistent,
        out.attempted.max(1),
        out.failed,
        parts.join(", ")
    )
}

/// Metric names listed under `section` in `BENCHMARK.json`.
fn declared_names(json: &str, section: &str) -> Vec<String> {
    let Some(start) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let body = &json[start..];
    let end = body.find(']').unwrap_or(body.len());
    let mut names = Vec::new();
    let mut rest = &body[..end];
    while let Some(i) = rest.find("\"name\"") {
        rest = &rest[i + 6..];
        let Some(q) = rest.find('"') else { break };
        rest = &rest[q + 1..];
        let Some(e) = rest.find('"') else { break };
        names.push(rest[..e].to_string());
        rest = &rest[e + 1..];
    }
    names
}

/// Traced run twice on the tiny variant of every workload: every count
/// must repeat exactly, and the reported names must match the file.
fn selftest() -> Result<(), String> {
    let json = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json (run from the repository root): {e}"))?;
    let want = |section: &str, table: &[(&str, &str)]| -> Result<(), String> {
        let mut declared = declared_names(&json, section);
        let mut ours: Vec<String> = table.iter().map(|(n, _)| n.to_string()).collect();
        declared.sort();
        ours.sort();
        if declared != ours {
            return Err(format!(
                "{section} names differ: file {declared:?}, benchmark {ours:?}"
            ));
        }
        Ok(())
    };
    want("end_to_end", END_TO_END)?;
    want("per_layer", PER_LAYER)?;
    let declared_workloads = declared_names(&json, "workloads");
    if declared_workloads != WORKLOADS {
        return Err(format!("workloads differ: file {declared_workloads:?}"));
    }
    for &name in WORKLOADS.iter().chain(UNLISTED) {
        let a = run(name, 7, 0.0, true, true).expect("known workload");
        let b = run(name, 7, 0.0, true, true).expect("known workload");
        for out in [&a, &b] {
            if out.failed > 0 || out.inconsistent {
                return Err(format!("{name}: a traced run failed its checks"));
            }
        }
        for &(metric, unit) in PER_LAYER {
            if unit != "count" {
                continue;
            }
            let (x, y) = (a.metrics.get(metric), b.metrics.get(metric));
            if x.map(|v| v.to_bits()) != y.map(|v| v.to_bits()) {
                return Err(format!(
                    "{name}: count {metric} differs across runs: {x:?} vs {y:?}"
                ));
            }
        }
        let e2e = run(name, 7, 0.0, false, true).expect("known workload");
        if e2e.failed > 0 {
            return Err(format!("{name}: an untraced run failed its checks"));
        }
        eprintln!(
            "selftest {name}: counts repeat, {} operations checked",
            a.attempted + b.attempted + e2e.attempted
        );
    }
    Ok(())
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --selftest",
        [WORKLOADS, UNLISTED].concat().join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    // fedrec-lint: allow(wall-clock) — command-line arguments of the benchmark binary, not simulation input
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() == 1 && args[0] == "--selftest" {
        return match selftest() {
            Ok(()) => {
                println!("selftest OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("selftest FAILED: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut opts: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" => "workload",
            "--seed" => "seed",
            "--seconds" => "seconds",
            "--trace" => "trace",
            _ => return usage(),
        };
        let Some(value) = it.next() else {
            return usage();
        };
        opts.insert(key, value.as_str());
    }
    let (Some(name), Some(seed), Some(seconds), Some(trace)) = (
        opts.get("workload"),
        opts.get("seed").and_then(|s| s.parse::<u64>().ok()),
        opts.get("seconds").and_then(|s| s.parse::<f64>().ok()),
        opts.get("trace").and_then(|s| match *s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    match run(name, seed, seconds, trace, false) {
        Some(out) => {
            println!("{}", render(&out, trace));
            ExitCode::SUCCESS
        }
        None => usage(),
    }
}
