//! The `repro` binary answers bad input with a typed failure — an
//! out-of-domain malicious ratio ρ with its usage message and exit code 2,
//! an unwritable output path, an unreadable cell file or a report
//! directory without cell files with a `repro:` error and exit code 1 —
//! never an allocation abort, a panic, a silently run nonsense cell or a
//! silently dropped report row. Each subcommand refuses, with a usage
//! error, every flag it does not read. And `repro matrix --smoke` runs its
//! whole gate on the tiny preset, digest golden included, and rejects
//! flags that would change the gate.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A scratch directory under the system temp dir, removed on drop — also
/// when a failing assertion unwinds the test.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("repro-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn assert_usage_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    assert!(stderr.contains("usage:"), "{what}: {stderr}");
}

#[test]
fn cell_rejects_rho_outside_the_unit_interval() {
    for rho in ["1e12", "inf", "NaN", "-0.5", "1.5", "x"] {
        let out = repro(&[
            "cell",
            "--population",
            "tiny",
            "--attack",
            "random",
            "--defense",
            "none",
            "--rho",
            rho,
        ]);
        assert_usage_error(&out, &format!("--rho {rho}"));
    }
}

#[test]
fn matrix_rejects_rho_lists_with_a_bad_entry() {
    for rhos in ["0.01,inf", "0.01,NaN", "-0.5", "0.01,1e12"] {
        let out = repro(&["matrix", "--population", "tiny", "--rhos", rhos]);
        assert_usage_error(&out, &format!("--rhos {rhos}"));
    }
}

/// An `--out` path that cannot be created is a `repro:` error with exit
/// code 1 — for a rendered table as for a cell's records — not a panic.
/// The report directory holds one valid cell, so `report` fails at its
/// write, not at reading the directory.
#[test]
fn unwritable_out_path_fails_cleanly() {
    let tmp = TempDir::new("out");
    let dir = tmp.path();
    let cell_lines: Vec<&str> = include_str!("../testdata/pairwise_tiny_reference.jsonl")
        .lines()
        .take(2)
        .collect();
    std::fs::write(dir.join("cell.jsonl"), cell_lines.join("\n") + "\n").unwrap();
    let out = dir.join("missing-dir").join("x");
    let (dir_arg, out_arg) = (dir.to_str().unwrap(), out.to_str().unwrap());
    let cell = [
        "cell",
        "--population",
        "tiny",
        "--attack",
        "random",
        "--defense",
        "none",
        "--rho",
        "0.01",
        "--out",
        out_arg,
    ];
    for args in [
        &["report", "--dir", dir_arg, "--out", out_arg][..],
        &cell[..],
    ] {
        let got = repro(args);
        let stderr = String::from_utf8_lossy(&got.stderr);
        assert_eq!(got.status.code(), Some(1), "{}: {stderr}", args[0]);
        let prefix = if args[0] == "report" {
            "repro: write"
        } else {
            "repro:"
        };
        assert!(stderr.starts_with(prefix), "{}: {stderr}", args[0]);
        assert!(!stderr.contains("panicked"), "{}: {stderr}", args[0]);
    }
}

/// A report directory without a single cell file is a `repro:` error
/// with exit code 1, not an empty table.
#[test]
fn report_fails_on_a_directory_without_cell_files() {
    let tmp = TempDir::new("empty");
    let dir = tmp.path();
    std::fs::write(dir.join("notes.txt"), "not a cell\n").unwrap();
    let got = repro(&["report", "--dir", dir.to_str().unwrap()]);
    let stderr = String::from_utf8_lossy(&got.stderr);
    assert_eq!(got.status.code(), Some(1), "{stderr}");
    let want = format!(
        "repro: report failed: no cell files (*.jsonl) in {}",
        dir.display()
    );
    assert!(stderr.starts_with(&want), "{stderr}");
    assert!(got.stdout.is_empty(), "rendered a table: {:?}", got.stdout);
}

/// A cell file without a final record the current schema accepts — an
/// old-schema file, a cell truncated mid-line — fails `repro report` with
/// exit code 1 and an error naming the file, instead of vanishing from
/// the table.
#[test]
fn report_fails_on_a_cell_file_without_a_final_record() {
    let tmp = TempDir::new("report");
    let dir = tmp.path();
    let old_schema = include_str!("../testdata/mf_tiny_reference.jsonl");
    // The first cell of a current-schema file, cut inside its final line.
    let mut lines = include_str!("../testdata/pairwise_tiny_reference.jsonl").lines();
    let (first, last) = (lines.next().unwrap(), lines.next().unwrap());
    let truncated = format!("{first}\n{}", &last[..last.len() / 2]);
    for (name, text) in [("old_schema", old_schema), ("truncated", &truncated)] {
        let case = dir.join(name);
        std::fs::create_dir_all(&case).unwrap();
        let file = case.join(format!("{name}.jsonl"));
        std::fs::write(&file, text).unwrap();
        let got = repro(&["report", "--dir", case.to_str().unwrap()]);
        let stderr = String::from_utf8_lossy(&got.stderr);
        assert_eq!(got.status.code(), Some(1), "{name}: {stderr}");
        let prefix = format!("repro: report failed: {}: ", file.display());
        assert!(stderr.starts_with(&prefix), "{name}: {stderr}");
        assert!(stderr.contains("last rejected line"), "{name}: {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    }
}

/// `repro matrix --smoke --population tiny` runs the gate CI runs at 50k
/// users — schema, lazy-store invariant, dense-vs-sharded identity,
/// standalone rerun, eval-mode identity, serve gate, crash-resume and the
/// per-cell digests against `testdata/smoke_digests_tiny.txt` — writes
/// one digest line per cell to `digests.txt`, and leaves files it did not
/// write in `--out-dir`. A dense population has no smoke grid and is a
/// usage error.
#[test]
fn tiny_smoke_gate_passes_and_keeps_the_out_dir() {
    let tmp = TempDir::new("smoke");
    let dir = tmp.path();
    let sentinel = dir.join("keep.txt");
    std::fs::write(&sentinel, "not a cell\n").unwrap();
    let dir_arg = dir.to_str().unwrap();
    let got = repro(&[
        "matrix",
        "--smoke",
        "--population",
        "tiny",
        "--out-dir",
        dir_arg,
    ]);
    let stderr = String::from_utf8_lossy(&got.stderr);
    assert_eq!(got.status.code(), Some(0), "{stderr}");
    let stdout = String::from_utf8_lossy(&got.stdout);
    assert!(stdout.starts_with("smoke OK"), "{stdout}");
    assert!(
        sentinel.is_file(),
        "the smoke run deleted {}",
        sentinel.display()
    );
    let digests = std::fs::read_to_string(dir.join("digests.txt")).unwrap();
    assert_eq!(
        digests,
        include_str!("../testdata/smoke_digests_tiny.txt"),
        "digests.txt"
    );
    let dense = repro(&["matrix", "--smoke", "--population", "ml100k"]);
    assert_usage_error(&dense, "--smoke --population ml100k");
}

/// The smoke preset's eval cadence is part of its gate, so `--smoke` with
/// `--eval-every` is a usage error rather than a flag silently ignored.
#[test]
fn smoke_rejects_an_eval_cadence() {
    for every in ["1", "4"] {
        let out = repro(&[
            "matrix",
            "--smoke",
            "--population",
            "tiny",
            "--eval-every",
            every,
        ]);
        assert_usage_error(&out, &format!("--smoke --eval-every {every}"));
    }
}

/// Assert that `base` followed by each flag set in `extras` is a usage
/// error: a flag the subcommand never reads is refused, not ignored.
fn assert_each_rejected(base: &[&str], extras: &[&[&str]]) {
    for extra in extras {
        let args = [base, extra].concat();
        assert_usage_error(&repro(&args), &args.join(" "));
    }
}

/// The paper experiments read `--scale --seed --csv --out`, and `fig3` and
/// `all` a cadence too; every grid, cell or report flag is a usage error.
#[test]
fn paper_experiments_reject_flags_they_never_read() {
    let grid_flags: &[&[&str]] = &[
        &["--population", "million"],
        &["--attacks", "random"],
        &["--backend", "dense"],
        &["--eval-mode", "pruned"],
        &["--serve"],
        &["--dataset", "ml1m"],
        &["--rho", "0.1"],
        &["--dir", "runs"],
    ];
    for experiment in ["table2", "detection", "fig3", "all"] {
        assert_each_rejected(&[experiment, "--seed", "1"], grid_flags);
    }
    assert_each_rejected(&["table3"], &[&["--eval-every", "5"]]);
}

/// `report` reads `--dir --csv --out` and nothing else.
#[test]
fn report_rejects_flags_it_never_reads() {
    assert_each_rejected(
        &["report", "--dir", "runs"],
        &[
            &["--seed", "1"],
            &["--scale", "paper"],
            &["--population", "tiny"],
            &["--out-dir", "runs"],
        ],
    );
}

/// `cell` reads the grid configuration and its own cell and `--out`, but
/// not the grid's arms, worker count or output directory.
#[test]
fn cell_rejects_the_grids_arms_and_outputs() {
    assert_each_rejected(
        &[
            "cell",
            "--population",
            "tiny",
            "--attack",
            "random",
            "--defense",
            "none",
            "--rho",
            "0",
        ],
        &[
            &["--attacks", "random"],
            &["--defenses", "krum"],
            &["--rhos", "0.1"],
            &["--out-dir", "runs"],
            &["--workers", "2"],
            &["--csv"],
            &["--dir", "runs"],
        ],
    );
}

/// `matrix` writes a directory, so it refuses `--out`, and it refuses a
/// single cell's `--attack --defense --rho`.
#[test]
fn matrix_rejects_cell_flags_and_a_single_output_file() {
    assert_each_rejected(
        &["matrix", "--population", "tiny"],
        &[
            &["--out", "x.md"],
            &["--attack", "random"],
            &["--defense", "krum"],
            &["--rho", "0.1"],
            &["--dir", "runs"],
        ],
    );
}

/// The digest golden pins the smoke preset's default grid at seed 42: with
/// `--smoke` every flag that changes the grid or its bytes is a usage
/// error, and so is a preset without a golden.
#[test]
fn smoke_rejects_flags_that_change_the_pinned_grid() {
    assert_each_rejected(
        &["matrix", "--smoke"],
        &[
            &["--seed", "42"],
            &["--attacks", "random"],
            &["--rhos", "0.1"],
            &["--model", "ncf"],
            &["--epochs", "2"],
            &["--backend", "dense"],
            &["--eval-mode", "pruned"],
            &["--eval-threads", "2"],
            &["--eval-users", "100"],
            &["--serve"],
            &["--csv"],
            &["--population", "million"],
        ],
    );
}
