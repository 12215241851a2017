//! Workspace walking, suppression matching and the CLI entry point shared
//! by the `fedrec-lint` binary and `repro lint`.

use crate::diagnostics::{Diagnostic, Report};
use crate::rules::{check_file, SourceFile};
use crate::suppress::{self, Suppression};
use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "fixtures"];
/// Path prefixes never scanned: vendored offline dev-dependency shims.
const SKIP_PREFIXES: &[&str] = &["crates/devtools"];

/// How a lint run is configured.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workspace root to scan.
    pub root: PathBuf,
    /// Emit machine-readable JSON instead of the human report.
    pub json: bool,
}

impl Options {
    /// Default options for `root`.
    pub fn new(root: PathBuf) -> Self {
        Self { root, json: false }
    }
}

/// Locate the workspace root by walking up from the current directory to
/// the first `Cargo.toml` declaring `[workspace]`.
pub fn discover_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("current_dir: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found walking up from the current dir".into());
        }
    }
}

/// Collect every lintable `.rs` file under `root`, workspace-relative,
/// in sorted (byte-stable) order.
pub fn collect_files(root: &Path) -> Result<Vec<String>, String> {
    let mut out = Vec::new();
    walk(root, Path::new(""), &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(root: &Path, rel: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let dir = root.join(rel);
    let mut entries: Vec<_> = std::fs::read_dir(&dir)
        .map_err(|e| format!("read_dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    entries.sort();
    for name in entries {
        let rel_child = if rel.as_os_str().is_empty() {
            PathBuf::from(&name)
        } else {
            rel.join(&name)
        };
        let abs = root.join(&rel_child);
        let rel_str = rel_child.to_string_lossy().replace('\\', "/");
        if abs.is_dir() {
            if SKIP_DIRS.contains(&name.as_str())
                || SKIP_PREFIXES.iter().any(|p| rel_str.starts_with(p))
            {
                continue;
            }
            walk(root, &rel_child, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_str);
        }
    }
    Ok(())
}

/// Lint one already-loaded file: run the rules, then resolve suppressions.
/// Returns `(new, suppressed, meta)` where `meta` are the
/// `bad-suppression` / `unused-suppression` findings.
pub fn lint_source(
    rel_path: &str,
    src: &str,
) -> (Vec<Diagnostic>, Vec<(Diagnostic, String)>, Vec<Diagnostic>) {
    let file = SourceFile::new(rel_path, src);
    let raw_lines: Vec<&str> = src.lines().collect();
    // Suppressions inside test spans are ignored entirely: test code is
    // already exempt from the rules, so a suppression there can only be
    // stale (and the lint's own unit tests quote the syntax in strings).
    let suppressions: Vec<Suppression> = suppress::scan(&raw_lines)
        .into_iter()
        .filter(|s| !file.in_test(s.comment_line))
        .collect();
    let diags = check_file(&file);

    let mut new = Vec::new();
    let mut suppressed = Vec::new();
    let mut used = vec![false; suppressions.len()];
    for d in diags {
        let hit = suppressions.iter().enumerate().find(|(_, s)| {
            s.error.is_none() && s.target_line == d.line && s.rules.iter().any(|r| r == d.rule)
        });
        match hit {
            Some((idx, s)) => {
                used[idx] = true;
                suppressed.push((d, s.justification.clone()));
            }
            None => new.push(d),
        }
    }

    let mut meta = Vec::new();
    for (idx, s) in suppressions.iter().enumerate() {
        let snippet = raw_lines
            .get(s.comment_line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        if let Some(err) = &s.error {
            meta.push(Diagnostic {
                rule: "bad-suppression",
                file: rel_path.to_string(),
                line: s.comment_line,
                message: format!("malformed suppression: {err}"),
                snippet,
            });
        } else if !used[idx] {
            meta.push(Diagnostic {
                rule: "unused-suppression",
                file: rel_path.to_string(),
                line: s.comment_line,
                message: format!(
                    "suppression of `{}` silences nothing on line {} — remove it",
                    s.rules.join(", "),
                    s.target_line
                ),
                snippet,
            });
        }
    }
    (new, suppressed, meta)
}

/// Lint every file under `root`.
pub fn lint_tree(root: &Path) -> Result<Report, String> {
    let files = collect_files(root)?;
    let mut report = Report {
        new_violations: Vec::new(),
        suppressed: Vec::new(),
        files_scanned: files.len(),
    };
    for rel in &files {
        let src =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("read {rel}: {e}"))?;
        let (new, suppressed, meta) = lint_source(rel, &src);
        report.new_violations.extend(new.into_iter().chain(meta));
        report.suppressed.extend(suppressed);
    }
    report.normalize();
    Ok(report)
}

/// Run a full lint pass per `opts`. Returns the report and its rendering.
pub fn run(opts: &Options) -> Result<(Report, String), String> {
    let report = lint_tree(&opts.root)?;
    let rendered = if opts.json {
        report.render_json()
    } else {
        report.render_human()
    };
    Ok((report, rendered))
}

/// Shared CLI driver for `fedrec-lint` and `repro lint`: parses flags,
/// runs, prints, returns the process exit code (0 clean, 1 violations,
/// 2 usage or I/O error).
pub fn run_cli(args: &[String]) -> i32 {
    let mut opts = Options::new(PathBuf::new());
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => opts.json = true,
            "--root" => match it.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--rules" => {
                for (slug, summary) in crate::rules::RULE_SUMMARIES {
                    println!("{slug}: {summary}");
                }
                return 0;
            }
            "--help" | "-h" => return usage(),
            _ => return usage(),
        }
    }
    opts.root = match root.map(Ok).unwrap_or_else(discover_root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("fedrec-lint: {e}");
            return 2;
        }
    };
    match run(&opts) {
        Ok((report, rendered)) => {
            print!("{rendered}");
            if report.is_clean() {
                0
            } else {
                1
            }
        }
        Err(e) => {
            eprintln!("fedrec-lint: {e}");
            2
        }
    }
}

fn usage() -> i32 {
    eprintln!(
        "usage: fedrec-lint [--root DIR] [--json] [--rules]\n\
         \x20 exit 0: no unsuppressed violations; exit 1: violations; exit 2: error"
    );
    2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppressed_violation_is_not_new_and_suppression_is_used() {
        let src = "fn f() {\n\
                   // fedrec-lint: allow(wall-clock) — progress logging only, never in records\n\
                   let t = Instant::now();\n\
                   }\n";
        let (new, suppressed, meta) = lint_source("crates/federated/src/x.rs", src);
        assert!(new.is_empty(), "{new:?}");
        assert_eq!(suppressed.len(), 1);
        assert!(meta.is_empty(), "{meta:?}");
    }

    #[test]
    fn unused_and_malformed_suppressions_are_reported() {
        let src = "// fedrec-lint: allow(wall-clock) — nothing here violates it\n\
                   fn f() {}\n\
                   // fedrec-lint: allow(wall-clock)\n\
                   fn g() {}\n";
        let (new, _, meta) = lint_source("crates/federated/src/x.rs", src);
        assert!(new.is_empty());
        let rules: Vec<&str> = meta.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"unused-suppression"));
        assert!(rules.contains(&"bad-suppression"));
    }
}
