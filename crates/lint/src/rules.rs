//! The determinism & checkpoint-safety rule set.
//!
//! Every rule is a token-level pass over one file. The rules encode the
//! workspace's load-bearing invariant — dense-vs-sharded, 1/2/8-thread and
//! kill-and-resume **byte-identity** — as source-level contracts:
//!
//! | slug | hazard |
//! |------|--------|
//! | `hash-iter` | iterating a `HashMap`/`HashSet` (nondeterministic order feeding aggregation, JSONL emission or checkpoint bytes) |
//! | `wall-clock` | `Instant::now`/`SystemTime::now`/`std::env` reads outside `crates/bench`, `crates/devtools`, `crates/lint` and the pinned telemetry file `crates/serve/src/telemetry.rs` |
//! | `thread-id` | thread-identity dependence (`thread::current().id()`, `thread_local!`) in round-loop code |
//! | `rng-seed` | RNG construction whose argument does not visibly flow from a seed/state, or ambient entropy (`thread_rng`, `RandomState`) |
//! | `unsafe-safety` | an `unsafe` token without an adjacent `// SAFETY:` comment |
//! | `lossy-cast` | truncating `as` casts to sub-`u64` integers inside byte-codec code (`checkpoint.rs`-style files, and functions touching `ByteWriter`/`ByteReader`) |
//! | `float-merge` | float reductions (`.sum()`/`.fold()`/`.product()`) in thread-spawning files outside the approved kernels and `MetricsAccumulator::merge` |
//!
//! Test code (files under `tests/`/`benches/`, `#[cfg(test)]` modules,
//! `#[test]` functions) is exempt from every rule except `unsafe-safety`:
//! tests exercise the invariants, they do not produce the bytes the
//! invariants protect.

use crate::diagnostics::Diagnostic;
use crate::lexer::{lex, TokKind, Token};
use std::collections::BTreeSet;

/// Every rule slug the suppression scanner accepts, including the two
/// meta-rules the engine emits about suppressions themselves.
pub const RULE_SLUGS: &[&str] = &[
    "hash-iter",
    "wall-clock",
    "thread-id",
    "rng-seed",
    "unsafe-safety",
    "lossy-cast",
    "float-merge",
    "bad-suppression",
    "unused-suppression",
];

/// One-line summaries, aligned with [`RULE_SLUGS`] — rendered by
/// `fedrec-lint --rules` and the architecture docs.
pub const RULE_SUMMARIES: &[(&str, &str)] = &[
    ("hash-iter", "HashMap/HashSet iteration: order is nondeterministic; use BTreeMap/BTreeSet or sort before iterating"),
    ("wall-clock", "Instant::now/SystemTime::now/std::env reads outside bench/devtools/lint and serve's telemetry file: ambient state must not reach simulation code"),
    ("thread-id", "thread::current()/ThreadId/thread_local!: results must be thread-count- and thread-identity-invariant"),
    ("rng-seed", "RNG built from a value that does not visibly flow from a seed/state argument, or from ambient entropy"),
    ("unsafe-safety", "unsafe without an adjacent // SAFETY: comment"),
    ("lossy-cast", "truncating integer `as` cast inside a byte-codec file: use try_from or widen the wire format"),
    ("float-merge", "float reduction in a thread-spawning file outside fedrec-linalg kernels / MetricsAccumulator::merge: summation order must be fixed"),
];

/// A parsed source file plus everything rule checkers need to know about
/// where it sits in the workspace.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// `crates/<name>/…` → `<name>`; root `src`/`tests`/`examples` → `root`.
    pub crate_name: String,
    /// Raw source lines (for snippets and comment scanning).
    pub lines: Vec<String>,
    /// Token stream with comments and literal contents stripped.
    pub tokens: Vec<Token>,
    /// Per-line flag: inside a `#[cfg(test)]`/`#[test]` item.
    pub test_lines: Vec<bool>,
    /// Whole file is test/bench code (path has a `tests`/`benches` dir).
    pub is_test_file: bool,
}

impl SourceFile {
    /// Lex `src` and precompute the test-span mask.
    pub fn new(rel_path: &str, src: &str) -> Self {
        let tokens = lex(src);
        let lines: Vec<String> = src.lines().map(String::from).collect();
        let crate_name = crate_of(rel_path);
        let is_test_file = rel_path.split('/').any(|c| c == "tests" || c == "benches");
        let test_lines = test_line_mask(&tokens, lines.len());
        Self {
            rel_path: rel_path.to_string(),
            crate_name,
            lines,
            tokens,
            test_lines,
            is_test_file,
        }
    }

    fn snippet(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default()
    }

    /// Is `line` (1-based) inside test code — a `tests/`/`benches/` file
    /// or a `#[cfg(test)]`/`#[test]` item?
    pub fn in_test(&self, line: u32) -> bool {
        self.is_test_file || *self.test_lines.get(line as usize - 1).unwrap_or(&false)
    }

    fn diag(&self, rule: &'static str, line: u32, message: String) -> Diagnostic {
        Diagnostic {
            rule,
            file: self.rel_path.clone(),
            line,
            message,
            snippet: self.snippet(line),
        }
    }
}

fn crate_of(rel_path: &str) -> String {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name.to_string(),
        _ => "root".to_string(),
    }
}

/// Crates whose whole purpose is timing or host introspection: exempt
/// from `wall-clock` and `thread-id`.
const CLOCK_EXEMPT_CRATES: &[&str] = &["bench", "devtools", "lint"];

/// Individual production files allowed to read the wall clock (and only
/// that — `thread-id` still applies). The file holds `Stamp`, the one
/// clock every observational production timing reads; confining the
/// exemption to one file keeps every serving path (scoring, caching,
/// snapshot publication) under the rule, so timestamps can never leak
/// into ranked output or recorded experiment bytes.
const CLOCK_EXEMPT_PATHS: &[&str] = &["crates/serve/src/telemetry.rs"];

/// Files allowed to perform float reductions in (or for use by) threaded
/// contexts: the linalg kernels and the metrics accumulator whose `merge`
/// fixes the summation association.
const FLOAT_MERGE_APPROVED: &[&str] = &["crates/recsys/src/metrics.rs"];

/// Run every applicable rule over one file.
pub fn check_file(f: &SourceFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if f.crate_name == "devtools" {
        // Vendored offline stand-ins for external dev-deps; not our code.
        return out;
    }
    if !f.is_test_file {
        rule_hash_iter(f, &mut out);
        if !CLOCK_EXEMPT_CRATES.contains(&f.crate_name.as_str()) {
            if !CLOCK_EXEMPT_PATHS.contains(&f.rel_path.as_str()) {
                rule_wall_clock(f, &mut out);
            }
            rule_thread_id(f, &mut out);
        }
        rule_rng_seed(f, &mut out);
        rule_lossy_cast(f, &mut out);
        if !FLOAT_MERGE_APPROVED.contains(&f.rel_path.as_str())
            && !f.rel_path.starts_with("crates/linalg/src/")
            && f.crate_name != "bench"
        {
            rule_float_merge(f, &mut out);
        }
    }
    rule_unsafe_safety(f, &mut out);
    out
}

// ---------------------------------------------------------------- rule 1

const HASH_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
    "retain",
];

/// Identifiers bound to a hash collection in this file: `let` bindings
/// (annotated or initialized from `HashMap`/`HashSet` expressions), struct
/// fields and `name: HashMap<..>` parameters.
fn hash_bound_idents(tokens: &[Token]) -> BTreeSet<String> {
    let mut bound = BTreeSet::new();
    for (i, t) in tokens.iter().enumerate() {
        if !(t.kind == TokKind::Ident && HASH_TYPES.contains(&t.text.as_str())) {
            continue;
        }
        // `name: HashMap<..>` (field, annotated let, fn param) — skip
        // `&`/`mut` between the colon and the type, and rule out `::`
        // paths like `std::collections::HashMap`.
        let mut j = i;
        while j > 0 && (tokens[j - 1].is_punct('&') || tokens[j - 1].is_ident("mut")) {
            j -= 1;
        }
        if j >= 2
            && tokens[j - 1].is_punct(':')
            && !tokens[j - 2].is_punct(':')
            && tokens[j - 2].kind == TokKind::Ident
        {
            bound.insert(tokens[j - 2].text.clone());
            continue;
        }
        // `let [mut] name = … HashMap/HashSet …;` — scan back to the
        // statement's `let` within the current statement window.
        let mut k = i;
        while k > 0 {
            let prev = &tokens[k - 1];
            if prev.is_punct(';') || prev.is_punct('{') || prev.is_punct('}') {
                break;
            }
            k -= 1;
            if tokens[k].is_ident("let") {
                let mut n = k + 1;
                if n < tokens.len() && tokens[n].is_ident("mut") {
                    n += 1;
                }
                if n < tokens.len() && tokens[n].kind == TokKind::Ident {
                    bound.insert(tokens[n].text.clone());
                }
                break;
            }
        }
    }
    bound
}

fn rule_hash_iter(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let bound = hash_bound_idents(&f.tokens);
    if bound.is_empty() {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || !bound.contains(&t.text) || f.in_test(t.line) {
            continue;
        }
        // `set.iter()`, `map.keys()`, `map.drain()`, …
        if i + 2 < toks.len()
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
        {
            out.push(f.diag(
                "hash-iter",
                t.line,
                format!(
                    "iteration over hash collection `{}` (`.{}`): order is \
                     nondeterministic — use BTreeMap/BTreeSet or collect-and-sort \
                     before it can feed aggregation, JSONL or checkpoint bytes",
                    t.text,
                    toks[i + 2].text
                ),
            ));
            continue;
        }
        // `for x in set {` / `for (k, v) in &map {`
        let direct_for = i >= 1
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('{')
            && (toks[i - 1].is_ident("in")
                || toks[i - 1].is_punct('&')
                || (i >= 2 && toks[i - 1].is_ident("mut") && toks[i - 2].is_punct('&')));
        if direct_for {
            out.push(f.diag(
                "hash-iter",
                t.line,
                format!(
                    "`for` loop over hash collection `{}`: order is nondeterministic \
                     — use BTreeMap/BTreeSet or collect-and-sort first",
                    t.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 2

const ENV_FNS: &[&str] = &[
    "var",
    "vars",
    "var_os",
    "vars_os",
    "args",
    "args_os",
    "temp_dir",
    "current_dir",
    "home_dir",
    "set_var",
    "remove_var",
    "set_current_dir",
];

fn rule_wall_clock(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    for i in 0..toks.len().saturating_sub(3) {
        let (a, c1, c2, b) = (&toks[i], &toks[i + 1], &toks[i + 2], &toks[i + 3]);
        if !(c1.is_punct(':') && c2.is_punct(':')) || f.in_test(a.line) {
            continue;
        }
        let hit = if (a.is_ident("Instant") || a.is_ident("SystemTime")) && b.is_ident("now") {
            Some(format!("`{}::now()`", a.text))
        } else if a.is_ident("env")
            && b.kind == TokKind::Ident
            && ENV_FNS.contains(&b.text.as_str())
        {
            Some(format!("`env::{}`", b.text))
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(f.diag(
                "wall-clock",
                a.line,
                format!(
                    "{what} outside the timing-exempt crates (bench/devtools/lint) \
                     and files (serve telemetry): wall-clock and environment reads \
                     are ambient inputs the byte-identity gates cannot replay — \
                     keep them out of simulation code or suppress with a \
                     justification"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 3

fn rule_thread_id(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || f.in_test(t.line) {
            continue;
        }
        let hit = if t.text == "thread_local" && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
            Some("`thread_local!` state")
        } else if t.text == "ThreadId" {
            Some("`ThreadId`")
        } else if t.text == "thread"
            && toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
            && toks.get(i + 3).is_some_and(|n| n.is_ident("current"))
        {
            Some("`thread::current()`")
        } else {
            None
        };
        if let Some(what) = hit {
            out.push(f.diag(
                "thread-id",
                t.line,
                format!(
                    "{what}: round-loop results must be invariant to thread count and \
                     identity — shard state explicitly (per-worker scratch passed by \
                     the scope) instead"
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 4

const RNG_CTORS: &[&str] = &["new", "from_state", "from_full_state"];
const ENTROPY_IDENTS: &[&str] = &["thread_rng", "from_entropy", "RandomState"];
/// Identifiers that neither prove nor break seed flow (casts, keywords,
/// pure integer mixers).
const RNG_NEUTRAL: &[&str] = &[
    "as",
    "mut",
    "ref",
    "u8",
    "u16",
    "u32",
    "u64",
    "u128",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "i128",
    "isize",
    "mix64",
    "splitmix64",
    "splitmix",
    "wrapping_mul",
    "wrapping_add",
    "wrapping_sub",
    "rotate_left",
    "rotate_right",
    "swap_bytes",
    "to_le",
    "to_be",
];

fn seedy(ident: &str) -> bool {
    let l = ident.to_ascii_lowercase();
    l.contains("seed") || l.contains("state") || l.contains("salt")
}

fn rule_rng_seed(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || f.in_test(t.line) {
            continue;
        }
        if ENTROPY_IDENTS.contains(&t.text.as_str()) {
            out.push(f.diag(
                "rng-seed",
                t.line,
                format!(
                    "`{}` is an ambient entropy source: every random stream must be \
                     a pure function of an explicit seed",
                    t.text
                ),
            ));
            continue;
        }
        // `SeededRng::{new,from_state,from_full_state}(<args>)`
        if t.text != "SeededRng"
            || !toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
            || !toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
        {
            continue;
        }
        let Some(ctor) = toks.get(i + 3) else {
            continue;
        };
        if !(ctor.kind == TokKind::Ident && RNG_CTORS.contains(&ctor.text.as_str())) {
            continue;
        }
        let Some(open) = toks.get(i + 4) else {
            continue;
        };
        if !open.is_punct('(') {
            continue;
        }
        let mut depth = 1usize;
        let mut j = i + 5;
        let mut has_seedy = false;
        let mut other: Option<String> = None;
        while j < toks.len() && depth > 0 {
            let a = &toks[j];
            if a.is_punct('(') {
                depth += 1;
            } else if a.is_punct(')') {
                depth -= 1;
            } else if a.kind == TokKind::Ident {
                if seedy(&a.text) {
                    has_seedy = true;
                } else if !RNG_NEUTRAL.contains(&a.text.as_str()) && a.text != "self" {
                    other.get_or_insert_with(|| a.text.clone());
                }
            }
            j += 1;
        }
        if !has_seedy {
            if let Some(o) = other {
                out.push(f.diag(
                    "rng-seed",
                    t.line,
                    format!(
                        "`SeededRng::{}` argument does not visibly flow from a \
                         seed/state: `{o}` — derive it from a `seed` parameter or \
                         replayed checkpoint state (or name it so the flow is visible)",
                        ctor.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------- rule 5

fn rule_unsafe_safety(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    for t in &f.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        let line_idx = t.line as usize - 1;
        let own = f.lines.get(line_idx).map(String::as_str).unwrap_or("");
        if own.contains("SAFETY") {
            continue;
        }
        // Walk up over comment / attribute / blank lines looking for the
        // SAFETY comment that must accompany every unsafe block.
        let mut ok = false;
        let mut k = line_idx;
        while k > 0 {
            k -= 1;
            let l = f.lines[k].trim();
            if l.is_empty() || l.starts_with("#[") || l.starts_with("#!") {
                continue;
            }
            if l.starts_with("//") || l.starts_with("/*") || l.starts_with('*') {
                if l.contains("SAFETY") {
                    ok = true;
                    break;
                }
                continue;
            }
            break;
        }
        if !ok {
            out.push(
                f.diag(
                    "unsafe-safety",
                    t.line,
                    "`unsafe` without an adjacent `// SAFETY:` comment stating the \
                 invariant that makes it sound"
                        .to_string(),
                ),
            );
        }
    }
}

// ---------------------------------------------------------------- rule 6

const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
/// Identifiers whose presence marks a function body as byte-codec code.
const CODEC_MARKS: &[&str] = &[
    "ByteWriter",
    "ByteReader",
    "checkpoint_state",
    "restore_state",
];

/// Lines where a truncating cast threatens the wire format: the whole
/// file for `checkpoint.rs`-style modules, otherwise only
/// function bodies that touch the `ByteWriter`/`ByteReader` primitives
/// (an adversary's `checkpoint_state` impl inside an attack file must be
/// checked without dragging the rest of the file under codec rules).
fn codec_line_mask(f: &SourceFile) -> Option<Vec<bool>> {
    let name = f.rel_path.rsplit('/').next().unwrap_or("");
    if name.contains("checkpoint") {
        return Some(vec![true; f.lines.len()]);
    }
    if !f
        .tokens
        .iter()
        .any(|t| t.kind == TokKind::Ident && CODEC_MARKS.contains(&t.text.as_str()))
    {
        return None;
    }
    // Mark the body span of every `fn` whose tokens include a codec mark.
    let mut mask = vec![false; f.lines.len()];
    let toks = &f.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let start_line = toks[i].line;
        // Find the body's opening brace (or `;` for a trait signature).
        let mut j = i + 1;
        let mut codec = false;
        while j < toks.len() && !(toks[j].is_punct('{') || toks[j].is_punct(';')) {
            if toks[j].kind == TokKind::Ident && CODEC_MARKS.contains(&toks[j].text.as_str()) {
                codec = true; // the fn's own name or signature is codec-marked
            }
            j += 1;
        }
        if j >= toks.len() || toks[j].is_punct(';') {
            i = j.max(i + 1);
            continue;
        }
        let mut depth = 1usize;
        let mut k = j + 1;
        while k < toks.len() && depth > 0 {
            if toks[k].is_punct('{') {
                depth += 1;
            } else if toks[k].is_punct('}') {
                depth -= 1;
            } else if toks[k].kind == TokKind::Ident && CODEC_MARKS.contains(&toks[k].text.as_str())
            {
                codec = true;
            }
            k += 1;
        }
        let end_line = toks.get(k.saturating_sub(1)).map_or(start_line, |t| t.line);
        if codec {
            for line in start_line..=end_line {
                if let Some(slot) = mask.get_mut(line as usize - 1) {
                    *slot = true;
                }
            }
        }
        i = k;
    }
    Some(mask)
}

fn rule_lossy_cast(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    let Some(mask) = codec_line_mask(f) else {
        return;
    };
    let toks = &f.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        let (a, b) = (&toks[i], &toks[i + 1]);
        if a.is_ident("as")
            && b.kind == TokKind::Ident
            && NARROW_INTS.contains(&b.text.as_str())
            && *mask.get(a.line as usize - 1).unwrap_or(&false)
            && !f.in_test(a.line)
        {
            out.push(f.diag(
                "lossy-cast",
                a.line,
                format!(
                    "`as {}` in a byte-codec file can truncate silently and corrupt \
                     the wire format — use `{}::try_from(..)` (fail loudly) or widen \
                     the encoded field",
                    b.text, b.text
                ),
            ));
        }
    }
}

// ---------------------------------------------------------------- rule 7

const FLOAT_REDUCERS: &[&str] = &["sum", "fold", "product"];

/// Does this file spawn threads (`thread::scope` / `thread::spawn`)?
fn spawns_threads(f: &SourceFile) -> bool {
    let toks = &f.tokens;
    (0..toks.len().saturating_sub(3)).any(|i| {
        toks[i].is_ident("thread")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && (toks[i + 3].is_ident("scope") || toks[i + 3].is_ident("spawn"))
    })
}

fn rule_float_merge(f: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !spawns_threads(f) {
        return;
    }
    let toks = &f.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        let (dot, m) = (&toks[i], &toks[i + 1]);
        if dot.is_punct('.')
            && m.kind == TokKind::Ident
            && FLOAT_REDUCERS.contains(&m.text.as_str())
            && toks
                .get(i + 2)
                .is_some_and(|n| n.is_punct('(') || n.is_punct(':'))
            && !f.in_test(m.line)
        {
            out.push(f.diag(
                "float-merge",
                m.line,
                format!(
                    "`.{}` reduction in a thread-spawning file: float summation order \
                     must be fixed — route it through the fedrec-linalg kernels or \
                     `MetricsAccumulator::merge` (shard-order association), or \
                     suppress with the ordering argument",
                    m.text
                ),
            ));
        }
    }
}

// -------------------------------------------------------- test-span mask

/// Mark lines covered by `#[cfg(test)]` / `#[test]` items (attribute line
/// through the item's closing brace).
fn test_line_mask(tokens: &[Token], nlines: usize) -> Vec<bool> {
    let mut mask = vec![false; nlines];
    let mut i = 0usize;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && tokens.get(i + 1).is_some_and(|t| t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Find the attribute's closing bracket.
        let mut depth = 1usize;
        let mut j = i + 2;
        while j < tokens.len() && depth > 0 {
            if tokens[j].is_punct('[') {
                depth += 1;
            } else if tokens[j].is_punct(']') {
                depth -= 1;
            }
            j += 1;
        }
        let inner = &tokens[i + 2..j.saturating_sub(1)];
        let has = |s: &str| inner.iter().any(|t| t.is_ident(s));
        let is_test_attr = has("test") && !has("not");
        if !is_test_attr {
            i = j;
            continue;
        }
        let attr_line = tokens[i].line;
        // Skip any further attributes on the same item.
        let mut k = j;
        while k + 1 < tokens.len() && tokens[k].is_punct('#') && tokens[k + 1].is_punct('[') {
            let mut d = 1usize;
            let mut m = k + 2;
            while m < tokens.len() && d > 0 {
                if tokens[m].is_punct('[') {
                    d += 1;
                } else if tokens[m].is_punct(']') {
                    d -= 1;
                }
                m += 1;
            }
            k = m;
        }
        // The item body: first `{` (balanced to its close), or a
        // brace-less item ending at `;`.
        let mut end_line = attr_line;
        let mut paren = 0i32;
        while k < tokens.len() {
            let t = &tokens[k];
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') {
                paren += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') {
                paren -= 1;
            } else if t.is_punct(';') && paren <= 0 {
                end_line = t.line;
                k += 1;
                break;
            } else if t.is_punct('{') {
                let mut d = 1usize;
                k += 1;
                while k < tokens.len() && d > 0 {
                    if tokens[k].is_punct('{') {
                        d += 1;
                    } else if tokens[k].is_punct('}') {
                        d -= 1;
                    }
                    if d == 0 {
                        end_line = tokens[k].line;
                    }
                    k += 1;
                }
                break;
            }
            k += 1;
        }
        for line in attr_line..=end_line {
            if let Some(slot) = mask.get_mut(line as usize - 1) {
                *slot = true;
            }
        }
        i = k.max(j);
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, src: &str) -> SourceFile {
        SourceFile::new(path, src)
    }

    #[test]
    fn cfg_test_modules_are_masked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn after() {}\n";
        let f = file("crates/federated/src/x.rs", src);
        assert!(!f.in_test(1));
        assert!(f.in_test(2));
        assert!(f.in_test(4));
        assert!(!f.in_test(6));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_span() {
        let src = "#[cfg(not(test))]\nfn live() { let t = 1; }\n";
        let f = file("crates/federated/src/x.rs", src);
        assert!(!f.in_test(2));
    }

    #[test]
    fn hash_binding_detection_sees_lets_fields_and_params() {
        let src = "struct S { cache: HashMap<u32, f32> }\n\
                   fn f(seen: &HashSet<u32>) {\n\
                       let mut by_id = HashMap::new();\n\
                       let picked: HashSet<usize> = it.collect();\n\
                   }\n";
        let f = file("crates/federated/src/x.rs", src);
        let bound = hash_bound_idents(&f.tokens);
        for name in ["cache", "seen", "by_id", "picked"] {
            assert!(bound.contains(name), "missing {name}");
        }
    }

    #[test]
    fn membership_use_is_clean_iteration_is_flagged() {
        let clean = "fn f() {\n\
                     let seen: HashSet<u32> = xs.iter().copied().collect();\n\
                     if seen.contains(&3) { work(); }\n\
                     }\n";
        let f = file("crates/federated/src/x.rs", clean);
        assert!(check_file(&f).iter().all(|d| d.rule != "hash-iter"));

        let dirty = "fn f() {\n\
                     let mut m = HashMap::new();\n\
                     for (k, v) in &m { emit(k, v); }\n\
                     let ks: Vec<_> = m.keys().collect();\n\
                     }\n";
        let f = file("crates/federated/src/x.rs", dirty);
        let hits: Vec<_> = check_file(&f)
            .into_iter()
            .filter(|d| d.rule == "hash-iter")
            .collect();
        assert_eq!(hits.len(), 2, "{hits:?}");
        assert_eq!(hits[0].line, 3);
        assert_eq!(hits[1].line, 4);
    }

    #[test]
    fn rng_seed_flow_analysis() {
        let ok = "fn f(seed: u64) {\n\
                  let a = SeededRng::new(seed ^ 0xDE7);\n\
                  let b = SeededRng::new(7);\n\
                  let c = SeededRng::from_state(self.states[i / self.stride]);\n\
                  }\n";
        let f = file("crates/linalg/src/x.rs", ok);
        assert!(check_file(&f).iter().all(|d| d.rule != "rng-seed"));

        let bad = "fn f(client_id: u64) { let r = SeededRng::new(client_id); }\n";
        let f = file("crates/federated/src/x.rs", bad);
        let hits: Vec<_> = check_file(&f)
            .into_iter()
            .filter(|d| d.rule == "rng-seed")
            .collect();
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("client_id"));
    }

    #[test]
    fn wall_clock_exemptions_track_crates_and_tests() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert_eq!(check_file(&file("crates/federated/src/x.rs", src)).len(), 1);
        assert!(check_file(&file("crates/bench/src/x.rs", src)).is_empty());
        assert!(check_file(&file("crates/lint/src/x.rs", src)).is_empty());
        let test_src = "#[cfg(test)]\nmod tests { fn f() { let t = Instant::now(); } }\n";
        assert!(check_file(&file("crates/federated/src/x.rs", test_src)).is_empty());
        // The path exemption covers exactly the serve telemetry file and
        // grants only wall-clock — not thread-id — and nothing else in
        // the serve crate.
        assert!(check_file(&file("crates/serve/src/telemetry.rs", src)).is_empty());
        assert_eq!(
            check_file(&file("crates/serve/src/service.rs", src)).len(),
            1
        );
        let tid = "fn f() { let t = Instant::now(); thread_local! { static X: u8 = 0; } }\n";
        let hits = check_file(&file("crates/serve/src/telemetry.rs", tid));
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!(hits[0].rule, "thread-id");
    }

    #[test]
    fn unsafe_requires_adjacent_safety_comment() {
        let bad = "fn f() { unsafe { work() } }\n";
        let f = file("crates/linalg/src/x.rs", bad);
        assert_eq!(
            check_file(&f)
                .iter()
                .filter(|d| d.rule == "unsafe-safety")
                .count(),
            1
        );

        let good =
            "fn f() {\n    // SAFETY: the slice outlives the call.\n    unsafe { work() }\n}\n";
        let f = file("crates/linalg/src/x.rs", good);
        assert!(check_file(&f).iter().all(|d| d.rule != "unsafe-safety"));

        // Commented-out unsafe is not a violation (lexer strips comments).
        let commented = "fn f() { /* unsafe { } */ }\n";
        let f = file("crates/linalg/src/x.rs", commented);
        assert!(check_file(&f).is_empty());
    }

    #[test]
    fn lossy_cast_only_fires_in_codec_files() {
        let src = "fn f(n: usize) { w.u32(n as u32); }\n";
        assert_eq!(
            check_file(&file("crates/federated/src/checkpoint.rs", src)).len(),
            1
        );
        assert!(check_file(&file("crates/federated/src/simulation.rs", src)).is_empty());
        let widening = "fn f(n: usize) { w.u64(n as u64); }\n";
        assert!(check_file(&file("crates/federated/src/checkpoint.rs", widening)).is_empty());
    }

    #[test]
    fn float_merge_fires_only_in_thread_spawning_files() {
        let threaded = "fn f() { thread::scope(|s| {}); let t: f32 = xs.iter().sum(); }\n";
        let hits = check_file(&file("crates/federated/src/x.rs", threaded));
        assert_eq!(hits.iter().filter(|d| d.rule == "float-merge").count(), 1);

        let single = "fn f() { let t: f32 = xs.iter().sum(); }\n";
        assert!(check_file(&file("crates/federated/src/x.rs", single)).is_empty());

        let approved = "fn f() { thread::scope(|s| {}); let t: f32 = xs.iter().sum(); }\n";
        assert!(check_file(&file("crates/recsys/src/metrics.rs", approved)).is_empty());
        assert!(check_file(&file("crates/linalg/src/vector.rs", approved)).is_empty());
    }

    #[test]
    fn thread_identity_is_flagged() {
        let src = "fn f() { let id = thread::current().id(); }\n";
        let hits = check_file(&file("crates/federated/src/x.rs", src));
        assert_eq!(hits.iter().filter(|d| d.rule == "thread-id").count(), 1);
        let tls = "thread_local! { static X: u32 = 0; }\n";
        let hits = check_file(&file("crates/recsys/src/x.rs", tls));
        assert_eq!(hits.iter().filter(|d| d.rule == "thread-id").count(), 1);
    }

    #[test]
    fn entropy_sources_are_flagged() {
        let src = "fn f() { let r = thread_rng(); }\n";
        let hits = check_file(&file("crates/data/src/x.rs", src));
        assert_eq!(hits.iter().filter(|d| d.rule == "rng-seed").count(), 1);
    }
}
