//! **fedrec-lint** — the workspace's determinism & checkpoint-safety
//! static-analysis pass.
//!
//! Every invariant this reproduction stands on — dense-vs-sharded,
//! 1/2/8-thread, and kill-and-resume **byte-identity** — is otherwise
//! enforced *dynamically* (proptests, the 90-cell `matrix --smoke` gate),
//! so a nondeterminism hazard is only caught if a test happens to exercise
//! it. This crate makes the contract checkable on every push, before any
//! simulation runs: an in-house lightweight Rust lexer ([`lexer`], no
//! external deps, matching the offline devtools policy) feeds a rule
//! engine ([`rules`]) with seven determinism and checkpoint-safety rules,
//! a per-line suppression mechanism with mandatory justifications
//! ([`suppress`]) — the one way to accept a violation — and byte-stable
//! human/JSON reports ([`diagnostics`]).
//!
//! Drive it via `cargo run -p fedrec-lint` or `repro lint`; CI runs it in
//! the `checks` job. See `docs/ARCHITECTURE.md` § "Determinism invariants
//! and how they're enforced" for the rule table and suppression policy.
//!
//! ```
//! use fedrec_lint::engine::lint_source;
//!
//! let src = "fn f() { let t = Instant::now(); }\n";
//! let (new, suppressed, meta) = lint_source("crates/federated/src/x.rs", src);
//! assert_eq!(new.len(), 1);
//! assert_eq!(new[0].rule, "wall-clock");
//! assert!(suppressed.is_empty() && meta.is_empty());
//! ```

#![deny(missing_docs)]

pub mod diagnostics;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod suppress;

pub use diagnostics::{Diagnostic, Report};
pub use engine::{discover_root, lint_source, lint_tree, run, run_cli, Options};
