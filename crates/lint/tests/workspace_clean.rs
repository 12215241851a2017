//! The workspace itself must be lint-clean: zero unsuppressed violations,
//! and the full-tree JSON report must be byte-stable across two walks.

use fedrec_lint::engine::lint_tree;
use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint → workspace root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("workspace root")
}

#[test]
fn workspace_is_lint_clean() {
    let root = workspace_root();
    let report = lint_tree(&root).expect("lint walk");
    assert!(
        report.files_scanned > 50,
        "walk found too few files — wrong root?"
    );
    assert!(
        report.is_clean(),
        "workspace has new lint violations:\n{}",
        report.render_human()
    );
    // Every suppression in the tree carries a justification.
    for (d, why) in &report.suppressed {
        assert!(
            why.len() >= 3,
            "suppression at {}:{} has no justification",
            d.file,
            d.line
        );
    }
}

#[test]
fn full_tree_json_report_is_byte_stable() {
    let root = workspace_root();
    let a = lint_tree(&root).expect("walk 1").render_json();
    let b = lint_tree(&root).expect("walk 2").render_json();
    assert_eq!(a, b, "full-tree JSON report is not byte-stable");
}
