//! JSON output contract: fixed schema, fixed key order, byte-stable.

use fedrec_lint::diagnostics::Report;
use fedrec_lint::engine::lint_source;

fn report_from(path: &str, src: &str) -> Report {
    let (new, suppressed, meta) = lint_source(path, src);
    let mut r = Report {
        new_violations: new.into_iter().chain(meta).collect(),
        suppressed,
        files_scanned: 1,
    };
    r.normalize();
    r
}

const SRC: &str = "fn f() {\n\
    let t = Instant::now();\n\
    // fedrec-lint: allow(rng-seed) — node_key is mixed from the seed upstream\n\
    let r = SeededRng::new(node_key);\n\
}\n";

#[test]
fn json_document_has_the_fixed_schema() {
    let r = report_from("crates/federated/src/x.rs", SRC);
    let json = r.render_json();
    // Top-level keys in fixed order.
    let order: Vec<usize> = [
        "\"version\": 2,",
        "\"files_scanned\": 1,",
        "\"new_violations\": [",
        "\"suppressed\": [",
    ]
    .iter()
    .map(|k| json.find(k).unwrap_or_else(|| panic!("missing key {k}")))
    .collect();
    assert!(
        order.windows(2).all(|w| w[0] < w[1]),
        "key order drifted: {json}"
    );
    // Per-diagnostic keys in fixed order on a single line.
    let line = json
        .lines()
        .find(|l| l.contains("\"rule\": \"wall-clock\""))
        .expect("wall-clock entry");
    let pos: Vec<usize> = [
        "\"rule\"",
        "\"file\"",
        "\"line\"",
        "\"message\"",
        "\"snippet\"",
    ]
    .iter()
    .map(|k| {
        line.find(k)
            .unwrap_or_else(|| panic!("missing {k} in {line}"))
    })
    .collect();
    assert!(pos.windows(2).all(|w| w[0] < w[1]));
    // Suppressed entries additionally carry the justification.
    let sup = json
        .lines()
        .find(|l| l.contains("\"rule\": \"rng-seed\""))
        .expect("rng-seed suppressed entry");
    assert!(sup.contains("\"justification\": \"node_key is mixed from the seed upstream\""));
}

#[test]
fn json_rendering_is_byte_stable() {
    let a = report_from("crates/federated/src/x.rs", SRC).render_json();
    let b = report_from("crates/federated/src/x.rs", SRC).render_json();
    assert_eq!(a, b);
    // No ambient state can leak in: paths are workspace-relative and no
    // timestamp-like fields exist.
    assert!(!a.contains("/root/"), "absolute path leaked: {a}");
    for banned in ["time\"", "date\"", "duration\""] {
        assert!(
            !a.contains(banned),
            "timestamp-like key `{banned}` in output"
        );
    }
}

#[test]
fn human_report_totals_match_the_sections() {
    let r = report_from("crates/federated/src/x.rs", SRC);
    let human = r.render_human();
    assert!(human.contains(&format!(
        "{} new violation(s), {} suppressed",
        r.new_violations.len(),
        r.suppressed.len()
    )));
}
