//! Diagnostic records and their byte-stable renderings.
//!
//! Output determinism is itself a lint acceptance criterion: both the
//! human report and the JSON document are fully determined by the scanned
//! sources — diagnostics are sorted by `(file, line, rule, message)`,
//! paths are workspace-relative with `/` separators, and no timestamps or
//! absolute paths appear anywhere.

use std::fmt::Write as _;

/// One finding: a rule fired at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule slug, e.g. `hash-iter`.
    pub rule: &'static str,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: u32,
    /// Human explanation of the hazard.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Diagnostic {
    /// Stable sort key.
    pub fn key(&self) -> (String, u32, &'static str, String) {
        (
            self.file.clone(),
            self.line,
            self.rule,
            self.message.clone(),
        )
    }
}

/// A full lint run: what fired and what was suppressed.
#[derive(Debug, Clone)]
pub struct Report {
    /// Violations not covered by a suppression. Any entry here makes the
    /// run fail.
    pub new_violations: Vec<Diagnostic>,
    /// Violations covered by an in-source `fedrec-lint: allow(...)`
    /// comment, paired with the written justification.
    pub suppressed: Vec<(Diagnostic, String)>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sort every section into the stable order.
    pub fn normalize(&mut self) {
        self.new_violations.sort_by_key(|d| d.key());
        self.suppressed.sort_by_key(|(d, _)| d.key());
    }

    /// True when the run should exit 0.
    pub fn is_clean(&self) -> bool {
        self.new_violations.is_empty()
    }

    /// Render the human-readable report.
    pub fn render_human(&self) -> String {
        let mut s = String::new();
        for d in &self.new_violations {
            let _ = writeln!(s, "{}:{}: [{}] {}", d.file, d.line, d.rule, d.message);
            let _ = writeln!(s, "    {}", d.snippet);
        }
        for (d, why) in &self.suppressed {
            let _ = writeln!(
                s,
                "{}:{}: [{}] suppressed — {}",
                d.file, d.line, d.rule, why
            );
        }
        let _ = writeln!(
            s,
            "fedrec-lint: {} files scanned; {} new violation(s), {} suppressed",
            self.files_scanned,
            self.new_violations.len(),
            self.suppressed.len()
        );
        s
    }

    /// Render the machine-readable JSON document (byte-stable).
    pub fn render_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": 2,");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"new_violations\": [");
        for (i, d) in self.new_violations.iter().enumerate() {
            let comma = if i + 1 < self.new_violations.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    {}{}", diag_json(d, None), comma);
        }
        let _ = writeln!(s, "  ],");
        let _ = writeln!(s, "  \"suppressed\": [");
        for (i, (d, why)) in self.suppressed.iter().enumerate() {
            let comma = if i + 1 < self.suppressed.len() {
                ","
            } else {
                ""
            };
            let _ = writeln!(s, "    {}{}", diag_json(d, Some(why)), comma);
        }
        let _ = writeln!(s, "  ]");
        s.push_str("}\n");
        s
    }
}

/// One diagnostic as a single-line JSON object with fixed key order.
fn diag_json(d: &Diagnostic, justification: Option<&str>) -> String {
    let mut s = format!(
        "{{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"snippet\": {}",
        json_str(d.rule),
        json_str(&d.file),
        d.line,
        json_str(&d.message),
        json_str(&d.snippet)
    );
    if let Some(j) = justification {
        let _ = write!(s, ", \"justification\": {}", json_str(j));
    }
    s.push('}');
    s
}

/// Minimal JSON string escaping (quotes, backslashes, control bytes).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: u32, rule: &'static str) -> Diagnostic {
        Diagnostic {
            rule,
            file: file.into(),
            line,
            message: "msg".into(),
            snippet: "let x = 1;".into(),
        }
    }

    #[test]
    fn json_escapes_quotes_and_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn normalize_orders_by_file_line_rule() {
        let mut r = Report {
            new_violations: vec![
                diag("b.rs", 1, "x"),
                diag("a.rs", 9, "x"),
                diag("a.rs", 2, "x"),
            ],
            suppressed: vec![],
            files_scanned: 3,
        };
        r.normalize();
        let order: Vec<(String, u32)> = r
            .new_violations
            .iter()
            .map(|d| (d.file.clone(), d.line))
            .collect();
        assert_eq!(
            order,
            vec![("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }

    #[test]
    fn json_rendering_is_stable_across_runs() {
        let mut r = Report {
            new_violations: vec![diag("a.rs", 1, "x")],
            suppressed: vec![(diag("a.rs", 2, "y"), "because".into())],
            files_scanned: 1,
        };
        r.normalize();
        assert_eq!(r.render_json(), r.render_json());
        assert!(r.render_json().contains("\"justification\": \"because\""));
    }
}
