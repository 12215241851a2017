//! The scenario matrix's JSONL record — the one home of its schema.
//!
//! The `schema!` table below names every key once: its position in the
//! line, the Rust type that writes and reads its value, the group of
//! identity gates that ignore it ([`Mask`]) and, for metric shares, the
//! range check. [`Record`] has one typed field per key;
//! [`Record::to_line`] writes a line and [`Record::parse`] accepts exactly
//! the lines it writes, so an accepted line renders back to itself byte
//! for byte. [`project`] drops a gate's key groups from the raw text, so
//! it also projects lines of older schemas (the pre-model-axis fixture
//! has no `model` key). [`parse_record`] is the untyped view of any flat,
//! escape-free object.

use crate::matrix::{DefenseKind, ModelKind};
use fedrec_baselines::registry::AttackMethod;
use fedrec_recsys::EvalMode;

/// Key groups, one bit each; a `KEPT` key is compared by every gate.
mod group {
    pub const KEPT: u8 = 0;
    pub const VOLATILE: u8 = 1;
    pub const BACKEND: u8 = 2;
    pub const MODE: u8 = 4;
    pub const MODEL: u8 = 8;
}

/// The key groups one identity gate ignores. Every gate ignores the
/// volatile keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mask(u8);

impl Mask {
    /// `eval_ms` (wall-clock) and the serve probe's `serve_publishes` and
    /// `served_epoch_lag` (serving state is deliberately not checkpointed:
    /// a crash-resumed cell restarts its service cold). Two runs of one
    /// cell under one config agree after this projection.
    pub const VOLATILE: Mask = Mask(group::VOLATILE);
    /// Also `backend` and `rows_materialized`: the dense store holds all
    /// `n` client rows, the sharded one only the ever-selected clients.
    /// The dense and sharded runs of one cell agree after it.
    pub const BACKEND: Mask = Mask(group::VOLATILE | group::BACKEND);
    /// Also `eval_mode`, `items_scored` and `items_skipped`: the
    /// [`EvalMode`]s of one cell differ in work, never in a metric.
    pub const MODE: Mask = Mask(group::VOLATILE | group::MODE);
    /// Also `model`, the key the model axis added: an MF record so
    /// projected equals the volatile projection of its pre-model-axis
    /// bytes.
    pub const MODEL: Mask = Mask(group::VOLATILE | group::MODEL);
}

/// How one value is written into a line and read back from its raw text
/// (string values keep their quotes).
trait Field: Sized {
    fn write(&self, out: &mut String);
    fn read(raw: &str) -> Option<Self>;
}

macro_rules! plain_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
            fn read(raw: &str) -> Option<Self> {
                raw.parse().ok()
            }
        }
    )*};
}
plain_fields!(u64, usize, bool);

/// Finite numbers in shortest round-trip form, anything else as `null`.
impl Field for f64 {
    fn write(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
    fn read(raw: &str) -> Option<Self> {
        match raw {
            "null" => Some(f64::NAN),
            _ => raw.parse().ok(),
        }
    }
}

fn unquote(raw: &str) -> Option<&str> {
    raw.strip_prefix('"')?.strip_suffix('"')
}

fn push_quoted(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(s);
    out.push('"');
}

impl Field for String {
    fn write(&self, out: &mut String) {
        push_quoted(out, self);
    }
    fn read(raw: &str) -> Option<Self> {
        unquote(raw).map(String::from)
    }
}

macro_rules! label_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write(&self, out: &mut String) {
                push_quoted(out, self.label());
            }
            fn read(raw: &str) -> Option<Self> {
                Self::parse(unquote(raw)?)
            }
        }
    )*};
}
label_fields!(ModelKind, AttackMethod, DefenseKind, EvalMode);

/// The range check of keys without one.
fn any<T>(_: &T) -> bool {
    true
}

/// The range check of metric shares: ER, NDCG, HR, detection precision
/// and recall.
fn share(v: &f64) -> bool {
    (0.0..=1.0).contains(v)
}

/// Start the next `"key":` of an object being written.
fn open_field(out: &mut String, key: &str) {
    out.push(if out.is_empty() { '{' } else { ',' });
    push_quoted(out, key);
    out.push(':');
}

macro_rules! schema {
    ($($field:ident: $ty:ty = $key:literal, $group:ident, $check:ident, $doc:literal;)*) => {
        /// One JSONL record of a scenario cell, one field per key.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Record {
            $(#[doc = $doc] pub $field: $ty,)*
        }

        /// Every key in line order, with its group.
        const KEYS: &[(&str, u8)] = &[$(($key, group::$group)),*];

        impl Record {
            /// The record's JSONL line (no trailing newline).
            pub fn to_line(&self) -> String {
                let mut out = String::with_capacity(768);
                $(
                    open_field(&mut out, $key);
                    self.$field.write(&mut out);
                )*
                out.push('}');
                out
            }

            /// Read a line [`Record::to_line`] wrote. Any other line — a
            /// missing, extra or reordered key, a malformed value, a metric
            /// share outside `[0, 1]`, a non-canonical spelling — is an
            /// error naming the line.
            pub fn parse(line: &str) -> Result<Self, String> {
                let mut fields = fields(line)
                    .ok_or_else(|| format!("unparseable record: {line}"))?
                    .into_iter();
                let rec = Record {$($field: {
                    let (key, raw) = fields.next().unwrap_or_default();
                    match <$ty as Field>::read(raw) {
                        Some(v) if key == $key && $check(&v) => v,
                        _ => return Err(format!("bad {:?} field {key:?}:{raw}: {line}", $key)),
                    }
                },)*};
                match fields.next() {
                    Some((key, _)) => Err(format!("unexpected key {key:?}: {line}")),
                    None if rec.to_line() != line => Err(format!("not canonical: {line}")),
                    None => Ok(rec),
                }
            }
        }
    };
}

schema! {
    cell: String = "cell", KEPT, any, "Cell id.";
    model: ModelKind = "model", MODEL, any, "Model family.";
    attack: AttackMethod = "attack", KEPT, any, "Attack arm.";
    defense: DefenseKind = "defense", KEPT, any, "Defense arm.";
    rho: f64 = "rho", KEPT, any, "Malicious-client ratio ρ.";
    seed: u64 = "seed", KEPT, any, "The cell's own seed.";
    population: String = "population", KEPT, any, "Population label.";
    backend: String = "backend", BACKEND, any, "Client store: `dense` or `sharded`.";
    users: usize = "users", KEPT, any, "Benign users in the population.";
    epoch: usize = "epoch", KEPT, any, "Epochs trained so far.";
    is_final: bool = "final", KEPT, any, "Whether this is the cell's final record.";
    loss: f64 = "loss", KEPT, any, "Total benign loss of the last epoch (an `f32`, widened).";
    er5: f64 = "er5", KEPT, share, "Target exposure ER@5.";
    er10: f64 = "er10", KEPT, share, "Target exposure ER@10.";
    ndcg10: f64 = "ndcg10", KEPT, share, "Target NDCG@10.";
    hr10: f64 = "hr10", KEPT, share, "Accuracy HR@10.";
    det_inspected: usize = "det_inspected", KEPT, any, "Uploads inspected in the last round.";
    det_flagged: usize = "det_flagged", KEPT, any, "Uploads flagged in the last round.";
    det_excluded: usize = "det_excluded", KEPT, any, "Uploads excluded in the last round.";
    det_precision: f64 = "det_precision", KEPT, share, "Detection precision (1 if no flags).";
    det_recall: f64 = "det_recall", KEPT, share, "Detection recall (1 if no attackers).";
    excluded_total: usize = "excluded_total", KEPT, any, "Uploads excluded over the run.";
    malicious: usize = "malicious", KEPT, any, "Malicious uploads in the last round.";
    rows_materialized: usize = "rows_materialized", BACKEND, any, "Client rows in the store.";
    participants_touched: usize = "participants_touched", KEPT, any, "Clients selected so far.";
    f_dropped: usize = "f_dropped", KEPT, any, "Dropped or timed-out uploads, cumulative.";
    f_late: usize = "f_late", KEPT, any, "Late uploads applied, cumulative.";
    f_rejected: usize = "f_rejected", KEPT, any, "Quarantined payloads, cumulative.";
    f_retried: usize = "f_retried", KEPT, any, "Straggler retries, cumulative.";
    f_skipped: usize = "f_skipped", KEPT, any, "Rounds skipped without quorum, cumulative.";
    eval_ms: u64 = "eval_ms", VOLATILE, any, "Wall-clock milliseconds of the eval pass.";
    eval_mode: EvalMode = "eval_mode", MODE, any, "The evaluation mode that ran.";
    items_scored: u64 = "items_scored", MODE, any, "Top-K dot products computed.";
    items_skipped: u64 = "items_skipped", MODE, any, "Top-K dot products avoided.";
    serve_publishes: u64 = "serve_publishes", VOLATILE, any, "Serve probe publishes, cumulative.";
    served_epoch_lag: u64 = "served_epoch_lag", VOLATILE, any, "Worst served staleness, epochs.";
}

/// Split a flat, escape-free JSON object into `(key, raw value)` slices,
/// string values still quoted: `{`, comma-separated `"key":value` fields,
/// `}`, with surrounding whitespace ignored. `None` for anything else.
fn fields(line: &str) -> Option<Vec<(&str, &str)>> {
    let mut rest = line.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = Vec::new();
    while !rest.is_empty() {
        if !out.is_empty() {
            rest = rest.strip_prefix(',')?;
        }
        let body = rest.strip_prefix('"')?;
        let key_end = body.find('"')?;
        let value = body[key_end + 1..].strip_prefix(':')?;
        let len = match value.strip_prefix('"') {
            Some(s) => s.find('"')? + 2,
            None => value.find(',').unwrap_or(value.len()),
        };
        if len == 0 {
            return None;
        }
        out.push((&body[..key_end], &value[..len]));
        rest = &value[len..];
    }
    Some(out)
}

/// Parse one flat, escape-free JSONL object — any record this module
/// writes — into `(key, value)` pairs, string values unquoted and
/// everything else verbatim. Not a general JSON parser; read a record's
/// fields through [`Record::parse`].
pub fn parse_record(line: &str) -> Option<Vec<(String, String)>> {
    let pairs = fields(line)?
        .into_iter()
        .map(|(k, v)| (k.to_string(), unquote(v).unwrap_or(v).to_string()))
        .collect();
    Some(pairs)
}

/// Drop every field whose key is in one of `mask`'s groups from one raw
/// record line, keeping the bytes and order of every other field (keys
/// the schema does not know included). A line that is not a flat object
/// comes back unchanged.
pub fn project(line: &str, mask: Mask) -> String {
    let Some(fields) = fields(line) else {
        return line.to_string();
    };
    let mut out = String::with_capacity(line.len());
    for (key, raw) in fields {
        if !KEYS.iter().any(|&(k, g)| k == key && mask.0 & g != 0) {
            open_field(&mut out, key);
            out.push_str(raw);
        }
    }
    if out.is_empty() {
        out.push('{');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record as the harness writes it.
    const LINE: &str = concat!(
        "{\"cell\":\"random_none_rho0.01\",\"model\":\"mf\",\"attack\":\"Random\",",
        "\"defense\":\"none\",\"rho\":0.01,\"seed\":7,\"population\":\"scalefree-tiny\",",
        "\"backend\":\"sharded\",\"users\":600,\"epoch\":4,\"final\":true,\"loss\":1.25,",
        "\"er5\":0.5,\"er10\":0.75,\"ndcg10\":0.125,\"hr10\":0.25,\"det_inspected\":31,",
        "\"det_flagged\":2,\"det_excluded\":0,\"det_precision\":1,\"det_recall\":0.5,",
        "\"excluded_total\":3,\"malicious\":1,\"rows_materialized\":90,",
        "\"participants_touched\":120,\"f_dropped\":1,\"f_late\":2,\"f_rejected\":3,",
        "\"f_retried\":4,\"f_skipped\":5,\"eval_ms\":17,\"eval_mode\":\"pruned\",",
        "\"items_scored\":100,\"items_skipped\":900,\"serve_publishes\":2,",
        "\"served_epoch_lag\":1}"
    );

    #[test]
    fn a_record_round_trips_through_its_line() {
        let rec = Record::parse(LINE).unwrap();
        assert_eq!(
            (rec.model, rec.attack, rec.defense),
            (ModelKind::Mf, AttackMethod::Random, DefenseKind::None)
        );
        assert_eq!((rec.epoch, rec.is_final, rec.er10), (4, true, 0.75));
        assert_eq!((rec.eval_mode, rec.served_epoch_lag), (EvalMode::Pruned, 1));
        assert_eq!(rec.to_line(), LINE);
        assert_eq!(parse_record(LINE).unwrap().len(), KEYS.len());
        // A NaN loss is written, and read back, as null.
        let null = LINE.replace("\"loss\":1.25", "\"loss\":null");
        let rec = Record::parse(&null).unwrap();
        assert!(rec.loss.is_nan());
        assert_eq!(rec.to_line(), null);
    }

    #[test]
    fn parse_rejects_what_to_line_never_writes() {
        for (from, to, what) in [
            ("\"er10\":0.75", "\"er10\":1.5", "bad \"er10\""),
            ("\"hr10\":0.25", "\"hr10\":null", "bad \"hr10\""),
            ("\"final\":true", "\"final\":1", "bad \"final\""),
            (",\"eval_ms\":17", "", "bad \"eval_ms\""),
            ("\"model\":\"mf\"", "\"model\":\"MF\"", "not canonical"),
            ("\"seed\":7", "\"seed\":+7", "not canonical"),
            ("{", " {", "not canonical"),
            ("}", ",\"x\":1}", "unexpected key"),
        ] {
            let err = Record::parse(&LINE.replace(from, to)).unwrap_err();
            assert!(err.contains(what), "{what}: {err}");
        }
    }

    #[test]
    fn parse_record_handles_shapes() {
        let pairs = parse_record("{\"a\":\"x\",\"b\":1.5,\"c\":true}").unwrap();
        assert_eq!(
            pairs,
            vec![
                ("a".to_string(), "x".to_string()),
                ("b".to_string(), "1.5".to_string()),
                ("c".to_string(), "true".to_string()),
            ]
        );
        assert_eq!(parse_record("{}"), Some(Vec::new()));
        for bad in ["not json", "{\"a\":}", "{\"a\":1,}", "{\"a\":\"x\"\"b\":1}"] {
            assert!(parse_record(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn project_drops_any_field_and_keeps_unknown_keys() {
        assert_eq!(
            project("{\"model\":\"ncf\",\"z\":1}", Mask::MODEL),
            "{\"z\":1}"
        );
        assert_eq!(project("{\"eval_ms\":3}", Mask::VOLATILE), "{}");
        assert_eq!(project("garbage", Mask::MODEL), "garbage");
    }
}
