//! The scenario record codec under hostile input: `Record::parse` and
//! `parse_record` never panic, a line `Record::parse` accepts renders back
//! to itself byte for byte (so a value respelled with `+` or a leading `0`
//! is rejected), and `project` is idempotent and leaves the bytes and
//! order of every field it keeps unchanged.

use fedrecattack::baselines::registry::AttackMethod;
use fedrecattack::experiments::matrix::{
    run_matrix_collect, DefenseKind, MatrixConfig, ScalePreset,
};
use fedrecattack::experiments::record::{parse_record, project, Mask, Record};
use fedrecattack::federated::FaultPlan;
use proptest::collection;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Every record of a tiny MF + NCF grid, faulted and serving, so the
/// fault and serve counters are not all zero. Built once per process.
fn grid_lines() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(|| {
        let cfg = MatrixConfig {
            attacks: vec![AttackMethod::Random],
            defenses: vec![DefenseKind::None, DefenseKind::DetectorGated],
            ncf_attacks: vec![AttackMethod::Random],
            ncf_defenses: vec![DefenseKind::TrimmedMean],
            rhos: vec![0.0, 0.01],
            eval_every: 2,
            epochs: Some(4),
            workers: 2,
            faults: Some(FaultPlan::smoke()),
            serve: true,
            ..MatrixConfig::at_scale(ScalePreset::Tiny, 5)
        };
        run_matrix_collect(&cfg)
            .into_iter()
            .flat_map(|(_, lines)| lines)
            .collect()
    })
}

/// JSON structure, digits, letters of the record's words, whitespace and
/// a multi-byte character, so garbage often looks almost like a record.
const ALPHABET: &[char] = &[
    '{', '}', '"', ':', ',', '0', '1', '5', '9', '.', '-', '+', 'e', 'n', 'u', 'l', 'a', 't', 'r',
    'f', 's', ' ', 'ρ', '_',
];

const MASKS: [Mask; 4] = [Mask::VOLATILE, Mask::BACKEND, Mask::MODE, Mask::MODEL];

fn garbage() -> impl Strategy<Value = String> {
    collection::vec(0..ALPHABET.len(), 0..60)
        .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
}

/// A grid record with up to three characters substituted and, half the
/// time, the tail cut off.
fn mutated() -> impl Strategy<Value = String> {
    (
        0usize..1 << 16,
        collection::vec((0usize..1 << 16, 0..ALPHABET.len()), 0..4),
        0usize..1 << 17,
    )
        .prop_map(|(pick, subs, cut)| {
            let lines = grid_lines();
            let mut chars: Vec<char> = lines[pick % lines.len()].chars().collect();
            for (at, c) in subs {
                let at = at % chars.len();
                chars[at] = ALPHABET[c];
            }
            if cut % 2 == 1 {
                chars.truncate(cut / 2 % (chars.len() + 1));
            }
            chars.into_iter().collect()
        })
}

/// A grid record with one value respelled so it still reads as the same
/// number — `+` or a leading `0` — or is no longer a value at all.
fn respelled() -> impl Strategy<Value = String> {
    (0usize..1 << 16, 0usize..36, 0usize..3).prop_map(|(pick, field, prefix)| {
        let lines = grid_lines();
        let line = &lines[pick % lines.len()];
        let (at, _) = line.match_indices("\":").nth(field).expect("36 keys");
        let mut out = line.clone();
        out.insert_str(at + 2, ["+", "0", " "][prefix]);
        out
    })
}

/// The properties every input line must satisfy.
fn check_line(line: &str) -> Result<(), TestCaseError> {
    if let Ok(rec) = Record::parse(line) {
        prop_assert_eq!(rec.to_line(), line);
    }
    let pairs = parse_record(line);
    for mask in MASKS {
        let projected = project(line, mask);
        prop_assert_eq!(project(&projected, mask), projected);
        // The kept fields are the input's fields, in order, unchanged.
        if let Some(pairs) = &pairs {
            let kept = parse_record(&projected).expect("a projection parses");
            let mut rest = pairs.iter();
            for field in &kept {
                prop_assert!(rest.any(|p| p == field), "{projected} reorders {line}");
            }
        }
    }
    Ok(())
}

#[test]
fn every_grid_record_round_trips() {
    let lines = grid_lines();
    assert_eq!(lines.len(), 12);
    for line in lines {
        let rec = Record::parse(line).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(&rec.to_line(), line);
        // Each gate drops its own group plus the three volatile keys.
        let fields = |l: &str| parse_record(l).unwrap().len();
        let dropped: Vec<usize> = MASKS
            .iter()
            .map(|&m| fields(line) - fields(&project(line, m)))
            .collect();
        assert_eq!(dropped, [3, 5, 6, 4], "{line}");
    }
    let faulted = lines
        .iter()
        .any(|l| Record::parse(l).unwrap().f_dropped > 0);
    let served = lines
        .iter()
        .any(|l| Record::parse(l).unwrap().serve_publishes > 0);
    assert!(
        faulted && served,
        "the grid exercised no fault or serve counter"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn garbage_lines_get_a_verdict_not_a_panic(line in garbage()) {
        check_line(&line)?;
    }

    #[test]
    fn mutated_records_get_a_verdict_not_a_panic(line in mutated()) {
        check_line(&line)?;
    }

    #[test]
    fn respelled_records_are_rejected(line in respelled()) {
        check_line(&line)?;
        prop_assert!(Record::parse(&line).is_err(), "accepted {line}");
    }
}
