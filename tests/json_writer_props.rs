//! The direct JSON writer against the value-tree renderer it replaced.
//!
//! `serde_json::to_string` writes straight from `Serialize::write_json`;
//! the bytes it must reproduce are those of lowering the value with
//! `to_value()` and rendering the tree. The oracle here is that renderer
//! as it stood before the direct writer existed — a per-`char` escaper
//! and a recursive tree walk — kept verbatim in this file, so neither
//! the run-copying escaper nor the derived writers are checked against
//! themselves. Every case compares compact and pretty output.

use dox_core::study::{Study, StudyConfig};
use dox_engine::{Engine, SessionCheckpoint};
use dox_obs::Registry;
use proptest::collection::vec;
use proptest::prelude::*;
use serde::value::{Number, Value};
use serde::Serialize;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::ControlFlow;

/// The value-tree renderer the direct writer replaced, verbatim.
mod oracle {
    use super::{Number, Value};

    fn write_escaped(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                '\u{08}' => out.push_str("\\b"),
                '\u{0c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }

    fn write_number(out: &mut String, n: &Number) {
        match n {
            Number::F64(v) if !v.is_finite() => out.push_str("null"),
            other => out.push_str(&other.to_string()),
        }
    }

    fn newline_indent(out: &mut String, indent: usize, level: usize) {
        out.push('\n');
        out.push_str(&" ".repeat(indent * level));
    }

    pub fn write_value(out: &mut String, value: &Value, indent: Option<usize>, level: usize) {
        match value {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(out, n),
            Value::String(s) => write_escaped(out, s),
            Value::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(n) = indent {
                        newline_indent(out, n, level + 1);
                    }
                    write_value(out, item, indent, level + 1);
                }
                if let Some(n) = indent {
                    newline_indent(out, n, level);
                }
                out.push(']');
            }
            Value::Object(entries) => {
                if entries.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, item)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if let Some(n) = indent {
                        newline_indent(out, n, level + 1);
                    }
                    write_escaped(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, level + 1);
                }
                if let Some(n) = indent {
                    newline_indent(out, n, level);
                }
                out.push('}');
            }
        }
    }
}

/// Render `value`'s tree with the oracle, compact or pretty.
fn oracle_json(value: &impl Serialize, indent: Option<usize>) -> String {
    let mut out = String::new();
    oracle::write_value(&mut out, &value.to_value(), indent, 0);
    out
}

/// The direct writer, compact and pretty, equals the oracle; so does
/// the writer fed the lowered tree.
fn check(value: &impl Serialize) -> Result<(), TestCaseError> {
    let (compact, pretty) = (oracle_json(value, None), oracle_json(value, Some(2)));
    prop_assert_eq!(
        serde_json::to_string(value).expect("encodes"),
        compact.clone()
    );
    prop_assert_eq!(
        serde_json::to_string_pretty(value).expect("encodes"),
        pretty
    );
    prop_assert_eq!(
        serde_json::to_string(&value.to_value()).expect("encodes"),
        compact
    );
    Ok(())
}

/// Characters the escaper treats specially, and neighbours it must not.
const SPECIALS: &[char] = &[
    '"',
    '\\',
    '/',
    '\u{7f}',
    '\u{80}',
    '\u{2028}',
    '\u{2029}',
    '\u{feff}',
    'é',
    '€',
    '😀',
    '\u{10ffff}',
    ' ',
    '~',
];

/// A string from raw codes: every C0 control, the specials, printable
/// ASCII, any BMP scalar and any astral scalar all appear.
fn text(codes: &[u32]) -> String {
    codes
        .iter()
        .map(|&code| {
            let pick = code >> 3;
            match code & 7 {
                0 => char::from_u32(pick % 0x20).expect("C0 control"),
                1 => SPECIALS[pick as usize % SPECIALS.len()],
                2 | 3 => char::from(0x20 + (pick % 0x5f) as u8),
                4 | 5 => char::from_u32(pick % 0x1_0000).unwrap_or('\u{fffd}'),
                _ => char::from_u32(0x1_0000 + pick % 0x10_0000).expect("astral scalar"),
            }
        })
        .collect()
}

/// Floats from raw bits, with the edge cases mixed in.
fn float(bits: u64) -> f64 {
    const EDGES: [f64; 12] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
        5e-324,
        1e21,
        1e-7,
        f64::MAX,
        f64::MIN_POSITIVE,
        0.1,
        -1.0,
    ];
    if bits.is_multiple_of(3) {
        EDGES[(bits / 3 % 12) as usize]
    } else {
        f64::from_bits(bits)
    }
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Unit;

#[derive(Serialize)]
struct Newtype(String);

#[derive(Serialize)]
struct Pair(i64, Option<f64>);

#[derive(Serialize)]
enum Shape {
    Point,
    Label(String),
    Span(u64, i64, Vec<u8>),
    Named {
        id: u32,
        tags: Vec<String>,
        empty: Empty,
    },
}

#[derive(Serialize)]
struct Record {
    name: String,
    unit: Unit,
    newtype: Newtype,
    pair: Pair,
    shapes: Vec<Shape>,
    nested: Option<Vec<BTreeMap<String, Option<f64>>>>,
    by_hash: HashMap<String, Vec<i64>>,
    by_number: HashMap<u32, (bool, String)>,
    by_id: BTreeMap<u64, BTreeSet<i8>>,
    extremes: (u64, i64, i8, char),
    empty_list: Vec<Shape>,
    empty_map: BTreeMap<String, u8>,
}

proptest! {
    #[test]
    fn strings_encode_like_the_per_char_escaper(codes in vec(any::<u32>(), 0..48)) {
        let s = text(&codes);
        check(&s)?;
        check(&vec![s.clone(), String::new(), s])?;
    }

    #[test]
    fn floats_and_integers_encode_like_the_tree(
        bits in vec(any::<u64>(), 0..12),
        ints in vec(any::<i64>(), 0..12),
    ) {
        let floats: Vec<f64> = bits.iter().map(|&b| float(b)).collect();
        check(&floats)?;
        check(&floats.iter().map(|&f| f as f32).collect::<Vec<f32>>())?;
        check(&ints)?;
        check(&(u64::MAX, i64::MIN, 0u8, -1i32))?;
        check(&bits)?;
    }

    #[test]
    fn nested_containers_encode_like_the_tree(
        codes in vec(any::<u32>(), 0..24),
        bits in vec(any::<u64>(), 0..8),
        n in 0usize..5,
    ) {
        let s = text(&codes);
        let floats: Vec<Option<f64>> = bits
            .iter()
            .map(|&b| (b % 4 != 0).then(|| float(b)))
            .collect();
        let map: BTreeMap<String, Option<f64>> = floats
            .iter()
            .enumerate()
            .map(|(i, f)| (format!("{s}{i}"), *f))
            .collect();
        let record = Record {
            name: s.clone(),
            unit: Unit,
            newtype: Newtype(s.clone()),
            pair: Pair(bits.first().map_or(0, |&b| b as i64), floats.first().copied().flatten()),
            shapes: vec![
                Shape::Point,
                Shape::Label(s.clone()),
                Shape::Span(u64::MAX, i64::MIN, codes.iter().map(|&c| c as u8).collect()),
                Shape::Named { id: n as u32, tags: vec![s.clone(); n], empty: Empty {} },
            ],
            nested: (n > 0).then(|| vec![map.clone(); n]),
            by_hash: (0..n).map(|i| (format!("{i}{s}"), vec![i as i64, -1])).collect(),
            by_number: codes.iter().take(n).map(|&c| (c, (c % 2 == 0, s.clone()))).collect(),
            by_id: bits.iter().map(|&b| (b, [b as i8, (b as i8).wrapping_neg()].into())).collect(),
            extremes: (u64::MAX, i64::MIN, i8::MIN, s.chars().next().unwrap_or('\u{0}')),
            empty_list: Vec::new(),
            empty_map: BTreeMap::new(),
        };
        check(&record)?;
        check(&Some(vec![Some(record)]))?;
        check(&Empty {})?;
    }
}

/// Every type in a study's report, checkpoint header and detected rows,
/// encoded from a real test-scale run.
#[test]
fn study_reports_checkpoints_and_rows_encode_like_the_tree() {
    // The checkpoint header's shape: a stamp and the session state.
    #[derive(Serialize)]
    struct Header {
        fingerprint: u64,
        docs_ingested: u64,
        detected_len: u64,
        session: SessionCheckpoint,
    }

    let registry = Registry::new();
    let study = Study::with_registry(StudyConfig::test_scale(), registry.clone());
    let detector = study.train_detector().expect("detector trains");
    let mut session = Engine::from_config(study.config().engine.clone())
        .expect("valid engine config")
        .session_builder()
        .detector(detector)
        .registry(&registry)
        .start()
        .expect("session starts");
    let mut ingested = 0u64;
    study
        .synthetic_stream(&mut |period, doc| {
            session.ingest(period, doc).expect("ingests");
            ingested += 1;
            ControlFlow::Continue(())
        })
        .expect("fault-free stream");
    let checkpoint = session.checkpoint().expect("checkpoint");
    assert!(!checkpoint.detected.is_empty());
    for dox in &checkpoint.detected {
        check(dox).expect("detected row");
    }
    let header = Header {
        fingerprint: u64::MAX,
        docs_ingested: ingested,
        detected_len: checkpoint.detected.len() as u64,
        session: SessionCheckpoint {
            detected: Vec::new(),
            ..checkpoint.clone()
        },
    };
    check(&header).expect("checkpoint header");
    check(&checkpoint).expect("whole checkpoint");
    let output = session.finish().expect("finishes");
    let report = study.report_from_ingest(&output).expect("report");
    check(&report).expect("experiment report");
}
