//! Round-trip and hostile-input properties of the derived ingest
//! decoder: every generated `CollectedDoc` decodes back to itself, and
//! every mutant of its encoding — truncated text, a deleted key, a value
//! of the wrong type, a negative integer, an unknown enum tag — is
//! refused without a panic.
//!
//! The same holds for the tenant spec `POST /v1/tenants` and a drain's
//! spec rows decode: a generated `TenantSpec` (with or without a quota)
//! round-trips, and a deleted required key, a wrong type, a negative
//! integer, an out-of-range or non-finite scale or quota, or a malformed
//! id is refused.

use doxing_repro::osn::clock::{SimDuration, SimTime};
use doxing_repro::osn::network::Network;
use doxing_repro::serve::{QuotaSpec, TenantSpec};
use doxing_repro::sites::collect::CollectedDoc;
use doxing_repro::synth::corpus::{Source, SynthDoc};
use doxing_repro::synth::truth::{
    Community, DoxTruth, Gender, GroundTruth, IncludedFields, Motivation, PasteKind,
};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::value::{Number, Value};
use serde::{Deserialize, Serialize};

const PASTE_KINDS: [PasteKind; 11] = [
    PasteKind::Code,
    PasteKind::Log,
    PasteKind::Config,
    PasteKind::Chat,
    PasteKind::Prose,
    PasteKind::CredentialDump,
    PasteKind::UserList,
    PasteKind::FormData,
    PasteKind::ProfileCard,
    PasteKind::DoxTutorial,
    PasteKind::DoxDiscussion,
];

fn pick<T: Copy>(rng: &mut TestRng, items: &[T]) -> T {
    items[rng.below(items.len() as u64) as usize]
}

fn maybe<T>(rng: &mut TestRng, make: impl FnOnce(&mut TestRng) -> T) -> Option<T> {
    (rng.below(2) == 1).then(|| make(rng))
}

/// Text with quotes, backslashes, newlines and multi-byte characters.
fn text(rng: &mut TestRng) -> String {
    let words: Vec<String> = (0..rng.below(4)).map(|_| ".{0,12}".generate(rng)).collect();
    words.join("\n\"\\")
}

fn dox_truth(rng: &mut TestRng) -> DoxTruth {
    let bits = rng.next_u64();
    let bit = |i: u32| (bits >> i) & 1 == 1;
    DoxTruth {
        persona_id: rng.next_u64(),
        age: rng.next_u64() as u8,
        gender: pick(rng, &[Gender::Male, Gender::Female, Gender::Other]),
        primary_country: bit(18),
        fields: IncludedFields {
            address: bit(0),
            zip: bit(1),
            phone: bit(2),
            family: bit(3),
            email: bit(4),
            dob: bit(5),
            age: bit(6),
            real_name: bit(7),
            school: bit(8),
            usernames: bit(9),
            isp: bit(10),
            ip: bit(11),
            passwords: bit(12),
            physical: bit(13),
            criminal: bit(14),
            ssn: bit(15),
            credit_card: bit(16),
            financial: bit(17),
        },
        osn_handles: (0..rng.below(4))
            .map(|_| (pick(rng, &Network::ALL), text(rng)))
            .collect(),
        community: maybe(rng, |rng| {
            pick(
                rng,
                &[Community::Gamer, Community::Hacker, Community::Celebrity],
            )
        }),
        motivation: maybe(rng, |rng| {
            pick(
                rng,
                &[
                    Motivation::Competitive,
                    Motivation::Revenge,
                    Motivation::Justice,
                    Motivation::Political,
                ],
            )
        }),
        credits: (0..rng.below(3)).map(|_| text(rng)).collect(),
        duplicate_of: maybe(rng, TestRng::next_u64),
        exact_duplicate: bit(19),
        sloppy: bit(20),
        stub: bit(21),
    }
}

fn collected(rng: &mut TestRng, truth: GroundTruth) -> CollectedDoc {
    CollectedDoc {
        doc: SynthDoc {
            id: rng.next_u64(),
            source: pick(rng, &Source::ALL),
            posted_at: SimTime(rng.next_u64()),
            body: text(rng),
            deleted_after: maybe(rng, |rng| SimDuration(rng.next_u64())),
            truth,
        },
        collected_at: SimTime(rng.next_u64()),
    }
}

/// Any collected document: half doxes, half pastes of a random kind.
struct AnyDoc;

impl Strategy for AnyDoc {
    type Value = CollectedDoc;

    fn generate(&self, rng: &mut TestRng) -> CollectedDoc {
        let truth = if rng.below(2) == 1 {
            GroundTruth::Dox(Box::new(dox_truth(rng)))
        } else {
            GroundTruth::Paste {
                kind: pick(rng, &PASTE_KINDS),
            }
        };
        collected(rng, truth)
    }
}

/// Pre-order count of the nodes `pick` accepts.
fn count(value: &Value, pick: &dyn Fn(&Value) -> bool) -> u64 {
    let children = match value {
        Value::Array(items) => items.iter().map(|c| count(c, pick)).sum(),
        Value::Object(entries) => entries.iter().map(|(_, c)| count(c, pick)).sum(),
        _ => 0,
    };
    u64::from(pick(value)) + children
}

/// Apply `edit` to the `n`-th node (pre-order) that `pick` accepts.
fn edit_nth(
    value: &mut Value,
    n: &mut u64,
    pick: &dyn Fn(&Value) -> bool,
    edit: &mut dyn FnMut(&mut Value),
) -> bool {
    if pick(value) {
        if *n == 0 {
            edit(value);
            return true;
        }
        *n -= 1;
    }
    match value {
        Value::Array(items) => items.iter_mut().any(|c| edit_nth(c, n, pick, edit)),
        Value::Object(entries) => entries.iter_mut().any(|(_, c)| edit_nth(c, n, pick, edit)),
        _ => false,
    }
}

/// A copy of `value` with one random node that `pick` accepts edited.
fn mutant(
    value: &Value,
    rng: &mut TestRng,
    pick: &dyn Fn(&Value) -> bool,
    edit: &mut dyn FnMut(&mut Value),
) -> Value {
    let mut out = value.clone();
    let mut n = rng.below(count(value, pick));
    assert!(edit_nth(&mut out, &mut n, pick, edit));
    out
}

fn entry_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    match value {
        Value::Object(entries) => &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn append_x(value: &mut Value) {
    match value {
        Value::String(s) => s.push('X'),
        Value::Object(entries) => entries[0].0.push('X'),
        other => panic!("not an enum tag: {other:?}"),
    }
}

/// The round trip and every mutation, for one document.
fn check(doc: &CollectedDoc, rng: &mut TestRng) -> Result<(), TestCaseError> {
    let value = doc.to_value();
    let json = serde_json::to_string(doc).expect("serializes");
    let decoded = CollectedDoc::from_value(&value);
    prop_assert_eq!(decoded.as_ref(), Some(doc));
    let parsed: CollectedDoc = serde_json::from_str(&json).expect("parses");
    prop_assert_eq!(
        serde_json::to_string(&parsed).expect("serializes"),
        json.clone()
    );

    let cut = rng.below(json.len() as u64) as usize;
    if let Ok(truncated) = std::str::from_utf8(&json.as_bytes()[..cut]) {
        prop_assert!(serde_json::from_str::<CollectedDoc>(truncated).is_err());
    }

    let object = |v: &Value| v.as_object().is_some_and(|e| !e.is_empty());
    let which = rng.below(1 << 16);
    let deleted = mutant(&value, rng, &object, &mut |v| {
        if let Value::Object(entries) = v {
            entries.remove(which as usize % entries.len());
        }
    });
    prop_assert!(CollectedDoc::from_value(&deleted).is_none(), "key deleted");

    let swapped = mutant(&value, rng, &|v| !v.is_null(), &mut |v| {
        *v = match v {
            Value::String(_) => Value::Number(Number::U64(7)),
            Value::Number(_) => Value::String("7".to_string()),
            Value::Bool(_) | Value::Array(_) => Value::Object(Vec::new()),
            _ => Value::Array(Vec::new()),
        };
    });
    prop_assert!(CollectedDoc::from_value(&swapped).is_none(), "type swapped");

    let negative = -1 - (rng.below(1 << 40) as i64);
    let number = |v: &Value| matches!(v, Value::Number(_));
    let out_of_range = mutant(&value, rng, &number, &mut |v| {
        *v = Value::Number(Number::I64(negative));
    });
    prop_assert!(
        CollectedDoc::from_value(&out_of_range).is_none(),
        "negative"
    );

    let mut unknown_tag = value.clone();
    let synth = entry_mut(&mut unknown_tag, "doc");
    match rng.below(3) {
        0 => append_x(entry_mut(synth, "source")),
        1 => append_x(entry_mut(synth, "truth")),
        _ => {
            let truth = entry_mut(synth, "truth");
            match doc.doc.truth {
                GroundTruth::Dox(_) => append_x(entry_mut(entry_mut(truth, "Dox"), "gender")),
                GroundTruth::Paste { .. } => {
                    append_x(entry_mut(entry_mut(truth, "Paste"), "kind"));
                }
            }
        }
    }
    prop_assert!(
        CollectedDoc::from_value(&unknown_tag).is_none(),
        "unknown tag"
    );
    Ok(())
}

#[test]
fn every_truth_shape_round_trips_and_refuses_its_mutants() {
    let mut rng = TestRng::new(0xD0C);
    let mut truths: Vec<GroundTruth> = PASTE_KINDS
        .iter()
        .map(|&kind| GroundTruth::Paste { kind })
        .collect();
    for _ in 0..8 {
        truths.push(GroundTruth::Dox(Box::new(dox_truth(&mut rng))));
    }
    for truth in truths {
        let doc = collected(&mut rng, truth);
        for _ in 0..8 {
            if let Err(e) = check(&doc, &mut rng) {
                panic!("{doc:?}: {e:?}");
            }
        }
    }
}

proptest! {
    #[test]
    fn collected_docs_round_trip_and_mutants_are_refused(
        doc in AnyDoc,
        seed in any::<u64>(),
    ) {
        check(&doc, &mut TestRng::new(seed))?;
    }
}

/// Any valid tenant spec: an id of 1–64 legal bytes, a scale in
/// `(0, 1]`, a nonzero topology, and maybe a quota with any subset of
/// its fields set.
struct AnySpec;

impl Strategy for AnySpec {
    type Value = TenantSpec;

    fn generate(&self, rng: &mut TestRng) -> TenantSpec {
        const ID_BYTES: &[u8] = b"abcXYZ0189-_";
        let id_len = 1 + rng.below(64) as usize;
        TenantSpec {
            id: (0..id_len)
                .map(|_| char::from(pick(rng, ID_BYTES)))
                .collect(),
            seed: rng.next_u64(),
            scale: (1 + rng.below(1 << 20)) as f64 / f64::from(1u32 << 20),
            workers: 1 + rng.below(16) as usize,
            shards: 1 + rng.below(64) as usize,
            quota: maybe(rng, |rng| QuotaSpec {
                docs_per_sec: maybe(rng, |rng| (1 + rng.below(1 << 30)) as f64 / 1000.0),
                burst_docs: maybe(rng, |rng| 1 + rng.below(1 << 40)),
                max_inflight_bytes: maybe(rng, |rng| 1 + rng.below(1 << 40)),
            }),
        }
    }
}

/// `value` with `edit` applied to the entry under `path`.
fn edited(value: &Value, path: &[&str], edit: impl FnOnce(&mut Value)) -> Value {
    let mut out = value.clone();
    edit(path.iter().fold(&mut out, |v, key| entry_mut(v, key)));
    out
}

/// The round trip and every mutation, for one spec.
fn check_spec(spec: &TenantSpec, rng: &mut TestRng) -> Result<(), TestCaseError> {
    let value = spec.to_value();
    let json = serde_json::to_string(spec).expect("serializes");
    prop_assert_eq!(TenantSpec::from_value(&value), Some(spec.clone()));
    prop_assert_eq!(
        serde_json::from_str::<TenantSpec>(&json).ok(),
        Some(spec.clone())
    );
    let cut = rng.below(json.len() as u64) as usize;
    prop_assert!(serde_json::from_str::<TenantSpec>(&json[..cut]).is_err());

    let refused = |mutant: &Value, what: &str| -> Result<(), TestCaseError> {
        prop_assert!(
            TenantSpec::from_value(mutant).is_none(),
            "{}: {:?}",
            what,
            mutant
        );
        Ok(())
    };
    let required = pick(rng, &["id", "seed", "scale"]);
    let mut deleted = value.clone();
    if let Value::Object(entries) = &mut deleted {
        entries.retain(|(k, _)| k != required);
    }
    refused(&deleted, "required key deleted")?;

    let key = pick(rng, &["id", "seed", "scale", "workers", "shards", "quota"]);
    refused(
        &edited(&value, &[key], |v| {
            *v = match v {
                Value::Number(_) | Value::Null => Value::String("7".to_string()),
                _ => Value::Number(Number::U64(7)),
            };
        }),
        "wrong type",
    )?;
    refused(
        &edited(&value, &["quota"], |v| *v = Value::String("{}".to_string())),
        "quota as a string",
    )?;

    let negative = Value::Number(Number::I64(-1 - rng.below(1 << 40) as i64));
    let key = pick(rng, &["seed", "workers", "shards"]);
    refused(
        &edited(&value, &[key], |v| *v = negative.clone()),
        "negative",
    )?;

    let bad_scale = pick(
        rng,
        &[
            0.0,
            -0.5,
            1.0 + f64::EPSILON,
            2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ],
    );
    refused(
        &edited(&value, &["scale"], |v| {
            *v = Value::Number(Number::F64(bad_scale))
        }),
        "scale out of range",
    )?;
    prop_assert!(serde_json::from_str::<TenantSpec>(&json.replace(
        &format!(
            "\"scale\":{}",
            serde_json::to_string(&spec.scale).expect("encodes")
        ),
        "\"scale\":1e999",
    ))
    .is_err());

    let key = pick(rng, &["workers", "shards"]);
    refused(
        &edited(&value, &[key], |v| *v = Value::Number(Number::U64(0))),
        "zero topology",
    )?;

    let bad_id = match rng.below(3) {
        0 => String::new(),
        1 => "a".repeat(65),
        _ => format!("{}/x", spec.id),
    };
    refused(
        &edited(&value, &["id"], |v| *v = Value::String(bad_id)),
        "bad id",
    )?;

    if spec.quota.is_some() {
        let bad_rate = pick(rng, &[0.0, -1.0, f64::NAN, f64::INFINITY]);
        refused(
            &edited(&value, &["quota", "docs_per_sec"], |v| {
                *v = Value::Number(Number::F64(bad_rate));
            }),
            "quota rate",
        )?;
        let cap = pick(rng, &["burst_docs", "max_inflight_bytes"]);
        refused(
            &edited(&value, &["quota", cap], |v| {
                *v = Value::Number(Number::U64(0))
            }),
            "quota cap of 0",
        )?;
        refused(
            &edited(&value, &["quota", cap], |v| *v = negative.clone()),
            "negative quota cap",
        )?;
    }
    Ok(())
}

proptest! {
    #[test]
    fn tenant_specs_round_trip_and_mutants_are_refused(
        spec in AnySpec,
        seed in any::<u64>(),
    ) {
        check_spec(&spec, &mut TestRng::new(seed))?;
    }
}
