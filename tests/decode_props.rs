//! Round-trip and hostile-input properties of the derived ingest
//! decoder: every generated `CollectedDoc` decodes back to itself, and
//! every mutant of its encoding — truncated text, a deleted key, a value
//! of the wrong type, a negative integer, an unknown enum tag — is
//! refused without a panic.

use doxing_repro::osn::clock::{SimDuration, SimTime};
use doxing_repro::osn::network::Network;
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
