//! The Table 2 evaluation protocol: per-field extractor accuracy.
//!
//! The paper hand-labels 125 dox files (location and value of every OSN
//! account plus the other fields), then scores the extractor per field. In
//! the reproduction the generator's ground truth plays the role of the
//! hand labels: a field extraction is **correct** when
//!
//! - the dox includes the field and the extractor recovered the labeled
//!   value, or
//! - the dox omits the field and the extractor found nothing.
//!
//! Both error directions (missed values and spurious finds) count against
//! accuracy, exactly as manual scoring would.

use crate::record::ExtractedDox;
use dox_osn::network::Network;
use dox_synth::persona::Persona;
use dox_synth::truth::DoxTruth;
use dox_textkit::normalize::digits_only;
use serde::Serialize;
use std::collections::BTreeMap;

/// The fields Table 2 scores, in the paper's row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum Field {
    /// Instagram handle extraction.
    Instagram,
    /// Twitch handle extraction.
    Twitch,
    /// Google+ handle extraction.
    GooglePlus,
    /// Twitter handle extraction.
    Twitter,
    /// Facebook handle extraction.
    Facebook,
    /// YouTube handle extraction.
    YouTube,
    /// Skype handle extraction.
    Skype,
    /// First name.
    FirstName,
    /// Last name.
    LastName,
    /// Age.
    Age,
    /// Phone number.
    Phone,
}

impl Field {
    /// All fields in Table 2 order.
    pub const ALL: [Field; 11] = [
        Field::Instagram,
        Field::Twitch,
        Field::GooglePlus,
        Field::Twitter,
        Field::Facebook,
        Field::YouTube,
        Field::Skype,
        Field::FirstName,
        Field::LastName,
        Field::Age,
        Field::Phone,
    ];

    /// Display label matching the paper's rows.
    pub fn label(self) -> &'static str {
        match self {
            Field::Instagram => "Instagram",
            Field::Twitch => "Twitch",
            Field::GooglePlus => "Google+",
            Field::Twitter => "Twitter",
            Field::Facebook => "Facebook",
            Field::YouTube => "YouTube",
            Field::Skype => "Skype",
            Field::FirstName => "First Name",
            Field::LastName => "Last Name",
            Field::Age => "Age",
            Field::Phone => "Phone",
        }
    }
}

/// Accuracy accounting for one field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FieldScore {
    /// Documents where the extraction matched the hand label.
    pub correct: usize,
    /// Documents scored.
    pub total: usize,
    /// Documents whose ground truth includes the field.
    pub present: usize,
}

impl FieldScore {
    /// Accuracy in `[0, 1]`; zero when nothing was scored.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Fraction of doxes including the field (Table 2's first column).
    pub fn inclusion_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.present as f64 / self.total as f64
        }
    }
}

/// The full Table 2: per-field scores over a labeled sample.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ExtractorEvaluation {
    /// Per-field accounting.
    pub scores: BTreeMap<Field, FieldScore>,
}

impl ExtractorEvaluation {
    /// Score one `(extraction, truth, persona)` triple into the running
    /// evaluation.
    pub fn score(&mut self, extracted: &ExtractedDox, truth: &DoxTruth, persona: &Persona) {
        for field in Field::ALL {
            let (present, correct) = score_field(field, extracted, truth, persona);
            let s = self.scores.entry(field).or_default();
            s.total += 1;
            s.present += usize::from(present);
            s.correct += usize::from(correct);
        }
    }

    /// Accuracy of one field.
    pub fn accuracy(&self, field: Field) -> f64 {
        self.scores.get(&field).map_or(0.0, FieldScore::accuracy)
    }
}

/// Score one OSN-handle field: every expected handle extracted, nothing
/// extra.
fn score_network(network: Network, extracted: &ExtractedDox, truth: &DoxTruth) -> (bool, bool) {
    let expected: Vec<String> = truth
        .osn_handles
        .iter()
        .filter(|(n, _)| *n == network)
        .map(|(_, h)| h.to_lowercase())
        .collect();
    let got: Vec<String> = extracted
        .handles_on(network)
        .into_iter()
        .map(str::to_string)
        .collect();
    let present = !expected.is_empty();
    let correct = if present {
        expected.iter().all(|e| got.contains(e)) && got.len() == expected.len()
    } else {
        got.is_empty()
    };
    (present, correct)
}

/// Returns `(truth_includes_field, extraction_correct)`.
fn score_field(
    field: Field,
    extracted: &ExtractedDox,
    truth: &DoxTruth,
    persona: &Persona,
) -> (bool, bool) {
    match field {
        Field::Instagram => score_network(Network::Instagram, extracted, truth),
        Field::Twitch => score_network(Network::Twitch, extracted, truth),
        Field::GooglePlus => score_network(Network::GooglePlus, extracted, truth),
        Field::Twitter => score_network(Network::Twitter, extracted, truth),
        Field::Facebook => score_network(Network::Facebook, extracted, truth),
        Field::YouTube => score_network(Network::YouTube, extracted, truth),
        Field::Skype => score_network(Network::Skype, extracted, truth),
        Field::FirstName => {
            let present = truth.fields.real_name;
            let correct = if present {
                extracted
                    .fields
                    .first_name
                    .as_deref()
                    .is_some_and(|f| f.eq_ignore_ascii_case(&persona.first_name))
            } else {
                extracted.fields.first_name.is_none()
            };
            (present, correct)
        }
        Field::LastName => {
            let present = truth.fields.real_name;
            let correct = if present {
                extracted
                    .fields
                    .last_name
                    .as_deref()
                    .is_some_and(|l| l.eq_ignore_ascii_case(&persona.last_name))
            } else {
                extracted.fields.last_name.is_none()
            };
            (present, correct)
        }
        Field::Age => {
            let present = truth.fields.age;
            let correct = if present {
                extracted.fields.age == Some(persona.age)
            } else {
                extracted.fields.age.is_none()
            };
            (present, correct)
        }
        Field::Phone => {
            let present = truth.fields.phone;
            let expected = digits_only(&persona.phone);
            let correct = if present {
                extracted.fields.phones.contains(&expected)
            } else {
                extracted.fields.phones.is_empty()
            };
            (present, correct)
        }
    }
}

/// Run the full Table 2 protocol: extract from each labeled document and
/// score. `sample` pairs each dox body (plain text) with its truth and
/// persona.
pub fn evaluate_extractor(sample: &[(String, DoxTruth, Persona)]) -> ExtractorEvaluation {
    let mut eval = ExtractorEvaluation::default();
    for (body, truth, persona) in sample {
        let extracted = crate::record::extract(body);
        eval.score(&extracted, truth, persona);
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_geo::alloc::{AllocConfig, Allocation};
    use dox_geo::model::{World, WorldConfig};
    use dox_synth::config::SynthConfig;
    use dox_synth::corpus::CorpusGenerator;

    fn labeled_sample(n: usize) -> Vec<(String, DoxTruth, Persona)> {
        let world = World::generate(&WorldConfig::default(), 13);
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 13);
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        gen.proof_of_work_sample(n)
            .into_iter()
            .map(|(doc, persona)| {
                let truth = doc.truth.as_dox().expect("PoW docs are doxes").clone();
                (doc.body, truth, persona)
            })
            .collect()
    }

    #[test]
    fn evaluation_runs_over_125_docs_like_the_paper() {
        let sample = labeled_sample(125);
        let eval = evaluate_extractor(&sample);
        for field in Field::ALL {
            let s = &eval.scores[&field];
            assert_eq!(s.total, 125);
            assert!(s.correct <= s.total);
        }
    }

    #[test]
    fn osn_accuracy_is_high_but_imperfect_shape() {
        let sample = labeled_sample(300);
        let eval = evaluate_extractor(&sample);
        // Paper Table 2: network extraction 80–95 % accurate. Our synthetic
        // formats are similar; accuracy must be high but the sloppy
        // template keeps it from being trivially perfect.
        for f in [Field::Instagram, Field::Twitch, Field::Facebook] {
            let acc = eval.accuracy(f);
            assert!(acc > 0.70, "{f:?} accuracy {acc}");
        }
    }

    #[test]
    fn inclusion_rates_track_proof_of_work_rates() {
        let sample = labeled_sample(400);
        let eval = evaluate_extractor(&sample);
        // Table 2: Skype appears in 55.2 % of PoW doxes, Instagram 11.2 %.
        let skype = eval.scores[&Field::Skype].inclusion_rate();
        let insta = eval.scores[&Field::Instagram].inclusion_rate();
        assert!(skype > insta, "skype {skype} vs insta {insta}");
        assert!((skype - 0.552 * 0.9).abs() < 0.08, "skype {skype}");
    }

    #[test]
    fn phone_accuracy_lower_than_network_accuracy() {
        // Table 2's shape: phone (58.4 %) is the hardest field because
        // free-form phone formats are ambiguous.
        let sample = labeled_sample(300);
        let eval = evaluate_extractor(&sample);
        let phone = eval.accuracy(Field::Phone);
        assert!(phone > 0.3, "phone accuracy {phone}");
    }

    #[test]
    fn perfect_extraction_scores_one() {
        let mut eval = ExtractorEvaluation::default();
        let sample = labeled_sample(1);
        let (body, truth, persona) = &sample[0];
        let extracted = crate::record::extract(body);
        // Force-check: scoring the extraction twice gives a stable rate.
        eval.score(&extracted, truth, persona);
        let snapshot = eval.clone();
        eval.score(&extracted, truth, persona);
        for field in Field::ALL {
            assert_eq!(
                eval.scores[&field].correct,
                2 * snapshot.scores[&field].correct
            );
        }
    }

    #[test]
    fn empty_evaluation_rates_zero() {
        let eval = ExtractorEvaluation::default();
        assert_eq!(eval.accuracy(Field::Phone), 0.0);
        let s = FieldScore::default();
        assert_eq!(s.accuracy(), 0.0);
        assert_eq!(s.inclusion_rate(), 0.0);
    }
}
