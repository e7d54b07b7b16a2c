//! The corpus stream generator.
//!
//! Produces the full two-period document stream at the paper's per-source
//! volumes (Figure 1 / Table 4), with the duplicate model of §3.1.4, the
//! pastebin deletion dynamics of Table 3, and HTML bodies for chan sources
//! (exercising the `html2text` pre-processing path). Also builds the
//! classifier's labeled training sets: 749 "proof-of-work" positives and
//! 4,220 random-crawl negatives (§3.1.2), scaled.
//!
//! The generator runs on the study's one producer thread, so its cost per
//! document bounds the whole pipeline. Where it goes at scale 0.03 (seed
//! 7, 52,137 documents, ~73 `next_u64` draws each): the paste bodies,
//! then [`wrap_chan_html`] on every chan post, then dox rendering and
//! the day batch's sort. The RNG draws are the largest single share of
//! the bodies; they are fixed by the stream contract (DESIGN.md), so the
//! renderers only cut what surrounds them.

use crate::config::{SourceVolume, SynthConfig};
use crate::dox_render::{render, sample_plan, truth_of, RenderPlan, Variation};
use crate::doxers::DoxerPopulation;
use crate::pastes::PasteGenerator;
use crate::persona::{Persona, PersonaGenerator};
use crate::text::push_decimal;
use crate::truth::GroundTruth;
use dox_geo::alloc::Allocation;
use dox_geo::model::World;
use dox_osn::clock::{SimDuration, SimTime, MINUTES_PER_DAY};
use dox_osn::filters::StudyPeriods;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::ops::ControlFlow;

/// The text-sharing sources the paper scrapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Source {
    /// pastebin.com (raw text).
    Pastebin,
    /// 4chan.org/b/ (HTML posts).
    Chan4B,
    /// 4chan.org/pol/ (HTML posts).
    Chan4Pol,
    /// 8ch.net/pol/ (HTML posts).
    Chan8Pol,
    /// 8ch.net/baphomet/ (HTML posts).
    Chan8Baphomet,
}

impl Source {
    /// All sources, Figure 1 order.
    pub const ALL: [Source; 5] = [
        Source::Pastebin,
        Source::Chan4B,
        Source::Chan4Pol,
        Source::Chan8Pol,
        Source::Chan8Baphomet,
    ];

    /// Display name matching the paper's labels.
    pub fn name(self) -> &'static str {
        match self {
            Source::Pastebin => "pastebin.com",
            Source::Chan4B => "4chan/b",
            Source::Chan4Pol => "4chan/pol",
            Source::Chan8Pol => "8ch/pol",
            Source::Chan8Baphomet => "8ch/baphomet",
        }
    }

    /// Whether postings arrive as HTML (chan boards) or raw text.
    pub fn is_html(self) -> bool {
        !matches!(self, Source::Pastebin)
    }
}

/// One document in the synthetic stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthDoc {
    /// Global document id (posting order).
    pub id: u64,
    /// Where it was posted.
    pub source: Source,
    /// When it was posted.
    pub posted_at: SimTime,
    /// The body as the scraper receives it (HTML for chan sources).
    pub body: String,
    /// For pastebin documents: when the paste was deleted, if it was
    /// (drives Table 3). Deletion is relative to `posted_at`.
    pub deleted_after: Option<SimDuration>,
    /// Ground truth (never visible to the pipeline's inference path).
    pub truth: GroundTruth,
}

/// A remembered dox posting, for the duplicate model.
#[derive(Debug, Clone)]
struct DoxRecord {
    doc_id: u64,
    persona_idx: usize,
    plan: RenderPlan,
    body: String,
}

/// Generates the full corpus stream.
pub struct CorpusGenerator<'w> {
    world: &'w World,
    config: SynthConfig,
    personas: PersonaGenerator<'w>,
    persona_store: Vec<Persona>,
    doxers: DoxerPopulation,
    pastes: PasteGenerator,
    periods: StudyPeriods,
    history: Vec<DoxRecord>,
    next_doc_id: u64,
    rng: ChaCha8Rng,
}

impl<'w> CorpusGenerator<'w> {
    /// Create a generator over a geographic world and IP allocation.
    pub fn new(world: &'w World, alloc: &'w Allocation, config: SynthConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0xC0_7055);
        let doxers = DoxerPopulation::generate(config.seed, config.scale.max(0.02));
        let pastes = PasteGenerator::new(config.hard_negative_rate);
        let personas = PersonaGenerator::new(world, alloc, &config);
        Self {
            world,
            config,
            personas,
            persona_store: Vec::new(),
            doxers,
            pastes,
            periods: StudyPeriods::paper(),
            history: Vec::new(),
            next_doc_id: 0,
            rng,
        }
    }

    /// The study periods in force.
    pub fn periods(&self) -> &StudyPeriods {
        &self.periods
    }

    /// The doxer population (the stand-in for the Twitter follow graph the
    /// paper queried).
    pub fn doxers(&self) -> &DoxerPopulation {
        &self.doxers
    }

    /// Personas realized so far (victims of generated doxes).
    pub fn personas(&self) -> &[Persona] {
        &self.persona_store
    }

    /// The active configuration.
    pub fn config(&self) -> &SynthConfig {
        &self.config
    }

    /// Generate period `which` (1 or 2), feeding each document to `sink`
    /// in chronological order (day-granular batches, time-sorted within a
    /// day so memory stays bounded at paper scale).
    ///
    /// The sink controls the stream: returning
    /// [`ControlFlow::Break`] stops
    /// generation immediately and the same `Break` is returned to the
    /// caller. An early stop leaves the generator mid-period — only a
    /// full run keeps the document stream a pure function of the seed.
    ///
    /// # Panics
    /// Panics if `which` is not 1 or 2.
    pub fn generate_period(
        &mut self,
        which: u8,
        sink: &mut dyn FnMut(SynthDoc) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        assert!(which == 1 || which == 2, "periods are 1 and 2");
        let (volumes, (start, end), dup_rate) = if which == 1 {
            (
                self.config.period1,
                self.periods.period1,
                self.config.duplicates.period1,
            )
        } else {
            (
                self.config.period2,
                self.periods.period2,
                self.config.duplicates.period2,
            )
        };
        let days = end.since(start).days().max(1);

        // Per-source daily quotas, with remainders spread over leading days.
        let sources = [
            (Source::Pastebin, volumes.pastebin),
            (Source::Chan4B, volumes.chan4_b),
            (Source::Chan4Pol, volumes.chan4_pol),
            (Source::Chan8Pol, volumes.chan8_pol),
            (Source::Chan8Baphomet, volumes.chan8_baphomet),
        ];

        for day in 0..days {
            let day_start = SimTime(start.0 + day * MINUTES_PER_DAY);
            let mut batch: Vec<SynthDoc> = Vec::new();
            for (source, vol) in sources {
                let (docs_today, doxes_today) = daily_quota(vol, day, days);
                if docs_today == 0 {
                    continue;
                }
                // Choose which of today's documents are doxes.
                let dox_slots = pick_slots(docs_today, doxes_today, &mut self.rng);
                for i in 0..docs_today {
                    let at = SimTime(day_start.0 + self.rng.random_range(0..MINUTES_PER_DAY));
                    let doc = if dox_slots.binary_search(&i).is_ok() {
                        self.generate_dox_doc(source, at, dup_rate)
                    } else {
                        self.generate_paste_doc(source, at)
                    };
                    batch.push(doc);
                }
            }
            batch.sort_by_key(|d| d.posted_at);
            for doc in batch {
                if let ControlFlow::Break(()) = sink(doc) {
                    return ControlFlow::Break(());
                }
            }
        }
        ControlFlow::Continue(())
    }

    /// Generate both periods into a vector (small scales / tests only).
    pub fn generate_collect(&mut self) -> Vec<SynthDoc> {
        let mut out = Vec::new();
        let _ = self.generate_period(1, &mut |d| {
            out.push(d);
            ControlFlow::Continue(())
        });
        let _ = self.generate_period(2, &mut |d| {
            out.push(d);
            ControlFlow::Continue(())
        });
        out
    }

    fn generate_dox_doc(&mut self, source: Source, at: SimTime, dup_rate: f64) -> SynthDoc {
        let id = self.take_doc_id();
        let is_dup = !self.history.is_empty() && self.rng.random_range(0.0..1.0) < dup_rate;
        let (plain, truth) = if is_dup {
            // Reposts favour the doxes worth spreading: ones that expose
            // accounts. Draw a few candidates and keep a rich one if any.
            let rec_idx = (0..4)
                .map(|_| self.rng.random_range(0..self.history.len()))
                .max_by_key(|&i| usize::from(!self.history[i].plan.osn.is_empty()))
                .expect("four candidates drawn");
            let exact = self.rng.random_range(0.0..1.0) < self.config.duplicates.exact_share;
            let (body, truth) = {
                let rec = &self.history[rec_idx];
                let persona = &self.persona_store[rec.persona_idx];
                if exact {
                    (
                        rec.body.clone(),
                        truth_of(persona, &rec.plan, Some(rec.doc_id), true),
                    )
                } else {
                    let variation = Variation {
                        timestamp: Some(at.0),
                        alt_insignia: self.rng.random_range(0.0..1.0) < 0.5,
                        update_section: self.rng.random_range(0.0..1.0) < 0.5,
                    };
                    let body = render(persona, &rec.plan, self.world, variation, &mut self.rng);
                    (body, truth_of(persona, &rec.plan, Some(rec.doc_id), false))
                }
            };
            (body, truth)
        } else {
            let persona = self.personas.generate(&mut self.rng);
            let plan = sample_plan(&persona, &self.config, false, &self.doxers, &mut self.rng);
            let body = render(
                &persona,
                &plan,
                self.world,
                Variation::default(),
                &mut self.rng,
            );
            let truth = truth_of(&persona, &plan, None, false);
            self.persona_store.push(persona);
            self.history.push(DoxRecord {
                doc_id: id,
                persona_idx: self.persona_store.len() - 1,
                plan,
                body: body.clone(),
            });
            (body, truth)
        };

        let body = if source.is_html() {
            wrap_chan_html(&plain, &mut self.rng)
        } else {
            plain
        };
        let deleted_after = self.sample_deletion(source, true);
        SynthDoc {
            id,
            source,
            posted_at: at,
            body,
            deleted_after,
            truth: GroundTruth::Dox(Box::new(truth)),
        }
    }

    fn generate_paste_doc(&mut self, source: Source, at: SimTime) -> SynthDoc {
        let id = self.take_doc_id();
        let paste = self.pastes.sample_paste(&mut self.rng);
        let body = if source.is_html() {
            wrap_chan_html(&paste.body, &mut self.rng)
        } else {
            paste.body
        };
        let deleted_after = self.sample_deletion(source, false);
        SynthDoc {
            id,
            source,
            posted_at: at,
            body,
            deleted_after,
            truth: GroundTruth::Paste { kind: paste.kind },
        }
    }

    fn sample_deletion(&mut self, source: Source, is_dox: bool) -> Option<SimDuration> {
        if source != Source::Pastebin {
            return None;
        }
        let p = if is_dox {
            self.config.deletion.dox_30d
        } else {
            self.config.deletion.other_30d
        };
        (self.rng.random_range(0.0..1.0) < p)
            .then(|| SimDuration(self.rng.random_range(60..30 * MINUTES_PER_DAY)))
    }

    fn take_doc_id(&mut self) -> u64 {
        let id = self.next_doc_id;
        self.next_doc_id += 1;
        id
    }

    /// Build the classifier's labeled training corpus: proof-of-work dox
    /// positives and random-crawl negatives (§3.1.2: 749 / 4,220 at paper
    /// scale, scaled but floored so small runs stay trainable).
    ///
    /// The negative crawl always includes a block of hard negatives
    /// (credential dumps, member lists, form submissions): annotators
    /// vetting a random crawl keep exactly those confusing files because
    /// they are the ones worth teaching the classifier about.
    ///
    /// Returns `(texts, labels)` with `true` marking doxes.
    pub fn training_sets(&mut self) -> (Vec<String>, Vec<bool>) {
        let n_pos = ((749.0 * self.config.scale) as usize).max(150);
        let n_neg = ((4220.0 * self.config.scale) as usize).max(800);
        let n_hard = (n_neg / 20).max(45);
        let mut texts = Vec::with_capacity(n_pos + n_neg + n_hard);
        let mut labels = Vec::with_capacity(n_pos + n_neg + n_hard);
        for i in 0..n_pos {
            let persona = self.personas.generate(&mut self.rng);
            // The paper's positive set mixes dox-for-hire proof-of-work
            // archives with the doxes found in the random crawl; ~1 in 3
            // of ours are wild-style (including the sloppy/narrative
            // renderings that drive recall below 1).
            let proof_of_work = i % 3 != 0;
            let plan = sample_plan(
                &persona,
                &self.config,
                proof_of_work,
                &self.doxers,
                &mut self.rng,
            );
            let body = render(
                &persona,
                &plan,
                self.world,
                Variation::default(),
                &mut self.rng,
            );
            self.persona_store.push(persona);
            texts.push(body);
            labels.push(true);
        }
        for _ in 0..n_neg {
            texts.push(self.pastes.sample_paste(&mut self.rng).body);
            labels.push(false);
        }
        // Weighted mix: the mechanically distinctive kinds (dumps, lists,
        // forms) are well represented and get learned cleanly; the
        // dox-adjacent kinds (profile cards, tutorials, discussion) are
        // scarce — annotators rarely encountered them — leaving residual
        // confusion that produces Table 1's false positives.
        use crate::truth::PasteKind::*;
        let block = [
            CredentialDump,
            UserList,
            FormData,
            CredentialDump,
            UserList,
            FormData,
            ProfileCard,
            DoxTutorial,
            DoxDiscussion,
            DoxDiscussion,
            DoxDiscussion,
            CredentialDump,
        ];
        for i in 0..n_hard {
            let kind = block[i % block.len()];
            texts.push(self.pastes.generate_kind(kind, &mut self.rng));
            labels.push(false);
        }
        (texts, labels)
    }

    /// Generate `n` hand-labelable proof-of-work doxes with their plans —
    /// the extractor-accuracy protocol (Table 2) labels 125 of these.
    pub fn proof_of_work_sample(&mut self, n: usize) -> Vec<(SynthDoc, Persona)> {
        (0..n)
            .map(|_| {
                let id = self.take_doc_id();
                let persona = self.personas.generate(&mut self.rng);
                let plan = sample_plan(&persona, &self.config, true, &self.doxers, &mut self.rng);
                let body = render(
                    &persona,
                    &plan,
                    self.world,
                    Variation::default(),
                    &mut self.rng,
                );
                let truth = truth_of(&persona, &plan, None, false);
                (
                    SynthDoc {
                        id,
                        source: Source::Pastebin,
                        posted_at: self.periods.period1.0,
                        body,
                        deleted_after: None,
                        truth: GroundTruth::Dox(Box::new(truth)),
                    },
                    persona.clone(),
                )
            })
            .collect()
    }
}

/// Spread `vol.total` documents (and `vol.doxes` doxes) across `days`,
/// remainder-first.
fn daily_quota(vol: SourceVolume, day: u64, days: u64) -> (u64, u64) {
    let per_day = vol.total / days;
    let extra = vol.total % days;
    let docs = per_day + u64::from(day < extra);
    let dper = vol.doxes / days;
    let dextra = vol.doxes % days;
    let doxes = dper + u64::from(day < dextra);
    (docs, doxes.min(docs))
}

/// Choose `k` distinct slot indices in `0..n`, returned sorted.
fn pick_slots(n: u64, k: u64, rng: &mut ChaCha8Rng) -> Vec<u64> {
    let mut slots = Vec::with_capacity(k.min(n) as usize);
    while (slots.len() as u64) < k.min(n) {
        let slot = rng.random_range(0..n);
        if let Err(at) = slots.binary_search(&slot) {
            slots.insert(at, slot);
        }
    }
    slots
}

/// How many bytes a chan post's escaping adds for `b`: `&amp;` 4,
/// `&lt;`, `&gt;` and `<br>` (for `\n`) 3, `&#039;` 5, any other byte 0.
/// Branch-free, so the sizing loop over it vectorizes.
const fn escape_growth(b: u8) -> u8 {
    (b == b'&') as u8 * 4
        + ((b == b'<') | (b == b'>') | (b == b'\n')) as u8 * 3
        + (b == b'\'') as u8 * 5
}

/// [`escape_growth`] of every byte, for the byte-at-a-time escape loop.
const ESCAPE_GROWTH: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = escape_growth(b as u8);
        b += 1;
    }
    table
};

/// The length of `plain` once escaped. Each 32-byte chunk's growth is
/// summed in a `u8` (at most 32 × 5).
fn escaped_len(plain: &str) -> usize {
    let mut chunks = plain.as_bytes().chunks_exact(32);
    let chunked: usize = (&mut chunks)
        .map(|chunk| usize::from(chunk.iter().fold(0, |sum, &b| sum + escape_growth(b))))
        .sum();
    let tail: usize = chunks
        .remainder()
        .iter()
        .map(|&b| usize::from(escape_growth(b)))
        .sum();
    plain.len() + chunked + tail
}

/// Wrap plain text as a chan post: escaped HTML with `<br>` line breaks and
/// an optional quotelink header, as the boards serve it.
///
/// The body is sized exactly, then written in one pass that copies the
/// text between escapes whole. Escaping draws nothing, so the quotelink
/// coin and its two ids are drawn first, in that order.
pub fn wrap_chan_html(plain: &str, rng: &mut ChaCha8Rng) -> String {
    const QUOTELINK: &str = r##"<a href="#p" class="quotelink">&gt;&gt;</a><br>"##;
    let quotelink = rng.random_range(0.0..1.0) < 0.3;
    let mut len = escaped_len(plain);
    let mut out = if quotelink {
        // Both ids have 8 digits.
        len += QUOTELINK.len() + 2 * 8;
        let (post, thread) = (
            rng.random_range(10_000_000..99_999_999u32),
            rng.random_range(10_000_000..99_999_999u32),
        );
        let mut out = String::with_capacity(len);
        out.push_str("<a href=\"#p");
        push_decimal(&mut out, post, 1);
        out.push_str("\" class=\"quotelink\">&gt;&gt;");
        push_decimal(&mut out, thread, 1);
        out.push_str("</a><br>");
        out
    } else {
        String::with_capacity(len)
    };
    let mut verbatim = 0;
    for (i, &b) in plain.as_bytes().iter().enumerate() {
        if ESCAPE_GROWTH[usize::from(b)] == 0 {
            continue;
        }
        out.push_str(&plain[verbatim..i]);
        match b {
            b'&' => out.push_str("&amp;"),
            b'<' => out.push_str("&lt;"),
            b'>' => out.push_str("&gt;"),
            b'\'' => out.push_str("&#039;"),
            _ => out.push_str("<br>"),
        }
        verbatim = i + 1;
    }
    out.push_str(&plain[verbatim..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dox_geo::alloc::AllocConfig;
    use dox_geo::model::WorldConfig;
    use std::collections::HashSet;

    fn fixture() -> (World, Allocation) {
        let world = World::generate(
            &WorldConfig {
                countries: 4,
                states_per_country: 6,
                cities_per_state: 8,
            },
            55,
        );
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 55);
        (world, alloc)
    }

    #[test]
    fn volumes_match_config_exactly() {
        let (world, alloc) = fixture();
        let config = SynthConfig::test_scale();
        let expect_total = config.total_documents();
        let expect_doxes = config.total_doxes();
        let mut gen = CorpusGenerator::new(&world, &alloc, config);
        let docs = gen.generate_collect();
        assert_eq!(docs.len() as u64, expect_total);
        let doxes = docs.iter().filter(|d| d.truth.is_dox()).count() as u64;
        assert_eq!(doxes, expect_doxes);
    }

    #[test]
    fn period1_is_pastebin_only() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let mut sources = HashSet::new();
        let _ = gen.generate_period(1, &mut |d| {
            sources.insert(d.source);
            assert!(d.posted_at < SimTime::from_days(42));
            ControlFlow::Continue(())
        });
        assert_eq!(sources.len(), 1);
        assert!(sources.contains(&Source::Pastebin));
    }

    #[test]
    fn sink_break_stops_generation_early() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let mut n = 0u64;
        let flow = gen.generate_period(1, &mut |_| {
            n += 1;
            if n == 10 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(flow, ControlFlow::Break(()));
        assert_eq!(n, 10, "generation stops at the tenth document");
    }

    #[test]
    fn period2_spans_all_sources_and_window() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let mut sources = HashSet::new();
        let _ = gen.generate_period(2, &mut |d| {
            sources.insert(d.source);
            assert!(d.posted_at >= SimTime::from_days(152));
            assert!(d.posted_at < SimTime::from_days(201));
            ControlFlow::Continue(())
        });
        assert_eq!(sources.len(), 5);
    }

    #[test]
    fn stream_is_chronological() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let docs = gen.generate_collect();
        for w in docs.windows(2) {
            assert!(w[0].posted_at <= w[1].posted_at, "out of order");
        }
    }

    #[test]
    fn chan_documents_are_html() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let docs = gen.generate_collect();
        let chan_docs: Vec<_> = docs.iter().filter(|d| d.source.is_html()).collect();
        assert!(!chan_docs.is_empty());
        // chan bodies have no raw newlines and use <br>
        assert!(chan_docs
            .iter()
            .filter(|d| d.body.len() > 50)
            .all(|d| !d.body.contains('\n')));
        assert!(chan_docs.iter().any(|d| d.body.contains("<br>")));
        // pastebin bodies are plain
        assert!(docs
            .iter()
            .filter(|d| d.source == Source::Pastebin)
            .all(|d| !d.body.contains("<br>")));
    }

    #[test]
    fn duplicates_reference_earlier_docs() {
        let (world, alloc) = fixture();
        // larger scale so duplicates (and the rarer exact reposts) occur
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::at_scale(0.025));
        let docs = gen.generate_collect();
        let mut dup_count = 0usize;
        let mut exact_count = 0usize;
        for d in &docs {
            if let Some(t) = d.truth.as_dox() {
                if let Some(orig) = t.duplicate_of {
                    dup_count += 1;
                    assert!(orig < d.id, "duplicate precedes original");
                    if t.exact_duplicate {
                        exact_count += 1;
                        let orig_doc = docs.iter().find(|x| x.id == orig).unwrap();
                        // Compare plain content: the chan HTML wrapper varies.
                        if d.source == Source::Pastebin && orig_doc.source == Source::Pastebin {
                            assert_eq!(d.body, orig_doc.body, "exact dup differs");
                        }
                    }
                }
            }
        }
        let doxes = docs.iter().filter(|d| d.truth.is_dox()).count();
        let rate = dup_count as f64 / doxes as f64;
        // generated rate = 18.1 % measured target × 1.30 attenuation.
        assert!((rate - 0.235).abs() < 0.09, "duplicate rate {rate}");
        assert!(exact_count > 0, "some duplicates must be exact");
    }

    #[test]
    fn deletion_rates_match_table3() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::at_scale(0.01));
        let docs = gen.generate_collect();
        let (mut dox_n, mut dox_del, mut other_n, mut other_del) = (0u64, 0u64, 0u64, 0u64);
        for d in docs.iter().filter(|d| d.source == Source::Pastebin) {
            if d.truth.is_dox() {
                dox_n += 1;
                dox_del += u64::from(d.deleted_after.is_some());
            } else {
                other_n += 1;
                other_del += u64::from(d.deleted_after.is_some());
            }
        }
        let dox_rate = dox_del as f64 / dox_n as f64;
        let other_rate = other_del as f64 / other_n as f64;
        // ~50 dox files at this scale: the binomial noise on dox_rate is
        // ±0.09 at 2σ, so only the coarse shape is asserted here; the 3x
        // ratio is checked at paper scale by the bench harness.
        assert!((dox_rate - 0.128).abs() < 0.10, "dox deletion {dox_rate}");
        assert!(
            (other_rate - 0.042).abs() < 0.01,
            "other deletion {other_rate}"
        );
        assert!(
            dox_rate > other_rate,
            "doxes delete more: {dox_rate} vs {other_rate}"
        );
    }

    #[test]
    fn chan_docs_never_marked_deleted() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        for d in gen.generate_collect() {
            if d.source != Source::Pastebin {
                assert!(d.deleted_after.is_none());
            }
        }
    }

    #[test]
    fn training_sets_sized_and_labeled() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let (texts, labels) = gen.training_sets();
        assert_eq!(texts.len(), labels.len());
        let pos = labels.iter().filter(|&&l| l).count();
        assert!(pos >= 150);
        assert!(labels.len() - pos >= 800);
        // positives mention dox-like content far more often
        let doxy = |t: &String| {
            let lower = t.to_lowercase();
            [
                "phone",
                "address",
                "addy",
                "lives around",
                "first name",
                "screencap",
                "goes by",
            ]
            .iter()
            .any(|k| lower.contains(k))
        };
        let pos_doxy = texts
            .iter()
            .zip(&labels)
            .filter(|(t, &l)| l && doxy(t))
            .count() as f64
            / pos as f64;
        assert!(
            pos_doxy > 0.6,
            "positives should look like doxes: {pos_doxy}"
        );
    }

    #[test]
    fn proof_of_work_sample_has_truth_and_personas() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let sample = gen.proof_of_work_sample(25);
        assert_eq!(sample.len(), 25);
        for (doc, persona) in &sample {
            let t = doc.truth.as_dox().expect("all are doxes");
            assert_eq!(t.persona_id, persona.id);
        }
    }

    #[test]
    fn doc_ids_unique_and_ordered() {
        let (world, alloc) = fixture();
        let mut gen = CorpusGenerator::new(&world, &alloc, SynthConfig::test_scale());
        let docs = gen.generate_collect();
        let mut ids: Vec<u64> = docs.iter().map(|d| d.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn daily_quota_sums_to_volume() {
        let vol = SourceVolume {
            total: 1000,
            doxes: 37,
        };
        let days = 42;
        let (mut t, mut d) = (0u64, 0u64);
        for day in 0..days {
            let (dt, dd) = daily_quota(vol, day, days);
            t += dt;
            d += dd;
        }
        assert_eq!(t, 1000);
        assert_eq!(d, 37);
    }

    #[test]
    fn pick_slots_exact_count_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let slots = pick_slots(100, 10, &mut rng);
        assert_eq!(slots.len(), 10);
        assert!(slots.iter().all(|&s| s < 100));
        // k > n clamps
        let all = pick_slots(5, 50, &mut rng);
        assert_eq!(all.len(), 5);
    }
}
