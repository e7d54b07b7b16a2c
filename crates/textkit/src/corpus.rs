//! A training corpus tokenized once.
//!
//! Fitting a TF-IDF model reads every document twice — once to count
//! document frequencies, once to build its vector — and the classifier's
//! protocol fits twice: on the evaluation's training fold, then on the
//! whole labeled corpus. [`TokenizedCorpus`] walks each text once, interns
//! every distinct token once, and keeps each document as its sorted
//! `(token id, count)` pairs. Ids are ranks in token order, and so is
//! every vocabulary's feature order, so a [`CorpusFit`] over any subset of
//! the documents is integer work: count df over ids, keep every id the
//! subset uses, and remap ids to feature indices in the order they
//! already have.
//!
//! **Scanning.** Texts are split the way the fused scorer splits them:
//! an ASCII text byte by byte (`ascii_word_spans`), each word folded to
//! lowercase eight bytes at a time as it is interned, with no lowercase
//! copy; any other text through `str::to_lowercase` and `word_spans`.
//!
//! **Interning.** Distinct tokens get ids in first-seen order from an
//! open-addressing table built on the frozen vocabulary table's slots
//! and its word-load, fold and hash helpers. The table grows, and
//! training text comes from outside, so each probe chain is cut at 16
//! slots; a token past the cut goes into a keyed SipHash map, and text
//! built to collide costs at most the cut plus that map. Each document
//! counts its tokens against per-id counts and lists its distinct ids
//! in first-use order.
//!
//! **Ranking.** The distinct tokens are sorted once; every id is
//! renumbered to its rank, and only each document's distinct ids are
//! re-sorted. Ids are ranks, so nothing the hash decides — slots, probe
//! lengths, overflow — reaches a fit.
//!
//! [`TfidfVectorizer::fit`] runs on this corpus too, so the crate has one
//! fit path, and [`CorpusFit::transform`] of a document is bit-identical to
//! [`TfidfVectorizer::transform`] of its text.

use crate::sparse::SparseVec;
use crate::table::{fold, folded_eq, hash, words, Slot, EMPTY, VACANT};
use crate::tfidf::{smooth_idf, TfidfModel, TfidfVectorizer};
use crate::tokenize::{ascii_word_spans, word_spans};
use crate::vocab::Vocabulary;
use std::collections::HashMap;

/// Marks a token id that has no feature in a fit.
const DROPPED: u32 = u32::MAX;

/// Documents tokenized once, as interned `(token id, count)` lists.
///
/// ```
/// use dox_textkit::corpus::TokenizedCorpus;
///
/// let texts = ["Name and ADDRESS of the victim", "fn main() {}", "the victim"];
/// let corpus = TokenizedCorpus::new(&texts);
/// let fold = corpus.fit(&[0, 2]);
/// let vectorizer = fold.vectorizer();
/// assert_eq!(fold.transform(1), vectorizer.transform(texts[1]));
/// assert_eq!(fold.transform(2), vectorizer.transform(texts[2]));
/// ```
#[derive(Debug, Clone)]
pub struct TokenizedCorpus {
    /// Every distinct token, lowercased, concatenated in first-seen order.
    text: String,
    /// Each token's `(start, end)` in `text`, in lexicographic token
    /// order; a token's id is its position.
    tokens: Vec<(u32, u32)>,
    /// Every document's `(token id, count)` pairs, each document's sorted
    /// by id, one document after another.
    terms: Vec<(u32, u32)>,
    /// Where each document's pairs end in `terms`.
    doc_ends: Vec<u32>,
}

impl TokenizedCorpus {
    /// Tokenize `texts`.
    ///
    /// Each text is split and lowercased as the fused scorer
    /// ([`TfidfVectorizer::dot`]) does it: ASCII text byte by byte with
    /// `ascii_word_spans`, each word folded to lowercase as it is
    /// interned, and any other text through `str::to_lowercase` and
    /// `word_spans`. No ASCII text is copied, and no occurrence: only a
    /// token seen for the first time is.
    pub fn new<S: AsRef<str>>(texts: &[S]) -> Self {
        Self::ranked(Scan::new(texts))
    }

    /// Renumber a scan's first-seen ids by rank in token order and sort
    /// each document's pairs by the new ids.
    fn ranked(scan: Scan) -> Self {
        let Scan {
            interner,
            mut terms,
            doc_ends,
        } = scan;
        let Interner { text, spans, .. } = interner;
        let token = |id: u32| {
            let (start, end) = spans[id as usize];
            &text.as_bytes()[start as usize..end as usize]
        };
        // By the first 8 bytes as a big-endian word, an integer compare
        // that orders as the bytes do (no token holds the NUL the
        // padding uses), then by the whole token.
        let mut order: Vec<(u64, u32)> = (0..spans.len() as u32)
            .map(|id| (prefix_word(token(id)), id))
            .collect();
        order.sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| token(a.1).cmp(token(b.1))));
        let mut rank = vec![0u32; order.len()];
        for (to, &(_, from)) in order.iter().enumerate() {
            rank[from as usize] = to as u32;
        }
        let tokens = order.iter().map(|&(_, id)| spans[id as usize]).collect();
        for (id, _) in &mut terms {
            *id = rank[*id as usize];
        }
        let mut start = 0;
        for &end in &doc_ends {
            terms[start..end as usize].sort_unstable_by_key(|&(id, _)| id);
            start = end as usize;
        }
        Self {
            text,
            tokens,
            terms,
            doc_ends,
        }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.doc_ends.len()
    }

    /// True when the corpus has no documents.
    pub fn is_empty(&self) -> bool {
        self.doc_ends.is_empty()
    }

    /// Document `doc`'s `(token id, count)` pairs, sorted by id.
    fn doc(&self, doc: usize) -> &[(u32, u32)] {
        let start = doc.checked_sub(1).map_or(0, |prev| self.doc_ends[prev]);
        &self.terms[start as usize..self.doc_ends[doc] as usize]
    }

    /// The token of id `id`.
    fn token(&self, id: u32) -> &str {
        let (start, end) = self.tokens[id as usize];
        &self.text[start as usize..end as usize]
    }

    /// Fit a vocabulary and idf weights on the documents `docs` (indices
    /// into the corpus), exactly as [`TfidfVectorizer::fit`] would on
    /// their texts: df is counted over the listed documents, and every
    /// token they use becomes a feature, in token order.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn fit(&self, docs: &[usize]) -> CorpusFit<'_> {
        let mut doc_freq = vec![0u32; self.tokens.len()];
        for &doc in docs {
            for &(id, _) in self.doc(doc) {
                doc_freq[id as usize] += 1;
            }
        }
        // Ids order as their tokens do, so id order is feature order.
        let kept: Vec<(u32, u32)> = doc_freq
            .iter()
            .enumerate()
            .filter(|&(_, &df)| df > 0)
            .map(|(id, &df)| (id as u32, df))
            .collect();
        let mut features = vec![DROPPED; self.tokens.len()];
        for (feature, &(id, _)) in kept.iter().enumerate() {
            features[id as usize] = feature as u32;
        }
        let idf = kept
            .iter()
            .map(|&(_, df)| smooth_idf(df, docs.len()))
            .collect();
        CorpusFit {
            corpus: self,
            kept,
            features,
            idf,
            n_docs: docs.len(),
        }
    }
}

/// The first 8 bytes of `token` as a big-endian word, zero-padded.
fn prefix_word(token: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    let n = token.len().min(8);
    word[..n].copy_from_slice(&token[..n]);
    u64::from_be_bytes(word)
}

/// Texts scanned into first-seen token ids, before ranking.
struct Scan {
    interner: Interner,
    /// Every document's `(first-seen id, count)` pairs, in the order the
    /// document first uses each token.
    terms: Vec<(u32, u32)>,
    /// Where each document's pairs end in `terms`.
    doc_ends: Vec<u32>,
}

impl Scan {
    fn new<S: AsRef<str>>(texts: &[S]) -> Self {
        let mut interner = Interner::default();
        let mut terms: Vec<(u32, u32)> = Vec::new();
        let mut doc_ends = Vec::with_capacity(texts.len());
        // Per first-seen id, its count in the current document: zero
        // between documents. The first `n_used` entries of `used` list
        // the document's ids in the order it first uses them; each
        // occurrence writes its id there and moves on only when the id
        // is new to the document, so counting takes no branch.
        let mut counts: Vec<u32> = Vec::new();
        let mut used: Vec<u32> = Vec::new();
        for text in texts {
            let text = text.as_ref();
            let lowered = (!text.is_ascii()).then(|| text.to_lowercase());
            // A token is two word chars or more, and tokens are apart,
            // so a text of `n` bytes holds at most `(n + 1) / 3` of them.
            let most = lowered.as_deref().unwrap_or(text).len() / 3 + 1;
            if used.len() < most {
                used.resize(most, 0);
            }
            let mut n_used = 0;
            let mut count = |id: u32| {
                if id as usize == counts.len() {
                    counts.push(0);
                }
                let n = &mut counts[id as usize];
                used[n_used] = id;
                n_used += usize::from(*n == 0);
                *n += 1;
            };
            match &lowered {
                None => ascii_word_spans(text.as_bytes(), |start, end| {
                    count(interner.intern(text, start, end));
                }),
                Some(text) => {
                    for (start, end) in word_spans(text) {
                        count(interner.intern(text, start, end));
                    }
                }
            }
            terms.extend(
                used[..n_used]
                    .iter()
                    .map(|&id| (id, std::mem::take(&mut counts[id as usize]))),
            );
            doc_ends.push(terms.len() as u32);
        }
        Self {
            interner,
            terms,
            doc_ends,
        }
    }
}

/// A token past this many slots from its home slot is interned in the
/// keyed map instead.
const PROBE_LIMIT: usize = 16;
/// The interning table's first size.
const FIRST_SLOTS: usize = 1024;

/// Distinct tokens by first-seen id: a growing open-addressing table on
/// [`crate::table::TokenTable`]'s slots, word loads, case fold and hash,
/// with each probe chain cut at [`PROBE_LIMIT`] slots. A new token that
/// finds no free slot within the cut goes into a SipHash map, so text
/// built to collide under the unkeyed hash walks at most that many slots
/// and then pays what a keyed map costs.
#[derive(Debug)]
struct Interner {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    /// Every distinct token, lowercased, in first-seen order.
    text: String,
    /// Each first-seen id's `(start, end)` in `text`.
    spans: Vec<(u32, u32)>,
    /// The tokens that found no free slot within the cut.
    overflow: HashMap<String, u32>,
    /// The token being looked up in `overflow`, lowercased.
    key: String,
}

impl Default for Interner {
    fn default() -> Self {
        Self {
            slots: vec![VACANT; FIRST_SLOTS],
            shift: 64 - FIRST_SLOTS.trailing_zeros(),
            text: String::new(),
            spans: Vec::new(),
            overflow: HashMap::new(),
            key: String::new(),
        }
    }
}

impl Interner {
    /// The id of `text[start..end]` lowercased as `str::to_ascii_lowercase`
    /// does, the next free one when the token is new. The head and tail
    /// words are loaded from `text` and folded as
    /// [`crate::table::TokenTable::get_folded`] folds them.
    fn intern(&mut self, text: &str, start: usize, end: usize) -> u32 {
        let bytes = text.as_bytes();
        let len = end - start;
        let (head, tail) = words(bytes, start, end);
        let (head, tail) = (fold(head), fold(tail));
        let vacant = match self.find(len, head, tail, |rest| {
            folded_eq(&bytes[start + 8..end], rest)
        }) {
            Ok(id) => return id,
            Err(vacant) => vacant,
        };
        if vacant.is_none() {
            self.key.clear();
            self.key.push_str(&text[start..end]);
            self.key.make_ascii_lowercase();
            if let Some(&id) = self.overflow.get(&self.key) {
                return id;
            }
        }
        let id = self.spans.len() as u32;
        let from = self.text.len();
        self.text.push_str(&text[start..end]);
        self.text[from..].make_ascii_lowercase();
        self.spans.push((from as u32, self.text.len() as u32));
        match vacant {
            Some(at) => self.place(at, head, len, id),
            None => {
                self.overflow.insert(self.key.clone(), id);
            }
        }
        // Sized for every token, the keyed map's too, so the doublings
        // place each token O(1) times on average however many overflow.
        if self.spans.len() * 2 > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Walk at most [`PROBE_LIMIT`] slots from the home of (`len`,
    /// `head`, `tail`): `Ok` with the id in the slot whose head word and
    /// length match and, for a token longer than 8 bytes, whose stored
    /// bytes past the eighth pass `rest_eq`; else `Err` with the first
    /// empty slot, `None` when the cut came first. Slots are never
    /// emptied between doublings, so a free slot within the cut proves
    /// the token is in neither the table nor the keyed map.
    fn find(
        &self,
        len: usize,
        head: u64,
        tail: u64,
        rest_eq: impl Fn(&[u8]) -> bool,
    ) -> Result<u32, Option<usize>> {
        let mask = self.slots.len() - 1;
        let home = (hash(len, head, tail) >> self.shift) as usize;
        for step in 0..PROBE_LIMIT {
            let at = (home + step) & mask;
            let slot = self.slots[at];
            if slot.idx == EMPTY {
                return Err(Some(at));
            }
            if slot.key == head
                && slot.len as usize == len
                && (len <= 8 || rest_eq(self.rest(slot.idx)))
            {
                return Ok(slot.idx);
            }
        }
        Err(None)
    }

    /// The stored bytes past the eighth of token `id`.
    fn rest(&self, id: u32) -> &[u8] {
        let (start, end) = self.spans[id as usize];
        &self.text.as_bytes()[start as usize + 8..end as usize]
    }

    /// Put token `id`, of head word `head` and length `len`, in slot `at`.
    fn place(&mut self, at: usize, head: u64, len: usize, id: u32) {
        self.slots[at] = Slot {
            key: head,
            len: len as u32,
            idx: id,
        };
    }

    /// Double the table and place every token again, in first-seen order
    /// (a corpus's common words tend to come early, so they keep the
    /// slots nearest their homes). The keyed map is rebuilt from the
    /// tokens that find no free slot within the cut, so a token from it
    /// that now fits leaves it and [`Interner::find`]'s proof holds.
    fn grow(&mut self) {
        self.slots = vec![VACANT; self.slots.len() * 2];
        self.shift -= 1;
        self.overflow.clear();
        for id in 0..self.spans.len() as u32 {
            let (start, end) = self.spans[id as usize];
            let (start, end) = (start as usize, end as usize);
            let (head, tail) = words(self.text.as_bytes(), start, end);
            // Tokens are distinct, so none matches another.
            match self.find(end - start, head, tail, |_| false) {
                Err(Some(at)) => self.place(at, head, end - start, id),
                _ => {
                    self.overflow.insert(self.text[start..end].to_owned(), id);
                }
            }
        }
    }
}

/// A vocabulary and idf weights fitted on some documents of a
/// [`TokenizedCorpus`], as token-id remaps.
#[derive(Debug, Clone)]
pub struct CorpusFit<'a> {
    corpus: &'a TokenizedCorpus,
    /// `(token id, df)` of every kept token, in feature order.
    kept: Vec<(u32, u32)>,
    /// The feature index of every token id, `DROPPED` when it has none.
    features: Vec<u32>,
    idf: Vec<f64>,
    n_docs: usize,
}

impl CorpusFit<'_> {
    /// Number of features.
    pub fn n_features(&self) -> usize {
        self.idf.len()
    }

    /// The TF-IDF vector of corpus document `doc`, bit-identical to
    /// `self.vectorizer().transform(text)` of its text. Any document of
    /// the corpus can be transformed, fitted on or not.
    ///
    /// # Panics
    /// Panics if `doc` is out of range.
    pub fn transform(&self, doc: usize) -> SparseVec {
        let terms = self.corpus.doc(doc);
        let mut indices = Vec::with_capacity(terms.len());
        let mut values = Vec::with_capacity(terms.len());
        for &(id, count) in terms {
            // Features follow id order, so the indices stay sorted.
            let feature = self.features[id as usize];
            if feature != DROPPED {
                indices.push(feature);
                // `tfidf::weigh`'s tf·idf. A count is at least 1 and a
                // smooth idf at least 1, so no value is zero to drop.
                values.push(f64::from(count) * self.idf[feature as usize]);
            }
        }
        let mut vec = SparseVec::from_parts(indices, values);
        vec.l2_normalize();
        vec
    }

    /// The fitted model: its vocabulary, with the frozen table every
    /// lookup reads, and its idf weights.
    pub(crate) fn model(&self) -> TfidfModel {
        let entries = self
            .kept
            .iter()
            .map(|&(id, df)| (self.corpus.token(id).to_owned(), df));
        TfidfModel::new(
            Vocabulary::from_entries(entries, self.n_docs),
            self.idf.clone(),
        )
    }

    /// The fitted vectorizer, for inference on new text.
    pub fn vectorizer(&self) -> TfidfVectorizer {
        TfidfVectorizer::fitted(self.model())
    }
}

#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;

#[cfg(test)]
mod tests {
    use super::oracle::{assert_same_model, same_bits, OracleFit};
    use super::*;

    #[test]
    fn documents_are_id_counts_with_ids_in_token_order() {
        let corpus = TokenizedCorpus::new(&["bb AA bb", "aa ÄÄ", "", "!! x"]);
        let tokens: Vec<&str> = (0..3).map(|id| corpus.token(id)).collect();
        assert_eq!(tokens, ["aa", "bb", "ää"]);
        assert_eq!(corpus.tokens.len(), 3);
        let docs: Vec<&[(u32, u32)]> = (0..4).map(|doc| corpus.doc(doc)).collect();
        assert_eq!(docs, [&[(0, 1), (1, 2)][..], &[(0, 1), (2, 1)], &[], &[]]);
        assert_eq!(corpus.len(), 4);
    }

    #[test]
    fn tokens_unseen_by_the_fit_are_dropped() {
        let texts = ["alpha beta", "beta gamma", "gamma delta"];
        let corpus = TokenizedCorpus::new(&texts);
        let fold = corpus.fit(&[0, 1]);
        assert_eq!(fold.n_features(), 3);
        let vectorizer = fold.vectorizer();
        let vocab = vectorizer.model().expect("fitted").vocabulary();
        assert_eq!(vocab.tokens_in_order(), ["alpha", "beta", "gamma"]);
        assert_eq!(vocab.n_docs(), 2);
        let df: Vec<u32> = (0..3).map(|idx| vocab.doc_freq(idx)).collect();
        assert_eq!(df, [1, 2, 1], "documents, not occurrences");
        assert_eq!(fold.transform(2), vectorizer.transform(texts[2]));
        assert_eq!(fold.transform(2).nnz(), 1);
        assert!(corpus
            .fit(&[])
            .vectorizer()
            .model()
            .expect("fitted")
            .vocabulary()
            .is_empty());
    }

    /// Over 4,096 distinct ASCII tokens found by searching the table's
    /// hash for one home slot, in mixed case among ordinary words: the
    /// table takes at most [`PROBE_LIMIT`] of them, the keyed map takes
    /// the rest, and the fit is still the reference fit.
    #[test]
    fn tokens_built_to_collide_overflow_into_the_keyed_map() {
        const COLLIDERS: usize = 4_096 + 64;
        // The table holds at most twice the distinct tokens: about 4.2k
        // here, so 2^14 slots. Sharing the top 14 bits of the hash, the
        // colliders share a home slot at that size and every smaller one.
        const BITS: u32 = 14;
        let mut word = *b"aaaaaaaa";
        let home = |word: &[u8; 8]| hash(8, u64::from_le_bytes(*word), 0) >> (64 - BITS);
        let target = home(&word);
        let mut colliders = Vec::with_capacity(COLLIDERS);
        while colliders.len() < COLLIDERS {
            if home(&word) == target {
                colliders.push(String::from_utf8(word.to_vec()).expect("ASCII"));
            }
            // The next word in an odometer over `a`..=`z`.
            for byte in &mut word {
                if *byte == b'z' {
                    *byte = b'a';
                } else {
                    *byte += 1;
                    break;
                }
            }
        }
        let ordinary = "Name: John Doe, ADDRESS 12 Maple St; phone 555-0188 dox x I";
        let texts: Vec<String> = colliders
            .chunks(64)
            .enumerate()
            .map(|(doc, chunk)| {
                let mut text = format!("{ordinary} doc{doc}\n");
                for (i, token) in chunk.iter().enumerate() {
                    let token = if i % 3 == 0 {
                        token.to_ascii_uppercase()
                    } else {
                        token.clone()
                    };
                    text.push_str(&token);
                    text.push(if i % 5 == 0 { '-' } else { ' ' });
                }
                // Repeats, and a token of the previous document.
                text.push_str(&chunk[0].to_ascii_uppercase());
                text.push(' ');
                text.push_str(&colliders[doc.saturating_sub(1) * 64]);
                text
            })
            .collect();

        let scan = Scan::new(&texts);
        let interner = &scan.interner;
        assert!(
            interner.slots.len() <= 1 << BITS,
            "{} slots",
            interner.slots.len()
        );
        let home_slot = |token: &str| {
            let (head, tail) = words(token.as_bytes(), 0, token.len());
            hash(token.len(), head, tail) >> interner.shift
        };
        assert!(colliders
            .iter()
            .all(|t| home_slot(t) == home_slot(&colliders[0])));
        assert!(
            interner.overflow.len() >= COLLIDERS - PROBE_LIMIT,
            "{} tokens in the keyed map",
            interner.overflow.len()
        );
        let mut sorted = colliders.clone();
        sorted.sort_unstable();
        let collided = |t: &String| sorted.binary_search(t).is_ok();
        assert!(interner.overflow.keys().all(collided));

        let corpus = TokenizedCorpus::ranked(scan);
        let all: Vec<usize> = (0..texts.len()).collect();
        let fit = corpus.fit(&all);
        let oracle = OracleFit::new(&texts);
        assert_same_model(&fit.model(), &oracle);
        for (doc, text) in texts.iter().enumerate() {
            assert!(
                same_bits(&fit.transform(doc), &oracle.transform(text)),
                "doc {doc}"
            );
        }
    }
}
