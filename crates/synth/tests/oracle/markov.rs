//! `dox_synth::markov::MarkovChain` as it was before its per-word
//! overhead was trimmed (training and generation), copied here so the
//! generator's differential test does not depend on the code it checks.

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Successor marker for a bigram that never starts a training trigram.
const DEAD_END: u32 = u32::MAX;

/// An order-2 word Markov chain over interned words.
///
/// Every observed bigram is a state holding its two word ids and a slice
/// of `successors`: `(next word id, next state or DEAD_END)` in training
/// order, duplicates kept, so a uniform draw over the slice is the
/// frequency-weighted draw of the string-keyed chain it replaces.
#[derive(Debug, Clone)]
pub struct MarkovChain {
    /// Distinct words, indexed by word id.
    words: Vec<Box<str>>,
    /// Per state: its two word ids and its range in `successors`.
    states: Vec<([u32; 2], std::ops::Range<usize>)>,
    /// Every state's successor list, concatenated.
    successors: Vec<(u32, u32)>,
    /// One state id per training trigram, for choosing start states.
    starts: Vec<u32>,
    /// Bytes to reserve per generated word: mean training word length,
    /// rounded up, plus the separating space.
    bytes_per_word: usize,
}

impl MarkovChain {
    /// Train on whitespace-tokenized `text`.
    ///
    /// # Panics
    /// Panics if `text` has fewer than three words.
    pub fn train(text: &str) -> Self {
        let tokens: Vec<&str> = text.split_whitespace().collect();
        assert!(tokens.len() >= 3, "need at least three words to train");
        let mut word_ids: HashMap<&str, u32> = HashMap::new();
        let mut words = Vec::new();
        let ids: Vec<u32> = tokens
            .iter()
            .map(|&w| {
                *word_ids.entry(w).or_insert_with(|| {
                    words.push(Box::from(w));
                    (words.len() - 1) as u32
                })
            })
            .collect();

        // States in first-seen order, each with its successor words in
        // training order; `starts` keeps one entry per trigram.
        let mut state_ids: HashMap<[u32; 2], u32> = HashMap::new();
        let mut keys: Vec<[u32; 2]> = Vec::new();
        let mut nexts: Vec<Vec<u32>> = Vec::new();
        let mut starts = Vec::with_capacity(ids.len() - 2);
        for w in ids.windows(3) {
            let key = [w[0], w[1]];
            let id = *state_ids.entry(key).or_insert_with(|| {
                keys.push(key);
                nexts.push(Vec::new());
                (keys.len() - 1) as u32
            });
            starts.push(id);
            nexts[id as usize].push(w[2]);
        }

        let mut states = Vec::with_capacity(keys.len());
        let mut successors = Vec::with_capacity(starts.len());
        for (key, next_words) in keys.iter().zip(&nexts) {
            let begin = successors.len();
            successors.extend(next_words.iter().map(|&next| {
                let to = state_ids.get(&[key[1], next]).copied();
                (next, to.unwrap_or(DEAD_END))
            }));
            states.push((*key, begin..successors.len()));
        }
        let word_bytes: usize = tokens.iter().map(|w| w.len()).sum();
        Self {
            words,
            states,
            successors,
            starts,
            bytes_per_word: word_bytes.div_ceil(tokens.len()) + 1,
        }
    }

    /// A chain trained on the built-in prose seed.
    pub fn prose() -> Self {
        Self::train(dox_synth::names::PROSE_SEED)
    }

    /// Generate `n_words` of text.
    ///
    /// Draws one start state, then one successor per further word; a
    /// transition into a bigram that starts no trigram (a dead end)
    /// redraws a start state without emitting a word.
    pub fn generate(&self, n_words: usize, rng: &mut ChaCha8Rng) -> String {
        if n_words == 0 {
            return String::new();
        }
        let mut state = self.random_start(rng);
        let [first, second] = self.states[state as usize].0;
        let mut out = String::with_capacity(n_words * self.bytes_per_word);
        out.push_str(&self.words[first as usize]);
        if n_words == 1 {
            return out;
        }
        out.push(' ');
        out.push_str(&self.words[second as usize]);
        let mut emitted = 2;
        while emitted < n_words {
            if state == DEAD_END {
                state = self.random_start(rng);
                continue;
            }
            let nexts = &self.successors[self.states[state as usize].1.clone()];
            let (word, to) = nexts[rng.random_range(0..nexts.len())];
            out.push(' ');
            out.push_str(&self.words[word as usize]);
            emitted += 1;
            state = to;
        }
        out
    }

    fn random_start(&self, rng: &mut ChaCha8Rng) -> u32 {
        self.starts[rng.random_range(0..self.starts.len())]
    }
}
