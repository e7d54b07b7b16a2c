//! Order-2 word Markov chain text generator.
//!
//! Used for prose-like filler in non-dox pastes (essays, forum rants,
//! README bodies). The chain is trained on the synthetic [`crate::names::PROSE_SEED`]
//! vocabulary, so output is plain, license-free English-looking text.

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
    /// Distinct words, indexed by word id, each after one space (`" word"`):
    /// every word but the first is appended with a single push.
    spaced_words: Vec<Box<str>>,
    /// Per state: its two word ids and its range in `successors`.
    states: Vec<([u32; 2], std::ops::Range<usize>)>,
    /// Every state's successor list, concatenated.
    successors: Vec<(u32, u32)>,
    /// One state id per training trigram, for choosing start states.
    starts: Vec<u32>,
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
        let mut spaced_words = Vec::new();
        let ids: Vec<u32> = tokens
            .iter()
            .map(|&w| {
                *word_ids.entry(w).or_insert_with(|| {
                    spaced_words.push(Box::from(format!(" {w}")));
                    (spaced_words.len() - 1) as u32
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
        Self {
            spaced_words,
            states,
            successors,
            starts,
        }
    }

    /// A chain trained on the built-in prose seed.
    pub fn prose() -> Self {
        Self::train(crate::names::PROSE_SEED)
    }

    /// Generate `n_words` of text.
    ///
    /// Draws one start state, then one successor per further word; a
    /// transition into a bigram that starts no trigram (a dead end)
    /// redraws a start state without emitting a word. The walk comes
    /// first, as word ids, so the text is sized exactly before it is
    /// written.
    pub fn generate(&self, n_words: usize, rng: &mut ChaCha8Rng) -> String {
        if n_words == 0 {
            return String::new();
        }
        let mut state = self.random_start(rng);
        let mut walk = Vec::with_capacity(n_words);
        walk.extend_from_slice(&self.states[state as usize].0[..n_words.min(2)]);
        while walk.len() < n_words {
            if state == DEAD_END {
                state = self.random_start(rng);
                continue;
            }
            let nexts = &self.successors[self.states[state as usize].1.clone()];
            let (word, to) = nexts[rng.random_range(0..nexts.len())];
            walk.push(word);
            state = to;
        }
        let spaced = |id: u32| &*self.spaced_words[id as usize];
        // One space before every word but the first.
        let len = walk.iter().map(|&id| spaced(id).len()).sum::<usize>() - 1;
        let mut out = String::with_capacity(len);
        out.push_str(&spaced(walk[0])[1..]);
        for &id in &walk[1..] {
            out.push_str(spaced(id));
        }
        out
    }

    fn random_start(&self, rng: &mut ChaCha8Rng) -> u32 {
        self.starts[rng.random_range(0..self.starts.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::{RngCore, SeedableRng};

    /// The string-keyed chain the interned one replaced, kept as the
    /// differential oracle: same training, same draws, same text.
    struct OracleChain {
        table: HashMap<(String, String), Vec<String>>,
        starts: Vec<(String, String)>,
    }

    impl OracleChain {
        fn train(text: &str) -> Self {
            let words: Vec<&str> = text.split_whitespace().collect();
            let mut table: HashMap<(String, String), Vec<String>> = HashMap::new();
            let mut starts = Vec::new();
            for w in words.windows(3) {
                let key = (w[0].to_string(), w[1].to_string());
                starts.push(key.clone());
                table.entry(key).or_default().push(w[2].to_string());
            }
            Self { table, starts }
        }

        fn generate(&self, n_words: usize, rng: &mut ChaCha8Rng) -> String {
            if n_words == 0 {
                return String::new();
            }
            let mut state = self.starts[rng.random_range(0..self.starts.len())].clone();
            let mut out = vec![state.0.clone(), state.1.clone()];
            while out.len() < n_words {
                match self.table.get(&state) {
                    Some(nexts) => {
                        let next = nexts[rng.random_range(0..nexts.len())].clone();
                        out.push(next.clone());
                        state = (state.1, next);
                    }
                    None => {
                        state = self.starts[rng.random_range(0..self.starts.len())].clone();
                    }
                }
            }
            out.truncate(n_words);
            out.join(" ")
        }
    }

    /// Same text and same RNG position afterwards as the oracle.
    fn assert_matches_oracle(corpus: &str, cases: impl Iterator<Item = (u64, usize)>) -> usize {
        let (chain, oracle) = (MarkovChain::train(corpus), OracleChain::train(corpus));
        let mut checked = 0;
        for (seed, n_words) in cases {
            let mut a = ChaCha8Rng::seed_from_u64(seed);
            let mut b = ChaCha8Rng::seed_from_u64(seed);
            assert_eq!(
                chain.generate(n_words, &mut a),
                oracle.generate(n_words, &mut b),
                "seed {seed}, {n_words} words"
            );
            assert_eq!(a.next_u64(), b.next_u64(), "seed {seed}, {n_words} words");
            checked += 1;
        }
        checked
    }

    #[test]
    fn interned_chain_matches_string_keyed_oracle() {
        let small = (0..4u64).flat_map(|seed| (0..=3).map(move |n| (seed, n)));
        let seeded = (0..240u64).map(|seed| (seed * 7919 + 1, (seed as usize * 37) % 300));
        let checked = assert_matches_oracle(crate::names::PROSE_SEED, small.chain(seeded));
        assert!(checked >= 200);
    }

    #[test]
    fn dead_end_chain_matches_oracle() {
        let cases = (0..50u64).map(|seed| (seed, seed as usize % 12));
        assert_matches_oracle("a b c", cases);
        // Repeated bigrams and a dead end mid-corpus.
        assert_matches_oracle("x y x y z x y q r", (0..50u64).map(|s| (s, 20)));
    }

    #[test]
    fn generates_requested_length() {
        let chain = MarkovChain::prose();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let text = chain.generate(50, &mut rng);
        assert_eq!(text.split_whitespace().count(), 50);
    }

    #[test]
    fn zero_words_is_empty() {
        let chain = MarkovChain::prose();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(chain.generate(0, &mut rng), "");
    }

    #[test]
    fn deterministic_given_seed() {
        let chain = MarkovChain::prose();
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        assert_eq!(chain.generate(30, &mut a), chain.generate(30, &mut b));
    }

    #[test]
    fn output_vocabulary_comes_from_seed() {
        let chain = MarkovChain::prose();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let vocab: std::collections::HashSet<&str> =
            crate::names::PROSE_SEED.split_whitespace().collect();
        for w in chain.generate(200, &mut rng).split_whitespace() {
            assert!(vocab.contains(w), "unexpected word {w}");
        }
    }

    #[test]
    fn dead_end_restarts() {
        // A tiny corpus whose final bigram has no successor forces the
        // dead-end path.
        let chain = MarkovChain::train("a b c");
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let text = chain.generate(10, &mut rng);
        assert_eq!(text.split_whitespace().count(), 10);
    }

    #[test]
    #[should_panic(expected = "three words")]
    fn too_small_corpus_panics() {
        MarkovChain::train("one two");
    }
}
