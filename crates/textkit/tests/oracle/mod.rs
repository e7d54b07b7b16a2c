//! The reference TF-IDF fit the fit-path tests compare against, bit for
//! bit: every text through `Tokenizer::tokenize` into owned tokens, the
//! vocabulary from `VocabBuilder::add_document`, idf from its document
//! frequencies, and each vector from the text tokenized again, looked up
//! token by token and summed one count at a time.

use dox_textkit::sparse::SparseVec;
use dox_textkit::tfidf::{TfidfConfig, TfidfModel};
use dox_textkit::tokenize::Tokenizer;
use dox_textkit::vocab::{VocabBuilder, Vocabulary};

/// A vocabulary and idf weights fitted the reference way.
pub struct OracleFit {
    pub vocab: Vocabulary,
    pub idf: Vec<f64>,
    config: TfidfConfig,
    tokenizer: Tokenizer,
}

impl OracleFit {
    pub fn new<S: AsRef<str>>(texts: &[S], config: &TfidfConfig) -> Self {
        let tokenizer = Tokenizer::new(config.tokenizer.clone());
        let mut builder = VocabBuilder::new();
        for text in texts {
            builder.add_document(&tokenizer.tokenize(text.as_ref()));
        }
        let vocab = builder.build(&config.vocab);
        let n = vocab.n_docs() as f64;
        let idf = (0..vocab.len() as u32)
            .map(|idx| {
                let df = vocab.doc_freq(idx) as f64;
                match (config.use_idf, config.smooth_idf) {
                    (false, _) => 1.0,
                    (true, true) => ((1.0 + n) / (1.0 + df)).ln() + 1.0,
                    (true, false) => (n / df).ln() + 1.0,
                }
            })
            .collect();
        Self {
            vocab,
            idf,
            config: config.clone(),
            tokenizer,
        }
    }

    pub fn transform(&self, text: &str) -> SparseVec {
        let pairs = self
            .tokenizer
            .tokenize(text)
            .iter()
            .filter_map(|token| Some((self.vocab.get(token)?, 1.0)))
            .collect();
        let mut vec = SparseVec::from_pairs(pairs).map_values(|idx, tf| {
            let tf = if self.config.sublinear_tf {
                1.0 + tf.ln()
            } else {
                tf
            };
            tf * self.idf[idx as usize]
        });
        if self.config.l2_normalize {
            vec.l2_normalize();
        }
        vec
    }
}

/// Equal indices and equal value bits.
pub fn same_bits(a: &SparseVec, b: &SparseVec) -> bool {
    a.indices() == b.indices()
        && a.values().len() == b.values().len()
        && a.values()
            .iter()
            .zip(b.values())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `model` has the oracle's vocabulary (tokens in feature order, document
/// frequencies, document count) and its idf weights by bits.
pub fn assert_same_model(model: &TfidfModel, oracle: &OracleFit) {
    let vocab = model.vocabulary();
    assert_eq!(vocab.tokens_in_order(), oracle.vocab.tokens_in_order());
    assert_eq!(vocab.n_docs(), oracle.vocab.n_docs());
    assert_eq!(model.n_features(), oracle.idf.len());
    for idx in 0..oracle.idf.len() as u32 {
        assert_eq!(vocab.doc_freq(idx), oracle.vocab.doc_freq(idx));
        assert_eq!(model.idf(idx).to_bits(), oracle.idf[idx as usize].to_bits());
    }
}
