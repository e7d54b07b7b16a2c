//! A frozen token → feature-index table for inference.
//!
//! [`Vocabulary`] keeps its `HashMap<String, u32>` for serialization and
//! for the materialised [`crate::TfidfVectorizer::transform`] path; that
//! map hashes every probe with keyed SipHash. The fused scorer instead
//! looks each borrowed word up in a [`TokenTable`]: open addressing with
//! linear probing over a power-of-two slot array, a multiply-xorshift
//! hash, and every token's bytes packed into one buffer.
//!
//! The table is built once from a fitted vocabulary and never inserted
//! into afterwards. A non-keyed hash is therefore safe here: the probe
//! chains are fixed by the training vocabulary, the load factor is at
//! most ½, and a lookup of attacker-chosen text can only walk a chain
//! that already exists — it cannot grow one.

use crate::vocab::Vocabulary;

/// Marks an empty slot.
const EMPTY: u32 = u32::MAX;
/// `2^64 / φ`, the Fibonacci-hashing multiplier.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// One slot: a feature index, where its token's bytes lie, and 32 hash
/// bits that reject most mismatches before the bytes are compared.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    idx: u32,
    start: u32,
    end: u32,
}

const VACANT: Slot = Slot {
    tag: 0,
    idx: EMPTY,
    start: 0,
    end: 0,
};

/// A frozen, lookup-only map from token to feature index.
#[derive(Debug, Clone, Default)]
pub(crate) struct TokenTable {
    /// Every token's bytes, concatenated in feature-index order.
    bytes: String,
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
}

impl TokenTable {
    /// Freeze `vocab` into a lookup table.
    pub(crate) fn new(vocab: &Vocabulary) -> Self {
        let tokens = vocab.tokens_in_order();
        let n_slots = (tokens.len() * 2).next_power_of_two().max(2);
        let mut table = Self {
            bytes: String::with_capacity(tokens.iter().map(|t| t.len()).sum()),
            slots: vec![VACANT; n_slots],
            shift: 64 - n_slots.trailing_zeros(),
        };
        let mask = n_slots - 1;
        for (idx, token) in tokens.iter().enumerate() {
            let start = table.bytes.len() as u32;
            table.bytes.push_str(token);
            let h = hash(token.as_bytes());
            let mut at = (h >> table.shift) as usize;
            while table.slots[at].idx != EMPTY {
                at = (at + 1) & mask;
            }
            table.slots[at] = Slot {
                tag: h as u32,
                idx: idx as u32,
                start,
                end: table.bytes.len() as u32,
            };
        }
        table
    }

    /// The feature index of `token`, if it is in the vocabulary.
    #[inline]
    pub(crate) fn get(&self, token: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let h = hash(token.as_bytes());
        let mask = self.slots.len() - 1;
        let mut at = (h >> self.shift) as usize;
        // At most half the slots are full, so every chain ends in an
        // empty slot.
        loop {
            let slot = self.slots[at];
            if slot.idx == EMPTY {
                return None;
            }
            if slot.tag == h as u32
                && self.bytes.as_bytes()[slot.start as usize..slot.end as usize]
                    == *token.as_bytes()
            {
                return Some(slot.idx);
            }
            at = (at + 1) & mask;
        }
    }
}

/// `bytes[at..at + N]` as a little-endian integer.
#[inline]
fn read<const N: usize>(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word[..N].copy_from_slice(&bytes[at..at + N]);
    u64::from_le_bytes(word)
}

#[inline]
fn mix(h: u64, word: u64) -> u64 {
    (h.rotate_left(26) ^ word).wrapping_mul(MIX)
}

/// A fast non-keyed hash. Short tokens are read as at most two
/// overlapping loads (every byte is covered, so for a fixed length the
/// input word is injective); a final xorshift-multiply makes both the top
/// bits (slot) and the low bits (tag) depend on every input byte.
#[inline]
fn hash(bytes: &[u8]) -> u64 {
    let n = bytes.len();
    let mut h = (n as u64).wrapping_mul(MIX);
    if n > 8 {
        let mut at = 0;
        while at + 8 < n {
            h = mix(h, read::<8>(bytes, at));
            at += 8;
        }
        h = mix(h, read::<8>(bytes, n - 8));
    } else if n >= 4 {
        h = mix(h, read::<4>(bytes, 0) << 32 | read::<4>(bytes, n - 4));
    } else if n > 0 {
        let (a, b, c) = (bytes[0], bytes[n / 2], bytes[n - 1]);
        h = mix(h, u64::from(a) << 16 | u64::from(b) << 8 | u64::from(c));
    }
    h ^= h >> 32;
    h.wrapping_mul(MIX) ^ (h >> 29)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vocab::VocabConfig;

    fn vocab(tokens: &[&str]) -> Vocabulary {
        Vocabulary::fit(&[tokens.to_vec()], &VocabConfig::default())
    }

    #[test]
    fn agrees_with_the_vocabulary_on_hits_and_misses() {
        let words: Vec<String> = (0..2_000).map(|i| format!("tok{i}_{}", i * 7919)).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let v = vocab(&refs);
        let table = TokenTable::new(&v);
        for w in &refs {
            assert_eq!(table.get(w), v.get(w), "{w}");
        }
        for miss in ["", "tok", "tok1_", "tok0_0x", "zzzzzzzzzzzzzzzzzz", "é"] {
            assert_eq!(table.get(miss), None, "{miss}");
        }
    }

    #[test]
    fn long_and_non_ascii_tokens_round_trip() {
        let long = "a".repeat(300);
        let v = vocab(&["i̇stanbul", "σοφία", "ab", "abcdefgh", "abcdefghi", &long]);
        let table = TokenTable::new(&v);
        for t in v.tokens_in_order() {
            assert_eq!(table.get(t), v.get(t));
        }
        assert_eq!(table.get("abcdefg"), None);
        assert_eq!(table.get(&long[1..]), None);
    }

    #[test]
    fn empty_tables_find_nothing() {
        assert_eq!(TokenTable::default().get("dox"), None);
        assert_eq!(TokenTable::new(&vocab(&[])).get("dox"), None);
    }
}
