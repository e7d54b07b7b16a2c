//! The frozen token → feature-index table.
//!
//! Every lookup in a fitted vocabulary goes through a [`TokenTable`]:
//! [`crate::vocab::Vocabulary::get`] (which the materialised
//! [`crate::TfidfVectorizer::transform`] calls) and the fused scorer's
//! case-folding [`TokenTable::get_folded`]. It is open addressing with
//! linear probing over a power-of-two slot array.
//!
//! **Slot layout.** A slot is 16 bytes: the token's first 8 bytes as a
//! little-endian word (zero-padded past the token's end), its length and
//! its feature index. The head word and the length decide every lookup
//! of a token of at most 8 bytes with two integer compares; a longer
//! token then compares its bytes past the eighth against the stored
//! ones, eight at a time ([`folded_eq`]), kept in one packed buffer in
//! feature-index order. Slots are filled in descending training document
//! frequency, so the most common words sit in their home slot and a
//! typical hit probes one slot.
//!
//! **Hash.** One xorshift-multiply over (length, head word, tail word),
//! where the tail word is the token's last 8 bytes (0 for tokens of at
//! most 8 bytes); its top bits pick the home slot. Both words are whole
//! loads, so the scorer's ASCII pass reads them straight from the
//! document and folds them to lowercase eight bytes at a time
//! ([`TokenTable::get_folded`]): no lowercase copy, no per-byte hashing.
//!
//! **Why an unkeyed hash is safe.** The table is built once from a fitted
//! vocabulary and never inserted into afterwards. The probe chains are
//! fixed by the training vocabulary, the load factor is at most ½, and a
//! lookup of attacker-chosen text can only walk a chain that already
//! exists, ending at its first empty slot — it cannot grow one.

/// Marks an empty slot.
pub(crate) const EMPTY: u32 = u32::MAX;
/// `2^64 / φ`, the Fibonacci-hashing multiplier.
const MIX: u64 = 0x9e37_79b9_7f4a_7c15;
/// Every byte of a word set to `b`.
const fn splat(b: u8) -> u64 {
    u64::from_le_bytes([b; 8])
}

/// One slot: the token's head word and length, and its feature index
/// (the training corpus's interner keeps a token id there instead).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) key: u64,
    pub(crate) len: u32,
    pub(crate) idx: u32,
}

pub(crate) const VACANT: Slot = Slot {
    key: 0,
    len: 0,
    idx: EMPTY,
};

/// A frozen, lookup-only map from token to feature index.
#[derive(Debug, Clone, Default)]
pub(crate) struct TokenTable {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    /// The bytes past the eighth of every longer token, concatenated in
    /// feature-index order.
    rests: Vec<u8>,
    /// Where feature `idx`'s bytes past the eighth start in `rests`.
    rest_at: Vec<u32>,
}

impl TokenTable {
    /// Freeze `tokens`, in feature-index order, into a lookup table;
    /// `doc_freq` is their training document frequency, parallel to them.
    pub(crate) fn new(tokens: &[String], doc_freq: &[u32]) -> Self {
        let n_slots = (tokens.len() * 2).next_power_of_two().max(2);
        let mut table = Self {
            slots: vec![VACANT; n_slots],
            shift: 64 - n_slots.trailing_zeros(),
            rests: Vec::new(),
            rest_at: Vec::with_capacity(tokens.len()),
        };
        let mask = n_slots - 1;
        for token in tokens {
            table.rest_at.push(table.rests.len() as u32);
            table
                .rests
                .extend_from_slice(token.as_bytes().get(8..).unwrap_or_default());
        }
        // The most frequent training tokens claim their home slots first,
        // so a typical hit is found at the first slot it probes.
        let mut by_df: Vec<u32> = (0..tokens.len() as u32).collect();
        by_df.sort_by_key(|&idx| std::cmp::Reverse(doc_freq[idx as usize]));
        for idx in by_df {
            let token = tokens[idx as usize].as_bytes();
            let (head, tail) = words(token, 0, token.len());
            let mut at = table.home(token.len(), head, tail);
            while table.slots[at].idx != EMPTY {
                at = (at + 1) & mask;
            }
            table.slots[at] = Slot {
                key: head,
                len: token.len() as u32,
                idx,
            };
        }
        table
    }

    /// The feature index of `token`, if it is in the vocabulary.
    #[inline]
    pub(crate) fn get(&self, token: &str) -> Option<u32> {
        let token = token.as_bytes();
        let (head, tail) = words(token, 0, token.len());
        self.find(token.len(), head, tail, |rest| token[8..] == *rest)
    }

    /// The feature index of `text[start..end]` lowercased as
    /// `str::to_ascii_lowercase` does: `get(&text[start..end].to_ascii_lowercase())`
    /// without the copy. The head and tail words are loaded from `text`
    /// and folded eight bytes at a time; a token longer than 8 bytes
    /// folds its bytes past the eighth one by one against the stored ones.
    #[inline]
    pub(crate) fn get_folded(&self, text: &[u8], start: usize, end: usize) -> Option<u32> {
        let (head, tail) = words(text, start, end);
        let (head, tail) = (fold(head), fold(tail));
        self.find(end - start, head, tail, |rest| {
            folded_eq(&text[start + 8..end], rest)
        })
    }

    /// Walk the chain of (`len`, `head`, `tail`) to the slot whose key
    /// and length match and, for a token longer than 8 bytes, whose
    /// bytes past the eighth (as long as the probe's) pass `rest_eq`.
    #[inline]
    fn find(
        &self,
        len: usize,
        head: u64,
        tail: u64,
        rest_eq: impl Fn(&[u8]) -> bool,
    ) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = self.home(len, head, tail);
        // At most half the slots are full, so every chain ends in an
        // empty slot.
        loop {
            let slot = self.slots[at];
            if slot.idx == EMPTY {
                return None;
            }
            if slot.key == head
                && slot.len as usize == len
                && (len <= 8 || rest_eq(self.rest(slot)))
            {
                return Some(slot.idx);
            }
            at = (at + 1) & mask;
        }
    }

    /// The bytes past the eighth of a slot's token.
    fn rest(&self, slot: Slot) -> &[u8] {
        let start = self.rest_at[slot.idx as usize] as usize;
        &self.rests[start..start + slot.len as usize - 8]
    }

    #[inline]
    fn home(&self, len: usize, head: u64, tail: u64) -> usize {
        (hash(len, head, tail) >> self.shift) as usize
    }
}

/// The head and tail words of `bytes[start..end]`: its first 8 bytes
/// zero-padded, and its last 8 bytes when it is longer than 8 (else 0).
#[inline]
pub(crate) fn words(bytes: &[u8], start: usize, end: usize) -> (u64, u64) {
    let len = end - start;
    let mut head = match bytes[start..].first_chunk::<8>() {
        Some(word) => u64::from_le_bytes(*word),
        None => {
            // Fewer than 8 bytes are left, so the token is shorter.
            let mut word = [0u8; 8];
            word[..len].copy_from_slice(&bytes[start..end]);
            u64::from_le_bytes(word)
        }
    };
    if len < 8 {
        head &= (1 << (8 * len)) - 1;
    }
    let tail = match bytes[..end].last_chunk::<8>() {
        Some(word) if len > 8 => u64::from_le_bytes(*word),
        _ => 0,
    };
    (head, tail)
}

/// `u8::to_ascii_lowercase` on each byte of `word`: an `A`..=`Z` byte
/// gains `0x20`, every other byte (non-ASCII ones too) is kept.
#[inline]
pub(crate) fn fold(word: u64) -> u64 {
    let low7 = word & splat(0x7f);
    // Top bit of each byte: set where its low seven bits are >= b'A'
    // and clear where they are > b'Z'; no carry crosses a byte.
    let ge_a = low7 + splat(0x80 - b'A');
    let gt_z = low7 + splat(0x80 - b'Z' - 1);
    let upper = ge_a & !gt_z & !word & splat(0x80);
    word | upper >> 2
}

/// Whether `probe` lowercased as `u8::to_ascii_lowercase` does equals
/// `stored`, a slice as long: eight bytes at a time through [`fold`],
/// then byte by byte.
#[inline]
pub(crate) fn folded_eq(probe: &[u8], stored: &[u8]) -> bool {
    let word = |chunk: &[u8]| {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        u64::from_le_bytes(word)
    };
    let (probe_words, stored_words) = (probe.chunks_exact(8), stored.chunks_exact(8));
    let (probe_rest, stored_rest) = (probe_words.remainder(), stored_words.remainder());
    probe_words
        .zip(stored_words)
        .all(|(a, b)| fold(word(a)) == word(b))
        && probe_rest
            .iter()
            .zip(stored_rest)
            .all(|(a, b)| a.to_ascii_lowercase() == *b)
}

/// One xorshift-multiply over a token's length, head and tail words.
#[inline]
pub(crate) fn hash(len: usize, head: u64, tail: u64) -> u64 {
    let x = head.wrapping_add(tail.rotate_left(29)) ^ len as u64;
    (x ^ x >> 32).wrapping_mul(MIX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A table over `tokens`, sorted and deduplicated as a vocabulary's
    /// are, and the map from each token to its feature index.
    fn table(tokens: &[&str]) -> (TokenTable, HashMap<String, u32>) {
        let mut tokens: Vec<String> = tokens.iter().map(|t| t.to_string()).collect();
        tokens.sort_unstable();
        tokens.dedup();
        let doc_freq: Vec<u32> = (0..tokens.len() as u32).map(|i| i % 7 + 1).collect();
        let map = tokens
            .iter()
            .zip(0..)
            .map(|(t, i)| (t.clone(), i))
            .collect();
        (TokenTable::new(&tokens, &doc_freq), map)
    }

    #[test]
    fn agrees_with_a_map_on_hits_and_misses() {
        let words: Vec<String> = (0..2_000).map(|i| format!("tok{i}_{}", i * 7919)).collect();
        let refs: Vec<&str> = words.iter().map(String::as_str).collect();
        let (table, map) = table(&refs);
        for w in &refs {
            assert_eq!(table.get(w), map.get(*w).copied(), "{w}");
        }
        for miss in ["", "tok", "tok1_", "tok0_0x", "zzzzzzzzzzzzzzzzzz", "é"] {
            assert_eq!(table.get(miss), None, "{miss}");
        }
    }

    #[test]
    fn long_and_non_ascii_tokens_round_trip() {
        let long = "a".repeat(300);
        let (table, map) = table(&["i̇stanbul", "σοφία", "ab", "abcdefgh", "abcdefghi", &long]);
        for (t, &idx) in &map {
            assert_eq!(table.get(t), Some(idx));
        }
        assert_eq!(table.get("abcdefg"), None);
        assert_eq!(table.get(&long[1..]), None);
    }

    #[test]
    fn empty_tables_find_nothing() {
        assert_eq!(TokenTable::default().get("dox"), None);
        assert_eq!(table(&[]).0.get("dox"), None);
        assert_eq!(TokenTable::default().get_folded(b"dox", 0, 3), None);
    }

    #[test]
    fn fold_is_ascii_lowercase_on_every_byte() {
        for b in 0..=255u8 {
            for lane in 0..8 {
                let mut word = [b'Q', b'@', b'[', 0x80 | b'A', b'z', b'_', 0xff, b'0'];
                word[lane] = b;
                let want = word.map(|c| c.to_ascii_lowercase());
                assert_eq!(fold(u64::from_le_bytes(word)), u64::from_le_bytes(want));
            }
        }
    }

    #[test]
    fn folded_eq_is_byte_by_byte_lowercase_equality() {
        let stored = b"abcdefghijklmnopqrstu_0123456789";
        for len in 0..=stored.len() {
            let stored = &stored[..len];
            let upper = stored.to_ascii_uppercase();
            assert!(
                folded_eq(stored, stored) && folded_eq(&upper, stored),
                "{len}"
            );
            for at in 0..len {
                let mut probe = upper.clone();
                probe[at] ^= 0x01;
                assert!(!folded_eq(&probe, stored), "{len} {at}");
            }
            // Capitals stored are never matched by a folded probe.
            assert_eq!(folded_eq(stored, &upper), upper == stored, "{len}");
        }
    }

    /// The folded lookup of every span, placed at the start, middle and
    /// very end of a text, equals `get` of the lowercased span — on
    /// hits, on near misses that share a head or a tail with a token,
    /// and on tokens that differ only past their eighth byte.
    #[test]
    fn folded_lookup_equals_get_of_the_lowercased_token() {
        let stored = [
            "ab",
            "dox",
            "abcdefg",
            "abcdefgh",
            "abcdefghi",
            "abcdefghij",
            "abcdefghijklmnop",
            "abcdefghijklmnopq",
            "zzcdefghijklmnopq",
            "name_2024",
            "x9_",
            "MiXeD",
            "mixedcaselonger_Tail",
        ];
        let (table, _) = table(&stored);
        let mut probes: Vec<String> = stored.iter().map(|t| t.to_string()).collect();
        probes.extend(stored.iter().map(|t| t.to_ascii_uppercase()));
        probes.extend(
            [
                "a",
                "AB",
                "Dox",
                "DOXX",
                "abcdefgH",
                "abcdefgx",
                "ABCDEFGHI",
                "abcdefghx",
                "abcdefghiJ",
                "abcdefghiz",
                "xbcdefghij",
                "ABCDEFGHIJKLMNOP",
                "abcdefghijklmnoq",
                "abcdefghijklmnopQ",
                "abcdefghijklmnopz",
                "ZZCDEFGHIJKLMNOPQ",
                "zzcdefghijklmnopr",
                "mixed",
                "MIXEDCASELONGER_TAIL",
                "mixedcaselonger_tail",
                "@[`{",
                "é",
                "Ü",
            ]
            .iter()
            .map(|t| t.to_string()),
        );
        for probe in &probes {
            let want = table.get(&probe.to_ascii_lowercase());
            for (pre, post) in [
                ("", ""),
                ("..", ""),
                ("", "!"),
                ("zz yy ", " ww"),
                ("0123456789", ""),
            ] {
                let text = format!("{pre}{probe}{post}");
                let (start, end) = (pre.len(), pre.len() + probe.len());
                assert_eq!(
                    table.get_folded(text.as_bytes(), start, end),
                    want,
                    "{text:?}[{start}..{end}]"
                );
            }
        }
        assert_eq!(table.get_folded(b"DOX", 0, 3), table.get("dox"));
        assert!(table.get("dox").is_some());
        assert_eq!(
            table.get_folded(b"MiXeD", 0, 5),
            None,
            "stored with capitals"
        );
        assert_eq!(table.get_folded(b"mixedcaselonger_tail", 0, 20), None);
    }
}
