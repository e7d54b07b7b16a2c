//! Property-based suites over the core data structures and invariants,
//! spanning crates (proptest).

use dox_textkit::hashing::fnv1a;
use dox_textkit::html::{decode_entities, html_to_text};
use dox_textkit::sparse::SparseVec;
use dox_textkit::tokenize::Tokenizer;
use doxing_repro::core::dedup::Deduplicator;
use doxing_repro::extract::fields::{extract_emails, extract_phones, extract_ssns};
use doxing_repro::extract::record::extract;
use doxing_repro::geo::ip::find_ipv4_literals;
use doxing_repro::ml::metrics::ClassificationReport;
use doxing_repro::ml::split::stratified_split;
use proptest::prelude::*;

proptest! {
    // ---------- tokenizer ----------

    #[test]
    fn tokens_respect_min_length_and_charset(text in ".{0,300}") {
        let t = Tokenizer;
        for tok in t.tokenize(&text) {
            prop_assert!(tok.chars().count() >= 2);
            prop_assert!(tok.chars().all(|c| c.is_alphanumeric() || c == '_'));
            prop_assert_eq!(tok.to_lowercase(), tok.clone());
        }
    }

    #[test]
    fn tokenization_is_deterministic(text in ".{0,200}") {
        let t = Tokenizer;
        prop_assert_eq!(t.tokenize(&text), t.tokenize(&text));
    }

    // ---------- sparse vectors ----------

    #[test]
    fn sparse_invariants_hold(pairs in proptest::collection::vec((0u32..500, -10.0f64..10.0), 0..60)) {
        let v = SparseVec::from_pairs(pairs);
        prop_assert!(v.check_invariants());
    }

    #[test]
    fn sparse_dot_is_symmetric(
        a in proptest::collection::vec((0u32..100, -5.0f64..5.0), 0..30),
        b in proptest::collection::vec((0u32..100, -5.0f64..5.0), 0..30),
    ) {
        let (va, vb) = (SparseVec::from_pairs(a), SparseVec::from_pairs(b));
        prop_assert!((va.dot(&vb) - vb.dot(&va)).abs() < 1e-9);
    }

    #[test]
    fn sparse_dot_matches_dense(
        a in proptest::collection::vec((0u32..64, -5.0f64..5.0), 0..30),
        b in proptest::collection::vec((0u32..64, -5.0f64..5.0), 0..30),
    ) {
        let (va, vb) = (SparseVec::from_pairs(a), SparseVec::from_pairs(b));
        let mut dense = vec![0.0f64; 64];
        vb.axpy_into(1.0, &mut dense);
        prop_assert!((va.dot(&vb) - va.dot_dense(&dense)).abs() < 1e-9);
    }

    #[test]
    fn l2_normalize_yields_unit_or_zero(
        pairs in proptest::collection::vec((0u32..100, -5.0f64..5.0), 0..30),
    ) {
        let mut v = SparseVec::from_pairs(pairs);
        v.l2_normalize();
        let n = v.l2_norm();
        prop_assert!(n == 0.0 || (n - 1.0).abs() < 1e-9, "norm {}", n);
    }

    // ---------- hashing / similarity ----------

    #[test]
    fn fnv_is_stable_and_sensitive(s in ".{0,64}") {
        prop_assert_eq!(fnv1a(s.as_bytes()), fnv1a(s.as_bytes()));
        let mut extended = s.clone();
        extended.push('x');
        prop_assert_ne!(fnv1a(s.as_bytes()), fnv1a(extended.as_bytes()));
    }

    // ---------- html ----------

    #[test]
    fn html_to_text_strips_all_tags(body in "[a-zA-Z0-9 .,]{0,120}") {
        let html = format!("<div><b>{body}</b><br><ul><li>{body}</li></ul></div>");
        let text = html_to_text(&html);
        prop_assert!(!text.contains('<'));
        prop_assert!(!text.contains('>'));
    }

    #[test]
    fn entity_escape_roundtrip(s in "[a-zA-Z0-9&<> ']{0,100}") {
        let escaped = s
            .replace('&', "&amp;")
            .replace('<', "&lt;")
            .replace('>', "&gt;")
            .replace('\'', "&#39;");
        prop_assert_eq!(decode_entities(&escaped), s);
    }

    #[test]
    fn html_to_text_never_panics(html in ".{0,400}") {
        let _ = html_to_text(&html);
    }

    // ---------- extractors ----------

    #[test]
    fn extract_never_panics_on_arbitrary_text(text in ".{0,500}") {
        let _ = extract(&text);
    }

    #[test]
    fn phones_are_always_ten_digits(text in ".{0,300}") {
        for p in extract_phones(&text) {
            prop_assert_eq!(p.len(), 10);
            prop_assert!(p.bytes().all(|b| b.is_ascii_digit()));
        }
    }

    #[test]
    fn known_phone_always_found(area in 200u32..999, mid in 100u32..999, last in 0u32..9999) {
        let text = format!("call ({area}) {mid}-{last:04} now");
        let phones = extract_phones(&text);
        prop_assert_eq!(phones, vec![format!("{area}{mid}{last:04}")]);
    }

    #[test]
    fn extracted_emails_contain_at(text in ".{0,300}") {
        for e in extract_emails(&text) {
            prop_assert!(e.contains('@'));
            prop_assert_eq!(e.to_lowercase(), e.clone());
        }
    }

    #[test]
    fn extracted_ssns_have_shape(text in ".{0,200}") {
        for s in extract_ssns(&text) {
            let parts: Vec<&str> = s.split('-').collect();
            prop_assert_eq!(parts.len(), 3);
            prop_assert_eq!((parts[0].len(), parts[1].len(), parts[2].len()), (3, 2, 4));
        }
    }

    #[test]
    fn found_ips_appear_in_input(a in 1u8..=254, b in 0u8..=255, c in 0u8..=255, d in 1u8..=254) {
        let text = format!("addr {a}.{b}.{c}.{d} end");
        let found = find_ipv4_literals(&text);
        prop_assert_eq!(found.len(), 1);
        prop_assert_eq!(found[0].1.octets(), [a, b, c, d]);
    }

    // ---------- dedup ----------

    #[test]
    fn repeating_a_body_is_always_exact_duplicate(body in ".{1,200}") {
        let mut d = Deduplicator::new();
        let rec = extract(&body);
        prop_assert!(d.check(1, &body, &rec).is_none());
        let dup = d.check(2, &body, &rec);
        prop_assert!(matches!(
            dup,
            Some((doxing_repro::core::dedup::DuplicateKind::ExactBody, 1))
        ));
    }

    // ---------- engine shard routing ----------

    // Two documents sharing an account-set signature must never land on
    // different dedup shards — otherwise §3.1.4 account-set dedup would
    // miss cross-shard duplicates. Routing depends only on the signature,
    // for any shard count, no matter how the body text differs.
    #[test]
    fn shard_routing_never_splits_an_account_set(
        handle in "[a-z_][a-z0-9_]{2,14}",
        body_a in ".{0,200}",
        body_b in ".{0,200}",
        shards in 1usize..32,
    ) {
        use doxing_repro::engine::dedup::{shard_of, shard_signature};
        let text_a = format!("{body_a}\ntwitter: @{handle}\n");
        let text_b = format!("{body_b}\ninsta is {handle}\ntwitter: @{handle}\n");
        let rec_a = extract(&text_a);
        let rec_b = extract(&text_b);
        // Only comparable when extraction found the same account set (the
        // arbitrary body text can itself mention accounts).
        if !rec_a.account_set_key().is_empty()
            && rec_a.account_set_key() == rec_b.account_set_key()
        {
            let sig_a = shard_signature(&text_a, &rec_a);
            let sig_b = shard_signature(&text_b, &rec_b);
            prop_assert_eq!(sig_a, sig_b, "signature must ignore non-account text");
            prop_assert_eq!(shard_of(sig_a, shards), shard_of(sig_b, shards));
            prop_assert!(shard_of(sig_a, shards) < shards);
        }
    }

    #[test]
    fn shard_of_is_total_and_stable(sig in any::<u64>(), shards in 1usize..64) {
        use doxing_repro::engine::dedup::shard_of;
        let s = shard_of(sig, shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, shard_of(sig, shards));
    }

    // ---------- splits ----------

    #[test]
    fn stratified_split_partitions(labels in proptest::collection::vec(any::<bool>(), 0..150), seed in 0u64..20) {
        let (train, test) = stratified_split(&labels, 2.0 / 3.0, seed);
        prop_assert_eq!(train.len() + test.len(), labels.len());
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), labels.len());
    }

    // ---------- subtle detector ----------

    #[test]
    fn pii_kinds_bounded(text in ".{0,300}") {
        let kinds = doxing_repro::core::subtle::pii_kinds(&extract(&text));
        prop_assert!(kinds <= 11);
    }

    // ---------- metrics ----------

    #[test]
    fn metric_values_bounded(
        pred in proptest::collection::vec(any::<bool>(), 1..80),
    ) {
        let actual: Vec<bool> = pred.iter().map(|&b| !b).collect();
        for labels in [&pred, &actual] {
            let r = ClassificationReport::from_labels(&pred, labels);
            for m in [r.dox, r.not, r.weighted] {
                prop_assert!((0.0..=1.0).contains(&m.precision));
                prop_assert!((0.0..=1.0).contains(&m.recall));
                prop_assert!((0.0..=1.0).contains(&m.f1));
            }
            prop_assert!((0.0..=1.0).contains(&r.accuracy));
        }
    }
}
