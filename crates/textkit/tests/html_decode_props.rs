//! Differential tests for the HTML decoder under hostile input.
//!
//! `html_to_text` and `decode_entities` copy the text between `&`, `\n`,
//! `\r` and `\t` a run at a time. The reference in `oracle/html.rs` is the
//! same converter decoding one char at a time; on every input both must
//! produce the same bytes, and neither may panic: lone and repeated `&`,
//! unterminated, overlong and out-of-range references, multibyte chars
//! next to `&` and `;`, raw and encoded CR/LF/TAB, unclosed `<`, and a
//! megabyte of `&amp;`. Nor may the text outgrow the HTML by more than
//! 8×: thousands of nested `<ul>`/`<ol>`, unmatched closers, an unclosed
//! `<` after megabytes of text and 100k greentext spans stay linear.

#[path = "oracle/html.rs"]
mod oracle;

use dox_textkit::html::{decode_entities, html_to_text};
use proptest::collection::vec;
use proptest::prelude::*;

/// Fragments the documents are assembled from.
const PIECES: &[&str] = &[
    "&",
    "&&",
    "&&&&&&&&",
    "&amp;",
    "&amp",
    "&AMP;",
    "&lt;",
    "&gt;",
    "&quot;",
    "&apos;",
    "&nbsp;",
    "&#39;",
    "&#039;",
    "&#",
    "&#;",
    "&#x",
    "&#x;",
    "&#10;",
    "&#13;",
    "&#9;",
    "&#x0A;",
    "&#X0d;",
    "&#x1F600;",
    "&#1114112;",
    "&#xD800;",
    "&#xFFFFFFFFF;",
    "&#99999999999;",
    "&#-1;",
    "&#+65;",
    "&abcdefghijkl;",
    "&abcdefghi;",
    "&é;",
    "&#é;",
    "é&amp;é",
    "中&",
    "&中",
    ";中",
    "😀;",
    "&😀;",
    "\n",
    "\r",
    "\t",
    "\r\n",
    ";",
    " ",
    "  ",
    "text",
    "Name: John",
    "<",
    ">",
    "<br>",
    "<p>",
    "</p>",
    "<ul>",
    "<li>",
    "</ul>",
    "<ol>",
    "</ol>",
    "<span class=\"quote\">",
    "</span>",
    "<script>",
    "</script>",
    "<b",
    "<!-- & -->",
];

fn assert_same(doc: &str) -> Result<(), TestCaseError> {
    let text = html_to_text(doc);
    prop_assert!(text.len() <= 8 * doc.len(), "{:?} grew to {:?}", doc, text);
    prop_assert_eq!(text, oracle::html_to_text(doc), "html_to_text on {:?}", doc);
    prop_assert_eq!(
        decode_entities(doc),
        oracle::decode_entities(doc),
        "decode_entities on {:?}",
        doc
    );
    Ok(())
}

proptest! {
    #[test]
    fn assembled_documents_match_the_char_at_a_time_decoder(
        pieces in vec(0usize..PIECES.len(), 0..200),
    ) {
        let doc: String = pieces.iter().map(|&i| PIECES[i]).collect();
        assert_same(&doc)?;
    }

    #[test]
    fn arbitrary_text_matches_the_char_at_a_time_decoder(
        text in ".{0,300}",
        ents in "[&#;xX0-9a-fA-F\n\r\t <>é]{0,120}",
    ) {
        assert_same(&text)?;
        assert_same(&ents)?;
        assert_same(&format!("{ents}{text}&"))?;
    }
}

#[test]
fn edge_documents_match_the_char_at_a_time_decoder() {
    let cases = [
        String::new(),
        "&".into(),
        ";".into(),
        "&;".into(),
        "a&".into(),
        "&amp".into(),
        "x&#10".into(),
        "é&".into(),
        "&é".into(),
        "&amp;é;&".into(),
        "tricky < not a tag & more".into(),
        "<".into(),
        "<<<".into(),
        "a<br>&#10;\r\n\t&#9;&#13;b".into(),
        "&".repeat(100_000),
        "&amp;".repeat(200_000),
        format!("{}&amp", "&amp;".repeat(1000)),
        "é".repeat(10_000) + "&#x41;",
        // 2,000 open lists: at two spaces per open list per item, the
        // text would be ~440x the HTML.
        "<ul>".repeat(2_000) + &"<li>x".repeat(2_000),
        "<ol>".repeat(2_000) + &"<li>x".repeat(2_000),
        "<ul><ol>".repeat(1_000) + &"<li>x</li>".repeat(1_000) + &"</ol></ul>".repeat(1_000),
        "<ol><li>".repeat(3_000),
        "</ul>".repeat(10_000) + "<li>x" + &"</ol><li>y".repeat(10_000),
        // An unclosed `<` after megabytes of text is text to the end.
        "Name: John Doe<br>Phone: 555-0100 &amp; more\n".repeat(60_000) + "<ul<li",
        "<span class=\"quote\">&gt;q</span><br>".repeat(100_000),
        "<span class=\"quote\"></span>".repeat(100_000),
    ];
    for doc in &cases {
        let text = html_to_text(doc);
        assert!(
            text.len() <= 8 * doc.len(),
            "{} bytes of HTML became {} bytes of text: {:.80?}",
            doc.len(),
            text.len(),
            doc
        );
        assert_eq!(text, oracle::html_to_text(doc), "{:.80?}", doc);
        assert_eq!(
            decode_entities(doc),
            oracle::decode_entities(doc),
            "{:.80?}",
            doc
        );
    }
    let mb = "&amp;".repeat(200_000);
    assert_eq!(mb.len(), 1_000_000);
    assert_eq!(decode_entities(&mb), "&".repeat(200_000));
}
