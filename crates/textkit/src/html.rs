//! HTML to plain-text conversion.
//!
//! Postings scraped from 4chan.org and 8ch.net arrive as HTML fragments; the
//! paper converts them with `html2text` (§3.1.2), which "replaces HTML markup
//! with semantically equivalent plain-text representations", e.g. turning
//! `<ul>`/`<ol>`/`<li>` into indented, newline-separated strings.
//!
//! [`html_to_text`] is a single-pass, allocation-frugal converter covering
//! the markup that actually occurs on chan boards: paragraph/line-break tags,
//! ordered and unordered lists, blockquotes (chan "greentext" uses
//! `<span class="quote">`), `<br>`, entity references, and tag stripping for
//! everything else. `<script>` and `<style>` contents are dropped entirely.

use std::fmt::Write;

/// Convert an HTML fragment to semantically equivalent plain text.
///
/// ```
/// let html = "<b>Dox</b> of <i>someone</i><br>line2<ul><li>a</li><li>b</li></ul>";
/// let text = dox_textkit::html::html_to_text(html);
/// assert_eq!(text, "Dox of someone\nline2\n  - a\n  - b");
/// ```
pub fn html_to_text(html: &str) -> String {
    Converter::new().run(html)
}

/// Decode the HTML entities that occur in practice on the measured boards.
///
/// Handles the named entities `&amp; &lt; &gt; &quot; &apos; &nbsp; &#39;`
/// plus decimal (`&#NN;`) and hexadecimal (`&#xNN;`) numeric references.
/// Unknown entities are passed through verbatim.
pub fn decode_entities(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    decode_into(text, false, &mut out);
    out
}

/// Append `text` to `out` with entities decoded; with `flatten`, every
/// `\n`, `\r` and `\t` — raw or decoded — is written as a space.
///
/// The text between those bytes and `&` is copied a run at a time. All
/// four are ASCII, so a run never splits a UTF-8 sequence.
fn decode_into(text: &str, flatten: bool, out: &mut String) {
    let bytes = text.as_bytes();
    // `text[run..at]` is copied verbatim once a special byte ends it.
    let mut run = 0;
    let mut at = 0;
    while let Some(off) = bytes[at..]
        .iter()
        .position(|&b| b == b'&' || (flatten && matches!(b, b'\n' | b'\r' | b'\t')))
    {
        at += off;
        let (ch, end) = match entity_at(text, at) {
            Some(decoded) => decoded,
            None if bytes[at] == b'&' => {
                // Not an entity: the `&` stays in the run.
                at += 1;
                continue;
            }
            None => (' ', at + 1),
        };
        out.push_str(&text[run..at]);
        out.push(if flatten && matches!(ch, '\n' | '\r' | '\t') {
            ' '
        } else {
            ch
        });
        (run, at) = (end, end);
    }
    out.push_str(&text[run..]);
}

/// The entity reference starting at byte `i` of `text`, decoded, and the
/// byte index just past its `;`.
fn entity_at(text: &str, i: usize) -> Option<(char, usize)> {
    let bytes = text.as_bytes();
    if bytes[i] != b'&' {
        return None;
    }
    // Entities are short; cap the lookahead for the `;`.
    let window = &bytes[i..bytes.len().min(i + 11)];
    let semi = i + window.iter().position(|&b| b == b';')?;
    Some((decode_entity(&text[i + 1..semi])?, semi + 1))
}

fn decode_entity(ent: &str) -> Option<char> {
    match ent {
        "amp" => Some('&'),
        "lt" => Some('<'),
        "gt" => Some('>'),
        "quot" => Some('"'),
        "apos" => Some('\''),
        "nbsp" => Some(' '),
        _ => {
            let num = ent.strip_prefix('#')?;
            let code = if let Some(hex) = num.strip_prefix('x').or_else(|| num.strip_prefix('X')) {
                u32::from_str_radix(hex, 16).ok()?
            } else {
                num.parse::<u32>().ok()?
            };
            char::from_u32(code)
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ListKind {
    Unordered,
    Ordered(usize),
}

struct Converter {
    out: String,
    list_stack: Vec<ListKind>,
    /// Skipping the body of `<script>`/`<style>`.
    skip_until: Option<&'static [u8]>,
    /// Inside a chan greentext quote span.
    quote_depth: usize,
    pending_quote_prefix: bool,
}

impl Converter {
    fn new() -> Self {
        Self {
            out: String::new(),
            list_stack: Vec::new(),
            skip_until: None,
            quote_depth: 0,
            pending_quote_prefix: false,
        }
    }

    fn run(mut self, html: &str) -> String {
        self.out.reserve(html.len());
        let mut rest = html;
        while let Some(lt) = rest.find('<') {
            let (text, after) = rest.split_at(lt);
            self.push_text(text);
            match after[1..].find('>') {
                Some(gt) => {
                    let tag = &after[1..1 + gt];
                    self.handle_tag(tag);
                    rest = &after[gt + 2..];
                }
                None => {
                    // Unclosed '<': treat remainder as text.
                    self.push_text(after);
                    rest = "";
                    break;
                }
            }
        }
        self.push_text(rest);
        trim_blank_edges(&self.out)
    }

    fn push_text(&mut self, text: &str) {
        if self.skip_until.is_some() || text.is_empty() {
            return;
        }
        let before = self.out.len();
        let trim = self.out.is_empty() || self.out.ends_with('\n');
        if self.pending_quote_prefix {
            self.out.push_str("> ");
        }
        // Raw newlines in HTML source are soft whitespace, not line breaks.
        let at = self.out.len();
        decode_into(text, true, &mut self.out);
        if trim {
            let blank = self.out[at..].len() - self.out[at..].trim_start().len();
            self.out.drain(at..at + blank);
        }
        if self.out.len() == at {
            // Nothing but trimmed whitespace: no text, so no quote prefix.
            self.out.truncate(before);
        } else {
            self.pending_quote_prefix = false;
        }
    }

    fn handle_tag(&mut self, raw: &str) {
        let raw = raw.trim();
        if raw.starts_with('!') {
            return; // comment or doctype
        }
        let closing = raw.starts_with('/');
        let name_part = raw.trim_start_matches('/');
        let name_end = name_part
            .find(|c: char| c.is_whitespace() || c == '/')
            .unwrap_or(name_part.len());
        let attrs = &name_part[name_end..];
        // Lowercase into a stack buffer: every tag acted on below is short
        // ASCII, so a longer name matches nothing.
        let mut buf = [0u8; 16];
        let name: &[u8] = match buf.get_mut(..name_end) {
            Some(name) => {
                name.copy_from_slice(&name_part.as_bytes()[..name_end]);
                name.make_ascii_lowercase();
                name
            }
            None => b"",
        };

        if let Some(until) = self.skip_until {
            if closing && name == until {
                self.skip_until = None;
            }
            return;
        }

        match (name, closing) {
            (b"script", false) => self.skip_until = Some(b"script"),
            (b"style", false) => self.skip_until = Some(b"style"),
            (b"br", _) | (b"hr", _) => self.newline(),
            (b"p", _) | (b"div", _) | (b"tr", _) | (b"table", _) | (b"blockquote", _) => {
                self.newline();
            }
            (b"h1", _) | (b"h2", _) | (b"h3", _) | (b"h4", _) | (b"h5", _) | (b"h6", _) => {
                self.newline();
            }
            (b"ul", false) => {
                self.newline();
                self.list_stack.push(ListKind::Unordered);
            }
            (b"ol", false) => {
                self.newline();
                self.list_stack.push(ListKind::Ordered(0));
            }
            (b"ul", true) | (b"ol", true) => {
                self.list_stack.pop();
                self.newline();
            }
            (b"li", false) => {
                self.newline();
                let depth = self.list_stack.len().max(1);
                for _ in 0..depth {
                    self.out.push_str("  ");
                }
                match self.list_stack.last_mut() {
                    Some(ListKind::Ordered(n)) => {
                        *n += 1;
                        let n = *n;
                        let _ = write!(self.out, "{n}. ");
                    }
                    _ => self.out.push_str("- "),
                }
            }
            (b"span", false) if attrs.contains("quote") => {
                self.quote_depth += 1;
                self.pending_quote_prefix = true;
            }
            (b"span", true) if self.quote_depth > 0 => {
                self.quote_depth -= 1;
                self.pending_quote_prefix = false;
            }
            _ => {}
        }
    }

    fn newline(&mut self) {
        if !self.out.is_empty() && !self.out.ends_with('\n') {
            self.out.push('\n');
        }
    }
}

/// Trim leading/trailing blank lines and trailing spaces on each line.
fn trim_blank_edges(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    // Blank lines seen since the last kept line; interior ones are kept.
    let mut blank_run = 0;
    for line in text.lines().map(str::trim_end) {
        if line.is_empty() {
            blank_run += 1;
            continue;
        }
        if !out.is_empty() {
            for _ in 0..=blank_run {
                out.push('\n');
            }
        }
        out.push_str(line);
        blank_run = 0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_text_passes_through() {
        assert_eq!(html_to_text("just some text"), "just some text");
    }

    #[test]
    fn tags_are_stripped() {
        assert_eq!(
            html_to_text("<b>bold</b> and <i>italic</i>"),
            "bold and italic"
        );
    }

    #[test]
    fn br_becomes_newline() {
        assert_eq!(html_to_text("a<br>b<br/>c"), "a\nb\nc");
    }

    #[test]
    fn unordered_list_matches_paper_description() {
        // the paper: "<ul>, <ol> and <li> tags ... to indented, newline
        // separated text strings"
        let html = "<ul><li>name: X</li><li>addr: Y</li></ul>";
        assert_eq!(html_to_text(html), "  - name: X\n  - addr: Y");
    }

    #[test]
    fn ordered_list_numbers_items() {
        let html = "<ol><li>first</li><li>second</li></ol>";
        assert_eq!(html_to_text(html), "  1. first\n  2. second");
    }

    #[test]
    fn nested_lists_indent() {
        let html = "<ul><li>outer<ul><li>inner</li></ul></li></ul>";
        assert_eq!(html_to_text(html), "  - outer\n    - inner");
    }

    #[test]
    fn entities_decode() {
        assert_eq!(
            decode_entities("a &amp; b &lt;c&gt; &#39;d&#x27;"),
            "a & b <c> 'd'"
        );
    }

    #[test]
    fn unknown_entities_pass_through() {
        assert_eq!(decode_entities("&bogus; &zzz;"), "&bogus; &zzz;");
    }

    #[test]
    fn numeric_entity_out_of_range_passes_through() {
        assert_eq!(decode_entities("&#1114112;"), "&#1114112;");
    }

    #[test]
    fn script_and_style_bodies_dropped() {
        let html = "before<script>var x = '<li>';</script>after";
        assert_eq!(html_to_text(html), "beforeafter");
        let html = "a<style>p { color: red }</style>b";
        assert_eq!(html_to_text(html), "ab");
    }

    #[test]
    fn chan_greentext_quote() {
        let html = r#"<span class="quote">&gt;implying</span><br>reply text"#;
        assert_eq!(html_to_text(html), "> >implying\nreply text");
    }

    #[test]
    fn paragraphs_separate_lines() {
        assert_eq!(html_to_text("<p>one</p><p>two</p>"), "one\ntwo");
    }

    #[test]
    fn unclosed_tag_is_text() {
        assert_eq!(html_to_text("tricky < not a tag"), "tricky < not a tag");
    }

    #[test]
    fn raw_newlines_are_soft() {
        assert_eq!(html_to_text("one\ntwo"), "one two");
    }

    #[test]
    fn comments_are_ignored() {
        assert_eq!(html_to_text("a<!-- hidden -->b"), "ab");
    }

    #[test]
    fn empty_input() {
        assert_eq!(html_to_text(""), "");
    }

    #[test]
    fn typical_chan_post() {
        let html = "<a href=\"#p123\" class=\"quotelink\">&gt;&gt;123</a><br>\
                    dropping this fag&#039;s dox<br>Name: John Example<br>\
                    Phone: 555-0100";
        let text = html_to_text(html);
        assert!(text.contains("dropping this fag's dox"));
        assert!(text.contains("Name: John Example"));
        assert!(text.contains("Phone: 555-0100"));
        assert_eq!(text.lines().count(), 4);
    }

    /// Edge cases of the single-pass decoder and the stack-buffer tag
    /// names; the expected strings are the output of the converter this
    /// one replaced.
    #[test]
    fn matches_the_allocating_converter_on_edge_cases() {
        let cases = [
            ("a&#10;b", "a b"),
            ("line&#10;&#13;&#9;end", "line   end"),
            ("a<br>&nbsp;&nbsp;b", "a\nb"),
            ("&nbsp;lead", "lead"),
            ("a<BR>b<Br/>c<bR />d", "a\nb\nc\nd"),
            (
                "a<verylongtagnameexceeding>b</verylongtagnameexceeding>c",
                "abc",
            ),
            ("a<abcdefghijklmnop>b<abcdefghijklmnopq>c", "abc"),
            (
                "x<scriptxxxxxxxxxxxxxxxxx>y</scriptxxxxxxxxxxxxxxxxx>z",
                "xyz",
            ),
            ("a<spän>b</SPÄN>c<bré>d", "abcd"),
            ("<SCRIPT>var a = '<li>';</Script>after", "after"),
            ("a<script>x</scriptaaaaaaaaaaaaaaaaaaa>y</SCRIPT>b", "ab"),
            ("<STYLE>p{}</style>ok", "ok"),
            ("&amp;#10; &#160;x&#160;<br>&#160;y", "&#10; \u{a0}x\ny"),
            (
                "&abcdefghijkl; &#x1F600; &#X41; &#+65; &;",
                "&abcdefghijkl; 😀 A A &;",
            ),
            ("<OL><LI>one<LI>two</OL><P>para", "  1. one\n  2. two\npara"),
            (
                "<span class=\"quote\">&gt;greentext</span><BR>reply",
                "> >greentext\nreply",
            ),
            ("  <p>  spaced  </p>  <p>  </p><p>x</p>  ", "spaced\nx"),
        ];
        for (html, text) in cases {
            assert_eq!(html_to_text(html), text, "{html:?}");
        }
    }

    #[test]
    fn trim_keeps_interior_blank_lines() {
        assert_eq!(trim_blank_edges("\n \na  \n\n b \n\n"), "a\n\n b");
        assert_eq!(trim_blank_edges(" \n\n"), "");
    }
}
