//! The reference HTML decoder the decoder tests compare against, byte
//! for byte: the converter as it was when `decode_into` pushed one char
//! at a time — each position either an entity reference decoded whole or
//! the next char, flattened to a space when it is `\n`, `\r` or `\t`.

use std::fmt::Write;

/// `html_to_text` with the char-at-a-time decoder.
pub fn html_to_text(html: &str) -> String {
    Converter::new().run(html)
}

/// `decode_entities` with the char-at-a-time decoder.
pub fn decode_entities(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    decode_into(text, false, &mut out);
    out
}

/// Append `text` to `out` with entities decoded; with `flatten`, every
/// `\n`, `\r` and `\t` — raw or decoded — is written as a space.
fn decode_into(text: &str, flatten: bool, out: &mut String) {
    let mut i = 0;
    while i < text.len() {
        let ch = match entity_at(text, i) {
            Some((ch, end)) => {
                i = end;
                ch
            }
            None => {
                let ch = text[i..].chars().next().expect("in-bounds char");
                i += ch.len_utf8();
                ch
            }
        };
        if flatten && matches!(ch, '\n' | '\r' | '\t') {
            out.push(' ');
        } else {
            out.push(ch);
        }
    }
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

/// List levels that indent an item; deeper lists indent no further, so
/// each `<li>` writes at most this many two-space steps however deeply
/// the lists nest.
const MAX_INDENT_LEVELS: usize = 8;

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
    /// Decoded, flattened text of the current segment, reused across
    /// segments.
    scratch: String,
}

impl Converter {
    fn new() -> Self {
        Self {
            out: String::new(),
            list_stack: Vec::new(),
            skip_until: None,
            quote_depth: 0,
            pending_quote_prefix: false,
            scratch: String::new(),
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
        let mut flat = std::mem::take(&mut self.scratch);
        flat.clear();
        // Raw newlines in HTML source are soft whitespace, not line breaks.
        decode_into(text, true, &mut flat);
        let trimmed = if self.out.ends_with('\n') || self.out.is_empty() {
            flat.trim_start()
        } else {
            &flat
        };
        if !trimmed.is_empty() {
            if self.pending_quote_prefix {
                self.out.push_str("> ");
                self.pending_quote_prefix = false;
            }
            self.out.push_str(trimmed);
        }
        self.scratch = flat;
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
                let depth = self.list_stack.len().clamp(1, MAX_INDENT_LEVELS);
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
