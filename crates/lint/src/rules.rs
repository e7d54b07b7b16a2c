//! The token rules, the rule-name registry, and the per-file indexes
//! every rule shares.
//!
//! Three rules are token-level (no AST) — `panic-hygiene`,
//! `determinism` and `unsafe-audit`; each encodes an invariant of *this*
//! workspace (see DESIGN.md §"Static analysis" for the catalogue). They
//! honor:
//!
//! * **file class** — library code is policed, `tests/`, benches,
//!   `src/bin/` and examples are not (except `unsafe-audit`, which is
//!   global);
//! * **`#[cfg(test)]` regions** — in-file test modules count as tests;
//! * **inline suppressions** — `// dox-lint:allow(rule-a, rule-b) reason`
//!   on the offending line, or standing alone on the line above it.
//!
//! The workspace-level dataflow rules (`taint`, `lockorder`, `detflow`)
//! honor the same suppressions through [`Suppressions`], but check every
//! scanned file, tests included.

use crate::diag::Diagnostic;
use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// What kind of source file this is, by path convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FileClass {
    /// Library code under some `src/` (the policed class).
    #[default]
    Library,
    /// A binary: `src/bin/**` or `src/main.rs`.
    Bin,
    /// Anything under a `tests/` directory.
    Test,
    /// Anything under an `examples/` directory.
    Example,
    /// Anything under a `benches/` directory.
    Bench,
}

/// One file handed to the rule registry.
#[derive(Debug, Clone)]
pub struct FileInput {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Path-derived class.
    pub class: FileClass,
    /// For `crates/<name>/…` paths, the crate directory name.
    pub crate_name: Option<String>,
    /// Full source text.
    pub text: String,
}

/// A lexed file with suppression and test-region indexes built.
pub struct Prepared<'a> {
    /// The file being checked.
    pub input: &'a FileInput,
    /// Code tokens (comments filtered out).
    pub code: Vec<Token>,
    /// Rules allowed per line (from `dox-lint:allow(...)` comments).
    allow: BTreeMap<u32, BTreeSet<String>>,
    /// Line ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(u32, u32)>,
}

impl<'a> Prepared<'a> {
    /// Lex and index one file.
    pub fn new(input: &'a FileInput) -> Self {
        let tokens = lex(&input.text);
        let allow = collect_suppressions(&tokens);
        let code: Vec<Token> = tokens.into_iter().filter(|t| !t.is_comment()).collect();
        let test_ranges = find_test_ranges(&code);
        Self {
            input,
            code,
            allow,
            test_ranges,
        }
    }

    /// Whether `rule` is suppressed on `line`.
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        self.allow
            .get(&line)
            .is_some_and(|rules| rules.contains(rule) || rules.contains("all"))
    }

    /// Whether `line` falls inside a `#[cfg(test)]` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    fn skip(&self, line: u32, rule: &'static str) -> bool {
        self.in_test(line) || self.allowed(line, rule)
    }
}

/// Suppression lookup across every prepared file, for the
/// workspace-level dataflow rules (which emit findings in files other
/// than the one driving the analysis).
pub struct Suppressions<'a> {
    map: BTreeMap<&'a str, &'a Prepared<'a>>,
}

impl<'a> Suppressions<'a> {
    /// Index prepared files by workspace-relative path.
    pub fn new(preps: &'a [Prepared<'a>]) -> Self {
        Self {
            map: preps.iter().map(|p| (p.input.rel.as_str(), p)).collect(),
        }
    }

    /// Whether `rule` is `dox-lint:allow`ed on `line` of `rel`.
    pub fn allowed(&self, rel: &str, line: u32, rule: &str) -> bool {
        self.map.get(rel).is_some_and(|p| p.allowed(line, rule))
    }
}

/// Extract `dox-lint:allow(rule, …)` from comments. A suppression applies
/// to the comment's own line; when the comment stands alone on its line it
/// also applies to the next code line.
fn collect_suppressions(tokens: &[Token]) -> BTreeMap<u32, BTreeSet<String>> {
    let mut allow: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for (i, tok) in tokens.iter().enumerate() {
        if !tok.is_comment() {
            continue;
        }
        let Some(rules) = parse_allow(&tok.text) else {
            continue;
        };
        let standalone = !tokens[..i]
            .iter()
            .rev()
            .take_while(|t| t.line == tok.line)
            .any(|t| !t.is_comment());
        let mut lines = vec![tok.line];
        if standalone {
            if let Some(next) = tokens[i + 1..].iter().find(|t| !t.is_comment()) {
                lines.push(next.line);
            }
        }
        for line in lines {
            allow.entry(line).or_default().extend(rules.iter().cloned());
        }
    }
    allow
}

/// Parse the rule list out of one comment, if it carries a suppression.
fn parse_allow(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("dox-lint:allow(")?;
    let rest = &comment[idx + "dox-lint:allow(".len()..];
    let close = rest.find(')')?;
    Some(
        rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect(),
    )
}

/// Find the line ranges of `#[cfg(test)]` items by brace matching.
fn find_test_ranges(code: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if !code[i].is_punct('#') {
            i += 1;
            continue;
        }
        // `#[ … ]` (outer) or `#![ … ]` (inner) attribute.
        let mut j = i + 1;
        if code.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if !code.get(j).is_some_and(|t| t.is_punct('[')) {
            i += 1;
            continue;
        }
        let Some(end) = matching_close(code, j, '[', ']') else {
            break;
        };
        let attr = &code[j + 1..end];
        let is_cfg_test = attr.first().is_some_and(|t| t.is_ident("cfg"))
            && attr.iter().any(|t| t.is_ident("test"));
        if is_cfg_test {
            if let Some(range) = item_extent(code, end + 1, code[i].line) {
                ranges.push(range);
            }
        }
        i = end + 1;
    }
    ranges
}

/// The line extent of the item starting after an attribute: skip further
/// attributes, then match the item's braces (or stop at a top-level `;`
/// for brace-less items).
fn item_extent(code: &[Token], mut i: usize, start_line: u32) -> Option<(u32, u32)> {
    // Skip stacked attributes.
    while code.get(i).is_some_and(|t| t.is_punct('#')) {
        let mut j = i + 1;
        if code.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if code.get(j).is_some_and(|t| t.is_punct('[')) {
            i = matching_close(code, j, '[', ']')? + 1;
        } else {
            break;
        }
    }
    // Scan to the item's opening brace, tracking (…) and […] nesting so a
    // `;` inside `fn f(x: [u8; 3])` does not end the item early.
    let mut depth = 0i32;
    while let Some(tok) = code.get(i) {
        match tok.punct() {
            Some('(') | Some('[') => depth += 1,
            Some(')') | Some(']') => depth -= 1,
            Some('{') if depth == 0 => {
                let close = matching_close(code, i, '{', '}')?;
                return Some((start_line, code[close].line));
            }
            Some(';') if depth == 0 => return Some((start_line, tok.line)),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Index of the token closing the delimiter opened at `open_idx`.
fn matching_close(code: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for (k, tok) in code.iter().enumerate().skip(open_idx) {
        if tok.is_punct(open) {
            depth += 1;
        } else if tok.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Names of every rule, in report order. The token-level rules run
/// per-file from [`run_rules`]; `pii-taint`, `lock-order` and
/// `determinism-flow` are workspace-level dataflow rules (see the
/// `taint`, `lockorder` and `detflow` modules).
pub const RULE_NAMES: [&str; 6] = [
    "panic-hygiene",
    "pii-taint",
    "determinism",
    "determinism-flow",
    "lock-order",
    "unsafe-audit",
];

/// Run every token-level rule over one prepared file.
pub fn run_rules(prep: &Prepared<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    panic_hygiene(prep, &mut out);
    determinism(prep, &mut out);
    unsafe_audit(prep, &mut out);
    out.sort_by_key(|d| (d.line, d.col, d.rule));
    out
}

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// `panic-hygiene`: no `unwrap`/`expect`/`panic!`-family calls in library
/// code of the `dox-*` crates.
fn panic_hygiene(prep: &Prepared<'_>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "panic-hygiene";
    if prep.input.class != FileClass::Library || prep.input.crate_name.is_none() {
        return;
    }
    let code = &prep.code;
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || prep.skip(tok.line, RULE) {
            continue;
        }
        let prev_dot = i > 0 && code[i - 1].is_punct('.');
        let next_paren = code.get(i + 1).is_some_and(|t| t.is_punct('('));
        let next_bang = code.get(i + 1).is_some_and(|t| t.is_punct('!'));
        if prev_dot && next_paren && (tok.text == "unwrap" || tok.text == "expect") {
            out.push(Diagnostic::new(
                &prep.input.rel,
                tok.line,
                tok.col,
                RULE,
                format!(
                    "`.{}()` in library code — return a typed error instead, \
                     or justify with `// dox-lint:allow(panic-hygiene) <why infallible>`",
                    tok.text
                ),
            ));
        } else if next_bang && PANIC_MACROS.contains(&tok.text.as_str()) {
            // `panic!` in a `#[should_panic]`-style doc? Library code still
            // must not abort: documented invariant panics use `assert!`.
            out.push(Diagnostic::new(
                &prep.input.rel,
                tok.line,
                tok.col,
                RULE,
                format!(
                    "`{}!` in library code — return a typed error instead, \
                     or justify with `// dox-lint:allow(panic-hygiene) <reason>`",
                    tok.text
                ),
            ));
        }
    }
}

/// Extract the captured identifiers from a format string literal:
/// `"x {name} {count:>3}"` yields `name`, `count`. `{{` escapes are
/// skipped, positional/empty captures (`{}`, `{0}`) yield nothing.
pub(crate) fn inline_format_args(lexeme: &str) -> Vec<String> {
    let mut names = Vec::new();
    let chars: Vec<char> = lexeme.chars().collect();
    let mut i = 0usize;
    while i < chars.len() {
        if chars[i] == '{' {
            if chars.get(i + 1) == Some(&'{') {
                i += 2;
                continue;
            }
            let mut name = String::new();
            let mut j = i + 1;
            while j < chars.len() && chars[j] != '}' && chars[j] != ':' {
                name.push(chars[j]);
                j += 1;
            }
            let is_ident = !name.is_empty()
                && name.chars().all(|c| c.is_alphanumeric() || c == '_')
                && !name.chars().next().is_some_and(|c| c.is_ascii_digit());
            if is_ident {
                names.push(name);
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    names
}

/// `determinism`: wall-clock/OS-entropy calls outside `crates/obs`.
/// (Unordered-container flow into output is the `determinism-flow`
/// dataflow rule's job — the old path-list `HashMap` ban is retired.)
fn determinism(prep: &Prepared<'_>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "determinism";
    let code = &prep.code;
    let is_library = prep.input.class == FileClass::Library;
    let in_obs = prep.input.crate_name.as_deref() == Some("obs");
    if !is_library || in_obs {
        return;
    }
    for (i, tok) in code.iter().enumerate() {
        if tok.kind != TokenKind::Ident || prep.skip(tok.line, RULE) {
            continue;
        }
        let path_now = (tok.text == "Instant" || tok.text == "SystemTime")
            && code.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && code.get(i + 3).is_some_and(|t| t.is_ident("now"));
        let entropy = tok.text == "thread_rng" || tok.text == "from_entropy";
        if path_now || entropy {
            out.push(Diagnostic::new(
                &prep.input.rel,
                tok.line,
                tok.col,
                RULE,
                format!(
                    "`{}` is nondeterministic — reports must be pure functions of \
                     (config, seed); timing-only spans need \
                     `// dox-lint:allow(determinism) <reason>`",
                    if path_now {
                        format!("{}::now", tok.text)
                    } else {
                        tok.text.clone()
                    }
                ),
            ));
        }
    }
}

/// `unsafe-audit`: no `unsafe` anywhere outside `vendor/`, and every
/// `dox-*` crate root must carry `#![forbid(unsafe_code)]`.
fn unsafe_audit(prep: &Prepared<'_>, out: &mut Vec<Diagnostic>) {
    const RULE: &str = "unsafe-audit";
    for tok in &prep.code {
        if tok.is_ident("unsafe") && !prep.allowed(tok.line, RULE) {
            out.push(Diagnostic::new(
                &prep.input.rel,
                tok.line,
                tok.col,
                RULE,
                "`unsafe` outside vendor/ — this workspace forbids unsafe code",
            ));
        }
    }
    let is_crate_root =
        prep.input.rel.starts_with("crates/") && prep.input.rel.ends_with("/src/lib.rs");
    if is_crate_root {
        let has_forbid = prep.code.windows(5).any(|w| {
            w[0].is_ident("forbid")
                && w[1].is_punct('(')
                && w[2].is_ident("unsafe_code")
                && w[3].is_punct(')')
                && w[4].is_punct(']')
        });
        if !has_forbid {
            out.push(Diagnostic::new(
                &prep.input.rel,
                1,
                1,
                RULE,
                "crate root is missing `#![forbid(unsafe_code)]`",
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_input(src: &str) -> FileInput {
        FileInput {
            rel: "crates/engine/src/x.rs".into(),
            class: FileClass::Library,
            crate_name: Some("engine".into()),
            text: src.into(),
        }
    }

    fn run(src: &str) -> Vec<Diagnostic> {
        let input = lib_input(src);
        let prep = Prepared::new(&input);
        run_rules(&prep)
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn f() { x.unwrap(); }\n#[cfg(test)]\nmod tests { fn g() { y.unwrap(); } }\n";
        let diags = run(src);
        let hygiene: Vec<_> = diags.iter().filter(|d| d.rule == "panic-hygiene").collect();
        assert_eq!(hygiene.len(), 1, "{diags:?}");
        assert_eq!(hygiene[0].line, 1);
    }

    #[test]
    fn allow_comment_suppresses_same_and_next_line() {
        let same = "fn f() { x.unwrap(); } // dox-lint:allow(panic-hygiene) infallible\n";
        assert!(run(same).iter().all(|d| d.rule != "panic-hygiene"));
        let above = "// dox-lint:allow(panic-hygiene) infallible\nfn f() { x.unwrap(); }\n";
        assert!(run(above).iter().all(|d| d.rule != "panic-hygiene"));
        let wrong_rule = "fn f() { x.unwrap(); } // dox-lint:allow(determinism)\n";
        assert!(run(wrong_rule).iter().any(|d| d.rule == "panic-hygiene"));
    }

    #[test]
    fn unwrap_in_string_not_flagged() {
        let src = "fn f() { let s = \"please .unwrap() me\"; }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn instant_now_flagged_in_library_not_obs() {
        let src = "fn f() { let t = Instant::now(); }\n";
        assert!(run(src).iter().any(|d| d.rule == "determinism"));
        let obs = FileInput {
            rel: "crates/obs/src/span.rs".into(),
            class: FileClass::Library,
            crate_name: Some("obs".into()),
            text: src.into(),
        };
        let prep = Prepared::new(&obs);
        assert!(run_rules(&prep).iter().all(|d| d.rule != "determinism"));
    }

    #[test]
    fn hashmap_alone_is_not_a_token_finding() {
        // Merely *using* a HashMap is fine; only its iteration order
        // reaching serialized output is a problem, and that is the
        // `determinism-flow` dataflow rule's job now.
        let src = "use std::collections::HashMap;\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn unsafe_flagged_everywhere() {
        let input = FileInput {
            rel: "tests/x.rs".into(),
            class: FileClass::Test,
            crate_name: None,
            text: "fn f() { unsafe { core::hint::unreachable_unchecked() } }\n".into(),
        };
        let prep = Prepared::new(&input);
        assert!(run_rules(&prep).iter().any(|d| d.rule == "unsafe-audit"));
    }

    #[test]
    fn crate_root_without_forbid_flagged() {
        let input = FileInput {
            rel: "crates/geo/src/lib.rs".into(),
            class: FileClass::Library,
            crate_name: Some("geo".into()),
            text: "//! docs\npub mod m;\n".into(),
        };
        let prep = Prepared::new(&input);
        let diags = run_rules(&prep);
        assert!(diags
            .iter()
            .any(|d| d.rule == "unsafe-audit" && d.message.contains("forbid")));
        let ok = FileInput {
            text: "#![forbid(unsafe_code)]\npub mod m;\n".into(),
            ..input
        };
        let prep = Prepared::new(&ok);
        assert!(run_rules(&prep).is_empty());
    }

    #[test]
    fn inline_format_args_parser() {
        assert_eq!(
            inline_format_args("\"a {body} b {count:>3} {{esc}} {} {0}\""),
            vec!["body".to_string(), "count".to_string()]
        );
    }
}
