//! `lint.toml`: the checked-in baseline.
//!
//! The file is read with a small TOML-subset reader (sections, string /
//! integer / boolean values, and string arrays that may span lines) so the
//! analyzer stays dependency-free. A missing `lint.toml` means "strict,
//! empty baseline". The rules have no knobs: their source, sink and
//! blocking-call tables are constants in the rule modules (`taint`,
//! `detflow`, `lockorder`), so a change to what a rule checks is a
//! reviewed code change.
//!
//! ```toml
//! [baseline]
//! entries = [
//!     # "<file>: <rule>: <count>" — exactly <count> findings of <rule>
//!     # in <file> are tolerated; more is a failure, fewer is stale.
//!     "crates/geo/src/alloc.rs: panic-hygiene: 2",
//! ]
//! ```
//!
//! Unknown sections and keys — including the retired rule tables
//! (`[pii-taint]`, `[lock-order]`, `[determinism-flow]`) and the v1
//! `[pii-sink]`/`[determinism]` keys — are ignored.

use std::collections::BTreeMap;

/// One tolerated pocket of findings: exactly `count` findings of `rule`
/// in `file`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative path.
    pub file: String,
    /// Rule name.
    pub rule: String,
    /// Number of findings grandfathered in.
    pub count: usize,
}

/// Parsed configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Grandfathered findings.
    pub baseline: Vec<BaselineEntry>,
}

impl Config {
    /// Parse a `lint.toml` document. Unknown sections and keys are
    /// ignored (forward compatibility); malformed lines are errors.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut config = Config::default();
        for (section, key, value) in parse_toml_subset(text)? {
            if section == "baseline" && key == "entries" {
                config.baseline = value
                    .into_strings()?
                    .iter()
                    .map(|s| parse_baseline_entry(s))
                    .collect::<Result<_, _>>()?;
            }
        }
        Ok(config)
    }

    /// Baseline allowances grouped by `(file, rule)`.
    pub fn baseline_map(&self) -> BTreeMap<(String, String), usize> {
        let mut map = BTreeMap::new();
        for e in &self.baseline {
            *map.entry((e.file.clone(), e.rule.clone())).or_insert(0) += e.count;
        }
        map
    }
}

/// `"<file>: <rule>: <count>"`.
fn parse_baseline_entry(s: &str) -> Result<BaselineEntry, String> {
    let parts: Vec<&str> = s.rsplitn(3, ':').collect();
    if parts.len() != 3 {
        return Err(format!(
            "baseline entry {s:?} is not \"<file>: <rule>: <count>\""
        ));
    }
    let count = parts[0]
        .trim()
        .parse::<usize>()
        .map_err(|_| format!("baseline entry {s:?}: count {:?} is not a number", parts[0]))?;
    Ok(BaselineEntry {
        file: parts[2].trim().to_string(),
        rule: parts[1].trim().to_string(),
        count,
    })
}

/// A parsed TOML-subset value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Quoted string.
    Str(String),
    /// Integer literal.
    Int(i64),
    /// `true` / `false`.
    Bool(bool),
    /// Array of quoted strings.
    StrArray(Vec<String>),
}

impl Value {
    fn into_strings(self) -> Result<Vec<String>, String> {
        match self {
            Value::StrArray(v) => Ok(v),
            Value::Str(s) => Ok(vec![s]),
            other => Err(format!("expected a string array, found {other:?}")),
        }
    }
}

/// Strip a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '\\' if in_str && !escape => {
                escape = true;
                continue;
            }
            '"' if !escape => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
        escape = false;
    }
    line
}

/// Parse into `(section, key, value)` triples in document order.
fn parse_toml_subset(text: &str) -> Result<Vec<(String, String, Value)>, String> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((n, raw)) = lines.next() {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let name = rest
                .strip_suffix(']')
                .ok_or_else(|| format!("line {}: unterminated section header", n + 1))?;
            section = name.trim().trim_matches('"').to_string();
            continue;
        }
        let (key, mut rhs) = line
            .split_once('=')
            .map(|(k, v)| (k.trim().trim_matches('"').to_string(), v.trim().to_string()))
            .ok_or_else(|| format!("line {}: expected `key = value`", n + 1))?;
        // Multiline arrays: keep consuming lines until brackets balance.
        if rhs.starts_with('[') {
            while !array_closed(&rhs) {
                let (_, next) = lines
                    .next()
                    .ok_or_else(|| format!("line {}: unterminated array", n + 1))?;
                rhs.push(' ');
                rhs.push_str(strip_comment(next).trim());
            }
        }
        out.push((section.clone(), key, parse_value(&rhs, n + 1)?));
    }
    Ok(out)
}

/// Whether a (comment-stripped, concatenated) array literal is closed.
fn array_closed(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        match c {
            '\\' if in_str && !escape => {
                escape = true;
                continue;
            }
            '"' if !escape => in_str = !in_str,
            '[' if !in_str => depth += 1,
            ']' if !in_str => depth -= 1,
            _ => {}
        }
        escape = false;
    }
    depth == 0
}

fn parse_value(s: &str, line: usize) -> Result<Value, String> {
    let s = s.trim();
    if let Some(body) = s.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| format!("line {line}: unterminated array"))?;
        let mut items = Vec::new();
        for item in split_top_level(body) {
            let item = item.trim();
            if item.is_empty() {
                continue;
            }
            match parse_value(item, line)? {
                Value::Str(v) => items.push(v),
                other => return Err(format!("line {line}: non-string array item {other:?}")),
            }
        }
        return Ok(Value::StrArray(items));
    }
    if let Some(body) = s.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| format!("line {line}: unterminated string"))?;
        return Ok(Value::Str(unescape(body)));
    }
    match s {
        "true" => return Ok(Value::Bool(true)),
        "false" => return Ok(Value::Bool(false)),
        _ => {}
    }
    s.parse::<i64>()
        .map(Value::Int)
        .map_err(|_| format!("line {line}: cannot parse value {s:?}"))
}

/// Split an array body on top-level commas (commas inside strings don't
/// count).
fn split_top_level(s: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    let mut escape = false;
    for c in s.chars() {
        match c {
            '\\' if in_str && !escape => {
                escape = true;
                cur.push(c);
                continue;
            }
            '"' if !escape => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
        escape = false;
    }
    if !cur.trim().is_empty() {
        items.push(cur);
    }
    items
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('t') => out.push('\t'),
                Some('r') => out.push('\r'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_without_file() {
        assert!(Config::default().baseline.is_empty());
        assert!(Config::parse("").expect("parses").baseline.is_empty());
    }

    #[test]
    fn parses_sections_and_arrays() {
        let c = Config::parse(
            r#"
# comment
[pii-taint]
source_fields = ["SynthDoc.body", "ssn"]  # inline comment
sink_methods = ["emit"]
allow_crates = ["synth", "demo"]

[lock-order]
blocking_methods = ["accept"]

[determinism-flow]
sink_fns = [
    "serde_json::to_string",
    "to_value",
]

[baseline]
entries = [
    "crates/geo/src/alloc.rs: panic-hygiene: 2",
]
"#,
        )
        .expect("parses");
        // The retired rule-table sections parse and are ignored.
        assert_eq!(
            c.baseline,
            vec![BaselineEntry {
                file: "crates/geo/src/alloc.rs".into(),
                rule: "panic-hygiene".into(),
                count: 2
            }]
        );
    }

    #[test]
    fn retired_v1_keys_are_ignored() {
        // `[pii-sink] deny` and `[determinism] ordered_paths` no longer
        // exist; old configs still parse (unknown keys are skipped).
        let c = Config::parse(
            "[pii-sink]\ndeny = [\"body\"]\n[determinism]\nordered_paths = [\"x.rs\"]\n",
        )
        .expect("parses");
        assert!(c.baseline.is_empty());
    }

    #[test]
    fn baseline_entry_with_windows_free_paths() {
        // rsplitn keeps any colon inside the path out of rule/count.
        let e = parse_baseline_entry("a:b/c.rs: determinism: 3").expect("parses");
        assert_eq!(e.file, "a:b/c.rs");
        assert_eq!(e.rule, "determinism");
        assert_eq!(e.count, 3);
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let c = Config::parse("[baseline]\nentries = [\"a#b.rs: r: 1\"]\n").expect("parses");
        assert_eq!(c.baseline[0].file, "a#b.rs");
    }

    #[test]
    fn malformed_lines_are_errors() {
        assert!(Config::parse("[open\n").is_err());
        assert!(Config::parse("key value\n").is_err());
        assert!(Config::parse("[baseline]\nentries = [\"no-count\"]").is_err());
        assert!(Config::parse("[pii-taint]\nsource_fields = [\n\"open\"").is_err());
    }

    #[test]
    fn baseline_map_merges_duplicate_keys() {
        let c = Config::parse("[baseline]\nentries = [\"f.rs: r: 1\", \"f.rs: r: 2\"]\n")
            .expect("parses");
        assert_eq!(c.baseline_map().get(&("f.rs".into(), "r".into())), Some(&3));
    }
}
