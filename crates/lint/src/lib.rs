//! `dox-lint` — project-specific static analysis for the doxing
//! reproduction workspace.
//!
//! The pipeline handles highly sensitive synthetic PII (names, addresses,
//! SSNs) and promises byte-identical [`ExperimentReport`]s at any
//! worker/shard topology. Two of the resulting invariants — "document
//! content never reaches an unredacted log sink" and "no wall-clock or
//! unordered-map nondeterminism on report-producing paths" — cannot be
//! expressed as clippy lints, so this crate machine-checks them, plus
//! panic hygiene, lock discipline and an unsafe audit. It is
//! dependency-free (the workspace is offline; no `syn`): its own lexer
//! feeds an error-tolerant recursive-descent parser ([`parser`]), each
//! file flattens into a symbol model of functions and struct field
//! types ([`symbols`]), and the models merge into one workspace-wide
//! call graph ([`callgraph`]). Three token rules run per file
//! ([`rules`]); three interprocedural dataflow rules — [`taint`] (PII
//! sources to log/wire sinks, `redact()` the sole sanitizer),
//! [`lockorder`] (lock-acquisition cycles, guards held across blocking
//! calls, re-locks and guards bound to `_`) and [`detflow`]
//! (hash-ordered iteration into serialization) — run over the merged
//! model on one core: a shared fixpoint loop over per-function
//! summaries, and, for `pii-taint` and `determinism-flow`, one mask
//! walker that each rule parameterizes with its sources, sanitizers and
//! sinks.
//!
//! Run it from the quality gate:
//!
//! ```text
//! cargo run -p dox-lint --release -- --workspace
//! ```
//!
//! Findings print rustc-style (`file:line:col: rule: message`); the
//! process exits nonzero on any non-baselined finding and on stale
//! baseline entries. See DESIGN.md §"Static analysis" for the rule
//! catalogue, the `// dox-lint:allow(rule) reason` suppression syntax and
//! the `lint.toml` baseline workflow.
//!
//! [`ExperimentReport`]: ../dox_core/study/struct.ExperimentReport.html

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod callgraph;
pub mod config;
pub mod detflow;
pub mod diag;
mod flow;
pub mod lexer;
pub mod lockorder;
pub mod parser;
pub mod rules;
pub mod symbols;
pub mod taint;
pub mod walker;

use config::Config;
use diag::Diagnostic;
use rules::{Prepared, RULE_NAMES};
use std::collections::BTreeMap;
use std::path::Path;

/// The outcome of a workspace run, after the baseline is applied.
#[derive(Debug, Default)]
pub struct RunReport {
    /// Findings not covered by the baseline (gate failures).
    pub findings: Vec<Diagnostic>,
    /// Findings absorbed by `lint.toml` baseline entries.
    pub baselined: Vec<Diagnostic>,
    /// Baseline problems: entries matching nothing (stale) or fewer
    /// findings than recorded (overcounting) — both gate failures, so the
    /// baseline can only ever shrink truthfully.
    pub baseline_errors: Vec<String>,
    /// Number of files checked.
    pub files_checked: usize,
}

impl RunReport {
    /// Whether the gate should pass.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.baseline_errors.is_empty()
    }
}

/// Lint every checkable file under `root`: token rules per file, then
/// the workspace-level dataflow rules (`pii-taint`, `lock-order`,
/// `determinism-flow`) over the merged symbol model, then `config`'s
/// baseline.
pub fn run_workspace(root: &Path, config: &Config) -> std::io::Result<RunReport> {
    let files = walker::collect_files(root)?;
    let preps: Vec<Prepared> = files.iter().map(Prepared::new).collect();
    let mut all = Vec::new();
    for prep in &preps {
        all.extend(rules::run_rules(prep));
    }
    let models = preps
        .iter()
        .map(|p| symbols::FileModel::build(p.input, &parser::parse_file(&p.code)))
        .collect();
    let ws = callgraph::Workspace::build(models);
    let sup = rules::Suppressions::new(&preps);
    taint::check(&ws, &sup, &mut all);
    lockorder::check(&ws, &sup, &mut all);
    detflow::check(&ws, &sup, &mut all);
    all.sort_by_key(Diagnostic::sort_key);
    Ok(apply_baseline(all, config, files.len()))
}

/// Split raw findings into live vs. baselined, and validate the baseline
/// itself (every entry must match *exactly* its recorded count).
pub fn apply_baseline(diags: Vec<Diagnostic>, config: &Config, files_checked: usize) -> RunReport {
    let baseline = config.baseline_map();
    let mut counts: BTreeMap<(String, String), usize> = BTreeMap::new();
    for d in &diags {
        *counts
            .entry((d.file.clone(), d.rule.to_string()))
            .or_insert(0) += 1;
    }

    let mut report = RunReport {
        files_checked,
        ..RunReport::default()
    };
    for d in diags {
        let key = (d.file.clone(), d.rule.to_string());
        let found = counts.get(&key).copied().unwrap_or(0);
        let allowed = baseline.get(&key).copied().unwrap_or(0);
        if found <= allowed {
            report.baselined.push(d);
        } else {
            report.findings.push(d);
        }
    }
    for ((file, rule), allowed) in &baseline {
        let found = counts
            .get(&(file.clone(), rule.clone()))
            .copied()
            .unwrap_or(0);
        if found == 0 {
            report.baseline_errors.push(format!(
                "stale baseline entry: {file}: {rule}: {allowed} matches no finding — remove it"
            ));
        } else if found < *allowed {
            report.baseline_errors.push(format!(
                "baseline overcounts: {file}: {rule}: {allowed} but only {found} finding(s) \
                 remain — tighten it to {found}"
            ));
        }
        if !RULE_NAMES.contains(&rule.as_str()) {
            report.baseline_errors.push(format!(
                "baseline entry {file}: {rule}: {allowed} names an unknown rule \
                 (known: {})",
                RULE_NAMES.join(", ")
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::BaselineEntry;

    fn diag(file: &str, rule: &'static str) -> Diagnostic {
        Diagnostic::new(file, 1, 1, rule, "m")
    }

    fn cfg_with(entries: Vec<BaselineEntry>) -> Config {
        Config { baseline: entries }
    }

    fn entry(file: &str, rule: &str, count: usize) -> BaselineEntry {
        BaselineEntry {
            file: file.into(),
            rule: rule.into(),
            count,
        }
    }

    #[test]
    fn exact_baseline_absorbs_findings() {
        let cfg = cfg_with(vec![entry("a.rs", "panic-hygiene", 2)]);
        let r = apply_baseline(
            vec![diag("a.rs", "panic-hygiene"), diag("a.rs", "panic-hygiene")],
            &cfg,
            1,
        );
        assert!(r.is_clean(), "{r:?}");
        assert_eq!(r.baselined.len(), 2);
    }

    #[test]
    fn excess_findings_fail_entirely() {
        // One more finding than baselined: the whole group surfaces so the
        // developer sees every candidate site, not an arbitrary one.
        let cfg = cfg_with(vec![entry("a.rs", "panic-hygiene", 1)]);
        let r = apply_baseline(
            vec![diag("a.rs", "panic-hygiene"), diag("a.rs", "panic-hygiene")],
            &cfg,
            1,
        );
        assert!(!r.is_clean());
        assert_eq!(r.findings.len(), 2);
    }

    #[test]
    fn stale_and_overcounting_entries_fail() {
        let cfg = cfg_with(vec![
            entry("gone.rs", "panic-hygiene", 1),
            entry("a.rs", "determinism", 5),
        ]);
        let r = apply_baseline(vec![diag("a.rs", "determinism")], &cfg, 1);
        assert!(!r.is_clean());
        assert_eq!(r.baseline_errors.len(), 2, "{:?}", r.baseline_errors);
        assert!(r.baseline_errors[1].contains("stale") || r.baseline_errors[0].contains("stale"));
    }

    #[test]
    fn unknown_rule_in_baseline_fails() {
        let cfg = cfg_with(vec![entry("a.rs", "no-such-rule", 1)]);
        let r = apply_baseline(vec![diag("a.rs", "no-such-rule")], &cfg, 1);
        assert!(!r.is_clean());
        assert!(r.baseline_errors[0].contains("unknown rule"));
    }

    #[test]
    fn clean_run_is_clean() {
        let r = apply_baseline(Vec::new(), &Config::default(), 42);
        assert!(r.is_clean());
        assert_eq!(r.files_checked, 42);
    }
}
