//! Per-rule fixture tests.
//!
//! Each file under `fixtures/` carries deliberate violations of exactly
//! one rule (the workspace walker skips `fixtures/` directories, so they
//! never trip the real gate). These tests assert the *exact* diagnostics
//! — file, line, column and rule — so any drift in the lexer, parser or
//! rule logic shows up as a precise diff.

use dox_lint::callgraph::Workspace;
use dox_lint::parser::parse_file;
use dox_lint::rules::{run_rules, FileClass, FileInput, Prepared, Suppressions};
use dox_lint::symbols::FileModel;
use dox_lint::{detflow, lockorder, taint};

/// Lint `text` with the per-file token rules, as the library file `rel`
/// of crate `demo`.
fn lint(rel: &str, text: &str) -> Vec<(u32, u32, String)> {
    let input = FileInput {
        rel: rel.to_string(),
        class: FileClass::Library,
        crate_name: Some("demo".to_string()),
        text: text.to_string(),
    };
    let prep = Prepared::new(&input);
    run_rules(&prep)
        .into_iter()
        .map(|d| (d.line, d.col, d.rule.to_string()))
        .collect()
}

/// Lint `text` with the three workspace dataflow rules (pii-taint,
/// lock-order, determinism-flow) as a one-file workspace.
fn lint_flow(rel: &str, text: &str) -> Vec<(u32, u32, String)> {
    let input = FileInput {
        rel: rel.to_string(),
        class: FileClass::Library,
        crate_name: Some("demo".to_string()),
        text: text.to_string(),
    };
    let preps = vec![Prepared::new(&input)];
    let models = preps
        .iter()
        .map(|p| FileModel::build(p.input, &parse_file(&p.code)))
        .collect();
    let ws = Workspace::build(models);
    let sup = Suppressions::new(&preps);
    let mut out = Vec::new();
    taint::check(&ws, &sup, &mut out);
    lockorder::check(&ws, &sup, &mut out);
    detflow::check(&ws, &sup, &mut out);
    out.sort_by_key(|d| (d.line, d.col));
    out.into_iter()
        .map(|d| (d.line, d.col, d.rule.to_string()))
        .collect()
}

#[test]
fn panic_hygiene_fixture() {
    let got = lint(
        "crates/demo/src/panic_hygiene.rs",
        include_str!("fixtures/panic_hygiene.rs"),
    );
    // The `justified` unwrap (inline allow) and the `#[cfg(test)]` unwrap
    // produce nothing.
    assert_eq!(
        got,
        vec![
            (4, 7, "panic-hygiene".to_string()),
            (8, 7, "panic-hygiene".to_string()),
            (12, 5, "panic-hygiene".to_string()),
        ]
    );
}

#[test]
fn determinism_fixture_flags_wall_clock_only() {
    // Since the determinism-flow rule took over container tracking, the
    // token rule's only job is wall-clock/entropy calls: a HashMap
    // mention alone is not a finding.
    let got = lint(
        "crates/demo/src/determinism.rs",
        include_str!("fixtures/determinism.rs"),
    );
    assert_eq!(got, vec![(7, 17, "determinism".to_string())]);
}

#[test]
fn lock_discipline_fixture() {
    // Guard discipline is part of the lock-order dataflow rule.
    let got = lint_flow(
        "crates/demo/src/lock_discipline.rs",
        include_str!("fixtures/lock_discipline.rs"),
    );
    assert_eq!(
        got,
        vec![
            (6, 5, "lock-order".to_string()),   // let _ = m.lock()
            (11, 19, "lock-order".to_string()), // re-lock while `guard` is live
        ]
    );
}

#[test]
fn unsafe_audit_fixture() {
    let got = lint(
        "crates/demo/src/lib.rs",
        include_str!("fixtures/unsafe_audit.rs"),
    );
    assert_eq!(
        got,
        vec![
            (1, 1, "unsafe-audit".to_string()), // crate root missing forbid(unsafe_code)
            (3, 5, "unsafe-audit".to_string()), // the `unsafe` keyword itself
        ]
    );
}

#[test]
fn pii_taint_fixture() {
    let got = lint_flow(
        "crates/demo/src/pii_taint.rs",
        include_str!("fixtures/pii_taint.rs"),
    );
    let rules: Vec<&str> = got.iter().map(|(_, _, r)| r.as_str()).collect();
    assert!(rules.iter().all(|r| *r == "pii-taint"), "{got:?}");
    let lines: Vec<u32> = got.iter().map(|(l, _, _)| *l).collect();
    // leaks_directly (14), leaks_through_local (20), the call site inside
    // leaks_interprocedurally (24), and the receiver-mutation leaks
    // through `push` (47) and `push_str` (53). The redact()-wrapped,
    // length-only, non-PII-field and allow-suppressed functions are all
    // clean.
    assert_eq!(lines, vec![14, 20, 24, 47, 53], "{got:?}");
}

#[test]
fn pii_taint_suppression_round_trip() {
    // Stripping the allow comment from the fixture must surface exactly
    // one extra finding on the previously suppressed line — proving the
    // suppression (and only it) was holding that finding back.
    let text = include_str!("fixtures/pii_taint.rs").replace(
        "// dox-lint:allow(pii-taint) fixture: demonstrates the escape hatch",
        "",
    );
    let with_allow = lint_flow(
        "crates/demo/src/pii_taint.rs",
        include_str!("fixtures/pii_taint.rs"),
    );
    let without_allow = lint_flow("crates/demo/src/pii_taint.rs", &text);
    assert_eq!(
        without_allow.len(),
        with_allow.len() + 1,
        "{without_allow:?}"
    );
    assert!(
        without_allow.iter().any(|(l, _, _)| *l == 41),
        "{without_allow:?}"
    );
}

#[test]
fn lock_order_fixture() {
    let got = lint_flow(
        "crates/demo/src/lock_order.rs",
        include_str!("fixtures/lock_order.rs"),
    );
    let rules: Vec<&str> = got.iter().map(|(_, _, r)| r.as_str()).collect();
    assert!(rules.iter().all(|r| *r == "lock-order"), "{got:?}");
    let lines: Vec<u32> = got.iter().map(|(l, _, _)| *l).collect();
    // The a→b edge in ab() (13) and the b→a edge in ba() (20) each close
    // the cycle; guard_across_io holds `Pair.a` across fs::write (27).
    // sequential_is_fine produces nothing.
    assert_eq!(lines, vec![13, 20, 27], "{got:?}");
}

#[test]
fn determinism_flow_fixture() {
    let got = lint_flow(
        "crates/demo/src/determinism_flow.rs",
        include_str!("fixtures/determinism_flow.rs"),
    );
    let rules: Vec<&str> = got.iter().map(|(_, _, r)| r.as_str()).collect();
    assert!(rules.iter().all(|r| *r == "determinism-flow"), "{got:?}");
    let lines: Vec<u32> = got.iter().map(|(l, _, _)| *l).collect();
    // Only leaks_unordered serializes hash-ordered rows (11); the sorted
    // and BTree-collected variants are clean, and so is the index of an
    // enumerated hash iteration (a counter, not an element).
    assert_eq!(lines, vec![11], "{got:?}");
}
