//! `determinism-flow`: unordered-iteration values must not reach
//! serialization.
//!
//! [`ExperimentReport`]s, engine checkpoints and the serve wire format
//! all promise byte-identical output for identical `(config, seed)`.
//! `HashMap`/`HashSet` iteration order is salted per process, so any
//! value *derived from* iterating one is nondeterministic — and a
//! finding the moment it flows into `serde_json::to_string`/`to_vec`
//! or a `.to_value()` conversion.
//!
//! The rule follows the *value*, not the container: owning a `HashMap`
//! is fine, iterating it into a `Vec` that gets serialized is not. It
//! runs on the shared mask walker (`flow.rs`), where the mark bit means
//! "derived from unordered iteration", so the flow is followed across
//! function boundaries exactly as `pii-taint` follows PII.
//!
//! Ordering sanitizers cut the flow:
//! * collecting into an ordered container (`collect::<BTreeMap<_, _>>()`
//!   turbofish, or a `let` annotated with a `BTree*` type);
//! * an explicit `sort` / `sort_by` / `sort_unstable*` / `sort_by_key`
//!   on the binding, or a call to a function that sorts the parameter
//!   the binding is passed as (`order(&mut rows)`; the callee's summary
//!   records which parameters it sorts);
//! * order-insensitive reductions (`sum`, `product`, `count`, `len`,
//!   `max`, `min`, `max_by_key`, `min_by_key`, `all`, `any`; `fold` is
//!   *not* assumed commutative and stays unordered).
//!
//! Sources are typed-only: the rule fires on `iter()`/`keys()`/… only
//! when the receiver resolves to a `HashMap`/`HashSet` through the
//! symbol model. An unresolvable receiver is *not* assumed unordered —
//! unlike PII taint, the cost of a miss here is a flaky diff, not a
//! leak, so the rule trades recall for a near-zero false-positive rate.
//!
//! [`ExperimentReport`]: ../dox_core/study/struct.ExperimentReport.html

use crate::callgraph::Workspace;
use crate::diag::Diagnostic;
use crate::flow::{self, CallRole, MethodSite, Policy, Walker, MARK};
use crate::parser::Ty;
use crate::rules::Suppressions;

/// The rule name.
pub const RULE: &str = "determinism-flow";

/// `(module, fn)` serialization sinks (`serde_json::to_string`).
const SINK_FNS: [(&str, &str); 3] = [
    ("serde_json", "to_string"),
    ("serde_json", "to_string_pretty"),
    ("serde_json", "to_vec"),
];

/// Serialization sink methods (`.to_value()`).
const SINK_METHODS: [&str; 1] = ["to_value"];

/// Iteration methods that surface a container's (unordered) elements.
const ITER_METHODS: [&str; 8] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_keys",
];

/// Reductions whose result does not depend on iteration order.
const ORDER_FREE: [&str; 10] = [
    "sum",
    "product",
    "count",
    "len",
    "max",
    "min",
    "max_by_key",
    "min_by_key",
    "all",
    "any",
];

/// In-place sorts that establish a deterministic order.
const SORTS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];

/// Whether a type is (a wrapper around) an unordered std container.
fn is_unordered_ty(ty: &Ty) -> bool {
    matches!(ty.peeled().name.as_str(), "HashMap" | "HashSet")
}

/// Whether a type name imposes a deterministic order when collected into.
fn is_ordered_collect(ty: &Ty) -> bool {
    matches!(
        ty.name.as_str(),
        "BTreeMap" | "BTreeSet" | "BinaryHeap" | "BTreeIndex"
    )
}

/// Run the rule over the whole workspace.
pub fn check(ws: &Workspace, sup: &Suppressions<'_>, out: &mut Vec<Diagnostic>) {
    flow::fixpoint(ws, RULE, sup, out, |summaries, id, findings| {
        flow::walk(ws, &DetFlow, summaries, id, findings)
    });
}

/// The `determinism-flow` policy for the shared walker.
struct DetFlow;

impl Policy for DetFlow {
    /// `let x: BTreeMap<…> = …collect();` — the annotation is the
    /// ordering sanitizer.
    fn clears_on_bind(&self, ty: &Ty) -> bool {
        is_ordered_collect(ty)
    }

    /// `for k in map` / `for (k, v) in &map`: iterating the container
    /// itself is the unordered source.
    fn iter_source(&self, ty: &Ty) -> bool {
        is_unordered_ty(ty)
    }

    fn call_role(&self, segs: &[String]) -> CallRole {
        if flow::path_ends_in(segs, &SINK_FNS) {
            CallRole::Sink(segs.join("::"))
        } else {
            CallRole::Plain
        }
    }

    fn method(&self, w: &mut Walker<'_, '_>, site: &MethodSite<'_>) -> Option<u64> {
        let recv_mask = site.masks[0];
        if ITER_METHODS.contains(&site.method) && site.recv_ty.is_some_and(is_unordered_ty) {
            Some(recv_mask | MARK)
        } else if site.method == "collect" && site.turbofish.first().is_some_and(is_ordered_collect)
        {
            Some(recv_mask & !MARK)
        } else if SORTS.contains(&site.method) {
            w.clear_mark(site.recv);
            Some(0)
        } else if ORDER_FREE.contains(&site.method) {
            Some(0)
        } else if SINK_METHODS.contains(&site.method) {
            let sink = format!(".{}()", site.method);
            w.sink_hit(&[(None, recv_mask)], &sink, site.line, site.col);
            Some(0)
        } else {
            None
        }
    }

    fn sink_message(&self, _what: &str, sink: &str) -> String {
        format!(
            "value derived from HashMap/HashSet iteration reaches `{sink}` — \
             serialized output must be deterministic; sort or collect into a \
             BTree container before serializing"
        )
    }

    fn callee_message(&self, i: usize, label: &str, callee: &str) -> String {
        format!(
            "unordered-iteration value in argument {i} of `{label}` is \
             serialized inside `{callee}` — impose an order (sort, or \
             collect into a BTree container) first"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::tests::check_sources;

    const STATE: &str = "pub struct State { counts: HashMap<String, u64> }\n";

    #[test]
    fn iteration_into_serialization_flagged() {
        let diags = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!(
                    "{STATE}impl State {{\nfn dump(&self) -> String {{\n\
                 let rows: Vec<String> = self.counts.iter().map(|kv| fmt(kv)).collect();\n\
                 serde_json::to_string(&rows).unwrap()\n}}\n}}"
                ),
            )],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
        assert!(
            diags[0].message.contains("serde_json::to_string"),
            "{diags:?}"
        );
    }

    #[test]
    fn btree_collect_sanitizes() {
        let turbofish = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!(
                    "{STATE}impl State {{\nfn dump(&self) -> String {{\n\
                 let rows = self.counts.iter().collect::<BTreeMap<_, _>>();\n\
                 serde_json::to_string(&rows).unwrap()\n}}\n}}"
                ),
            )],
        );
        assert!(turbofish.is_empty(), "{turbofish:?}");
        let annotated = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!(
                    "{STATE}impl State {{\nfn dump(&self) -> String {{\n\
                 let rows: BTreeMap<String, u64> = self.counts.clone().into_iter().collect();\n\
                 serde_json::to_string(&rows).unwrap()\n}}\n}}"
                ),
            )],
        );
        assert!(annotated.is_empty(), "{annotated:?}");
    }

    #[test]
    fn sort_sanitizes() {
        let diags = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!(
                    "{STATE}impl State {{\nfn dump(&self) -> String {{\n\
                 let mut rows: Vec<String> = self.counts.keys().cloned().collect();\n\
                 rows.sort();\n\
                 serde_json::to_string(&rows).unwrap()\n}}\n}}"
                ),
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    /// The `dump` body shared by the sort-in-a-helper fixtures: the
    /// unordered `rows` go through `call` (e.g. `order(&mut rows)`)
    /// before serializing.
    fn helper_fixture(helpers: &str, call: &str) -> Vec<Diagnostic> {
        check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!(
                    "{STATE}{helpers}\nimpl State {{\nfn dump(&self) -> String {{\n\
                 let mut rows = self.counts.keys().cloned().collect();\n\
                 {call};\n\
                 serde_json::to_string(&rows).unwrap()\n}}\n}}"
                ),
            )],
        )
    }

    #[test]
    fn sort_inside_a_helper_sanitizes_the_callers_argument() {
        let direct = helper_fixture(
            "fn order(rows: &mut Vec<String>) { rows.sort(); }",
            "order(&mut rows)",
        );
        assert!(direct.is_empty(), "{direct:?}");
        let transitive = helper_fixture(
            "fn order(rows: &mut Vec<String>) { tidy(rows); }\n\
             fn tidy(v: &mut Vec<String>) { v.sort_unstable(); }",
            "order(&mut rows)",
        );
        assert!(transitive.is_empty(), "{transitive:?}");
        let method = helper_fixture(
            "impl State { fn order(&self, rows: &mut Vec<String>) { rows.sort(); } }",
            "self.order(&mut rows)",
        );
        assert!(method.is_empty(), "{method:?}");
    }

    #[test]
    fn helper_that_does_not_sort_its_parameter_keeps_the_finding() {
        let untouched = helper_fixture(
            "fn order(rows: &mut Vec<String>) { rows.push(String::new()); }",
            "order(&mut rows)",
        );
        assert_eq!(untouched.len(), 1, "{untouched:?}");
        // Sorting a shadowing local is not a sort of the parameter.
        let shadowed = helper_fixture(
            "fn order(rows: &mut Vec<String>) { let mut rows = rows.clone(); rows.sort(); }",
            "order(&mut rows)",
        );
        assert_eq!(shadowed.len(), 1, "{shadowed:?}");
        // A method that sorts its receiver's field, not the argument.
        let other_param = helper_fixture(
            "impl State { fn order(&mut self, rows: &mut Vec<String>) { self.keys.sort(); } }",
            "self.order(&mut rows)",
        );
        assert_eq!(other_param.len(), 1, "{other_param:?}");
    }

    #[test]
    fn order_free_reductions_are_clean() {
        let diags = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!(
                    "{STATE}impl State {{\nfn dump(&self) -> String {{\n\
                 let total: u64 = self.counts.values().sum();\n\
                 serde_json::to_string(&total).unwrap()\n}}\n}}"
                ),
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn for_loop_accumulation_flagged() {
        let diags = check_sources(
            check,
            &[(
                "crates/core/src/x.rs",
                &format!(
                    "{STATE}impl State {{\nfn dump(&self) -> String {{\n\
                 let mut rows = Vec::new();\n\
                 for (k, v) in &self.counts {{ rows.push(format!(\"{{k}}={{v}}\")); }}\n\
                 serde_json::to_string(&rows).unwrap()\n}}\n}}"
                ),
            )],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn interprocedural_flow_reported_at_call_site() {
        let diags = check_sources(check, &[
            ("crates/core/src/model.rs", STATE),
            (
                "crates/core/src/ser.rs",
                "fn encode(rows: Vec<String>) -> String { serde_json::to_string(&rows).unwrap() }",
            ),
            (
                "crates/engine/src/y.rs",
                "fn dump(s: &State) -> String {\n\
                 let rows: Vec<String> = s.counts.keys().cloned().collect();\n\
                 encode(rows)\n}",
            ),
        ]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "crates/engine/src/y.rs");
        assert!(diags[0].message.contains("encode"), "{diags:?}");
    }

    #[test]
    fn untyped_receiver_is_not_assumed_unordered() {
        // `rows.iter()` on an unknown type: no finding (typed-only rule).
        let diags = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                "fn dump(rows: &Rows) -> String {\n\
             let v: Vec<String> = rows.items.iter().cloned().collect();\n\
             serde_json::to_string(&v).unwrap()\n}",
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn to_value_method_is_a_sink() {
        let diags = check_sources(
            check,
            &[(
                "crates/serve/src/x.rs",
                &format!(
                    "{STATE}impl State {{\nfn dump(&self) {{\n\
                 let rows: Vec<String> = self.counts.keys().cloned().collect();\n\
                 let v = rows.to_value();\n}}\n}}"
                ),
            )],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn suppression_is_honored() {
        let diags = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                &format!(
                    "{STATE}impl State {{\nfn dump(&self) -> String {{\n\
                 let rows: Vec<String> = self.counts.keys().cloned().collect();\n\
                 // dox-lint:allow(determinism-flow) diagnostic dump, order-insensitive consumer\n\
                 serde_json::to_string(&rows).unwrap()\n}}\n}}"
                ),
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
