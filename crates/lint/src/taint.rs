//! `pii-taint`: interprocedural taint analysis from PII sources to
//! log/wire sinks, with `dox_obs::redact()` as the sole sanitizer.
//!
//! A value is dangerous because of where it *came from* (a document
//! body, an extracted handle, synthetic ground truth), not because of
//! what a variable happens to be named — renaming `body` to `payload`
//! does not hide a leak. The rule runs on the shared mask walker
//! (`flow.rs`): the mark bit means "derived from a PII source", and
//! per-function summaries carry a leak across functions and crates to
//! the exact sink (or call) site.
//!
//! * **Sources** — typed struct-field reads (`TYPED_SOURCES`:
//!   `SynthDoc.body`, `OsnRef.handle`, `ExtractedFields.ssns`, …) when
//!   the receiver type resolves to a workspace struct; a bare field-name
//!   fallback (`BARE_SOURCES`: `.body`, `.handle`, …) when it does not.
//! * **Sinks** — the print macros (`println!`, `eprintln!`, …),
//!   `write!`/`writeln!` to a writer that is not a local `String`/`Vec`
//!   buffer, the `SINK_METHODS` (`.emit(…)` events, `Tracer::hop`
//!   notes), and the `SINK_FNS` (the HTTP response constructors).
//!   `format!`, `vec!` and writes into a buffer only compose.
//! * **Sanitizer** — a `redact(…)` call erases taint (its display form
//!   is a length+fingerprint, never content). Nothing else does.
//!
//! The `EXEMPT_CRATE` (the synthetic-PII generator) is exempt.

use crate::callgraph::Workspace;
use crate::diag::Diagnostic;
use crate::flow::{self, CallRole, MethodSite, Policy, Summary, Walker};
use crate::parser::Ty;
use crate::rules::Suppressions;

/// The rule name.
pub const RULE: &str = "pii-taint";

/// `(struct, field)` reads that are PII sources when the receiver type
/// resolves: the synthetic data model's content and ground truth, and
/// every extractor output field.
const TYPED_SOURCES: [(&str, &str); 17] = [
    ("CollectedDoc", "body"),
    ("SynthDoc", "body"),
    ("SynthDoc", "truth"),
    ("OsnRef", "handle"),
    ("Persona", "first_name"),
    ("Persona", "last_name"),
    ("Persona", "dob"),
    ("Persona", "address"),
    ("ExtractedFields", "first_name"),
    ("ExtractedFields", "last_name"),
    ("ExtractedFields", "dob"),
    ("ExtractedFields", "phones"),
    ("ExtractedFields", "emails"),
    ("ExtractedFields", "ips"),
    ("ExtractedFields", "address"),
    ("ExtractedFields", "zip"),
    ("ExtractedFields", "ssns"),
];

/// Field names that are sources when the receiver type is unknown to
/// the symbol model.
const BARE_SOURCES: [&str; 11] = [
    "body", "truth", "handle", "ssn", "ssns", "address", "phone", "phones", "email", "emails",
    "dob",
];

/// `Type::fn` calls that are wire sinks.
const SINK_FNS: [(&str, &str); 3] = [
    ("Response", "ok"),
    ("Response", "json"),
    ("Response", "error"),
];

/// Methods that are log sinks on any receiver.
const SINK_METHODS: [&str; 2] = ["emit", "hop"];

/// The crate (under `crates/`) exempt from the rule: the synthetic-corpus
/// generator, whose whole job is fabricating PII-shaped text.
const EXEMPT_CRATE: &str = "synth";

/// Print-style macros that are always sinks.
const SINK_MACROS: [&str; 4] = ["println", "eprintln", "print", "eprint"];

/// Run the rule over the whole workspace.
pub fn check(ws: &Workspace, sup: &Suppressions<'_>, out: &mut Vec<Diagnostic>) {
    flow::fixpoint(ws, RULE, sup, out, |summaries, id, findings| {
        if ws.file_of(id).crate_name.as_deref() == Some(EXEMPT_CRATE) {
            return Summary::default();
        }
        flow::walk(ws, &Taint, summaries, id, findings)
    });
}

/// The `pii-taint` policy for the shared walker.
struct Taint;

impl Policy for Taint {
    fn field_source(&self, base_ty: Option<&Ty>, field: &str) -> bool {
        match base_ty {
            Some(ty) => TYPED_SOURCES.contains(&(ty.peeled().name.as_str(), field)),
            None => BARE_SOURCES.contains(&field),
        }
    }

    fn macro_sink(&self, name: &str, buffer: bool) -> Option<String> {
        if SINK_MACROS.contains(&name) {
            Some(format!("`{name}!`"))
        } else if (name == "write" || name == "writeln") && !buffer {
            Some(format!("`{name}!` to a writer"))
        } else {
            None
        }
    }

    fn call_role(&self, segs: &[String]) -> CallRole {
        if segs.last().is_some_and(|s| s == "redact") {
            CallRole::Sanitizer
        } else if flow::path_ends_in(segs, &SINK_FNS) {
            CallRole::Sink(format!("`{}`", segs[segs.len() - 2..].join("::")))
        } else {
            CallRole::Plain
        }
    }

    fn method(&self, w: &mut Walker<'_, '_>, site: &MethodSite<'_>) -> Option<u64> {
        // A length or element count of a tainted collection carries no
        // content.
        if matches!(site.method, "len" | "is_empty" | "count") && site.masks.len() == 1 {
            return Some(0);
        }
        if SINK_METHODS.contains(&site.method) {
            let args: Vec<_> = site.masks[1..].iter().map(|m| (None, *m)).collect();
            let sink = format!("`.{}(…)`", site.method);
            w.sink_hit(&args, &sink, site.line, site.col);
            return Some(0);
        }
        None
    }

    fn sink_message(&self, what: &str, sink: &str) -> String {
        format!(
            "PII-tainted {what} reaches {sink} unredacted — wrap the value \
             in dox_obs::redact() (the only sanctioned sanitizer)"
        )
    }

    fn callee_message(&self, i: usize, label: &str, callee: &str) -> String {
        format!(
            "PII-tainted argument {i} of `{label}` reaches a log/wire \
             sink inside `{callee}` — redact() before the call or \
             inside the callee"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::tests::check_sources;

    const DATA_MODEL: &str = "
pub struct SynthDoc { pub id: u64, pub body: String, pub truth: GroundTruth }
pub struct CollectedDoc { pub doc: SynthDoc, pub collected_at: SimTime }
";

    #[test]
    fn direct_field_to_macro_sink() {
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/engine/src/x.rs",
                    "fn log(doc: &CollectedDoc) { eprintln!(\"{}\", doc.doc.body); }",
                ),
            ],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE);
        assert_eq!(diags[0].file, "crates/engine/src/x.rs");
        // Reported at the sink itself.
        assert_eq!(diags[0].col, 30, "{diags:?}");
    }

    #[test]
    fn rename_does_not_hide_the_leak() {
        // The old pii-sink heuristic matched the *name* `body`; the taint
        // rule follows the value through an innocently-named local.
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/engine/src/x.rs",
                    "fn log(doc: &CollectedDoc) { let payload = doc.doc.body.clone(); \
                 println!(\"{payload}\"); }",
                ),
            ],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn redact_sanitizes() {
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/engine/src/x.rs",
                    "fn log(doc: &CollectedDoc) { eprintln!(\"{}\", redact(&doc.doc.body)); }",
                ),
            ],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn interprocedural_leak_through_helper() {
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/engine/src/x.rs",
                    "fn describe(d: &CollectedDoc) -> String { format!(\"{}\", d.doc.body) }\n\
                 fn log(doc: &CollectedDoc) { let s = describe(doc); println!(\"{s}\"); }",
                ),
            ],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("println"), "{diags:?}");
    }

    #[test]
    fn param_sink_reported_at_call_site() {
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/obs/src/x.rs",
                    "fn announce(msg: String) { println!(\"{msg}\"); }",
                ),
                (
                    "crates/engine/src/y.rs",
                    "fn leak(doc: &CollectedDoc) { announce(doc.doc.body.clone()); }",
                ),
            ],
        );
        // One finding at the call site in engine (the announce body only
        // sees parameter taint, never SOURCE directly).
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "crates/engine/src/y.rs");
        assert!(diags[0].message.contains("announce"), "{diags:?}");
    }

    #[test]
    fn bare_field_fallback_without_type_info() {
        let diags = check_sources(
            check,
            &[(
                "crates/osn/src/x.rs",
                "fn log(r: &Unknown) { eprintln!(\"{}\", r.handle); }",
            )],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }

    #[test]
    fn known_type_beats_bare_fallback() {
        // `.handle` on a known non-PII struct is not a source.
        let diags = check_sources(
            check,
            &[(
                "crates/engine/src/x.rs",
                "pub struct Worker { pub handle: JoinHandle }\n\
             fn log(w: &Worker) { eprintln!(\"{:?}\", w.handle); }",
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn emit_method_and_response_ctor_are_sinks() {
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/serve/src/x.rs",
                    "fn handle(events: &EventLog, doc: &CollectedDoc) -> Response {\n\
                 events.emit(Level::Info, \"t\", doc.doc.body.clone(), vec![]);\n\
                 Response::ok(doc.doc.body.clone())\n}",
                ),
            ],
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
    }

    #[test]
    fn synth_crate_is_exempt() {
        let diags = check_sources(
            check,
            &[(
                "crates/synth/src/render.rs",
                "pub struct SynthDoc { pub body: String }\n\
             fn debug(d: &SynthDoc) { eprintln!(\"{}\", d.body); }",
            )],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn suppression_comment_is_honored() {
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/engine/src/x.rs",
                    "fn log(doc: &CollectedDoc) {\n\
                 // dox-lint:allow(pii-taint) synthetic demo output\n\
                 eprintln!(\"{}\", doc.doc.body);\n}",
                ),
            ],
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn write_to_string_buffer_then_sink_is_tracked() {
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/core/src/x.rs",
                    "fn render(doc: &CollectedDoc) {\n\
                 let mut buf = String::new();\n\
                 write!(buf, \"{}\", doc.doc.body);\n\
                 println!(\"{buf}\");\n}",
                ),
            ],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 4, "{diags:?}");
    }

    #[test]
    fn match_arm_binding_carries_taint() {
        let diags = check_sources(
            check,
            &[
                ("crates/synth/src/corpus.rs", DATA_MODEL),
                (
                    "crates/ml/src/x.rs",
                    "fn log(doc: &CollectedDoc) {\n\
                 match Some(doc.doc.body.clone()) {\n\
                 Some(text) => println!(\"{text}\"),\n\
                 None => {}\n}\n}",
                ),
            ],
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
    }
}
