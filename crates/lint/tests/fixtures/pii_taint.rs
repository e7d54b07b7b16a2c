//! Fixture: pii-taint dataflow — typed sources, propagation through
//! locals, calls and pushes, the redact() sanitizer, the allow escape hatch.

pub struct CollectedDoc {
    pub body: String,
    pub url: String,
}

fn shout(message: &str) {
    println!("paste: {message}");
}

pub fn leaks_directly(doc: &CollectedDoc) {
    println!("{}", doc.body);
}

pub fn leaks_through_local(doc: &CollectedDoc) {
    let text = doc.body.clone();
    let message = format!("body={text}");
    eprintln!("{message}");
}

pub fn leaks_interprocedurally(doc: &CollectedDoc) {
    shout(&doc.body);
}

pub fn redacted_is_fine(doc: &CollectedDoc) {
    println!("{}", dox_obs::redact(&doc.body));
}

pub fn length_is_fine(doc: &CollectedDoc) {
    println!("{} bytes", doc.body.len());
}

pub fn untainted_field_is_fine(doc: &CollectedDoc) {
    println!("fetched {}", doc.url);
}

pub fn suppressed_leak(doc: &CollectedDoc) {
    // dox-lint:allow(pii-taint) fixture: demonstrates the escape hatch
    println!("{}", doc.body);
}

pub fn leaks_through_push(doc: &CollectedDoc) {
    let mut parts = Vec::new();
    parts.push(doc.body.clone());
    println!("{parts:?}");
}

pub fn leaks_through_push_str(doc: &CollectedDoc) {
    let mut line = String::new();
    line.push_str(&doc.body);
    println!("{line}");
}
