//! `wrap_chan_html` as `dox_synth::corpus` wrote it (a sizing pass, then
//! a byte-at-a-time escape, the quotelink through `write!`), copied here
//! so the generator's differential test does not depend on the code it
//! checks.

use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write;

/// Wrap plain text as a chan post: escaped HTML with `<br>` line breaks and
/// an optional quotelink header, as the boards serve it.
///
/// One pass into a pre-sized `String`. Escaping draws nothing, so the
/// quotelink coin and its two ids are drawn first, in that order.
pub fn wrap_chan_html(plain: &str, rng: &mut ChaCha8Rng) -> String {
    let escaped_len: usize = plain
        .bytes()
        .map(|b| match b {
            b'&' => 5,
            b'<' | b'>' | b'\n' => 4,
            b'\'' => 6,
            _ => 1,
        })
        .sum();
    // The quotelink's fixed markup plus its two 8-digit ids.
    const QUOTELINK: usize = r##"<a href="#p" class="quotelink">&gt;&gt;</a><br>"##.len() + 16;
    let mut out = String::with_capacity(QUOTELINK + escaped_len);
    if rng.random_range(0.0..1.0) < 0.3 {
        let _ = write!(
            out,
            "<a href=\"#p{}\" class=\"quotelink\">&gt;&gt;{}</a><br>",
            rng.random_range(10_000_000..99_999_999u64),
            rng.random_range(10_000_000..99_999_999u64),
        );
    }
    let mut verbatim = 0;
    for (i, b) in plain.bytes().enumerate() {
        let escape = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'\'' => "&#039;",
            b'\n' => "<br>",
            _ => continue,
        };
        out.push_str(&plain[verbatim..i]);
        out.push_str(escape);
        verbatim = i + 1;
    }
    out.push_str(&plain[verbatim..]);
    out
}
