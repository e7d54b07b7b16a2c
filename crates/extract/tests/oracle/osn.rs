//! Social-network account extraction.
//!
//! Three extraction passes, mirroring the "mixture of statistical and
//! heuristic approaches" of §3.1.3:
//!
//! 1. **URL pass** — scan for known profile hosts (`facebook.com/<h>`,
//!    `twitch.tv/<h>`, …) anywhere in the text.
//! 2. **Label pass** — run the [`crate::lines`] grammar and match labels
//!    against each network's alias list ("FB", "fbs", "insta", "ttv", …).
//! 3. **Validation** — candidate handles must satisfy the handle grammar
//!    and pass length sanity checks; URLs found in label values are routed
//!    back through the URL parser.

use super::lines::{parse_lines, LabeledLine};
use dox_extract::osn::OsnRef;
use dox_osn::network::Network;
use dox_textkit::normalize::is_handle_like;
use std::collections::BTreeSet;

/// Extract every social-network account referenced in `text`.
///
/// Results are deduplicated and sorted (network, handle).
pub fn extract_osn(text: &str) -> Vec<OsnRef> {
    let mut found: BTreeSet<OsnRef> = BTreeSet::new();
    url_pass(text, &mut found);
    label_pass(&parse_lines(text), &mut found);
    found.into_iter().collect()
}

/// Minimum / maximum plausible handle lengths.
const HANDLE_LEN: std::ops::RangeInclusive<usize> = 3..=40;

fn valid_handle(h: &str) -> bool {
    HANDLE_LEN.contains(&h.len()) && is_handle_like(h)
}

fn url_pass(text: &str, found: &mut BTreeSet<OsnRef>) {
    for network in Network::ALL {
        for host in network.url_hosts() {
            let mut rest = text;
            while let Some(pos) = rest.find(host) {
                let after = &rest[pos + host.len()..];
                if let Some(path) = after.strip_prefix('/') {
                    // Google+ vanity URLs carry a leading '+'.
                    let path = path.strip_prefix('+').unwrap_or(path);
                    let handle: String = path
                        .chars()
                        .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.'))
                        .collect();
                    let handle = handle.trim_end_matches('.').to_lowercase();
                    if valid_handle(&handle) && !is_path_keyword(&handle) {
                        found.insert(OsnRef { network, handle });
                    }
                }
                rest = &rest[pos + host.len()..];
            }
        }
    }
}

/// URL path segments that are site features, not profile handles.
fn is_path_keyword(seg: &str) -> bool {
    matches!(
        seg,
        "watch"
            | "channel"
            | "user"
            | "profile"
            | "pages"
            | "groups"
            | "search"
            | "home"
            | "login"
            | "share"
            | "hashtag"
            | "intent"
            | "status"
    )
}

fn label_pass(lines: &[LabeledLine], found: &mut BTreeSet<OsnRef>) {
    for line in lines {
        let Some(network) = Network::parse(&line.label) else {
            continue;
        };
        for value in &line.values {
            // URLs inside label values go through the URL parser so the
            // host wins over the label (a "links:" line may mix networks).
            if value.contains('/') {
                url_pass(value, found);
                continue;
            }
            // '@' marks Twitter-style mentions; '+' marks Google+ handles.
            let handle = value
                .trim_start_matches('@')
                .trim_start_matches('+')
                .to_lowercase();
            if valid_handle(&handle) {
                found.insert(OsnRef { network, handle });
            }
        }
    }
}
