//! Social-network account extraction.
//!
//! Three extraction passes, mirroring the "mixture of statistical and
//! heuristic approaches" of §3.1.3:
//!
//! 1. **URL pass** — find known profile hosts (`facebook.com/<h>`,
//!    `twitch.tv/<h>`, …) anywhere in the text, in one walk over its `/`
//!    bytes.
//! 2. **Label pass** — match the labels of the document's parsed
//!    [`crate::lines`] against each network's alias list ("FB", "fbs",
//!    "insta", "ttv", …).
//! 3. **Validation** — candidate handles must satisfy the handle grammar
//!    and pass length sanity checks; URLs found in label values are routed
//!    back through the URL parser.

use crate::lines::LabeledLine;
use dox_osn::network::Network;
use dox_textkit::normalize::is_handle_like;
use serde::{Deserialize, Serialize};

/// One extracted account reference.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct OsnRef {
    /// Which network.
    pub network: Network,
    /// The handle, lowercased (handles are case-insensitive on all the
    /// measured networks).
    pub handle: String,
}

/// Extract every social-network account referenced in `text`, whose
/// parsed lines are `lines`.
///
/// Results are deduplicated and sorted (network, handle).
pub fn extract_osn(text: &str, lines: &[LabeledLine<'_>]) -> Vec<OsnRef> {
    let mut found = Vec::new();
    url_pass(text, &mut found);
    label_pass(lines, &mut found);
    found.sort_unstable();
    found.dedup();
    found
}

/// Minimum / maximum plausible handle lengths.
const HANDLE_LEN: std::ops::RangeInclusive<usize> = 3..=40;

fn valid_handle(h: &str) -> bool {
    HANDLE_LEN.contains(&h.len()) && is_handle_like(h)
}

/// Every `host/handle` in `text`: at each `/`, the hosts the text before
/// it ends with. This finds the refs a per-host search skipping overlapped
/// occurrences finds: no host holds a `/`, and a host that can overlap
/// itself (`m.facebook.com`) has a suffix host of its network that cannot
/// (`facebook.com`).
fn url_pass(text: &str, found: &mut Vec<OsnRef>) {
    for (slash, _) in text.match_indices('/') {
        let (before, path) = (&text[..slash], &text[slash + 1..]);
        for network in Network::ALL {
            if !network.url_hosts().iter().any(|h| before.ends_with(h)) {
                continue;
            }
            // Google+ vanity URLs carry a leading '+'.
            let path = path.strip_prefix('+').unwrap_or(path);
            let len = path
                .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')))
                .unwrap_or(path.len());
            let handle = path[..len].trim_end_matches('.');
            if valid_handle(handle) {
                let handle = handle.to_ascii_lowercase();
                if !is_path_keyword(&handle) {
                    found.push(OsnRef { network, handle });
                }
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

fn label_pass(lines: &[LabeledLine<'_>], found: &mut Vec<OsnRef>) {
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
                found.push(OsnRef { network, handle });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(text: &str) -> Vec<(Network, String)> {
        extract_osn(text, &crate::lines::parse_lines(text))
            .into_iter()
            .map(|r| (r.network, r.handle))
            .collect()
    }

    #[test]
    fn url_forms_extract() {
        let text = "see https://facebook.com/some.victim1 and twitch.tv/streamer_99";
        let got = refs(text);
        assert!(got.contains(&(Network::Facebook, "some.victim1".into())));
        assert!(got.contains(&(Network::Twitch, "streamer_99".into())));
    }

    #[test]
    fn all_four_paper_shapes() {
        for text in [
            "Facebook: https://facebook.com/example1",
            "FB example1",
            "fbs: example1 - example2 - example3",
            "facebooks; example1 and example2",
        ] {
            let got = refs(text);
            assert!(
                got.contains(&(Network::Facebook, "example1".into())),
                "failed on {text:?}: {got:?}"
            );
        }
    }

    #[test]
    fn label_aliases_map_to_networks() {
        assert_eq!(refs("insta: victim_pics")[0].0, Network::Instagram);
        assert_eq!(refs("ttv: victim_live")[0].0, Network::Twitch);
        assert_eq!(refs("yt: victimchannel9")[0].0, Network::YouTube);
        assert_eq!(refs("skype: live.victim3")[0].0, Network::Skype);
        assert_eq!(refs("g+: plusvictim")[0].0, Network::GooglePlus);
    }

    #[test]
    fn at_prefix_stripped() {
        assert_eq!(
            refs("twitter: @angry_victim")[0],
            (Network::Twitter, "angry_victim".into())
        );
    }

    #[test]
    fn dedup_across_forms() {
        let text = "FB example1\nfacebook.com/example1\nFacebook: example1";
        assert_eq!(refs(text).len(), 1);
    }

    #[test]
    fn path_keywords_rejected() {
        assert!(refs("https://youtube.com/watch?v=abc123xyz00").is_empty());
        assert!(refs("facebook.com/login").is_empty());
    }

    #[test]
    fn invalid_handles_rejected() {
        assert!(refs("fb: xy").is_empty(), "too short");
        assert!(refs("fb: has space in it").is_empty());
        let long = format!("fb: {}", "a".repeat(50));
        assert!(refs(&long).is_empty(), "too long");
    }

    #[test]
    fn unknown_labels_ignored() {
        assert!(refs("myspace: oldtimer99").is_empty());
        assert!(refs("Name: John Example").is_empty());
    }

    #[test]
    fn handles_lowercased() {
        assert_eq!(
            refs("twitter: AngryVictim99")[0].1,
            "angryvictim99".to_string()
        );
    }

    #[test]
    fn url_with_trailing_punctuation() {
        let got = refs("profile: instagram.com/victim.pics., check it");
        assert!(got.contains(&(Network::Instagram, "victim.pics".into())));
    }

    #[test]
    fn mixed_url_in_label_value_routes_by_host() {
        // Label says facebook, URL is twitch — host wins.
        let got = refs("facebook: https://twitch.tv/actually_a_streamer");
        assert_eq!(got, vec![(Network::Twitch, "actually_a_streamer".into())]);
    }

    #[test]
    fn empty_input() {
        assert!(refs("").is_empty());
    }

    #[test]
    fn hosts_hold_no_slash_and_self_overlaps_have_a_suffix_host() {
        // `url_pass` relies on both (see its docs).
        let overlaps = |h: &str| (1..h.len()).any(|k| h.ends_with(&h[..k]));
        for network in Network::ALL {
            let hosts = network.url_hosts();
            for host in hosts {
                assert!(!host.contains('/'), "{host}");
                if overlaps(host) {
                    assert!(
                        hosts
                            .iter()
                            .any(|s| s.len() < host.len() && host.ends_with(s) && !overlaps(s)),
                        "{host} can overlap itself and has no suffix host"
                    );
                }
            }
        }
    }
}
