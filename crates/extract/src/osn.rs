//! Social-network account extraction.
//!
//! Three rules, mirroring the "mixture of statistical and heuristic
//! approaches" of §3.1.3, all applied during the one scan of
//! [`crate::extract`]:
//!
//! 1. **URL rule** — at each `/` the scan meets, the known profile hosts
//!    (`facebook.com/<h>`, `twitch.tv/<h>`, …) the text before it ends
//!    with.
//! 2. **Label rule** — the labels of the document's labeled lines
//!    ([`crate::lines`]) against each network's alias list ("FB", "fbs",
//!    "insta", "ttv", …).
//! 3. **Validation** — candidate handles must satisfy the handle grammar
//!    and pass length sanity checks. A label value holding a `/` is left
//!    to the URL rule, which has already seen it: the host wins over the
//!    label.

use crate::lines::LineValues;
use crate::scan::{lower_cmp, lowercase, Parts, Span};
use dox_osn::network::Network;
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

/// Extract every social-network account referenced in `text`.
///
/// Results are deduplicated and sorted (network, handle).
pub fn extract_osn(text: &str) -> Vec<OsnRef> {
    crate::scan::scan(text, Parts::OSN).osn
}

/// Minimum / maximum plausible handle lengths.
const HANDLE_LEN: std::ops::RangeInclusive<usize> = 3..=40;

/// The handle alphabet (`dox_textkit::normalize::is_handle_like`), on
/// bytes: no byte of a longer char is in it.
fn handle_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.')
}

/// Whether `h` lowercased (Unicode `to_lowercase`) is a valid handle.
fn valid_lowercased_handle(h: &str) -> bool {
    if h.bytes().all(handle_byte) {
        return HANDLE_LEN.contains(&h.len());
    }
    if h.is_ascii() {
        return false;
    }
    // Only U+212A KELVIN SIGN lowercases to ASCII; any other non-ASCII
    // char leaves a char no handle holds.
    let mut len = 0;
    h.chars().flat_map(char::to_lowercase).all(|c| {
        len += c.len_utf8();
        c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')
    }) && HANDLE_LEN.contains(&len)
}

/// Every network's name and label aliases, lowercased, in
/// `Network::ALL` order: the labels `Network::parse` accepts.
pub(crate) fn network_labels() -> impl Iterator<Item = (String, Network)> {
    Network::ALL.into_iter().flat_map(|n| {
        std::iter::once(n.name().to_lowercase())
            .chain(n.label_aliases().iter().map(|a| (*a).to_owned()))
            .map(move |label| (label, n))
    })
}

/// The account references one scan found, as `(network, handle span)`;
/// the handle is the span lowercased.
#[derive(Debug, Default)]
pub(crate) struct OsnScan {
    found: Vec<(Network, Span)>,
}

impl OsnScan {
    /// Forget the previous document.
    pub fn reset(&mut self) {
        self.found.clear();
    }

    /// Every `host/handle` whose `/` is at byte `slash`: the hosts the
    /// text before it ends with. This finds the refs a per-host search
    /// skipping overlapped occurrences finds: no host holds a `/`, and a
    /// host that can overlap itself (`m.facebook.com`) has a suffix host of
    /// its network that cannot (`facebook.com`).
    pub fn slash(&mut self, text: &str, slash: usize) {
        let (before, path) = (&text[..slash], &text[slash + 1..]);
        // Every host ends in `m`, `e` or `v` (`.com`, `.me`, `.be`, `.tv`).
        if !matches!(before.as_bytes().last(), Some(b'm' | b'e' | b'v')) {
            return;
        }
        for network in Network::ALL {
            if !network.url_hosts().iter().any(|h| before.ends_with(h)) {
                continue;
            }
            // Google+ vanity URLs carry a leading '+'.
            let path = path.strip_prefix('+').unwrap_or(path);
            let len = path
                .bytes()
                .position(|b| !handle_byte(b))
                .unwrap_or(path.len());
            let handle = path[..len].trim_end_matches('.');
            // Every byte is in the handle alphabet by construction.
            if HANDLE_LEN.contains(&handle.len()) && !is_path_keyword(handle) {
                self.found.push((network, Span::of(text, handle)));
            }
        }
    }

    /// The handles of a line labeled with `network`'s name or alias.
    pub fn labeled(&mut self, text: &str, network: Network, values: LineValues<'_>) {
        for value in values.iter() {
            if value.contains('/') {
                continue;
            }
            // '@' marks Twitter-style mentions; '+' marks Google+ handles.
            let handle = value.trim_start_matches('@').trim_start_matches('+');
            if valid_lowercased_handle(handle) {
                self.found.push((network, Span::of(text, handle)));
            }
        }
    }

    /// The references sorted by `(network, handle)`, each once.
    pub fn finish(&mut self, text: &str) -> Vec<OsnRef> {
        let order = |a: &(Network, Span), b: &(Network, Span)| {
            a.0.cmp(&b.0)
                .then_with(|| lower_cmp(a.1.get(text), b.1.get(text)))
        };
        self.found.sort_unstable_by(order);
        self.found.dedup_by(|a, b| order(a, b).is_eq());
        self.found
            .iter()
            .map(|&(network, handle)| OsnRef {
                network,
                handle: lowercase(handle.get(text)),
            })
            .collect()
    }
}

/// URL path segments that are site features, not profile handles
/// (compared ignoring ASCII case, as the handle is lowercased).
fn is_path_keyword(seg: &str) -> bool {
    [
        "watch", "channel", "user", "profile", "pages", "groups", "search", "home", "login",
        "share", "hashtag", "intent", "status",
    ]
    .iter()
    .any(|k| seg.eq_ignore_ascii_case(k))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn refs(text: &str) -> Vec<(Network, String)> {
        extract_osn(text)
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
    fn kelvin_sign_lowercases_to_an_ascii_handle() {
        assert_eq!(
            refs("ig: \u{212A}aia_s\nfb: İgor_1"),
            vec![(Network::Instagram, "kaia_s".into())]
        );
    }

    #[test]
    fn hosts_end_in_m_e_or_v() {
        // `OsnScan::slash` skips a `/` after any other byte.
        for network in Network::ALL {
            for host in network.url_hosts() {
                assert!(
                    matches!(host.as_bytes().last(), Some(b'm' | b'e' | b'v')),
                    "{host}"
                );
            }
        }
    }

    #[test]
    fn hosts_hold_no_slash_and_self_overlaps_have_a_suffix_host() {
        // `OsnScan::slash` relies on both (see its docs).
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
