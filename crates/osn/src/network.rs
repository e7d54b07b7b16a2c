//! The online social networks measured by the paper.
//!
//! Table 9 counts dox-file references to Facebook, Google+, Twitter,
//! Instagram, YouTube and Twitch; the extractor evaluation (Table 2) also
//! covers Skype handles. Each network carries the metadata the extractor
//! and the simulator need: URL host patterns, the label aliases doxers use,
//! and whether the platform distinguishes a "private" state at all.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A measured social network (plus Skype, which Table 2 extracts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Network {
    /// facebook.com — most frequent network in dox files (Table 9).
    Facebook,
    /// plus.google.com.
    GooglePlus,
    /// twitter.com.
    Twitter,
    /// instagram.com — used for the random control sample.
    Instagram,
    /// youtube.com.
    YouTube,
    /// twitch.tv.
    Twitch,
    /// Skype — a handle-only service, no profile URL or privacy states.
    Skype,
}

impl Network {
    /// All networks, in Table 9 order (Skype last).
    pub const ALL: [Network; 7] = [
        Network::Facebook,
        Network::GooglePlus,
        Network::Twitter,
        Network::Instagram,
        Network::YouTube,
        Network::Twitch,
        Network::Skype,
    ];

    /// The six networks whose accounts the scraper monitors (Skype has no
    /// public profile to probe).
    pub const MONITORED: [Network; 6] = [
        Network::Facebook,
        Network::GooglePlus,
        Network::Twitter,
        Network::Instagram,
        Network::YouTube,
        Network::Twitch,
    ];

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            Network::Facebook => "Facebook",
            Network::GooglePlus => "Google+",
            Network::Twitter => "Twitter",
            Network::Instagram => "Instagram",
            Network::YouTube => "YouTube",
            Network::Twitch => "Twitch",
            Network::Skype => "Skype",
        }
    }

    /// URL hostnames whose paths contain profile handles.
    pub fn url_hosts(self) -> &'static [&'static str] {
        match self {
            Network::Facebook => &[
                "facebook.com",
                "www.facebook.com",
                "fb.me",
                "m.facebook.com",
            ],
            Network::GooglePlus => &["plus.google.com"],
            Network::Twitter => &["twitter.com", "www.twitter.com", "mobile.twitter.com"],
            Network::Instagram => &["instagram.com", "www.instagram.com"],
            Network::YouTube => &["youtube.com", "www.youtube.com", "youtu.be"],
            Network::Twitch => &["twitch.tv", "www.twitch.tv"],
            Network::Skype => &[],
        }
    }

    /// Lowercase label aliases doxers use in `label: value` lines
    /// ("FB example", "fbs: a - b", "ig", "insta", …).
    pub fn label_aliases(self) -> &'static [&'static str] {
        match self {
            Network::Facebook => &["facebook", "facebooks", "fb", "fbs", "face book"],
            Network::GooglePlus => &["google+", "googleplus", "google plus", "g+", "gplus"],
            Network::Twitter => &["twitter", "twitters", "twit"],
            Network::Instagram => &["instagram", "insta", "ig", "instagrams"],
            Network::YouTube => &["youtube", "yt", "you tube", "channel"],
            Network::Twitch => &["twitch", "ttv"],
            Network::Skype => &["skype", "skypes"],
        }
    }

    /// Whether the platform supports a "private/protected" account state
    /// visible from the outside. (YouTube channels are either up or
    /// terminated; Skype has no profile page at all.)
    pub fn has_private_state(self) -> bool {
        !matches!(self, Network::YouTube | Network::Skype)
    }

    /// Parse from any known alias or display name (case-insensitive).
    pub fn parse(text: &str) -> Option<Network> {
        let t = text.trim().to_lowercase();
        Network::ALL
            .into_iter()
            .find(|&n| n.name().to_lowercase() == t || n.label_aliases().contains(&t.as_str()))
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_unique() {
        let mut names: Vec<&str> = Network::ALL.iter().map(|n| n.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Network::ALL.len());
    }

    #[test]
    fn parse_by_name_and_alias() {
        assert_eq!(Network::parse("Facebook"), Some(Network::Facebook));
        assert_eq!(Network::parse("fbs"), Some(Network::Facebook));
        assert_eq!(Network::parse(" IG "), Some(Network::Instagram));
        assert_eq!(Network::parse("g+"), Some(Network::GooglePlus));
        assert_eq!(Network::parse("ttv"), Some(Network::Twitch));
        assert_eq!(Network::parse("myspace"), None);
    }

    #[test]
    fn monitored_excludes_skype() {
        assert!(!Network::MONITORED.contains(&Network::Skype));
        assert_eq!(Network::MONITORED.len(), 6);
    }

    #[test]
    fn privacy_support() {
        assert!(Network::Facebook.has_private_state());
        assert!(Network::Instagram.has_private_state());
        assert!(!Network::YouTube.has_private_state());
        assert!(!Network::Skype.has_private_state());
    }

    #[test]
    fn hosts_known_for_monitored() {
        for n in Network::MONITORED {
            assert!(!n.url_hosts().is_empty(), "{n} needs URL hosts");
        }
        assert!(Network::Skype.url_hosts().is_empty());
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Network::GooglePlus.to_string(), "Google+");
    }
}
