//! Per-network username morphology.
//!
//! Handles derived from a persona's name plus decorations doxers see in the
//! wild: digits, underscores, leetspeak, "xX … Xx" wrappers. Derivation is
//! deterministic given the RNG stream, and every generated handle satisfies
//! `dox_textkit`-style handle grammar (ASCII alphanumerics, `_`, `-`, `.`),
//! so the extractor can validate candidates.

use crate::text::push_decimal;
use dox_osn::network::Network;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Generate a base username from name parts.
pub fn base_handle(first: &str, last: &str, rng: &mut ChaCha8Rng) -> String {
    let f = first.to_lowercase();
    let l = last.to_lowercase();
    let style = rng.random_range(0..6u8);
    match style {
        0 => [f.as_str(), &l].concat(),
        1 => [f.as_str(), &l].join("."),
        2 => [f.as_str(), &l].join("_"),
        3 => [&f[..1.min(f.len())], &l].concat(),
        4 => {
            let mut handle = String::with_capacity(f.len() + 2);
            handle.push_str(&f);
            push_decimal(&mut handle, rng.random_range(10..99u32), 1);
            handle
        }
        _ => [l, f].concat(),
    }
}

/// Decorate a base handle in gamer/doxer style.
pub fn decorate(base: &str, rng: &mut ChaCha8Rng) -> String {
    match rng.random_range(0..8u8) {
        0 => ["xX_", base, "_Xx"].concat(),
        1 => {
            let mut handle = String::with_capacity(base.len() + 4);
            handle.push_str(base);
            push_decimal(&mut handle, rng.random_range(1990..2010u32), 1);
            handle
        }
        2 => base.replace('e', "3").replace('o', "0"),
        3 => ["the_", base].concat(),
        4 => [base, "_tv"].concat(),
        _ => base.to_string(),
    }
}

/// Generate a handle for `network`, derived from the persona's base handle
/// but varied per network (people reuse names with small mutations).
pub fn network_handle(base: &str, network: Network, uid: u64, rng: &mut ChaCha8Rng) -> String {
    let variant = match network {
        Network::Facebook => base.replace('_', "."),
        // The canonical Google+ handle has no '+': the sigil is added at
        // render time (vanity-URL style), like '@' for Twitter.
        Network::GooglePlus => base.to_string(),
        Network::Twitter => truncate(base, 15),
        Network::Instagram => base.to_string(),
        Network::YouTube => [base, "channel"].concat(),
        Network::Twitch => [base, "_live"].concat(),
        Network::Skype => ["live.", base].concat(),
    };
    // A per-network numeric suffix keeps handles globally unique across
    // personas (uid folds the persona id in).
    let salt = rng.random_range(0..10u32);
    // The variant's handle-grammar chars, then up to three digits of the
    // uid and one of salt.
    let mut handle = String::with_capacity(variant.len() + 4);
    handle.extend(
        variant
            .chars()
            .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '+')),
    );
    push_decimal(&mut handle, uid % 997, 1);
    push_decimal(&mut handle, salt, 1);
    handle
}

fn truncate(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}

/// Render the handle the way a dox file would write it for `network`:
/// sometimes a full URL, sometimes bare.
pub fn render_reference(network: Network, handle: &str, rng: &mut ChaCha8Rng) -> String {
    let hosts = network.url_hosts();
    if hosts.is_empty() || rng.random_range(0.0..1.0) < 0.4 {
        // Bare references sometimes carry the network's sigil.
        match network {
            Network::GooglePlus if rng.random_range(0.0..1.0) < 0.5 => ["+", handle].concat(),
            Network::Twitter if rng.random_range(0.0..1.0) < 0.5 => ["@", handle].concat(),
            _ => handle.to_string(),
        }
    } else {
        let host = hosts[rng.random_range(0..hosts.len())];
        let path_handle = handle.trim_start_matches('+');
        let scheme = match rng.random_range(0..3u8) {
            0 => "https://",
            1 => "http://",
            _ => "",
        };
        [scheme, host, "/", path_handle].concat()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn base_handles_lowercase_ascii() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for _ in 0..50 {
            let h = base_handle("Jaren", "Thornvik", &mut rng);
            assert!(h
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'));
        }
    }

    #[test]
    fn decorations_preserve_handle_grammar() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..100 {
            let h = decorate("sorenkvistlund", &mut rng);
            assert!(h
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')));
        }
    }

    #[test]
    fn network_handles_vary_by_network() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let tw = network_handle("longbasehandle", Network::Twitter, 5, &mut rng);
        let yt = network_handle("longbasehandle", Network::YouTube, 5, &mut rng);
        assert_ne!(tw, yt);
        assert!(yt.contains("channel"));
    }

    #[test]
    fn twitter_handles_respect_length_cap_before_suffix() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let h = network_handle(
            "averyveryverylongbasehandlename",
            Network::Twitter,
            1,
            &mut rng,
        );
        // 15 chars + at most 5 suffix chars
        assert!(h.len() <= 20, "{h}");
    }

    #[test]
    fn url_references_use_known_hosts() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut saw_url = false;
        for _ in 0..50 {
            let r = render_reference(Network::Facebook, "some.handle1", &mut rng);
            if r.contains('/') {
                saw_url = true;
                assert!(
                    Network::Facebook.url_hosts().iter().any(|h| r.contains(h)),
                    "{r}"
                );
            }
        }
        assert!(saw_url);
    }

    #[test]
    fn skype_is_always_bare() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        for _ in 0..20 {
            let r = render_reference(Network::Skype, "live.somebody3", &mut rng);
            assert!(!r.contains("://"));
        }
    }
}
