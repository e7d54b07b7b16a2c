//! Non-dox paste generation.
//!
//! The 1.73 M-document corpus is overwhelmingly *not* doxes (99.7 %). The
//! classifier's error structure (Table 1: dox precision 0.81, recall 0.89)
//! depends on the negatives being realistic — including **hard negatives**
//! that superficially resemble doxes (credential combo dumps, member lists
//! with emails, filled registration forms). Each generator here produces
//! one paste kind; [`PasteGenerator::sample_paste`] mixes them at configurable rates.

use crate::markov::MarkovChain;
use crate::truth::PasteKind;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write;

/// A generated non-dox paste.
#[derive(Debug, Clone, PartialEq)]
pub struct Paste {
    /// The paste body.
    pub body: String,
    /// What kind it is (ground truth).
    pub kind: PasteKind,
}

/// Shared generator state (the Markov chain is expensive to retrain).
#[derive(Debug, Clone)]
pub struct PasteGenerator {
    prose: MarkovChain,
    /// Fraction of pastes that are hard negatives.
    pub hard_negative_rate: f64,
}

impl PasteGenerator {
    /// Create a generator with the given hard-negative rate.
    pub fn new(hard_negative_rate: f64) -> Self {
        Self {
            prose: MarkovChain::prose(),
            hard_negative_rate,
        }
    }

    /// Sample one paste.
    pub fn sample_paste(&self, rng: &mut ChaCha8Rng) -> Paste {
        if rng.random_range(0.0..1.0) < self.hard_negative_rate {
            let kind = [
                PasteKind::CredentialDump,
                PasteKind::UserList,
                PasteKind::FormData,
                PasteKind::ProfileCard,
                PasteKind::ProfileCard,
                PasteKind::DoxTutorial,
                PasteKind::DoxDiscussion,
                PasteKind::DoxDiscussion,
            ][rng.random_range(0..8)];
            return Paste {
                body: self.generate_kind(kind, rng),
                kind,
            };
        }
        let kind = [
            PasteKind::Code,
            PasteKind::Code,
            PasteKind::Log,
            PasteKind::Config,
            PasteKind::Chat,
            PasteKind::Prose,
        ][rng.random_range(0..6)];
        Paste {
            body: self.generate_kind(kind, rng),
            kind,
        }
    }

    /// Generate a body of the given kind.
    pub fn generate_kind(&self, kind: PasteKind, rng: &mut ChaCha8Rng) -> String {
        match kind {
            PasteKind::Code => code_paste(rng),
            PasteKind::Log => log_paste(rng),
            PasteKind::Config => config_paste(rng),
            PasteKind::Chat => chat_paste(rng),
            PasteKind::Prose => self.prose.generate(rng.random_range(60..260), rng),
            PasteKind::CredentialDump => credential_dump(rng),
            PasteKind::UserList => user_list(rng),
            PasteKind::FormData => form_data(rng),
            PasteKind::ProfileCard => profile_card(rng),
            PasteKind::DoxTutorial => dox_tutorial(rng),
            PasteKind::DoxDiscussion => dox_discussion(rng),
        }
    }
}

/// Hard negative: a doxing how-to. Saturated with the classifier's most
/// dox-indicative vocabulary (name, address, phone, ip, dox, drop) while
/// containing no victim data — the canonical false-positive source.
fn dox_tutorial(rng: &mut ChaCha8Rng) -> String {
    let mut out = String::from("so you want to dox someone, a beginner guide\n");
    let steps = [
        "step: start with the username and search every site for reuse",
        "step: the full name usually falls out of an old forum signature",
        "step: reverse lookup the phone number if they ever posted one",
        "step: the ip address from a game server gives you the isp and city",
        "step: zip code plus family names narrows the address fast",
        "step: check facebook twitter instagram skype for linked accounts",
        "step: paste the whole profile and drop it where people will see",
        "step: keep receipts or nobody believes the dox is real",
    ];
    let n = rng.random_range(4..=steps.len());
    for s in steps.iter().take(n) {
        out.push_str(s);
        out.push('\n');
    }
    out.push_str("remember: this guide is hypothetical obviously\n");
    out
}

/// Hard negative: chan chatter asking for or reacting to a dox, with none
/// of the actual content. Sometimes name-drops a (pool) first name — the
/// same names real doxes use — without attaching any information to it.
fn dox_discussion(rng: &mut ChaCha8Rng) -> String {
    let lines = crate::names::THREAD_CHATTER;
    let n = rng.random_range(2..6usize);
    let mut out = String::new();
    for _ in 0..n {
        out.push_str(lines[rng.random_range(0..lines.len())]);
        out.push('\n');
    }
    if rng.random_range(0.0..1.0) < 0.5 {
        let feminine = rng.random_range(0.0..1.0) < 0.3;
        let _ = writeln!(
            out,
            "pretty sure the guy is called {} or something",
            crate::names::first_name(rng, feminine).to_lowercase()
        );
    }
    out
}

/// Hard negative: a voluntary "about me" card. Shares the dox file's
/// labeled-field skeleton (Name/Age/From/contact) so a bag-of-words
/// classifier genuinely struggles — these drive the false-positive side of
/// Table 1's error structure.
fn profile_card(rng: &mut ChaCha8Rng) -> String {
    let feminine = rng.random_range(0.0..1.0) < 0.5;
    let first = crate::names::first_name(rng, feminine);
    let last = crate::names::last_name(rng);
    let age = rng.random_range(14..40u32);
    format!(
        "~~ about me ~~\n\
         Name: {first} {last}\n\
         Age: {age}\n\
         From: {}\n\
         Email: {}{}@webmail.example (mods only pls)\n\
         hobbies: {}\n\
         add me on discord or whatever, looking for a duo partner.\n\
         my setup: {} keyboard, decent headset, mid pc\n",
        [
            "the midwest",
            "up north",
            "the coast",
            "nowhere interesting"
        ][rng.random_range(0..4)],
        first.to_lowercase(),
        rng.random_range(10..99u32),
        [
            "speedrunning and modding",
            "drawing and ranked grind",
            "maps and strategy games"
        ][rng.random_range(0..3)],
        ["mech", "60%", "old laptop"][rng.random_range(0..3)],
    )
}

fn code_paste(rng: &mut ChaCha8Rng) -> String {
    let lang = rng.random_range(0..3u8);
    let n = rng.random_range(3..12u32);
    let mut out = String::new();
    match lang {
        0 => {
            out.push_str("#!/usr/bin/env python\n");
            for i in 0..n {
                let _ = write!(
                    out,
                    "def handler_{i}(payload):\n    value = payload.get('field_{i}', {})\n    return value * {}\n\n",
                    rng.random_range(0..100u32),
                    rng.random_range(2..9u32)
                );
            }
        }
        1 => {
            out.push_str("// build helper\n#include <stdio.h>\n");
            for i in 0..n {
                let _ = writeln!(
                    out,
                    "static int step_{i}(int x) {{ return x + {}; }}",
                    rng.random_range(1..50u32)
                );
            }
            out.push_str("int main(void) { printf(\"ok\\n\"); return 0; }\n");
        }
        _ => {
            for i in 0..n {
                let _ = writeln!(
                    out,
                    "function render{i}(el) {{\n  el.innerText = 'section {i}';\n  return {};\n}}",
                    rng.random_range(0..2u32)
                );
            }
        }
    }
    out
}

fn log_paste(rng: &mut ChaCha8Rng) -> String {
    let n = rng.random_range(10..40u32);
    // ~70 bytes a line; the fields are appended without `core::fmt`.
    let mut out = String::with_capacity(n as usize * 72);
    for _ in 0..n {
        let level = ["INFO", "WARN", "ERROR", "DEBUG"][rng.random_range(0..4)];
        out.push_str("2016-08-");
        push_decimal(&mut out, rng.random_range(1..29u32), 2);
        out.push('T');
        push_decimal(&mut out, rng.random_range(0..24u32), 2);
        out.push(':');
        push_decimal(&mut out, rng.random_range(0..60u32), 2);
        out.push(':');
        push_decimal(&mut out, rng.random_range(0..60u32), 2);
        out.push_str("Z ");
        out.push_str(level);
        out.push_str(" worker-");
        push_decimal(&mut out, rng.random_range(1..8u32), 1);
        out.push_str(": request ");
        push_decimal(&mut out, rng.random_range(1000..99999u32), 1);
        out.push_str(" completed in ");
        push_decimal(&mut out, rng.random_range(1..900u32), 1);
        out.push_str("ms\n");
    }
    out
}

/// Append `n` in decimal, zero-padded to at least `width` digits (the
/// bytes `format!("{n:0width$}")` writes).
fn push_decimal(out: &mut String, mut n: u32, width: usize) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    for _ in digits.len() - start..width {
        out.push('0');
    }
    out.extend(digits[start..].iter().map(|&d| char::from(d)));
}

fn config_paste(rng: &mut ChaCha8Rng) -> String {
    let mut out = String::from("[server]\n");
    let _ = writeln!(out, "port = {}", rng.random_range(1024..65535u32));
    let _ = writeln!(out, "workers = {}", rng.random_range(1..32u32));
    out.push_str("bind = 0.0.0.0\n\n[cache]\n");
    let _ = writeln!(out, "ttl_seconds = {}", rng.random_range(30..3600u32));
    let _ = writeln!(
        out,
        "max_entries = {}\n\n[logging]\nlevel = info\nfile = /var/log/app.log",
        rng.random_range(100..100_000u32)
    );
    out
}

fn chat_paste(rng: &mut ChaCha8Rng) -> String {
    let users = ["nova", "pixel", "crash", "moth", "lumen", "drift"];
    let lines = [
        "did you see the patch notes",
        "yeah the nerf is brutal",
        "anyone up for ranked tonight",
        "gg that last round was close",
        "my ping is terrible today",
        "push mid next time",
        "brb food",
        "the new map is actually good",
        "mirror: files.archive.example/4f00aa12 for the vod",
        "the screencap is in the mirror, too long to type out",
        "upload died, check the archive mirror",
    ];
    let n = rng.random_range(8..25u32);
    let mut out = String::new();
    for _ in 0..n {
        let _ = writeln!(
            out,
            "<{}> {}",
            users[rng.random_range(0..users.len())],
            lines[rng.random_range(0..lines.len())]
        );
    }
    out
}

/// Hard negative: email:password combo dump. Looks sensitive, contains
/// emails and passwords — but no identities, addresses or OSN labels.
fn credential_dump(rng: &mut ChaCha8Rng) -> String {
    let n = rng.random_range(20..80u32);
    let mut out = String::from("combo list fresh checked\n");
    for i in 0..n {
        let _ = writeln!(
            out,
            "user{}{}@mailbox.example:pass{}{}",
            i,
            rng.random_range(100..999u32),
            rng.random_range(10..99u32),
            ["!", "", "#", "x"][rng.random_range(0..4)]
        );
    }
    out
}

/// Hard negative: a forum member list with join dates.
fn user_list(rng: &mut ChaCha8Rng) -> String {
    let n = rng.random_range(15..50u32);
    let mut out = String::from("member export 2016\nusername, email, joined\n");
    for i in 0..n {
        let _ = writeln!(
            out,
            "member_{i}, member_{i}@postal.example, 2015-{:02}-{:02}",
            rng.random_range(1..13u32),
            rng.random_range(1..29u32)
        );
    }
    out
}

/// Hard negative: a filled-in contact/registration form — has Name:,
/// Email:, Phone: labels like a dox, but describes a business inquiry.
fn form_data(rng: &mut ChaCha8Rng) -> String {
    format!(
        "--- contact form submission ---\n\
         Name: Sales Inquiry {}\n\
         Company: Widgets Unlimited\n\
         Email: purchasing{}@inbox.example\n\
         Phone: (800) 555-01{:02}\n\
         Message: we would like a quote for {} units of part {} delivered\n\
         to our warehouse. please respond during business hours.\n",
        rng.random_range(1..999u32),
        rng.random_range(1..99u32),
        rng.random_range(0..100u32),
        rng.random_range(10..5000u32),
        rng.random_range(1000..9999u32),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn all_kinds_generate_nonempty() {
        let g = PasteGenerator::new(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for kind in [
            PasteKind::Code,
            PasteKind::Log,
            PasteKind::Config,
            PasteKind::Chat,
            PasteKind::Prose,
            PasteKind::CredentialDump,
            PasteKind::UserList,
            PasteKind::FormData,
        ] {
            let body = g.generate_kind(kind, &mut rng);
            assert!(!body.trim().is_empty(), "{kind:?} produced empty body");
        }
    }

    #[test]
    fn hard_negative_rate_respected() {
        let g = PasteGenerator::new(0.3);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 5000;
        let hard = (0..n)
            .filter(|_| g.sample_paste(&mut rng).kind.is_hard_negative())
            .count();
        let rate = hard as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "hard-negative rate {rate}");
    }

    #[test]
    fn zero_hard_negative_rate_produces_none() {
        let g = PasteGenerator::new(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..500 {
            assert!(!g.sample_paste(&mut rng).kind.is_hard_negative());
        }
    }

    #[test]
    fn form_data_has_doxlike_labels() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let body = form_data(&mut rng);
        assert!(body.contains("Name:"));
        assert!(body.contains("Phone:"));
        assert!(body.contains("Email:"));
    }

    #[test]
    fn credential_dump_contains_emails_but_no_addresses() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let body = credential_dump(&mut rng);
        assert!(body.contains("@mailbox.example"));
        assert!(!body.to_lowercase().contains("address"));
    }

    #[test]
    fn deterministic() {
        let g = PasteGenerator::new(0.1);
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        assert_eq!(g.sample_paste(&mut a), g.sample_paste(&mut b));
    }

    #[test]
    fn synthetic_emails_use_reserved_domains() {
        let mut rng = ChaCha8Rng::seed_from_u64(8);
        for body in [
            credential_dump(&mut rng),
            user_list(&mut rng),
            form_data(&mut rng),
        ] {
            for word in body.split_whitespace() {
                if word.contains('@') {
                    assert!(word.contains(".example"), "non-reserved email in {word}");
                }
            }
        }
    }
}
