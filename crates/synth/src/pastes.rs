//! Non-dox paste generation.
//!
//! The 1.73 M-document corpus is overwhelmingly *not* doxes (99.7 %). The
//! classifier's error structure (Table 1: dox precision 0.81, recall 0.89)
//! depends on the negatives being realistic — including **hard negatives**
//! that superficially resemble doxes (credential combo dumps, member lists
//! with emails, filled registration forms). Each generator here produces
//! one paste kind; [`PasteGenerator::sample_paste`] mixes them at configurable rates.
//!
//! The bodies are built with `push_str` and the crate's decimal writer,
//! not `core::fmt`, and reserve their measured size up front: the literal
//! bytes plus the widest value of each drawn field, or the exact length
//! where the draws come before the text (chat). They are byte for byte,
//! draw for draw, what the `write!`-based generators wrote; the reference
//! copies in `crates/synth/tests/oracle/` check that for every kind.

use crate::markov::MarkovChain;
use crate::text::{push_decimal, push_lowercase};
use crate::truth::PasteKind;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

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
    const HEAD: &str = "so you want to dox someone, a beginner guide\n";
    const TAIL: &str = "remember: this guide is hypothetical obviously\n";
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
    let taken = &steps[..n];
    let len = HEAD.len() + TAIL.len() + taken.iter().map(|s| s.len() + 1).sum::<usize>();
    let mut out = String::with_capacity(len);
    out.push_str(HEAD);
    for s in taken {
        out.push_str(s);
        out.push('\n');
    }
    out.push_str(TAIL);
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
        out.push_str("pretty sure the guy is called ");
        push_lowercase(&mut out, &crate::names::first_name(rng, feminine));
        out.push_str(" or something\n");
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
    let from = [
        "the midwest",
        "up north",
        "the coast",
        "nowhere interesting",
    ][rng.random_range(0..4)];
    let mail_number = rng.random_range(10..99u32);
    let hobbies = [
        "speedrunning and modding",
        "drawing and ranked grind",
        "maps and strategy games",
    ][rng.random_range(0..3)];
    let setup = ["mech", "60%", "old laptop"][rng.random_range(0..3)];
    let mut out = String::with_capacity(320);
    out.push_str("~~ about me ~~\nName: ");
    out.push_str(&first);
    out.push(' ');
    out.push_str(&last);
    out.push_str("\nAge: ");
    push_decimal(&mut out, age, 1);
    out.push_str("\nFrom: ");
    out.push_str(from);
    out.push_str("\nEmail: ");
    push_lowercase(&mut out, &first);
    push_decimal(&mut out, mail_number, 1);
    out.push_str("@webmail.example (mods only pls)\nhobbies: ");
    out.push_str(hobbies);
    out.push_str("\nadd me on discord or whatever, looking for a duo partner.\nmy setup: ");
    out.push_str(setup);
    out.push_str(" keyboard, decent headset, mid pc\n");
    out
}

fn code_paste(rng: &mut ChaCha8Rng) -> String {
    // Per template: the header, each line's literal bytes plus its widest
    // numbers (a 2-digit index, the drawn values), and the footer.
    const PY_HEAD: &str = "#!/usr/bin/env python\n";
    const PY_LINE: usize =
        "def handler_(payload):\n    value = payload.get('field_', )\n    return value * \n\n"
            .len()
            + 2 * 2
            + 2
            + 1;
    const C_HEAD: &str = "// build helper\n#include <stdio.h>\n";
    const C_LINE: usize = "static int step_(int x) { return x + ; }\n".len() + 2 + 2;
    const C_TAIL: &str = "int main(void) { printf(\"ok\\n\"); return 0; }\n";
    const JS_LINE: usize =
        "function render(el) {\n  el.innerText = 'section ';\n  return ;\n}\n".len() + 2 * 2 + 1;
    let lang = rng.random_range(0..3u8);
    let n = rng.random_range(3..12u32);
    let mut out;
    match lang {
        0 => {
            out = String::with_capacity(PY_HEAD.len() + n as usize * PY_LINE);
            out.push_str(PY_HEAD);
            for i in 0..n {
                out.push_str("def handler_");
                push_decimal(&mut out, i, 1);
                out.push_str("(payload):\n    value = payload.get('field_");
                push_decimal(&mut out, i, 1);
                out.push_str("', ");
                push_decimal(&mut out, rng.random_range(0..100u32), 1);
                out.push_str(")\n    return value * ");
                push_decimal(&mut out, rng.random_range(2..9u32), 1);
                out.push_str("\n\n");
            }
        }
        1 => {
            out = String::with_capacity(C_HEAD.len() + n as usize * C_LINE + C_TAIL.len());
            out.push_str(C_HEAD);
            for i in 0..n {
                out.push_str("static int step_");
                push_decimal(&mut out, i, 1);
                out.push_str("(int x) { return x + ");
                push_decimal(&mut out, rng.random_range(1..50u32), 1);
                out.push_str("; }\n");
            }
            out.push_str(C_TAIL);
        }
        _ => {
            out = String::with_capacity(n as usize * JS_LINE);
            for i in 0..n {
                out.push_str("function render");
                push_decimal(&mut out, i, 1);
                out.push_str("(el) {\n  el.innerText = 'section ");
                push_decimal(&mut out, i, 1);
                out.push_str("';\n  return ");
                push_decimal(&mut out, rng.random_range(0..2u32), 1);
                out.push_str(";\n}\n");
            }
        }
    }
    out
}

fn log_paste(rng: &mut ChaCha8Rng) -> String {
    // The widest line: "2016-08-DDTHH:MM:SSZ ERROR worker-N: request
    // NNNNN completed in NNNms\n".
    const LINE: usize =
        "2016-08-DDTHH:MM:SSZ ERROR worker-N: request NNNNN completed in NNNms\n".len();
    let n = rng.random_range(10..40u32);
    let mut out = String::with_capacity(n as usize * LINE);
    for _ in 0..n {
        // The level is drawn first and written after the timestamp; each
        // arm of the match below writes its level with its neighbours.
        let level = rng.random_range(0..4u8);
        out.push_str("2016-08-");
        push_decimal(&mut out, rng.random_range(1..29u32), 2);
        out.push('T');
        push_decimal(&mut out, rng.random_range(0..24u32), 2);
        out.push(':');
        push_decimal(&mut out, rng.random_range(0..60u32), 2);
        out.push(':');
        push_decimal(&mut out, rng.random_range(0..60u32), 2);
        out.push_str(match level {
            0 => "Z INFO worker-",
            1 => "Z WARN worker-",
            2 => "Z ERROR worker-",
            _ => "Z DEBUG worker-",
        });
        push_decimal(&mut out, rng.random_range(1..8u32), 1);
        out.push_str(": request ");
        push_decimal(&mut out, rng.random_range(1000..99999u32), 1);
        out.push_str(" completed in ");
        push_decimal(&mut out, rng.random_range(1..900u32), 1);
        out.push_str("ms\n");
    }
    out
}

fn config_paste(rng: &mut ChaCha8Rng) -> String {
    const LITERAL: &str = "[server]\nport = \nworkers = \nbind = 0.0.0.0\n\n[cache]\n\
                           ttl_seconds = \nmax_entries = \n\n[logging]\nlevel = info\n\
                           file = /var/log/app.log\n";
    // The widest port, worker count, TTL and entry cap.
    let mut out = String::with_capacity(LITERAL.len() + 5 + 2 + 4 + 5);
    out.push_str("[server]\nport = ");
    push_decimal(&mut out, rng.random_range(1024..65535u32), 1);
    out.push_str("\nworkers = ");
    push_decimal(&mut out, rng.random_range(1..32u32), 1);
    out.push_str("\nbind = 0.0.0.0\n\n[cache]\nttl_seconds = ");
    push_decimal(&mut out, rng.random_range(30..3600u32), 1);
    out.push_str("\nmax_entries = ");
    push_decimal(&mut out, rng.random_range(100..100_000u32), 1);
    out.push_str("\n\n[logging]\nlevel = info\nfile = /var/log/app.log\n");
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
    // Draw every line's speaker and text first (same order as writing
    // them), so the body is sized exactly before it is written.
    let n = rng.random_range(8..25u32) as usize;
    let mut picks = [("", ""); 24];
    let picks = &mut picks[..n];
    for pick in picks.iter_mut() {
        *pick = (
            users[rng.random_range(0..users.len())],
            lines[rng.random_range(0..lines.len())],
        );
    }
    // "<user> line\n"
    let len = picks.iter().map(|(u, l)| u.len() + l.len() + 4).sum();
    let mut out = String::with_capacity(len);
    for (user, line) in picks.iter() {
        out.push('<');
        out.push_str(user);
        out.push_str("> ");
        out.push_str(line);
        out.push('\n');
    }
    out
}

/// Hard negative: email:password combo dump. Looks sensitive, contains
/// emails and passwords — but no identities, addresses or OSN labels.
fn credential_dump(rng: &mut ChaCha8Rng) -> String {
    const HEAD: &str = "combo list fresh checked\n";
    // "user{i}{nnn}@mailbox.example:pass{nn}{sigil}\n" at its widest.
    const LINE: usize = "user@mailbox.example:pass\n".len() + 2 + 3 + 2 + 1;
    let n = rng.random_range(20..80u32);
    let mut out = String::with_capacity(HEAD.len() + n as usize * LINE);
    out.push_str(HEAD);
    for i in 0..n {
        out.push_str("user");
        push_decimal(&mut out, i, 1);
        push_decimal(&mut out, rng.random_range(100..999u32), 1);
        out.push_str("@mailbox.example:pass");
        push_decimal(&mut out, rng.random_range(10..99u32), 1);
        out.push_str(["!", "", "#", "x"][rng.random_range(0..4)]);
        out.push('\n');
    }
    out
}

/// Hard negative: a forum member list with join dates.
fn user_list(rng: &mut ChaCha8Rng) -> String {
    const HEAD: &str = "member export 2016\nusername, email, joined\n";
    // "member_{i}, member_{i}@postal.example, 2015-MM-DD\n" at its widest.
    const LINE: usize = "member_, member_@postal.example, 2015-MM-DD\n".len() + 2 * 2;
    let n = rng.random_range(15..50u32);
    let mut out = String::with_capacity(HEAD.len() + n as usize * LINE);
    out.push_str(HEAD);
    for i in 0..n {
        out.push_str("member_");
        push_decimal(&mut out, i, 1);
        out.push_str(", member_");
        push_decimal(&mut out, i, 1);
        out.push_str("@postal.example, 2015-");
        push_decimal(&mut out, rng.random_range(1..13u32), 2);
        out.push('-');
        push_decimal(&mut out, rng.random_range(1..29u32), 2);
        out.push('\n');
    }
    out
}

/// Hard negative: a filled-in contact/registration form — has Name:,
/// Email:, Phone: labels like a dox, but describes a business inquiry.
fn form_data(rng: &mut ChaCha8Rng) -> String {
    let mut out = String::with_capacity(320);
    out.push_str("--- contact form submission ---\nName: Sales Inquiry ");
    push_decimal(&mut out, rng.random_range(1..999u32), 1);
    out.push_str("\nCompany: Widgets Unlimited\nEmail: purchasing");
    push_decimal(&mut out, rng.random_range(1..99u32), 1);
    out.push_str("@inbox.example\nPhone: (800) 555-01");
    push_decimal(&mut out, rng.random_range(0..100u32), 2);
    out.push_str("\nMessage: we would like a quote for ");
    push_decimal(&mut out, rng.random_range(10..5000u32), 1);
    out.push_str(" units of part ");
    push_decimal(&mut out, rng.random_range(1000..9999u32), 1);
    out.push_str(" delivered\nto our warehouse. please respond during business hours.\n");
    out
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
