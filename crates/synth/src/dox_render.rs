//! Dox-file rendering.
//!
//! Produces the text of a dox posting from a persona plus a render plan:
//! which sensitive fields to include (Table 6 rates), which OSN accounts to
//! reveal (Table 9 / Table 2 rates), an optional motivation statement
//! (Table 8), an optional credits line (Figure 2), and one of several
//! format templates — labeled field lists, ASCII-art-headed drops, and
//! "sloppy" narrative doxes that stress the classifier.
//!
//! Near-duplicate re-rendering (timestamps, insignia tweaks, "update"
//! sections — §3.1.4) lives here too, so the dedup stage has realistic
//! adversarial input.

use crate::config::SynthConfig;
use crate::doxers::DoxerPopulation;
use crate::handles;
use crate::persona::Persona;
use crate::text::{
    lowercase_from, push_decimal, push_hex8, push_ipv4, push_lowercase, push_uppercase,
};
use crate::truth::{Community, DoxTruth, Gender, IncludedFields, Motivation};
use dox_osn::network::Network;
use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Everything decided before rendering: the plan is sampled once, then the
/// template turns it into text. Keeping plan and render separate lets the
/// duplicate model re-render the *same plan* with cosmetic variation.
#[derive(Debug, Clone)]
pub struct RenderPlan {
    /// Field categories to include.
    pub fields: IncludedFields,
    /// OSN accounts to reveal: `(network, handle)`.
    pub osn: Vec<(Network, String)>,
    /// Motivation to state, if any.
    pub motivation: Option<Motivation>,
    /// Credited doxer aliases (with optional Twitter handles rendered).
    pub credits: Vec<String>,
    /// Whether to use the sloppy narrative template.
    pub sloppy: bool,
    /// A "stub" dox: the content lives in a linked screencap/mirror, the
    /// text itself names only the victim's alias. Text classifiers cannot
    /// catch these (the paper's acknowledged §7.3 blind spot) — they are
    /// the recall ceiling.
    pub stub: bool,
    /// Template selector (stable across re-renders of the same plan).
    pub template: u8,
    /// Expose community accounts (Table 7) when the persona has them.
    pub show_community: bool,
}

/// Sample a render plan for `persona`.
///
/// `proof_of_work` selects the richer Table 2 OSN rates used by
/// dox-for-hire archives; the wild corpus uses Table 9 rates.
pub fn sample_plan(
    persona: &Persona,
    config: &SynthConfig,
    proof_of_work: bool,
    doxers: &DoxerPopulation,
    rng: &mut ChaCha8Rng,
) -> RenderPlan {
    let f = &config.fields;
    let mut roll = |p: f64| rng.random_range(0.0..1.0) < p;
    let address = roll(f.address);
    let fields = IncludedFields {
        address,
        zip: address && roll(f.zip_given_address),
        phone: roll(f.phone),
        family: roll(f.family),
        email: roll(f.email),
        dob: roll(f.dob),
        age: roll(f.age),
        real_name: roll(f.real_name),
        school: roll(f.school),
        usernames: roll(f.usernames),
        isp: roll(f.isp),
        ip: roll(f.ip),
        passwords: roll(f.passwords),
        physical: roll(f.physical),
        criminal: roll(f.criminal),
        ssn: roll(f.ssn),
        credit_card: roll(f.credit_card),
        financial: roll(f.financial),
    };

    let rates = if proof_of_work {
        &config.osn_pow
    } else {
        &config.osn_wild
    };
    let mut osn = Vec::new();
    let mut maybe = |network: Network, p: f64, rng: &mut ChaCha8Rng| {
        if rng.random_range(0.0..1.0) < p {
            if let Some(h) = persona.handle_on(network) {
                osn.push((network, h.to_string()));
            }
        }
    };
    maybe(Network::Facebook, rates.facebook, rng);
    maybe(Network::GooglePlus, rates.google_plus, rng);
    maybe(Network::Twitter, rates.twitter, rng);
    maybe(Network::Instagram, rates.instagram, rng);
    maybe(Network::YouTube, rates.youtube, rng);
    maybe(Network::Twitch, rates.twitch, rng);
    maybe(Network::Skype, rates.skype, rng);

    let m = &config.motivations;
    let u: f64 = rng.random_range(0.0..1.0);
    let motivation = if u < m.justice {
        Some(Motivation::Justice)
    } else if u < m.justice + m.revenge {
        Some(Motivation::Revenge)
    } else if u < m.justice + m.revenge + m.competitive {
        Some(Motivation::Competitive)
    } else if u < m.justice + m.revenge + m.competitive + m.political {
        Some(Motivation::Political)
    } else {
        None
    };

    let credits = if rng.random_range(0.0..1.0) < config.credit_rate {
        let (_, ids) = doxers.sample_credits(rng);
        ids.iter()
            .map(|&id| {
                let d = doxers.get(id);
                match (&d.twitter, rng.random_range(0..3u8)) {
                    (Some(tw), 0) => tw.clone(),
                    (Some(tw), 1) => [d.alias.as_str(), " (", tw, ")"].concat(),
                    _ => d.alias.clone(),
                }
            })
            .collect()
    } else {
        Vec::new()
    };

    let sloppy = rng.random_range(0.0..1.0) < config.sloppy_dox_rate;
    // Stubs only occur in the wild (a dox-for-hire proof-of-work archive
    // is by definition the full file). A stub reveals only an alias plus
    // at most one account, so the plan is overridden accordingly and the
    // ground truth stays faithful to the rendered text.
    let stub = !proof_of_work && rng.random_range(0.0..1.0) < 0.10;
    let (fields, osn) = if stub {
        let f = IncludedFields {
            usernames: true,
            ..IncludedFields::default()
        };
        let mut o = osn;
        o.truncate(1);
        (f, o)
    } else {
        (fields, osn)
    };
    // Expose community accounts at a rate that lands Table 7's shares
    // given persona-level membership rates.
    let show_community = match persona.community {
        Some(Community::Gamer) => rng.random_range(0.0..1.0) < 0.114 / 0.14,
        Some(Community::Hacker) => rng.random_range(0.0..1.0) < 0.037 / 0.055,
        Some(Community::Celebrity) => rng.random_range(0.0..1.0) < 0.011 / 0.014,
        None => false,
    };

    RenderPlan {
        fields,
        osn,
        motivation,
        credits,
        sloppy,
        stub,
        template: rng.random_range(0..3u8),
        show_community,
    }
}

/// Options for re-rendering a plan as a near-duplicate (§3.1.4).
#[derive(Debug, Clone, Copy, Default)]
pub struct Variation {
    /// Prepend a "posted at" timestamp line.
    pub timestamp: Option<u64>,
    /// Use the alternate ASCII-art insignia.
    pub alt_insignia: bool,
    /// Append an "UPDATE" section describing the victim's reaction.
    pub update_section: bool,
}

/// Render the dox text for `persona` under `plan`.
pub fn render(
    persona: &Persona,
    plan: &RenderPlan,
    world: &dox_geo::model::World,
    variation: Variation,
    rng: &mut ChaCha8Rng,
) -> String {
    let mut out = String::new();
    if let Some(ts) = variation.timestamp {
        out.push_str("[posted ");
        push_ts(&mut out, ts);
        out.push_str("]\n");
    }
    if plan.stub {
        render_stub(&mut out, persona, plan, rng);
    } else if plan.sloppy {
        // Half of the weakly structured doxes are narrative, half are
        // thread "fragments" — the subtlest form (§7.3).
        if plan.template.is_multiple_of(2) {
            render_sloppy(&mut out, persona, plan, world, rng);
        } else {
            render_fragment(&mut out, persona, plan, rng);
        }
    } else {
        match plan.template {
            0 => render_labeled(&mut out, persona, plan, world, variation, rng, false),
            1 => render_labeled(&mut out, persona, plan, world, variation, rng, true),
            _ => render_compact(&mut out, persona, plan, world, rng),
        }
    }
    if let Some(motivation) = plan.motivation {
        out.push('\n');
        push_motivation(&mut out, motivation, persona, rng);
        out.push('\n');
    }
    if !plan.credits.is_empty() {
        out.push('\n');
        push_credit_line(&mut out, &plan.credits, rng);
        out.push('\n');
    }
    if variation.update_section {
        out.push_str("\nUPDATE: target went private on everything lol. stay tuned.\n");
    }
    out
}

const INSIGNIA_A: &str = r"
  ____   _____  __ __
 |    \ |     ||  |  |
 |  |  ||  |  ||_   _|
 |____/ |_____||__|__|   D R O P
";

const INSIGNIA_B: &str = r"
 <<<<<<<<<< DOX DROP >>>>>>>>>>
 ==============================
";

/// Append `label`, `value` and a newline.
fn push_line(out: &mut String, label: &str, value: &str) {
    out.push_str(label);
    out.push_str(value);
    out.push('\n');
}

/// Append `first last`.
fn push_full_name(out: &mut String, persona: &Persona) {
    out.push_str(&persona.first_name);
    out.push(' ');
    out.push_str(&persona.last_name);
}

/// Append the postal address as `PostalAddress::format` writes it
/// (`number street, city, ST zip`), without the zip unless `zip`.
fn push_address(out: &mut String, persona: &Persona, world: &dox_geo::model::World, zip: bool) {
    let address = &persona.address;
    let city = world.city(address.city);
    push_decimal(out, address.number, 1);
    out.push(' ');
    out.push_str(&address.street);
    out.push_str(", ");
    out.push_str(&city.name);
    out.push_str(", ");
    out.push_str(&world.state(city.state).abbrev);
    if zip {
        out.push(' ');
        push_decimal(out, address.zip, 1);
    }
}

fn render_labeled(
    out: &mut String,
    persona: &Persona,
    plan: &RenderPlan,
    world: &dox_geo::model::World,
    variation: Variation,
    rng: &mut ChaCha8Rng,
    with_insignia: bool,
) {
    if with_insignia {
        out.push_str(if variation.alt_insignia {
            INSIGNIA_B
        } else {
            INSIGNIA_A
        });
        out.push('\n');
    }
    let f = &plan.fields;
    if f.real_name {
        out.push_str("Name: ");
        push_full_name(out, persona);
        out.push('\n');
    } else {
        push_line(out, "Alias: ", &persona.usernames[0]);
    }
    if f.age {
        out.push_str("Age: ");
        push_decimal(out, persona.age, 1);
        out.push('\n');
    }
    if f.dob {
        let (y, m, d) = persona.dob;
        out.push_str("DOB: ");
        push_decimal(out, m, 2);
        out.push('/');
        push_decimal(out, d, 2);
        out.push('/');
        push_decimal(out, y, 1);
        out.push('\n');
    }
    match persona.gender {
        Gender::Male => out.push_str("Gender: M\n"),
        Gender::Female => out.push_str("Gender: F\n"),
        Gender::Other => out.push_str("Gender: other\n"),
    }
    if f.address {
        // Without zip-level precision the zip is dropped.
        out.push_str("Address: ");
        push_address(out, persona, world, f.zip);
        out.push('\n');
    }
    if f.phone {
        push_line(out, "Phone: ", &persona.phone);
    }
    if f.email {
        push_line(out, "Email: ", &persona.email);
    }
    if f.ip {
        out.push_str("IP: ");
        push_ipv4(out, persona.ip);
        out.push('\n');
    }
    if f.isp {
        push_line(out, "ISP: ", &persona.isp_name);
    }
    if f.school {
        push_line(out, "School: ", &persona.school);
    }
    if f.passwords {
        push_line(out, "Password: ", &persona.password);
    }
    if f.ssn {
        push_line(out, "SSN: ", &persona.ssn);
    }
    if f.credit_card {
        push_line(out, "CC: ", &persona.credit_card);
    }
    if f.financial {
        push_line(out, "Financial: ", &persona.financial);
    }
    if f.physical {
        push_line(out, "Description: ", &persona.physical);
    }
    if f.criminal {
        push_line(out, "Criminal record: ", &persona.criminal);
    }
    if f.family {
        out.push_str("Family:\n");
        for fam in &persona.family {
            out.push_str("  ");
            out.push_str(&fam.relation);
            push_line(out, ": ", &fam.name);
        }
    }
    if f.usernames {
        out.push_str("Known aliases: ");
        push_joined(out, &persona.usernames, ", ");
        out.push('\n');
    }
    render_osn_block(out, plan, rng);
    if plan.show_community {
        for (site, handle) in &persona.community_accounts {
            out.push_str(site);
            push_line(out, ": ", handle);
        }
    }
}

/// Append `items` separated by `sep` (the bytes of `items.join(sep)`).
fn push_joined(out: &mut String, items: &[String], sep: &str) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(sep);
        }
        out.push_str(item);
    }
}

fn render_compact(
    out: &mut String,
    persona: &Persona,
    plan: &RenderPlan,
    world: &dox_geo::model::World,
    rng: &mut ChaCha8Rng,
) {
    out.push_str("=== dox ===\n");
    let f = &plan.fields;
    if f.real_name {
        out.push_str("name; ");
        let start = out.len();
        push_full_name(out, persona);
        lowercase_from(out, start);
        out.push('\n');
    }
    if f.age {
        out.push_str("age; ");
        push_decimal(out, persona.age, 1);
        out.push('\n');
    }
    if f.address {
        out.push_str("addy; ");
        push_address(out, persona, world, true);
        out.push('\n');
    }
    if f.phone {
        push_line(out, "phone; ", &persona.phone);
    }
    if f.email {
        push_line(out, "email; ", &persona.email);
    }
    if f.ip {
        out.push_str("ip; ");
        push_ipv4(out, persona.ip);
        out.push('\n');
    }
    if f.family {
        out.push_str("family; ");
        for (i, member) in persona.family.iter().enumerate() {
            if i > 0 {
                out.push_str(" - ");
            }
            out.push_str(&member.name);
            out.push_str(" (");
            out.push_str(&member.relation);
            out.push(')');
        }
        out.push('\n');
    }
    render_osn_block(out, plan, rng);
    if plan.show_community {
        for (site, handle) in &persona.community_accounts {
            out.push_str(site);
            push_line(out, "; ", handle);
        }
    }
}

fn render_sloppy(
    out: &mut String,
    persona: &Persona,
    plan: &RenderPlan,
    world: &dox_geo::model::World,
    rng: &mut ChaCha8Rng,
) {
    // Narrative style with minimal labels and no stable signature
    // vocabulary — the "subtle doxes" the paper's §7.3 wants future work
    // to catch. These drive the classifier's false negatives (Table 1
    // recall 0.89) and the extractor's misses.
    let f = &plan.fields;
    let openers = [
        "remember that guy from the thread last week? found them.",
        "took about twenty minutes.",
        "someone asked for info on this one, here you go.",
        "turns out anonymity is hard.",
        "posting this before the thread dies.",
    ];
    out.push_str(openers[rng.random_range(0..openers.len())]);
    out.push(' ');
    if f.real_name {
        match rng.random_range(0..3) {
            0 => {
                out.push_str("goes by ");
                push_full_name(out, persona);
                out.push_str(" irl. ");
            }
            1 => {
                out.push_str("real one is ");
                push_full_name(out, persona);
                out.push_str(". ");
            }
            _ => {
                push_full_name(out, persona);
                out.push_str(" if you were wondering. ");
            }
        }
    }
    if f.age && rng.random_range(0.0..1.0) < 0.7 {
        push_decimal(out, persona.age, 1);
        out.push_str(" years old. ");
    }
    if f.address && rng.random_range(0.0..1.0) < 0.8 {
        out.push_str("lives around ");
        push_address(out, persona, world, true);
        out.push_str(". ");
    }
    if f.phone && rng.random_range(0.0..1.0) < 0.6 {
        out.push_str("reachable at ");
        out.push_str(&persona.phone);
        out.push_str(". ");
    }
    if f.ip && rng.random_range(0.0..1.0) < 0.6 {
        out.push_str("posts from ");
        push_ipv4(out, persona.ip);
        if f.isp {
            out.push_str(" (");
            out.push_str(&persona.isp_name);
            out.push(')');
        }
        out.push_str(". ");
    }
    if f.email {
        out.push_str("inbox is ");
        out.push_str(&persona.email);
        out.push(' ');
    }
    for (network, handle) in &plan.osn {
        let aliases = network.label_aliases();
        out.push_str(aliases[rng.random_range(0..aliases.len())]);
        out.push(' ');
        out.push_str(&handles::render_reference(*network, handle, rng));
        out.push(' ');
    }
    out.push('\n');
}

/// The subtlest dox form: a couple of thread-chatter lines plus one or two
/// pieces of actual information. Nearly indistinguishable from the
/// dox-discussion hard negative at the bag-of-words level — by design,
/// this is where the classifier's errors live.
fn render_fragment(out: &mut String, persona: &Persona, plan: &RenderPlan, rng: &mut ChaCha8Rng) {
    let chatter = crate::names::THREAD_CHATTER;
    for _ in 0..rng.random_range(1..3usize) {
        out.push_str(chatter[rng.random_range(0..chatter.len())]);
        out.push('\n');
    }
    if plan.fields.real_name && rng.random_range(0.0..1.0) < 0.85 {
        out.push_str("first name ");
        push_lowercase(out, &persona.first_name);
        if rng.random_range(0.0..1.0) < 0.6 {
            out.push_str(" last name ");
            push_lowercase(out, &persona.last_name);
        }
        out.push('\n');
    }
    // Half the fragments name accounts with a network keyword; the other
    // half just paste the bare handle ("goes by xX_name_Xx") — the
    // keyword-free form is what the classifier misses (Table 1's false
    // negatives, the paper's §7.3 "more subtle instances of doxing").
    let with_alias = rng.random_range(0.0..1.0) < 0.5;
    for (network, handle) in plan.osn.iter().take(2) {
        if with_alias {
            let aliases = network.label_aliases();
            out.push_str(aliases[rng.random_range(0..aliases.len())]);
            push_line(out, " is ", handle);
        } else {
            out.push_str("goes by ");
            out.push_str(handle);
            out.push_str(" most places\n");
        }
    }
    if plan.fields.phone && rng.random_range(0.0..1.0) < 0.4 {
        push_line(
            out,
            "number ends ",
            &persona.phone[persona.phone.len() - 4..],
        );
    }
}

/// A screencap-mirror stub: the dox content is behind a link; the text
/// names only the victim's alias (and at most one account). Uses the same
/// mirror/screencap vocabulary as benign link-sharing chat.
fn render_stub(out: &mut String, persona: &Persona, plan: &RenderPlan, rng: &mut ChaCha8Rng) {
    out.push_str("dox of ");
    out.push_str(&persona.usernames[0]);
    out.push_str(" in the screencap, too long to type out\n");
    out.push_str("mirror: files.archive.example/");
    push_hex8(out, rng.random_range(0..u32::MAX));
    out.push('\n');
    if let Some((_, handle)) = plan.osn.first() {
        push_line(out, handle, " btw");
    }
    let chatter = crate::names::THREAD_CHATTER;
    out.push_str(chatter[rng.random_range(0..chatter.len())]);
    out.push('\n');
}

fn render_osn_block(out: &mut String, plan: &RenderPlan, rng: &mut ChaCha8Rng) {
    for (network, handle) in &plan.osn {
        let reference = handles::render_reference(*network, handle, rng);
        let style = rng.random_range(0..4u8);
        let alias = network.label_aliases()[rng.random_range(0..network.label_aliases().len())];
        match style {
            // "Facebook: https://facebook.com/example"
            0 => {
                out.push_str(network.name());
                push_line(out, ": ", &reference);
            }
            // "FB example"
            1 => {
                push_uppercase(out, alias);
                push_line(out, " ", handle);
            }
            // "fbs: example"
            2 => {
                out.push_str(alias);
                push_line(out, ": ", &reference);
            }
            // "facebooks; example"
            _ => {
                out.push_str(alias);
                push_line(out, "; ", handle);
            }
        }
    }
}

/// Append the motivation statement (Table 8); draws which of its
/// phrasings to use.
fn push_motivation(
    out: &mut String,
    motivation: Motivation,
    persona: &Persona,
    rng: &mut ChaCha8Rng,
) {
    let first = persona.first_name.as_str();
    let parts: &[&str] = match motivation {
        Motivation::Justice => match rng.random_range(0..3) {
            0 => &[
                "why? ",
                first,
                " scammed half the forum and thought we forgot. justice served.",
            ],
            1 => &["this one snitched to the mods and got three people banned. now everyone knows who you are."],
            _ => &[first, " ripped off buyers for months. consider this justice."],
        },
        Motivation::Revenge => match rng.random_range(0..3) {
            0 => &[
                "you stole my girl ",
                first,
                ", now the internet knows everything about you. revenge is sweet.",
            ],
            1 => &["payback for what you did to me last summer. enjoy the attention."],
            _ => &[
                first,
                " thought they could trash talk me and walk away. this is revenge.",
            ],
        },
        Motivation::Competitive => match rng.random_range(0..2) {
            0 => &["claimed to be undoxable. took us 20 minutes. better luck next time."],
            _ => &["another 'anonymous' wannabe. we are simply better at this."],
        },
        Motivation::Political => match rng.random_range(0..2) {
            0 => &["exposing another member of this hate group. they do not get to hide."],
            _ => &["this person profits from animal abuse. the public deserves to know."],
        },
    };
    for part in parts {
        out.push_str(part);
    }
}

/// Append the credits line (Figure 2); the draw picks the phrasing for
/// two or more credited doxers, and is made for one as well.
fn push_credit_line(out: &mut String, credits: &[String], rng: &mut ChaCha8Rng) {
    out.push_str("dropped by ");
    match (credits, rng.random_range(0..2u8)) {
        ([only], _) => out.push_str(only),
        ([rest @ .., last], 0) => {
            push_joined(out, rest, ", ");
            out.push_str(" and ");
            out.push_str(last);
        }
        ([first, rest @ ..], _) => {
            out.push_str(first);
            out.push_str(", thanks to ");
            push_joined(out, rest, " and ");
            out.push_str(" for the info");
        }
        ([], _) => {}
    }
}

/// Append a `[posted …]` timestamp: `2016-dayDDD HH:MM` for `minutes`
/// into the study year.
fn push_ts(out: &mut String, minutes: u64) {
    let (day, rem) = (minutes / 1440, minutes % 1440);
    out.push_str("2016-day");
    push_decimal(out, day, 3);
    out.push(' ');
    push_decimal(out, rem / 60, 2);
    out.push(':');
    push_decimal(out, rem % 60, 2);
}

/// Build the [`DoxTruth`] record matching a rendered plan.
pub fn truth_of(
    persona: &Persona,
    plan: &RenderPlan,
    duplicate_of: Option<u64>,
    exact_duplicate: bool,
) -> DoxTruth {
    DoxTruth {
        persona_id: persona.id,
        age: persona.age,
        gender: persona.gender,
        primary_country: persona.primary_country,
        fields: plan.fields,
        osn_handles: plan.osn.clone(),
        community: if plan.show_community {
            persona.community
        } else {
            None
        },
        motivation: plan.motivation,
        credits: plan.credits.clone(),
        duplicate_of,
        exact_duplicate,
        sloppy: plan.sloppy,
        stub: plan.stub,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persona::PersonaGenerator;
    use dox_geo::alloc::{AllocConfig, Allocation};
    use dox_geo::model::{World, WorldConfig};
    use rand_chacha::rand_core::SeedableRng;

    struct Fixture {
        world: World,
        personas: Vec<Persona>,
        doxers: DoxerPopulation,
        config: SynthConfig,
    }

    fn fixture() -> Fixture {
        let world = World::generate(&WorldConfig::default(), 3);
        let alloc = Allocation::generate(&world, &AllocConfig::default(), 3);
        let config = SynthConfig::test_scale();
        let mut g = PersonaGenerator::new(&world, &alloc, &config);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let personas = (0..200).map(|_| g.generate(&mut rng)).collect();
        Fixture {
            world,
            personas,
            doxers: DoxerPopulation::generate(5, 0.2),
            config,
        }
    }

    #[test]
    fn rendered_dox_contains_planned_fields() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let p = &f.personas[0];
        let mut plan = sample_plan(p, &f.config, false, &f.doxers, &mut rng);
        plan.sloppy = false;
        plan.template = 0;
        plan.fields.phone = true;
        plan.fields.ip = true;
        plan.fields.real_name = true;
        let text = render(p, &plan, &f.world, Variation::default(), &mut rng);
        assert!(text.contains(&p.phone));
        assert!(text.contains(&p.ip.to_string()));
        assert!(text.contains(&p.full_name()));
    }

    #[test]
    fn excluded_fields_do_not_leak() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let p = &f.personas[1];
        let mut plan = sample_plan(p, &f.config, false, &f.doxers, &mut rng);
        plan.sloppy = false;
        plan.template = 0;
        plan.fields.ssn = false;
        plan.fields.credit_card = false;
        plan.fields.passwords = false;
        let text = render(p, &plan, &f.world, Variation::default(), &mut rng);
        assert!(!text.contains(&p.ssn));
        assert!(!text.contains(&p.credit_card));
        assert!(!text.contains(&p.password));
    }

    #[test]
    fn osn_rates_approximate_table9() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let n = 4000;
        let mut fb = 0usize;
        for i in 0..n {
            let p = &f.personas[i % f.personas.len()];
            let plan = sample_plan(p, &f.config, false, &f.doxers, &mut rng);
            if plan.osn.iter().any(|(net, _)| *net == Network::Facebook) {
                fb += 1;
            }
        }
        // Table 9 target 17.8 %, generated at target/attenuation
        // (see OsnRates::paper_wild), dampened by account ownership 0.9.
        let expected = 0.178 / 0.78 * 0.9;
        let rate = fb as f64 / n as f64;
        assert!(
            (rate - expected).abs() < 0.02,
            "facebook rate {rate} vs {expected}"
        );
    }

    #[test]
    fn proof_of_work_doxes_richer() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(15);
        let n = 2000;
        let count = |pow: bool, rng: &mut ChaCha8Rng| {
            (0..n)
                .map(|i| {
                    sample_plan(
                        &f.personas[i % f.personas.len()],
                        &f.config,
                        pow,
                        &f.doxers,
                        rng,
                    )
                    .osn
                    .len()
                })
                .sum::<usize>() as f64
                / n as f64
        };
        let wild = count(false, &mut rng);
        let pow = count(true, &mut rng);
        assert!(pow > wild * 2.0, "pow {pow} vs wild {wild}");
    }

    #[test]
    fn near_duplicate_differs_but_shares_content() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let p = &f.personas[2];
        let mut plan = sample_plan(p, &f.config, false, &f.doxers, &mut rng);
        plan.sloppy = false;
        plan.template = 0;
        plan.fields.real_name = true;
        let mut rng_a = ChaCha8Rng::seed_from_u64(100);
        let mut rng_b = ChaCha8Rng::seed_from_u64(100);
        let original = render(p, &plan, &f.world, Variation::default(), &mut rng_a);
        let dup = render(
            p,
            &plan,
            &f.world,
            Variation {
                timestamp: Some(12345),
                alt_insignia: true,
                update_section: true,
            },
            &mut rng_b,
        );
        assert_ne!(original, dup);
        assert!(dup.contains("UPDATE"));
        assert!(dup.contains(&p.full_name()));
        assert!(original.contains(&p.full_name()));
    }

    #[test]
    fn credit_lines_mention_all_credited() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        let credits = vec![
            "DoxerA".to_string(),
            "@doxerb".to_string(),
            "DoxerC".to_string(),
        ];
        for _ in 0..10 {
            let mut line = String::new();
            push_credit_line(&mut line, &credits, &mut rng);
            for c in &credits {
                assert!(line.contains(c.as_str()), "{line} missing {c}");
            }
            assert!(line.starts_with("dropped by"));
        }
    }

    #[test]
    fn motivation_rates_approximate_table8() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let n = 6000;
        let mut justice = 0usize;
        let mut any = 0usize;
        for i in 0..n {
            let plan = sample_plan(
                &f.personas[i % f.personas.len()],
                &f.config,
                false,
                &f.doxers,
                &mut rng,
            );
            if plan.motivation == Some(Motivation::Justice) {
                justice += 1;
            }
            if plan.motivation.is_some() {
                any += 1;
            }
        }
        let j = justice as f64 / n as f64;
        let a = any as f64 / n as f64;
        assert!((j - 0.147).abs() < 0.02, "justice {j}");
        assert!((a - 0.285).abs() < 0.025, "any motivation {a}");
    }

    #[test]
    fn truth_reflects_plan() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        let p = &f.personas[3];
        let plan = sample_plan(p, &f.config, false, &f.doxers, &mut rng);
        let t = truth_of(p, &plan, Some(7), true);
        assert_eq!(t.persona_id, p.id);
        assert_eq!(t.fields, plan.fields);
        assert_eq!(t.osn_handles, plan.osn);
        assert_eq!(t.duplicate_of, Some(7));
        assert!(t.exact_duplicate);
    }

    #[test]
    fn sloppy_doxes_have_no_labels() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let p = &f.personas[4];
        let mut plan = sample_plan(p, &f.config, false, &f.doxers, &mut rng);
        plan.sloppy = true;
        plan.stub = false;
        plan.template = 0; // narrative variant
        let text = render(p, &plan, &f.world, Variation::default(), &mut rng);
        assert!(
            !text.contains("Name:"),
            "narrative must not use labels: {text}"
        );
    }

    #[test]
    fn fragment_doxes_share_chatter_with_discussions() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        let p = &f.personas[5];
        let mut plan = sample_plan(p, &f.config, false, &f.doxers, &mut rng);
        plan.sloppy = true;
        plan.stub = false;
        plan.template = 1; // fragment variant
        let text = render(p, &plan, &f.world, Variation::default(), &mut rng);
        let first_line = text.lines().next().unwrap();
        assert!(
            crate::names::THREAD_CHATTER.contains(&first_line),
            "fragment opens with shared chatter: {first_line}"
        );
    }

    #[test]
    fn addresses_are_written_as_postal_format_writes_them() {
        let f = fixture();
        for p in &f.personas {
            let full = p.address.format(&f.world);
            let mut out = String::new();
            push_address(&mut out, p, &f.world, true);
            assert_eq!(out, full);
            out.clear();
            push_address(&mut out, p, &f.world, false);
            assert_eq!(Some(out.as_str()), full.rsplit_once(' ').map(|(a, _)| a));
        }
    }

    #[test]
    fn stub_doxes_reveal_only_alias_and_mirror() {
        let f = fixture();
        let mut rng = ChaCha8Rng::seed_from_u64(27);
        let p = &f.personas[6];
        let mut plan = sample_plan(p, &f.config, false, &f.doxers, &mut rng);
        plan.stub = true;
        let text = render(p, &plan, &f.world, Variation::default(), &mut rng);
        assert!(text.contains("screencap"));
        assert!(text.contains("files.archive.example/"));
        assert!(text.contains(&p.usernames[0]));
        assert!(!text.contains(&p.phone), "stubs leak no phone");
        assert!(!text.contains(&p.full_name()), "stubs leak no real name");
    }
}
