//! Procedural name and word inventories.
//!
//! All names are synthetic: either drawn from short invented lists or
//! composed from syllables. No real-person data is embedded. The lists are
//! deliberately small — what matters for the pipeline is the *shape* of the
//! text (a name-looking token pair after "Name:"), not census realism.

use rand::RngExt;
use rand_chacha::ChaCha8Rng;

/// Invented given names (mixed-gender pools the generator samples from).
pub const FIRST_NAMES_M: &[&str] = &[
    "Jaren", "Kolten", "Dastin", "Marek", "Torvin", "Eldan", "Rikard", "Soren", "Calder", "Bramm",
    "Ludek", "Ondrei", "Pavel", "Quinten", "Ragnar", "Stellan", "Tobin", "Ulric", "Vance",
    "Wendel", "Yorick", "Zane", "Anders", "Boris",
];

/// Invented given names, feminine pool.
pub const FIRST_NAMES_F: &[&str] = &[
    "Maren", "Kaia", "Della", "Sorcha", "Tilde", "Una", "Vesla", "Wren", "Ysolt", "Zelda",
    "Anneli", "Brenna", "Cerys", "Dagny", "Elin", "Freja", "Greta", "Hedda", "Ingrid", "Jorun",
    "Katla", "Liv", "Moira", "Nessa",
];

/// Syllables composed into surnames.
const SURNAME_FIRST: &[&str] = &[
    "Ald", "Berg", "Corn", "Dahl", "Eker", "Fisk", "Gran", "Holm", "Iver", "Jern", "Kvist", "Lind",
    "Mork", "Nord", "Oster", "Palm", "Quist", "Rosen", "Sand", "Thorn", "Ulv", "Vang", "West",
    "Yster",
];
const SURNAME_SECOND: &[&str] = &[
    "berg", "dal", "feld", "gren", "haug", "land", "lund", "mark", "nes", "rud", "stad", "strom",
    "vik", "wall", "by", "sen",
];

/// Street-name stems.
const STREET_FIRST: &[&str] = &[
    "Maple", "Cedar", "Birch", "Harbor", "Mill", "Quarry", "Summit", "Vale", "Willow", "Aspen",
    "Bluff", "Canal", "Drift", "Elm", "Fern", "Grove",
];
const STREET_SECOND: &[&str] = &[
    "Street", "Avenue", "Lane", "Road", "Court", "Drive", "Terrace", "Way",
];

/// School-name stems.
const SCHOOL_FIRST: &[&str] = &[
    "Northgate",
    "Riverview",
    "Stonebridge",
    "Lakecrest",
    "Fairhollow",
    "Westmere",
    "Oakhurst",
    "Pinefield",
];
const SCHOOL_KIND: &[&str] = &["High School", "Academy", "Middle School", "College"];

/// Email-provider domains (all under reserved example TLDs).
pub const EMAIL_DOMAINS: &[&str] = &[
    "mailbox.example",
    "quickmail.example",
    "postal.example",
    "inbox.example",
    "webmail.example",
];

/// Gaming-community sites used for the community classification (Table 7):
/// a dox listing ≥ 2 of these marks the victim as a gamer.
pub const GAMING_SITES: &[&str] = &[
    "steamcommunity.example",
    "minecraftforum.example",
    "speedrun.example",
    "clanhub.example",
    "gamebattles.example",
];

/// Hacking-community sites (Table 7): ≥ 2 marks the victim as a hacker.
pub const HACKING_SITES: &[&str] = &[
    "hackforums.example",
    "leakbase.example",
    "crackcommunity.example",
    "exploitden.example",
];

/// Relations used for family-member lines in dox files.
pub const RELATIONS: &[&str] = &[
    "mother",
    "father",
    "brother",
    "sister",
    "uncle",
    "aunt",
    "grandmother",
    "cousin",
];

/// Thread-chatter lines shared between dox *fragments* (subtle doxes that
/// attach real information) and dox *discussion* posts (no information).
/// Sharing one pool is deliberate: the only difference between the two
/// classes is the per-victim data itself, which is exactly the ambiguity
/// that caps a bag-of-words classifier's accuracy (paper Table 1).
pub const THREAD_CHATTER: &[&str] = &[
    "ok since everyone keeps asking in the thread",
    "took longer than expected but here it is",
    "posting what we have so far, more later",
    "the rest is easy to find once you have this",
    "anyone have the dox on this clown from the stream last night",
    "drop the dox or it didnt happen",
    "someone said his address got posted but the paste is gone",
    "the dox was fake, wrong name wrong state, embarrassing",
    "mods delete the dox threads within an hour anyway",
    "i saw the phone number before the delete, not posting it",
    "his skype and twitter were in the old paste",
    "first name was right but everything else was somebody else's",
    "check the archive before asking again",
    "this has been reposted like four times now",
    "last thread got nuked before i could save it",
    "pretty sure that paste was taken down within the hour",
    "somebody claimed they had the school too, never delivered",
    "the email bounced so that part is stale",
    "he changed all his usernames after the last thread",
    "stop spoonfeeding, the info is one search away",
    "half of it was recycled from the old drop",
    "if it gets deleted again someone mirror it this time",
    "the zip was wrong by one digit, fixed version when",
    "nobody verified the isp claim, take it with salt",
    "that is the sister's account not his, learn to read",
    "same guy who got dropped in november, old news",
    "the discord screenshots are worthless without the rest",
    "why do these threads always die before the good part",
];

/// A base vocabulary for the Markov prose generator: ordinary words so
/// non-dox "essay" pastes look like text, not noise.
pub const PROSE_SEED: &str = "\
the project started as a small idea and grew into something bigger than \
anyone expected over the first year the team shipped three releases and \
learned a lot about what users actually wanted from the product the hardest \
part was keeping the scope small while still making progress every week we \
wrote notes about what worked and what did not and those notes became the \
basis for the next plan when the server crashed during the demo everyone \
stayed calm and we recovered in under an hour which felt like a small \
victory the documentation needed work so we spent a month rewriting the \
guides and the tutorials after that support requests dropped by half and \
the forum became a friendlier place people started sharing their own \
configurations and scripts which we collected into a community repository \
the lesson we keep coming back to is that steady boring work beats clever \
tricks almost every time and that listening to the quiet users matters as \
much as answering the loud ones next quarter the plan is to clean up the \
build system migrate the old data and finally write the tests we keep \
postponing";

/// Pick a given name matching `feminine`.
pub fn first_name(rng: &mut ChaCha8Rng, feminine: bool) -> String {
    let pool = if feminine {
        FIRST_NAMES_F
    } else {
        FIRST_NAMES_M
    };
    pool[rng.random_range(0..pool.len())].to_string()
}

/// Compose a synthetic surname.
pub fn last_name(rng: &mut ChaCha8Rng) -> String {
    let first = SURNAME_FIRST[rng.random_range(0..SURNAME_FIRST.len())];
    let second = SURNAME_SECOND[rng.random_range(0..SURNAME_SECOND.len())];
    [first, second].concat()
}

/// Compose a street name ("Maple Street").
pub fn street_name(rng: &mut ChaCha8Rng) -> String {
    let first = STREET_FIRST[rng.random_range(0..STREET_FIRST.len())];
    let second = STREET_SECOND[rng.random_range(0..STREET_SECOND.len())];
    [first, second].join(" ")
}

/// Compose a school name ("Riverview High School").
pub fn school_name(rng: &mut ChaCha8Rng) -> String {
    let first = SCHOOL_FIRST[rng.random_range(0..SCHOOL_FIRST.len())];
    let kind = SCHOOL_KIND[rng.random_range(0..SCHOOL_KIND.len())];
    [first, kind].join(" ")
}

/// Pick an email domain.
pub fn email_domain(rng: &mut ChaCha8Rng) -> &'static str {
    EMAIL_DOMAINS[rng.random_range(0..EMAIL_DOMAINS.len())]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;

    #[test]
    fn names_nonempty_and_deterministic() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(first_name(&mut a, true), first_name(&mut b, true));
        assert_eq!(last_name(&mut a), last_name(&mut b));
        assert!(!street_name(&mut a).is_empty());
        assert!(!school_name(&mut a).is_empty());
    }

    #[test]
    fn pools_disjoint_by_gender() {
        for m in FIRST_NAMES_M {
            assert!(!FIRST_NAMES_F.contains(m));
        }
    }

    #[test]
    fn email_domains_are_reserved_tlds() {
        for d in EMAIL_DOMAINS {
            assert!(d.ends_with(".example"), "{d} must be a reserved TLD");
        }
    }

    #[test]
    fn community_site_lists_disjoint() {
        for g in GAMING_SITES {
            assert!(!HACKING_SITES.contains(g));
        }
    }

    #[test]
    fn street_names_have_two_parts() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..20 {
            let s = street_name(&mut rng);
            assert_eq!(s.split(' ').count(), 2);
        }
    }

    #[test]
    fn prose_seed_is_substantial() {
        assert!(PROSE_SEED.split_whitespace().count() > 150);
    }
}
