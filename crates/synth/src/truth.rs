//! Per-document ground truth.
//!
//! Every synthetic document carries a [`GroundTruth`] so downstream
//! measurements can be scored exactly: the classifier's confusion matrix
//! (Table 1), the extractor's per-field accuracy (Table 2), dedup recall
//! (§3.1.4), and the demographic/motivation/community analyses
//! (Tables 5–8). Ground truth never flows into the pipeline's inference
//! path — only into its evaluation.

use dox_osn::network::Network;
use serde::{Deserialize, Serialize};

/// The victim community the paper classifies from listed accounts (Table 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Community {
    /// ≥ 2 accounts on gaming/streaming sites.
    Gamer,
    /// ≥ 2 accounts on hacking/cybercrime communities.
    Hacker,
    /// Publicly known person.
    Celebrity,
}

/// The stated motivation of a dox (Table 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Motivation {
    /// Demonstrating "superior" ability / un-doxability claims.
    Competitive,
    /// Retaliation for a wrong against the doxer.
    Revenge,
    /// Punishing a wrong against a third party.
    Justice,
    /// Larger political goal (de-anonymization campaigns etc.).
    Political,
}

/// Victim gender as stated in dox files (Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Gender {
    /// Male: 82.2 % of labeled doxes.
    Male,
    /// Female: 16.3 %.
    Female,
    /// Other: 0.4 %.
    Other,
}

/// Which sensitive-field categories a dox file includes (Table 6), as
/// booleans — mirroring the paper's privacy-preserving datastore, which
/// records only *whether* a category appears, never the value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IncludedFields {
    /// Street address present.
    pub address: bool,
    /// Zip-level precision present.
    pub zip: bool,
    /// Phone number present.
    pub phone: bool,
    /// Family members listed.
    pub family: bool,
    /// Email address present.
    pub email: bool,
    /// Date of birth present.
    pub dob: bool,
    /// Age stated.
    pub age: bool,
    /// Real name present.
    pub real_name: bool,
    /// School named.
    pub school: bool,
    /// Other usernames listed.
    pub usernames: bool,
    /// ISP named.
    pub isp: bool,
    /// IP address present.
    pub ip: bool,
    /// Passwords present.
    pub passwords: bool,
    /// Physical traits present.
    pub physical: bool,
    /// Criminal record present.
    pub criminal: bool,
    /// SSN present.
    pub ssn: bool,
    /// Credit-card number present.
    pub credit_card: bool,
    /// Other financial info present.
    pub financial: bool,
}

/// Ground truth for a dox document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DoxTruth {
    /// The victim persona's id.
    pub persona_id: u64,
    /// Victim age (years).
    pub age: u8,
    /// Victim gender.
    pub gender: Gender,
    /// Victim lives in the primary country.
    pub primary_country: bool,
    /// Field categories included in this rendering.
    pub fields: IncludedFields,
    /// OSN handles actually written into the text.
    pub osn_handles: Vec<(Network, String)>,
    /// Victim community, when the dox exposes one.
    pub community: Option<Community>,
    /// Stated motivation, when present.
    pub motivation: Option<Motivation>,
    /// Credited doxer aliases (empty when uncredited).
    pub credits: Vec<String>,
    /// Whether this posting duplicates an earlier dox of the same victim.
    pub duplicate_of: Option<u64>,
    /// Whether this is a byte-exact repost (vs. a near-duplicate).
    pub exact_duplicate: bool,
    /// Whether this rendering is "sloppy" (weakly structured).
    pub sloppy: bool,
    /// Whether this is a screencap-mirror stub (content behind a link; the
    /// text itself carries almost nothing labelable).
    pub stub: bool,
}

/// The category of a non-dox paste (drives classifier error analysis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PasteKind {
    /// Source code.
    Code,
    /// Server/application logs.
    Log,
    /// Configuration dump.
    Config,
    /// Chat transcript.
    Chat,
    /// Prose (essay, rant, notes).
    Prose,
    /// Hard negative: credential combo dump.
    CredentialDump,
    /// Hard negative: member/user list with emails.
    UserList,
    /// Hard negative: filled-in registration/contact form.
    FormData,
    /// Hard negative: a self-published "about me" profile card — the same
    /// labeled-field structure as a dox, posted voluntarily.
    ProfileCard,
    /// Hard negative: a "how to dox" tutorial — dox vocabulary, no victim.
    DoxTutorial,
    /// Hard negative: chan chatter *about* doxing someone ("drop the dox").
    DoxDiscussion,
}

impl PasteKind {
    /// Whether this kind is a deliberate hard negative.
    pub fn is_hard_negative(self) -> bool {
        matches!(
            self,
            PasteKind::CredentialDump
                | PasteKind::UserList
                | PasteKind::FormData
                | PasteKind::ProfileCard
                | PasteKind::DoxTutorial
                | PasteKind::DoxDiscussion
        )
    }
}

/// Ground truth for any document in the corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum GroundTruth {
    /// A dox posting.
    Dox(Box<DoxTruth>),
    /// A non-dox paste.
    Paste {
        /// What kind of paste.
        kind: PasteKind,
    },
}

impl GroundTruth {
    /// True when the document is a dox.
    pub fn is_dox(&self) -> bool {
        matches!(self, GroundTruth::Dox(_))
    }

    /// The dox truth, if a dox.
    pub fn as_dox(&self) -> Option<&DoxTruth> {
        match self {
            GroundTruth::Dox(d) => Some(d),
            GroundTruth::Paste { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_negative_flags() {
        assert!(PasteKind::CredentialDump.is_hard_negative());
        assert!(PasteKind::UserList.is_hard_negative());
        assert!(PasteKind::FormData.is_hard_negative());
        assert!(!PasteKind::Code.is_hard_negative());
        assert!(!PasteKind::Prose.is_hard_negative());
    }

    #[test]
    fn truth_accessors() {
        let paste = GroundTruth::Paste {
            kind: PasteKind::Log,
        };
        assert!(!paste.is_dox());
        assert!(paste.as_dox().is_none());
    }
}
