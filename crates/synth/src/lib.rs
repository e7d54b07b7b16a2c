//! # dox-synth
//!
//! The synthetic corpus substrate.
//!
//! The original study scraped 1.74 M documents from pastebin.com, 4chan.org
//! and 8ch.net — data that was never (and should never be) released. This
//! crate replaces it with a *generative model of the corpus*: personas with
//! correlated sensitive attributes, dox files rendered in the formats
//! doxers actually use, realistic non-dox paste traffic (including hard
//! negatives), a doxer population with team structure, and a duplicate /
//! repost model. Every document carries a [`truth::GroundTruth`] record so
//! downstream measurements (classifier quality, extractor accuracy, dedup
//! recall) can be scored exactly.
//!
//! Modules:
//!
//! - [`config`] — every generation rate, cited to the paper table it
//!   reproduces; scaling support.
//! - [`names`] — procedural name/word inventories (no real-person data).
//! - [`markov`] — an order-2 Markov prose generator for filler text.
//! - [`persona`] — victims: demographics (Table 5), sensitive attributes
//!   (Table 6), communities (Table 7), OSN accounts (Tables 2 & 9).
//! - [`handles`] — per-network username morphology.
//! - [`doxers`] — the attacker population with team/clique structure
//!   (Figure 2) and the Twitter follow graph.
//! - [`dox_render`] — dox file templates: labeled-field dumps, ASCII-art
//!   headers, narrative doxes, credits, motivation statements (Table 8).
//! - [`pastes`] — non-dox generators: code, logs, configs, chat, credential
//!   dumps and prose, with hard negatives for classifier error structure.
//! - [`truth`] — per-document ground truth.
//! - [`corpus`] — the stream generator: mixes doxes and pastes per source
//!   and period at the paper's volumes, applies the duplicate model.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod corpus;
pub mod dox_render;
pub mod doxers;
pub mod handles;
pub mod markov;
pub mod names;
pub mod pastes;
pub mod persona;
mod text;
pub mod truth;

pub use config::SynthConfig;
pub use corpus::{CorpusGenerator, SynthDoc};
pub use persona::{Persona, PersonaGenerator};
pub use truth::GroundTruth;
