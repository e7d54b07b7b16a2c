//! Reference copies of the corpus generator's text renderers, as they
//! were before the bodies were built without `core::fmt`. The generator's
//! differential test (`generator_oracle.rs`) holds the library to the
//! same bytes and the same RNG draws as these.

pub mod chan;
pub mod markov;
pub mod pastes;
