//! Postal addresses and geocoding.
//!
//! Personas in `dox-synth` live at a synthetic [`PostalAddress`]; the
//! validation study geocodes the address (via its city) and compares the
//! result with the geolocation of the persona's IP.

use crate::coords::LatLon;
use crate::model::{CityId, StateId, World};
use serde::Serialize;

/// A synthetic street address.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct PostalAddress {
    /// House number.
    pub number: u32,
    /// Street name, e.g. "Maple Street".
    pub street: String,
    /// City the address is in.
    pub city: CityId,
    /// Zip code (inside the city's assigned range).
    pub zip: u32,
}

impl PostalAddress {
    /// The state this address is in.
    pub fn state(&self, world: &World) -> StateId {
        world.city(self.city).state
    }

    /// Format the address the way dox files print it:
    /// `"<number> <street>, <City>, <ST> <zip>"`.
    pub fn format(&self, world: &World) -> String {
        let city = world.city(self.city);
        let state = world.state(city.state);
        format!(
            "{} {}, {}, {} {}",
            self.number, self.street, city.name, state.abbrev, self.zip
        )
    }

    /// Geocode to a coordinate: the city's location. Street-level precision
    /// does not exist in the synthetic world (just as commercial geocoders
    /// quantize to rooftop/street segments), and the consistency study only
    /// needs city/state granularity.
    pub fn geocode(&self, world: &World) -> LatLon {
        world.city(self.city).location
    }
}

/// Errors from [`parse_zip`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZipError {
    /// Input was not a 5-digit number.
    Malformed(String),
}

impl std::fmt::Display for ZipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Malformed(s) => write!(f, "malformed zip code {s:?}"),
        }
    }
}

impl std::error::Error for ZipError {}

/// Parse a 5-digit zip code from text (leading zeros allowed).
pub fn parse_zip(text: &str) -> Result<u32, ZipError> {
    let t = text.trim();
    if t.len() == 5 && t.bytes().all(|b| b.is_ascii_digit()) {
        t.parse().map_err(|_| ZipError::Malformed(text.to_string()))
    } else {
        Err(ZipError::Malformed(text.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig::default(), 11)
    }

    fn addr(world: &World) -> PostalAddress {
        let city = &world.cities()[4];
        PostalAddress {
            number: 1210,
            street: "Maple Street".into(),
            city: city.id,
            zip: city.zip_range.0,
        }
    }

    #[test]
    fn format_contains_all_parts() {
        let w = world();
        let a = addr(&w);
        let s = a.format(&w);
        assert!(s.contains("1210 Maple Street"));
        assert!(s.contains(&w.city(a.city).name));
        assert!(s.contains(&w.state(a.state(&w)).abbrev));
        assert!(s.contains(&a.zip.to_string()));
    }

    #[test]
    fn geocode_is_city_location() {
        let w = world();
        let a = addr(&w);
        assert_eq!(a.geocode(&w), w.city(a.city).location);
    }

    #[test]
    fn state_resolution() {
        let w = world();
        let a = addr(&w);
        assert_eq!(a.state(&w), w.city(a.city).state);
    }

    #[test]
    fn zip_parsing() {
        assert_eq!(parse_zip("60607"), Ok(60607));
        assert_eq!(parse_zip(" 00601 "), Ok(601));
        assert!(parse_zip("6060").is_err());
        assert!(parse_zip("606070").is_err());
        assert!(parse_zip("6o607").is_err());
        assert!(parse_zip("").is_err());
    }
}
