//! Geographic coordinates and great-circle distance.

use serde::Serialize;

/// Mean Earth radius in kilometres, as used by the haversine formula.
pub const EARTH_RADIUS_KM: f64 = 6371.0;

/// A latitude/longitude pair in degrees.
///
/// Latitude is clamped-by-construction to `[-90, 90]` and longitude to
/// `(-180, 180]` by [`LatLon::new`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatLon {
    /// Latitude in degrees, positive north.
    pub lat: f64,
    /// Longitude in degrees, positive east.
    pub lon: f64,
}

impl LatLon {
    /// Create a coordinate, clamping latitude and wrapping longitude into
    /// the canonical ranges.
    pub fn new(lat: f64, lon: f64) -> Self {
        let lat = lat.clamp(-90.0, 90.0);
        let mut lon = (lon + 180.0) % 360.0;
        if lon < 0.0 {
            lon += 360.0;
        }
        Self {
            lat,
            lon: lon - 180.0,
        }
    }

    /// Great-circle distance to `other` in kilometres (haversine formula).
    pub fn distance_km(&self, other: &LatLon) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_KM * a.sqrt().asin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_distance_to_self() {
        let p = LatLon::new(41.88, -87.63);
        assert!(p.distance_km(&p) < 1e-9);
    }

    #[test]
    fn known_distance_roughly_right() {
        // Two points one degree of latitude apart ≈ 111.19 km.
        let a = LatLon::new(10.0, 20.0);
        let b = LatLon::new(11.0, 20.0);
        let d = a.distance_km(&b);
        assert!((d - 111.19).abs() < 0.5, "d = {d}");
    }

    #[test]
    fn distance_symmetric() {
        let a = LatLon::new(41.0, -87.0);
        let b = LatLon::new(40.0, -74.0);
        assert!((a.distance_km(&b) - b.distance_km(&a)).abs() < 1e-9);
    }

    #[test]
    fn antipodal_is_half_circumference() {
        let a = LatLon::new(0.0, 0.0);
        let b = LatLon::new(0.0, 180.0);
        let half = std::f64::consts::PI * EARTH_RADIUS_KM;
        assert!((a.distance_km(&b) - half).abs() < 1.0);
    }

    #[test]
    fn latitude_clamped_longitude_wrapped() {
        let p = LatLon::new(95.0, 190.0);
        assert_eq!(p.lat, 90.0);
        assert!((p.lon - -170.0).abs() < 1e-9);
        let q = LatLon::new(0.0, -190.0);
        assert!((q.lon - 170.0).abs() < 1e-9);
    }
}
