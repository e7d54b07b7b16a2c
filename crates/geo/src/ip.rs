//! IPv4 address and CIDR-block utilities.
//!
//! `std::net::Ipv4Addr` covers parsing/formatting; this module adds the
//! prefix arithmetic the allocator and longest-prefix-match database need.

use serde::Serialize;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// An IPv4 CIDR block: a network address and a prefix length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Cidr {
    network: u32,
    prefix_len: u8,
}

/// Errors parsing or constructing a [`Cidr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CidrError {
    /// Prefix length above 32.
    PrefixTooLong(u8),
    /// The address has host bits set below the prefix.
    HostBitsSet,
    /// Could not parse the textual form.
    Parse(String),
}

impl fmt::Display for CidrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PrefixTooLong(p) => write!(f, "prefix length {p} exceeds 32"),
            Self::HostBitsSet => write!(f, "network address has host bits set"),
            Self::Parse(s) => write!(f, "cannot parse CIDR from {s:?}"),
        }
    }
}

impl std::error::Error for CidrError {}

impl Cidr {
    /// Construct from a network address and prefix length.
    ///
    /// # Errors
    /// Fails when `prefix_len > 32` or host bits are set in `network`.
    pub fn new(network: Ipv4Addr, prefix_len: u8) -> Result<Self, CidrError> {
        if prefix_len > 32 {
            return Err(CidrError::PrefixTooLong(prefix_len));
        }
        let net = u32::from(network);
        let mask = Self::mask_of(prefix_len);
        if net & !mask != 0 {
            return Err(CidrError::HostBitsSet);
        }
        Ok(Self {
            network: net,
            prefix_len,
        })
    }

    fn mask_of(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(prefix_len))
        }
    }

    /// The netmask of this block.
    pub fn mask(&self) -> u32 {
        Self::mask_of(self.prefix_len)
    }

    /// The network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.network)
    }

    /// The prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Number of addresses in the block (saturating at `u32::MAX` for /0).
    pub fn size(&self) -> u32 {
        if self.prefix_len == 0 {
            u32::MAX
        } else {
            1u32 << (32 - u32::from(self.prefix_len))
        }
    }

    /// Whether `addr` falls inside this block.
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & self.mask() == self.network
    }

    /// The `i`-th address of the block (`i = 0` is the network address).
    ///
    /// Returns `None` when `i` is outside the block.
    pub fn nth(&self, i: u32) -> Option<Ipv4Addr> {
        if self.prefix_len > 0 && i >= self.size() {
            return None;
        }
        Some(Ipv4Addr::from(self.network.wrapping_add(i)))
    }

    /// First address of the block as a raw `u32` (for ordering).
    pub fn start_u32(&self) -> u32 {
        self.network
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.prefix_len)
    }
}

impl FromStr for Cidr {
    type Err = CidrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| CidrError::Parse(s.to_string()))?;
        let addr: Ipv4Addr = addr.parse().map_err(|_| CidrError::Parse(s.to_string()))?;
        let len: u8 = len.parse().map_err(|_| CidrError::Parse(s.to_string()))?;
        Self::new(addr, len)
    }
}

/// Scan `text` for IPv4 dotted-quad literals and return them with byte
/// offsets. Candidate tokens must be exactly four dot-separated decimal
/// octets in `0..=255`; version-like strings (`1.2.3.4.5`) are rejected.
pub fn find_ipv4_literals(text: &str) -> Vec<(usize, Ipv4Addr)> {
    ipv4_literals(text).collect()
}

/// The literals [`find_ipv4_literals`] returns, found lazily in one pass
/// over the bytes without allocating.
///
/// A candidate is a maximal run of digits and dots that starts at a digit
/// not preceded by an ASCII letter, digit or dot (so `v1.2.3.4` and
/// `x.1.2.3.4` are not addresses). Trailing dots end a sentence, not the
/// address; the rest must be four octets of one to three digits, at most
/// 255 and without a leading zero, as [`Ipv4Addr`]'s parser wants them.
pub fn ipv4_literals(text: &str) -> impl Iterator<Item = (usize, Ipv4Addr)> + '_ {
    let bytes = text.as_bytes();
    let mut i = 0usize;
    std::iter::from_fn(move || {
        while i < bytes.len() {
            if !bytes[i].is_ascii_digit() {
                i += 1;
                continue;
            }
            let start = i;
            let prev = start.checked_sub(1).map(|p| bytes[p]);
            let mut ok = !prev.is_some_and(|b| b.is_ascii_alphanumeric() || b == b'.');
            let (mut octets, mut parts) = ([0u8; 4], 0usize);
            let (mut value, mut digits, mut dots) = (0u32, 0usize, 0usize);
            while i < bytes.len() && (bytes[i].is_ascii_digit() || bytes[i] == b'.') {
                let b = bytes[i];
                i += 1;
                if b == b'.' {
                    dots += 1;
                    continue;
                }
                if dots > 0 {
                    // The octet before these dots is complete; two dots in
                    // a row leave an empty octet between them.
                    ok &= dots == 1 && push_octet(&mut octets, &mut parts, value, digits);
                    (value, digits, dots) = (0, 0, 0);
                }
                // A leading zero is only allowed as the whole octet.
                ok &= digits == 0 || value != 0;
                value = (value * 10 + u32::from(b - b'0')).min(1000);
                digits += 1;
                ok &= digits <= 3;
            }
            ok &= push_octet(&mut octets, &mut parts, value, digits) && parts == 4;
            if ok {
                return Some((start, Ipv4Addr::from(octets)));
            }
        }
        None
    })
}

/// Append one parsed octet; false when it is out of range or a fifth one.
fn push_octet(octets: &mut [u8; 4], parts: &mut usize, value: u32, digits: usize) -> bool {
    let (Some(slot), Ok(octet)) = (octets.get_mut(*parts), u8::try_from(value)) else {
        return false;
    };
    *slot = octet;
    *parts += 1;
    digits > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cidr_roundtrip_display_parse() {
        let c: Cidr = "10.1.0.0/16".parse().unwrap();
        assert_eq!(c.to_string(), "10.1.0.0/16");
        assert_eq!(c.size(), 65536);
    }

    #[test]
    fn cidr_rejects_host_bits() {
        assert_eq!(
            Cidr::new(Ipv4Addr::new(10, 1, 0, 1), 16),
            Err(CidrError::HostBitsSet)
        );
    }

    #[test]
    fn cidr_rejects_long_prefix() {
        assert_eq!(
            Cidr::new(Ipv4Addr::new(0, 0, 0, 0), 33),
            Err(CidrError::PrefixTooLong(33))
        );
    }

    #[test]
    fn cidr_contains_boundaries() {
        let c: Cidr = "192.168.4.0/22".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(192, 168, 4, 0)));
        assert!(c.contains(Ipv4Addr::new(192, 168, 7, 255)));
        assert!(!c.contains(Ipv4Addr::new(192, 168, 8, 0)));
        assert!(!c.contains(Ipv4Addr::new(192, 168, 3, 255)));
    }

    #[test]
    fn nth_in_and_out_of_range() {
        let c: Cidr = "10.0.0.0/30".parse().unwrap();
        assert_eq!(c.nth(0), Some(Ipv4Addr::new(10, 0, 0, 0)));
        assert_eq!(c.nth(3), Some(Ipv4Addr::new(10, 0, 0, 3)));
        assert_eq!(c.nth(4), None);
    }

    #[test]
    fn zero_prefix_contains_everything() {
        let c: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(c.size(), u32::MAX);
    }

    #[test]
    fn parse_errors() {
        assert!("10.0.0.0".parse::<Cidr>().is_err());
        assert!("10.0.0.0/ab".parse::<Cidr>().is_err());
        assert!("999.0.0.0/8".parse::<Cidr>().is_err());
    }

    #[test]
    fn find_ips_basic() {
        let found = find_ipv4_literals("IP: 73.54.12.9 and 10.0.0.1.");
        let ips: Vec<String> = found.iter().map(|(_, ip)| ip.to_string()).collect();
        assert_eq!(ips, vec!["73.54.12.9", "10.0.0.1"]);
    }

    #[test]
    fn find_ips_rejects_versions_and_octet_overflow() {
        assert!(find_ipv4_literals("version 1.2.3.4.5 here").is_empty());
        assert!(find_ipv4_literals("v1.2.3.4").is_empty());
        assert!(find_ipv4_literals("300.1.1.1").is_empty());
    }

    #[test]
    fn find_ips_octet_grammar() {
        let ips =
            |t: &str| -> Vec<String> { ipv4_literals(t).map(|(_, ip)| ip.to_string()).collect() };
        assert_eq!(
            ips("0.0.0.0 255.255.255.255"),
            ["0.0.0.0", "255.255.255.255"]
        );
        assert!(ips("01.2.3.4 1.2.3.04 1..2.3 1.2.3 .1.2.3.4").is_empty());
        assert!(ips("1234.1.1.1 99999999999.1.1.1 1.2.3.4.").len() == 1);
        assert_eq!(ips("a 9.8.7.6... é1.2.3.4"), ["9.8.7.6", "1.2.3.4"]);
    }

    #[test]
    fn find_ips_offsets() {
        let text = "x 1.2.3.4 y";
        let found = find_ipv4_literals(text);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, 2);
    }
}
