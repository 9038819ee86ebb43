//! IPv4 prefixes, the vocabulary of site-edge traffic classification.
//!
//! A site agent maps each outbound packet to a bundle by the destination
//! address: every remote site announces one or more address prefixes, and
//! the longest matching prefix decides which bundle a packet belongs to.
//! This module defines only the prefix *value type*; the longest-prefix
//! match table lives in `bundler-agent`.

use core::fmt;
use core::str::FromStr;

/// An IPv4 address prefix: a network address and a mask length.
///
/// The network address is stored in canonical form — bits below the mask
/// length are zero — so two `IpPrefix` values compare equal exactly when
/// they describe the same address block.
///
/// # Example
///
/// ```
/// use bundler_types::{flow::ipv4, IpPrefix};
///
/// let site: IpPrefix = "10.1.3.0/24".parse().unwrap();
/// assert_eq!(site, IpPrefix::new(ipv4(10, 1, 3, 0), 24).unwrap());
/// assert!(site.contains(ipv4(10, 1, 3, 77)));
/// assert!(!site.contains(ipv4(10, 1, 4, 1)));
/// // Host bits are canonicalized away.
/// assert_eq!(IpPrefix::new(ipv4(10, 1, 3, 99), 24).unwrap(), site);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpPrefix {
    addr: u32,
    len: u8,
}

// `len` is the mask length; a `/0` prefix is the *default route*, not an
// "empty" prefix, so clippy's suggested `is_empty` would be misleading.
#[allow(clippy::len_without_is_empty)]
impl IpPrefix {
    /// The all-addresses prefix `0.0.0.0/0`.
    pub const DEFAULT: IpPrefix = IpPrefix { addr: 0, len: 0 };

    /// Creates a prefix from an address and a mask length, canonicalizing
    /// the address (host bits are cleared).
    ///
    /// Returns `None` if `len > 32`.
    pub const fn new(addr: u32, len: u8) -> Option<IpPrefix> {
        if len > 32 {
            return None;
        }
        Some(IpPrefix {
            addr: addr & mask(len),
            len,
        })
    }

    /// Creates a host prefix (`/32`) covering exactly one address.
    pub const fn host(addr: u32) -> IpPrefix {
        IpPrefix { addr, len: 32 }
    }

    /// The canonical network address (host bits zero).
    pub const fn addr(self) -> u32 {
        self.addr
    }

    /// The mask length in bits (0..=32).
    pub const fn len(self) -> u8 {
        self.len
    }

    /// The netmask as a `u32` (e.g. `/24` → `0xffff_ff00`).
    pub const fn netmask(self) -> u32 {
        mask(self.len)
    }

    /// True for the zero-length prefix, which matches every address.
    pub const fn is_default(self) -> bool {
        self.len == 0
    }

    /// True if `addr` falls inside this prefix.
    pub const fn contains(self, addr: u32) -> bool {
        addr & mask(self.len) == self.addr
    }

    /// True if every address in `other` is also in `self`.
    pub const fn covers(self, other: IpPrefix) -> bool {
        self.len <= other.len && self.contains(other.addr)
    }

    /// Number of addresses in the prefix (2^(32-len)).
    pub const fn size(self) -> u64 {
        1u64 << (32 - self.len)
    }
}

/// The netmask for a prefix length; `mask(0) == 0`, `mask(32) == u32::MAX`.
const fn mask(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - len)
    }
}

impl fmt::Display for IpPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.addr.to_be_bytes();
        write!(f, "{}.{}.{}.{}/{}", b[0], b[1], b[2], b[3], self.len)
    }
}

/// Error returned when parsing an [`IpPrefix`] from text fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePrefixError(String);

impl fmt::Display for ParsePrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {}", self.0)
    }
}

impl std::error::Error for ParsePrefixError {}

impl FromStr for IpPrefix {
    type Err = ParsePrefixError;

    /// Parses `a.b.c.d/len` (or a bare `a.b.c.d`, treated as `/32`).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParsePrefixError(s.to_string());
        let (addr_part, len) = match s.split_once('/') {
            Some((a, l)) => (a, l.parse::<u8>().map_err(|_| err())?),
            None => (s, 32),
        };
        let mut octets = [0u8; 4];
        let mut n = 0;
        for part in addr_part.split('.') {
            if n == 4 {
                return Err(err());
            }
            octets[n] = part.parse::<u8>().map_err(|_| err())?;
            n += 1;
        }
        if n != 4 {
            return Err(err());
        }
        IpPrefix::new(u32::from_be_bytes(octets), len).ok_or_else(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::ipv4;

    #[test]
    fn canonicalizes_host_bits() {
        let p = IpPrefix::new(ipv4(10, 1, 2, 3), 24).unwrap();
        assert_eq!(p.addr(), ipv4(10, 1, 2, 0));
        assert_eq!(p, IpPrefix::new(ipv4(10, 1, 2, 0), 24).unwrap());
        assert_eq!(p.to_string(), "10.1.2.0/24");
    }

    #[test]
    fn rejects_overlong_masks() {
        assert!(IpPrefix::new(0, 33).is_none());
        assert!(IpPrefix::new(0, 32).is_some());
    }

    #[test]
    fn contains_and_covers() {
        let p24 = IpPrefix::new(ipv4(10, 1, 2, 0), 24).unwrap();
        assert!(p24.contains(ipv4(10, 1, 2, 255)));
        assert!(!p24.contains(ipv4(10, 1, 3, 0)));
        let p16 = IpPrefix::new(ipv4(10, 1, 0, 0), 16).unwrap();
        assert!(p16.covers(p24));
        assert!(!p24.covers(p16));
        assert!(p24.covers(p24));
        assert!(IpPrefix::DEFAULT.contains(ipv4(255, 255, 255, 255)));
        assert!(IpPrefix::DEFAULT.covers(p16));
        assert!(IpPrefix::DEFAULT.is_default());
    }

    #[test]
    fn host_prefix_is_one_address() {
        let h = IpPrefix::host(ipv4(192, 168, 0, 1));
        assert_eq!(h.len(), 32);
        assert_eq!(h.size(), 1);
        assert!(h.contains(ipv4(192, 168, 0, 1)));
        assert!(!h.contains(ipv4(192, 168, 0, 2)));
        assert_eq!(IpPrefix::DEFAULT.size(), 1 << 32);
    }

    #[test]
    fn netmask_values() {
        assert_eq!(IpPrefix::new(0, 0).unwrap().netmask(), 0);
        assert_eq!(IpPrefix::new(0, 8).unwrap().netmask(), 0xff00_0000);
        assert_eq!(IpPrefix::new(0, 24).unwrap().netmask(), 0xffff_ff00);
        assert_eq!(IpPrefix::new(0, 32).unwrap().netmask(), u32::MAX);
    }

    #[test]
    fn parses_and_round_trips() {
        let p: IpPrefix = "10.1.2.0/24".parse().unwrap();
        assert_eq!(p, IpPrefix::new(ipv4(10, 1, 2, 0), 24).unwrap());
        assert_eq!(p.to_string().parse::<IpPrefix>().unwrap(), p);
        // Bare address parses as /32.
        assert_eq!(
            "1.2.3.4".parse::<IpPrefix>().unwrap(),
            IpPrefix::host(ipv4(1, 2, 3, 4))
        );
        // Non-canonical input is canonicalized, as with `new`.
        assert_eq!("10.1.2.99/24".parse::<IpPrefix>().unwrap(), p);
        for bad in [
            "",
            "10.1.2/24",
            "10.1.2.3.4/8",
            "10.1.2.0/33",
            "10.1.2.0/x",
            "300.0.0.0/8",
        ] {
            assert!(bad.parse::<IpPrefix>().is_err(), "{bad} should not parse");
        }
    }
}
