//! Longest-prefix-match classification of packets to bundles.
//!
//! A site edge forwards traffic for *many* remote sites; every outbound
//! packet must be mapped to its bundle before it can be queued, so the
//! lookup sits on the per-packet fast path. The table here is the classic
//! software LPM structure: one hash table per prefix length plus a bitmap
//! of occupied lengths, so a lookup masks the address once per *occupied*
//! length (longest first) and never scans entries. With the handful of
//! lengths a site announces in practice, that is a few hash probes per
//! packet — independent of how many prefixes or bundles are installed.

use std::collections::HashMap;

use bundler_types::{FlowKey, IpPrefix};

/// A longest-prefix-match table from IPv4 destination prefixes to values
/// (typically bundle handles).
///
/// # Example
///
/// ```
/// use bundler_agent::PrefixClassifier;
/// use bundler_types::flow::ipv4;
///
/// let mut table = PrefixClassifier::new();
/// table.insert("10.0.0.0/8".parse().unwrap(), "site-a");
/// table.insert("10.1.0.0/16".parse().unwrap(), "site-b");
/// // The most specific installed prefix wins.
/// assert_eq!(table.lookup(ipv4(10, 1, 2, 3)), Some(&"site-b"));
/// assert_eq!(table.lookup(ipv4(10, 9, 9, 9)), Some(&"site-a"));
/// assert_eq!(table.lookup(ipv4(192, 168, 0, 1)), None);
/// ```
#[derive(Debug, Clone)]
pub struct PrefixClassifier<V> {
    /// `tables[len]` maps canonical network addresses of `/len` prefixes.
    tables: [HashMap<u32, V>; 33],
    /// Bit `len` is set iff `tables[len]` is non-empty.
    occupied: u64,
    len: usize,
}

impl<V> Default for PrefixClassifier<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixClassifier<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        PrefixClassifier {
            tables: std::array::from_fn(|_| HashMap::new()),
            occupied: 0,
            len: 0,
        }
    }

    /// Number of installed prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no prefixes are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Installs `prefix → value`, replacing and returning any previous value
    /// for the identical prefix. More- and less-specific prefixes coexist;
    /// lookups prefer the longest match.
    pub fn insert(&mut self, prefix: IpPrefix, value: V) -> Option<V> {
        let table = &mut self.tables[prefix.len() as usize];
        let old = table.insert(prefix.addr(), value);
        if old.is_none() {
            self.len += 1;
            self.occupied |= 1 << prefix.len();
        }
        old
    }

    /// Exact-match lookup: the value installed for precisely this prefix
    /// (not a covering or covered one), if any.
    pub fn get(&self, prefix: IpPrefix) -> Option<&V> {
        self.tables[prefix.len() as usize].get(&prefix.addr())
    }

    /// Longest-prefix-match lookup: the value of the most specific installed
    /// prefix containing `addr`, if any.
    pub fn lookup(&self, addr: u32) -> Option<&V> {
        // Walk occupied prefix lengths from most to least specific. The
        // bitmap keeps this proportional to the number of *distinct lengths*
        // in the table, not the number of prefixes.
        let mut lens = self.occupied;
        while lens != 0 {
            let len = 63 - lens.leading_zeros() as u8;
            let masked = if len == 0 {
                0
            } else {
                addr & (u32::MAX << (32 - len))
            };
            if let Some(v) = self.tables[len as usize].get(&masked) {
                return Some(v);
            }
            lens &= !(1 << len);
        }
        None
    }

    /// Classifies a flow by its destination address.
    pub fn classify(&self, key: &FlowKey) -> Option<&V> {
        self.lookup(key.dst_ip)
    }

    /// Iterates over all installed `(prefix, value)` pairs, most specific
    /// lengths first (order within a length is unspecified).
    pub fn iter(&self) -> impl Iterator<Item = (IpPrefix, &V)> {
        self.tables
            .iter()
            .enumerate()
            .rev()
            .flat_map(|(len, table)| {
                table
                    .iter()
                    .map(move |(&addr, v)| (IpPrefix::new(addr, len as u8).expect("len <= 32"), v))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::flow::ipv4;

    fn p(s: &str) -> IpPrefix {
        s.parse().expect("valid prefix literal")
    }

    #[test]
    fn longest_match_wins() {
        let mut t = PrefixClassifier::new();
        t.insert(p("10.0.0.0/8"), "site-a");
        t.insert(p("10.1.0.0/16"), "site-b");
        t.insert(p("10.1.2.0/24"), "site-c");
        assert_eq!(t.lookup(ipv4(10, 1, 2, 9)), Some(&"site-c"));
        assert_eq!(t.lookup(ipv4(10, 1, 9, 9)), Some(&"site-b"));
        assert_eq!(t.lookup(ipv4(10, 9, 9, 9)), Some(&"site-a"));
        assert_eq!(t.lookup(ipv4(11, 0, 0, 1)), None);
    }

    #[test]
    fn default_route_catches_everything() {
        let mut t = PrefixClassifier::new();
        t.insert(IpPrefix::DEFAULT, 0usize);
        t.insert(p("192.168.0.0/16"), 1usize);
        assert_eq!(t.lookup(ipv4(8, 8, 8, 8)), Some(&0));
        assert_eq!(t.lookup(ipv4(192, 168, 3, 4)), Some(&1));
    }

    #[test]
    fn insert_replaces_the_value() {
        let mut t = PrefixClassifier::new();
        assert_eq!(t.insert(p("10.0.0.0/24"), 1), None);
        assert_eq!(t.insert(p("10.0.0.0/24"), 2), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn classify_uses_destination_ip() {
        let mut t = PrefixClassifier::new();
        t.insert(p("10.1.0.0/16"), 7usize);
        let key = FlowKey::tcp(ipv4(10, 0, 0, 1), 4000, ipv4(10, 1, 0, 1), 443);
        assert_eq!(t.classify(&key), Some(&7));
        assert_eq!(t.classify(&key.reversed()), None);
    }

    #[test]
    fn get_is_exact_match_even_when_shadowed() {
        let mut t = PrefixClassifier::new();
        t.insert(p("10.0.0.0/24"), 1);
        t.insert(p("10.0.0.0/28"), 2);
        // LPM prefers the /28, but exact-match still sees the shadowed /24.
        assert_eq!(t.lookup(ipv4(10, 0, 0, 1)), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/24")), Some(&1));
        assert_eq!(t.get(p("10.0.0.0/28")), Some(&2));
        assert_eq!(t.get(p("10.0.0.0/26")), None);
    }

    #[test]
    fn host_prefixes_match_exactly_one_address() {
        let mut t = PrefixClassifier::new();
        t.insert(IpPrefix::host(ipv4(1, 2, 3, 4)), "host");
        t.insert(p("1.2.3.0/24"), "net");
        assert_eq!(t.lookup(ipv4(1, 2, 3, 4)), Some(&"host"));
        assert_eq!(t.lookup(ipv4(1, 2, 3, 5)), Some(&"net"));
    }

    #[test]
    fn iter_yields_all_entries() {
        let mut t = PrefixClassifier::new();
        let prefixes = [
            p("10.0.0.0/8"),
            p("10.1.0.0/16"),
            p("10.2.0.0/16"),
            p("0.0.0.0/0"),
        ];
        for (i, &px) in prefixes.iter().enumerate() {
            t.insert(px, i);
        }
        let mut seen: Vec<(IpPrefix, usize)> = t.iter().map(|(px, &v)| (px, v)).collect();
        seen.sort();
        let mut expected: Vec<(IpPrefix, usize)> = prefixes.iter().copied().zip(0..).collect();
        expected.sort();
        assert_eq!(seen, expected);
    }
}
