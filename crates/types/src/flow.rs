//! Flow identification: five-tuples and flow ids.

use core::fmt;

use serde::{Deserialize, Serialize};

/// Transport protocol carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Protocol {
    /// Transmission Control Protocol.
    Tcp,
    /// User Datagram Protocol.
    Udp,
}

impl Protocol {
    /// The IANA protocol number, as it would appear in the IPv4 header.
    pub const fn number(self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
        }
    }
}

/// Simulator-internal flow identifier.
///
/// Flows also carry a [`FlowKey`] (the five-tuple visible on the wire); the
/// `FlowId` is a dense integer used by workload generation and statistics.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// [`std::hash::Hasher`] for the workspace's integer-keyed maps
/// ([`FlowId`]s, bundle ids, scheduler bucket keys): each integer write is
/// one folded multiply — the 128-bit product of `state ^ v` and the golden
/// ratio constant, low half xor high half — so every input bit reaches both
/// the low bits `HashMap` indexes by and the top seven it tags control bytes
/// with. Like any fixed fast hash it is *not* DoS-resistant: the keys are
/// ids this program mints, never outside input.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, v: u64) {
        let m = u128::from(self.0 ^ v) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }
}

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    /// Anything that is not a `u32` or a `u64` (no key in the workspace)
    /// folds eight bytes at a time, little-endian, the tail zero-padded.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.fold(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.fold(v);
    }
}

/// A `HashMap` hashed by [`IdHasher`] instead of SipHash.
pub type IdHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// The classic five-tuple identifying a transport connection.
///
/// Bundler's datapath never keeps per-flow state keyed on this tuple (that is
/// one of the paper's design goals), but schedulers such as SFQ and FQ-CoDel
/// hash it to pick a queue, and the epoch-boundary hash includes the
/// destination address and port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src_ip: u32,
    /// Destination IPv4 address.
    pub dst_ip: u32,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FlowKey {
    /// Builds a TCP five-tuple.
    pub const fn tcp(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::Tcp,
        }
    }

    /// Builds a UDP five-tuple.
    pub const fn udp(src_ip: u32, src_port: u16, dst_ip: u32, dst_port: u16) -> Self {
        FlowKey {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::Udp,
        }
    }

    /// The five-tuple of the reverse direction (for ACK traffic).
    pub const fn reversed(self) -> FlowKey {
        FlowKey {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A stable 64-bit digest of the tuple, used by hashing schedulers.
    ///
    /// This is a simple FNV-1a over the tuple fields; it is *not* the
    /// epoch-boundary hash (which lives in `bundler-core` and covers a
    /// different header subset).
    pub fn digest(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x1000_0000_01b3;
        let mut h = OFFSET;
        let mut step = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        };
        for b in self.src_ip.to_be_bytes() {
            step(b);
        }
        for b in self.dst_ip.to_be_bytes() {
            step(b);
        }
        for b in self.src_port.to_be_bytes() {
            step(b);
        }
        for b in self.dst_port.to_be_bytes() {
            step(b);
        }
        step(self.protocol.number());
        h
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}.{} -> {}.{}",
            self.protocol,
            ipv4_str(self.src_ip),
            self.src_port,
            ipv4_str(self.dst_ip),
            self.dst_port
        )
    }
}

fn ipv4_str(ip: u32) -> String {
    let b = ip.to_be_bytes();
    format!("{}.{}.{}.{}", b[0], b[1], b[2], b[3])
}

/// Packs dotted-quad octets into a `u32` IPv4 address.
pub const fn ipv4(a: u8, b: u8, c: u8, d: u8) -> u32 {
    u32::from_be_bytes([a, b, c, d])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_numbers() {
        assert_eq!(Protocol::Tcp.number(), 6);
        assert_eq!(Protocol::Udp.number(), 17);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let k = FlowKey::tcp(ipv4(10, 0, 0, 1), 1234, ipv4(10, 0, 0, 2), 80);
        let r = k.reversed();
        assert_eq!(r.src_ip, k.dst_ip);
        assert_eq!(r.dst_port, k.src_port);
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn digest_distinguishes_flows() {
        let a = FlowKey::tcp(ipv4(10, 0, 0, 1), 1234, ipv4(10, 0, 0, 2), 80);
        let b = FlowKey::tcp(ipv4(10, 0, 0, 1), 1235, ipv4(10, 0, 0, 2), 80);
        let c = FlowKey::udp(ipv4(10, 0, 0, 1), 1234, ipv4(10, 0, 0, 2), 80);
        assert_ne!(a.digest(), b.digest());
        assert_ne!(a.digest(), c.digest());
        assert_eq!(a.digest(), a.digest());
    }

    #[test]
    fn id_hash_map_works_as_a_drop_in() {
        let mut m: IdHashMap<u64, &str> = IdHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, "x");
        }
        assert_eq!(m.len(), 1000);
        assert!(m.contains_key(&999));
        assert!(!m.contains_key(&1000));
        let mut by_flow: IdHashMap<FlowId, u32> = IdHashMap::default();
        by_flow.insert(FlowId(u64::MAX), 7);
        assert_eq!(by_flow.get(&FlowId(u64::MAX)), Some(&7));
        assert_eq!(by_flow.get(&FlowId(0)), None);
    }

    #[test]
    fn id_hasher_spreads_the_ids_the_scenarios_mint() {
        use std::collections::HashSet;
        use std::hash::BuildHasher;

        // `HashMap` picks the bucket from the low bits of the hash and tags
        // the control byte with the top seven: both must see every id bit.
        // Scenario flow ids are `site × 1 000 000 + i`.
        let many_sites = (0..48u64).flat_map(|site| (0..5_000).map(move |i| site * 1_000_000 + i));
        let one_site = (0..500_000u64).map(|i| 1_000_000 + i);
        let sets: [(&str, Vec<u64>); 2] = [
            ("48 sites x 5 000", many_sites.collect()),
            ("1 site x 500 000", one_site.collect()),
        ];
        let build = std::hash::BuildHasherDefault::<IdHasher>::default();
        for (name, ids) in sets {
            let hashes: Vec<u64> = ids.iter().map(|&id| build.hash_one(FlowId(id))).collect();
            for (what, bits, shift) in [("low 16", 16u32, 0u32), ("top 7", 7, 57)] {
                let bins = f64::from(1u32 << bits);
                // What throwing `n` balls into `bins` bins uniformly fills.
                let ideal = bins * (1.0 - (1.0 - 1.0 / bins).powf(ids.len() as f64));
                let mask = (1u64 << bits) - 1;
                let seen: HashSet<u64> = hashes.iter().map(|h| (h >> shift) & mask).collect();
                assert!(
                    seen.len() as f64 >= 0.9 * ideal,
                    "{name}: {what} bits take {} values, an ideal hash {ideal:.0}",
                    seen.len()
                );
            }
        }
    }

    #[test]
    fn display_formats() {
        let k = FlowKey::tcp(ipv4(10, 0, 0, 1), 1234, ipv4(192, 168, 1, 9), 80);
        assert_eq!(format!("{k}"), "tcp:10.0.0.1.1234 -> 192.168.1.9.80");
        assert_eq!(format!("{}", FlowId(3)), "flow#3");
    }
}
