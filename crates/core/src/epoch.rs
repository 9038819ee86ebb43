//! Epoch boundary identification and epoch-size control (§4.5 of the paper).
//!
//! Rather than modify packets, both boxes hash an unchanging header subset
//! of every packet (IPv4 ID, destination address, destination port) with
//! FNV-1a and treat a packet as an *epoch boundary* when its hash is a
//! multiple of the epoch size `N`. Keeping `N` a power of two means that
//! when the sendbox changes `N`, the boundary packets sampled under the old
//! and new values nest (one set is a subset of the other), so a delayed or
//! lost epoch-size update cannot desynchronize the two boxes.

use bundler_types::{Duration, Packet, Rate};

use crate::fnv::Fnv1a;

/// Computes the epoch hash of a packet: FNV-1a over the header subset that
/// is identical at the sendbox and the receivebox.
pub fn epoch_hash(pkt: &Packet) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&pkt.epoch_header_bytes());
    h.finish()
}

/// Returns true if a packet with `hash` is an epoch boundary under epoch
/// size `epoch_size` (which must be a power of two).
pub fn is_boundary(hash: u64, epoch_size: u32) -> bool {
    debug_assert!(epoch_size.is_power_of_two());
    let mask = (epoch_size as u64).saturating_sub(1);
    hash & mask == 0
}

/// Convenience: hash and test in one call.
pub fn packet_is_boundary(pkt: &Packet, epoch_size: u32) -> bool {
    is_boundary(epoch_hash(pkt), epoch_size)
}

/// Computes the epoch size the sendbox should use so that boundary packets
/// are spaced roughly `epoch_fraction` of an RTT apart (the paper uses 1/4):
/// `N = epoch_fraction × minRTT × send_rate`, expressed in packets of
/// `avg_packet_bytes` and rounded **down** to a power of two.
pub fn target_epoch_size(
    epoch_fraction: f64,
    min_rtt: Duration,
    send_rate: Rate,
    avg_packet_bytes: u64,
    max_epoch_size: u32,
) -> u32 {
    if min_rtt.is_zero() || send_rate.is_zero() || avg_packet_bytes == 0 {
        return 1;
    }
    let bytes_per_epoch = epoch_fraction * min_rtt.as_secs_f64() * send_rate.as_bytes_per_sec();
    let packets = (bytes_per_epoch / avg_packet_bytes as f64).floor();
    if packets < 2.0 {
        return 1;
    }
    let packets = packets.min(max_epoch_size as f64) as u32;
    // Round down to a power of two.
    let rounded = 1u32 << (31 - packets.leading_zeros());
    rounded.clamp(1, max_epoch_size)
}

/// State the sendbox records for each outstanding epoch boundary packet
/// (paper §4.5: hash, send time, cumulative bytes sent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundaryRecord {
    /// The packet's epoch hash.
    pub hash: u64,
    /// When the sendbox transmitted it.
    pub sent_at: bundler_types::Nanos,
    /// Cumulative bundle bytes sent up to and including this packet.
    pub bytes_sent: u64,
    /// Cumulative bundle packets sent up to and including this packet.
    pub packets_sent: u64,
}

serde::layout!(value BoundaryRecord { hash, sent_at, bytes_sent, packets_sent });

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Nanos};

    fn pkt(ip_id: u16, dst_port: u16) -> Packet {
        Packet::data(
            FlowId(1),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 5000, ipv4(10, 0, 1, 1), dst_port),
            0,
            1460,
            Nanos::ZERO,
        )
        .with_ip_id(ip_id)
    }

    #[test]
    fn epoch_size_one_matches_every_packet() {
        for i in 0..100 {
            assert!(packet_is_boundary(&pkt(i, 80), 1));
        }
    }

    #[test]
    fn boundary_fraction_tracks_epoch_size() {
        // With N = 8, roughly 1/8 of packets should be boundaries.
        let n = 8u32;
        let total = 8192;
        let matches = (0..total)
            .filter(|&i| packet_is_boundary(&pkt(i as u16, 443), n))
            .count();
        let frac = matches as f64 / total as f64;
        assert!(
            (0.06..0.2).contains(&frac),
            "boundary fraction {frac} far from 1/8"
        );
    }

    #[test]
    fn power_of_two_sampling_nests() {
        // Every boundary under N=16 must also be a boundary under N=8 and
        // N=4: the receivebox running an old (smaller) epoch size samples a
        // superset, and the sendbox simply ignores the extras.
        for i in 0..20_000u32 {
            let p = pkt((i % 65_536) as u16, (i / 65_536) as u16 + 1);
            let h = epoch_hash(&p);
            if is_boundary(h, 16) {
                assert!(is_boundary(h, 8));
                assert!(is_boundary(h, 4));
                assert!(is_boundary(h, 2));
                assert!(is_boundary(h, 1));
            }
        }
    }

    #[test]
    fn same_packet_hashes_identically_at_both_boxes() {
        // The epoch hash must not depend on mutable packet metadata such as
        // timestamps or queue bookkeeping, only the header subset.
        let mut a = pkt(1234, 443);
        let mut b = a.clone();
        a.sent_at = Nanos::from_millis(1);
        b.enqueued_at = Nanos::from_millis(99);
        b.ecn_ce = true;
        assert_eq!(epoch_hash(&a), epoch_hash(&b));
    }

    #[test]
    fn retransmission_gets_a_different_hash() {
        // A retransmitted packet carries a fresh IPv4 ID, so its hash (and
        // thus boundary status) differs from the original — requirement (iv)
        // in §4.5.
        let original = pkt(100, 443);
        let retransmit = pkt(101, 443).retransmitted();
        assert_ne!(epoch_hash(&original), epoch_hash(&retransmit));
    }

    #[test]
    fn target_epoch_size_matches_formula_and_rounds_down() {
        // 0.25 × 50 ms × 96 Mbit/s = 150 KB ≈ 100 × 1500-byte packets;
        // rounded down to a power of two → 64.
        let n = target_epoch_size(
            0.25,
            Duration::from_millis(50),
            Rate::from_mbps(96),
            1500,
            1 << 14,
        );
        assert_eq!(n, 64);
    }

    #[test]
    fn target_epoch_size_edge_cases() {
        assert_eq!(
            target_epoch_size(0.25, Duration::ZERO, Rate::from_mbps(10), 1500, 1 << 14),
            1
        );
        assert_eq!(
            target_epoch_size(0.25, Duration::from_millis(50), Rate::ZERO, 1500, 1 << 14),
            1
        );
        // Very slow link: fewer than 2 packets per quarter RTT → 1.
        assert_eq!(
            target_epoch_size(
                0.25,
                Duration::from_millis(10),
                Rate::from_kbps(64),
                1500,
                1 << 14
            ),
            1
        );
        // Huge product is clamped to the maximum.
        assert_eq!(
            target_epoch_size(
                0.25,
                Duration::from_secs(10),
                Rate::from_gbps(100),
                1500,
                1 << 10
            ),
            1 << 10
        );
        // Result is always a power of two.
        for mbps in [1u64, 3, 7, 24, 48, 96, 250, 1000] {
            let n = target_epoch_size(
                0.25,
                Duration::from_millis(37),
                Rate::from_mbps(mbps),
                1500,
                1 << 14,
            );
            assert!(n.is_power_of_two(), "{n} not a power of two");
        }
    }
}
