//! The receivebox: the destination-site half of a bundle (§4.2, §6).
//!
//! The receivebox passively observes the bundle's packets (the prototype
//! uses libpcap), keeps running byte/packet counters, and — whenever it sees
//! an epoch boundary packet — emits a [`CongestionAck`] back to the sendbox.
//! It also accepts epoch-size updates from the sendbox. It keeps no per-flow
//! state whatsoever.

use bundler_types::{Nanos, Packet};

use crate::epoch::{epoch_hash, is_boundary};
use crate::feedback::{BundleId, CongestionAck, EpochSizeUpdate};

/// Receivebox statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReceiveboxStats {
    /// Data packets observed.
    pub packets: u64,
    /// Data bytes observed.
    pub bytes: u64,
    /// Congestion ACKs emitted.
    pub acks_sent: u64,
    /// Epoch-size updates applied.
    pub epoch_updates: u64,
}

serde::layout!(value ReceiveboxStats { packets, bytes, acks_sent, epoch_updates });

/// The receivebox for one bundle.
#[derive(Debug)]
pub struct Receivebox {
    bundle: BundleId,
    epoch_size: u32,
    stats: ReceiveboxStats,
}

impl Receivebox {
    /// Creates a receivebox with the given initial epoch size (must be a
    /// power of two; the sendbox starts with the same value and keeps the
    /// two in sync via [`EpochSizeUpdate`]s).
    pub fn new(bundle: BundleId, initial_epoch_size: u32) -> Self {
        assert!(
            initial_epoch_size.is_power_of_two(),
            "epoch size must be a power of two, got {initial_epoch_size}"
        );
        Receivebox {
            bundle,
            epoch_size: initial_epoch_size,
            stats: ReceiveboxStats::default(),
        }
    }

    /// The bundle this receivebox serves.
    pub fn bundle(&self) -> BundleId {
        self.bundle
    }

    /// The epoch size currently in effect.
    pub fn epoch_size(&self) -> u32 {
        self.epoch_size
    }

    /// Total bundle bytes observed so far.
    pub fn bytes_received(&self) -> u64 {
        self.stats.bytes
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ReceiveboxStats {
        self.stats
    }

    /// Observes one packet of the bundle arriving at the destination site at
    /// time `now`. Returns a congestion ACK to send back to the sendbox if
    /// the packet is an epoch boundary.
    pub fn on_packet(&mut self, pkt: &Packet, now: Nanos) -> Option<CongestionAck> {
        if !pkt.is_data() {
            return None;
        }
        self.stats.packets += 1;
        self.stats.bytes += pkt.size as u64;
        let hash = epoch_hash(pkt);
        if !is_boundary(hash, self.epoch_size) {
            return None;
        }
        self.stats.acks_sent += 1;
        Some(CongestionAck {
            bundle: self.bundle,
            packet_hash: hash,
            bytes_received: self.stats.bytes,
            packets_received: self.stats.packets,
            observed_at: now,
        })
    }

    /// Applies an epoch-size update from the sendbox. Updates for other
    /// bundles or with invalid (non-power-of-two) sizes are ignored.
    pub fn on_epoch_update(&mut self, update: &EpochSizeUpdate) {
        if update.bundle != self.bundle || !update.epoch_size.is_power_of_two() {
            return;
        }
        self.epoch_size = update.epoch_size;
        self.stats.epoch_updates += 1;
    }
}

// The bundle id is configuration.
serde::layout!(state Receivebox { epoch_size, stats } check |rb| rb.epoch_size.is_power_of_two(),
    "receivebox epoch size not a power of two");

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::{flow::ipv4, FlowId, FlowKey};

    fn pkt(ip_id: u16) -> Packet {
        Packet::data(
            FlowId(1),
            FlowKey::tcp(ipv4(10, 0, 0, 5), 4000, ipv4(10, 0, 9, 9), 443),
            0,
            1460,
            Nanos::ZERO,
        )
        .with_ip_id(ip_id)
    }

    #[test]
    fn counts_all_data_packets_but_acks_only_boundaries() {
        let mut rb = Receivebox::new(BundleId(1), 8);
        let mut acks = 0;
        for i in 0..1000u16 {
            if rb
                .on_packet(&pkt(i), Nanos::from_millis(i as u64))
                .is_some()
            {
                acks += 1;
            }
        }
        assert_eq!(rb.stats().packets, 1000);
        assert_eq!(rb.bytes_received(), 1000 * 1500);
        assert_eq!(rb.stats().acks_sent, acks as u64);
        assert!(acks > 0, "some packets must be boundaries");
        assert!(
            acks < 1000 / 2,
            "not every packet should be a boundary with N=8"
        );
    }

    #[test]
    fn epoch_size_one_acks_every_packet() {
        let mut rb = Receivebox::new(BundleId(1), 1);
        for i in 0..50u16 {
            assert!(rb.on_packet(&pkt(i), Nanos::ZERO).is_some());
        }
    }

    #[test]
    fn ack_contains_running_byte_count_and_hash() {
        let mut rb = Receivebox::new(BundleId(2), 1);
        let p = pkt(7);
        let ack = rb.on_packet(&p, Nanos::from_millis(5)).unwrap();
        assert_eq!(ack.bundle, BundleId(2));
        assert_eq!(ack.bytes_received, 1500);
        assert_eq!(ack.packets_received, 1);
        assert_eq!(ack.packet_hash, epoch_hash(&p));
        assert_eq!(ack.observed_at, Nanos::from_millis(5));
    }

    #[test]
    fn non_data_packets_are_ignored() {
        let mut rb = Receivebox::new(BundleId(1), 1);
        let ack_pkt = Packet::ack(
            FlowId(1),
            FlowKey::tcp(ipv4(10, 0, 9, 9), 443, ipv4(10, 0, 0, 5), 4000),
            100,
            Nanos::ZERO,
        );
        assert!(rb.on_packet(&ack_pkt, Nanos::ZERO).is_none());
        assert_eq!(rb.stats().packets, 0);
    }

    #[test]
    fn epoch_updates_are_validated() {
        let mut rb = Receivebox::new(BundleId(1), 4);
        rb.on_epoch_update(&EpochSizeUpdate {
            bundle: BundleId(1),
            epoch_size: 32,
        });
        assert_eq!(rb.epoch_size(), 32);
        // Wrong bundle: ignored.
        rb.on_epoch_update(&EpochSizeUpdate {
            bundle: BundleId(9),
            epoch_size: 64,
        });
        assert_eq!(rb.epoch_size(), 32);
        // Not a power of two: ignored.
        rb.on_epoch_update(&EpochSizeUpdate {
            bundle: BundleId(1),
            epoch_size: 33,
        });
        assert_eq!(rb.epoch_size(), 32);
        assert_eq!(rb.stats().epoch_updates, 1);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_invalid_initial_epoch_size() {
        let _ = Receivebox::new(BundleId(1), 3);
    }
}
