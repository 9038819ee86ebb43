//! The packet representation shared by the datapath, the schedulers and the
//! simulator.
//!
//! This is a *model* of a packet: it carries the header fields that Bundler
//! and the schedulers actually inspect (the five-tuple, the IPv4 ID, the TCP
//! sequence number, sizes and timestamps) rather than raw bytes. The
//! epoch-boundary hash in `bundler-core` operates on a serialized header
//! subset of this struct exactly as the paper's prototype hashes the IPv4
//! ID + destination address + destination port.

use crate::flow::{FlowId, FlowKey};
use crate::time::Nanos;

/// What role a packet plays in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// Application data on the forward path.
    Data,
    /// Transport-level acknowledgement on the reverse path.
    Ack,
}

/// Operator-assigned traffic class, used by the strict-priority scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrafficClass(pub u8);

impl TrafficClass {
    /// Highest priority class.
    pub const HIGH: TrafficClass = TrafficClass(0);
    /// Default / best-effort class.
    pub const BEST_EFFORT: TrafficClass = TrafficClass(1);
    /// Bulk / background class.
    pub const BULK: TrafficClass = TrafficClass(2);
}

impl Default for TrafficClass {
    fn default() -> Self {
        TrafficClass::BEST_EFFORT
    }
}

/// A modelled packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Dense simulator-assigned identifier of the flow this packet belongs to.
    pub flow: FlowId,
    /// The five-tuple visible on the wire.
    pub key: FlowKey,
    /// Role of the packet.
    pub kind: PacketKind,
    /// IPv4 identification field. The simulator assigns a fresh value per
    /// packet (including retransmissions), which is what lets the
    /// epoch-boundary hash distinguish a retransmission from the original.
    pub ip_id: u16,
    /// Transport sequence number (first byte carried), in bytes.
    pub seq: u64,
    /// Total wire size of this packet in bytes (headers + payload).
    pub size: u32,
    /// Bytes of application payload carried.
    pub payload: u32,
    /// Operator traffic class (scheduling hint at the sendbox).
    pub class: TrafficClass,
    /// Time the packet was handed to the network by its origin endhost.
    pub sent_at: Nanos,
    /// Time the packet entered the queue it currently occupies (updated by
    /// queues to compute sojourn times for CoDel).
    pub enqueued_at: Nanos,
    /// True if this packet is a TCP retransmission of previously sent data.
    pub retransmit: bool,
    /// ECN congestion-experienced mark.
    pub ecn_ce: bool,
    /// For acknowledgement packets: the highest byte the receiver holds
    /// (including out-of-order data), i.e. SACK-style information captured
    /// at the moment the ACK was generated. Zero when unused.
    pub sack_highest: u64,
}

/// Conventional Ethernet-ish maximum transmission unit used throughout the
/// simulator, in bytes.
pub const MTU: u32 = 1500;

/// Size of a bare ACK packet, in bytes.
pub const ACK_SIZE: u32 = 64;

/// Combined model overhead of IP + TCP headers, in bytes.
pub const HEADER_SIZE: u32 = 40;

impl Packet {
    /// Builds a data packet for `flow` carrying `payload` bytes starting at
    /// sequence number `seq`.
    pub fn data(flow: FlowId, key: FlowKey, seq: u64, payload: u32, now: Nanos) -> Self {
        Packet {
            flow,
            key,
            kind: PacketKind::Data,
            ip_id: 0,
            seq,
            size: payload + HEADER_SIZE,
            payload,
            class: TrafficClass::default(),
            sent_at: now,
            enqueued_at: now,
            retransmit: false,
            ecn_ce: false,
            sack_highest: 0,
        }
    }

    /// Builds a transport ACK for `flow` cumulatively acknowledging `ack_seq`.
    pub fn ack(flow: FlowId, key: FlowKey, ack_seq: u64, now: Nanos) -> Self {
        Packet {
            flow,
            key,
            kind: PacketKind::Ack,
            ip_id: 0,
            seq: ack_seq,
            size: ACK_SIZE,
            payload: 0,
            class: TrafficClass::default(),
            sent_at: now,
            enqueued_at: now,
            retransmit: false,
            ecn_ce: false,
            sack_highest: 0,
        }
    }

    /// Sets the SACK-style highest-received hint on an ACK, builder-style.
    pub fn with_sack_highest(mut self, sack_highest: u64) -> Self {
        self.sack_highest = sack_highest;
        self
    }

    /// True for packets that belong to the bundle's forward data path (the
    /// only packets the sendbox rate-limits and schedules).
    pub fn is_data(&self) -> bool {
        self.kind == PacketKind::Data
    }

    /// Sets the traffic class, builder-style.
    pub fn with_class(mut self, class: TrafficClass) -> Self {
        self.class = class;
        self
    }

    /// Sets the IPv4 ID, builder-style.
    pub fn with_ip_id(mut self, ip_id: u16) -> Self {
        self.ip_id = ip_id;
        self
    }

    /// Marks the packet as a retransmission, builder-style.
    pub fn retransmitted(mut self) -> Self {
        self.retransmit = true;
        self
    }

    /// The header subset hashed for epoch-boundary identification, as an
    /// ordered byte sequence: IPv4 ID, destination IP, destination port.
    ///
    /// These fields satisfy the paper's requirements (§4.5): identical at
    /// sendbox and receivebox, unchanged in transit, different across packets
    /// of a flow, and different for a retransmission vs. the original.
    pub fn epoch_header_bytes(&self) -> [u8; 8] {
        let id = self.ip_id.to_be_bytes();
        let dst = self.key.dst_ip.to_be_bytes();
        let port = self.key.dst_port.to_be_bytes();
        [
            id[0], id[1], dst[0], dst[1], dst[2], dst[3], port[0], port[1],
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::ipv4;

    fn key() -> FlowKey {
        FlowKey::tcp(ipv4(10, 0, 0, 1), 4000, ipv4(10, 0, 1, 1), 80)
    }

    #[test]
    fn data_packet_sizes() {
        let p = Packet::data(FlowId(1), key(), 0, 1460, Nanos::ZERO);
        assert_eq!(p.size, 1500);
        assert_eq!(p.payload, 1460);
        assert!(p.is_data());
    }

    #[test]
    fn ack_packet_is_small() {
        let p = Packet::ack(FlowId(1), key().reversed(), 1460, Nanos::ZERO);
        assert_eq!(p.size, ACK_SIZE);
        assert!(!p.is_data());
    }

    #[test]
    fn builders() {
        let p = Packet::data(FlowId(1), key(), 0, 100, Nanos::ZERO)
            .with_class(TrafficClass::HIGH)
            .with_ip_id(77)
            .retransmitted();
        assert_eq!(p.class, TrafficClass::HIGH);
        assert_eq!(p.ip_id, 77);
        assert!(p.retransmit);
    }

    #[test]
    fn epoch_header_bytes_changes_with_ip_id() {
        let a = Packet::data(FlowId(1), key(), 0, 100, Nanos::ZERO).with_ip_id(1);
        let b = Packet::data(FlowId(1), key(), 0, 100, Nanos::ZERO).with_ip_id(2);
        assert_ne!(a.epoch_header_bytes(), b.epoch_header_bytes());
    }

    #[test]
    fn epoch_header_bytes_ignores_ttl_like_fields() {
        // Only ip_id, dst ip and dst port participate; changing the source
        // port must not change the epoch header bytes.
        let mut k2 = key();
        k2.src_port = 9999;
        let a = Packet::data(FlowId(1), key(), 0, 100, Nanos::ZERO).with_ip_id(5);
        let b = Packet::data(FlowId(1), k2, 0, 100, Nanos::ZERO).with_ip_id(5);
        assert_eq!(a.epoch_header_bytes(), b.epoch_header_bytes());
    }

    #[test]
    fn traffic_class_ordering() {
        assert!(TrafficClass::HIGH < TrafficClass::BEST_EFFORT);
        assert!(TrafficClass::BEST_EFFORT < TrafficClass::BULK);
        assert_eq!(TrafficClass::default(), TrafficClass::BEST_EFFORT);
    }
}
