//! Out-of-band control messages between the receivebox and the sendbox.
//!
//! The paper sends these as small UDP datagrams (§6.2). They deliberately
//! carry no per-flow information: a congestion ACK identifies an epoch
//! boundary packet only by its header hash and reports the bundle's running
//! byte/packet counters, which is all the sendbox needs to compute RTT and
//! receive rate.

use bundler_types::Nanos;

/// Identifier of a sendbox–receivebox pair's unidirectional bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BundleId(pub u32);

/// Congestion ACK sent by the receivebox when it observes an epoch boundary
/// packet (paper Figure 8, step 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CongestionAck {
    /// Which bundle this feedback belongs to.
    pub bundle: BundleId,
    /// FNV-1a hash of the boundary packet's header subset; matches the hash
    /// the sendbox recorded when it forwarded the same packet.
    pub packet_hash: u64,
    /// Total bytes of bundle traffic the receivebox has seen so far,
    /// including the boundary packet.
    pub bytes_received: u64,
    /// Total packets of bundle traffic the receivebox has seen so far.
    pub packets_received: u64,
    /// Receivebox-local time at which the boundary packet was observed.
    /// Only *differences* of this field are used (receive-rate estimation),
    /// so the two boxes' clocks do not need to be synchronized.
    pub observed_at: Nanos,
}

/// Epoch-size update sent by the sendbox when it re-computes the sampling
/// period (paper Figure 8, step 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochSizeUpdate {
    /// Which bundle this update applies to.
    pub bundle: BundleId,
    /// New sampling period in packets; always a power of two so that the
    /// boundary sets sampled before and after the update nest (§4.5).
    pub epoch_size: u32,
}

/// On-the-wire encoding size of a congestion ACK, in bytes, used when the
/// simulator models the feedback as real packets on the reverse path.
pub const CONGESTION_ACK_WIRE_SIZE: u32 = 48;

/// On-the-wire encoding size of an epoch-size update.
pub const EPOCH_UPDATE_WIRE_SIZE: u32 = 16;

impl CongestionAck {
    /// Serializes to a compact fixed-layout byte vector (not serde) suitable
    /// for embedding in a UDP payload.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(CONGESTION_ACK_WIRE_SIZE as usize);
        out.extend_from_slice(&self.bundle.0.to_be_bytes());
        out.extend_from_slice(&self.packet_hash.to_be_bytes());
        out.extend_from_slice(&self.bytes_received.to_be_bytes());
        out.extend_from_slice(&self.packets_received.to_be_bytes());
        out.extend_from_slice(&self.observed_at.as_nanos().to_be_bytes());
        out
    }

    /// Parses the wire encoding produced by [`CongestionAck::to_wire`].
    pub fn from_wire(bytes: &[u8]) -> Option<CongestionAck> {
        if bytes.len() < 36 {
            return None;
        }
        let bundle = BundleId(u32::from_be_bytes(bytes[0..4].try_into().ok()?));
        let packet_hash = u64::from_be_bytes(bytes[4..12].try_into().ok()?);
        let bytes_received = u64::from_be_bytes(bytes[12..20].try_into().ok()?);
        let packets_received = u64::from_be_bytes(bytes[20..28].try_into().ok()?);
        let observed_at = Nanos(u64::from_be_bytes(bytes[28..36].try_into().ok()?));
        Some(CongestionAck {
            bundle,
            packet_hash,
            bytes_received,
            packets_received,
            observed_at,
        })
    }
}

serde::layout!(value BundleId { 0 });
serde::layout!(value CongestionAck {
    bundle, packet_hash, bytes_received, packets_received, observed_at,
});
serde::layout!(value EpochSizeUpdate { bundle, epoch_size });

impl EpochSizeUpdate {
    /// Serializes to a compact fixed-layout byte vector.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(EPOCH_UPDATE_WIRE_SIZE as usize);
        out.extend_from_slice(&self.bundle.0.to_be_bytes());
        out.extend_from_slice(&self.epoch_size.to_be_bytes());
        out
    }

    /// Parses the wire encoding produced by [`EpochSizeUpdate::to_wire`].
    pub fn from_wire(bytes: &[u8]) -> Option<EpochSizeUpdate> {
        if bytes.len() < 8 {
            return None;
        }
        let bundle = BundleId(u32::from_be_bytes(bytes[0..4].try_into().ok()?));
        let epoch_size = u32::from_be_bytes(bytes[4..8].try_into().ok()?);
        Some(EpochSizeUpdate { bundle, epoch_size })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn congestion_ack_round_trips() {
        let ack = CongestionAck {
            bundle: BundleId(7),
            packet_hash: 0xdead_beef_cafe_f00d,
            bytes_received: 123_456_789,
            packets_received: 98_765,
            observed_at: Nanos::from_millis(1234),
        };
        let wire = ack.to_wire();
        assert_eq!(CongestionAck::from_wire(&wire), Some(ack));
    }

    #[test]
    fn epoch_update_round_trips() {
        let upd = EpochSizeUpdate {
            bundle: BundleId(3),
            epoch_size: 64,
        };
        assert_eq!(EpochSizeUpdate::from_wire(&upd.to_wire()), Some(upd));
    }

    #[test]
    fn truncated_messages_rejected() {
        assert_eq!(CongestionAck::from_wire(&[0u8; 10]), None);
        assert_eq!(EpochSizeUpdate::from_wire(&[0u8; 3]), None);
    }

    #[test]
    fn wire_sizes_are_small() {
        let ack = CongestionAck {
            bundle: BundleId(0),
            packet_hash: 0,
            bytes_received: 0,
            packets_received: 0,
            observed_at: Nanos::ZERO,
        };
        assert!(ack.to_wire().len() <= CONGESTION_ACK_WIRE_SIZE as usize);
        let upd = EpochSizeUpdate {
            bundle: BundleId(0),
            epoch_size: 1,
        };
        assert!(upd.to_wire().len() <= EPOCH_UPDATE_WIRE_SIZE as usize);
    }
}
