//! Out-of-band control messages between the receivebox and the sendbox.
//!
//! The paper sends these as small UDP datagrams (§6.2). They deliberately
//! carry no per-flow information: a congestion ACK identifies an epoch
//! boundary packet only by its header hash and reports the bundle's running
//! byte/packet counters, which is all the sendbox needs to compute RTT and
//! receive rate. The simulator delivers them as events, so their one
//! encoding is the `serde::layout!` rows below (event queue and snapshot).

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

serde::layout!(value BundleId { 0 });
serde::layout!(value CongestionAck {
    bundle, packet_hash, bytes_received, packets_received, observed_at,
});
serde::layout!(value EpochSizeUpdate { bundle, epoch_size });

#[cfg(test)]
mod tests {
    use super::*;
    use serde::binary::{decode_all, encode_to_vec};

    fn ack() -> CongestionAck {
        CongestionAck {
            bundle: BundleId(7),
            packet_hash: 0xdead_beef_cafe_f00d,
            bytes_received: 123_456_789,
            packets_received: 98_765,
            observed_at: Nanos::from_millis(1234),
        }
    }

    fn upd() -> EpochSizeUpdate {
        EpochSizeUpdate {
            bundle: BundleId(3),
            epoch_size: 64,
        }
    }

    #[test]
    fn congestion_ack_round_trips() {
        assert_eq!(decode_all(&encode_to_vec(&ack())), Ok(ack()));
    }

    #[test]
    fn epoch_update_round_trips() {
        assert_eq!(decode_all(&encode_to_vec(&upd())), Ok(upd()));
    }

    #[test]
    fn truncated_messages_rejected() {
        let (a, u) = (encode_to_vec(&ack()), encode_to_vec(&upd()));
        assert!(decode_all::<CongestionAck>(&a[..a.len() - 1]).is_err());
        assert!(decode_all::<EpochSizeUpdate>(&u[..u.len() - 1]).is_err());
    }

    /// The layouts are the fields' fixed-width encodings back to back: a
    /// congestion ACK is 36 bytes, an epoch update 8.
    #[test]
    fn wire_sizes_are_small() {
        assert_eq!(encode_to_vec(&ack()).len(), 36);
        assert_eq!(encode_to_vec(&upd()).len(), 8);
    }
}
