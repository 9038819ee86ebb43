//! Snapshot codec implementations for the vocabulary types.
//!
//! Every type here encodes as a fixed little-endian layout via
//! [`serde::binary`]; the snapshot format version in `bundler-sim` must be
//! bumped whenever any of these layouts change.

use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::flow::{FlowId, FlowKey, Protocol};
use crate::packet::{Packet, PacketKind, TrafficClass};
use crate::prefix::IpPrefix;
use crate::time::{Duration, Nanos};

serde::layout!(value Nanos { 0 });
serde::layout!(value Duration { 0 });
serde::layout!(value FlowId { 0 });
serde::layout!(value TrafficClass { 0 });

impl Encode for Protocol {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Protocol::Tcp => 0,
            Protocol::Udp => 1,
        });
    }
}

impl Decode for Protocol {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(Protocol::Tcp),
            1 => Ok(Protocol::Udp),
            _ => Err(r.error("protocol tag")),
        }
    }
}

serde::layout!(value FlowKey { src_ip, dst_ip, src_port, dst_port, protocol });

impl Encode for PacketKind {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            PacketKind::Data => 0,
            PacketKind::Ack => 1,
            PacketKind::CongestionAck => 2,
            PacketKind::EpochUpdate => 3,
        });
    }
}

impl Decode for PacketKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match u8::decode(r)? {
            0 => Ok(PacketKind::Data),
            1 => Ok(PacketKind::Ack),
            2 => Ok(PacketKind::CongestionAck),
            3 => Ok(PacketKind::EpochUpdate),
            _ => Err(r.error("packet kind tag")),
        }
    }
}

serde::layout!(value Packet {
    flow, key, kind, ip_id, seq, size, payload, class, sent_at, enqueued_at, retransmit, ecn_ce,
    sack_highest,
});

impl Encode for IpPrefix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.addr().encode(out);
        self.len().encode(out);
    }
}

impl Decode for IpPrefix {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let addr = u32::decode(r)?;
        let len = u8::decode(r)?;
        IpPrefix::new(addr, len).ok_or_else(|| r.error("prefix length"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::PacketId;
    use crate::flow::ipv4;
    use crate::rate::Rate;
    use serde::binary::{decode_all, encode_to_vec};

    #[test]
    fn packet_round_trips() {
        let p = Packet::data(
            FlowId(7),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 4000, ipv4(10, 1, 0, 1), 443),
            1460,
            1460,
            Nanos::from_millis(3),
        )
        .with_ip_id(99)
        .with_class(TrafficClass::HIGH)
        .retransmitted();
        let back: Packet = decode_all(&encode_to_vec(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn vocabulary_types_round_trip() {
        let bytes = encode_to_vec(&(Nanos(17), Duration(5), Rate::from_mbps(96), FlowId(3)));
        let (n, d, rate, f): (Nanos, Duration, Rate, FlowId) = decode_all(&bytes).unwrap();
        assert_eq!(
            (n, d, rate, f),
            (Nanos(17), Duration(5), Rate::from_mbps(96), FlowId(3))
        );

        let prefix = IpPrefix::new(ipv4(10, 1, 3, 0), 24).unwrap();
        let back: IpPrefix = decode_all(&encode_to_vec(&prefix)).unwrap();
        assert_eq!(back, prefix);

        let id = PacketId::from_index(42);
        let back: PacketId = decode_all(&encode_to_vec(&id)).unwrap();
        assert_eq!(back, id);
    }

    #[test]
    fn invalid_enum_tags_error() {
        assert!(decode_all::<Protocol>(&[7]).is_err());
        assert!(decode_all::<PacketKind>(&[9]).is_err());
        assert!(decode_all::<IpPrefix>(&[0, 0, 0, 0, 40]).is_err());
    }
}
