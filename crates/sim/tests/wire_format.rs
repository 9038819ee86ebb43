//! Property and golden tests for the `NETENV` mailbox wire format.
//!
//! * Round-trip: every envelope direction, over proptest-generated packet
//!   contents, encodes → decodes to the identical envelope.
//! * Rejection: bad magic, unknown version, unknown direction tag,
//!   truncation at *every* byte boundary and trailing garbage all fail
//!   with the right [`WireError`] — never a panic, never silent garbage.
//! * Golden layout: the exact bytes of version 1 are pinned (mirroring
//!   the `BNDLSNAP` snapshot golden test), so the layout cannot drift
//!   without a deliberate `WIRE_VERSION` bump.

use bundler_sim::event::EventKey;
use bundler_sim::shard::wire::{self, WireDir, WireEnvelope, WireError, WIRE_MAGIC, WIRE_VERSION};
use bundler_types::{
    flow::{FlowId, FlowKey},
    Nanos, Packet, PacketKind, TrafficClass,
};
use proptest::prelude::*;
use serde::binary::Reader;

/// Uniform random packets covering every field, both protocols and both
/// packet kinds.
fn packet_strategy() -> impl Strategy<Value = Packet> {
    (
        (
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            any::<bool>(),
            any::<bool>(),
        ),
        (
            any::<u16>(),
            any::<u64>(),
            any::<u32>(),
            any::<u32>(),
            0u8..3,
        ),
        (
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            any::<bool>(),
            any::<u64>(),
        ),
    )
        .prop_map(
            |(
                (flow, src_ip, dst_ip, src_port, dst_port, udp, ack),
                (ip_id, seq, size, payload, class),
                (sent, enq, retransmit, ecn_ce, sack_highest),
            )| {
                let key = if udp {
                    FlowKey::udp(src_ip, src_port, dst_ip, dst_port)
                } else {
                    FlowKey::tcp(src_ip, src_port, dst_ip, dst_port)
                };
                Packet {
                    flow: FlowId(flow),
                    key,
                    kind: if ack {
                        PacketKind::Ack
                    } else {
                        PacketKind::Data
                    },
                    ip_id,
                    seq,
                    size,
                    payload,
                    class: TrafficClass(class),
                    sent_at: Nanos(sent),
                    enqueued_at: Nanos(enq),
                    retransmit,
                    ecn_ce,
                    sack_highest,
                }
            },
        )
}

fn frame(dir: WireDir, at: u64, key: u64, pkt: &Packet) -> Vec<u8> {
    let mut out = Vec::new();
    wire::encode(dir, Nanos(at), EventKey(key), pkt, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode → decode is the identity, for both directions and arbitrary
    /// envelope contents.
    #[test]
    fn roundtrip_is_identity(pkt in packet_strategy(), at in any::<u64>(),
                             key in any::<u64>(), delivery in any::<bool>()) {
        let dir = if delivery { WireDir::Delivery } else { WireDir::ToNet };
        let bytes = frame(dir, at, key, &pkt);
        let env = wire::decode(&bytes).expect("a fresh frame must decode");
        prop_assert_eq!(
            env,
            WireEnvelope { dir, at: Nanos(at), key: EventKey(key), pkt: pkt.clone() }
        );
        // The driver's send-edge hook preserves the packet bit-for-bit.
        let mut buf = Vec::new();
        let back = wire::roundtrip(dir, Nanos(at), EventKey(key), pkt.clone(), &mut buf);
        prop_assert_eq!(back, pkt);
    }

    /// Truncating a frame at *any* byte boundary is rejected — never a
    /// panic, never a partial decode.
    #[test]
    fn every_truncation_is_rejected(pkt in packet_strategy(), cut in 0.0f64..1.0) {
        let bytes = frame(WireDir::ToNet, 5, 9, &pkt);
        let cut = (cut * (bytes.len() - 1) as f64) as usize;
        match wire::decode(&bytes[..cut]) {
            Err(WireError::Corrupt(_)) => {}
            Err(WireError::BadMagic) => prop_assert!(
                cut >= WIRE_MAGIC.len(),
                "a frame cut inside the magic ran out of bytes, it is not mis-badged"
            ),
            other => prop_assert!(false, "truncation at {cut} must be rejected, got {other:?}"),
        }
    }

    /// Any version other than [`WIRE_VERSION`] is rejected with the found
    /// version in the error, so a reader can say what it got.
    #[test]
    fn unknown_versions_are_rejected(pkt in packet_strategy(), version in any::<u16>()) {
        let mut bytes = frame(WireDir::Delivery, 1, 2, &pkt);
        bytes[6..8].copy_from_slice(&version.to_le_bytes());
        match wire::decode(&bytes) {
            Ok(env) => prop_assert_eq!(version, WIRE_VERSION, "wrong version decoded: {:?}", env),
            Err(WireError::VersionMismatch { found }) => {
                prop_assert_eq!(found, version);
                prop_assert_ne!(version, WIRE_VERSION);
            }
            Err(other) => prop_assert!(false, "expected VersionMismatch, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_and_bad_direction_are_rejected() {
    let pkt = Packet::data(
        FlowId(1),
        FlowKey::tcp(0x0a00_0001, 1000, 0x0a00_0101, 80),
        0,
        1500,
        Nanos::ZERO,
    );
    let good = frame(WireDir::ToNet, 3, 4, &pkt);
    wire::decode(&good).expect("control frame decodes");

    let mut bad = good.clone();
    bad[0] ^= 0xff;
    assert_eq!(wire::decode(&bad), Err(WireError::BadMagic));

    let mut bad = good.clone();
    bad[8] = 7; // direction tag
    assert_eq!(
        wire::decode(&bad),
        Err(WireError::BadDirection { found: 7 })
    );

    let mut bad = good;
    bad.push(0xaa);
    match wire::decode(&bad) {
        Err(WireError::Corrupt(msg)) => assert!(msg.contains("trailing")),
        other => panic!("trailing bytes must be rejected, got {other:?}"),
    }
}

/// Frames are self-delimiting: two concatenated frames decode in order
/// from one stream, leaving the reader empty.
#[test]
fn frames_concatenate_into_a_stream() {
    let a = Packet::data(
        FlowId(1),
        FlowKey::tcp(0x0a00_0001, 1000, 0x0a00_0101, 80),
        0,
        1500,
        Nanos::ZERO,
    );
    let mut b = a.clone();
    b.kind = PacketKind::Ack;
    b.seq = 99;
    let mut stream = frame(WireDir::ToNet, 10, 20, &a);
    stream.extend_from_slice(&frame(WireDir::Delivery, 30, 40, &b));
    let mut r = Reader::new(&stream);
    let first = wire::decode_from(&mut r).expect("first frame");
    let second = wire::decode_from(&mut r).expect("second frame");
    assert!(r.is_empty(), "the stream must be fully consumed");
    assert_eq!(
        (first.dir, first.at, first.key.0),
        (WireDir::ToNet, Nanos(10), 20)
    );
    assert_eq!(first.pkt, a);
    assert_eq!(
        (second.dir, second.at, second.key.0),
        (WireDir::Delivery, Nanos(30), 40)
    );
    assert_eq!(second.pkt, b);
}

/// Golden byte-layout test for `NETENV` version 1: the header bytes are
/// checked field by field and the whole frame is pinned as its
/// `snapshot::digest`. If this fails, the envelope layout changed: bump
/// [`WIRE_VERSION`], update the layout table in `crates/shard/src/wire.rs`
/// and `ARCHITECTURE.md`, and re-pin. Never re-pin without the version
/// bump — captured streams would decode as garbage.
#[test]
fn wire_format_is_stable() {
    const GOLDEN_HASH: u64 = 0xa923_0d24_2a36_707e;
    const GOLDEN_LEN: usize = 92;
    assert_eq!(
        WIRE_VERSION, 1,
        "WIRE_VERSION changed — re-pin this test's golden hash for the new format"
    );
    let mut pkt = Packet::data(
        FlowId(7),
        FlowKey::tcp(0x0a01_0001, 4321, 0x0a02_0001, 443),
        123_456,
        1500,
        Nanos::from_millis(5),
    );
    pkt.ip_id = 0x1234;
    pkt.retransmit = true;
    pkt.sack_highest = 99;
    let bytes = frame(WireDir::Delivery, 7_000_000, (3 << 48) | 21, &pkt);

    // Header, field by field (all integers little-endian).
    assert_eq!(&bytes[0..6], &WIRE_MAGIC);
    assert_eq!(&bytes[6..8], &1u16.to_le_bytes(), "version");
    assert_eq!(bytes[8], 1, "direction tag (Delivery)");
    assert_eq!(&bytes[9..17], &7_000_000u64.to_le_bytes(), "at");
    assert_eq!(&bytes[17..25], &((3u64 << 48) | 21).to_le_bytes(), "key");

    // The whole frame, pinned.
    assert_eq!(
        (bytes.len(), bundler_sim::snapshot::digest(&bytes)),
        (GOLDEN_LEN, GOLDEN_HASH),
        "the envelope byte layout changed without a WIRE_VERSION bump \
         (see this test's doc comment for the required steps)"
    );
}
