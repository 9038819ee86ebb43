//! Versioned wire format for cross-shard mailbox envelopes.
//!
//! Every message that crosses a mailbox — a packet entering the bottleneck
//! stage (worker → net) or a delivery leaving it (net → worker) — is an
//! *envelope*: `(direction, timestamp, canonical key, packet)`. In-process
//! mailboxes move envelopes as plain structs, but the format below pins a
//! portable byte encoding for them, so a future out-of-process transport
//! (or a capture/replay tool) speaks the same language the driver does.
//!
//! # Wire format (version 1)
//!
//! All integers are little-endian; the packet payload reuses the repo's
//! vendored `serde::binary` codec — the same one whole-simulation
//! snapshots are built from.
//!
//! ```text
//! magic    [u8; 6]  = b"NETENV"
//! version  u16      = 1
//! tag      u8       0 = ToNet (worker → net), 1 = Delivery (net → worker)
//! at       u64      simulated arrival time, nanoseconds
//! key      u64      canonical event key (lp << 48 | seq)
//! pkt      Packet   serde::binary encoding of the packet
//! ```
//!
//! A frame is self-delimiting (the packet codec consumes exactly its own
//! bytes), so frames can be concatenated into a stream.
//!
//! When [`SimulationConfig::wire_envelopes`] is on, the sharded driver
//! routes every envelope through [`encode`] → [`decode`] at the sending
//! edge — live traffic exercises the codec end to end, and the
//! differential matrix in `tests/net_shards.rs` proves results stay
//! bit-identical with the encoding in the loop. Round-tripping and
//! rejection are also property-tested directly in `tests/wire_format.rs`.
//!
//! [`SimulationConfig::wire_envelopes`]: crate::sim::SimulationConfig::wire_envelopes

use crate::event::EventKey;
use bundler_types::{Nanos, Packet};
use serde::binary::{Decode, Encode, Reader};

/// Magic bytes opening every envelope frame.
pub const WIRE_MAGIC: [u8; 6] = *b"NETENV";

/// Current envelope format version. Bump when the byte layout changes;
/// the golden-layout test in `tests/wire_format.rs` fails loudly when an
/// accidental change sneaks in.
pub const WIRE_VERSION: u16 = 1;

/// Which way an envelope travels. The direction is part of the frame so a
/// captured stream is unambiguous without out-of-band context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireDir {
    /// Worker → net: the packet enters the bottleneck stage at `at`.
    ToNet,
    /// Net → worker: the packet reaches its destination site at `at`.
    Delivery,
}

impl WireDir {
    fn tag(self) -> u8 {
        match self {
            WireDir::ToNet => 0,
            WireDir::Delivery => 1,
        }
    }
}

/// A decoded envelope frame.
#[derive(Debug, Clone, PartialEq)]
pub struct WireEnvelope {
    /// Travel direction.
    pub dir: WireDir,
    /// Simulated arrival time.
    pub at: Nanos,
    /// Canonical event key assigned by the sending LP.
    pub key: EventKey,
    /// The packet itself, by value.
    pub pkt: Packet,
}

/// Why an envelope frame could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The format version is not [`WIRE_VERSION`].
    VersionMismatch {
        /// Version found in the frame header.
        found: u16,
    },
    /// The direction tag is not a known [`WireDir`].
    BadDirection {
        /// Tag byte found in the frame.
        found: u8,
    },
    /// The frame ended early or the packet payload failed to decode.
    Corrupt(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic => write!(f, "not an envelope frame (bad magic)"),
            WireError::VersionMismatch { found } => write!(
                f,
                "envelope format version {found} is not supported (expected {WIRE_VERSION})"
            ),
            WireError::BadDirection { found } => {
                write!(f, "unknown envelope direction tag {found}")
            }
            WireError::Corrupt(msg) => write!(f, "envelope frame corrupt: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends one envelope frame to `out`.
pub fn encode(dir: WireDir, at: Nanos, key: EventKey, pkt: &Packet, out: &mut Vec<u8>) {
    out.extend_from_slice(&WIRE_MAGIC);
    WIRE_VERSION.encode(out);
    dir.tag().encode(out);
    at.encode(out);
    key.0.encode(out);
    pkt.encode(out);
}

/// Decodes one envelope frame from the front of `r`, leaving the reader
/// positioned after it (frames concatenate into a stream).
pub fn decode_from(r: &mut Reader<'_>) -> Result<WireEnvelope, WireError> {
    let corrupt = |e: serde::binary::DecodeError| WireError::Corrupt(e.to_string());
    let magic = r
        .take(WIRE_MAGIC.len(), "envelope magic")
        .map_err(corrupt)?;
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u16::decode(r).map_err(corrupt)?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { found: version });
    }
    let tag = u8::decode(r).map_err(corrupt)?;
    let dir = match tag {
        0 => WireDir::ToNet,
        1 => WireDir::Delivery,
        found => return Err(WireError::BadDirection { found }),
    };
    let at = Nanos::decode(r).map_err(corrupt)?;
    let key = EventKey(u64::decode(r).map_err(corrupt)?);
    let pkt = Packet::decode(r).map_err(corrupt)?;
    Ok(WireEnvelope { dir, at, key, pkt })
}

/// Decodes a single-frame buffer, rejecting trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<WireEnvelope, WireError> {
    let mut r = Reader::new(bytes);
    let env = decode_from(&mut r)?;
    if !r.is_empty() {
        return Err(WireError::Corrupt("trailing bytes after frame".into()));
    }
    Ok(env)
}

/// Encode → decode an envelope in place: the driver's send-edge hook when
/// [`wire_envelopes`](crate::sim::SimulationConfig::wire_envelopes)
/// is on. `buf` is a scratch buffer reused across calls to keep the hot
/// path allocation-free. Panics if the codec does not round-trip — that is
/// a wire-format bug, not an input error.
pub fn roundtrip(dir: WireDir, at: Nanos, key: EventKey, pkt: Packet, buf: &mut Vec<u8>) -> Packet {
    buf.clear();
    encode(dir, at, key, &pkt, buf);
    let env = decode(buf).expect("envelope frame round-trips");
    assert_eq!(env.dir, dir, "envelope direction survives the wire");
    assert_eq!(env.at, at, "envelope timestamp survives the wire");
    assert_eq!(env.key, key, "envelope key survives the wire");
    env.pkt
}
