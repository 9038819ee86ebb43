//! Core types shared across the Bundler workspace.
//!
//! This crate deliberately has no knowledge of the simulator, the scheduler
//! implementations or the congestion-control algorithms: it only defines the
//! vocabulary they all speak — packets and their headers, flow keys, and
//! time ([`Nanos`]) and rate ([`Rate`]) units.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod codec;
pub mod flow;
pub mod packet;
pub mod prefix;
pub mod rate;
pub mod time;

pub use arena::{PacketArena, PacketId};
pub use flow::{ipv4, FlowId, FlowKey, IdHashMap, IdHasher, Protocol};
pub use packet::{Packet, PacketKind, TrafficClass};
pub use prefix::IpPrefix;
pub use rate::Rate;
pub use time::{Duration, Nanos};

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. The flow-trace
/// sampler and the per-packet multipath spray both pick with it, so its
/// output is part of every run's digest.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}
