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
