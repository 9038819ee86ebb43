//! A deterministic, packet-level, discrete-event network simulator used to
//! reproduce the Bundler paper's emulation experiments (§7).
//!
//! The paper evaluates its Linux prototype over mahimahi-emulated paths:
//! senders at one site, a sendbox at the site edge, an in-network bottleneck
//! link (optionally load-balanced over several sub-paths), a receivebox at
//! the destination edge, and receivers. This crate rebuilds that pipeline as
//! a simulator:
//!
//! * [`workload`] — heavy-tailed request-size distribution and Poisson
//!   arrivals matching §7.1's description of the CAIDA-derived workload.
//! * [`tcp`] — endhost TCP senders/receivers driven by the window-based
//!   congestion controllers from `bundler-cc` (Cubic by default).
//! * [`path`] — bottleneck links with finite drop-tail (or fair-queueing)
//!   buffers, propagation delay and ECMP-style load balancing.
//! * [`edge`] — the site edge: either a pass-through (status quo) or a
//!   Bundler sendbox (token bucket + scheduler + control plane).
//! * [`sim`] — [`Simulation`], the one entry point: the single-threaded
//!   event loop tying everything together, or, when
//!   [`SimulationConfig::shards`] asks for more than one worker, the
//!   windowed multi-threaded runtime of [`shard`], bit-identical to it.
//! * [`stats`] — flow-completion-time, slowdown, throughput and queue-delay
//!   accounting.
//! * [`scenario`] — ready-made worlds: Figure 9's request workload and the
//!   multi-site worlds beyond the paper. The other paper-figure worlds live
//!   in `bundler-bench`.
//!
//! Every run is a deterministic function of its seed, so experiments are
//! exactly reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod directory;
pub mod edge;
pub mod event;
pub mod fault;
pub mod fluid;
pub mod path;
mod runtime;
pub mod scenario;
pub mod shard;
pub mod sim;
pub mod snapshot;
pub mod stats;
pub mod tcp;
pub mod workload;

pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use fluid::{CrossTrafficTier, FluidAggregate, FluidCrossTraffic};
pub use sim::{ShardBalance, Simulation, SimulationConfig};
pub use stats::{SimReport, SimStats};
