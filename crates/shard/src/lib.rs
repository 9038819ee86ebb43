//! The sharded runtime's former crate name. The runtime is
//! `bundler_sim::shard`, and `bundler_sim::Simulation` runs it whenever
//! `SimulationConfig::shards` asks for more than one worker; this crate
//! only re-exports what its remaining dependents name.

#![forbid(unsafe_code)]

pub use bundler_sim::shard::{mailbox, wire};
pub use bundler_sim::Simulation as ShardedSimulation;
