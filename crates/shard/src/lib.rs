//! Sharded multi-threaded simulation runtime.
//!
//! Scales the deterministic packet-level simulator from one core to many:
//! bundles are partitioned across N worker shards — each owning its own
//! event queue, packet arena, TCP endhosts, sendbox schedulers and a
//! partition of the site agent's bundle table — around the one shared
//! resource, the bottleneck ([`bundler_sim::runtime::NetCore`]).
//!
//! # How determinism survives parallelism
//!
//! * **Canonical event keys.** Every event is ordered by `(timestamp,
//!   logical process, per-process sequence)` (see [`bundler_sim::event`]).
//!   The key stream of each logical process depends only on that process's
//!   own history, so the total order — and therefore every simulation
//!   result — is independent of how processes are placed on threads.
//! * **Conservative time windows.** Workers and the bottleneck advance
//!   over windows of half the *lookahead* — the minimum one-way bottleneck
//!   propagation delay. Within a window, workers run in parallel (they
//!   never exchange messages with each other: bundles only interact where
//!   queues build, at the bottleneck — the paper's own decomposition);
//!   the bottleneck's net threads consume a window's arrivals once the
//!   workers have finished it, while the workers run the next one. The
//!   only zero-latency hop (site edge → bottleneck) is covered by that
//!   phase order, and every bottleneck output lies at least one lookahead
//!   — two windows — in the future, so no event can arrive in a window
//!   already processed.
//! * **Deterministic mailboxes.** Cross-shard messages travel through
//!   one-producer, one-consumer mailboxes ([`mailbox`]: a mutex-guarded
//!   `Vec`, drained only at window barriers) carrying `(timestamp, key,
//!   packet)` envelopes and are merged by scheduling them into the
//!   receiving shard's queue, which sorts by the same canonical order —
//!   ties broken by `(timestamp, key)` exactly as in the single-threaded
//!   engine.
//!
//! The result: [`ShardedSimulation`] with any shard count produces
//! **bit-identical** [`SimStats`](bundler_sim::SimStats) and agent
//! telemetry to [`bundler_sim::Simulation`] (property-tested in
//! `tests/equivalence.rs`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod balance;
mod driver;
pub mod error;
pub mod mailbox;
pub mod scenario;
pub mod wire;

pub use driver::ShardedSimulation;
pub use error::ShardError;
