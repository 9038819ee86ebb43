//! Bundler: site-to-site Internet traffic control.
//!
//! This facade crate re-exports the workspace libraries that together
//! reproduce the EuroSys '21 paper *Site-to-Site Internet Traffic Control*:
//!
//! * [`types`] — packets, flow keys, destination prefixes, time and rate
//!   units.
//! * [`sched`] — packet schedulers and rate limiters (FIFO, SFQ, FQ-CoDel,
//!   DRR, strict priority, token bucket).
//! * [`cc`] — congestion-control algorithms (Copa, Nimbus, BBR, Cubic,
//!   NewReno).
//! * [`core`] — the Bundler sendbox/receivebox control loop: epoch-based
//!   measurement, congestion ACKs, cross-traffic mode switching and
//!   multipath imbalance detection.
//! * [`agent`] — the site-edge agent that scales the control loop from one
//!   bundle to many: a longest-prefix-match classifier maps each packet to
//!   its bundle, it holds every bundle's control plane, and every bundle
//!   exports a uniform telemetry snapshot. In a simulation each bundle
//!   ticks from its own control-tick event.
//! * [`sim`] — a deterministic packet-level network simulator used for the
//!   paper's emulation experiments, including a multi-bundle edge mode
//!   backed by the agent (`sim::scenario::many_sites`). Its one entry
//!   point, `sim::Simulation`, runs the single-threaded engine, or with
//!   `SimulationConfig::shards` above one the sharded runtime.
//! * [`shard`] — that sharded multi-threaded runtime (`sim::shard`):
//!   per-bundle worker shards around the shared bottleneck, synchronized
//!   by conservative time windows and barrier-drained mailboxes, with the
//!   net phase pipelined behind the next worker window; each bundle stays
//!   on the shard it is placed on. Bit-identical to the single-threaded
//!   engine for any shard count (ARCHITECTURE.md has the proof sketch).
//! * [`obs`] — deterministic observability: fixed-slot metrics with
//!   shard-count-invariant merged snapshots, a structured trace recorder
//!   with Perfetto (Chrome trace-event) export, and the sharded runtime's
//!   per-window phase profiler. Enabled per run via
//!   `SimulationConfig::obs`; `ObsLevel::Off` (the default) reduces every
//!   instrumentation site to a skipped branch.
//!
//! # Quickstart
//!
//! ```
//! use bundler::sim::scenario::fct::{FctScenario, SendboxMode};
//!
//! // A tiny version of the paper's Figure 9 experiment: heavy-tailed
//! // request workload over a 96 Mbit/s, 50 ms bottleneck.
//! let report = FctScenario::builder()
//!     .requests(200)
//!     .seed(7)
//!     .mode(SendboxMode::BundlerSfq)
//!     .build()
//!     .run();
//! assert!(report.completed > 0);
//! ```

#![forbid(unsafe_code)]

pub use bundler_agent as agent;
pub use bundler_cc as cc;
pub use bundler_core as core;
pub use bundler_obs as obs;
pub use bundler_sched as sched;
pub use bundler_sim as sim;
pub use bundler_sim::shard;
pub use bundler_types as types;
