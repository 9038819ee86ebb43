//! The Bundler site agent: a site edge's control plane for *many* bundles.
//!
//! The paper (§4–§5) designs the sendbox/receivebox pair for one bundle —
//! all traffic between a single pair of sites. A deployed site edge talks
//! to many remote sites at once, so it runs one bundle per peer and needs
//! three pieces of machinery the single-bundle design leaves out:
//!
//! * [`classifier`] — a longest-prefix-match table mapping each packet's
//!   destination address to its bundle, consulted once per packet on the
//!   forwarding fast path.
//! * **tick batching** — the per-bundle control ticks wait in one
//!   [`CalendarQueue`](bundler_core::CalendarQueue), the structure the
//!   simulator's event loop runs on, so an agent tick is O(due bundles)
//!   instead of O(all bundles).
//! * [`telemetry`] — uniform per-bundle snapshots (rate, mode, RTT, epoch
//!   and counter state) for export.
//!
//! [`SiteAgent`] ties the three together around the per-bundle
//! [`Sendbox`](bundler_core::Sendbox) control planes. Datapaths (queues,
//! pacing) stay with the caller, mirroring the sendbox's own split: the
//! simulator's agent edge owns one token bucket per bundle, a real
//! deployment would own one qdisc per bundle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod classifier;
pub mod telemetry;

pub use agent::{AgentConfig, AgentStats, BundleTick, SiteAgent};
pub use classifier::PrefixClassifier;
pub use telemetry::{AgentTelemetry, BundleTelemetry};
