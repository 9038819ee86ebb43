//! The Bundler control loop: the paper's primary contribution.
//!
//! A *bundle* is all traffic from one site to another. The **sendbox** at the
//! source site rate-limits and schedules the bundle; the **receivebox** at
//! the destination site sends lightweight out-of-band *congestion ACKs* back.
//! Together they form an "inner" congestion-control loop over the aggregate
//! that shifts bottleneck queues to the sendbox without touching the
//! end-to-end connections.
//!
//! Module map (mirrors Figure 3 of the paper):
//!
//! * [`fnv`] — the FNV-1a hash used to identify epoch-boundary packets.
//! * [`epoch`] — epoch boundary sampling and epoch-size control (§4.5).
//! * [`feedback`] — the congestion-ACK and epoch-size-update messages.
//! * [`measurement`] — RTT / send-rate / receive-rate estimation from
//!   congestion ACKs, including out-of-order accounting (§4.5).
//! * [`multipath`] — imbalanced-multipath detection from the out-of-order
//!   fraction (§5.2).
//! * [`modes`] — the delay-control vs. pass-through state machine with the
//!   PI controller that maintains the 10 ms probing queue (§5.1).
//! * [`pi`] — the PI controller itself.
//! * [`sendbox`] — the sendbox control plane tying everything together.
//! * [`receivebox`] — the receivebox datapath observer.
//! * [`config`] — tunables, with the paper's defaults.
//! * [`wheel`] — the [`CalendarQueue`], the hierarchical timer wheel that
//!   drives the simulator's event loop and the site agent's control ticks,
//!   and the [`BinaryHeapQueue`] it is tested against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod epoch;
pub mod feedback;
pub mod fnv;
pub mod measurement;
pub mod modes;
pub mod multipath;
pub mod pi;
pub mod receivebox;
pub mod sendbox;
pub mod wheel;

pub use config::BundlerConfig;
pub use feedback::{CongestionAck, EpochSizeUpdate};
pub use modes::{Mode, ModeController};
pub use receivebox::Receivebox;
pub use sendbox::{Sendbox, SendboxOutput, SendboxStats, SendboxTelemetry};
pub use wheel::{BinaryHeapQueue, CalendarQueue};
