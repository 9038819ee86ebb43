//! Typed failures of the sharded host.
//!
//! The windowed driver coordinates worker threads over non-poisoning
//! barriers, so a worker that panics mid-window cannot simply unwind — it
//! would leave every other thread blocked forever. Instead the worker
//! records a diagnostic (which shard, which window, the last event it
//! peeked) and idles at the barriers until the driver shuts the run down
//! and surfaces a [`ShardError`] — loudly, with the context needed to
//! replay the window, never a hang.

use bundler_sim::event::EventKey;
use bundler_sim::snapshot::SnapshotError;
use bundler_types::Nanos;

/// Why a sharded run could not produce a report.
#[derive(Debug)]
pub enum ShardError {
    /// A worker shard panicked. The run was shut down cleanly at the next
    /// barrier; the fields locate the failure for replay (restore the last
    /// checkpoint before `last_event` and re-run with `ObsLevel::Full`).
    WorkerPanicked {
        /// Index of the shard whose window processing panicked.
        shard: usize,
        /// The driver window (0-based) the panic occurred in.
        window: u64,
        /// Timestamp and canonical key of the last event the worker peeked
        /// before panicking — the first suspect for replay. `None` if the
        /// panic happened outside event processing (e.g. saving a
        /// checkpoint).
        last_event: Option<(Nanos, EventKey)>,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// The snapshot handed to [`crate::ShardedSimulation::restore`] was
    /// rejected.
    Snapshot(SnapshotError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::WorkerPanicked {
                shard,
                window,
                last_event,
                message,
            } => {
                write!(f, "worker shard {shard} panicked in window {window}")?;
                match last_event {
                    Some((at, key)) => write!(f, " (last event {key:?} at {at:?})")?,
                    None => write!(f, " (outside event processing)")?,
                }
                write!(f, ": {message}")
            }
            ShardError::Snapshot(e) => write!(f, "snapshot rejected: {e}"),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapshotError> for ShardError {
    fn from(e: SnapshotError) -> Self {
        ShardError::Snapshot(e)
    }
}

/// Extracts a human-readable message from a panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
