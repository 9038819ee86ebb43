//! The one way a windowed run fails: a worker or net thread panicked.
//!
//! The windowed driver coordinates worker threads over non-poisoning
//! barriers, so a worker that panics mid-window cannot simply unwind — it
//! would leave every other thread blocked forever. Instead the worker
//! records a diagnostic (which shard, which window, the last event it
//! peeked) and idles at the barriers until the driver shuts the run down
//! and panics with the [`WorkerPanic`] as its message — loudly, with the
//! context needed to replay the window, never a hang.

use crate::event::EventKey;
use bundler_types::Nanos;

/// Where a windowed run's thread panicked. The run was shut down cleanly
/// at the next barrier; the fields locate the failure for replay (restore
/// the last checkpoint before `last_event` and re-run with
/// `ObsLevel::Full`).
#[derive(Debug)]
pub(crate) struct WorkerPanic {
    /// Index of the shard whose window processing panicked (net thread k
    /// reports as `workers + k`).
    pub shard: usize,
    /// The driver window (0-based) the panic occurred in.
    pub window: u64,
    /// Timestamp and canonical key of the last event the thread peeked
    /// before panicking — the first suspect for replay. `None` if the
    /// panic happened outside event processing (e.g. saving a checkpoint).
    pub last_event: Option<(Nanos, EventKey)>,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker shard {} panicked in window {}",
            self.shard, self.window
        )?;
        match self.last_event {
            Some((at, key)) => write!(f, " (last event {key:?} at {at:?})")?,
            None => write!(f, " (outside event processing)")?,
        }
        write!(f, ": {}", self.message)
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
