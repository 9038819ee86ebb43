//! Env-gated debug log sink.
//!
//! Diagnostic prints from the runtime (such as trace-ring overflow) go
//! through here instead of raw `eprintln!`: the gate is checked once per
//! process, so disabled logging costs one atomic load per call site and
//! stderr stays quiet unless `BUNDLER_SHARD_DEBUG` is set.

use std::sync::OnceLock;

/// The environment variable that enables debug logging.
pub const DEBUG_ENV: &str = "BUNDLER_SHARD_DEBUG";

/// True if `BUNDLER_SHARD_DEBUG` was set when first checked.
pub fn debug_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| std::env::var_os(DEBUG_ENV).is_some())
}

/// Writes a line to stderr iff debug logging is enabled. Call with
/// `format_args!` so the formatting itself is skipped when disabled:
///
/// ```
/// bundler_obs::logsink::debug_log(format_args!("window {}: {} events", 3, 1));
/// ```
pub fn debug_log(args: std::fmt::Arguments<'_>) {
    if debug_enabled() {
        eprintln!("{args}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_is_stable_and_logging_is_safe() {
        let first = debug_enabled();
        assert_eq!(first, debug_enabled(), "gate must be cached");
        // Must not panic either way.
        debug_log(format_args!("test line {}", 42));
    }
}
