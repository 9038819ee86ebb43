//! Shared helpers for the experiment binaries (one binary per figure or
//! table of the paper).
//!
//! Every binary honours the `BUNDLER_SCALE` environment variable:
//!
//! * `quick` — a scaled-down run that finishes in seconds; useful for smoke
//!   tests and CI.
//! * `paper` (default) — a run sized to make the paper's qualitative
//!   comparison meaningful on a laptop (still far smaller than the paper's
//!   multi-hour testbed runs; EXPERIMENTS.md discusses the difference).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod query;

/// The scale at which an experiment binary runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long smoke run.
    Quick,
    /// The default, laptop-sized reproduction run.
    Paper,
}

impl Scale {
    /// Reads the scale from the `BUNDLER_SCALE` environment variable.
    pub fn from_env() -> Scale {
        match std::env::var("BUNDLER_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Paper,
        }
    }

    /// Picks between the quick and paper-scale value.
    pub fn pick<T>(self, quick: T, paper: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Paper => paper,
        }
    }
}

/// Prints a table header row followed by an underline.
pub fn header(columns: &[&str]) {
    let row = columns.join(" | ");
    println!("{row}");
    println!("{}", "-".repeat(row.len()));
}

/// Formats a float with three significant decimals for table output.
pub fn fmt(v: f64) -> String {
    if v.is_nan() {
        "n/a".to_string()
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Paper.pick(1, 2), 2);
    }

    #[test]
    fn fmt_handles_nan_and_magnitudes() {
        assert_eq!(fmt(f64::NAN), "n/a");
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(123.456), "123.5");
    }
}
