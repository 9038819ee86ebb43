//! The paper's evidence: the worlds behind its §7 emulation figures and its
//! §8 WAN experiment, one printer per figure or table, and the `obs_query`
//! stream reducer.
//!
//! | Module | Paper result |
//! |---|---|
//! | [`queue_shift`] | Figure 2 — queues move from the bottleneck to the sendbox |
//! | [`estimation`] | Figures 5 & 6 — receive-rate and RTT estimation accuracy |
//! | [`multipath`] | Figure 7 & §7.6 — out-of-order fraction under imbalanced paths |
//! | [`fct`] | Figures 9, 14, 15 and the §7.2/§7.4 tables — FCT/slowdown comparisons over `bundler_sim::scenario::fct` |
//! | [`cross_traffic`] | Figures 10–13 — behaviour under cross traffic and competing bundles |
//! | [`internet`] | Figure 16 — §8's real-Internet experiment over emulated WAN paths |
//!
//! The `paper` binary runs any rows of [`FIGURES`] by name, e.g.
//! `cargo run --release -p bundler-bench --bin paper -- fig09_fct_slowdown`.
//! Every figure honours the `BUNDLER_SCALE` environment variable:
//!
//! * `quick` — a scaled-down run that finishes in seconds; useful for smoke
//!   tests and CI.
//! * `paper` (default) — a run sized to make the paper's qualitative
//!   comparison meaningful on a laptop: seconds to minutes of simulated time
//!   per configuration, far shorter than the paper's multi-hour testbed
//!   runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cross_traffic;
pub mod estimation;
pub mod fct;
pub mod internet;
pub mod multipath;
pub mod query;
pub mod queue_shift;

/// One row of [`FIGURES`]: the name `paper` takes and the printer that
/// runs the figure's worlds and prints its table.
pub type Figure = (&'static str, fn(Scale));

/// Builds [`FIGURES`] rows from `module::printer` paths.
macro_rules! figures {
    ($($module:ident::$printer:ident),* $(,)?) => {
        &[$((stringify!($printer), $module::$printer as fn(Scale))),*]
    };
}

/// Every figure and table of the paper, in paper order. A row's name is its
/// printer's name.
pub const FIGURES: &[Figure] = figures![
    queue_shift::fig02_queue_shift,
    estimation::fig05_rate_estimation,
    estimation::fig06_rtt_estimation,
    multipath::fig07_multipath_delays,
    fct::fig09_fct_slowdown,
    cross_traffic::fig10_cross_traffic_timeline,
    cross_traffic::fig11_short_cross_sweep,
    cross_traffic::fig12_elastic_cross,
    cross_traffic::fig13_competing_bundles,
    fct::fig14_sendbox_cc,
    fct::fig15_proxy,
    internet::fig16_internet_paths,
    fct::tab_other_policies,
    fct::tab_endhost_cc,
    multipath::tab_multipath_sweep,
];

/// The printer of the [`FIGURES`] row called `name`, or a message that
/// lists every valid name.
pub fn figure(name: &str) -> Result<fn(Scale), String> {
    match FIGURES.iter().find(|(n, _)| *n == name) {
        Some(&(_, run)) => Ok(run),
        None => Err(format!("unknown figure `{name}`; {}", figure_list())),
    }
}

/// "the figures are:" followed by every [`FIGURES`] name, one per line.
pub fn figure_list() -> String {
    let mut list = String::from("the figures are:");
    for (name, _) in FIGURES {
        list.push_str("\n  ");
        list.push_str(name);
    }
    list
}

/// The scale at which a figure runs.
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
    fn figure_table_agrees_with_readme() {
        let mut names: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        let unique = names.len();
        names.dedup();
        assert_eq!(names.len(), unique, "a FIGURES name repeats");

        // Every backticked cell of the table under "## Paper mapping".
        let readme = include_str!("../../../README.md");
        let section = readme
            .split("\n## Paper mapping\n")
            .nth(1)
            .expect("README has a Paper mapping section");
        let section = section.split("\n## ").next().unwrap_or(section);
        let mut listed: Vec<&str> = section
            .lines()
            .filter(|l| l.starts_with('|'))
            .flat_map(|l| l.split('`').skip(1).step_by(2))
            .collect();
        listed.sort_unstable();
        assert_eq!(listed, names, "README's Paper mapping and FIGURES disagree");

        let err = figure("fig99_unknown").expect_err("an unknown name is refused");
        for name in &names {
            assert!(
                err.contains(name),
                "the refusal does not list {name}: {err}"
            );
        }
        assert!(figure("fig09_fct_slowdown").is_ok());
    }

    #[test]
    fn fmt_handles_nan_and_magnitudes() {
        assert_eq!(fmt(f64::NAN), "n/a");
        assert_eq!(fmt(1.23456), "1.235");
        assert_eq!(fmt(123.456), "123.5");
    }
}
