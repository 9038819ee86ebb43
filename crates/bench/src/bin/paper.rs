//! Prints the paper's figures and tables by name, in the order given:
//!
//! ```text
//! BUNDLER_SCALE=quick paper fig09_fct_slowdown tab_other_policies
//! ```
//!
//! With no name it prints the valid names and exits non-zero. It never
//! runs every figure: `tab_endhost_cc`'s BBR row does not finish, even at
//! quick scale, until the endhost BBR's delivery-rate sample is fixed.

use std::process::ExitCode;

use bundler_bench::{figure, figure_list, Scale};

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if names.is_empty() {
        eprintln!("usage: paper FIGURE...; {}", figure_list());
        return ExitCode::FAILURE;
    }
    // Every name is checked before any figure runs, so a typo in the last
    // one does not waste the runs before it.
    let runs = match names
        .iter()
        .map(|n| figure(n))
        .collect::<Result<Vec<_>, _>>()
    {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let scale = Scale::from_env();
    for run in runs {
        run(scale);
    }
    ExitCode::SUCCESS
}
