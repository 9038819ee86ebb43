//! §7.2 ("Using Bundler for other policies"): FQ-CoDel and strict priority
//! at the sendbox.
//!
//! The paper reports that with FQ-CoDel Bundler achieves 97 % lower median
//! end-to-end RTTs (89 % at the 99th percentile), and that strictly
//! prioritizing one traffic class gives it 65 % lower median FCTs. The
//! table cannot show the second claim: an FCT record carries no traffic
//! class, so both columns are over all completed bundled requests.

use bundler_bench::{fmt, header, Scale};
use bundler_sched::Policy;
use bundler_sim::scenario::fct::{FctScenario, SendboxMode};

fn main() {
    let scale = Scale::from_env();
    let requests = scale.pick(1_500, 10_000);
    println!("# Section 7.2 table: other sendbox scheduling policies ({requests} requests)\n");

    header(&["configuration", "median_slowdown", "p99_slowdown"]);
    let configs = [
        ("status-quo", SendboxMode::StatusQuo),
        ("bundler-sfq", SendboxMode::BundlerSfq),
        (
            "bundler-fq_codel",
            SendboxMode::BundlerPolicy(Policy::FqCodel),
        ),
        (
            "bundler-prio",
            SendboxMode::BundlerPolicy(Policy::StrictPriority),
        ),
        ("bundler-drr", SendboxMode::BundlerPolicy(Policy::Drr)),
    ];
    for (label, mode) in configs {
        let report = FctScenario::builder()
            .requests(requests)
            .seed(72)
            .mode(mode)
            .background_bulk_flows(2)
            .high_priority_fraction(0.3)
            .build()
            .run();
        println!(
            "{label} | {} | {}",
            fmt(report.median_slowdown().unwrap_or(f64::NAN)),
            fmt(report.slowdown_quantile(0.99).unwrap_or(f64::NAN)),
        );
    }
    println!();
    println!("paper: FQ-CoDel cuts median end-to-end RTTs by 97%; strict priority cuts the high class's median FCT by 65%.");
}
