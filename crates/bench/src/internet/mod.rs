//! Real-Internet-path experiments (§8 of the paper), reproduced over
//! emulated WAN paths.
//!
//! The paper deploys a sendbox in a GCP datacenter in Iowa and receiveboxes
//! in five other regions (Belgium, Frankfurt, Oregon, South Carolina,
//! Tokyo), routing over the public Internet. Each bundle carries ten
//! closed-loop 40-byte UDP request/response "ping" streams plus twenty
//! backlogged bulk flows. The finding: queues build somewhere outside
//! either site (most plausibly the provider's egress rate limiter), the
//! status-quo request RTTs inflate far above the base RTT, and Bundler with
//! SFQ brings them back down (57 % lower at the median) without hurting
//! bulk throughput (within 1 %).
//!
//! GCP is not available here, so this module substitutes a WAN path model:
//! each region is an emulated path whose base RTT matches the real
//! inter-region latency and whose bottleneck is a cloud-style egress rate
//! limiter outside the "site". The rates are scaled down from the multi-
//! gigabit real paths so packet-level simulation stays tractable; the
//! structure of the experiment (who competes with whom, and where the queue
//! lives) is unchanged.

pub mod paths;
pub mod workload;

use bundler_types::Duration;

pub use paths::{Region, WanPath};
pub use workload::{WanExperiment, WanPathResult, WanWorkload};

use crate::{fmt, header, Scale};

/// Figure 16: Bundler on (emulated) wide-area Internet paths.
///
/// One bundle per destination region, each carrying ten closed-loop 40-byte
/// request/response streams plus twenty backlogged bulk flows across a
/// rate-limited egress. The paper reports 57 % lower request latencies at
/// the median with throughput within 1 % of the status quo.
pub fn fig16_internet_paths(scale: Scale) {
    let mut experiment = WanExperiment::default();
    experiment.workload.duration = scale.pick(Duration::from_secs(15), Duration::from_secs(40));
    println!("# Figure 16: WAN paths (Iowa source, five destination regions)\n");

    header(&[
        "region",
        "base_rtt_ms(p50)",
        "statusquo_rtt_ms(p50)",
        "bundler_rtt_ms(p50)",
        "latency_reduction_%",
        "throughput_ratio",
    ]);
    let mut reductions = Vec::new();
    for path in experiment.paths.clone() {
        let result = experiment.run_path(&path);
        reductions.push(result.latency_reduction());
        println!(
            "{} | {} | {} | {} | {} | {}",
            path.region,
            fmt(result.median_base_ms()),
            fmt(result.median_status_quo_ms()),
            fmt(result.median_bundler_ms()),
            fmt(result.latency_reduction() * 100.0),
            fmt(result.throughput_ratio()),
        );
    }
    let mean_reduction = reductions.iter().sum::<f64>() / reductions.len().max(1) as f64;
    println!();
    println!(
        "mean latency reduction: {}% (paper: 57% overall; throughput within 1% of status quo)",
        fmt(mean_reduction * 100.0)
    );
}
