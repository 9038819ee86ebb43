//! A company office bundling its traffic to a cloud region.
//!
//! ```text
//! cargo run --release --example office_to_cloud
//! ```
//!
//! This is the paper's motivating deployment (§1): latency-sensitive
//! request/response traffic (think interactive apps) shares the office's
//! Internet path with bulk backup transfers. The office cannot control the
//! in-network bottleneck, but a Bundler pair lets it schedule its own
//! traffic. We reproduce the §8 experiment structure on one emulated WAN
//! path and print the request-latency distribution for the three
//! configurations.

use bundler_bench::internet::{Region, WanExperiment, WanPath};
use bundler_types::Rate;

fn main() {
    let mut experiment = WanExperiment::quick();
    experiment.paths = vec![{
        let mut p =
            WanPath::for_region(Region::SouthCarolina).with_egress_limit(Rate::from_mbps(80));
        p.buffer_pkts = 400;
        p
    }];
    experiment.workload.ping_streams = 6;
    experiment.workload.bulk_flows = 8;

    let path = experiment.paths[0];
    println!(
        "Office -> {} ({} base RTT, {} egress limit), {} request streams + {} bulk flows\n",
        path.region,
        path.base_rtt,
        path.egress_limit,
        experiment.workload.ping_streams,
        experiment.workload.bulk_flows
    );

    let result = experiment.run_path(&path);
    println!("request-response RTT (median):");
    println!(
        "  base (no bulk traffic): {:7.1} ms",
        result.median_base_ms()
    );
    println!(
        "  status quo            : {:7.1} ms",
        result.median_status_quo_ms()
    );
    println!(
        "  with Bundler (SFQ)    : {:7.1} ms",
        result.median_bundler_ms()
    );
    println!();
    println!(
        "latency reduction vs status quo: {:.0}% | bulk throughput ratio: {:.2}",
        result.latency_reduction() * 100.0,
        result.throughput_ratio()
    );
}
