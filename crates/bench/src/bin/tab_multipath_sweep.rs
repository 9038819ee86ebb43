//! §7.6: the multipath-detection heuristic across network conditions.
//!
//! The paper sweeps bottleneck bandwidth (12–96 Mbit/s), RTT (10–300 ms) and
//! path counts (1–32): the out-of-order fraction never exceeds 0.4 % on a
//! single path and never falls below 20 % with 2–32 imbalanced paths, so the
//! 5 % threshold separates the regimes by two orders of magnitude.

use bundler_bench::{fmt, header, Scale};
use bundler_sim::scenario::multipath::MultipathScenario;
use bundler_types::{Duration, Rate};

fn main() {
    let scale = Scale::from_env();
    let duration = scale.pick(Duration::from_secs(10), Duration::from_secs(30));
    let rates = [
        Rate::from_mbps(12),
        Rate::from_mbps(48),
        Rate::from_mbps(96),
    ];
    let rtts = [
        Duration::from_millis(10),
        Duration::from_millis(50),
        Duration::from_millis(150),
    ];
    let paths = [1usize, 2, 4, 8];

    println!("# Section 7.6 table: out-of-order fraction vs paths/bandwidth/RTT\n");
    header(&[
        "rate_mbps",
        "rtt_ms",
        "paths",
        "out_of_order_fraction",
        "disabled",
    ]);
    let mut single_max: f64 = 0.0;
    let mut multi_min: f64 = 1.0;
    for point in MultipathScenario::sweep(&rates, &rtts, &paths, duration) {
        if point.paths == 1 {
            single_max = single_max.max(point.out_of_order_fraction);
        } else {
            multi_min = multi_min.min(point.out_of_order_fraction);
        }
        println!(
            "{} | {} | {} | {} | {}",
            fmt(point.rate.as_mbps_f64()),
            fmt(point.rtt.as_millis_f64()),
            point.paths,
            fmt(point.out_of_order_fraction),
            point.disabled
        );
    }
    println!();
    println!(
        "max single-path fraction: {} | min multipath fraction: {} (paper: 0.4% vs 20%)",
        fmt(single_max),
        fmt(multi_min)
    );
}
