//! The printers over the Fig. 9 world (`bundler_sim::scenario::fct`):
//! Figures 9, 14 and 15 and the §7.2 and §7.4 tables. The world stays in
//! `bundler-sim`, because the repository benchmark and the runtime tests
//! build it too.

use bundler_cc::{BundleAlg, EndhostAlg};
use bundler_sched::Policy;
use bundler_sim::scenario::fct::{FctScenario, SendboxMode};
use bundler_sim::stats::{quantile, SimReport, SizeClass};

use crate::{fmt, header, Scale};

/// The median slowdown of `report`'s completed flows in size class `c`;
/// NaN when the class has none.
fn class_median(report: &SimReport, c: SizeClass) -> f64 {
    let mut v = report.slowdowns_in_class(c);
    quantile(&mut v, 0.5).unwrap_or(f64::NAN)
}

/// Figure 9: flow-completion-time slowdowns of the four configurations.
///
/// The paper's headline numbers: median slowdown 1.76 (Status Quo) → 1.26
/// (Bundler + SFQ), a 28 % reduction; In-Network fair queueing reaches 1.07;
/// Bundler with FIFO is slightly worse than the status quo; the 99th
/// percentile improves by 48 %.
pub fn fig09_fct_slowdown(scale: Scale) {
    let requests = scale.pick(2_000, 20_000);
    println!("# Figure 9: FCT slowdown by configuration ({requests} requests, 96 Mbit/s, 50 ms RTT, 84 Mbit/s offered)\n");

    let modes = [
        SendboxMode::StatusQuo,
        SendboxMode::BundlerSfq,
        SendboxMode::BundlerFifo,
        SendboxMode::InNetwork,
    ];
    header(&[
        "configuration",
        "completed",
        "median_slowdown",
        "p90_slowdown",
        "p99_slowdown",
        "small_median",
        "medium_median",
        "large_median",
    ]);
    let mut medians = Vec::new();
    for mode in modes {
        let report = FctScenario::builder()
            .requests(requests)
            .seed(42)
            .mode(mode)
            .build()
            .run();
        let median = report.median_slowdown().unwrap_or(f64::NAN);
        medians.push((mode.label(), median));
        println!(
            "{} | {} | {} | {} | {} | {} | {} | {}",
            mode.label(),
            report.completed,
            fmt(median),
            fmt(report.slowdown_quantile(0.9).unwrap_or(f64::NAN)),
            fmt(report.slowdown_quantile(0.99).unwrap_or(f64::NAN)),
            fmt(class_median(&report, SizeClass::Small)),
            fmt(class_median(&report, SizeClass::Medium)),
            fmt(class_median(&report, SizeClass::Large)),
        );
    }

    println!();
    let get = |label: &str| {
        medians
            .iter()
            .find(|(l, _)| l == label)
            .map(|(_, m)| *m)
            .unwrap_or(f64::NAN)
    };
    let quo = get("status-quo");
    let sfq = get("bundler-sfq");
    let innet = get("in-network");
    println!(
        "Bundler(SFQ) vs Status Quo median reduction: {}% (paper: 28%)",
        fmt((quo - sfq) / quo * 100.0)
    );
    println!(
        "In-Network vs Bundler(SFQ) additional reduction: {}% (paper: ~15%)",
        fmt((sfq - innet) / sfq * 100.0)
    );
}

/// Figure 14: the choice of congestion-control algorithm at the sendbox.
///
/// Copa and Nimbus BasicDelay (delay-controlling) provide similar benefits;
/// BBR performs slightly worse than the status quo because it keeps a larger
/// in-network queue.
pub fn fig14_sendbox_cc(scale: Scale) {
    let requests = scale.pick(2_000, 15_000);
    println!("# Figure 14: sendbox congestion-control algorithm ({requests} requests)\n");

    header(&[
        "configuration",
        "median_slowdown",
        "p99_slowdown",
        "small_median",
        "large_median",
    ]);
    let modes = [
        SendboxMode::StatusQuo,
        SendboxMode::BundlerAlg(BundleAlg::Copa),
        SendboxMode::BundlerAlg(BundleAlg::NimbusBasicDelay),
        SendboxMode::BundlerAlg(BundleAlg::Bbr),
    ];
    for mode in modes {
        let report = FctScenario::builder()
            .requests(requests)
            .seed(14)
            .mode(mode)
            .build()
            .run();
        println!(
            "{} | {} | {} | {} | {}",
            mode.label(),
            fmt(report.median_slowdown().unwrap_or(f64::NAN)),
            fmt(report.slowdown_quantile(0.99).unwrap_or(f64::NAN)),
            fmt(class_median(&report, SizeClass::Small)),
            fmt(class_median(&report, SizeClass::Large)),
        );
    }
    println!();
    println!(
        "paper: Copa ~= BasicDelay (both beat the status quo); BBR slightly worse than status quo."
    );
}

/// Figure 15: what an idealized TCP proxy would add.
///
/// §7.5 emulates connection termination at the sendbox by giving endhosts a
/// fixed 450-packet congestion window (slightly above the path BDP), so
/// medium and long flows skip window growth entirely. Short flows see no
/// change; medium flows benefit.
pub fn fig15_proxy(scale: Scale) {
    let requests = scale.pick(2_000, 15_000);
    println!("# Figure 15: idealized TCP proxy (fixed 450-packet endhost windows), {requests} requests\n");

    header(&[
        "configuration",
        "small_median",
        "medium_median",
        "large_median",
        "overall_median",
    ]);
    let configs: [(&str, EndhostAlg); 2] = [
        ("bundler-sfq (normal endhosts)", EndhostAlg::Cubic),
        (
            "bundler-sfq + idealized proxy",
            EndhostAlg::FixedWindow(450),
        ),
    ];
    for (label, alg) in configs {
        let report = FctScenario::builder()
            .requests(requests)
            .seed(15)
            .mode(SendboxMode::BundlerSfq)
            .endhost_alg(alg)
            .build()
            .run();
        println!(
            "{label} | {} | {} | {} | {}",
            fmt(class_median(&report, SizeClass::Small)),
            fmt(class_median(&report, SizeClass::Medium)),
            fmt(class_median(&report, SizeClass::Large)),
            fmt(report.median_slowdown().unwrap_or(f64::NAN)),
        );
    }
    println!();
    println!("paper: termination does not help short flows but speeds up medium-to-long flows (no more window growth).");
}

/// §7.4 ("Endhost congestion control"): Bundler's benefits persist when the
/// endhosts run Reno or BBR instead of Cubic.
pub fn tab_endhost_cc(scale: Scale) {
    let requests = scale.pick(1_500, 10_000);
    println!("# Section 7.4 table: endhost congestion-control algorithm ({requests} requests)\n");

    header(&[
        "endhost_cc",
        "statusquo_median",
        "bundler_sfq_median",
        "reduction_%",
    ]);
    for alg in [EndhostAlg::Cubic, EndhostAlg::NewReno, EndhostAlg::Bbr] {
        let run = |mode| {
            FctScenario::builder()
                .requests(requests)
                .seed(74)
                .mode(mode)
                .endhost_alg(alg)
                .background_bulk_flows(1)
                .build()
                .run()
                .median_slowdown()
                .unwrap_or(f64::NAN)
        };
        let quo = run(SendboxMode::StatusQuo);
        let bun = run(SendboxMode::BundlerSfq);
        println!(
            "{alg} | {} | {} | {}",
            fmt(quo),
            fmt(bun),
            fmt((quo - bun) / quo * 100.0)
        );
    }
    println!();
    println!("paper: with BBR endhosts Bundler still achieves 58% lower median FCTs than the (BBR) status quo.");
}

/// §7.2 ("Using Bundler for other policies"): FQ-CoDel and strict priority
/// at the sendbox.
///
/// The paper reports that with FQ-CoDel Bundler achieves 97 % lower median
/// end-to-end RTTs (89 % at the 99th percentile), and that strictly
/// prioritizing one traffic class gives it 65 % lower median FCTs. The
/// table cannot show the second claim: an FCT record carries no traffic
/// class, so both columns are over all completed bundled requests.
pub fn tab_other_policies(scale: Scale) {
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
