//! Figures 10–13: Bundler under cross traffic and competing bundles.
//!
//! * [`CrossTrafficTimeline`] (Figure 10): three 60-second phases — no cross
//!   traffic, buffer-filling cross traffic, non-buffer-filling cross traffic
//!   — showing the mode switches and their effect on short-flow FCTs.
//! * [`ShortCrossSweep`] (Figure 11): finite-size cross traffic whose
//!   offered load sweeps from 6 to 42 Mbit/s against a fixed 48 Mbit/s
//!   bundle.
//! * [`ElasticCrossSweep`] (Figure 12): 10–50 persistent elastic cross flows
//!   against a bundle of 20 backlogged flows; measures the bundle's
//!   throughput loss.
//! * [`CompetingBundles`] (Figure 13): two bundles sharing the bottleneck at
//!   1:1 and 2:1 offered-load ratios.

use bundler_core::BundlerConfig;
use bundler_sim::edge::BundleMode;
use bundler_sim::sim::{Simulation, SimulationConfig};
use bundler_sim::stats::{quantile, SimReport};
use bundler_sim::workload::{FlowSizeDist, FlowSpec, PoissonArrivals};
use bundler_types::{Duration, Nanos, Rate};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::{fmt, header, Scale};

/// Poisson request arrivals at `load` from `from` until `until`, bundled
/// into `bundle` (direct if `None`), ids counting up from `first_id`.
/// Returns the specs and the next free id.
pub(super) fn request_workload(
    rng: &mut SmallRng,
    dist: &FlowSizeDist,
    load: Rate,
    from: Duration,
    until: Duration,
    bundle: Option<usize>,
    first_id: u64,
) -> (Vec<FlowSpec>, u64) {
    let arrivals = PoissonArrivals::for_load(load, dist);
    let mut specs = Vec::new();
    let mut t = Nanos::ZERO + from;
    let mut id = first_id;
    while t < Nanos::ZERO + until {
        t += arrivals.next_gap(rng);
        let size = dist.sample(rng);
        let spec = match bundle {
            Some(b) => FlowSpec::bundled(id, size, t, b),
            None => FlowSpec::direct(id, size, t),
        };
        specs.push(spec);
        id += 1;
    }
    (specs, id)
}

/// Figure 10: the three-phase cross-traffic timeline.
#[derive(Debug, Clone, Copy)]
pub struct CrossTrafficTimeline {
    /// Bottleneck rate (paper: 96 Mbit/s).
    pub bottleneck: Rate,
    /// Base RTT (paper: 50 ms).
    pub rtt: Duration,
    /// Length of each of the three phases (paper: 60 s).
    pub phase: Duration,
    /// Offered load of the bundle's request traffic.
    pub bundle_load: Rate,
    /// Offered load of the phase-3 (non-buffer-filling) cross traffic.
    pub inelastic_cross_load: Rate,
    /// Random seed.
    pub seed: u64,
}

impl Default for CrossTrafficTimeline {
    fn default() -> Self {
        CrossTrafficTimeline {
            bottleneck: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            phase: Duration::from_secs(60),
            bundle_load: Rate::from_mbps(60),
            inelastic_cross_load: Rate::from_mbps(24),
            seed: 1,
        }
    }
}

/// Result of the timeline experiment.
#[derive(Debug, Clone)]
pub struct TimelineResult {
    /// The raw simulation report.
    pub report: SimReport,
    /// Phase boundaries: (end of phase 1, end of phase 2, end of phase 3).
    pub phase_ends: (Nanos, Nanos, Nanos),
}

impl CrossTrafficTimeline {
    /// Runs the three-phase experiment with Bundler (SFQ + Copa) deployed.
    pub fn run(&self) -> TimelineResult {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let dist = FlowSizeDist::caida_like();
        let p1_end = self.phase;
        let p2_end = self.phase * 2;
        let p3_end = self.phase * 3;

        // Bundle request traffic runs for all three phases.
        let (mut specs, mut next_id) = request_workload(
            &mut rng,
            &dist,
            self.bundle_load,
            Duration::ZERO,
            p3_end,
            Some(0),
            0,
        );
        // Phase 2: one buffer-filling cross flow. A flow cannot be stopped
        // mid-simulation, so instead it is given a finite size (below)
        // that ends it with phase 2.
        specs.push(FlowSpec::direct(
            next_id,
            FlowSpec::BACKLOGGED,
            Nanos::ZERO + p1_end,
        ));
        next_id += 1;
        // Phase 3: request-driven cross traffic starts.
        let (cross_specs, _) = request_workload(
            &mut rng,
            &dist,
            self.inelastic_cross_load,
            p2_end,
            p3_end,
            None,
            next_id,
        );
        specs.extend(cross_specs);

        // The phase-2 flow's size: 0.6 × line rate × one phase, roughly
        // what it moves at its share of the bottleneck during phase 2.
        let phase2_bytes =
            (self.bottleneck.as_bytes_per_sec() * self.phase.as_secs_f64() * 0.6) as u64;
        for s in specs.iter_mut() {
            if s.is_backlogged() {
                s.size_bytes = phase2_bytes;
            }
        }

        let config = SimulationConfig {
            duration: p3_end + Duration::from_secs(5),
            bottleneck_rate: self.bottleneck,
            rtt: self.rtt,
            bundles: vec![BundleMode::Bundler(BundlerConfig::default())],
            sample_interval: Duration::from_millis(100),
            ..Default::default()
        };
        let report = Simulation::new(config, specs).run();
        TimelineResult {
            report,
            phase_ends: (
                Nanos::ZERO + p1_end,
                Nanos::ZERO + p2_end,
                Nanos::ZERO + p3_end,
            ),
        }
    }
}

impl TimelineResult {
    /// Mode names that were active at any point during `[from, to)`.
    pub fn modes_during(&self, from: Nanos, to: Nanos) -> Vec<String> {
        let timeline = &self.report.mode_timeline[0];
        let mut active = Vec::new();
        let mut current = "delay-control".to_string();
        for &(t, ref mode) in timeline {
            if t < from {
                current = mode.clone();
            } else if t < to {
                if active.is_empty() {
                    active.push(current.clone());
                }
                active.push(mode.clone());
            }
        }
        if active.is_empty() {
            active.push(current);
        }
        active.dedup();
        active
    }

    /// Median FCT (ms) of short (≤10 KB) bundled flows completing in the
    /// given window.
    pub fn short_flow_median_fct_ms(&self, from: Nanos, to: Nanos) -> Option<f64> {
        let mut fcts: Vec<f64> = self
            .report
            .fcts
            .iter()
            .filter(|r| {
                r.bundle == Some(0) && r.size_bytes <= 10_000 && r.start >= from && r.start < to
            })
            .map(|r| r.fct.as_millis_f64())
            .collect();
        quantile(&mut fcts, 0.5)
    }
}

/// Figure 11: short-flow cross traffic of increasing offered load.
#[derive(Debug, Clone, Copy)]
pub struct ShortCrossSweep {
    /// Bottleneck rate.
    pub bottleneck: Rate,
    /// Base RTT.
    pub rtt: Duration,
    /// The bundle's fixed offered load (paper: 48 Mbit/s).
    pub bundle_load: Rate,
    /// Run length per sweep point.
    pub duration: Duration,
    /// Random seed.
    pub seed: u64,
    /// Whether Bundler is deployed (true) or status quo (false).
    pub with_bundler: bool,
}

impl Default for ShortCrossSweep {
    fn default() -> Self {
        ShortCrossSweep {
            bottleneck: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            bundle_load: Rate::from_mbps(48),
            duration: Duration::from_secs(40),
            seed: 3,
            with_bundler: true,
        }
    }
}

impl ShortCrossSweep {
    /// Runs one sweep point at the given cross-traffic offered load and
    /// returns the median slowdown of the bundle's flows.
    pub fn run_point(&self, cross_load: Rate) -> (f64, SimReport) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let dist = FlowSizeDist::caida_like();
        let cross_dist = FlowSizeDist::short_flows_only();
        let (mut specs, next_id) = request_workload(
            &mut rng,
            &dist,
            self.bundle_load,
            Duration::ZERO,
            self.duration,
            Some(0),
            0,
        );
        let (cross, _) = request_workload(
            &mut rng,
            &cross_dist,
            cross_load,
            Duration::ZERO,
            self.duration,
            None,
            next_id,
        );
        specs.extend(cross);
        let mode = if self.with_bundler {
            BundleMode::Bundler(BundlerConfig::default())
        } else {
            BundleMode::StatusQuo
        };
        let config = SimulationConfig {
            duration: self.duration + Duration::from_secs(15),
            bottleneck_rate: self.bottleneck,
            rtt: self.rtt,
            bundles: vec![mode],
            ..Default::default()
        };
        let report = Simulation::new(config, specs).run();
        (report.median_slowdown().unwrap_or(f64::NAN), report)
    }
}

/// Figure 12: persistent elastic cross flows against a bundle of backlogged
/// flows.
#[derive(Debug, Clone, Copy)]
pub struct ElasticCrossSweep {
    /// Bottleneck rate.
    pub bottleneck: Rate,
    /// Base RTT.
    pub rtt: Duration,
    /// Number of backlogged flows inside the bundle (paper: 20).
    pub bundle_flows: usize,
    /// Run length per point.
    pub duration: Duration,
}

impl Default for ElasticCrossSweep {
    fn default() -> Self {
        ElasticCrossSweep {
            bottleneck: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            bundle_flows: 20,
            duration: Duration::from_secs(40),
        }
    }
}

impl ElasticCrossSweep {
    /// Runs one point with `cross_flows` competing backlogged flows and
    /// returns `(bundle throughput, fair share)` in Mbit/s, measured after
    /// warm-up. `with_bundler` selects Bundler vs. status quo.
    pub fn run_point(&self, cross_flows: usize, with_bundler: bool) -> (f64, f64) {
        let mut specs = Vec::new();
        for i in 0..self.bundle_flows as u64 {
            specs.push(FlowSpec::bundled(
                i,
                FlowSpec::BACKLOGGED,
                Nanos::from_millis(i * 10),
                0,
            ));
        }
        for j in 0..cross_flows as u64 {
            specs.push(FlowSpec::direct(
                1000 + j,
                FlowSpec::BACKLOGGED,
                Nanos::from_millis(j * 10),
            ));
        }
        let mode = if with_bundler {
            BundleMode::Bundler(BundlerConfig::default())
        } else {
            BundleMode::StatusQuo
        };
        let config = SimulationConfig {
            duration: self.duration,
            bottleneck_rate: self.bottleneck,
            rtt: self.rtt,
            bundles: vec![mode],
            ..Default::default()
        };
        let report = Simulation::new(config, specs).run();
        let warmup = Nanos::ZERO + Duration::from_secs(10);
        let tput = report.bundle_throughput_mbps[0]
            .mean_between(warmup, Nanos::MAX)
            .unwrap_or(0.0);
        let fair_share = self.bottleneck.as_mbps_f64() * self.bundle_flows as f64
            / (self.bundle_flows + cross_flows) as f64;
        (tput, fair_share)
    }
}

/// Figure 13: two bundles competing at the same bottleneck.
#[derive(Debug, Clone, Copy)]
pub struct CompetingBundles {
    /// Bottleneck rate.
    pub bottleneck: Rate,
    /// Base RTT.
    pub rtt: Duration,
    /// Aggregate offered load across both bundles (paper: 84 Mbit/s).
    pub total_load: Rate,
    /// Fraction of the load offered by bundle 0 (0.5 = "1:1", 2/3 = "2:1").
    pub bundle0_share: f64,
    /// Run length.
    pub duration: Duration,
    /// Random seed.
    pub seed: u64,
}

impl Default for CompetingBundles {
    fn default() -> Self {
        CompetingBundles {
            bottleneck: Rate::from_mbps(96),
            rtt: Duration::from_millis(50),
            total_load: Rate::from_mbps(84),
            bundle0_share: 0.5,
            duration: Duration::from_secs(40),
            seed: 5,
        }
    }
}

/// Per-bundle median slowdowns from a competing-bundles run.
#[derive(Debug, Clone, Copy)]
pub struct CompetingResult {
    /// Median slowdown of bundle 0's requests.
    pub bundle0_median_slowdown: f64,
    /// Median slowdown of bundle 1's requests.
    pub bundle1_median_slowdown: f64,
}

impl CompetingBundles {
    /// Runs the experiment; both bundles get a backlogged flow plus request
    /// traffic, mirroring the paper's setup.
    pub fn run(&self, with_bundler: bool) -> CompetingResult {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let dist = FlowSizeDist::caida_like();
        let load0 = self.total_load.mul_f64(self.bundle0_share);
        let load1 = self.total_load.saturating_sub(load0);
        let (mut specs, next) = request_workload(
            &mut rng,
            &dist,
            load0,
            Duration::ZERO,
            self.duration,
            Some(0),
            0,
        );
        let (s1, next2) = request_workload(
            &mut rng,
            &dist,
            load1,
            Duration::ZERO,
            self.duration,
            Some(1),
            next,
        );
        specs.extend(s1);
        // A backlogged flow per bundle, as in the paper.
        specs.push(FlowSpec::bundled(
            next2,
            FlowSpec::BACKLOGGED,
            Nanos::ZERO,
            0,
        ));
        specs.push(FlowSpec::bundled(
            next2 + 1,
            FlowSpec::BACKLOGGED,
            Nanos::ZERO,
            1,
        ));

        let mode = |_: usize| {
            if with_bundler {
                BundleMode::Bundler(BundlerConfig::default())
            } else {
                BundleMode::StatusQuo
            }
        };
        let config = SimulationConfig {
            duration: self.duration + Duration::from_secs(15),
            bottleneck_rate: self.bottleneck,
            rtt: self.rtt,
            bundles: vec![mode(0), mode(1)],
            ..Default::default()
        };
        let report = Simulation::new(config, specs).run();
        let median_of = |bundle: usize| {
            let mut s: Vec<f64> = report
                .fcts
                .iter()
                .filter(|r| r.bundle == Some(bundle))
                .map(|r| r.slowdown())
                .collect();
            quantile(&mut s, 0.5).unwrap_or(f64::NAN)
        };
        CompetingResult {
            bundle0_median_slowdown: median_of(0),
            bundle1_median_slowdown: median_of(1),
        }
    }
}

/// Figure 10: Bundler's behaviour as cross traffic comes and goes.
///
/// Three equal phases: no cross traffic, buffer-filling cross traffic,
/// non-buffer-filling cross traffic. Bundler should provide scheduling
/// benefits in phases 1 and 3 and detect the buffer-filling competitor in
/// phase 2, letting traffic pass until it leaves.
pub fn fig10_cross_traffic_timeline(scale: Scale) {
    let phase = scale.pick(Duration::from_secs(20), Duration::from_secs(60));
    let timeline = CrossTrafficTimeline {
        phase,
        bottleneck: Rate::from_mbps(96),
        bundle_load: Rate::from_mbps(60),
        inelastic_cross_load: Rate::from_mbps(24),
        ..Default::default()
    };
    println!("# Figure 10: three-phase cross-traffic timeline (phase length {phase})\n");
    let result = timeline.run();
    let (p1, p2, p3) = result.phase_ends;

    header(&[
        "phase",
        "window",
        "modes_active",
        "short_flow_median_fct_ms",
    ]);
    let phases = [
        ("1: no cross traffic", Nanos::ZERO, p1),
        ("2: buffer-filling", p1, p2),
        ("3: non-buffer-filling", p2, p3),
    ];
    for (label, from, to) in phases {
        let modes = result.modes_during(from, to).join(",");
        let fct = result
            .short_flow_median_fct_ms(from, to)
            .unwrap_or(f64::NAN);
        println!(
            "{} | {:.0}-{:.0}s | {} | {}",
            label,
            from.as_secs_f64(),
            to.as_secs_f64(),
            modes,
            fmt(fct)
        );
    }

    println!();
    println!("mode transitions:");
    for (t, mode) in &result.report.mode_timeline[0] {
        println!("  {:.1}s -> {}", t.as_secs_f64(), mode);
    }
    println!();
    println!("bundle throughput (Mbit/s) per phase:");
    for (label, from, to) in phases {
        let tput = result.report.bundle_throughput_mbps[0]
            .mean_between(from, to)
            .unwrap_or(0.0);
        let cross = result
            .report
            .cross_throughput_mbps
            .mean_between(from, to)
            .unwrap_or(0.0);
        println!("  {label}: bundle {} / cross {}", fmt(tput), fmt(cross));
    }
}

/// Figure 11: cross traffic made of short-lived flows.
///
/// The bundle offers a fixed 48 Mbit/s; the short-flow cross traffic's
/// offered load sweeps from 6 to 42 Mbit/s. The paper shows that the status
/// quo's FCTs rise steadily with cross load while Bundler keeps the
/// bundle's flows fast.
pub fn fig11_short_cross_sweep(scale: Scale) {
    let duration = scale.pick(Duration::from_secs(20), Duration::from_secs(60));
    println!("# Figure 11: short-flow cross traffic sweep (bundle fixed at 48 Mbit/s)\n");

    header(&[
        "cross_load_mbps",
        "statusquo_median_slowdown",
        "bundler_median_slowdown",
    ]);
    for cross_mbps in [6u64, 12, 18, 24, 30, 36, 42] {
        let run = |with_bundler| {
            let sweep = ShortCrossSweep {
                with_bundler,
                duration,
                ..Default::default()
            };
            sweep.run_point(Rate::from_mbps(cross_mbps)).0
        };
        let (quo, bun) = (run(false), run(true));
        println!("{cross_mbps} | {} | {}", fmt(quo), fmt(bun));
    }
    println!();
    println!("paper: Status Quo FCTs grow with cross load; Bundler's stay low (both Copa and Nimbus variants).");
}

/// Figure 12: persistent elastic (buffer-filling) cross traffic.
///
/// 20 backlogged bundled flows compete with 10–50 backlogged cross flows.
/// The paper reports the bundle's throughput is 12 %–22 % below its fair
/// share because Bundler holds back a small probing queue while in
/// pass-through mode.
pub fn fig12_elastic_cross(scale: Scale) {
    let duration = scale.pick(Duration::from_secs(25), Duration::from_secs(60));
    let sweep = ElasticCrossSweep {
        duration,
        ..Default::default()
    };
    println!("# Figure 12: persistent elastic cross flows vs a 20-flow bundle\n");

    header(&[
        "cross_flows",
        "fair_share_mbps",
        "statusquo_bundle_mbps",
        "bundler_bundle_mbps",
        "bundler_deficit_vs_fair_%",
    ]);
    for cross in [10usize, 20, 30, 40, 50] {
        let (quo_tput, fair) = sweep.run_point(cross, false);
        let (bun_tput, _) = sweep.run_point(cross, true);
        let deficit = (fair - bun_tput) / fair * 100.0;
        println!(
            "{cross} | {} | {} | {} | {}",
            fmt(fair),
            fmt(quo_tput),
            fmt(bun_tput),
            fmt(deficit)
        );
    }
    println!();
    println!(
        "paper: bundle throughput 12% (10 cross flows) to 22% (50 cross flows) below fair share."
    );
}

/// Figure 13: two bundles competing at the same bottleneck.
///
/// The aggregate offered load is 84 Mbit/s, split 1:1 or 2:1 across two
/// bundles. The paper shows both bundles improve their median FCTs relative
/// to the status-quo baseline regardless of the split.
pub fn fig13_competing_bundles(scale: Scale) {
    let duration = scale.pick(Duration::from_secs(20), Duration::from_secs(60));
    println!("# Figure 13: competing bundles (aggregate 84 Mbit/s offered)\n");

    header(&[
        "split",
        "bundle0_median_slowdown",
        "bundle1_median_slowdown",
        "statusquo_b0",
        "statusquo_b1",
    ]);
    for (label, share) in [("1:1", 0.5f64), ("2:1", 2.0 / 3.0)] {
        let scenario = CompetingBundles {
            bundle0_share: share,
            duration,
            ..Default::default()
        };
        let with = scenario.run(true);
        let without = scenario.run(false);
        println!(
            "{label} | {} | {} | {} | {}",
            fmt(with.bundle0_median_slowdown),
            fmt(with.bundle1_median_slowdown),
            fmt(without.bundle0_median_slowdown),
            fmt(without.bundle1_median_slowdown),
        );
    }
    println!();
    println!(
        "paper: each bundle observes improved median FCT compared to the status-quo baseline."
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_detects_buffer_filling_phase() {
        // Scaled-down Figure 10: 20-second phases.
        let timeline = CrossTrafficTimeline {
            phase: Duration::from_secs(20),
            bundle_load: Rate::from_mbps(40),
            bottleneck: Rate::from_mbps(48),
            inelastic_cross_load: Rate::from_mbps(10),
            ..Default::default()
        }
        .run();
        let (p1, p2, _p3) = timeline.phase_ends;
        // During phase 1 (alone) Bundler stays in delay control.
        let phase1_modes = timeline.modes_during(Nanos::ZERO + Duration::from_secs(5), p1);
        assert!(
            phase1_modes.iter().all(|m| m == "delay-control"),
            "phase 1 should be pure delay control, got {phase1_modes:?}"
        );
        // During phase 2 (buffer-filling competitor) it must switch to
        // pass-through at some point.
        let phase2_modes = timeline.modes_during(p1, p2);
        assert!(
            phase2_modes.iter().any(|m| m == "pass-through"),
            "phase 2 should trigger pass-through, got {phase2_modes:?}"
        );
        // And it must come back to delay control after the competitor
        // leaves (by the end of phase 3).
        let end_modes = timeline.modes_during(
            timeline.phase_ends.2 - Duration::from_secs(5),
            timeline.phase_ends.2,
        );
        assert!(
            end_modes
                .last()
                .map(|m| m == "delay-control")
                .unwrap_or(false),
            "should return to delay control by the end, got {end_modes:?}"
        );
    }

    #[test]
    fn elastic_cross_costs_some_throughput_but_not_collapse() {
        let sweep = ElasticCrossSweep {
            bottleneck: Rate::from_mbps(48),
            bundle_flows: 5,
            duration: Duration::from_secs(25),
            ..Default::default()
        };
        let (tput, fair) = sweep.run_point(5, true);
        // The paper reports 12–22 % below fair share; we only require the
        // qualitative property that throughput is in the right ballpark:
        // clearly non-zero, and not more than the fair share by much.
        assert!(
            tput > 0.4 * fair,
            "bundle throughput {tput:.1} collapsed (fair {fair:.1})"
        );
        assert!(
            tput < 1.3 * fair,
            "bundle throughput {tput:.1} implausibly high (fair {fair:.1})"
        );
    }

    #[test]
    fn competing_bundles_both_make_progress() {
        let result = CompetingBundles {
            total_load: Rate::from_mbps(40),
            bottleneck: Rate::from_mbps(48),
            duration: Duration::from_secs(20),
            ..Default::default()
        }
        .run(true);
        assert!(result.bundle0_median_slowdown.is_finite());
        assert!(result.bundle1_median_slowdown.is_finite());
        assert!(result.bundle0_median_slowdown >= 1.0);
        assert!(result.bundle1_median_slowdown >= 1.0);
    }
}
