//! Workload generation: heavy-tailed request sizes and Poisson arrivals.
//!
//! §7.1 of the paper: "A many-threaded client generates requests from a
//! request size CDF drawn from an Internet core router and assigns them to
//! one of 200 server processes. The workload is heavy-tailed: 97.6 % of
//! requests are 10 KB or shorter, and the largest 0.002 % of requests are
//! between 5 MB and 100 MB." The CAIDA trace itself is not redistributable,
//! so [`FlowSizeDist::caida_like`] is a synthetic empirical CDF with the
//! same reported shape; DESIGN.md records this substitution.

use std::sync::{LazyLock, OnceLock};

use bundler_cc::EndhostAlg;
use bundler_types::{Duration, FlowId, Nanos, Rate, TrafficClass};
use rand::rngs::SmallRng;
use rand::Rng;

/// Where a flow's packets enter the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// The flow belongs to the bundle with the given index and traverses
    /// that bundle's sendbox.
    Bundle(usize),
    /// The flow bypasses all sendboxes (cross traffic injected directly at
    /// the bottleneck).
    Direct,
}

serde::layout!(enum Origin { 0 => Bundle(b), 1 => Direct });

/// Specification of one application flow, produced by the workload
/// generator and consumed by the simulator when its arrival event fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Dense flow identifier.
    pub id: FlowId,
    /// Bytes the sender must deliver. `u64::MAX` means "backlogged": the
    /// flow never finishes (used for iperf-style bulk flows).
    pub size_bytes: u64,
    /// Arrival (start) time.
    pub start: Nanos,
    /// Which path packets enter the network through.
    pub origin: Origin,
    /// Endhost congestion-control algorithm.
    pub alg: EndhostAlg,
    /// Operator traffic class (used by priority scheduling experiments).
    pub class: TrafficClass,
    /// True if this is a closed-loop request/response "ping" flow (40-byte
    /// request, 40-byte response) rather than a TCP transfer.
    pub is_ping: bool,
}

impl FlowSpec {
    /// A backlogged bulk-transfer flow that never completes.
    pub const BACKLOGGED: u64 = u64::MAX;

    /// Convenience constructor for a bundled TCP flow.
    pub fn bundled(id: u64, size_bytes: u64, start: Nanos, bundle: usize) -> Self {
        FlowSpec {
            id: FlowId(id),
            size_bytes,
            start,
            origin: Origin::Bundle(bundle),
            alg: EndhostAlg::Cubic,
            class: TrafficClass::BEST_EFFORT,
            is_ping: false,
        }
    }

    /// Convenience constructor for un-bundled cross traffic.
    pub fn direct(id: u64, size_bytes: u64, start: Nanos) -> Self {
        FlowSpec {
            id: FlowId(id),
            size_bytes,
            start,
            origin: Origin::Direct,
            alg: EndhostAlg::Cubic,
            class: TrafficClass::BEST_EFFORT,
            is_ping: false,
        }
    }

    /// Sets the endhost algorithm, builder-style.
    pub fn with_alg(mut self, alg: EndhostAlg) -> Self {
        self.alg = alg;
        self
    }

    /// Sets the traffic class, builder-style.
    pub fn with_class(mut self, class: TrafficClass) -> Self {
        self.class = class;
        self
    }

    /// Marks the flow as a closed-loop ping flow, builder-style.
    pub fn as_ping(mut self) -> Self {
        self.is_ping = true;
        self
    }

    /// True if the flow never completes.
    pub fn is_backlogged(&self) -> bool {
        self.size_bytes == Self::BACKLOGGED
    }
}

/// An empirical flow-size distribution: a piecewise-constant inverse CDF.
///
/// The built-in tables ([`FlowSizeDist::caida_like`],
/// [`FlowSizeDist::short_flows_only`]) are integrated once per process: each
/// call returns a clone of one static table whose mean is already known. A
/// table from [`FlowSizeDist::new`] integrates its mean on first use.
#[derive(Debug, Clone)]
pub struct FlowSizeDist {
    /// (size_bytes, cumulative_probability), strictly increasing in both.
    points: Vec<(u64, f64)>,
    /// [`FlowSizeDist::mean_bytes`], integrated on first use: `points`
    /// never change, and a clone carries the value.
    mean: OnceLock<f64>,
}

impl FlowSizeDist {
    /// Builds a distribution from `(size, cumulative probability)` points.
    /// The last point must have probability 1.0.
    pub fn new(points: Vec<(u64, f64)>) -> Result<Self, String> {
        if points.is_empty() {
            return Err("empty distribution".into());
        }
        let mut prev_p = 0.0;
        let mut prev_s = 0;
        for &(s, p) in &points {
            // A NaN probability compares false with everything, so
            // `p <= prev_p` alone would let it through.
            if p.is_nan() || p <= prev_p || s <= prev_s {
                return Err(format!(
                    "points must be strictly increasing, got ({s}, {p})"
                ));
            }
            prev_p = p;
            prev_s = s;
        }
        if (points.last().unwrap().1 - 1.0).abs() > 1e-9 {
            return Err("last point must have cumulative probability 1.0".into());
        }
        Ok(FlowSizeDist {
            points,
            mean: OnceLock::new(),
        })
    }

    /// The synthetic CAIDA-like request-size distribution described in §7.1:
    /// heavily skewed towards small requests with a tail of multi-megabyte
    /// transfers up to 100 MB. A clone of one table per process, whose mean
    /// is integrated once, on first use.
    pub fn caida_like() -> Self {
        static TABLE: LazyLock<FlowSizeDist> = LazyLock::new(|| {
            FlowSizeDist::built_in(vec![
                (150, 0.20),
                (300, 0.40),
                (600, 0.55),
                (1_200, 0.68),
                (2_500, 0.80),
                (5_000, 0.90),
                (7_500, 0.95),
                (10_000, 0.976),
                (30_000, 0.990),
                (100_000, 0.9965),
                (300_000, 0.99875),
                (1_000_000, 0.99960),
                (5_000_000, 0.99998),
                (20_000_000, 0.999993),
                (50_000_000, 0.999998),
                (100_000_000, 1.0),
            ])
        });
        TABLE.clone()
    }

    /// A distribution of exclusively short flows (≤ a few MB), used for the
    /// "mix of flow sizes" cross-traffic experiment (Figure 11). Built once
    /// per process, like [`FlowSizeDist::caida_like`].
    pub fn short_flows_only() -> Self {
        static TABLE: LazyLock<FlowSizeDist> = LazyLock::new(|| {
            FlowSizeDist::built_in(vec![
                (300, 0.35),
                (1_000, 0.60),
                (5_000, 0.85),
                (10_000, 0.95),
                (100_000, 0.99),
                (1_000_000, 0.999),
                (3_000_000, 1.0),
            ])
        });
        TABLE.clone()
    }

    /// A built-in table with its mean already integrated, so every clone
    /// carries the value.
    fn built_in(points: Vec<(u64, f64)>) -> Self {
        let dist = FlowSizeDist::new(points).expect("static distribution is valid");
        dist.mean_bytes();
        dist
    }

    /// Samples one flow size.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        let u: f64 = rng.gen();
        self.quantile(u)
    }

    /// The size at a given quantile (inverse CDF with interpolation in log
    /// space within each segment).
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let mut prev_p = 0.0;
        let mut prev_s = self.points[0].0.min(64) as f64;
        for &(s, p) in &self.points {
            if u <= p {
                let frac = if p - prev_p < 1e-12 {
                    0.0
                } else {
                    (u - prev_p) / (p - prev_p)
                };
                let lo = prev_s.max(1.0).ln();
                let hi = (s as f64).ln();
                return (lo + frac * (hi - lo)).exp().round().max(1.0) as u64;
            }
            prev_p = p;
            prev_s = s as f64;
        }
        self.points.last().unwrap().0
    }

    /// Mean flow size, computed by numerically integrating the inverse CDF
    /// (once per distribution; clones made afterwards carry the value).
    pub fn mean_bytes(&self) -> f64 {
        *self.mean.get_or_init(|| {
            let steps = 100_000;
            let mut acc = 0.0;
            for i in 0..steps {
                let u = (i as f64 + 0.5) / steps as f64;
                acc += self.quantile(u) as f64;
            }
            acc / steps as f64
        })
    }
}

/// Generates Poisson flow arrivals at a target offered load.
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    /// Mean inter-arrival time.
    mean_gap: Duration,
}

impl PoissonArrivals {
    /// Creates a generator whose arrivals, with flow sizes drawn from
    /// `dist`, offer an average of `offered_load` to the network.
    pub fn for_load(offered_load: Rate, dist: &FlowSizeDist) -> Self {
        let mean_size_bits = dist.mean_bytes() * 8.0;
        let arrivals_per_sec = offered_load.as_bps() as f64 / mean_size_bits;
        PoissonArrivals {
            mean_gap: Duration::from_secs_f64(1.0 / arrivals_per_sec.max(1e-9)),
        }
    }

    /// Mean gap between arrivals.
    pub fn mean_gap(&self) -> Duration {
        self.mean_gap
    }

    /// Samples the gap to the next arrival (exponential distribution).
    pub fn next_gap(&self, rng: &mut SmallRng) -> Duration {
        let u: f64 = rng.gen_range(1e-12..1.0);
        Duration::from_secs_f64(-u.ln() * self.mean_gap.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn caida_like_matches_reported_shape() {
        let d = FlowSizeDist::caida_like();
        // 97.6 % of requests are 10 KB or shorter.
        assert_eq!(d.quantile(0.976), 10_000);
        assert!(d.quantile(0.9761) > 10_000);
        // The largest requests reach 100 MB.
        assert_eq!(d.quantile(1.0), 100_000_000);
        // ...but the 99.99th percentile is still in the low megabytes.
        assert!(d.quantile(0.9996) <= 5_000_000);
    }

    #[test]
    fn sampling_follows_the_cdf() {
        let d = FlowSizeDist::caida_like();
        let mut rng = SmallRng::seed_from_u64(1);
        let n = 200_000;
        let mut small = 0usize;
        for _ in 0..n {
            if d.sample(&mut rng) <= 10_000 {
                small += 1;
            }
        }
        let frac = small as f64 / n as f64;
        assert!((frac - 0.976).abs() < 0.005, "10KB fraction {frac}");
    }

    #[test]
    fn mean_is_dominated_by_the_tail_but_finite() {
        let d = FlowSizeDist::caida_like();
        let mean = d.mean_bytes();
        // Small median, much larger mean: heavy tail.
        assert!(d.quantile(0.5) < 1_000);
        assert!(mean > 2_000.0, "mean {mean}");
        assert!(mean < 100_000.0, "mean {mean}");
    }

    #[test]
    fn built_in_means_are_pinned() {
        // Every generator's arrival rate divides by these: a moved bit
        // moves every workload built from the table.
        let caida = FlowSizeDist::caida_like();
        assert_eq!(caida.mean_bytes().to_bits(), 0x40b0_6b12_ee63_1f8a);
        let short = FlowSizeDist::short_flows_only();
        assert_eq!(short.mean_bytes().to_bits(), 0x40c0_7d9b_7026_02c9);
    }

    #[test]
    fn a_table_integrates_to_the_same_bits_however_it_is_built() {
        for make in [FlowSizeDist::caida_like, FlowSizeDist::short_flows_only] {
            let dist = make();
            let before = dist.clone();
            let mean = dist.mean_bytes().to_bits();
            let after = dist.clone();
            let custom = FlowSizeDist::new(dist.points.clone()).unwrap();
            assert_eq!(before.mean_bytes().to_bits(), mean);
            assert_eq!(after.mean_bytes().to_bits(), mean);
            assert_eq!(custom.mean_bytes().to_bits(), mean);
        }
    }

    #[test]
    fn invalid_distributions_rejected() {
        assert!(FlowSizeDist::new(vec![]).is_err());
        assert!(FlowSizeDist::new(vec![(100, 0.5), (50, 1.0)]).is_err());
        assert!(FlowSizeDist::new(vec![(100, 0.5), (200, 0.4)]).is_err());
        assert!(FlowSizeDist::new(vec![(100, 0.5), (200, 0.9)]).is_err());
        assert!(FlowSizeDist::new(vec![(100, 0.5), (200, f64::NAN), (300, 1.0)]).is_err());
        assert!(FlowSizeDist::new(vec![(100, f64::NAN)]).is_err());
        assert!(FlowSizeDist::new(vec![(100, f64::NAN), (200, 1.0)]).is_err());
    }

    #[test]
    fn poisson_load_matches_target() {
        let d = FlowSizeDist::caida_like();
        let load = Rate::from_mbps(84);
        let gen = PoissonArrivals::for_load(load, &d);
        let mut rng = SmallRng::seed_from_u64(7);
        // Simulate 200 000 arrivals and compute the offered load.
        let n = 200_000;
        let mut total_time = Duration::ZERO;
        let mut total_bytes = 0u64;
        for _ in 0..n {
            total_time += gen.next_gap(&mut rng);
            total_bytes += d.sample(&mut rng);
        }
        let offered = Rate::from_bytes_over(total_bytes, total_time);
        let ratio = offered.as_mbps_f64() / load.as_mbps_f64();
        assert!((0.7..1.3).contains(&ratio), "offered/target ratio {ratio}");
    }

    #[test]
    fn flow_spec_builders() {
        let f = FlowSpec::bundled(1, 1000, Nanos::ZERO, 0)
            .with_alg(EndhostAlg::NewReno)
            .with_class(TrafficClass::HIGH);
        assert_eq!(f.origin, Origin::Bundle(0));
        assert_eq!(f.alg, EndhostAlg::NewReno);
        assert!(!f.is_backlogged());
        let b = FlowSpec::direct(2, FlowSpec::BACKLOGGED, Nanos::ZERO);
        assert!(b.is_backlogged());
        let p = FlowSpec::bundled(3, 40, Nanos::ZERO, 0).as_ping();
        assert!(p.is_ping);
    }

    #[test]
    fn short_flow_distribution_has_no_giant_flows() {
        let d = FlowSizeDist::short_flows_only();
        assert!(d.quantile(1.0) <= 3_000_000);
        assert!(d.quantile(0.5) <= 5_000);
    }
}
