//! End-to-end measurement of one workload in one process, tracing off.
//!
//! The suite is simulated round after round until the time budget is spent.
//! `--seed` draws the order in which a round visits the worlds (and with it
//! the allocator and cache history each world meets); the worlds themselves
//! are fixed, so every simulated statistic repeats exactly for every seed.
//! Host time is reported per world as its *fastest* round: on the shared
//! 2-vCPU build host interference is one-sided, lasts 5–15 s at a time and
//! inflates medians by 12–19 % between runs, while the sum of per-world
//! minima repeats to a few percent (README.md, "Host noise"). The host also
//! changes speed for minutes at a time, which no estimator inside a run can
//! see; the reported seconds are therefore *calibrated*: scaled by what the
//! calibration loop cost in the same run (`CALIB_REF_NS`).

use std::time::Instant;

use crate::json::{obj, Value};
use crate::workloads::{self, Features, Outcome, Size, Workload};
use crate::{kernels, spec};

/// What one operation of the calibration loop (`kernels::calib_ns`) costs on
/// the build host at full speed, in ns. The end-to-end host times are
/// reported as `measured × CALIB_REF_NS / host.calib_ns of the same run`:
/// seconds at this reference speed. On the build host at full speed that is
/// the measured time; in one of its slow phases (calibration 1.307 ns for
/// 15 minutes, every workload 9–21 % slower) the calibrated times stay
/// within −7…+3 % of the full-speed ones. Any constant would do; this one
/// keeps the unit a second.
pub const CALIB_REF_NS: f64 = 1.1123;

/// SplitMix64: the benchmark's only source of randomness.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The order in which a round visits the suite's worlds: a Fisher–Yates
/// shuffle of `0..n` drawn from `seed`.
pub fn visit_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Everything measured for one workload in one process.
pub struct SuiteRun {
    pub workload: Workload,
    pub rounds: usize,
    /// Timed-region seconds, `[world][round]`.
    pub walls: Vec<Vec<f64>>,
    /// Set-up seconds, `[world][round]`.
    pub setups: Vec<Vec<f64>>,
    /// Each world's outcome (identical in every round, which is verified).
    pub outcomes: Vec<Outcome>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
    /// Fastest calibration-loop pass seen between rounds, ns per operation.
    pub calib_ns: f64,
}

/// Simulates the workload's suite for at least `seconds` (and two rounds).
/// Every job is a whole job — generate, construct, run, reduce, verify — and
/// its input is dropped before the next one starts, so every round samples
/// `setup_s` as well and `peak_rss_mb` holds one world at a time.
pub fn measure(workload: Workload, size: Size, seed: u64, seconds: f64) -> SuiteRun {
    let worlds = workload.worlds(size);
    let order = visit_order(worlds, seed);
    let features = Features::of(workload);
    let mut run = SuiteRun {
        workload,
        rounds: 0,
        walls: vec![Vec::new(); worlds],
        setups: vec![Vec::new(); worlds],
        outcomes: vec![Outcome::default(); worlds],
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        peak_rss_mb: f64::NAN,
        calib_ns: f64::INFINITY,
    };
    let start = Instant::now();
    while run.rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        for k in 0..worlds {
            // Rotate the start so no world always runs first after the
            // calibration pass.
            let index = order[(k + run.rounds) % worlds];
            let job = workloads::run_job(workload, size, index, features, None);
            let mut failures = job.outcome.failures.clone();
            if run.rounds > 0 && run.outcomes[index].digest != job.outcome.digest {
                failures.push(format!(
                    "digest {:016x} differs from the first round's {:016x}",
                    job.outcome.digest, run.outcomes[index].digest
                ));
            }
            run.attempted += 1;
            if !failures.is_empty() {
                run.failed += 1;
                run.failures.extend(
                    failures
                        .into_iter()
                        .map(|f| format!("{} world {index}: {f}", workload.name())),
                );
            }
            run.walls[index].push(job.phases.wall_s());
            run.setups[index].push(job.phases.setup_s());
            if run.rounds == 0 {
                // Only the traced pass reads a job's observability report.
                run.outcomes[index] = Outcome {
                    obs: None,
                    ..job.outcome
                };
            }
        }
        run.calib_ns = run.calib_ns.min(kernels::calib_ns(0.01));
        run.rounds += 1;
    }
    run.peak_rss_mb = peak_rss_mb();
    run
}

fn fastest(seconds: &[f64]) -> f64 {
    seconds.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `VmHWM` of this process in MB (NaN where `/proc` does not provide it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            line.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

impl SuiteRun {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn sum(&self, f: impl Fn(&Outcome) -> u64) -> u64 {
        self.outcomes.iter().map(f).sum()
    }

    pub fn events(&self) -> u64 {
        self.sum(|o| o.events)
    }

    pub fn packets(&self) -> u64 {
        self.sum(|o| o.packets)
    }

    /// Measured seconds into calibrated seconds.
    fn calibrated(&self, seconds: f64) -> f64 {
        seconds * CALIB_REF_NS / self.calib_ns
    }

    /// Host seconds to simulate the suite once: each world's fastest round.
    pub fn wall_s(&self) -> f64 {
        self.walls.iter().map(|w| fastest(w)).sum()
    }

    /// Host seconds to set the suite up once: each world's fastest round.
    /// (With two busy neighbours on the two vCPUs the sum of fastest rounds
    /// moves 15 %, the sum of medians 31–62 %.)
    pub fn setup_s(&self) -> f64 {
        self.setups.iter().map(|s| fastest(s)).sum()
    }

    /// Share of requests that finished before simulated time ran out, with
    /// failed jobs counted as finishing none: 1 − `fail_share`.
    pub fn done_share(&self) -> f64 {
        let ok = self.attempted.saturating_sub(self.failed) as f64 / self.attempted.max(1) as f64;
        self.sum(|o| o.completed) as f64 / self.sum(|o| o.requests).max(1) as f64 * ok
    }

    /// Quantile of FCT slowdown pooled over the suite's completed requests.
    pub fn slowdown_quantile(&self, q: f64) -> f64 {
        let mut pooled: Vec<f64> = self
            .outcomes
            .iter()
            .flat_map(|o| o.slowdowns.iter().copied())
            .collect();
        bundler_sim::stats::quantile(&mut pooled, q).unwrap_or(f64::NAN)
    }

    /// The suite digest: FNV-1a over the per-world digests in world order.
    pub fn digest(&self) -> u64 {
        let mut h = bundler_core::fnv::Fnv1a::new();
        for o in &self.outcomes {
            h.write(&o.digest.to_le_bytes());
        }
        h.finish()
    }

    /// The end-to-end metrics, in `spec::END_TO_END` order.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let wall = self.calibrated(self.wall_s());
        spec::END_TO_END
            .iter()
            .map(|m| {
                let v = match m.name {
                    "wall_s" => wall,
                    "events_per_s" => self.events() as f64 / wall,
                    "pkts_per_s" => self.packets() as f64 / wall,
                    "setup_s" => self.calibrated(self.setup_s()),
                    "peak_rss_mb" => self.peak_rss_mb,
                    "done_share" => self.done_share(),
                    "fct_slowdown_p50" => self.slowdown_quantile(0.5),
                    "fct_slowdown_p99" => self.slowdown_quantile(0.99),
                    other => unreachable!("metric {other} has no definition"),
                };
                (m.name, v)
            })
            .collect()
    }

    /// What `run` reads from a child beyond the contract line.
    pub fn detail(&self) -> Value {
        obj([
            ("workload", Value::from(self.workload.name())),
            ("rounds", self.rounds.into()),
            ("digest", format!("{:016x}", self.digest()).into()),
            ("events", self.events().into()),
            ("packets", self.packets().into()),
            ("calib_ns", self.calib_ns.into()),
            (
                "failures",
                Value::Arr(self.failures.iter().cloned().map(Value::from).collect()),
            ),
        ])
    }
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, &'static str, f64)],
) -> String {
    obj([
        ("correct", Value::from(correct)),
        ("attempted", attempted.into()),
        ("failed", failed.into()),
        (
            "metrics",
            obj(metrics.iter().map(|&(name, unit, value)| {
                (
                    name,
                    obj([("value", Value::from(value)), ("unit", unit.into())]),
                )
            })),
        ),
    ])
    .compact()
}
