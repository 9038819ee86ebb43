//! Phase profiler output: where the sharded runtime's wall time goes.
//!
//! Every conservative window, each worker splits its wall time into *busy*
//! (handling events) and *stall* (blocked on the window barriers), and the
//! driver times the shared-bottleneck *net phase*. The per-window series
//! answers the scaling question one aggregate number cannot: a run that is
//! 40 % barrier-stall has a load-balance problem, one that is 40 % net
//! phase has a serial-section problem.

/// One worker's timing for one conservative window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowPhase {
    /// Window index.
    pub windex: u64,
    /// Wall nanoseconds spent handling events.
    pub busy_ns: u64,
    /// Wall nanoseconds spent blocked on barriers.
    pub stall_ns: u64,
    /// Events handled.
    pub events: u64,
}

/// One worker shard's full phase timeline.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfile {
    /// The worker's partition index.
    pub shard: u16,
    /// Per-window timings, in window order.
    pub windows: Vec<WindowPhase>,
}

impl PhaseProfile {
    /// Total (busy, stall) wall nanoseconds across all windows.
    pub fn totals(&self) -> (u64, u64) {
        self.windows
            .iter()
            .fold((0, 0), |(b, s), w| (b + w.busy_ns, s + w.stall_ns))
    }
}

/// One net phase execution on a net thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetWindow {
    /// Window index the phase served.
    pub windex: u64,
    /// Which net shard ran the phase.
    pub net_shard: u16,
    /// Wall nanoseconds the phase took.
    pub wall_ns: u64,
    /// Net events handled.
    pub events: u64,
}

/// The net threads' net-phase timeline.
#[derive(Debug, Clone, Default)]
pub struct NetPhaseProfile {
    /// Per-window net phases, in window order.
    pub windows: Vec<NetWindow>,
}

impl NetPhaseProfile {
    /// Total wall nanoseconds across all net phases.
    pub fn total_ns(&self) -> u64 {
        self.windows.iter().map(|w| w.wall_ns).sum()
    }
}

/// Where the sharded run's instrumented wall time went, as fractions of
/// the total (busy + stall + net). All zeros for single-threaded runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Fraction of instrumented time workers spent handling events.
    pub busy_frac: f64,
    /// Fraction workers spent blocked on window barriers.
    pub stall_frac: f64,
    /// Fraction the net threads spent in net phases.
    pub net_frac: f64,
}

/// Computes the breakdown from per-worker profiles and the net timeline.
pub fn breakdown(workers: &[PhaseProfile], net: &NetPhaseProfile) -> PhaseBreakdown {
    let (busy, stall) = workers.iter().fold((0u64, 0u64), |(b, s), p| {
        let (pb, ps) = p.totals();
        (b + pb, s + ps)
    });
    let net_ns = net.total_ns();
    let total = busy + stall + net_ns;
    if total == 0 {
        return PhaseBreakdown::default();
    }
    PhaseBreakdown {
        busy_frac: busy as f64 / total as f64,
        stall_frac: stall as f64 / total as f64,
        net_frac: net_ns as f64 / total as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_breakdown() {
        let worker = PhaseProfile {
            shard: 0,
            windows: vec![
                WindowPhase {
                    windex: 0,
                    busy_ns: 60,
                    stall_ns: 20,
                    events: 5,
                },
                WindowPhase {
                    windex: 1,
                    busy_ns: 40,
                    stall_ns: 30,
                    events: 3,
                },
            ],
        };
        assert_eq!(worker.totals(), (100, 50));
        let net = NetPhaseProfile {
            windows: vec![NetWindow {
                windex: 0,
                net_shard: 0,
                wall_ns: 50,
                events: 2,
            }],
        };
        assert_eq!(net.total_ns(), 50);
        let b = breakdown(&[worker], &net);
        assert!((b.busy_frac - 0.5).abs() < 1e-12);
        assert!((b.stall_frac - 0.25).abs() < 1e-12);
        assert!((b.net_frac - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = breakdown(&[], &NetPhaseProfile::default());
        assert_eq!(b, PhaseBreakdown::default());
    }
}
