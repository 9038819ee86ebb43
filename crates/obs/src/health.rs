//! Online health monitors: pure watchdogs evaluated at sample events.
//!
//! Each monitor is a function of (previous sample's readings, this
//! sample's readings) — no wall clock, no randomness — so the emitted
//! [`TraceKind::Health`] records are bit-identical across shard counts:
//! sample events fire at the same sim-times everywhere, the readings are
//! simulation state, and the per-bundle [`HealthState`] migrates with its
//! bundle.
//!
//! Monitors never feed back into the simulation: they read, compare and
//! record.
//!
//! [`TraceKind::Health`]: crate::trace::TraceKind::Health

/// Consecutive strictly-growing backlog samples before
/// [`HealthKind::QueueGrowth`] fires.
pub const QUEUE_GROWTH_STREAK: u32 = 4;

/// Mode changes between two samples before [`HealthKind::ModeFlapping`]
/// fires.
pub const MODE_FLAP_THRESHOLD: u64 = 3;

/// What a health event is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum HealthKind {
    /// A sendbox backlog grew for [`QUEUE_GROWTH_STREAK`] consecutive
    /// samples (value: backlog bytes).
    QueueGrowth = 0,
    /// A sendbox holds packets but released none since the last sample
    /// (value: backlog bytes).
    StarvedBundle = 1,
    /// A bundle's CC mode machine changed ≥ [`MODE_FLAP_THRESHOLD`] times
    /// within one sample interval (value: changes in the interval).
    ModeFlapping = 2,
    // Tag 3 was the host-side mailbox watchdog, which went with the
    // mailbox ring it watched; the number stays unassigned so old streams
    // keep their meaning.
    /// A fluid cross-traffic aggregate collapsed to its floor rate
    /// (value: rate in bits/sec).
    FluidCollapse = 4,
}

impl HealthKind {
    /// Decodes the `u8` carried in trace records.
    pub fn from_u8(v: u8) -> Option<HealthKind> {
        Some(match v {
            0 => HealthKind::QueueGrowth,
            1 => HealthKind::StarvedBundle,
            2 => HealthKind::ModeFlapping,
            4 => HealthKind::FluidCollapse,
            _ => return None,
        })
    }

    /// Stable lowercase name (stream export, `obs_query`).
    pub fn name(self) -> &'static str {
        match self {
            HealthKind::QueueGrowth => "queue_growth",
            HealthKind::StarvedBundle => "starved_bundle",
            HealthKind::ModeFlapping => "mode_flapping",
            HealthKind::FluidCollapse => "fluid_collapse",
        }
    }
}

/// Per-bundle monitor state: the previous sample's readings. Travels with
/// the bundle (inside [`crate::flow::BundleObsState`]) so a migrated
/// bundle's monitors keep their streaks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthState {
    /// Backlog at the previous sample.
    pub last_backlog: u64,
    /// Consecutive samples the backlog strictly grew.
    pub growth_streak: u32,
    /// Cumulative packets the sendbox had released at the previous sample.
    pub last_packets_sent: u64,
    /// Cumulative mode changes at the previous sample.
    pub last_mode_changes: u64,
    /// False until the first sample primes the readings (no monitor fires
    /// on the first observation).
    pub primed: bool,
}

impl HealthState {
    /// Feeds one sample's readings through the bundle monitors. Emits
    /// `(kind, value)` pairs into `out`; the caller stamps them into trace
    /// records and counters.
    pub fn check_bundle(
        &mut self,
        backlog_bytes: u64,
        packets_sent: u64,
        mode_changes: u64,
        out: &mut Vec<(HealthKind, u64)>,
    ) {
        if self.primed {
            if backlog_bytes > self.last_backlog {
                self.growth_streak += 1;
                if self.growth_streak >= QUEUE_GROWTH_STREAK {
                    out.push((HealthKind::QueueGrowth, backlog_bytes));
                    self.growth_streak = 0;
                }
            } else {
                self.growth_streak = 0;
            }
            if backlog_bytes > 0 && packets_sent == self.last_packets_sent {
                out.push((HealthKind::StarvedBundle, backlog_bytes));
            }
            let flaps = mode_changes.saturating_sub(self.last_mode_changes);
            if flaps >= MODE_FLAP_THRESHOLD {
                out.push((HealthKind::ModeFlapping, flaps));
            }
        }
        self.last_backlog = backlog_bytes;
        self.last_packets_sent = packets_sent;
        self.last_mode_changes = mode_changes;
        self.primed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_round_trips_and_names() {
        for v in [0, 1, 2, 4u8] {
            let k = HealthKind::from_u8(v).unwrap();
            assert_eq!(k as u8, v);
            assert!(!k.name().is_empty());
        }
        assert_eq!(HealthKind::from_u8(3), None, "retired, never reassigned");
        assert_eq!(HealthKind::from_u8(9), None);
    }

    #[test]
    fn queue_growth_needs_a_streak() {
        let mut st = HealthState::default();
        let mut out = Vec::new();
        // Prime + grow 3 times: nothing yet.
        for (i, backlog) in [10u64, 20, 30, 40].iter().enumerate() {
            st.check_bundle(*backlog, i as u64 + 1, 0, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        // Fourth consecutive growth fires and resets the streak.
        st.check_bundle(50, 5, 0, &mut out);
        assert_eq!(out, vec![(HealthKind::QueueGrowth, 50)]);
        out.clear();
        st.check_bundle(60, 6, 0, &mut out);
        assert!(out.is_empty(), "streak restarted");
        // A shrink clears the streak.
        st.check_bundle(5, 7, 0, &mut out);
        assert!(out.is_empty());
    }

    /// Hysteresis at the exact threshold: an *equal* backlog is not
    /// growth (the comparison is strict), so a plateau right at the
    /// streak boundary resets the monitor instead of firing it.
    #[test]
    fn equal_backlog_resets_the_streak_at_the_threshold() {
        let mut st = HealthState::default();
        let mut out = Vec::new();
        // Prime, then grow QUEUE_GROWTH_STREAK − 1 times.
        st.check_bundle(10, 1, 0, &mut out);
        for i in 0..QUEUE_GROWTH_STREAK as u64 - 1 {
            st.check_bundle(20 + i * 10, 2 + i, 0, &mut out);
        }
        assert!(out.is_empty(), "{out:?}");
        // A plateau on what would have been the firing sample: no event,
        // streak cleared.
        let plateau = 20 + (QUEUE_GROWTH_STREAK as u64 - 2) * 10;
        st.check_bundle(plateau, 9, 0, &mut out);
        assert!(out.is_empty(), "equal backlog must not extend the streak");
        // It now takes a full fresh streak to fire again.
        for i in 0..QUEUE_GROWTH_STREAK as u64 - 1 {
            st.check_bundle(plateau + (i + 1) * 10, 10 + i, 0, &mut out);
            assert!(out.is_empty(), "sample {i} fired early: {out:?}");
        }
        st.check_bundle(plateau + 100, 20, 0, &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].0, HealthKind::QueueGrowth);
    }

    /// Under monotone growth the monitor fires exactly every
    /// [`QUEUE_GROWTH_STREAK`] samples — the post-fire reset is itself a
    /// hysteresis band, not a one-off.
    #[test]
    fn monotone_growth_fires_once_per_streak() {
        let mut st = HealthState::default();
        let mut out = Vec::new();
        let samples = 1 + 3 * QUEUE_GROWTH_STREAK as u64;
        for i in 0..samples {
            st.check_bundle(100 + i * 50, i + 1, 0, &mut out);
        }
        let fired = out
            .iter()
            .filter(|(k, _)| *k == HealthKind::QueueGrowth)
            .count();
        assert_eq!(fired, 3, "one event per full streak, got {out:?}");
    }

    /// The flap monitor's threshold is inclusive: exactly
    /// [`MODE_FLAP_THRESHOLD`] changes in an interval fires, one fewer
    /// stays silent, and a counter that runs backwards (impossible for
    /// the cumulative source, but the monitor must not underflow) is
    /// treated as zero flaps.
    #[test]
    fn mode_flap_threshold_is_exact_and_saturating() {
        let mut st = HealthState::default();
        let mut out = Vec::new();
        st.check_bundle(0, 1, 10, &mut out); // prime
        st.check_bundle(0, 2, 10 + MODE_FLAP_THRESHOLD - 1, &mut out);
        assert!(out.is_empty(), "below threshold must not fire: {out:?}");
        st.check_bundle(0, 3, 10 + 2 * MODE_FLAP_THRESHOLD - 1, &mut out);
        assert_eq!(
            out,
            vec![(HealthKind::ModeFlapping, MODE_FLAP_THRESHOLD)],
            "exactly the threshold must fire with the flap count"
        );
        out.clear();
        st.check_bundle(0, 4, 0, &mut out); // counter ran backwards
        assert!(out.is_empty(), "saturating delta must read as 0 flaps");
    }

    /// Starvation needs *both* edges exactly: a single released packet
    /// (delta = 1) or a backlog of exactly zero keeps the monitor quiet.
    #[test]
    fn starvation_edges_are_exact() {
        let mut st = HealthState::default();
        let mut out = Vec::new();
        st.check_bundle(50, 7, 0, &mut out); // prime
        st.check_bundle(50, 8, 0, &mut out); // one packet released
        assert!(out.is_empty(), "any release clears starvation: {out:?}");
        st.check_bundle(0, 8, 0, &mut out); // no release, but empty queue
        assert!(out.is_empty(), "an empty queue cannot starve: {out:?}");
        st.check_bundle(1, 8, 0, &mut out); // one byte held, none released
        assert_eq!(out, vec![(HealthKind::StarvedBundle, 1)]);
    }

    #[test]
    fn starvation_and_flapping_fire_from_deltas() {
        let mut st = HealthState::default();
        let mut out = Vec::new();
        st.check_bundle(100, 10, 0, &mut out); // prime
        assert!(out.is_empty(), "first sample never fires");
        st.check_bundle(100, 10, 3, &mut out); // no releases, 3 mode flips
        assert!(out.contains(&(HealthKind::StarvedBundle, 100)));
        assert!(out.contains(&(HealthKind::ModeFlapping, 3)));
        out.clear();
        st.check_bundle(0, 10, 3, &mut out); // empty queue: not starved
        assert!(out.is_empty());
    }
}
