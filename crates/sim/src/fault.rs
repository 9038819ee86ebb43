//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a pre-expanded, sim-time-scheduled list of network
//! faults plus a list of control-plane blackout intervals. Plans are pure
//! data: expanded once (from a seed or by hand) before the run starts and
//! never mutated, so the same plan produces the same faults at the same
//! simulated instants on every host — single-threaded or sharded — and
//! round-trips through checkpoints unchanged (the cursor state that tracks
//! *how far* the plan has been applied lives in `NetCore` and is part of
//! the snapshot).
//!
//! Two delivery sites consume a plan, both of them shard-invariant:
//!
//! * **Bottleneck faults** ([`FaultKind`]) apply inside the net LP, which
//!   processes the one canonical net event stream regardless of shard
//!   count: link down/up flaps, capacity dips, burst loss, duplication and
//!   one-slot reordering of arriving packets.
//! * **Control-plane blackouts** ([`FaultPlan::in_blackout`]) apply at
//!   feedback *delivery*: a worker handling `CongestionAckArrive` or
//!   `EpochUpdateArrive` during a blackout drops the message instead of
//!   applying it. The predicate is a pure function of the event timestamp,
//!   so every partitioning drops exactly the same messages. Combined with
//!   [`bundler_core::BundlerConfig::degrade_on_feedback_timeout`] this
//!   exercises the sendbox's graceful degradation to pass-through and its
//!   re-engagement when feedback returns.

use bundler_types::{Duration, Nanos};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::binary::{Decode, DecodeError, Encode, Reader};

/// One scheduled bottleneck fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Simulated time the fault takes effect (applied before any net event
    /// with `t >= at` is handled).
    pub at: Nanos,
    /// What happens.
    pub kind: FaultKind,
}

/// The bottleneck fault vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Path `path` goes down: every packet arriving for it is dropped
    /// (a dead interface; packets already queued still drain).
    LinkDown {
        /// Bottleneck sub-path index.
        path: u32,
    },
    /// Path `path` comes back up.
    LinkUp {
        /// Bottleneck sub-path index.
        path: u32,
    },
    /// Path `path`'s link rate becomes `permille`/1000 of its configured
    /// rate (a capacity dip; `1000` restores the full rate).
    CapacityScale {
        /// Bottleneck sub-path index.
        path: u32,
        /// New rate in thousandths of the configured per-path rate.
        permille: u32,
    },
    /// The next `count` packets arriving at the bottleneck are dropped.
    BurstLoss {
        /// How many arrivals to drop.
        count: u32,
    },
    /// The next `count` packets arriving at the bottleneck are duplicated
    /// (the copy is enqueued right behind the original).
    Duplicate {
        /// How many arrivals to duplicate.
        count: u32,
    },
    /// The next `count` adjacent arrival pairs at the bottleneck are
    /// swapped (a one-slot reorder buffer).
    Reorder {
        /// How many pairs to swap.
        count: u32,
    },
}

/// A deterministic, shard-count-invariant fault schedule.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Bottleneck faults, sorted by [`FaultEvent::at`].
    pub entries: Vec<FaultEvent>,
    /// Control-plane blackout intervals `[start, end)`, sorted and
    /// non-overlapping: congestion ACKs and epoch updates whose delivery
    /// time falls inside one are dropped.
    pub blackouts: Vec<(Nanos, Nanos)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Adds a bottleneck fault, keeping `entries` sorted by time (stable
    /// for equal timestamps: later insertions apply later).
    pub fn with_fault(mut self, at: Nanos, kind: FaultKind) -> Self {
        let pos = self.entries.partition_point(|e| e.at <= at);
        self.entries.insert(pos, FaultEvent { at, kind });
        self
    }

    /// Adds a control-plane blackout `[start, start + len)`.
    ///
    /// Panics if it overlaps or precedes an existing blackout — intervals
    /// must stay sorted and disjoint so [`FaultPlan::in_blackout`] is
    /// well-defined.
    pub fn with_blackout(mut self, start: Nanos, len: Duration) -> Self {
        let end = start + len;
        if let Some(&(_, prev_end)) = self.blackouts.last() {
            assert!(
                start >= prev_end,
                "blackouts must be added in order and must not overlap"
            );
        }
        self.blackouts.push((start, end));
        self
    }

    /// Expands a reproducible mixed-fault scenario from a seed: a handful
    /// of link flaps, capacity dips, loss/duplication/reorder bursts spread
    /// over the middle 80 % of `duration`, plus one or two control-plane
    /// blackouts. Same seed, same plan — and because plans are
    /// shard-invariant by construction, the same digest on every host.
    pub fn generate(seed: u64, duration: Duration, num_paths: usize) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa01_71a4);
        let span = duration.as_nanos();
        let lo = span / 10;
        let hi = span - span / 10;
        let paths = num_paths.max(1) as u32;
        let mut plan = FaultPlan::none();
        // Link flaps: short outages on a random path.
        for _ in 0..rng.gen_range(1..3u32) {
            let path = rng.gen_range(0..paths);
            let start = Nanos(rng_range(&mut rng, lo, hi));
            let outage = Duration::from_millis(rng.gen_range(20..200));
            plan = plan
                .with_fault(start, FaultKind::LinkDown { path })
                .with_fault(start + outage, FaultKind::LinkUp { path });
        }
        // A capacity dip and its recovery.
        {
            let path = rng.gen_range(0..paths);
            let start = Nanos(rng_range(&mut rng, lo, hi));
            let dip = Duration::from_millis(rng.gen_range(100..500));
            let permille = rng.gen_range(200..800u32);
            plan = plan
                .with_fault(start, FaultKind::CapacityScale { path, permille })
                .with_fault(
                    start + dip,
                    FaultKind::CapacityScale {
                        path,
                        permille: 1000,
                    },
                );
        }
        // Packet-level mischief.
        for kind in 0..3u32 {
            let when = Nanos(rng_range(&mut rng, lo, hi));
            let fault = match kind {
                0 => FaultKind::BurstLoss {
                    count: rng.gen_range(1..8),
                },
                1 => FaultKind::Duplicate {
                    count: rng.gen_range(1..4),
                },
                _ => FaultKind::Reorder {
                    count: rng.gen_range(1..4),
                },
            };
            plan = plan.with_fault(when, fault);
        }
        // Control-plane blackouts, placed in the first and second half so
        // they cannot overlap.
        let mid = lo + (hi - lo) / 2;
        let b1 = rng_range(&mut rng, lo, mid.saturating_sub(1).max(lo + 1));
        let len1 = Duration::from_millis(rng.gen_range(100..400));
        let b1_end = (b1 + len1.as_nanos()).min(mid);
        let mut plan = plan.with_blackout(Nanos(b1), Duration(b1_end - b1));
        if rng.gen_bool(0.5) {
            let b2 = rng_range(&mut rng, mid, hi);
            let len2 = Duration::from_millis(rng.gen_range(100..400));
            plan = plan.with_blackout(Nanos(b2), len2);
        }
        plan
    }

    /// True if `now` falls inside a control-plane blackout.
    pub fn in_blackout(&self, now: Nanos) -> bool {
        // Blackout lists are tiny (a handful of intervals); linear scan.
        self.blackouts
            .iter()
            .any(|&(start, end)| now >= start && now < end)
    }

    /// True if the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.blackouts.is_empty()
    }
}

/// An inclusive-low, exclusive-high range sample that tolerates degenerate
/// ranges (returns `lo` when `hi <= lo`).
fn rng_range(rng: &mut SmallRng, lo: u64, hi: u64) -> u64 {
    if hi <= lo {
        lo
    } else {
        rng.gen_range(lo..hi)
    }
}

impl Encode for FaultKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match *self {
            FaultKind::LinkDown { path } => {
                0u8.encode(out);
                path.encode(out);
            }
            FaultKind::LinkUp { path } => {
                1u8.encode(out);
                path.encode(out);
            }
            FaultKind::CapacityScale { path, permille } => {
                2u8.encode(out);
                path.encode(out);
                permille.encode(out);
            }
            FaultKind::BurstLoss { count } => {
                3u8.encode(out);
                count.encode(out);
            }
            FaultKind::Duplicate { count } => {
                4u8.encode(out);
                count.encode(out);
            }
            FaultKind::Reorder { count } => {
                5u8.encode(out);
                count.encode(out);
            }
        }
    }
}

impl Decode for FaultKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => FaultKind::LinkDown {
                path: u32::decode(r)?,
            },
            1 => FaultKind::LinkUp {
                path: u32::decode(r)?,
            },
            2 => FaultKind::CapacityScale {
                path: u32::decode(r)?,
                permille: u32::decode(r)?,
            },
            3 => FaultKind::BurstLoss {
                count: u32::decode(r)?,
            },
            4 => FaultKind::Duplicate {
                count: u32::decode(r)?,
            },
            5 => FaultKind::Reorder {
                count: u32::decode(r)?,
            },
            _ => return Err(r.error("unknown fault kind tag")),
        })
    }
}

serde::layout!(value FaultEvent { at, kind });
serde::layout!(value FaultPlan { entries, blackouts });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let a = FaultPlan::generate(42, Duration::from_secs(10), 4);
        let b = FaultPlan::generate(42, Duration::from_secs(10), 4);
        assert_eq!(a, b, "same seed must expand to the same plan");
        assert!(a.entries.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(a.blackouts.windows(2).all(|w| w[0].1 <= w[1].0));
        assert!(!a.is_empty());
        let c = FaultPlan::generate(43, Duration::from_secs(10), 4);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn blackout_predicate_matches_intervals() {
        let plan = FaultPlan::none()
            .with_blackout(Nanos::from_millis(100), Duration::from_millis(50))
            .with_blackout(Nanos::from_millis(300), Duration::from_millis(10));
        assert!(!plan.in_blackout(Nanos::from_millis(99)));
        assert!(plan.in_blackout(Nanos::from_millis(100)));
        assert!(plan.in_blackout(Nanos::from_millis(149)));
        assert!(!plan.in_blackout(Nanos::from_millis(150)));
        assert!(plan.in_blackout(Nanos::from_millis(305)));
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_blackouts_rejected() {
        let _ = FaultPlan::none()
            .with_blackout(Nanos::from_millis(100), Duration::from_millis(50))
            .with_blackout(Nanos::from_millis(120), Duration::from_millis(5));
    }

    #[test]
    fn plan_codec_round_trips() {
        let plan = FaultPlan::generate(7, Duration::from_secs(5), 2);
        let mut bytes = Vec::new();
        plan.encode(&mut bytes);
        let mut r = Reader::new(&bytes);
        let back = FaultPlan::decode(&mut r).expect("decode");
        assert_eq!(plan, back);
        assert!(r.is_empty());
    }
}
