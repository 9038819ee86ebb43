//! CoDel (Controlled Delay) active queue management, after Nichols &
//! Jacobson, "Controlling Queue Delay" (ACM Queue 2012).
//!
//! CoDel watches the *sojourn time* of packets through a queue. If the
//! minimum sojourn time over an interval (100 ms) exceeds a target (5 ms),
//! the queue has a standing backlog and CoDel begins dropping at increasing
//! frequency (the control-law interval shrinks with the square root of the
//! drop count) until the sojourn time falls back below target.
//!
//! This module is the drop-decision state machine ([`CodelState`]) that
//! FQ-CoDel embeds per flow queue.

use bundler_types::{Duration, Nanos};

/// Sojourn time above which a queue counts as standing: RFC 8289's 5 ms.
const TARGET: Duration = Duration::from_millis(5);

/// How long the sojourn must stay above `TARGET` before the first drop,
/// and the base of the control law: RFC 8289's 100 ms.
const INTERVAL: Duration = Duration::from_millis(100);

/// The CoDel drop-decision state machine, independent of any particular
/// queue implementation. The default is outside any dropping episode.
#[derive(Debug, Clone, Default)]
pub struct CodelState {
    /// Time at which the current "sojourn above target" episode will trigger
    /// the first drop (None when below target).
    first_above_time: Option<Nanos>,
    /// True when in the dropping state.
    dropping: bool,
    /// Next scheduled drop time while in the dropping state.
    drop_next: Nanos,
    /// Number of drops in the current dropping episode.
    count: u32,
    /// `count` value when the previous dropping episode ended (used for the
    /// "count restart" heuristic from the reference implementation).
    last_count: u32,
    /// Total drops performed by this state machine.
    pub total_drops: u64,
    /// Transitions into the dropping state over the machine's lifetime.
    pub drop_entries: u64,
    /// Transitions out of the dropping state over the machine's lifetime.
    pub drop_exits: u64,
}

/// What the caller should do with the packet it just dequeued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodelVerdict {
    /// Deliver the packet.
    Deliver,
    /// Drop the packet and dequeue another one.
    Drop,
}

impl CodelState {
    /// True if the state machine is currently in its dropping state.
    pub fn is_dropping(&self) -> bool {
        self.dropping
    }

    fn control_law(&self, t: Nanos) -> Nanos {
        // interval / sqrt(count)
        let denom = (self.count.max(1) as f64).sqrt();
        t + Duration::from_secs_f64(INTERVAL.as_secs_f64() / denom)
    }

    /// Decides whether the packet dequeued at `now` with queue sojourn time
    /// `sojourn` should be delivered or dropped. `queue_bytes` is the
    /// occupancy remaining after the dequeue; CoDel never drops when the
    /// queue holds less than one MTU.
    pub fn on_dequeue(&mut self, sojourn: Duration, queue_bytes: u64, now: Nanos) -> CodelVerdict {
        let below = sojourn < TARGET || queue_bytes <= 1514;
        let ok_to_drop = if below {
            self.first_above_time = None;
            false
        } else {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + INTERVAL);
                    false
                }
                Some(fat) => now >= fat,
            }
        };

        if self.dropping {
            if !ok_to_drop {
                self.dropping = false;
                self.drop_exits += 1;
                return CodelVerdict::Deliver;
            }
            if now >= self.drop_next {
                self.count += 1;
                self.total_drops += 1;
                self.drop_next = self.control_law(self.drop_next);
                return CodelVerdict::Drop;
            }
            CodelVerdict::Deliver
        } else if ok_to_drop {
            // Enter the dropping state.
            self.dropping = true;
            self.drop_entries += 1;
            // If we were dropping recently, resume from a related count so
            // the drop rate ramps quickly for persistent overload.
            let delta = self.count.saturating_sub(self.last_count);
            self.count = if delta > 1 && now.saturating_since(self.drop_next) < INTERVAL {
                delta
            } else {
                1
            };
            self.last_count = self.count;
            self.total_drops += 1;
            self.drop_next = self.control_law(now);
            CodelVerdict::Drop
        } else {
            CodelVerdict::Deliver
        }
    }
}

serde::layout!(state CodelState {
    first_above_time, dropping, drop_next, count, last_count, total_drops, drop_entries,
    drop_exits,
});

#[cfg(test)]
mod tests {
    use super::*;
    use serde::binary::State;

    /// One dequeue per millisecond from `*now` on, each with `sojourn` and
    /// plenty of backlog; returns the times at which the verdict was `Drop`.
    fn drive(s: &mut CodelState, now: &mut Nanos, sojourn_ms: u64, steps: usize) -> Vec<Nanos> {
        let mut drops = Vec::new();
        for _ in 0..steps {
            *now += Duration::from_millis(1);
            let v = s.on_dequeue(Duration::from_millis(sojourn_ms), 1_000_000, *now);
            if v == CodelVerdict::Drop {
                drops.push(*now);
            }
        }
        drops
    }

    #[test]
    fn no_drops_below_target_delay() {
        let mut s = CodelState::default();
        let mut now = Nanos::ZERO;
        // Packets spend 1 ms in the queue, below the 5 ms target.
        assert!(drive(&mut s, &mut now, 1, 1000).is_empty());
        assert_eq!(s.total_drops, 0);
        assert!(!s.is_dropping());
    }

    #[test]
    fn drops_start_after_interval_of_high_delay() {
        let mut s = CodelState::default();
        let mut now = Nanos::ZERO;
        // The sojourn first exceeds the target at 1 ms; the first drop comes
        // one 100 ms interval later, not before.
        let drops = drive(&mut s, &mut now, 50, 200);
        assert_eq!(drops.first(), Some(&Nanos::from_millis(101)));
        assert!(s.is_dropping());
        assert_eq!(s.drop_entries, 1);
        assert_eq!(s.total_drops, drops.len() as u64);
    }

    #[test]
    fn drop_rate_increases_with_persistent_overload() {
        let mut s = CodelState::default();
        let mut now = Nanos::ZERO;
        // Persistent 50 ms sojourn, plenty of backlog.
        let first_half = drive(&mut s, &mut now, 50, 1000).len();
        let second_half = drive(&mut s, &mut now, 50, 1000).len();
        assert!(
            second_half > first_half,
            "drop rate should escalate: {first_half} vs {second_half}"
        );
    }

    #[test]
    fn leaves_dropping_state_when_delay_subsides() {
        let mut s = CodelState::default();
        let mut now = Nanos::ZERO;
        // Force it into dropping.
        drive(&mut s, &mut now, 50, 500);
        assert!(s.is_dropping());
        assert!(drive(&mut s, &mut now, 1, 1).is_empty());
        assert!(!s.is_dropping());
        assert_eq!((s.drop_entries, s.drop_exits), (1, 1));
    }

    #[test]
    fn never_drops_last_mtu() {
        let mut s = CodelState::default();
        let mut now = Nanos::ZERO;
        for _ in 0..500 {
            now += Duration::from_millis(1);
            // Huge sojourn but almost-empty queue: must always deliver.
            let v = s.on_dequeue(Duration::from_millis(500), 1000, now);
            assert_eq!(v, CodelVerdict::Deliver);
        }
        assert_eq!(s.total_drops, 0);
    }

    #[test]
    fn state_round_trips_through_the_codec() {
        let mut s = CodelState::default();
        let mut now = Nanos::ZERO;
        // Mid-episode, so the snapshot carries non-trivial drop state.
        drive(&mut s, &mut now, 50, 150);
        assert!(s.is_dropping() && s.total_drops > 0);

        let mut bytes = Vec::new();
        s.save_state(&mut bytes);
        let mut s2 = CodelState::default();
        let mut r = serde::binary::Reader::new(&bytes);
        s2.load_state(&mut r).expect("restore");
        assert!(r.is_empty(), "trailing bytes after restore");
        let mut resaved = Vec::new();
        s2.save_state(&mut resaved);
        assert_eq!(bytes, resaved, "restore must be lossless");
        // Both machines decide identically from here on, through an exit
        // and a re-entry.
        let mut now2 = now;
        for sojourn_ms in [50, 1, 50] {
            let x = drive(&mut s, &mut now, sojourn_ms, 300);
            let y = drive(&mut s2, &mut now2, sojourn_ms, 300);
            assert_eq!(x, y, "divergent decisions after restore");
        }
        assert_eq!(s.total_drops, s2.total_drops);
    }
}
