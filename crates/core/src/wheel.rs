//! Time-ordered queues over [`Nanos`] deadlines.
//!
//! Two structures live here, both keyed by `(deadline, sequence)` so
//! expiry order is fully deterministic. The sequence is either assigned
//! internally (schedule order, via [`CalendarQueue::schedule`] /
//! [`BinaryHeapQueue::schedule`]) or supplied by the caller
//! ([`CalendarQueue::schedule_keyed`] / [`BinaryHeapQueue::schedule_keyed`]),
//! which is what lets the sharded simulation runtime use one *canonical*
//! key space — `(logical process, per-process sequence)` — so that the
//! merge order of events is identical no matter how processes are
//! partitioned across threads:
//!
//! * [`CalendarQueue`] — a hierarchical timer wheel (Varghese & Lauck's
//!   hashed hierarchical wheels) run as a *pop-one* priority queue. It runs
//!   every simulator event, keyed, and the site agent's per-bundle control
//!   ticks, unkeyed. 64-slot levels with per-level occupancy bitmaps (one
//!   `u64` each, so finding the next non-empty slot is a
//!   `trailing_zeros`), FIFO slot buckets, a small sorted buffer holding
//!   only the slot currently being drained, and an O(1) FIFO lane for "run
//!   immediately" entries of the unkeyed [`CalendarQueue::schedule`] (keyed
//!   schedules never take it). Push and pop are O(1) amortized instead of
//!   the O(log n) — with large element moves — of one big binary heap over
//!   every pending event.
//! * [`BinaryHeapQueue`] — the straightforward binary-heap implementation,
//!   kept only as the reference the calendar queue is property-tested
//!   against (here and in `tests/properties.rs`); nothing runs on it.

use std::collections::BinaryHeap;

use bundler_types::{Duration, Nanos};

/// Slots per level. 64 keeps the cascade shallow and lets slot arithmetic
/// stay in the low bits — and makes each level's occupancy map one `u64`.
const SLOTS: usize = 64;
/// log2(SLOTS).
const SLOT_BITS: u32 = 6;
/// Levels of the calendar queue. With a ~1 µs quantum it spans 64^6 µs ≈
/// 19 hours; it must never alias, so deadlines beyond the span go to an
/// explicit overflow list instead.
const CQ_LEVELS: usize = 6;

#[derive(Debug, Clone)]
struct Entry<T> {
    deadline: Nanos,
    seq: u64,
    item: T,
}

// (deadline, seq) ordering only — `T` needs no bounds. The order is
// *reversed* so that `BinaryHeap` (a max-heap) pops the earliest entry.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .deadline
            .cmp(&self.deadline)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

// ---------------------------------------------------------------------------
// BinaryHeapQueue — the reference engine.
// ---------------------------------------------------------------------------

/// Time-ordered queue over a single binary heap: the reference
/// implementation the [`CalendarQueue`] is tested against.
#[derive(Debug, Clone, Default)]
pub struct BinaryHeapQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
    now: Nanos,
}

impl<T> BinaryHeapQueue<T> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        BinaryHeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// The current time (timestamp of the last popped entry).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Schedules `item` at absolute time `at`; times in the past are
    /// clamped to the current time.
    pub fn schedule(&mut self, at: Nanos, item: T) {
        self.seq += 1;
        let seq = self.seq;
        self.schedule_keyed(at, seq, item);
    }

    /// Schedules `item` at absolute time `at` under a caller-supplied tie
    /// key: entries pop in `(deadline, key)` order. Keys must be unique;
    /// they need not be monotonic. Times in the past are clamped to the
    /// current time.
    pub fn schedule_keyed(&mut self, at: Nanos, key: u64, item: T) {
        let at = at.max(self.now);
        self.heap.push(Entry {
            deadline: at,
            seq: key,
            item,
        });
    }

    /// The `(deadline, key)` of the earliest entry without popping it.
    pub fn peek_key(&mut self) -> Option<(Nanos, u64)> {
        self.heap.peek().map(|e| (e.deadline, e.seq))
    }

    /// Removes and returns every pending entry whose item matches `pred`,
    /// as `(deadline, key, item)` tuples in no particular order. The
    /// remaining entries keep their deadlines, keys and relative order.
    /// O(pending) — intended for rare structural operations (the sharded
    /// simulator migrating a logical process between shards), not the hot
    /// path.
    pub fn extract_if(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<(Nanos, u64, T)> {
        let mut out = Vec::new();
        let mut kept = BinaryHeap::with_capacity(self.heap.len());
        for e in std::mem::take(&mut self.heap).into_vec() {
            if pred(&e.item) {
                out.push((e.deadline, e.seq, e.item));
            } else {
                kept.push(e);
            }
        }
        self.heap = kept;
        out
    }

    /// Pops the earliest entry, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        let e = self.heap.pop()?;
        self.now = e.deadline;
        Some((e.deadline, e.item))
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// ---------------------------------------------------------------------------
// CalendarQueue — the hot-path engine.
// ---------------------------------------------------------------------------

/// A pop-one calendar queue over a hierarchical timer wheel.
///
/// Entries live in FIFO slot buckets; only the bucket currently being
/// drained sits in a small sorted buffer (`cur`), which is what preserves
/// the exact `(deadline, sequence)` total order — identical to
/// [`BinaryHeapQueue`] — while keeping per-operation cost independent of
/// the number of pending entries. Unkeyed entries scheduled at exactly the
/// current time take a separate O(1) FIFO lane (`immediate`). Per-level occupancy
/// bitmaps make skipping empty stretches of simulated time a couple of
/// `trailing_zeros` instructions rather than a slot-by-slot walk.
///
/// # Example
///
/// ```
/// use bundler_core::wheel::CalendarQueue;
/// use bundler_types::{Duration, Nanos};
///
/// let mut q = CalendarQueue::new(Duration::from_micros(1));
/// q.schedule(Nanos::from_millis(5), "later");
/// q.schedule(Nanos::from_millis(1), "sooner");
/// // Pops in (deadline, schedule order), advancing the clock.
/// assert_eq!(q.pop(), Some((Nanos::from_millis(1), "sooner")));
/// assert_eq!(q.now(), Nanos::from_millis(1));
/// assert_eq!(q.pop(), Some((Nanos::from_millis(5), "later")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// `CQ_LEVELS × SLOTS` FIFO buckets, row-major by level.
    slots: Vec<Vec<Entry<T>>>,
    /// One occupancy bit per slot, per level.
    occupied: [u64; CQ_LEVELS],
    /// Entries beyond the wheel's total span (kept out of the wheel so slot
    /// indices never alias; effectively unused at simulation time scales).
    overflow: Vec<Entry<T>>,
    /// log2 of the finest slot width in nanoseconds.
    shift: u32,
    /// The level-0 tick (slot index since time zero) being drained.
    cursor: u64,
    /// Entries of the cursor's slot (and any already-due strays), sorted
    /// *descending* by `(deadline, seq)` so the earliest entry pops off the
    /// end in O(1). A sorted vec beats a binary heap here: the set is tiny
    /// (one slot's worth) and almost always filled in one batch.
    cur: Vec<Entry<T>>,
    /// Entries the unkeyed [`CalendarQueue::schedule`] placed at exactly
    /// the current time (the site agent's control ticks, doc-tests and
    /// property tests; the simulator's every schedule is keyed and never
    /// lands here). Their
    /// `(deadline, seq)` keys are strictly increasing by construction
    /// (`now` never decreases, `seq` always does increase), so a plain
    /// FIFO holds them already sorted: O(1) push, O(1) pop.
    immediate: std::collections::VecDeque<Entry<T>>,
    pending: usize,
    seq: u64,
    now: Nanos,
}

impl<T> CalendarQueue<T> {
    /// Creates a queue whose finest slot width is `quantum`, rounded down
    /// to a power of two of nanoseconds (the rounding only affects bucket
    /// granularity, never ordering). Must be non-zero.
    pub fn new(quantum: Duration) -> Self {
        assert!(
            !quantum.is_zero(),
            "calendar queue quantum must be positive"
        );
        let shift = 63 - quantum.as_nanos().leading_zeros();
        CalendarQueue {
            slots: (0..CQ_LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; CQ_LEVELS],
            overflow: Vec::new(),
            shift,
            cursor: 0,
            cur: Vec::new(),
            immediate: std::collections::VecDeque::new(),
            pending: 0,
            seq: 0,
            now: Nanos::ZERO,
        }
    }

    /// The current time (timestamp of the last popped entry).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// The effective slot width after power-of-two rounding.
    pub fn quantum(&self) -> Duration {
        Duration(1u64 << self.shift)
    }

    #[inline]
    fn tick_of(&self, at: Nanos) -> u64 {
        at.as_nanos() >> self.shift
    }

    /// Schedules `item` at absolute time `at`; times in the past are
    /// clamped to the current time.
    #[inline]
    pub fn schedule(&mut self, at: Nanos, item: T) {
        let at = at.max(self.now);
        self.seq += 1;
        self.pending += 1;
        let entry = Entry {
            deadline: at,
            seq: self.seq,
            item,
        };
        if at == self.now {
            // "Run immediately": trivially in order (see `immediate`).
            self.immediate.push_back(entry);
        } else {
            self.place(entry);
        }
    }

    /// Schedules `item` at absolute time `at` under a caller-supplied tie
    /// key: entries pop in `(deadline, key)` order, exactly as
    /// [`BinaryHeapQueue::schedule_keyed`] would order them. Keys must be
    /// unique; they need not be monotonic, so keyed entries cannot take the
    /// `immediate` FIFO lane (whose order relies on monotonic keys) and go
    /// through slot placement instead. Times in the past are clamped to the
    /// current time.
    #[inline]
    pub fn schedule_keyed(&mut self, at: Nanos, key: u64, item: T) {
        let at = at.max(self.now);
        self.pending += 1;
        self.place(Entry {
            deadline: at,
            seq: key,
            item,
        });
    }

    /// The `(deadline, key)` of the earliest entry without popping it.
    /// Takes `&mut self` because it may have to drain the next slot into
    /// the sorted buffer to see its head.
    #[inline]
    pub fn peek_key(&mut self) -> Option<(Nanos, u64)> {
        if !self.ensure_front() {
            return None;
        }
        match (self.immediate.front(), self.cur.last()) {
            (Some(i), Some(c)) => Some((i.deadline, i.seq).min((c.deadline, c.seq))),
            (Some(i), None) => Some((i.deadline, i.seq)),
            (None, Some(c)) => Some((c.deadline, c.seq)),
            (None, None) => unreachable!("ensure_front returned true"),
        }
    }

    /// Makes the earliest entry visible at `immediate`'s head or `cur`'s
    /// tail, refilling from the wheel if needed. Returns false when the
    /// queue is empty.
    #[inline]
    fn ensure_front(&mut self) -> bool {
        if self.immediate.front().is_none() && self.cur.last().is_none() {
            if self.pending == 0 {
                return false;
            }
            self.refill();
        }
        true
    }

    fn place(&mut self, entry: Entry<T>) {
        let tick = self.tick_of(entry.deadline);
        if tick <= self.cursor {
            self.cur_insert(entry);
            return;
        }
        let delta = tick - self.cursor;
        for level in 0..CQ_LEVELS {
            let bits = SLOT_BITS * (level as u32 + 1);
            if delta < (1u64 << bits) {
                let slot = ((tick >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                self.slots[level * SLOTS + slot].push(entry);
                self.occupied[level] |= 1 << slot;
                return;
            }
        }
        self.overflow.push(entry);
    }

    /// Inserts into `cur`, keeping it sorted descending by (deadline, seq).
    fn cur_insert(&mut self, entry: Entry<T>) {
        let key = (entry.deadline, entry.seq);
        let pos = self.cur.partition_point(|x| (x.deadline, x.seq) > key);
        self.cur.insert(pos, entry);
    }

    /// Moves every entry of a level-0 slot into `cur`.
    fn drain_level0_slot(&mut self, slot: usize) {
        let mut bucket = std::mem::take(&mut self.slots[slot]);
        if self.cur.is_empty() {
            // Common case: take the whole bucket, handing `cur`'s empty
            // buffer back to the slot so both capacities keep recycling.
            std::mem::swap(&mut self.cur, &mut bucket);
        } else {
            self.cur.append(&mut bucket);
        }
        self.slots[slot] = bucket;
        self.cur
            .sort_unstable_by_key(|e| std::cmp::Reverse((e.deadline, e.seq)));
        self.occupied[0] &= !(1 << slot);
    }

    /// Moves the entries of the cursor's own slot at `level` down to finer
    /// levels (or into `cur`).
    ///
    /// Slot indices are cyclic (mod 64 per level), so the cursor's slot can
    /// simultaneously hold entries of the *next* rotation — exactly one
    /// level-span later — that happen to alias onto the same index. Those
    /// stay put (and keep the occupancy bit) until the cursor comes around
    /// again; only entries whose tick falls inside the cursor's current
    /// slot range move down.
    fn cascade_current(&mut self, level: usize) {
        let bits = SLOT_BITS * level as u32;
        let width = 1u64 << bits;
        let slot = ((self.cursor >> bits) & (SLOTS as u64 - 1)) as usize;
        let slot_end = (self.cursor & !(width - 1)) + width;
        let idx = level * SLOTS + slot;
        let mut i = 0;
        while i < self.slots[idx].len() {
            if self.tick_of(self.slots[idx][i].deadline) < slot_end {
                // Bucket order is irrelevant (the `cur` heap restores the
                // (deadline, seq) order), so swap_remove is fine.
                let e = self.slots[idx].swap_remove(i);
                self.place(e);
            } else {
                i += 1;
            }
        }
        if self.slots[idx].is_empty() {
            self.occupied[level] &= !(1 << slot);
        }
    }

    /// Advances the cursor to the next non-empty slot and moves its entries
    /// into `cur`. Precondition: `cur` is empty and `pending > 0`.
    ///
    /// Invariant while the cursor sits inside a level-0 window: the coarse
    /// slots containing the cursor are settled (cascaded) and the cursor's
    /// own level-0 slot is drained. `place` cannot violate this mid-window
    /// (its level arithmetic never targets the cursor's own slot at any
    /// level), so the fast path below re-checks nothing; the invariant is
    /// re-established by [`CalendarQueue::cross_boundary`] after every
    /// window/rotation jump.
    fn refill(&mut self) {
        debug_assert!(self.cur.is_empty());
        debug_assert!(self.pending > 0);
        loop {
            // Fast path: the next non-empty level-0 slot of the current
            // window. Bits below the cursor's position belong to the next
            // rotation and are intentionally excluded.
            let c0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
            let ahead = self.occupied[0] & (!0u64 << c0);
            if ahead != 0 {
                let slot = ahead.trailing_zeros() as u64;
                self.cursor += slot - c0 as u64;
                self.drain_level0_slot(slot as usize);
                return;
            }
            // Nothing left in this window: cross to wherever the next
            // pending entry can be, then re-search (entries at the new
            // cursor tick land in `cur` directly).
            self.cross_boundary();
            if !self.cur.is_empty() {
                return;
            }
        }
    }

    /// Moves the cursor across a window/rotation boundary to the earliest
    /// tick that can hold a pending entry, then settles the slots
    /// containing the new cursor position.
    fn cross_boundary(&mut self) {
        // Every level yields a lower bound on its entries' ticks: the start
        // of its first occupied slot ahead of the cursor, or — when only
        // "wrapped" slots remain (bits at or below the cursor's position,
        // which belong to the level's *next* rotation) — the next rotation
        // boundary. The minimum across levels is a global lower bound, so
        // moving the cursor there skips nothing.
        let mut target: Option<u64> = None;
        for level in 0..CQ_LEVELS {
            if self.occupied[level] == 0 {
                continue;
            }
            let bits = SLOT_BITS * level as u32;
            let cl = ((self.cursor >> bits) & (SLOTS as u64 - 1)) as u32;
            // Exclude the cursor's own slot: slot indices are cyclic, so a
            // set bit there is a *wrapped* entry one rotation ahead,
            // bounded below by the rotation boundary like every other
            // wrapped bit.
            let ahead_l = self.occupied[level] & (!0u64 << cl) & !(1u64 << cl);
            let t = if ahead_l != 0 {
                let slot = ahead_l.trailing_zeros() as u64;
                let window = self.cursor & !((1u64 << (bits + SLOT_BITS)) - 1);
                window + (slot << bits)
            } else {
                let span = 1u64 << (bits + SLOT_BITS);
                (self.cursor / span + 1) * span
            };
            target = Some(target.map_or(t, |best: u64| best.min(t)));
        }
        match target {
            Some(t) => {
                debug_assert!(t > self.cursor, "cursor must advance");
                self.cursor = t;
                // Settle the coarse slots containing the new cursor,
                // top-down, so entries reach their final fine-grained
                // position before the bitmaps are trusted again.
                for level in (1..CQ_LEVELS).rev() {
                    let sl =
                        ((self.cursor >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
                    if self.occupied[level] & (1 << sl) != 0 {
                        self.cascade_current(level);
                    }
                }
                // The cursor's own level-0 slot can hold entries at exactly
                // the cursor tick, parked one rotation ago. They must join
                // `cur` now: they may tie timestamps with entries a cascade
                // just surfaced, and order within a tie is by sequence.
                let c0 = (self.cursor & (SLOTS as u64 - 1)) as u32;
                if self.occupied[0] & (1 << c0) != 0 {
                    self.drain_level0_slot(c0 as usize);
                }
            }
            None => {
                // Wheel fully empty: pull the overflow back in, anchored at
                // its earliest tick so at least one entry lands in `cur` or
                // level 0. (Effectively unreachable at simulation time
                // scales — the wheel spans ~19 hours.)
                debug_assert!(!self.overflow.is_empty(), "pending entries lost");
                let min_tick = self
                    .overflow
                    .iter()
                    .map(|e| self.tick_of(e.deadline))
                    .min()
                    .expect("overflow non-empty");
                self.cursor = self.cursor.max(min_tick);
                let stash = std::mem::take(&mut self.overflow);
                for e in stash {
                    self.place(e);
                }
            }
        }
    }

    /// Removes and returns every pending entry whose item matches `pred`,
    /// as `(deadline, key, item)` tuples in no particular order. The
    /// remaining entries keep their deadlines, keys and relative order —
    /// extraction never disturbs the wheel's cursor or clock. O(pending);
    /// intended for rare structural operations (the sharded simulator
    /// migrating a logical process between shards), not the hot path.
    pub fn extract_if(&mut self, mut pred: impl FnMut(&T) -> bool) -> Vec<(Nanos, u64, T)> {
        let mut out = Vec::new();
        fn sift<T>(
            list: &mut Vec<Entry<T>>,
            pred: &mut impl FnMut(&T) -> bool,
            out: &mut Vec<(Nanos, u64, T)>,
        ) {
            let mut kept = Vec::with_capacity(list.len());
            for e in list.drain(..) {
                if pred(&e.item) {
                    out.push((e.deadline, e.seq, e.item));
                } else {
                    kept.push(e);
                }
            }
            *list = kept;
        }
        sift(&mut self.cur, &mut pred, &mut out);
        sift(&mut self.overflow, &mut pred, &mut out);
        let mut immediate: Vec<Entry<T>> = self.immediate.drain(..).collect();
        sift(&mut immediate, &mut pred, &mut out);
        self.immediate.extend(immediate);
        for level in 0..CQ_LEVELS {
            for slot in 0..SLOTS {
                let idx = level * SLOTS + slot;
                if !self.slots[idx].is_empty() {
                    sift(&mut self.slots[idx], &mut pred, &mut out);
                    if self.slots[idx].is_empty() {
                        self.occupied[level] &= !(1 << slot);
                    }
                }
            }
        }
        self.pending -= out.len();
        out
    }

    /// Pops the earliest entry — exactly the `(deadline, schedule order)`
    /// the reference [`BinaryHeapQueue`] would produce — advancing the
    /// clock to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Nanos, T)> {
        if !self.ensure_front() {
            return None;
        }
        // The next entry is the smaller of the two sorted front runners:
        // `immediate`'s head (oldest at-now entry) and `cur`'s tail
        // (earliest drained-slot entry).
        let from_immediate = match (self.immediate.front(), self.cur.last()) {
            (Some(i), Some(c)) => (i.deadline, i.seq) < (c.deadline, c.seq),
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("ensure_front returned true"),
        };
        let e = if from_immediate {
            self.immediate.pop_front().expect("checked above")
        } else {
            self.cur.pop().expect("refill yields at least one entry")
        };
        self.pending -= 1;
        debug_assert!(e.deadline >= self.now, "time went backwards");
        self.now = e.deadline;
        Some((e.deadline, e.item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---------------- CalendarQueue ---------------------------------------

    fn cq() -> CalendarQueue<u32> {
        CalendarQueue::new(Duration::from_micros(1))
    }

    #[test]
    fn calendar_pops_in_time_order() {
        let mut q = cq();
        q.schedule(Nanos::from_millis(5), 5);
        q.schedule(Nanos::from_millis(1), 1);
        q.schedule(Nanos::from_millis(3), 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec![1, 3, 5]);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_breaks_ties_by_schedule_order() {
        let mut q = cq();
        for i in 0..100u32 {
            q.schedule(Nanos::from_millis(7), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn calendar_clamps_past_schedules_to_now() {
        let mut q = cq();
        q.schedule(Nanos::from_millis(10), 0);
        assert_eq!(q.pop().unwrap().0, Nanos::from_millis(10));
        assert_eq!(q.now(), Nanos::from_millis(10));
        q.schedule(Nanos::from_millis(1), 1);
        let (at, v) = q.pop().unwrap();
        assert_eq!(at, Nanos::from_millis(10));
        assert_eq!(v, 1);
    }

    #[test]
    fn calendar_interleaves_schedules_between_pops() {
        // The simulator's pattern: handling an event schedules more events,
        // often at the same timestamp (must pop after earlier same-time
        // entries, by sequence) and slightly later.
        let mut q = cq();
        q.schedule(Nanos(1_000), 1);
        q.schedule(Nanos(1_000), 2);
        assert_eq!(q.pop(), Some((Nanos(1_000), 1)));
        q.schedule(Nanos(1_000), 3); // same instant, scheduled later
        q.schedule(Nanos(500), 4); // past: clamps to now = 1 µs
        assert_eq!(q.pop(), Some((Nanos(1_000), 2)));
        assert_eq!(q.pop(), Some((Nanos(1_000), 3)));
        assert_eq!(q.pop(), Some((Nanos(1_000), 4)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn calendar_handles_sparse_and_distant_deadlines() {
        let mut q = cq();
        // Span every level: ~64 µs, ~4 ms, ~262 ms, ~16.7 s, ~17.9 min,
        // ~19 h — plus one beyond the total span (overflow list).
        let times: Vec<u64> = vec![
            50_000,                 // 50 µs
            3_000_000,              // 3 ms
            200_000_000,            // 200 ms
            10_000_000_000,         // 10 s
            1_000_000_000_000,      // ~16.7 min
            60_000_000_000_000,     // ~16.7 h
            90_000_000_000_000_000, // far beyond the span: overflow
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Nanos(t), i as u32);
        }
        let popped: Vec<(Nanos, u32)> = std::iter::from_fn(|| q.pop()).collect();
        let expect: Vec<(Nanos, u32)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (Nanos(t), i as u32))
            .collect();
        assert_eq!(popped, expect);
    }

    #[test]
    fn calendar_matches_reference_heap_on_a_mixed_trace() {
        // Deterministic pseudo-random interleaving of schedules and pops,
        // with heavy timestamp collisions.
        let mut q = cq();
        let mut r = BinaryHeapQueue::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..20_000u32 {
            let roll = next();
            if roll % 4 == 0 {
                assert_eq!(q.pop(), r.pop(), "divergence at op {i}");
            } else {
                // Cluster timestamps so ties and near-ties are common.
                let at = Nanos(q.now().as_nanos() + (roll % 97) * 512);
                q.schedule(at, i);
                r.schedule(at, i);
            }
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn calendar_zero_quantum_is_rejected() {
        let _ = CalendarQueue::<u32>::new(Duration::ZERO);
    }

    #[test]
    fn extract_if_lifts_matches_and_leaves_the_rest_intact() {
        // Entries land in every region: immediate lane (at `now`), the
        // current slot, near slots, far levels and the overflow list —
        // extraction must find them all and must not disturb the rest.
        let mut q = cq();
        let mut r = BinaryHeapQueue::new();
        let times: Vec<u64> = vec![
            0, // immediate (scheduled at now)
            900,
            50_000,
            3_000_000,
            10_000_000_000,
            90_000_000_000_000_000, // overflow
        ];
        for (i, &t) in times.iter().enumerate() {
            // Odd items will be extracted, even items stay.
            q.schedule_keyed(Nanos(t), i as u64, i as u32);
            if i % 2 == 0 {
                r.schedule_keyed(Nanos(t), i as u64, i as u32);
            }
        }
        let mut out = q.extract_if(|&v| v % 2 == 1);
        out.sort_by_key(|&(at, key, _)| (at, key));
        let got: Vec<u32> = out.iter().map(|&(_, _, v)| v).collect();
        assert_eq!(got, vec![1, 3, 5]);
        assert_eq!(q.len(), 3);
        // Survivors pop in exactly the order the reference queue gives.
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        // Extracting from the reference heap engine agrees too.
        let mut h = BinaryHeapQueue::new();
        for (i, &t) in times.iter().enumerate() {
            h.schedule_keyed(Nanos(t), i as u64, i as u32);
        }
        let mut hout = h.extract_if(|&v| v % 2 == 1);
        hout.sort_by_key(|&(at, key, _)| (at, key));
        assert_eq!(hout, out);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn keyed_schedules_order_by_key_not_insertion() {
        // Keys arrive out of order — including at the current instant,
        // where the auto-seq path would have used the FIFO lane.
        let mut q = cq();
        let mut r = BinaryHeapQueue::new();
        for (at, key, v) in [
            (Nanos(2_000), 7u64, 0u32),
            (Nanos(1_000), 9, 1),
            (Nanos(1_000), 4, 2),
            (Nanos(2_000), 1, 3),
            (Nanos(1_000), 5, 4),
        ] {
            q.schedule_keyed(at, key, v);
            r.schedule_keyed(at, key, v);
        }
        assert_eq!(q.peek_key(), Some((Nanos(1_000), 4)));
        assert_eq!(r.peek_key(), Some((Nanos(1_000), 4)));
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|(_, v)| v).collect();
        let ref_order: Vec<u32> = std::iter::from_fn(|| r.pop()).map(|(_, v)| v).collect();
        assert_eq!(order, vec![2, 4, 1, 3, 0]);
        assert_eq!(order, ref_order);
    }

    #[test]
    fn keyed_interleaves_with_pops_at_the_current_instant() {
        let mut q = cq();
        q.schedule_keyed(Nanos(1_000), 10, 0u32);
        q.schedule_keyed(Nanos(1_000), 30, 1);
        assert_eq!(q.pop(), Some((Nanos(1_000), 0)));
        // Scheduled mid-instant with a key between the popped and pending
        // entries: must pop before key 30.
        q.schedule_keyed(Nanos(1_000), 20, 2);
        assert_eq!(q.peek_key(), Some((Nanos(1_000), 20)));
        assert_eq!(q.pop(), Some((Nanos(1_000), 2)));
        assert_eq!(q.pop(), Some((Nanos(1_000), 1)));
        assert_eq!(q.peek_key(), None);
        assert!(q.pop().is_none());
    }

    // ---------------- BinaryHeapQueue -------------------------------------

    #[test]
    fn heap_queue_basic_order_and_clamp() {
        let mut q = BinaryHeapQueue::new();
        q.schedule(Nanos::from_millis(2), "b");
        q.schedule(Nanos::from_millis(1), "a");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((Nanos::from_millis(1), "a")));
        q.schedule(Nanos::ZERO, "late");
        assert_eq!(q.pop(), Some((Nanos::from_millis(1), "late")));
        assert_eq!(q.pop(), Some((Nanos::from_millis(2), "b")));
        assert!(q.is_empty());
    }
}
