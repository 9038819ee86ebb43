//! Longest-queue tracking for overflow drops.
//!
//! Every fair-queueing scheduler in this crate drops from its *longest*
//! queue when total capacity is exceeded (as Linux SFQ does). Finding that
//! queue used to be an O(buckets) scan on every overflow drop — the exact
//! situation (sustained congestion) where drops are most frequent. The
//! tracker replaces the scan with a lazy max-heap over `(weight, key)`
//! pairs: weight updates push a fresh entry in O(log n) and leave the stale
//! one behind; lookups pop stale entries until the top matches the current
//! weight. An exact side table of current weights both validates heap
//! entries and bounds memory: when the heap grows past a small multiple of
//! the live-queue count it is rebuilt from the table.
//!
//! Ties on weight resolve to the *largest* key, which is exactly what the
//! replaced `(0..buckets).max_by_key(...)` scans produced for the
//! index-keyed schedulers (`Iterator::max_by_key` returns the last
//! maximum).

use std::collections::BinaryHeap;

use bundler_types::IdHashMap;

/// Tracks the queue (bucket index or flow key) with the largest weight
/// (packet count or byte count) under incremental updates.
#[derive(Debug, Default)]
pub(crate) struct LongestTracker {
    /// Current weight per key; keys with weight 0 are absent.
    weights: IdHashMap<u64, u64>,
    /// Lazily maintained candidates; may contain stale entries.
    heap: BinaryHeap<(u64, u64)>,
}

impl LongestTracker {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records that `key`'s queue now has the given weight. Call on every
    /// enqueue, dequeue and drop; a weight of 0 retires the key.
    pub(crate) fn set(&mut self, key: u64, weight: u64) {
        if weight == 0 {
            self.weights.remove(&key);
            return;
        }
        self.weights.insert(key, weight);
        self.heap.push((weight, key));
        // Bound the stale backlog: past a small multiple of the live set,
        // rebuilding from the exact table is cheaper than carrying it. The
        // rebuild refills the heap's own buffer; the answer depends only on
        // the `(weight, key)` values, not on their order in it.
        if self.heap.len() > 64 + 4 * self.weights.len() {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.clear();
            entries.extend(self.weights.iter().map(|(&k, &w)| (w, k)));
            self.heap = BinaryHeap::from(entries);
        }
    }

    /// The key with the largest current weight (ties: largest key), or
    /// `None` if every queue is empty. Amortized O(log n): each stale heap
    /// entry is discarded exactly once.
    pub(crate) fn longest(&mut self) -> Option<u64> {
        while let Some(&(w, k)) = self.heap.peek() {
            if self.weights.get(&k) == Some(&w) {
                return Some(k);
            }
            self.heap.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn tracks_max_under_updates() {
        let mut t = LongestTracker::new();
        assert_eq!(t.longest(), None);
        t.set(3, 5);
        t.set(7, 2);
        assert_eq!(t.longest(), Some(3));
        t.set(7, 9);
        assert_eq!(t.longest(), Some(7));
        // Shrinking the current max falls back to the runner-up.
        t.set(7, 1);
        assert_eq!(t.longest(), Some(3));
        t.set(3, 0);
        assert_eq!(t.longest(), Some(7));
        t.set(7, 0);
        assert_eq!(t.longest(), None);
    }

    #[test]
    fn ties_resolve_to_the_largest_key() {
        let mut t = LongestTracker::new();
        for k in 0..10u64 {
            t.set(k, 4);
        }
        assert_eq!(t.longest(), Some(9), "matches max_by_key's last-max rule");
        t.set(9, 0);
        assert_eq!(t.longest(), Some(8));
    }

    /// Deterministic pseudo-random churn over `keys` keys, cross-checked
    /// against a direct max scan every `check_every` updates. Returns how
    /// many times `set` rebuilt the heap (the one way a push leaves the
    /// heap no longer than before).
    fn churn_against_a_naive_scan(keys: u64, steps: usize, check_every: usize) -> usize {
        let mut t = LongestTracker::new();
        let mut naive: HashMap<u64, u64> = HashMap::new();
        let mut state = 0x9e37_79b9u64;
        let mut rebuilds = 0;
        for step in 0..steps {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % keys;
            let weight = (state >> 8) % 16;
            let before = t.heap.len();
            t.set(key, weight);
            if weight != 0 && t.heap.len() <= before {
                rebuilds += 1;
            }
            if weight == 0 {
                naive.remove(&key);
            } else {
                naive.insert(key, weight);
            }
            if step % check_every == 0 {
                let expect = naive.iter().map(|(&k, &w)| (w, k)).max().map(|(_, k)| k);
                assert_eq!(t.longest(), expect);
            }
        }
        rebuilds
    }

    #[test]
    fn matches_a_naive_scan_under_churn() {
        churn_against_a_naive_scan(32, 10_000, 1);
    }

    #[test]
    fn matches_a_naive_scan_across_thousands_of_rebuilds() {
        // At most two live keys keep the rebuild threshold at 72 entries;
        // sparse lookups leave the stale entries to pile up between them.
        let rebuilds = churn_against_a_naive_scan(2, 300_000, 16);
        assert!(rebuilds >= 1_000, "only {rebuilds} rebuilds");
    }
}
