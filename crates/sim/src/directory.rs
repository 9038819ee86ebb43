//! The flow directory: a run's workload and every flow id it names, built
//! once before the run and read by every core of it.
//!
//! The directory owns the run's one copy of the specs, in workload order
//! (an `Event::FlowArrival` names its spec by that index); the snapshot
//! fingerprint and the sharded balancer read them here too.
//!
//! Each id of the workload gets a dense *position* (its rank among the
//! workload's ids, so ascending positions are ascending ids), the LP its
//! spec's origin names and the index of that spec. Ids are stored as
//! maximal runs of consecutive values, so a lookup is one binary search
//! over the run starts plus one subtraction: the Fig. 9 request stream
//! (`0..n`) is one run, and the multi-site scenarios (`site × 1 000 000 +
//! i`, then the reserved offsets) are a few runs per site. Arbitrary sparse
//! ids are runs of one, and the same search is then a plain binary search
//! over the ids — one code path for every id set.
//!
//! Each LP also gets the list of its own positions, ascending, built once
//! here, so a snapshot section walks only its LP's flows, not the whole
//! directory. The list is kept as ranges of consecutive positions: a
//! multi-site workload's ids come in per-site blocks, so an LP is a few
//! ranges and the lists cost next to nothing to build or hold.

use bundler_types::FlowId;

use crate::runtime::origin_lp;
use crate::workload::FlowSpec;

/// `len` consecutive ids from `first`, at positions `pos..pos + len`.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: u64,
    pos: u32,
    len: u32,
}

/// A workload's specs, and every flow id of it by position with the LP its
/// spec names. Immutable once built; the single-threaded engine's worker,
/// and the sharded host's workers and net threads, share one.
#[derive(Debug)]
pub struct FlowDirectory {
    /// The workload, in the order it was given.
    specs: Vec<FlowSpec>,
    /// Ascending by `first`; no two runs touch, so each is maximal.
    runs: Vec<Run>,
    /// The LP of the spec at each position.
    lps: Vec<u16>,
    /// The workload index of the spec at each position.
    spec_at: Vec<u32>,
    /// Every position, as maximal ranges `(first, count)` of consecutive
    /// positions of one LP, grouped by LP and ascending within each group:
    /// LP `lp`'s ranges are `lp_ranges[lp_starts[lp]..lp_starts[lp + 1]]`.
    lp_ranges: Vec<(u32, u32)>,
    lp_starts: Vec<u32>,
}

impl FlowDirectory {
    /// Builds the directory of `workload`'s ids, in any order, keeping the
    /// workload. Panics, naming the id, if two specs share one: every
    /// lookup of it would hand one flow's state to the other's packets.
    pub fn new(workload: Vec<FlowSpec>) -> Self {
        let mut ids: Vec<(u64, u16, u32)> = workload
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let i = u32::try_from(i).expect("fewer than 2^32 flows");
                (spec.id.0, origin_lp(spec.origin), i)
            })
            .collect();
        ids.sort_unstable_by_key(|&(id, ..)| id);
        let mut runs: Vec<Run> = Vec::new();
        for (pos, &(id, ..)) in ids.iter().enumerate() {
            let pos = u32::try_from(pos).expect("fewer than 2^32 flows");
            // `id` repeats the last id so far, extends its run or starts
            // one; past the first arm the last id is below `id`, so its
            // successor cannot overflow.
            match runs.last_mut() {
                Some(run) if run.first + u64::from(run.len - 1) == id => {
                    panic!("two workload specs share flow id {id}")
                }
                Some(run) if run.first + u64::from(run.len) == id => run.len += 1,
                _ => runs.push(Run {
                    first: id,
                    pos,
                    len: 1,
                }),
            }
        }
        let (lps, spec_at): (Vec<u16>, Vec<u32>) =
            ids.into_iter().map(|(_, lp, i)| (lp, i)).unzip();
        // The ranges in position order, then a counting sort of them by LP:
        // stable, so each LP's ranges stay ascending.
        let mut ranges: Vec<(u16, u32, u32)> = Vec::new();
        for (pos, &lp) in lps.iter().enumerate() {
            match ranges.last_mut() {
                Some((last, _, count)) if *last == lp => *count += 1,
                _ => ranges.push((lp, pos as u32, 1)),
            }
        }
        let n_lps = lps.iter().max().map_or(0, |&lp| usize::from(lp) + 1);
        let mut lp_starts = vec![0u32; n_lps + 1];
        for &(lp, ..) in &ranges {
            lp_starts[usize::from(lp) + 1] += 1;
        }
        for lp in 0..n_lps {
            lp_starts[lp + 1] += lp_starts[lp];
        }
        let mut next = lp_starts.clone();
        let mut lp_ranges = vec![(0, 0); ranges.len()];
        for (lp, first, count) in ranges {
            lp_ranges[next[usize::from(lp)] as usize] = (first, count);
            next[usize::from(lp)] += 1;
        }
        FlowDirectory {
            specs: workload,
            runs,
            lps,
            spec_at,
            lp_ranges,
            lp_starts,
        }
    }

    /// The workload, in the order it was given.
    pub fn specs(&self) -> &[FlowSpec] {
        &self.specs
    }

    /// How many ids the workload names.
    pub fn len(&self) -> usize {
        self.lps.len()
    }

    /// The position of `id`, or `None` if the workload does not name it.
    #[inline]
    pub fn position(&self, id: FlowId) -> Option<usize> {
        let r = self.runs.partition_point(|run| run.first <= id.0);
        let run = self.runs[r.checked_sub(1)?];
        let offset = id.0 - run.first;
        (offset < u64::from(run.len)).then(|| run.pos as usize + offset as usize)
    }

    /// The LP of the flow at `pos`.
    #[inline]
    pub fn lp_at(&self, pos: usize) -> u16 {
        self.lps[pos]
    }

    /// The spec of flow `id`, or `None` if the workload does not name it.
    #[inline]
    pub fn spec_of(&self, id: FlowId) -> Option<&FlowSpec> {
        let pos = self.position(id)?;
        Some(&self.specs[self.spec_at[pos] as usize])
    }

    /// The LP of flow `id`, or `None` if the workload does not name it.
    #[inline]
    pub fn lp_of(&self, id: FlowId) -> Option<u16> {
        self.position(id).map(|pos| self.lp_at(pos))
    }

    /// Every `(position, id)` of LP `lp`'s flows, in ascending order of
    /// both: a walk of the LP's own positions, with a cursor over the runs
    /// that only moves forward.
    pub fn iter_lp(&self, lp: u16) -> impl Iterator<Item = (usize, FlowId)> + '_ {
        let lp = usize::from(lp);
        let ranges = match (self.lp_starts.get(lp), self.lp_starts.get(lp + 1)) {
            (Some(&start), Some(&end)) => &self.lp_ranges[start as usize..end as usize],
            _ => &[],
        };
        let mut r = 0;
        let positions = ranges
            .iter()
            .flat_map(|&(first, count)| first..first + count);
        positions.map(move |pos| {
            while self.runs[r].pos + self.runs[r].len <= pos {
                r += 1;
            }
            let run = self.runs[r];
            (pos as usize, FlowId(run.first + u64::from(pos - run.pos)))
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use bundler_types::Nanos;
    use proptest::prelude::*;

    use super::*;
    use crate::runtime::{lp_origin, LP_BUNDLE0};

    /// Every `(position, id)` of `dir`, read off its runs: ascending in
    /// both.
    fn walk(dir: &FlowDirectory) -> Vec<(usize, FlowId)> {
        let run_ids = |&run: &Run| {
            (0..run.len).map(move |d| ((run.pos + d) as usize, FlowId(run.first + u64::from(d))))
        };
        dir.runs.iter().flat_map(run_ids).collect()
    }

    fn spec(id: u64, pick: u8) -> FlowSpec {
        match pick % 4 {
            0 => FlowSpec::direct(id, 1, Nanos::ZERO),
            b => FlowSpec::bundled(id, 1, Nanos::ZERO, b as usize - 1),
        }
    }

    /// A workload of distinct ids in a scrambled order: dense `0..dense`,
    /// per-site requests with the reserved offsets of the multi-site
    /// scenarios (`+ 500 000 + u`, `+ 900 000 + j`), isolated singletons,
    /// and the two ends of the id space.
    fn workload(dense: u64, sites: u64, requests: u64, singles: &[u64], ends: u8) -> Vec<u64> {
        let mut ids: Vec<u64> = (0..dense).collect();
        for site in 0..sites {
            let base = 2_000_000 + site * 1_000_000;
            ids.extend((0..requests).map(|i| base + i));
            ids.extend((0..site % 3).map(|u| base + 500_000 + u));
            ids.extend((0..=site % 2).map(|j| base + 900_000 + j));
        }
        ids.extend(singles.iter().map(|s| (1 << 40) | (s << 3)));
        if ends & 1 != 0 {
            ids.push(0);
        }
        if ends & 2 != 0 {
            ids.push(u64::MAX);
        }
        ids.sort_unstable();
        ids.dedup();
        // Unsorted input: the directory must not rely on the order.
        let third = ids.len() / 3;
        ids.reverse();
        ids.rotate_left(third);
        ids
    }

    proptest! {
        #[test]
        fn directory_agrees_with_a_btree_map(
            (dense, sites, requests, ends) in (0u64..40, 0u64..4, 0u64..12, 0u8..4),
            singles in collection::vec(0u64..64, 0..6),
            picks in collection::vec(any::<u8>(), 1..8),
        ) {
            let ids = workload(dense, sites, requests, &singles, ends);
            let specs: Vec<FlowSpec> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| spec(id, picks[i % picks.len()]))
                .collect();
            let oracle: BTreeMap<u64, u16> =
                specs.iter().map(|s| (s.id.0, origin_lp(s.origin))).collect();
            let dir = FlowDirectory::new(specs.clone());
            prop_assert_eq!(dir.specs(), &specs[..]);
            prop_assert_eq!(dir.len(), oracle.len());
            // Every member sits at its rank, with its spec and its LP.
            for (rank, (&id, &lp)) in oracle.iter().enumerate() {
                prop_assert_eq!(dir.position(FlowId(id)), Some(rank));
                prop_assert_eq!(dir.lp_of(FlowId(id)), Some(lp));
                let spec = specs.iter().find(|s| s.id.0 == id);
                prop_assert_eq!(dir.spec_of(FlowId(id)), spec);
                prop_assert_eq!(origin_lp(lp_origin(lp)), lp);
            }
            // Ids before, between and after the runs are refused.
            for &id in oracle.keys() {
                for probe in [id.wrapping_sub(1), id.wrapping_add(1), id ^ (1 << 50)] {
                    prop_assert_eq!(dir.position(FlowId(probe)).is_some(), oracle.contains_key(&probe));
                    prop_assert_eq!(dir.spec_of(FlowId(probe)).is_some(), oracle.contains_key(&probe));
                }
            }
            // The walk is ascending in position and id alike.
            let walked: Vec<(usize, u64)> = walk(&dir).into_iter().map(|(pos, id)| (pos, id.0)).collect();
            let expected: Vec<(usize, u64)> = oracle.keys().copied().enumerate().collect();
            prop_assert_eq!(walked, expected);
        }

        /// The per-LP walks partition the whole walk: each is ascending,
        /// names only its LP's flows, and together they list every
        /// `(position, id)` exactly once.
        #[test]
        fn per_lp_walks_partition_the_directory(
            (dense, sites, requests, ends) in (0u64..40, 0u64..4, 0u64..12, 0u8..4),
            singles in collection::vec(0u64..64, 0..6),
            picks in collection::vec(any::<u8>(), 1..8),
        ) {
            let ids = workload(dense, sites, requests, &singles, ends);
            let specs: Vec<FlowSpec> = ids
                .iter()
                .enumerate()
                .map(|(i, &id)| spec(id, picks[i % picks.len()]))
                .collect();
            let dir = FlowDirectory::new(specs);
            let mut union: Vec<(usize, FlowId)> = Vec::new();
            // Two LPs past the largest one used: an LP with no flows walks
            // nothing.
            for lp in 0..=LP_BUNDLE0 + 4 {
                let walk: Vec<(usize, FlowId)> = dir.iter_lp(lp).collect();
                prop_assert!(walk.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 < w[1].1));
                for &(pos, id) in &walk {
                    prop_assert_eq!(dir.lp_at(pos), lp);
                    prop_assert_eq!(dir.position(id), Some(pos));
                }
                union.extend(walk);
            }
            union.sort_unstable();
            prop_assert_eq!(union, walk(&dir));
        }
    }

    #[test]
    fn an_empty_workload_names_nothing() {
        let dir = FlowDirectory::new(Vec::new());
        assert_eq!(dir.len(), 0);
        assert_eq!(dir.position(FlowId(0)), None);
        assert!(walk(&dir).is_empty());
    }

    #[test]
    fn the_fig9_stream_is_one_run_and_a_site_two() {
        let dense: Vec<FlowSpec> = (0..1000).map(|i| spec(i, 0)).collect();
        let dense = FlowDirectory::new(dense);
        assert_eq!((dense.runs.len(), dense.lp_ranges.len()), (1, 1));
        let site: Vec<FlowSpec> = (0..100)
            .map(|i| spec(3_000_000 + i, 1))
            .chain((0..2).map(|j| spec(3_900_000 + j, 1)))
            .collect();
        let site = FlowDirectory::new(site);
        assert_eq!((site.runs.len(), site.lp_ranges.len()), (2, 1));
    }

    #[test]
    #[should_panic(expected = "two workload specs share flow id 7")]
    fn two_specs_sharing_an_id_are_refused() {
        FlowDirectory::new(vec![spec(7, 0), spec(8, 1), spec(7, 2)]);
    }
}
