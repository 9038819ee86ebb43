//! Bundle-to-shard assignment: classification co-location groups, the
//! deterministic greedy LPT bin-pack, and the per-window rebalancing
//! decisions behind [`ShardBalance::Rate`].
//!
//! # Why any assignment is legal
//!
//! Results are partition-invariant by construction (canonical event keys;
//! see the crate docs), so the balancer never has to be *right* — only
//! deterministic. It observes per-bundle handled-event counts published by
//! the workers at window barriers, and at every rebalancing boundary packs
//! bundle groups onto shards by the classic longest-processing-time
//! heuristic: sort groups by measured weight (heaviest first, ties by
//! smallest leader index), then place each on the least-loaded shard (ties
//! by smallest shard index). Pure integer arithmetic, no clocks, no
//! randomness: the same run always produces the same migration schedule.
//!
//! # Co-location groups
//!
//! A flow's sendbox state lives where the flow's *origin* LP lives, but a
//! packet reaches a sendbox by longest-prefix classification. The two
//! agree for every built-in scenario (a flow's destination lies inside its
//! own bundle's prefix); when a workload makes bundle `b`'s flows classify
//! into bundle `c`, the two bundles must share a shard — so the balancer
//! moves *whole groups* (the union-find closure of such edges), and a
//! group classified-to by direct cross traffic is pinned to shard 0, where
//! the direct LP lives. [`ShardBalance::RoundRobin`] cannot honour groups
//! (its placement is fixed), so it keeps PR 4's behaviour: reject such
//! workloads loudly rather than silently diverge.

use bundler_sim::runtime::Partition;
use bundler_sim::sim::{ShardBalance, SimulationConfig};
use bundler_sim::workload::{FlowSpec, Origin};
use bundler_types::Nanos;

/// How many windows between rate-aware rebalancing decisions. Windows are
/// ¼ of the base RTT (half the one-way lookahead), so
/// 32 windows average load over several ~10 ms control intervals — long
/// enough that bursty Poisson arrivals don't read as load swings — while
/// still reacting within a simulated second.
pub const REBALANCE_WINDOWS: u64 = 32;

/// Keep a rate-aware re-pack only if it improves the predicted makespan
/// (max shard load under measured weights) by more than 1/8 ≈ 12 %:
/// migration is cheap but not free, and re-packs chasing measurement
/// noise would only add barrier work.
const HYSTERESIS_SHIFT: u32 = 3;

/// One bundle move in a migration plan, applied at a window barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The bundle (global index) that migrates.
    pub bundle: usize,
    /// The shard that owns it now (and extracts it).
    pub from: usize,
    /// The shard that adopts it.
    pub to: usize,
}

/// The driver-side assignment state machine.
#[derive(Debug)]
pub struct Balancer {
    mode: ShardBalance,
    shards: usize,
    /// Co-location group leader (smallest member index) per bundle.
    leader: Vec<usize>,
    /// Bundles whose group is pinned to shard 0 (classified-to by direct
    /// cross traffic, which always lives there).
    pinned: Vec<bool>,
    /// Current bundle → shard assignment.
    assignment: Vec<usize>,
    /// Cumulative per-bundle event counts at the last decision.
    last_counts: Vec<u64>,
    /// Rotation epoch ([`ShardBalance::Rotate`] only).
    epoch: u64,
}

impl Balancer {
    /// Computes co-location groups and the initial assignment. Panics (in
    /// round-robin mode) on workloads whose classification graph cannot be
    /// partitioned by `bundle % shards` — exactly PR 4's validation.
    pub fn new(config: &SimulationConfig, workload: &[FlowSpec], shards: usize) -> Balancer {
        let n = config.n_bundles();
        let mut parent: Vec<usize> = (0..n).collect();
        let mut pinned_to_direct: Vec<usize> = Vec::new();
        if let Some(mode) = &config.multi_bundle {
            let mut full = bundler_agent::SiteAgent::new(mode.agent);
            for spec in &mode.specs {
                full.add_bundle(&spec.prefixes, spec.config, Nanos::ZERO)
                    .expect("invalid multi-bundle specs");
            }
            for spec in workload {
                let key = bundler_sim::runtime::flow_key(spec.id.0, spec.origin);
                let Some(c) = full.classify(&key) else {
                    continue;
                };
                match spec.origin {
                    Origin::Bundle(b) if b != c => union(&mut parent, b, c),
                    Origin::Bundle(_) => {}
                    Origin::Direct => pinned_to_direct.push(c),
                }
            }
        }
        // Group leader = smallest member index, so ordering and placement
        // are independent of union order.
        let mut leader: Vec<usize> = (0..n).collect();
        for b in 0..n {
            let root = find(&mut parent, b);
            if b < leader[root] {
                leader[root] = b;
            }
        }
        let leader: Vec<usize> = (0..n).map(|b| leader[find(&mut parent, b)]).collect();
        let mut pinned = vec![false; n];
        for c in pinned_to_direct {
            let l = leader[c];
            for b in 0..n {
                if leader[b] == l {
                    pinned[b] = true;
                }
            }
        }
        let assignment: Vec<usize> = match mode_of(config) {
            ShardBalance::RoundRobin => {
                validate_round_robin(config, workload, shards);
                (0..n).map(|b| b % shards).collect()
            }
            // Adaptive modes start from round-robin over group leaders:
            // identical to plain round-robin when every group is a
            // singleton (all built-in scenarios), and group-respecting
            // otherwise.
            ShardBalance::Rate | ShardBalance::Rotate => (0..n)
                .map(|b| if pinned[b] { 0 } else { leader[b] % shards })
                .collect(),
        };
        Balancer {
            mode: mode_of(config),
            shards,
            leader,
            pinned,
            assignment,
            last_counts: vec![0; n],
            epoch: 0,
        }
    }

    /// The current bundle → shard assignment.
    pub fn assignment(&self) -> &[usize] {
        &self.assignment
    }

    /// Decides the migration plan to apply at the barrier *entering*
    /// window `windex`, given the cumulative per-bundle event counts
    /// published at the end of window `windex - 1`. Returns the moves (and
    /// updates the internal assignment); an empty plan means the window
    /// starts without a migration phase.
    pub fn decide(&mut self, windex: u64, counts: &[u64]) -> Vec<Move> {
        let n = self.assignment.len();
        let interval = match self.mode {
            ShardBalance::RoundRobin => return Vec::new(),
            ShardBalance::Rotate => 1,
            ShardBalance::Rate => REBALANCE_WINDOWS,
        };
        if windex == 0 || !windex.is_multiple_of(interval) {
            return Vec::new();
        }
        let new_assignment: Vec<usize> = match self.mode {
            ShardBalance::Rotate => {
                // Worst-case churn on purpose: every unpinned group hops to
                // the next shard, every boundary.
                self.epoch += 1;
                (0..n)
                    .map(|b| {
                        if self.pinned[b] {
                            0
                        } else {
                            (self.leader[b] + self.epoch as usize) % self.shards
                        }
                    })
                    .collect()
            }
            ShardBalance::Rate => {
                let deltas: Vec<u64> = (0..n)
                    .map(|b| counts[b].saturating_sub(self.last_counts[b]))
                    .collect();
                self.last_counts = counts.to_vec();
                // Imbalance gate: if the incumbent assignment is already
                // within 1/8 of a perfect split, there is nothing worth
                // migrating for — a re-pack could only chase measurement
                // noise. (Makespan can never go below total/shards.)
                let total: u64 = deltas.iter().sum();
                let current_span = makespan(&self.assignment, &deltas, self.shards);
                if (current_span as u128) * (self.shards as u128) * 8 <= (total as u128) * 9 {
                    return Vec::new();
                }
                // Group weights, keyed by leader.
                let mut weight = vec![0u64; n];
                let mut preload0 = 0u64;
                for b in 0..n {
                    if self.pinned[b] {
                        preload0 += deltas[b];
                    } else {
                        weight[self.leader[b]] += deltas[b];
                    }
                }
                let groups: Vec<(usize, u64)> = (0..n)
                    .filter(|&b| self.leader[b] == b && !self.pinned[b])
                    .map(|b| (b, weight[b]))
                    .collect();
                let group_to_shard = lpt_pack(&groups, self.shards, preload0);
                let packed: Vec<usize> = (0..n)
                    .map(|b| {
                        if self.pinned[b] {
                            0
                        } else {
                            group_to_shard[self.leader[b]]
                        }
                    })
                    .collect();
                // Hysteresis: only migrate when the predicted makespan
                // improves enough to matter.
                let packed_span = makespan(&packed, &deltas, self.shards);
                if packed_span + (packed_span >> HYSTERESIS_SHIFT) >= current_span {
                    return Vec::new();
                }
                packed
            }
            ShardBalance::RoundRobin => unreachable!("returned above"),
        };
        let mut moves = Vec::new();
        for (b, (&to, &from)) in new_assignment.iter().zip(&self.assignment).enumerate() {
            if to != from {
                moves.push(Move {
                    bundle: b,
                    from,
                    to,
                });
            }
        }
        self.assignment = new_assignment;
        moves
    }
}

fn mode_of(config: &SimulationConfig) -> ShardBalance {
    config.balance
}

/// The max shard load if `weights` run under `assignment`.
fn makespan(assignment: &[usize], weights: &[u64], shards: usize) -> u64 {
    let mut load = vec![0u64; shards];
    for (b, &s) in assignment.iter().enumerate() {
        load[s] += weights[b];
    }
    load.into_iter().max().unwrap_or(0)
}

/// Deterministic longest-processing-time bin-pack: `groups` are
/// `(leader, weight)` pairs; returns a leader-indexed shard map (entries
/// for non-leaders are unspecified). Shard 0 starts preloaded with
/// `preload0` (the pinned groups' weight). Groups are placed heaviest
/// first (ties by smaller leader) onto the least-loaded shard (ties by
/// smaller shard index) — the textbook 4/3-approximation, and a pure
/// function of its inputs.
pub fn lpt_pack(groups: &[(usize, u64)], shards: usize, preload0: u64) -> Vec<usize> {
    let n = groups.iter().map(|&(l, _)| l + 1).max().unwrap_or(0);
    let mut order: Vec<(usize, u64)> = groups.to_vec();
    order.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let mut load = vec![0u64; shards];
    load[0] = preload0;
    let mut out = vec![0usize; n];
    for (l, w) in order {
        let mut best = 0;
        for s in 1..shards {
            if load[s] < load[best] {
                best = s;
            }
        }
        load[best] += w;
        out[l] = best;
    }
    out
}

fn find(parent: &mut [usize], mut x: usize) -> usize {
    while parent[x] != x {
        parent[x] = parent[parent[x]];
        x = parent[x];
    }
    x
}

fn union(parent: &mut [usize], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        // Smaller root wins so leaders are stable under union order.
        let (lo, hi) = (ra.min(rb), ra.max(rb));
        parent[hi] = lo;
    }
}

/// Round-robin partitioning is sound only if every flow's destination
/// classifies (on the *full* prefix table) to a bundle living on the
/// flow's own shard — then each shard's partial table agrees with the
/// full one for the packets it sees. Site addressing guarantees this for
/// every built-in scenario; an adversarial config where one bundle's
/// more-specific prefix shadows another site's address space would
/// diverge *silently* from the single-threaded engine, so it is rejected
/// here instead. (The adaptive modes don't need this: they migrate whole
/// co-location groups.)
fn validate_round_robin(config: &SimulationConfig, workload: &[FlowSpec], shards: usize) {
    let Some(mode) = &config.multi_bundle else {
        // Classic mode routes by flow origin, never by prefix: any
        // partition is sound.
        return;
    };
    let mut full = bundler_agent::SiteAgent::new(mode.agent);
    for spec in &mode.specs {
        full.add_bundle(&spec.prefixes, spec.config, Nanos::ZERO)
            .expect("invalid multi-bundle specs");
    }
    for spec in workload {
        let key = bundler_sim::runtime::flow_key(spec.id.0, spec.origin);
        if let Some(c) = full.classify(&key) {
            let flow_worker =
                Partition::worker_of_lp(shards, bundler_sim::runtime::origin_lp(spec.origin));
            let class_worker =
                Partition::worker_of_lp(shards, bundler_sim::runtime::origin_lp(Origin::Bundle(c)));
            assert_eq!(
                flow_worker, class_worker,
                "workload cannot be partitioned across {shards} shards: flow {} \
                 (origin {:?}) classifies to bundle {c} on another shard — its \
                 sendbox state would diverge from the single-threaded engine \
                 (use ShardBalance::Rate, which co-locates such bundles)",
                spec.id.0, spec.origin,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The packer is a pure function: same inputs, same packing — and the
    /// packing is the textbook LPT order.
    #[test]
    fn lpt_pack_is_deterministic_and_balances() {
        let groups = vec![(0, 70u64), (1, 50), (2, 40), (3, 30), (4, 10)];
        let a = lpt_pack(&groups, 2, 0);
        let b = lpt_pack(&groups, 2, 0);
        assert_eq!(a, b, "same inputs must pack identically");
        // LPT: 70→s0, 50→s1, 40→s1 (40<70), 30→s0, 10→s1(s0=100,s1=90).
        assert_eq!(a, vec![0, 1, 1, 0, 1]);
        // Ties in weight break by smaller leader, ties in load by smaller
        // shard: all-equal weights alternate deterministically.
        let even = vec![(0, 5u64), (1, 5), (2, 5), (3, 5)];
        assert_eq!(lpt_pack(&even, 2, 0), vec![0, 1, 0, 1]);
        // A preload on shard 0 pushes the first placements elsewhere.
        assert_eq!(lpt_pack(&even, 2, 100), vec![1, 1, 1, 1]);
    }

    #[test]
    fn rate_decisions_only_fire_on_the_interval_and_with_real_improvement() {
        let config = SimulationConfig {
            bundles: vec![bundler_sim::edge::BundleMode::StatusQuo; 4],
            balance: ShardBalance::Rate,
            ..Default::default()
        };
        let mut b = Balancer::new(&config, &[], 2);
        assert_eq!(b.assignment(), &[0, 1, 0, 1]);
        // Off-interval windows never migrate.
        assert!(b.decide(1, &[100, 0, 0, 0]).is_empty());
        // A perfectly balanced measurement doesn't either (hysteresis).
        assert!(b.decide(REBALANCE_WINDOWS, &[10, 10, 10, 10]).is_empty());
        // A skewed period re-packs: deltas (500, 300, 200, 100) load the
        // round-robin split 700/400; LPT packs 600/500 (> 6 % better).
        // Counts are cumulative, so add the previous period's 10s.
        let moves = b.decide(2 * REBALANCE_WINDOWS, &[510, 310, 210, 110]);
        assert_eq!(
            moves,
            vec![
                Move {
                    bundle: 2,
                    from: 0,
                    to: 1
                },
                Move {
                    bundle: 3,
                    from: 1,
                    to: 0
                },
            ],
            "the hot shard sheds its second-heaviest bundle"
        );
        assert_eq!(b.assignment(), &[0, 1, 1, 0]);
        // An unchanged load pattern immediately after settles (no churn).
        assert!(b
            .decide(3 * REBALANCE_WINDOWS, &[1010, 610, 410, 210])
            .is_empty());
    }

    #[test]
    fn rotate_moves_every_bundle_every_window() {
        let config = SimulationConfig {
            bundles: vec![bundler_sim::edge::BundleMode::StatusQuo; 3],
            balance: ShardBalance::Rotate,
            ..Default::default()
        };
        let mut b = Balancer::new(&config, &[], 3);
        let before = b.assignment().to_vec();
        let moves = b.decide(1, &[0, 0, 0]);
        assert_eq!(moves.len(), 3, "every bundle moves");
        for (i, m) in moves.iter().enumerate() {
            assert_eq!(m.from, before[m.bundle]);
            assert_eq!(m.to, b.assignment()[m.bundle]);
            assert_eq!(m.bundle, moves[i].bundle);
        }
        let moves2 = b.decide(2, &[0, 0, 0]);
        assert_eq!(moves2.len(), 3, "and again at the next boundary");
    }
}
