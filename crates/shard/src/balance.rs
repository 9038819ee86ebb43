//! Bundle-to-shard placement: classification co-location groups and the
//! shard-0 pin, decided once when a windowed run's cores are built.
//!
//! # Why any placement is legal
//!
//! Results are partition-invariant by construction (canonical event keys;
//! see the crate docs), so placement never has to be *right* — only
//! deterministic. It is fixed for the whole run: a bundle changes worker
//! only when a checkpoint is restored at another shard count, and the
//! restoring run places it by this same rule.
//!
//! # Co-location groups
//!
//! A flow's sendbox state lives where the flow's *origin* LP lives, but a
//! packet reaches a sendbox by longest-prefix classification. The two
//! agree for every built-in scenario (a flow's destination lies inside its
//! own bundle's prefix); when a workload makes bundle `b`'s flows classify
//! into bundle `c`, the two bundles must share a shard — so placement is
//! by *whole groups* (the union-find closure of such edges), and a group
//! classified-to by direct cross traffic is pinned to shard 0, where the
//! direct LP lives. Every other group goes to its leader (smallest member
//! index) modulo the shard count: plain `bundle % shards` when every group
//! is a singleton (every built-in world).

use bundler_sim::sim::SimulationConfig;
use bundler_sim::workload::{FlowSpec, Origin};
use bundler_types::Nanos;

/// The worker shard of each bundle (by global index) for a run of
/// `config` over `workload` on `shards` workers.
pub fn placement(config: &SimulationConfig, workload: &[FlowSpec], shards: usize) -> Vec<usize> {
    let n = config.n_bundles();
    let mut parent: Vec<usize> = (0..n).collect();
    let mut pinned_to_direct: Vec<usize> = Vec::new();
    if let Some(specs) = &config.multi_bundle {
        let mut full = bundler_agent::SiteAgent::default();
        for spec in specs {
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
    // Group leader = smallest member index, so placement is independent of
    // union order. `union` keeps the smaller root, so each root is its
    // group's smallest member.
    let leader: Vec<usize> = (0..n).map(|b| find(&mut parent, b)).collect();
    let mut pinned = vec![false; n];
    for c in pinned_to_direct {
        pinned[leader[c]] = true;
    }
    (0..n)
        .map(|b| {
            if pinned[leader[b]] {
                0
            } else {
                leader[b] % shards
            }
        })
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_groups_place_round_robin() {
        let config = SimulationConfig {
            bundles: vec![bundler_sim::edge::BundleMode::StatusQuo; 5],
            ..Default::default()
        };
        assert_eq!(placement(&config, &[], 2), [0, 1, 0, 1, 0]);
        assert_eq!(placement(&config, &[], 3), [0, 1, 2, 0, 1]);
    }
}
