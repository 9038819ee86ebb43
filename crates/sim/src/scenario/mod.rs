//! Ready-made experiment scenarios, one per figure or table of the paper.
//!
//! Each scenario owns its workload generation (seeded, deterministic) and
//! exposes a builder so the benchmark harness and the examples can scale the
//! experiment up or down without duplicating setup code.
//!
//! | Module | Paper result |
//! |---|---|
//! | [`queue_shift`] | Figure 2 — queues move from the bottleneck to the sendbox |
//! | [`estimation`] | Figures 5 & 6 — receive-rate and RTT estimation accuracy |
//! | [`multipath`] | Figure 7 & §7.6 — out-of-order fraction under imbalanced paths |
//! | [`fct`] | Figures 9, 14, 15 and the §7.2/§7.4 tables — FCT/slowdown comparisons |
//! | [`cross_traffic`] | Figures 10–13 — behaviour under cross traffic and competing bundles |
//! | [`many_sites`] | Beyond the paper: one site edge driving K bundles through the `bundler-agent` control plane; also the per-site world (flow ids, site RNG, requests and staggered bulk flows, fair-share agent edge) that `hot_bundle` and `metro` build on |
//! | [`hot_bundle`] | Beyond the paper: heavy-tailed site-pair load — one bundle carries ~50 % of flows (the sharded runtime's balancing workload) |
//! | [`metro`] | Beyond the paper: metro-scale background load, packet- or fluid-tier (`CrossTrafficTier` knob) |

pub mod cross_traffic;
pub mod estimation;
pub mod fct;
pub mod hot_bundle;
pub mod many_sites;
pub mod metro;
pub mod multipath;
pub mod queue_shift;
