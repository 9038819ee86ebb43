//! Ready-made worlds that the repository benchmark, the runtime tests and
//! the examples build. The paper's other figure worlds live in
//! `bundler-bench`, beside the printers of their tables.
//!
//! Each scenario owns its workload generation (seeded, deterministic) and
//! exposes a builder so the benchmark harness and the examples can scale the
//! experiment up or down without duplicating setup code.
//!
//! | Module | What it builds |
//! |---|---|
//! | [`fct`] | Figure 9's request world (also Figures 14, 15 and the §7.2/§7.4 tables) — FCT/slowdown comparisons |
//! | [`many_sites`] | Beyond the paper: one site edge driving K bundles through the `bundler-agent` control plane; also the per-site world (flow ids, site RNG, requests and staggered bulk flows, fair-share agent edge) that `hot_bundle` and `metro` build on |
//! | [`hot_bundle`] | Beyond the paper: heavy-tailed site-pair load — one bundle carries ~50 % of flows (the sharded runtime's balancing workload) |
//! | [`metro`] | Beyond the paper: metro-scale background load, packet- or fluid-tier (`CrossTrafficTier` knob) |

pub mod fct;
pub mod hot_bundle;
pub mod many_sites;
pub mod metro;
