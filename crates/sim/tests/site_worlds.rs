//! Pins four generators: each case's configuration and workload
//! fingerprint and its spec count. The three multi-site generators share
//! one per-site world (id layout, site RNG, request loop, bulk stagger and
//! agent edge), and every generator here draws its request sizes from the
//! built-in size distribution, so a moved pin here is a behaviour change in
//! every world built on them, not something to re-pin.
//!
//! The one exception: the fingerprint hashes the config's `Debug` text, so a
//! pin also moves when a config type's field list changes. Such a change
//! moves only bytes 20–27 of a checkpoint, and an older snapshot is refused
//! with `SnapshotError::FingerprintMismatch` rather than misread: it needs no
//! `snapshot::VERSION` bump, but its record must show that no other checkpoint
//! byte moved.

use bundler_sim::fluid::CrossTrafficTier;
use bundler_sim::scenario::fct::{FctScenario, SendboxMode};
use bundler_sim::scenario::hot_bundle::HotBundleScenario;
use bundler_sim::scenario::many_sites::ManySitesScenario;
use bundler_sim::scenario::metro::MetroScenario;
use bundler_sim::sim::SimulationConfig;
use bundler_sim::snapshot;
use bundler_sim::workload::FlowSpec;
use bundler_types::{Duration, Rate};

fn pin(config: &SimulationConfig, workload: &[FlowSpec]) -> (u64, usize) {
    (snapshot::fingerprint(config, workload), workload.len())
}

#[test]
fn fig9_world_is_pinned() {
    let sc = |mode| {
        FctScenario::builder()
            .requests(2_000)
            .seed(15)
            .mode(mode)
            .build()
    };
    let sfq = sc(SendboxMode::BundlerSfq);
    assert_eq!(
        pin(&sfq.sim_config(), &sfq.workload()),
        (0x90dc_f44c_a204_4480, 2_000)
    );
    let quo = sc(SendboxMode::StatusQuo);
    assert_eq!(
        pin(&quo.sim_config(), &quo.workload()),
        (0xe851_4c30_c888_f03d, 2_000)
    );
}

#[test]
fn many_sites_world_is_pinned() {
    let sc = ManySitesScenario::builder()
        .sites(5)
        .requests_per_site(200)
        .bulk_flows_per_site(3)
        .seed(11)
        .build();
    assert_eq!(
        pin(&sc.sim_config(), &sc.workload()),
        (0x9fcf_b446_8953_9d0f, 1_015)
    );
}

#[test]
fn hot_bundle_world_is_pinned() {
    let sc = HotBundleScenario::builder()
        .sites(7)
        .requests_per_cold_site(50)
        .offered_load_per_cold_site(Rate::from_mbps(6))
        .bottleneck(Rate::from_mbps(84))
        .drain(Duration::from_secs(2))
        .seed(12)
        .build();
    assert_eq!(
        pin(&sc.sim_config(), &sc.workload()),
        (0x76f2_9571_805c_5ae8, 609)
    );
}

#[test]
fn metro_packet_tier_world_is_pinned() {
    let sc = MetroScenario::builder()
        .sites(4)
        .users_per_site(9)
        .requests_per_site(60)
        .tier(CrossTrafficTier::Packet)
        .seed(13)
        .build();
    assert_eq!(
        pin(&sc.sim_config(), &sc.workload()),
        (0x181e_256c_2c2e_8289, 280)
    );
}

#[test]
fn metro_fluid_tier_world_is_pinned() {
    // The fingerprint covers the fluid aggregates through `cross_traffic`.
    let sc = MetroScenario::builder()
        .sites(9)
        .users_per_site(1000)
        .requests_per_site(60)
        .tier(CrossTrafficTier::Fluid)
        .seed(14)
        .build();
    assert_eq!(
        pin(&sc.sim_config(), &sc.workload()),
        (0x0f75_b640_b3f5_bc56, 549)
    );
}
