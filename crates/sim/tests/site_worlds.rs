//! Pins four generators: each case's configuration and workload
//! fingerprint and its spec count. The three multi-site generators share
//! one per-site world (id layout, site RNG, request loop, bulk stagger and
//! agent edge), and every generator here draws its request sizes from the
//! built-in size distribution, so a moved pin here is a behaviour change in
//! every world built on them, not something to re-pin.

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
        (0x8ad7_67c2_2d4e_9167, 2_000)
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
        (0x43e8_d01b_c097_30fd, 1_015)
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
        (0xbc2b_2b37_29b6_f90a, 609)
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
        (0x2d67_10b0_6176_2a76, 280)
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
        (0xb5ed_67e6_9048_3f50, 549)
    );
}
