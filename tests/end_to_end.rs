//! Cross-crate integration tests: exercise the full pipeline (workload →
//! endhosts → sendbox → bottleneck → receivebox → feedback) through the
//! public facade crate.

use bundler::cc::nimbus::{CrossTrafficVerdict, ElasticityDetector};
use bundler::cc::Measurement;
use bundler::core::feedback::BundleId;
use bundler::core::{BundlerConfig, Receivebox, Sendbox};
use bundler::sched::Policy;
use bundler::sim::edge::BundleMode;
use bundler::sim::scenario::fct::{FctScenario, SendboxMode};
use bundler::sim::sim::{Simulation, SimulationConfig};
use bundler::sim::workload::{FlowSizeDist, FlowSpec};
use bundler::types::{flow::ipv4, Duration, FlowId, FlowKey, Nanos, Packet, Rate};

#[test]
fn facade_reexports_compose() {
    // Build a sendbox/receivebox pair straight from the facade and push a
    // few packets through the epoch machinery.
    let config = BundlerConfig {
        initial_epoch_size: 1,
        ..Default::default()
    };
    let mut sendbox = Sendbox::new(BundleId(0), config).expect("valid config");
    let mut receivebox = Receivebox::new(BundleId(0), 1);
    let key = FlowKey::tcp(ipv4(10, 0, 0, 1), 777, ipv4(10, 1, 0, 1), 443);
    for i in 0..50u16 {
        let pkt = Packet::data(
            FlowId(1),
            key,
            i as u64 * 1460,
            1460,
            Nanos::from_millis(i as u64),
        )
        .with_ip_id(i);
        assert!(sendbox.on_packet_forwarded(&pkt, Nanos::from_millis(i as u64)));
        let ack = receivebox
            .on_packet(&pkt, Nanos::from_millis(i as u64 + 25))
            .expect("boundary");
        sendbox.on_congestion_ack(&ack, Nanos::from_millis(i as u64 + 50));
    }
    assert_eq!(sendbox.min_rtt(), Some(Duration::from_millis(50)));
    assert_eq!(sendbox.stats().boundaries, 50);
    assert_eq!(receivebox.stats().acks_sent, 50);
}

#[test]
fn schedulers_are_usable_through_the_facade() {
    let key = FlowKey::tcp(ipv4(10, 0, 0, 1), 1000, ipv4(10, 1, 0, 1), 80);
    for policy in Policy::all() {
        let mut arena = bundler::types::PacketArena::new();
        let mut s = policy.build(64);
        for i in 0..10u64 {
            let p = Packet::data(FlowId(i), key, 0, 500, Nanos::ZERO).with_ip_id(i as u16);
            let id = arena.insert(p);
            s.enqueue(id, &mut arena, Nanos::ZERO);
        }
        let mut n = 0;
        while let Some(id) = s.dequeue(&mut arena, Nanos::from_millis(1)) {
            arena.free(id);
            n += 1;
        }
        assert_eq!(n, 10, "{policy} should drain all packets");
        assert!(arena.is_empty());
    }
}

#[test]
fn small_simulation_runs_deterministically_via_facade() {
    let mk = || {
        let config = SimulationConfig {
            duration: Duration::from_secs(6),
            bottleneck_rate: Rate::from_mbps(24),
            rtt: Duration::from_millis(40),
            bundles: vec![BundleMode::Bundler(BundlerConfig::default())],
            ..Default::default()
        };
        let dist = FlowSizeDist::caida_like();
        let workload: Vec<FlowSpec> = (0..40)
            .map(|i| {
                FlowSpec::bundled(
                    i,
                    dist.quantile(i as f64 / 40.0),
                    Nanos::from_millis(i * 100),
                    0,
                )
            })
            .collect();
        Simulation::new(config, workload).run()
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.completed, b.completed);
    assert!(
        a.completed > 30,
        "most flows should complete, got {}",
        a.completed
    );
    let fa: Vec<u64> = a.fcts.iter().map(|f| f.fct.as_nanos()).collect();
    let fb: Vec<u64> = b.fcts.iter().map(|f| f.fct.as_nanos()).collect();
    assert_eq!(fa, fb);
}

#[test]
fn fct_scenario_headline_comparison_holds_at_small_scale() {
    let run = |mode| {
        FctScenario::builder()
            .requests(500)
            .seed(99)
            .offered_load(Rate::from_mbps(60))
            .background_bulk_flows(1)
            .mode(mode)
            .build()
            .run()
    };
    let quo = run(SendboxMode::StatusQuo);
    let bun = run(SendboxMode::BundlerSfq);
    let mut quo_small = quo.slowdowns_in_class(bundler::sim::stats::SizeClass::Small);
    let mut bun_small = bun.slowdowns_in_class(bundler::sim::stats::SizeClass::Small);
    let q = bundler::sim::stats::quantile(&mut quo_small, 0.5).unwrap();
    let b = bundler::sim::stats::quantile(&mut bun_small, 0.5).unwrap();
    // At this very small scale the status quo is barely congested, so allow
    // a statistical tie; the decisive comparison runs at bench scale
    // (fig09_fct_slowdown) and in bundler-sim's scenario tests.
    assert!(
        b <= q + 0.15,
        "bundler small-flow median {b:.2} vs status quo {q:.2}"
    );
}

#[test]
fn elasticity_detector_is_reachable_and_consistent() {
    let mut det = ElasticityDetector::new(Duration::from_millis(10));
    let mu = Rate::from_mbps(96);
    let mut verdict = CrossTrafficVerdict::Inelastic;
    for i in 0..200u64 {
        let m = Measurement {
            now: Nanos::from_millis(i * 10),
            rtt: Duration::from_millis(80),
            min_rtt: Duration::from_millis(50),
            send_rate: Rate::from_mbps(48),
            recv_rate: Rate::from_mbps(46),
            acked_bytes: 60_000,
            lost_samples: 0,
        };
        verdict = det.on_measurement(&m, mu);
    }
    assert_eq!(verdict, CrossTrafficVerdict::Elastic);
}
