//! PR 9 properties: flow-level causal tracing and the streaming export.
//!
//! * Streaming a run's trace must be **byte-identical** to the in-memory
//!   path (`ObsReport::to_jsonl`) after canonical sorting — same records,
//!   same order, same rendering.
//! * The portable flow records (admit → sendbox → bottleneck → end →
//!   health) must be invariant across shard counts.
//! * Flow tracing + streaming are pure outputs: digests never move.

use bundler_obs::stream::{self, StreamSink, StreamedRecord};
use bundler_obs::{FlowTrace, ObsLevel, TraceKind};
use bundler_sim::scenario::hot_bundle::HotBundleScenario;
use bundler_sim::scenario::many_sites::ManySitesScenario;
use bundler_sim::sim::SimulationConfig;
use bundler_sim::workload::FlowSpec;
use bundler_sim::{SimStats, Simulation};
use bundler_types::{Duration, Rate};

fn traced_many_sites(seed: u64) -> (SimulationConfig, Vec<FlowSpec>) {
    let sc = ManySitesScenario::builder()
        .sites(4)
        .requests_per_site(8)
        .offered_load_per_site(Rate::from_mbps(8))
        .bottleneck(Rate::from_mbps(60))
        .drain(Duration::from_secs(2))
        .seed(seed)
        .obs(ObsLevel::Full)
        .build();
    let mut config = sc.sim_config();
    config.flow_trace = Some(FlowTrace::all(seed));
    (config, sc.workload())
}

/// The portable identity of a record for cross-shard-count comparison:
/// shard and seq are placement-dependent, `(at, kind)` is not.
fn portable_keys(recs: &[StreamedRecord]) -> Vec<(u64, String)> {
    let mut keys: Vec<(u64, String)> = recs
        .iter()
        .filter(|r| r.rec.is_portable())
        .map(|r| (r.rec.at.as_nanos(), format!("{:?}", r.rec.kind)))
        .collect();
    keys.sort();
    keys
}

/// Streaming the trace incrementally produces byte-for-byte the same
/// export as rendering the in-memory trace at the end: run the same
/// config twice (once streamed, once in-memory), sort the streamed lines
/// canonically, and compare bytes. Single-threaded, so every record is
/// portable and carries no wall-clock noise.
#[test]
fn streamed_export_is_byte_identical_to_in_memory_jsonl() {
    let (config, workload) = traced_many_sites(31);

    let (sink, buf) = StreamSink::to_shared_vec();
    let mut streamed_cfg = config.clone();
    streamed_cfg.stream = Some(sink);
    let streamed_run = Simulation::new(streamed_cfg, workload.clone()).run();
    let streamed_obs = streamed_run.obs.as_ref().expect("obs=full");
    assert!(
        streamed_obs.trace.is_empty(),
        "a streamed run must not also accumulate the trace in memory"
    );

    let in_memory_run = Simulation::new(config, workload).run();
    let in_memory_obs = in_memory_run.obs.as_ref().expect("obs=full");
    assert_eq!(
        SimStats::of(&streamed_run),
        SimStats::of(&in_memory_run),
        "streaming must not perturb the simulation"
    );

    let mut sorted = String::new();
    for r in stream::read(&buf.contents()) {
        sorted.push_str(&stream::render_line(&r.rec, r.seq));
        sorted.push('\n');
    }
    assert!(!sorted.is_empty(), "the stream must carry records");
    assert_eq!(
        sorted,
        in_memory_obs.to_jsonl(),
        "streamed lines (canonically sorted) must equal the in-memory export byte-for-byte"
    );
    assert!(
        sorted.contains("\"k\":\"flow_admit\"") && sorted.contains("\"k\":\"flow_end\""),
        "flow spans must be in the export"
    );
}

/// The flow-span lifecycle is shard-placement-invariant: the portable
/// records of a streamed 2- and 4-shard run of the skewed world match the
/// single-threaded in-memory trace exactly.
#[test]
fn flow_spans_survive_migration_under_rotate() {
    let sc = HotBundleScenario::builder()
        .sites(4)
        .requests_per_cold_site(8)
        .offered_load_per_cold_site(Rate::from_mbps(6))
        .drain(Duration::from_secs(2))
        .seed(37)
        .obs(ObsLevel::Full)
        .build();
    let mut config = sc.sim_config();
    config.flow_trace = Some(FlowTrace::all(37));
    let workload = sc.workload();

    let solo = Simulation::new(config.clone(), workload.clone()).run();
    let solo_obs = solo.obs.as_ref().expect("obs=full");
    let want: Vec<(u64, String)> = {
        let recs: Vec<StreamedRecord> = solo_obs
            .trace
            .iter()
            .map(|rec| StreamedRecord { seq: 0, rec: *rec })
            .collect();
        portable_keys(&recs)
    };
    let flow_records = want.iter().filter(|(_, k)| k.starts_with("Flow")).count();
    assert!(flow_records > 0, "sampled flows must leave records");

    for shards in [2usize, 4] {
        let (sink, buf) = StreamSink::to_shared_vec();
        let mut cfg = config.clone();
        cfg.shards = shards;
        cfg.stream = Some(sink);
        let report = Simulation::new(cfg, workload.clone()).run();
        assert_eq!(
            SimStats::of(&solo),
            SimStats::of(&report),
            "tracing+streaming at shards={shards} perturbed the run"
        );
        let got = portable_keys(&stream::read(&buf.contents()));
        assert_eq!(want, got, "portable records diverged at shards={shards}");
    }
}

/// Sampled-flow delay decompositions balance: sendbox + bottleneck +
/// propagation = FCT for every completed flow, and the health monitors'
/// portable event count matches the metrics counter.
#[test]
fn decompositions_balance_and_health_counter_matches_trace() {
    let (config, workload) = traced_many_sites(41);
    let report = Simulation::new(config, workload).run();
    let obs = report.obs.as_ref().expect("obs=full");
    let decomp = obs.flow_decompositions();
    assert!(!decomp.is_empty(), "sampled flows must complete");
    for d in &decomp {
        assert_eq!(
            d.sendbox_ns + d.bottleneck_ns + d.propagation_ns(),
            d.fct_ns,
            "flow {} decomposition must partition its FCT",
            d.flow
        );
        assert!(d.fct_ns > 0);
    }
    let portable_health = obs
        .trace
        .iter()
        .filter(|r| matches!(r.kind, TraceKind::Health { .. }) && r.is_portable())
        .count() as u64;
    assert_eq!(
        obs.metrics.counter(bundler_obs::CounterId::HealthEvents),
        portable_health,
        "HealthEvents counter must count exactly the portable health records"
    );
}

/// Flow tracing + streaming at full level never moves a digest, for any
/// shard count — the PR 6 contract extended to the PR 9 machinery.
#[test]
fn tracing_and_streaming_never_perturb_digests() {
    let sc = ManySitesScenario::builder()
        .sites(4)
        .requests_per_site(8)
        .offered_load_per_site(Rate::from_mbps(8))
        .bottleneck(Rate::from_mbps(60))
        .drain(Duration::from_secs(2))
        .seed(43)
        .build();
    let baseline = SimStats::of(&Simulation::new(sc.sim_config(), sc.workload()).run());
    for shards in [1usize, 2, 4] {
        let (sink, _buf) = StreamSink::to_shared_vec();
        let mut cfg = sc.sim_config();
        cfg.obs = ObsLevel::Full;
        cfg.flow_trace = Some(FlowTrace::all(43));
        cfg.stream = Some(sink);
        cfg.shards = shards;
        let report = Simulation::new(cfg, sc.workload()).run();
        assert_eq!(
            baseline,
            SimStats::of(&report),
            "obs-on digest moved at shards={shards}"
        );
    }
}

/// The stream's bytes, pinned: a traced solo metro world with checkpoints,
/// streamed into memory, must leave exactly these bytes, however the sink
/// renders and writes them. A 2-shard run's file order depends on which
/// shard flushes first, so its leg pins the canonical `stream::read`
/// order instead, portable records only (window spans carry wall time).
#[test]
fn streamed_bytes_are_pinned() {
    use bundler_core::fnv::fnv1a;
    use bundler_sim::fluid::CrossTrafficTier;
    use bundler_sim::scenario::metro::MetroScenario;

    let sc = MetroScenario::builder()
        .sites(3)
        .users_per_site(12)
        .requests_per_site(20)
        .bottleneck(Rate::from_mbps(48))
        .drain(Duration::from_secs(2))
        .tier(CrossTrafficTier::Fluid)
        .seed(5)
        .obs(ObsLevel::Full)
        .build();
    let mut config = sc.sim_config();
    config.flow_trace = Some(FlowTrace::all(5));
    config.checkpoint_every = Some(Duration::from_millis(500));
    let (sink, buf) = StreamSink::to_shared_vec();
    config.stream = Some(sink);
    let mut ckpts = Vec::new();
    Simulation::new(config, sc.workload()).run_collecting(&mut ckpts);
    assert!(ckpts.len() >= 2, "the run must checkpoint");
    let text = buf.contents();
    assert_eq!(
        (text.len(), fnv1a(text.as_bytes())),
        (835_574, 0x934b_53db_893a_b43a),
        "solo stream bytes"
    );

    let (mut config, workload) = traced_many_sites(53);
    config.shards = 2;
    let (sink, buf) = StreamSink::to_shared_vec();
    config.stream = Some(sink);
    Simulation::new(config, workload).run();
    let mut canonical = String::new();
    for r in stream::read(&buf.contents()) {
        if r.rec.is_portable() {
            canonical.push_str(&stream::render_line(&r.rec, r.seq));
            canonical.push('\n');
        }
    }
    assert_eq!(
        (canonical.len(), fnv1a(canonical.as_bytes())),
        (3_493_161, 0x2b5f_db7b_057b_4bad),
        "2-shard canonical stream"
    );
}
