//! Shared by the differential tests: when two runs that must agree do
//! not, say where they part.

use bundler_obs::trace::{first_divergence, TraceRecord};
use bundler_obs::ObsLevel;
use bundler_shard::ShardedSimulation;
use bundler_sim::sim::SimulationConfig;
use bundler_sim::workload::FlowSpec;

/// The portable records of a run of `config` at `ObsLevel::Full`, in the
/// one order every partitioning agrees on: by their portable key.
fn portable_trace(mut config: SimulationConfig, workload: &[FlowSpec]) -> Vec<TraceRecord> {
    config.obs = ObsLevel::Full;
    // One shard *is* the single-threaded engine.
    let report = ShardedSimulation::new(config, workload.to_vec()).run();
    let mut trace = report.obs.expect("obs=full carries a report").trace;
    trace.retain(TraceRecord::is_portable);
    trace.sort_by_key(TraceRecord::portable_key);
    trace
}

/// For the message of a failed digest comparison (so it costs nothing
/// until one fails): reruns `solo` on the single-threaded engine and
/// `sharded` on the windowed runtime with full tracing and names the first
/// portable record each side has that the other does not.
pub fn where_they_part(
    solo: &SimulationConfig,
    sharded: &SimulationConfig,
    workload: &[FlowSpec],
) -> String {
    let mut solo = solo.clone();
    solo.shards = 1;
    let want = portable_trace(solo, workload);
    let got = portable_trace(sharded.clone(), workload);
    let at = first_divergence(&want, &got).unwrap_or(want.len().min(got.len()));
    if at == want.len() && at == got.len() {
        return format!(
            "\nall {at} portable trace records agree: the difference is in state no record covers"
        );
    }
    format!(
        "\nfirst diverging portable record, #{at} of {} solo / {} sharded:\
         \n  solo:    {:?}\n  sharded: {:?}",
        want.len(),
        got.len(),
        want.get(at),
        got.get(at)
    )
}
