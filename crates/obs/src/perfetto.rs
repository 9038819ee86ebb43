//! Chrome trace-event JSON export, loadable in Perfetto (ui.perfetto.dev).
//!
//! Mapping:
//!
//! * pid 0 is the net/driver side, pid `1 + shard` is each worker shard
//!   (named via `process_name` metadata events);
//! * [`TraceKind::WorkerWindow`] / [`TraceKind::NetPhase`] become `"X"`
//!   duration spans — `ts`/`dur` are **sim-time** microseconds, with the
//!   wall-time breakdown in `args`;
//! * [`TraceKind::RateChange`] / [`TraceKind::Epoch`] become `"C"` counter
//!   tracks, one per bundle, so each bundle's pacing rate plots as a
//!   stepped line;
//! * drops and mode changes become `"i"` instants;
//! * per-packet [`TraceKind::Enqueue`]/[`TraceKind::Dequeue`] records are
//!   *not* exported (they exist for trace diffing); their aggregate lives
//!   in the metrics histograms.
//!
//! The JSON is hand-rolled: records are flat and numeric, and the
//! workspace deliberately carries no JSON dependency.

use std::fmt::Write as _;

use crate::trace::{TraceKind, TraceRecord};
use crate::{ObsReport, NET_SHARD};

/// The net-shard index encoded in a record's shard id, if it is a net-side
/// id (net shard `k` records as `NET_SHARD - k`; worker ids count up from
/// zero, far below the net range).
fn net_index(shard: u16) -> Option<u16> {
    if shard >= NET_SHARD - crate::MAX_NET_OBS_SHARDS {
        Some(NET_SHARD - shard)
    } else {
        None
    }
}

/// pid of the net/driver process in the exported trace. Every net shard
/// shares pid 0 (one "net/driver" process) and separates as tids.
fn pid_of(shard: u16) -> u32 {
    if net_index(shard).is_some() {
        0
    } else {
        shard as u32 + 1
    }
}

/// tid within a process: net shard `k` maps to tid `k`, workers to tid 0.
fn tid_of(shard: u16) -> u32 {
    net_index(shard).unwrap_or(0) as u32
}

/// Sim-time nanoseconds → trace-event microseconds.
fn ts_us(rec: &TraceRecord) -> f64 {
    rec.at.as_micros_f64()
}

/// Exports a merged trace as a Chrome trace-event JSON object.
pub fn to_chrome_trace(report: &ObsReport) -> String {
    let mut out = String::with_capacity(256 + report.trace.len() * 96);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, ev: String| {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str(&ev);
    };

    // Process-name metadata: one entry per shard that produced records,
    // plus the net/driver process.
    let mut shards: Vec<u16> = report.trace.iter().map(|r| r.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    if !shards.contains(&NET_SHARD) {
        shards.push(NET_SHARD);
    }
    for &shard in &shards {
        match net_index(shard) {
            // Net shard 0 names the shared pid-0 process; higher net
            // shards share that process and name their tid instead.
            Some(0) | None => {
                let name = if shard == NET_SHARD {
                    "net/driver".to_string()
                } else {
                    format!("shard {shard}")
                };
                push(
                    &mut out,
                    &mut first,
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{},\"name\":\"process_name\",\
                         \"args\":{{\"name\":\"{name}\"}}}}",
                        pid_of(shard)
                    ),
                );
            }
            Some(k) => push(
                &mut out,
                &mut first,
                format!(
                    "{{\"ph\":\"M\",\"pid\":0,\"tid\":{k},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":\"net-{k}\"}}}}"
                ),
            ),
        }
    }

    for rec in &report.trace {
        let pid = pid_of(rec.shard);
        let ts = ts_us(rec);
        let ev = match rec.kind {
            // Aggregated in metrics; exporting one event per packet would
            // dwarf everything else in the trace.
            TraceKind::Enqueue { .. } | TraceKind::Dequeue { .. } => continue,
            // Flow-span lifecycle: an async span per sampled flow (begin at
            // admission on the owning worker, end at delivery) plus
            // flow-event arrows ("s"/"t"/"f" sharing the flow id) that
            // Perfetto draws across the worker → net → worker processes.
            TraceKind::FlowAdmit {
                flow,
                bundle,
                size_bytes,
            } => format!(
                "{{\"ph\":\"b\",\"cat\":\"flow\",\"id\":{flow},\"pid\":{pid},\"tid\":0,\
                 \"name\":\"flow {flow}\",\"ts\":{ts:.3},\
                 \"args\":{{\"bundle\":{bundle},\"size_bytes\":{size_bytes}}}}},\
                 {{\"ph\":\"s\",\"cat\":\"flowarrow\",\"id\":{flow},\"pid\":{pid},\"tid\":0,\
                 \"name\":\"flow {flow}\",\"ts\":{ts:.3}}}"
            ),
            TraceKind::FlowSendbox { flow, sojourn_ns } => format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"name\":\"sendbox f{flow}\",\
                 \"ts\":{ts:.3},\"s\":\"t\",\"args\":{{\"sojourn_ns\":{sojourn_ns}}}}}"
            ),
            TraceKind::FlowBottleneck { flow, sojourn_ns } => format!(
                "{{\"ph\":\"i\",\"pid\":0,\"tid\":0,\"name\":\"bottleneck f{flow}\",\
                 \"ts\":{ts:.3},\"s\":\"t\",\"args\":{{\"sojourn_ns\":{sojourn_ns}}}}},\
                 {{\"ph\":\"t\",\"cat\":\"flowarrow\",\"id\":{flow},\"pid\":0,\"tid\":0,\
                 \"name\":\"flow {flow}\",\"ts\":{ts:.3}}}"
            ),
            TraceKind::FlowEnd {
                flow,
                fct_ns,
                sendbox_ns,
                slowdown_milli,
            } => format!(
                "{{\"ph\":\"e\",\"cat\":\"flow\",\"id\":{flow},\"pid\":{pid},\"tid\":0,\
                 \"name\":\"flow {flow}\",\"ts\":{ts:.3},\"args\":{{\"fct_ns\":{fct_ns},\
                 \"sendbox_ns\":{sendbox_ns},\"slowdown_milli\":{slowdown_milli}}}}},\
                 {{\"ph\":\"f\",\"bp\":\"e\",\"cat\":\"flowarrow\",\"id\":{flow},\
                 \"pid\":{pid},\"tid\":0,\"name\":\"flow {flow}\",\"ts\":{ts:.3}}}"
            ),
            TraceKind::Health {
                kind,
                subject,
                value,
            } => format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"name\":\"health {}\",\
                 \"ts\":{ts:.3},\"s\":\"g\",\"args\":{{\"subject\":{subject},\
                 \"value\":{value}}}}}",
                crate::health::HealthKind::from_u8(kind).map_or("unknown", |k| k.name())
            ),
            TraceKind::FluidAgg {
                agg,
                path,
                rate_bps,
            } => format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":{},\"name\":\"fluid agg{agg} Mbps\",\
                 \"ts\":{ts:.3},\"args\":{{\"mbps\":{:.3},\"path\":{path}}}}}",
                tid_of(rec.shard),
                rate_bps as f64 / 1e6
            ),
            TraceKind::Drop { bundle } => format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"name\":\"drop b{bundle}\",\
                 \"ts\":{ts:.3},\"s\":\"t\",\"args\":{{\"wall_ns\":{}}}}}",
                rec.wall_ns
            ),
            TraceKind::ModeChange { bundle, mode } => format!(
                "{{\"ph\":\"i\",\"pid\":{pid},\"tid\":0,\"name\":\"mode b{bundle}={mode}\",\
                 \"ts\":{ts:.3},\"s\":\"p\",\"args\":{{\"wall_ns\":{}}}}}",
                rec.wall_ns
            ),
            TraceKind::RateChange { bundle, rate_bps } => format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"name\":\"bundle{bundle} rate Mbps\",\
                 \"ts\":{ts:.3},\"args\":{{\"mbps\":{:.3}}}}}",
                rate_bps as f64 / 1e6
            ),
            TraceKind::Epoch { bundle, size_pkts } => format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"name\":\"bundle{bundle} epoch pkts\",\
                 \"ts\":{ts:.3},\"args\":{{\"pkts\":{size_pkts}}}}}"
            ),
            TraceKind::FluidLevel {
                path,
                backlog_bytes,
                rate_bps,
            } => format!(
                "{{\"ph\":\"C\",\"pid\":0,\"tid\":{},\"name\":\"fluid p{path} backlog KB\",\
                 \"ts\":{ts:.3},\"args\":{{\"kb\":{:.3},\"drain_mbps\":{:.3}}}}}",
                tid_of(rec.shard),
                backlog_bytes as f64 / 1e3,
                rate_bps as f64 / 1e6
            ),
            TraceKind::WorkerWindow {
                windex,
                width_ns,
                busy_ns,
                stall_ns,
                events,
            } => format!(
                "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":0,\"name\":\"window\",\
                 \"ts\":{ts:.3},\"dur\":{:.3},\"args\":{{\"windex\":{windex},\
                 \"busy_ns\":{busy_ns},\"stall_ns\":{stall_ns},\"events\":{events}}}}}",
                width_ns as f64 / 1e3
            ),
            TraceKind::NetPhase {
                windex,
                width_ns,
                wall_dur_ns,
                events,
            } => format!(
                "{{\"ph\":\"X\",\"pid\":0,\"tid\":{},\"name\":\"net phase\",\
                 \"ts\":{ts:.3},\"dur\":{:.3},\"args\":{{\"windex\":{windex},\
                 \"wall_dur_ns\":{wall_dur_ns},\"events\":{events}}}}}",
                tid_of(rec.shard),
                width_ns as f64 / 1e3
            ),
        };
        push(&mut out, &mut first, ev);
    }

    let _ = write!(
        out,
        "],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"trace_dropped\":{}}}}}",
        report.trace_dropped
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObsLevel;
    use bundler_types::Nanos;

    fn rec(at_us: u64, shard: u16, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            at: Nanos::from_micros(at_us),
            wall_ns: 1,
            shard,
            kind,
        }
    }

    fn report(trace: Vec<TraceRecord>) -> ObsReport {
        ObsReport {
            level: ObsLevel::Full,
            trace,
            ..Default::default()
        }
    }

    #[test]
    fn empty_trace_is_still_valid_json_shape() {
        let json = to_chrome_trace(&report(Vec::new()));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("net/driver"));
        assert!(json.ends_with('}'));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn spans_counters_and_instants_are_emitted() {
        let json = to_chrome_trace(&report(vec![
            rec(
                0,
                1,
                TraceKind::WorkerWindow {
                    windex: 0,
                    width_ns: 12_500_000,
                    busy_ns: 5,
                    stall_ns: 6,
                    events: 7,
                },
            ),
            rec(
                10,
                0,
                TraceKind::RateChange {
                    bundle: 3,
                    rate_bps: 12_000_000,
                },
            ),
            rec(
                20,
                NET_SHARD,
                TraceKind::NetPhase {
                    windex: 0,
                    width_ns: 12_500_000,
                    wall_dur_ns: 9,
                    events: 2,
                },
            ),
            rec(
                40,
                NET_SHARD,
                TraceKind::FluidLevel {
                    path: 2,
                    backlog_bytes: 45_500,
                    rate_bps: 8_000_000,
                },
            ),
        ]));
        assert!(json.contains("\"ph\":\"X\""), "window span missing");
        assert!(json.contains("\"name\":\"window\""));
        assert!(json.contains("\"name\":\"net phase\""));
        assert!(json.contains("\"ph\":\"C\""), "rate counter missing");
        assert!(json.contains("bundle3 rate Mbps"));
        assert!(json.contains("\"mbps\":12.000"));
        assert!(json.contains("fluid p2 backlog KB"));
        assert!(json.contains("\"kb\":45.500"));
        assert!(json.contains("\"drain_mbps\":8.000"));
        assert!(json.contains("\"dur\":12500.000"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn flow_spans_health_and_fluid_aggregates_are_emitted() {
        let json = to_chrome_trace(&report(vec![
            rec(
                0,
                1,
                TraceKind::FlowAdmit {
                    flow: 42,
                    bundle: 3,
                    size_bytes: 14600,
                },
            ),
            rec(
                5,
                NET_SHARD,
                TraceKind::FlowBottleneck {
                    flow: 42,
                    sojourn_ns: 1500,
                },
            ),
            rec(
                9,
                1,
                TraceKind::FlowEnd {
                    flow: 42,
                    fct_ns: 9000,
                    sendbox_ns: 2000,
                    slowdown_milli: 1100,
                },
            ),
            rec(
                10,
                1,
                TraceKind::Health {
                    kind: 1,
                    subject: 3,
                    value: 4096,
                },
            ),
            rec(
                11,
                NET_SHARD,
                TraceKind::FluidAgg {
                    agg: 2,
                    path: 0,
                    rate_bps: 5_000_000,
                },
            ),
        ]));
        assert!(json.contains("\"ph\":\"b\""), "async flow begin missing");
        assert!(json.contains("\"ph\":\"e\""), "async flow end missing");
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
        assert!(json.contains("bottleneck f42"));
        assert!(json.contains("health starved_bundle"));
        assert!(json.contains("fluid agg2 Mbps"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn per_packet_records_are_not_exported() {
        let json = to_chrome_trace(&report(vec![
            rec(0, 0, TraceKind::Enqueue { bundle: 1 }),
            rec(
                1,
                0,
                TraceKind::Dequeue {
                    bundle: 1,
                    sojourn_ns: 5,
                },
            ),
        ]));
        assert!(!json.contains("Enqueue"));
        assert!(!json.contains("sojourn"));
    }
}
