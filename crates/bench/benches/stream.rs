//! Micro-benchmarks for the streamed-telemetry codec and its reducer: one
//! record rendered as a line, one line parsed back, and the whole
//! `query::analyze` reduction over a generated 100 000-record stream.
//!
//! The stream is shaped like a traced metro run's: a worker shard and the
//! net shard flush alternately (so file order is not canonical order and
//! `load_records` has to sort), every flow contributes an admit, a
//! sendbox and a bottleneck record per packet and an end record, bundles
//! report rate changes, and each flush closes with a metrics meta line.

use bundler_bench::query;
use bundler_obs::stream::{parse_line, render_line};
use bundler_obs::{TraceKind, TraceRecord, NET_SHARD};
use bundler_types::Nanos;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

const RECORDS: usize = 100_000;
const PKTS_PER_FLOW: u64 = 8;
const FLOWS_PER_FLUSH: u64 = 16;

/// The records of one shard's flush and the meta line that follows them.
fn flush(out: &mut String, records: &[TraceRecord], seq: &mut u64) {
    for rec in records {
        out.push_str(&render_line(rec, *seq));
        out.push('\n');
        *seq += 1;
    }
    if let Some(last) = records.last() {
        out.push_str(&format!(
            "{{\"meta\":\"metrics\",\"at\":{},\"shard\":{},\"c\":[{},0,0]}}\n",
            last.at.as_nanos(),
            last.shard,
            *seq
        ));
    }
}

/// A stream of [`RECORDS`] record lines and the records behind them.
fn generate() -> (String, Vec<TraceRecord>) {
    let rec = |at: u64, shard: u16, kind: TraceKind| TraceRecord {
        at: Nanos(at),
        wall_ns: 0,
        shard,
        kind,
    };
    let mut text = String::new();
    let mut all = Vec::with_capacity(RECORDS);
    let (mut worker_seq, mut net_seq) = (0, 0);
    let mut flow = 0u64;
    while all.len() < RECORDS {
        let (mut worker, mut net) = (Vec::new(), Vec::new());
        for _ in 0..FLOWS_PER_FLUSH {
            flow += 1;
            let bundle = (flow % 12) as u32;
            let t0 = flow * 1_000_000;
            worker.push(rec(
                t0,
                0,
                TraceKind::FlowAdmit {
                    flow,
                    bundle,
                    size_bytes: PKTS_PER_FLOW * 1460,
                },
            ));
            for p in 0..PKTS_PER_FLOW {
                let at = t0 + (p + 1) * 100_000;
                worker.push(rec(
                    at,
                    0,
                    TraceKind::FlowSendbox {
                        flow,
                        sojourn_ns: 40_000 + flow % 977,
                    },
                ));
                net.push(rec(
                    at + 25_000,
                    NET_SHARD,
                    TraceKind::FlowBottleneck {
                        flow,
                        sojourn_ns: 9_000 + flow % 313,
                    },
                ));
            }
            let fct_ns = (PKTS_PER_FLOW + 1) * 100_000;
            worker.push(rec(
                t0 + fct_ns,
                0,
                TraceKind::FlowEnd {
                    flow,
                    fct_ns,
                    sendbox_ns: PKTS_PER_FLOW * 40_000,
                    slowdown_milli: 1_000 + flow % 4_000,
                },
            ));
            worker.push(rec(
                t0 + fct_ns,
                0,
                TraceKind::RateChange {
                    bundle,
                    rate_bps: 16_000_000 + flow,
                },
            ));
        }
        flush(&mut text, &worker, &mut worker_seq);
        flush(&mut text, &net, &mut net_seq);
        all.extend(worker);
        all.extend(net);
    }
    (text, all)
}

fn bench_codec(c: &mut Criterion) {
    let (text, records) = generate();
    let lines: Vec<&str> = text.lines().collect();
    let mut i = 0;
    c.bench_function("stream_render_line", |b| {
        b.iter(|| {
            i = (i + 1) % records.len();
            render_line(black_box(&records[i]), i as u64)
        })
    });
    c.bench_function("stream_parse_line", |b| {
        b.iter(|| {
            i = (i + 1) % lines.len();
            parse_line(black_box(lines[i]))
        })
    });
}

fn bench_analyze(c: &mut Criterion) {
    let (text, records) = generate();
    let analysis = query::analyze(&text);
    assert_eq!(analysis.records.len(), records.len());
    assert!(!analysis.decomp.is_empty());
    c.bench_function("stream_analyze_100k_records", |b| {
        b.iter(|| query::analyze(black_box(&text)).records.len())
    });
}

criterion_group!(benches, bench_codec, bench_analyze);
criterion_main!(benches);
