//! Streaming telemetry export: trace rings and metrics flush incrementally
//! to a JSONL sink at window barriers, so a long run's observability
//! memory is ring-capacity sized, not run-length sized.
//!
//! ## Line protocol
//!
//! One JSON object per line, all-numeric except the `"k"` kind tag:
//!
//! ```text
//! {"at":12500000,"shard":1,"seq":42,"k":"rate","bundle":3,"rate_bps":12000000}
//! ```
//!
//! * `at` — sim-time ns; `shard` — producing shard ([`crate::NET_SHARD`]
//!   = 65535 for the net side); `seq` — per-shard push counter.
//! * Wall-clock stamps are deliberately **not** exported on a record's
//!   envelope (host-side span kinds carry their wall-derived payload
//!   fields), so two runs of the same simulation stream the same portable
//!   bytes.
//! * Metrics piggyback as meta lines (`{"meta":"metrics",...}`) at each
//!   flush; consumers that only want the trace skip lines containing a
//!   `meta` key.
//! * The grammar is strict and normative (ARCHITECTURE.md, "Streaming
//!   export"): a flat object without whitespace, unsigned decimal values,
//!   the closing brace required, unknown numeric keys ignored.
//!
//! ## Canonical order
//!
//! Lines are appended flush-by-flush, so the *file* order interleaves
//! shards nondeterministically. Sorting parsed records by
//! `(at, shard, seq)` ([`sort_canonical`]) reproduces exactly the order of
//! the in-memory merged trace (`assemble_report` concatenates shards in
//! index order — net last — then stable-sorts by `at`), which is what
//! makes the streamed path byte-equivalent to
//! [`crate::ObsReport::to_jsonl`].

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Mutex};

use bundler_types::Nanos;

use crate::metrics::MetricsShard;
use crate::trace::{TraceKind, TraceRecord, TraceRing};

/// Locks the sink, recovering from a poisoned mutex (a panicking thread
/// can only have poisoned it mid-write; the stream is best-effort output).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct StreamInner {
    out: Box<dyn Write + Send>,
    /// Sticky failure: after the first write error the sink goes quiet
    /// (streaming is pure output — it must never panic a run).
    failed: bool,
    lines: u64,
}

/// A shared, thread-safe JSONL sink. Clones share the underlying writer,
/// so one sink serves every shard of a run; `SimulationConfig` carries it
/// by value (cloning a config clones the handle, not the stream).
#[derive(Clone)]
pub struct StreamSink {
    inner: Arc<Mutex<StreamInner>>,
}

impl std::fmt::Debug for StreamSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamSink")
            .field("lines", &lock(&self.inner).lines)
            .finish_non_exhaustive()
    }
}

/// The in-memory buffer behind [`StreamSink::to_shared_vec`] (tests and
/// in-process consumers).
#[derive(Clone, Debug, Default)]
pub struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    /// The bytes written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&lock(&self.0)).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl StreamSink {
    /// Wraps any writer.
    pub fn new(out: Box<dyn Write + Send>) -> Self {
        StreamSink {
            inner: Arc::new(Mutex::new(StreamInner {
                out,
                failed: false,
                lines: 0,
            })),
        }
    }

    /// Streams to a file (buffered).
    pub fn to_path(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(StreamSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Streams into a shared in-memory buffer (tests).
    pub fn to_shared_vec() -> (Self, SharedBuf) {
        let buf = SharedBuf::default();
        (StreamSink::new(Box::new(buf.clone())), buf)
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        lock(&self.inner).lines
    }

    /// Appends `lines` complete, newline-terminated lines: one lock, one
    /// `write_all`, however many records the block holds.
    fn write_block(&self, block: &[u8], lines: u64) {
        let inner = &mut *lock(&self.inner);
        if inner.failed {
            return;
        }
        if inner.out.write_all(block).is_err() {
            inner.failed = true;
        } else {
            inner.lines += lines;
        }
    }

    /// Serializes the ring's pending records into `buf` (the caller's
    /// reused render buffer, overwritten), assigning per-shard sequence
    /// numbers from `seq` in push order, hands the sink the whole block at
    /// once and clears the ring. Dropped-record counts stay in the ring
    /// (they surface through `HostMetrics::trace_ring_dropped`).
    pub fn flush_ring(&self, ring: &mut TraceRing, seq: &mut u64, buf: &mut Vec<u8>) {
        let pending = ring.pending();
        if pending.is_empty() {
            return;
        }
        buf.clear();
        for rec in pending {
            render_line_into(buf, rec, *seq);
            buf.push(b'\n');
            *seq += 1;
        }
        self.write_block(buf, pending.len() as u64);
        ring.clear_pending();
    }

    /// Emits a cumulative-counters meta line for one shard (skipped by
    /// trace consumers; `obs_query` can plot counter series from these).
    pub fn write_metrics(&self, at: Nanos, shard: u16, metrics: &MetricsShard) {
        let mut line = String::with_capacity(96);
        let _ = write!(
            line,
            "{{\"meta\":\"metrics\",\"at\":{},\"shard\":{shard},\"c\":[",
            at.as_nanos()
        );
        for (i, c) in metrics.counters().iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = write!(line, "{c}");
        }
        line.push_str("]}\n");
        self.write_block(line.as_bytes(), 1);
    }

    /// Flushes the underlying writer (end of run, and before a snapshot is
    /// published so a restore resumes from a complete prefix).
    pub fn flush_io(&self) {
        let inner = &mut *lock(&self.inner);
        if !inner.failed && inner.out.flush().is_err() {
            inner.failed = true;
        }
    }
}

/// Stable lowercase tag per record kind.
fn kind_tag(kind: &TraceKind) -> &'static str {
    match kind {
        TraceKind::Enqueue { .. } => "enq",
        TraceKind::Dequeue { .. } => "deq",
        TraceKind::Drop { .. } => "drop",
        TraceKind::ModeChange { .. } => "mode",
        TraceKind::RateChange { .. } => "rate",
        TraceKind::Epoch { .. } => "epoch",
        TraceKind::Migration { .. } => "migrate",
        TraceKind::WorkerWindow { .. } => "window",
        TraceKind::NetPhase { .. } => "netphase",
        TraceKind::FluidLevel { .. } => "fluid",
        TraceKind::FlowAdmit { .. } => "flow_admit",
        TraceKind::FlowSendbox { .. } => "flow_sendbox",
        TraceKind::FlowBottleneck { .. } => "flow_bn",
        TraceKind::FlowEnd { .. } => "flow_end",
        TraceKind::Health { .. } => "health",
        TraceKind::FluidAgg { .. } => "fluid_agg",
    }
}

/// Appends `v` in decimal.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Appends `,"name":value` — the key bytes are one literal per call site.
macro_rules! field {
    ($out:expr, $name:literal, $v:expr) => {{
        $out.extend_from_slice(concat!(",\"", $name, "\":").as_bytes());
        push_u64($out, $v as u64);
    }};
}

/// Appends one record's line (no trailing newline). Pure byte pushes: no
/// formatter, no allocation beyond `out`'s own growth.
fn render_line_into(out: &mut Vec<u8>, rec: &TraceRecord, seq: u64) {
    out.extend_from_slice(b"{\"at\":");
    push_u64(out, rec.at.as_nanos());
    field!(out, "shard", rec.shard);
    field!(out, "seq", seq);
    out.extend_from_slice(b",\"k\":\"");
    out.extend_from_slice(kind_tag(&rec.kind).as_bytes());
    out.push(b'"');
    match rec.kind {
        TraceKind::Enqueue { bundle } => field!(out, "bundle", bundle),
        TraceKind::Dequeue { bundle, sojourn_ns } => {
            field!(out, "bundle", bundle);
            field!(out, "sojourn_ns", sojourn_ns);
        }
        TraceKind::Drop { bundle } => field!(out, "bundle", bundle),
        TraceKind::ModeChange { bundle, mode } => {
            field!(out, "bundle", bundle);
            field!(out, "mode", mode);
        }
        TraceKind::RateChange { bundle, rate_bps } => {
            field!(out, "bundle", bundle);
            field!(out, "rate_bps", rate_bps);
        }
        TraceKind::Epoch { bundle, size_pkts } => {
            field!(out, "bundle", bundle);
            field!(out, "size_pkts", size_pkts);
        }
        TraceKind::Migration {
            bundle,
            from,
            to,
            pkts,
            bytes,
        } => {
            field!(out, "bundle", bundle);
            field!(out, "from", from);
            field!(out, "to", to);
            field!(out, "pkts", pkts);
            field!(out, "bytes", bytes);
        }
        TraceKind::WorkerWindow {
            windex,
            width_ns,
            busy_ns,
            stall_ns,
            events,
        } => {
            field!(out, "windex", windex);
            field!(out, "width_ns", width_ns);
            field!(out, "busy_ns", busy_ns);
            field!(out, "stall_ns", stall_ns);
            field!(out, "events", events);
        }
        TraceKind::NetPhase {
            windex,
            width_ns,
            wall_dur_ns,
            events,
        } => {
            field!(out, "windex", windex);
            field!(out, "width_ns", width_ns);
            field!(out, "wall_dur_ns", wall_dur_ns);
            field!(out, "events", events);
        }
        TraceKind::FluidLevel {
            path,
            backlog_bytes,
            rate_bps,
        } => {
            field!(out, "path", path);
            field!(out, "backlog_bytes", backlog_bytes);
            field!(out, "rate_bps", rate_bps);
        }
        TraceKind::FlowAdmit {
            flow,
            bundle,
            size_bytes,
        } => {
            field!(out, "flow", flow);
            field!(out, "bundle", bundle);
            field!(out, "size_bytes", size_bytes);
        }
        TraceKind::FlowSendbox { flow, sojourn_ns } => {
            field!(out, "flow", flow);
            field!(out, "sojourn_ns", sojourn_ns);
        }
        TraceKind::FlowBottleneck { flow, sojourn_ns } => {
            field!(out, "flow", flow);
            field!(out, "sojourn_ns", sojourn_ns);
        }
        TraceKind::FlowEnd {
            flow,
            fct_ns,
            sendbox_ns,
            slowdown_milli,
        } => {
            field!(out, "flow", flow);
            field!(out, "fct_ns", fct_ns);
            field!(out, "sendbox_ns", sendbox_ns);
            field!(out, "slowdown_milli", slowdown_milli);
        }
        TraceKind::Health {
            kind,
            subject,
            value,
        } => {
            field!(out, "kind", kind);
            field!(out, "subject", subject);
            field!(out, "value", value);
        }
        TraceKind::FluidAgg {
            agg,
            path,
            rate_bps,
        } => {
            field!(out, "agg", agg);
            field!(out, "path", path);
            field!(out, "rate_bps", rate_bps);
        }
    }
    out.push(b'}');
}

/// Renders one record as its canonical stream line (no trailing newline).
pub fn render_line(rec: &TraceRecord, seq: u64) -> String {
    let mut line = Vec::with_capacity(96);
    render_line_into(&mut line, rec, seq);
    String::from_utf8(line).expect("the line protocol is ASCII")
}

/// Renders records as newline-terminated stream lines, numbering each
/// shard's records from 0 in iteration order (the in-memory trace's
/// counterpart of a streamed run's per-shard `seq`).
pub(crate) fn render_lines(records: &[TraceRecord]) -> String {
    let mut seqs: std::collections::BTreeMap<u16, u64> = std::collections::BTreeMap::new();
    let mut out = Vec::with_capacity(records.len() * 96);
    for rec in records {
        let seq = seqs.entry(rec.shard).or_insert(0);
        render_line_into(&mut out, rec, *seq);
        out.push(b'\n');
        *seq += 1;
    }
    String::from_utf8(out).expect("the line protocol is ASCII")
}

/// One parsed stream line: the record (with `wall_ns` zeroed — the stream
/// deliberately carries no envelope wall stamp) and its per-shard sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamedRecord {
    /// Per-shard sequence number.
    pub seq: u64,
    /// The reconstructed record.
    pub rec: TraceRecord,
}

/// Numeric keys a reader keeps per line: twice the widest record (three
/// envelope keys plus five payload fields). Keys past the sixteenth are
/// checked like the rest and then ignored, so the fields a record needs
/// must sit among a line's first sixteen.
const MAX_KEYS: usize = 16;

/// The numeric keys and the `"k"` tag of one scanned line.
struct Fields<'a> {
    keys: [&'a [u8]; MAX_KEYS],
    vals: [u64; MAX_KEYS],
    len: usize,
    tag: Option<&'a [u8]>,
}

impl Fields<'_> {
    /// The value of the first key named `name`.
    fn get(&self, name: &str) -> Option<u64> {
        let i = self.keys[..self.len]
            .iter()
            .position(|k| *k == name.as_bytes())?;
        Some(self.vals[i])
    }

    fn get_as<T: TryFrom<u64>>(&self, name: &str) -> Option<T> {
        T::try_from(self.get(name)?).ok()
    }
}

/// Reads an unsigned decimal starting at `line[i]`: 1–20 digits, no
/// leading zero, no overflow. Returns the value and the index past it.
fn scan_u64(line: &[u8], mut i: usize) -> Option<(u64, usize)> {
    let start = i;
    let mut v: u64 = 0;
    while let Some(d) = line
        .get(i)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|d| *d < 10)
    {
        v = v.checked_mul(10)?.checked_add(d as u64)?;
        i += 1;
    }
    let digits = i - start;
    let leading_zero = digits > 1 && line[start] == b'0';
    (digits > 0 && !leading_zero).then_some((v, i))
}

/// One left-to-right pass over a flat JSON object: `{"key":value,...}`
/// with no whitespace, every value an unsigned decimal except the string
/// under `"k"`, and the closing brace the line's last byte. `None` for
/// anything else — including meta lines, whose `"meta"` key is rejected
/// where it is met.
fn scan(line: &[u8]) -> Option<Fields<'_>> {
    let mut f = Fields {
        keys: [&[]; MAX_KEYS],
        vals: [0; MAX_KEYS],
        len: 0,
        tag: None,
    };
    if line.first() != Some(&b'{') {
        return None;
    }
    let mut i = 1;
    loop {
        if line.get(i) != Some(&b'"') {
            return None;
        }
        i += 1;
        let key = &line[i..i + line[i..].iter().position(|&b| b == b'"')?];
        i += key.len() + 1;
        if line.get(i) != Some(&b':') || key == b"meta" {
            return None;
        }
        i += 1;
        if line.get(i) == Some(&b'"') {
            if key != b"k" {
                return None;
            }
            i += 1;
            let tag = &line[i..i + line[i..].iter().position(|&b| b == b'"')?];
            i += tag.len() + 1;
            f.tag.get_or_insert(tag);
        } else {
            let (v, next) = scan_u64(line, i)?;
            if f.len < MAX_KEYS {
                f.keys[f.len] = key;
                f.vals[f.len] = v;
                f.len += 1;
            }
            i = next;
        }
        match line.get(i)? {
            b',' => i += 1,
            b'}' => return (i + 1 == line.len()).then_some(f),
            _ => return None,
        }
    }
}

/// Parses one stream line back into a record. Returns `None` for meta
/// lines, blank lines and anything malformed — a line cut short by a
/// crash included, since the closing brace is required — so consumers
/// iterate `lines().filter_map(parse_line)`. Keys the record's kind does
/// not use are ignored; a value too wide for its field is malformed.
pub fn parse_line(line: &str) -> Option<StreamedRecord> {
    let f = scan(line.as_bytes())?;
    let at = Nanos(f.get("at")?);
    let shard = f.get_as("shard")?;
    let seq = f.get("seq")?;
    let kind = match f.tag? {
        b"enq" => TraceKind::Enqueue {
            bundle: f.get_as("bundle")?,
        },
        b"deq" => TraceKind::Dequeue {
            bundle: f.get_as("bundle")?,
            sojourn_ns: f.get("sojourn_ns")?,
        },
        b"drop" => TraceKind::Drop {
            bundle: f.get_as("bundle")?,
        },
        b"mode" => TraceKind::ModeChange {
            bundle: f.get_as("bundle")?,
            mode: f.get_as("mode")?,
        },
        b"rate" => TraceKind::RateChange {
            bundle: f.get_as("bundle")?,
            rate_bps: f.get("rate_bps")?,
        },
        b"epoch" => TraceKind::Epoch {
            bundle: f.get_as("bundle")?,
            size_pkts: f.get("size_pkts")?,
        },
        b"migrate" => TraceKind::Migration {
            bundle: f.get_as("bundle")?,
            from: f.get_as("from")?,
            to: f.get_as("to")?,
            pkts: f.get("pkts")?,
            bytes: f.get("bytes")?,
        },
        b"window" => TraceKind::WorkerWindow {
            windex: f.get("windex")?,
            width_ns: f.get("width_ns")?,
            busy_ns: f.get("busy_ns")?,
            stall_ns: f.get("stall_ns")?,
            events: f.get("events")?,
        },
        b"netphase" => TraceKind::NetPhase {
            windex: f.get("windex")?,
            width_ns: f.get("width_ns")?,
            wall_dur_ns: f.get("wall_dur_ns")?,
            events: f.get("events")?,
        },
        b"fluid" => TraceKind::FluidLevel {
            path: f.get_as("path")?,
            backlog_bytes: f.get("backlog_bytes")?,
            rate_bps: f.get("rate_bps")?,
        },
        b"flow_admit" => TraceKind::FlowAdmit {
            flow: f.get("flow")?,
            bundle: f.get_as("bundle")?,
            size_bytes: f.get("size_bytes")?,
        },
        b"flow_sendbox" => TraceKind::FlowSendbox {
            flow: f.get("flow")?,
            sojourn_ns: f.get("sojourn_ns")?,
        },
        b"flow_bn" => TraceKind::FlowBottleneck {
            flow: f.get("flow")?,
            sojourn_ns: f.get("sojourn_ns")?,
        },
        b"flow_end" => TraceKind::FlowEnd {
            flow: f.get("flow")?,
            fct_ns: f.get("fct_ns")?,
            sendbox_ns: f.get("sendbox_ns")?,
            slowdown_milli: f.get("slowdown_milli")?,
        },
        b"health" => TraceKind::Health {
            kind: f.get_as("kind")?,
            subject: f.get_as("subject")?,
            value: f.get("value")?,
        },
        b"fluid_agg" => TraceKind::FluidAgg {
            agg: f.get_as("agg")?,
            path: f.get_as("path")?,
            rate_bps: f.get("rate_bps")?,
        },
        _ => return None,
    };
    Some(StreamedRecord {
        seq,
        rec: TraceRecord {
            at,
            wall_ns: 0,
            shard,
            kind,
        },
    })
}

/// Sorts parsed records into the canonical merged-trace order:
/// `(at, shard, seq)`. [`crate::NET_SHARD`] is `u16::MAX`, so net records
/// land after every worker at the same sim-time — exactly the in-memory
/// merge order.
pub fn sort_canonical(records: &mut [StreamedRecord]) {
    records.sort_by_key(|r| (r.rec.at, r.rec.shard, r.seq));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64, shard: u16, kind: TraceKind) -> TraceRecord {
        TraceRecord {
            at: Nanos(at),
            wall_ns: 777, // must never appear in the line
            shard,
            kind,
        }
    }

    #[test]
    fn every_kind_round_trips_through_the_line_protocol() {
        let kinds = vec![
            TraceKind::Enqueue { bundle: 1 },
            TraceKind::Dequeue {
                bundle: 2,
                sojourn_ns: 3,
            },
            TraceKind::Drop { bundle: 4 },
            TraceKind::ModeChange { bundle: 5, mode: 1 },
            TraceKind::RateChange {
                bundle: 6,
                rate_bps: 7_000_000,
            },
            TraceKind::Epoch {
                bundle: 8,
                size_pkts: 16,
            },
            TraceKind::Migration {
                bundle: 9,
                from: 0,
                to: 1,
                pkts: 10,
                bytes: 11,
            },
            TraceKind::WorkerWindow {
                windex: 12,
                width_ns: 13,
                busy_ns: 14,
                stall_ns: 15,
                events: 16,
            },
            TraceKind::NetPhase {
                windex: 17,
                width_ns: 18,
                wall_dur_ns: 19,
                events: 20,
            },
            TraceKind::FluidLevel {
                path: 21,
                backlog_bytes: 22,
                rate_bps: 23,
            },
            TraceKind::FlowAdmit {
                flow: 24,
                bundle: 25,
                size_bytes: 26,
            },
            TraceKind::FlowSendbox {
                flow: 27,
                sojourn_ns: 28,
            },
            TraceKind::FlowBottleneck {
                flow: 29,
                sojourn_ns: 30,
            },
            TraceKind::FlowEnd {
                flow: 31,
                fct_ns: 32,
                sendbox_ns: 33,
                slowdown_milli: 34,
            },
            TraceKind::Health {
                kind: 2,
                subject: 35,
                value: 36,
            },
            TraceKind::FluidAgg {
                agg: 37,
                path: 38,
                rate_bps: 39,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let r = rec(1000 + i as u64, i as u16, kind);
            let line = render_line(&r, i as u64);
            assert!(!line.contains("777"), "wall stamp leaked: {line}");
            let parsed = parse_line(&line).unwrap_or_else(|| panic!("unparseable: {line}"));
            assert_eq!(parsed.seq, i as u64);
            assert_eq!(parsed.rec.at, r.at);
            assert_eq!(parsed.rec.shard, r.shard);
            assert_eq!(parsed.rec.kind, r.kind);
        }
    }

    #[test]
    fn meta_and_garbage_lines_are_skipped() {
        assert!(parse_line("").is_none());
        assert!(parse_line("{\"meta\":\"metrics\",\"at\":1,\"shard\":0,\"c\":[1,2]}").is_none());
        assert!(parse_line("not json at all").is_none());
        assert!(parse_line("{\"at\":1,\"shard\":0,\"seq\":0,\"k\":\"unknown\"}").is_none());
    }

    /// The grammar's edges, one line each: everything but the first is one
    /// defect away from it.
    #[test]
    fn the_grammar_is_strict() {
        let ok = |line: &str| parse_line(line).map(|r| (r.rec.at.as_nanos(), r.rec.shard, r.seq));
        let max = u64::MAX;
        let good = format!(
            "{{\"at\":{max},\"shard\":65535,\"seq\":0,\"k\":\"drop\",\"bundle\":4294967295}}"
        );
        assert_eq!(ok(&good), Some((max, u16::MAX, 0)));
        // Forty unknown keys after the record's own.
        let wide = format!("{}{}}}", &good[..good.len() - 1], ",\"x\":1".repeat(40));
        for (why, bad) in [
            ("no closing brace", good[..good.len() - 1].to_string()),
            ("bytes after the brace", format!("{good} ")),
            (
                "at = 2^64",
                good.replace("18446744073709551615", "18446744073709551616"),
            ),
            (
                "21-digit at",
                good.replace("18446744073709551615", "100000000000000000000"),
            ),
            ("shard = 2^16", good.replace("65535", "65536")),
            ("bundle = 2^32", good.replace("4294967295", "4294967296")),
            ("leading zero", good.replace("\"seq\":0", "\"seq\":00")),
            ("empty value", good.replace("\"seq\":0", "\"seq\":")),
            ("negative value", good.replace("\"seq\":0", "\"seq\":-1")),
            ("fractional value", good.replace("\"seq\":0", "\"seq\":0.5")),
            ("whitespace", good.replace("\"seq\":0", "\"seq\": 0")),
            (
                "string where a number belongs",
                good.replace("\"seq\":0", "\"seq\":\"0\""),
            ),
            (
                "numeric meta key",
                good.replace("\"seq\":0", "\"seq\":0,\"meta\":1"),
            ),
            (
                "nested value",
                good.replace("\"seq\":0", "\"seq\":0,\"c\":[1]"),
            ),
            ("missing field", good.replace(",\"bundle\":4294967295", "")),
            (
                "a needed key behind sixteen others",
                good.replace("\"seq\":0", &format!("\"seq\":0{}", ",\"x\":1".repeat(13))),
            ),
            (
                "a malformed value behind sixteen keys",
                format!("{},\"y\":-1}}", &wide[..wide.len() - 1]),
            ),
        ] {
            assert_eq!(ok(&bad), None, "{why}: {bad}");
        }
        // Unknown keys past the sixteenth are ignored like any other; the
        // first of two equal keys wins.
        assert_eq!(ok(&wide), Some((max, u16::MAX, 0)));
        let twice = good.replace("\"seq\":0", "\"seq\":0,\"seq\":9");
        assert_eq!(ok(&twice), Some((max, u16::MAX, 0)));
    }

    #[test]
    fn sink_streams_ring_contents_and_clears_it() {
        let (sink, buf) = StreamSink::to_shared_vec();
        let mut ring = TraceRing::with_capacity(8, 8);
        let mut seq = 0u64;
        let mut scratch = Vec::new();
        for i in 0..3u64 {
            ring.push(rec(i * 10, 0, TraceKind::Enqueue { bundle: i as u32 }));
        }
        sink.flush_ring(&mut ring, &mut seq, &mut scratch);
        assert_eq!(seq, 3);
        assert!(ring.is_empty());
        // A second barrier keeps counting from where the first stopped.
        ring.push(rec(100, 0, TraceKind::Drop { bundle: 9 }));
        sink.flush_ring(&mut ring, &mut seq, &mut scratch);
        assert_eq!(seq, 4);
        sink.flush_io();
        let text = buf.contents();
        let parsed: Vec<StreamedRecord> = text.lines().filter_map(parse_line).collect();
        assert_eq!(parsed.len(), 4);
        assert_eq!(parsed[3].seq, 3);
        assert_eq!(parsed[3].rec.kind, TraceKind::Drop { bundle: 9 });
        assert_eq!(sink.lines(), 4);
    }

    #[test]
    fn metrics_meta_lines_are_valid_but_not_records() {
        let (sink, buf) = StreamSink::to_shared_vec();
        let mut m = MetricsShard::default();
        m.add(crate::metrics::CounterId::FlowsCompleted, 5);
        sink.write_metrics(Nanos(123), 2, &m);
        let text = buf.contents();
        assert!(text.starts_with("{\"meta\":\"metrics\",\"at\":123,\"shard\":2,\"c\":["));
        assert!(text.lines().filter_map(parse_line).next().is_none());
    }

    #[test]
    fn canonical_sort_puts_net_last_within_a_timestamp() {
        let mut records = vec![
            StreamedRecord {
                seq: 0,
                rec: rec(10, crate::NET_SHARD, TraceKind::Enqueue { bundle: 0 }),
            },
            StreamedRecord {
                seq: 1,
                rec: rec(10, 0, TraceKind::Enqueue { bundle: 1 }),
            },
            StreamedRecord {
                seq: 0,
                rec: rec(10, 0, TraceKind::Enqueue { bundle: 2 }),
            },
        ];
        sort_canonical(&mut records);
        let bundles: Vec<u32> = records
            .iter()
            .map(|r| match r.rec.kind {
                TraceKind::Enqueue { bundle } => bundle,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(bundles, vec![2, 1, 0]);
    }

    /// The codec as it stood before the one-pass rewrite, kept verbatim as
    /// the reference the property tests below compare against: a
    /// `write!`-based renderer and a `find`-per-field parser.
    mod oracle {
        use std::fmt::Write as _;

        use super::super::{kind_tag, StreamedRecord};
        use crate::trace::{TraceKind, TraceRecord};
        use bundler_types::Nanos;

        pub fn render_line_into(out: &mut String, rec: &TraceRecord, seq: u64) {
            let _ = write!(
                out,
                "{{\"at\":{},\"shard\":{},\"seq\":{seq},\"k\":\"{}\"",
                rec.at.as_nanos(),
                rec.shard,
                kind_tag(&rec.kind)
            );
            let mut f = |name: &str, v: u64| {
                let _ = write!(out, ",\"{name}\":{v}");
            };
            match rec.kind {
                TraceKind::Enqueue { bundle } => f("bundle", bundle as u64),
                TraceKind::Dequeue { bundle, sojourn_ns } => {
                    f("bundle", bundle as u64);
                    f("sojourn_ns", sojourn_ns);
                }
                TraceKind::Drop { bundle } => f("bundle", bundle as u64),
                TraceKind::ModeChange { bundle, mode } => {
                    f("bundle", bundle as u64);
                    f("mode", mode as u64);
                }
                TraceKind::RateChange { bundle, rate_bps } => {
                    f("bundle", bundle as u64);
                    f("rate_bps", rate_bps);
                }
                TraceKind::Epoch { bundle, size_pkts } => {
                    f("bundle", bundle as u64);
                    f("size_pkts", size_pkts);
                }
                TraceKind::Migration {
                    bundle,
                    from,
                    to,
                    pkts,
                    bytes,
                } => {
                    f("bundle", bundle as u64);
                    f("from", from as u64);
                    f("to", to as u64);
                    f("pkts", pkts);
                    f("bytes", bytes);
                }
                TraceKind::WorkerWindow {
                    windex,
                    width_ns,
                    busy_ns,
                    stall_ns,
                    events,
                } => {
                    f("windex", windex);
                    f("width_ns", width_ns);
                    f("busy_ns", busy_ns);
                    f("stall_ns", stall_ns);
                    f("events", events);
                }
                TraceKind::NetPhase {
                    windex,
                    width_ns,
                    wall_dur_ns,
                    events,
                } => {
                    f("windex", windex);
                    f("width_ns", width_ns);
                    f("wall_dur_ns", wall_dur_ns);
                    f("events", events);
                }
                TraceKind::FluidLevel {
                    path,
                    backlog_bytes,
                    rate_bps,
                } => {
                    f("path", path as u64);
                    f("backlog_bytes", backlog_bytes);
                    f("rate_bps", rate_bps);
                }
                TraceKind::FlowAdmit {
                    flow,
                    bundle,
                    size_bytes,
                } => {
                    f("flow", flow);
                    f("bundle", bundle as u64);
                    f("size_bytes", size_bytes);
                }
                TraceKind::FlowSendbox { flow, sojourn_ns } => {
                    f("flow", flow);
                    f("sojourn_ns", sojourn_ns);
                }
                TraceKind::FlowBottleneck { flow, sojourn_ns } => {
                    f("flow", flow);
                    f("sojourn_ns", sojourn_ns);
                }
                TraceKind::FlowEnd {
                    flow,
                    fct_ns,
                    sendbox_ns,
                    slowdown_milli,
                } => {
                    f("flow", flow);
                    f("fct_ns", fct_ns);
                    f("sendbox_ns", sendbox_ns);
                    f("slowdown_milli", slowdown_milli);
                }
                TraceKind::Health {
                    kind,
                    subject,
                    value,
                } => {
                    f("kind", kind as u64);
                    f("subject", subject as u64);
                    f("value", value);
                }
                TraceKind::FluidAgg {
                    agg,
                    path,
                    rate_bps,
                } => {
                    f("agg", agg as u64);
                    f("path", path as u64);
                    f("rate_bps", rate_bps);
                }
            }
            out.push('}');
        }

        /// Extracts a numeric field from a flat JSON object line.
        fn num_field(line: &str, name: &str) -> Option<u64> {
            let pat = format!("\"{name}\":");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            rest[..end].parse().ok()
        }

        /// Extracts a string field from a flat JSON object line.
        fn str_field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
            let pat = format!("\"{name}\":\"");
            let start = line.find(&pat)? + pat.len();
            let rest = &line[start..];
            Some(&rest[..rest.find('"')?])
        }

        pub fn parse_line(line: &str) -> Option<StreamedRecord> {
            if line.is_empty() || line.contains("\"meta\":") {
                return None;
            }
            let at = Nanos(num_field(line, "at")?);
            let shard = num_field(line, "shard")? as u16;
            let seq = num_field(line, "seq")?;
            let k = str_field(line, "k")?;
            let n = |name: &str| num_field(line, name);
            let kind = match k {
                "enq" => TraceKind::Enqueue {
                    bundle: n("bundle")? as u32,
                },
                "deq" => TraceKind::Dequeue {
                    bundle: n("bundle")? as u32,
                    sojourn_ns: n("sojourn_ns")?,
                },
                "drop" => TraceKind::Drop {
                    bundle: n("bundle")? as u32,
                },
                "mode" => TraceKind::ModeChange {
                    bundle: n("bundle")? as u32,
                    mode: n("mode")? as u8,
                },
                "rate" => TraceKind::RateChange {
                    bundle: n("bundle")? as u32,
                    rate_bps: n("rate_bps")?,
                },
                "epoch" => TraceKind::Epoch {
                    bundle: n("bundle")? as u32,
                    size_pkts: n("size_pkts")?,
                },
                "migrate" => TraceKind::Migration {
                    bundle: n("bundle")? as u32,
                    from: n("from")? as u16,
                    to: n("to")? as u16,
                    pkts: n("pkts")?,
                    bytes: n("bytes")?,
                },
                "window" => TraceKind::WorkerWindow {
                    windex: n("windex")?,
                    width_ns: n("width_ns")?,
                    busy_ns: n("busy_ns")?,
                    stall_ns: n("stall_ns")?,
                    events: n("events")?,
                },
                "netphase" => TraceKind::NetPhase {
                    windex: n("windex")?,
                    width_ns: n("width_ns")?,
                    wall_dur_ns: n("wall_dur_ns")?,
                    events: n("events")?,
                },
                "fluid" => TraceKind::FluidLevel {
                    path: n("path")? as u32,
                    backlog_bytes: n("backlog_bytes")?,
                    rate_bps: n("rate_bps")?,
                },
                "flow_admit" => TraceKind::FlowAdmit {
                    flow: n("flow")?,
                    bundle: n("bundle")? as u32,
                    size_bytes: n("size_bytes")?,
                },
                "flow_sendbox" => TraceKind::FlowSendbox {
                    flow: n("flow")?,
                    sojourn_ns: n("sojourn_ns")?,
                },
                "flow_bn" => TraceKind::FlowBottleneck {
                    flow: n("flow")?,
                    sojourn_ns: n("sojourn_ns")?,
                },
                "flow_end" => TraceKind::FlowEnd {
                    flow: n("flow")?,
                    fct_ns: n("fct_ns")?,
                    sendbox_ns: n("sendbox_ns")?,
                    slowdown_milli: n("slowdown_milli")?,
                },
                "health" => TraceKind::Health {
                    kind: n("kind")? as u8,
                    subject: n("subject")? as u32,
                    value: n("value")?,
                },
                "fluid_agg" => TraceKind::FluidAgg {
                    agg: n("agg")? as u32,
                    path: n("path")? as u32,
                    rate_bps: n("rate_bps")?,
                },
                _ => return None,
            };
            Some(StreamedRecord {
                seq,
                rec: TraceRecord {
                    at,
                    wall_ns: 0,
                    shard,
                    kind,
                },
            })
        }
    }

    use proptest::prelude::*;

    /// A `u64` that is 0 or `u64::MAX` half the time.
    fn edgy_u64() -> impl Strategy<Value = u64> {
        (0u8..4, any::<u64>()).prop_map(|(pick, v)| match pick {
            0 => 0,
            1 => u64::MAX,
            _ => v,
        })
    }

    /// Every `TraceKind` variant, each field drawn from the full range of
    /// its type (narrow fields truncate an edgy `u64`, so 0 and the
    /// type's maximum are both common).
    fn record_strategy() -> impl Strategy<Value = (TraceRecord, u64)> {
        (
            0u8..16,
            (edgy_u64(), edgy_u64(), edgy_u64(), edgy_u64(), edgy_u64()),
            (edgy_u64(), edgy_u64(), edgy_u64()),
        )
            .prop_map(|(variant, (a, b, c, d, e), (at, shard, seq))| {
                let kind = match variant {
                    0 => TraceKind::Enqueue { bundle: a as u32 },
                    1 => TraceKind::Dequeue {
                        bundle: a as u32,
                        sojourn_ns: b,
                    },
                    2 => TraceKind::Drop { bundle: a as u32 },
                    3 => TraceKind::ModeChange {
                        bundle: a as u32,
                        mode: b as u8,
                    },
                    4 => TraceKind::RateChange {
                        bundle: a as u32,
                        rate_bps: b,
                    },
                    5 => TraceKind::Epoch {
                        bundle: a as u32,
                        size_pkts: b,
                    },
                    6 => TraceKind::Migration {
                        bundle: a as u32,
                        from: b as u16,
                        to: c as u16,
                        pkts: d,
                        bytes: e,
                    },
                    7 => TraceKind::WorkerWindow {
                        windex: a,
                        width_ns: b,
                        busy_ns: c,
                        stall_ns: d,
                        events: e,
                    },
                    8 => TraceKind::NetPhase {
                        windex: a,
                        width_ns: b,
                        wall_dur_ns: c,
                        events: d,
                    },
                    9 => TraceKind::FluidLevel {
                        path: a as u32,
                        backlog_bytes: b,
                        rate_bps: c,
                    },
                    10 => TraceKind::FlowAdmit {
                        flow: a,
                        bundle: b as u32,
                        size_bytes: c,
                    },
                    11 => TraceKind::FlowSendbox {
                        flow: a,
                        sojourn_ns: b,
                    },
                    12 => TraceKind::FlowBottleneck {
                        flow: a,
                        sojourn_ns: b,
                    },
                    13 => TraceKind::FlowEnd {
                        flow: a,
                        fct_ns: b,
                        sendbox_ns: c,
                        slowdown_milli: d,
                    },
                    14 => TraceKind::Health {
                        kind: a as u8,
                        subject: b as u32,
                        value: c,
                    },
                    _ => TraceKind::FluidAgg {
                        agg: a as u32,
                        path: b as u32,
                        rate_bps: c,
                    },
                };
                (rec(at, shard as u16, kind), seq)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// New render == old render byte for byte; `parse(render(x)) == x`
        /// up to the envelope stamp, which is not on the wire; and the new
        /// parser agrees with the old one on the rendered line.
        #[test]
        fn codec_matches_the_reference_and_round_trips((r, seq) in record_strategy()) {
            let line = render_line(&r, seq);
            let mut reference = String::new();
            oracle::render_line_into(&mut reference, &r, seq);
            prop_assert_eq!(&line, &reference);
            let parsed = parse_line(&line);
            prop_assert_eq!(parsed, Some(StreamedRecord { seq, rec: TraceRecord { wall_ns: 0, ..r } }));
            prop_assert_eq!(parsed, oracle::parse_line(&line));
        }

        /// Numeric keys the record's kind does not use are ignored wherever
        /// they sit, by both parsers alike.
        #[test]
        fn unknown_numeric_keys_are_ignored(
            (r, seq) in record_strategy(),
            extra in edgy_u64(),
            slot in 0usize..8,
        ) {
            let line = render_line(&r, seq);
            // After the `slot`-th comma, or at the end of the object.
            let at = line
                .match_indices(',')
                .nth(slot)
                .map_or(line.len() - 1, |(i, _)| i);
            let widened = format!("{},\"zz_unknown\":{extra}{}", &line[..at], &line[at..]);
            prop_assert_eq!(parse_line(&widened), parse_line(&line), "{}", widened);
            prop_assert_eq!(parse_line(&widened), oracle::parse_line(&widened));
        }

        /// A line cut at any byte — what a crash mid-write leaves behind —
        /// is never a record.
        #[test]
        fn every_truncation_is_rejected((r, seq) in record_strategy()) {
            let line = render_line(&r, seq);
            for cut in 0..line.len() {
                prop_assert_eq!(parse_line(&line[..cut]), None, "cut at {}: {}", cut, &line[..cut]);
            }
        }

        /// Arbitrary bytes never parse and never panic.
        #[test]
        fn garbage_is_rejected(bytes in collection::vec(any::<u8>(), 0..120)) {
            let text = String::from_utf8_lossy(&bytes);
            for line in text.lines() {
                prop_assert_eq!(parse_line(line), None);
            }
            // The same noise behind a plausible opening.
            let line = format!("{{\"at\":1,\"shard\":0,\"seq\":0,{text}");
            prop_assert_eq!(parse_line(line.lines().next().unwrap_or("")), None);
        }
    }
}
