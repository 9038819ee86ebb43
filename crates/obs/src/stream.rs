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
//!   = 65535 for the net side); `seq` — per-shard push counter. The `"k"`
//!   tag and the fields after it are the kind's row in `trace_kinds!`.
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
//! shards nondeterministically. [`read`] returns the records stably sorted
//! by `(at, shard, seq)`, which reproduces exactly the order of the
//! in-memory merged trace (`assemble_report` concatenates shards in index
//! order — net last — then stable-sorts by `at`): what makes the streamed
//! path byte-equivalent to [`crate::ObsReport::to_jsonl`].
//!
//! ## One pass per stream
//!
//! [`read`] walks the text once. A line exactly as [`render_line`] writes
//! it is read by a fast path that checks each literal key in declared
//! order and finds the line's end itself; any other line goes to
//! [`parse_line`] with `str::lines`' semantics, `\r\n` included. Records
//! stay in per-shard runs, each checked for `(at, seq)` order as it
//! arrives. When every run is in order they are merged by `(at, shard)`;
//! when one is not, the whole stream is sorted instead. Either way the
//! result is the order of a stable sort by `(at, shard, seq)` of the whole
//! stream, for any input.

use std::fmt::Write as _;
use std::io::Write;
use std::sync::{Arc, Condvar, Mutex};

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
pub struct SharedBuf(Arc<(Mutex<Lendable>, Condvar)>);

#[derive(Debug, Default)]
struct Lendable {
    /// Every byte written, or while a [`Contents`] is out, those written
    /// since it was taken.
    bytes: Vec<u8>,
    /// Whether a [`Contents`] holds the earlier bytes.
    lent: bool,
}

impl SharedBuf {
    /// The bytes written so far, as UTF-8, lent rather than copied: the
    /// view takes the buffer's own allocation and puts it back when it
    /// drops. Valid UTF-8 is checked once per call and not copied; invalid
    /// bytes read lossily (U+FFFD) from a copy, and the buffer keeps them
    /// as written.
    ///
    /// A writer never blocks on a view, on this thread or another: what it
    /// writes while the view is held lands after the lent bytes and shows
    /// in the next view. A second `contents()` waits until the first view
    /// drops, so one thread must not hold two.
    pub fn contents(&self) -> Contents<'_> {
        let (state, returned) = &*self.0;
        let mut state = lock(state);
        while state.lent {
            state = returned
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
        match String::from_utf8(std::mem::take(&mut state.bytes)) {
            Ok(text) => {
                state.lent = true;
                Contents {
                    text,
                    lender: Some(self),
                }
            }
            Err(invalid) => {
                let text = String::from_utf8_lossy(invalid.as_bytes()).into_owned();
                state.bytes = invalid.into_bytes();
                Contents { text, lender: None }
            }
        }
    }
}

/// A [`SharedBuf`]'s text, read in place; see [`SharedBuf::contents`].
pub struct Contents<'a> {
    text: String,
    /// The buffer `text` was taken from, or `None` for a lossy copy.
    lender: Option<&'a SharedBuf>,
}

impl std::ops::Deref for Contents<'_> {
    type Target = str;
    fn deref(&self) -> &str {
        &self.text
    }
}

impl Drop for Contents<'_> {
    fn drop(&mut self) {
        let Some(buf) = self.lender else { return };
        let (state, returned) = &*buf.0;
        let mut state = lock(state);
        let mut bytes = std::mem::take(&mut self.text).into_bytes();
        bytes.extend_from_slice(&state.bytes);
        state.bytes = bytes;
        state.lent = false;
        returned.notify_one();
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        lock(&self.0 .0).bytes.extend_from_slice(buf);
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

/// The decimal digits of `0..100`, two bytes each.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Appends `v` in decimal, writing the digits straight into `out`, two at
/// a time from the right.
#[inline]
pub(crate) fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let len = v.checked_ilog10().map_or(1, |d| d as usize + 1);
    let start = out.len();
    out.resize(start + len, b'0');
    let digits = &mut out[start..];
    let mut i = len;
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        digits[0] = b'0' + v as u8;
    }
}

/// Appends one record's line (no trailing newline). Pure byte pushes: no
/// formatter, no allocation beyond `out`'s own growth.
fn render_line_into(out: &mut Vec<u8>, rec: &TraceRecord, seq: u64) {
    out.extend_from_slice(b"{\"at\":");
    push_u64(out, rec.at.as_nanos());
    out.extend_from_slice(b",\"shard\":");
    push_u64(out, rec.shard as u64);
    out.extend_from_slice(b",\"seq\":");
    push_u64(out, seq);
    out.extend_from_slice(b",\"k\":\"");
    out.extend_from_slice(rec.kind.tag().as_bytes());
    out.push(b'"');
    rec.kind.render_fields(out);
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
}

/// Reads an unsigned decimal starting at `line[i]`: 1–20 digits, no
/// leading zero, no overflow. Returns the value and the index past it.
#[inline]
pub(crate) fn scan_u64(line: &[u8], mut i: usize) -> Option<(u64, usize)> {
    let start = i;
    let mut v: u64 = 0;
    while let Some(d) = line
        .get(i)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|d| *d < 10)
    {
        // Nineteen digits cannot overflow; only a longer number is checked.
        v = match i - start < 19 {
            true => v * 10 + d as u64,
            false => v.checked_mul(10)?.checked_add(d as u64)?,
        };
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
/// crash included, since the closing brace is required. [`read`] applies
/// it to every line its fast path does not take. Keys the record's kind
/// does not use are ignored; a value too wide for its field is malformed.
pub fn parse_line(line: &str) -> Option<StreamedRecord> {
    let f = scan(line.as_bytes())?;
    let at = Nanos(f.get("at")?);
    let shard = u16::try_from(f.get("shard")?).ok()?;
    let seq = f.get("seq")?;
    let kind = TraceKind::parse(f.tag?, |name| f.get(name))?;
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

/// Reads the line at `text[start..]` if it is exactly as
/// [`render_line`] writes it and ends at a `\n` or at the end of the
/// text: the envelope's literal keys, then the kind's fields in declared
/// order ([`TraceKind::parse_canonical`]), then the closing brace. Returns
/// the record and the index past the line's end. Whatever it accepts,
/// [`parse_line`] reads the same; `None` hands the line to it.
#[inline]
fn parse_canonical(text: &[u8], start: usize) -> Option<(StreamedRecord, usize)> {
    let literal =
        |i: usize, key: &[u8]| (text.get(i..i + key.len())? == key).then(|| i + key.len());
    let (at, i) = scan_u64(text, literal(start, b"{\"at\":")?)?;
    let (shard, i) = scan_u64(text, literal(i, b",\"shard\":")?)?;
    let (seq, i) = scan_u64(text, literal(i, b",\"seq\":")?)?;
    let i = literal(i, b",\"k\":\"")?;
    let tag = &text[i..i + text[i..].iter().position(|&b| b == b'"')?];
    let (kind, i) = TraceKind::parse_canonical(tag, text, i + tag.len() + 1)?;
    let end = match text.get(i..i + 2) {
        Some(b"}\n") => i + 2,
        _ if text.get(i..) == Some(b"}") => i + 1,
        _ => return None,
    };
    let rec = TraceRecord {
        at: Nanos(at),
        wall_ns: 0,
        shard: u16::try_from(shard).ok()?,
        kind,
    };
    Some((StreamedRecord { seq, rec }, end))
}

/// One shard's records as they arrive: the first and the last so far
/// (indices into the records read), and whether they arrived in
/// `(at, seq)` order.
struct ShardRun {
    shard: u16,
    head: u32,
    tail: u32,
    ordered: bool,
}

/// The end of a run's list in [`read`]'s links.
const NIL: u32 = u32::MAX;

/// Reads a stream (or [`crate::ObsReport::to_jsonl`] output) into its
/// records in canonical merged-trace order: the same records as
/// `text.lines().filter_map(parse_line)`, in the order a stable sort by
/// `(at, shard, seq)` would give them. [`crate::NET_SHARD`] is
/// `u16::MAX`, so net records land after every worker at the same
/// sim-time — exactly the in-memory merge order. Meta, blank and
/// malformed lines are skipped.
///
/// One pass over the text (see the module docs). Beyond the returned
/// records it allocates one `u32` per record: each record's link to the
/// next record of its shard, which the merge then overwrites with the
/// record's final position.
pub fn read(text: &str) -> Vec<StreamedRecord> {
    // Record lines average about 90 bytes: these seldom regrow, and the
    // capacity a stream does not fill is never touched.
    let mut records: Vec<StreamedRecord> = Vec::with_capacity(text.len() / 64);
    let mut links: Vec<u32> = Vec::with_capacity(text.len() / 64);
    let mut runs: Vec<ShardRun> = Vec::new();
    let mut cur = 0;
    let mut canonical = true;
    let mut start = 0;
    while start < text.len() {
        let parsed = match parse_canonical(text.as_bytes(), start) {
            Some((r, next)) => {
                start = next;
                Some(r)
            }
            None => {
                // `str::lines`: split at `\n`, then drop one `\r` before it.
                let end = text[start..].find('\n').map_or(text.len(), |n| start + n);
                let line = &text[start..end];
                let line = match end < text.len() {
                    true => line.strip_suffix('\r').unwrap_or(line),
                    false => line,
                };
                start = end + 1;
                parse_line(line)
            }
        };
        let Some(r) = parsed else { continue };
        let i = u32::try_from(records.len()).expect("fewer than 2^32 records");
        if let Some(prev) = records.last() {
            canonical &= (prev.rec.at, prev.rec.shard, prev.seq) <= (r.rec.at, r.rec.shard, r.seq);
        }
        if runs.get(cur).is_none_or(|run| run.shard != r.rec.shard) {
            cur = match runs.iter().position(|run| run.shard == r.rec.shard) {
                Some(k) => k,
                None => {
                    runs.push(ShardRun {
                        shard: r.rec.shard,
                        head: i,
                        tail: i,
                        ordered: true,
                    });
                    runs.len() - 1
                }
            };
        }
        let run = &mut runs[cur];
        if run.tail != i {
            let last = &records[run.tail as usize];
            run.ordered &= (last.rec.at, last.seq) <= (r.rec.at, r.seq);
            links[run.tail as usize] = i;
            run.tail = i;
        }
        links.push(NIL);
        records.push(r);
    }
    if canonical {
        return records;
    }
    if runs.iter().all(|run| run.ordered) {
        merge_runs(&mut records, &mut links, runs);
    } else {
        // Some shard's records arrived out of order: sort the lot in place.
        // `wall_ns` is zero in every record read (the stream carries no
        // wall stamp), so it can hold the arrival index meanwhile, which
        // makes the unstable sort stable.
        drop(links);
        for (i, r) in records.iter_mut().enumerate() {
            r.rec.wall_ns = i as u64;
        }
        records.sort_unstable_by_key(|r| (r.rec.at, r.rec.shard, r.seq, r.rec.wall_ns));
        for r in &mut records {
            r.rec.wall_ns = 0;
        }
    }
    records
}

/// Merges the runs, each linked in `(at, seq)` order through `links`, by
/// `(at, shard)` — the first run in shard order holds a tie — and moves
/// every record to its place. The merge overwrites each record's link
/// with its final position as it takes the record, the link's last use,
/// so the positions need no second buffer.
fn merge_runs(records: &mut [StreamedRecord], links: &mut [u32], mut runs: Vec<ShardRun>) {
    runs.sort_unstable_by_key(|run| run.shard);
    let mut heads: Vec<u32> = runs.iter().map(|run| run.head).collect();
    for place in 0..records.len() as u32 {
        let mut best = usize::MAX;
        for (k, &h) in heads.iter().enumerate() {
            if h != NIL
                && (best == usize::MAX
                    || records[h as usize].rec.at < records[heads[best] as usize].rec.at)
            {
                best = k;
            }
        }
        let taken = heads[best] as usize;
        heads[best] = links[taken];
        links[taken] = place;
    }
    // Follow each cycle of the placement once, marking placed slots.
    for first in 0..records.len() {
        let mut to = links[first] as usize;
        if to == first {
            continue;
        }
        let mut moving = records[first];
        links[first] = first as u32;
        while to != first {
            std::mem::swap(&mut records[to], &mut moving);
            let next = links[to] as usize;
            links[to] = to as u32;
            to = next;
        }
        records[first] = moving;
    }
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

    /// One record of every kind, each field a distinct small value.
    fn one_of_each() -> Vec<TraceKind> {
        vec![
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
        ]
    }

    #[test]
    fn every_kind_round_trips_through_the_line_protocol() {
        for (i, kind) in one_of_each().into_iter().enumerate() {
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

    /// Each narrow field of each kind takes its type's maximum and rejects
    /// the next value: the table's field types are the line's widths.
    #[test]
    fn narrow_fields_reject_values_past_their_width() {
        let narrow = [
            ("enq", "bundle", 32),
            ("deq", "bundle", 32),
            ("drop", "bundle", 32),
            ("mode", "bundle", 32),
            ("mode", "mode", 8),
            ("rate", "bundle", 32),
            ("epoch", "bundle", 32),
            ("migrate", "bundle", 32),
            ("migrate", "from", 16),
            ("migrate", "to", 16),
            ("fluid", "path", 32),
            ("flow_admit", "bundle", 32),
            ("health", "kind", 8),
            ("health", "subject", 32),
            ("fluid_agg", "agg", 32),
            ("fluid_agg", "path", 32),
        ];
        let lines: Vec<String> = one_of_each()
            .into_iter()
            .map(|kind| render_line(&rec(1, 0, kind), 0))
            .collect();
        for (tag, field, bits) in narrow {
            let tagged = format!("\"k\":\"{tag}\"");
            let line = lines.iter().find(|l| l.contains(&tagged)).unwrap();
            let key = format!(",\"{field}\":");
            let start = line.find(&key).unwrap() + key.len();
            let end = start + line[start..].find(|c: char| !c.is_ascii_digit()).unwrap();
            let with = |v: u64| format!("{}{v}{}", &line[..start], &line[end..]);
            let max = (1u64 << bits) - 1;
            assert!(parse_line(&with(max)).is_some(), "{tag}.{field} = {max}");
            assert_eq!(parse_line(&with(max + 1)), None, "{tag}.{field} = 2^{bits}");
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
    fn a_view_reads_every_block_written() {
        let (sink, buf) = StreamSink::to_shared_vec();
        let mut ring = TraceRing::with_capacity(8, 8);
        let (mut seq, mut scratch, mut want) = (0u64, Vec::new(), String::new());
        let mut m = MetricsShard::default();
        for round in 0..3u64 {
            for i in 0..=round {
                let r = rec(round * 100 + i, 1, TraceKind::Enqueue { bundle: i as u32 });
                want += &(render_line(&r, seq + i) + "\n");
                ring.push(r);
            }
            sink.flush_ring(&mut ring, &mut seq, &mut scratch);
            m.add(crate::metrics::CounterId::FlowsCompleted, round);
            sink.write_metrics(Nanos(round * 100 + 50), 1, &m);
            let counters: Vec<String> = m.counters().iter().map(u64::to_string).collect();
            want += &format!(
                "{{\"meta\":\"metrics\",\"at\":{},\"shard\":1,\"c\":[{}]}}\n",
                round * 100 + 50,
                counters.join(",")
            );
        }
        assert_eq!(&*buf.contents(), want);
    }

    #[test]
    fn a_view_lends_the_bytes_and_puts_them_back() {
        let (mut buf, raw) = (SharedBuf::default(), b"a\nbb\n");
        buf.write_all(raw).unwrap();
        let view = buf.contents();
        let at = view.as_ptr();
        drop(view);
        // The buffer holds the very allocation the view read: nothing was
        // copied, and the next view reads the same text.
        assert_eq!(lock(&buf.0 .0).bytes.as_ptr(), at);
        assert_eq!(&*buf.contents(), "a\nbb\n");
        assert_eq!(&*buf.contents(), "a\nbb\n");
    }

    #[test]
    fn bytes_written_after_a_view_follow_the_earlier_ones() {
        let mut buf = SharedBuf::default();
        buf.write_all(b"a\n").unwrap();
        drop(buf.contents());
        buf.write_all(b"b\n").unwrap();
        // A write on the view's own thread, through a clone as the sink
        // holds one, does not wait for the view.
        let view = buf.contents();
        buf.clone().write_all(b"c\n").unwrap();
        assert_eq!(&*view, "a\nb\n");
        drop(view);
        assert_eq!(&*buf.contents(), "a\nb\nc\n");
    }

    #[test]
    fn invalid_utf8_reads_lossily_and_keeps_its_bytes() {
        let mut buf = SharedBuf::default();
        buf.write_all(b"ok\n\xff\xfe\n").unwrap();
        assert_eq!(&*buf.contents(), "ok\n\u{FFFD}\u{FFFD}\n");
        buf.write_all(b"more\n").unwrap();
        assert_eq!(&*buf.contents(), "ok\n\u{FFFD}\u{FFFD}\nmore\n");
        let state = lock(&buf.0 .0);
        assert_eq!(state.bytes, b"ok\n\xff\xfe\nmore\n");
        assert!(!state.lent);
    }

    #[test]
    fn other_threads_write_past_a_view_and_read_after_it() {
        let mut buf = SharedBuf::default();
        buf.write_all(b"a\n").unwrap();
        let view = buf.contents();
        std::thread::scope(|s| {
            // The view is out before either thread starts: the writer
            // finishes while it is held, the reader waits for it to drop.
            let mut writer = buf.clone();
            s.spawn(move || writer.write_all(b"b\n").unwrap())
                .join()
                .unwrap();
            let reader = s.spawn(|| buf.contents().to_string());
            assert_eq!(&*view, "a\n");
            drop(view);
            assert_eq!(reader.join().unwrap(), "a\nb\n");
        });
    }

    #[test]
    fn canonical_sort_puts_net_last_within_a_timestamp() {
        let text: String = [(crate::NET_SHARD, 0, 0), (0, 1, 1), (0, 0, 2)]
            .into_iter()
            .map(|(shard, seq, bundle)| {
                render_line(&rec(10, shard, TraceKind::Enqueue { bundle }), seq) + "\n"
            })
            .collect();
        let bundles: Vec<u32> = read(&text)
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
    /// `write!`-based renderer and a `find`-per-field parser, with its own
    /// tag table and the hand-written portable key the `trace_kinds!` table
    /// replaced.
    mod oracle {
        use std::fmt::Write as _;

        use super::super::StreamedRecord;
        use crate::trace::{TraceKind, TraceRecord};
        use bundler_types::Nanos;

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

        pub fn portable_key(rec: &TraceRecord) -> (u64, u8, u64, u64, u64) {
            let at = rec.at.as_nanos();
            match rec.kind {
                TraceKind::Enqueue { bundle } => (at, 0, bundle as u64, 0, 0),
                TraceKind::Dequeue { bundle, sojourn_ns } => (at, 1, bundle as u64, sojourn_ns, 0),
                TraceKind::Drop { bundle } => (at, 2, bundle as u64, 0, 0),
                TraceKind::ModeChange { bundle, mode } => (at, 3, bundle as u64, mode as u64, 0),
                TraceKind::RateChange { bundle, rate_bps } => (at, 4, bundle as u64, rate_bps, 0),
                TraceKind::Epoch { bundle, size_pkts } => (at, 5, bundle as u64, size_pkts, 0),
                TraceKind::Migration {
                    bundle,
                    pkts,
                    bytes,
                    ..
                } => (at, 6, bundle as u64, pkts, bytes),
                TraceKind::WorkerWindow { windex, events, .. } => (at, 7, windex, events, 0),
                TraceKind::NetPhase { windex, events, .. } => (at, 8, windex, events, 0),
                TraceKind::FluidLevel {
                    path,
                    backlog_bytes,
                    rate_bps,
                } => (at, 9, path as u64, backlog_bytes, rate_bps),
                TraceKind::FlowAdmit {
                    flow,
                    bundle,
                    size_bytes,
                } => (at, 10, flow, bundle as u64, size_bytes),
                TraceKind::FlowSendbox { flow, sojourn_ns } => (at, 11, flow, sojourn_ns, 0),
                TraceKind::FlowBottleneck { flow, sojourn_ns } => (at, 12, flow, sojourn_ns, 0),
                TraceKind::FlowEnd {
                    flow,
                    fct_ns,
                    sendbox_ns,
                    ..
                } => (at, 13, flow, fct_ns, sendbox_ns),
                TraceKind::Health {
                    kind,
                    subject,
                    value,
                } => (at, 14, kind as u64, subject as u64, value),
                TraceKind::FluidAgg {
                    agg,
                    path,
                    rate_bps,
                } => (at, 15, ((agg as u64) << 32) | path as u64, rate_bps, 0),
            }
        }

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

    /// The order [`read`] must reproduce, the way consumers built it
    /// before it existed: the general parser over `str::lines`, then a
    /// stable sort by `(at, shard, seq)`.
    fn reference_read(text: &str) -> Vec<StreamedRecord> {
        let mut records: Vec<StreamedRecord> = text.lines().filter_map(parse_line).collect();
        records.sort_by_key(|r| (r.rec.at, r.rec.shard, r.seq));
        records
    }

    /// `line` with its `shard` and `seq` members swapped: still a record
    /// to the general parser, never to the fast path.
    fn permuted(line: &str) -> String {
        let k = line.find(",\"k\":").unwrap();
        let members: Vec<&str> = line[..k].split(',').collect();
        format!("{},{},{}{}", members[0], members[2], members[1], &line[k..])
    }

    #[test]
    fn the_fast_path_and_the_general_parser_agree_on_every_kind() {
        for (i, kind) in one_of_each().into_iter().enumerate() {
            let line = render_line(&rec(1000 + i as u64, i as u16, kind), i as u64);
            let parsed = parse_line(&line).expect("a rendered line parses");
            let bytes = line.as_bytes();
            assert_eq!(
                parse_canonical(bytes, 0),
                Some((parsed, line.len())),
                "{line}"
            );
            let ended = format!("{line}\n");
            assert_eq!(
                parse_canonical(ended.as_bytes(), 0),
                Some((parsed, ended.len()))
            );
            // What the fast path leaves to the general parser.
            for other in [format!("{line}\r\n"), format!("{line} \n"), permuted(&line)] {
                assert_eq!(parse_canonical(other.as_bytes(), 0), None, "{other}");
            }
            assert_eq!(parse_line(&permuted(&line)), Some(parsed));
        }
    }

    /// A splitmix64 stream: every choice the stream generator makes.
    struct Dice(u64);

    impl Dice {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn percent(&mut self, p: u64) -> bool {
            self.below(100) < p
        }
    }

    /// A stream as runs write it, and worse: 1–4 shards (the net side
    /// among the candidates) flushing blocks interleaved at random, one
    /// run or a restored run's two concatenated (`seq` restarts), shards
    /// whose records arrive out of `(at, seq)` order, duplicated lines,
    /// meta, blank, malformed, truncated and key-permuted lines, `\r\n`
    /// endings and an unterminated last line. Returns the text and its
    /// key-permuted lines.
    fn messy_stream(dice: &mut Dice) -> (String, Vec<String>) {
        let mut pool = vec![0u16, 1, 2, 3, crate::NET_SHARD - 1, crate::NET_SHARD];
        let shards: Vec<u16> = (0..1 + dice.below(4))
            .map(|_| pool.remove(dice.below(pool.len() as u64) as usize))
            .collect();
        let kinds = one_of_each();
        let mut lines: Vec<String> = Vec::new();
        let mut permuted_lines = Vec::new();
        let mut at_floor = dice.below(1000);
        for _segment in 0..1 + dice.below(2) {
            // Each shard's lines in push order, then cut into flush blocks.
            let mut blocks: Vec<std::collections::VecDeque<Vec<String>>> = Vec::new();
            for &shard in &shards {
                let mut at = at_floor + dice.below(50);
                let disordered = dice.percent(25);
                let mut own: Vec<String> = Vec::new();
                for seq in 0..dice.below(30) {
                    at += [0, 0, 1, 7][dice.below(4) as usize];
                    let stamp = match disordered && dice.percent(30) {
                        true => at.saturating_sub(dice.below(20)),
                        false => at,
                    };
                    let kind = kinds[dice.below(kinds.len() as u64) as usize];
                    own.push(render_line(&rec(stamp, shard, kind), seq));
                }
                if disordered && own.len() > 2 {
                    let i = dice.below(own.len() as u64 - 1) as usize;
                    own.swap(i, i + 1);
                }
                let mut cut = std::collections::VecDeque::new();
                while !own.is_empty() {
                    let n = (1 + dice.below(8) as usize).min(own.len());
                    cut.push_back(own.drain(..n).collect());
                }
                blocks.push(cut);
            }
            while blocks.iter().any(|b| !b.is_empty()) {
                let open: Vec<usize> = (0..blocks.len())
                    .filter(|&i| !blocks[i].is_empty())
                    .collect();
                let pick = open[dice.below(open.len() as u64) as usize];
                for line in blocks[pick].pop_front().unwrap() {
                    if dice.percent(5) {
                        lines.push(line.clone());
                    }
                    if dice.percent(5) {
                        permuted_lines.push(permuted(&line));
                        lines.push(permuted(&line));
                    }
                    match dice.below(40) {
                        0 => lines
                            .push("{\"meta\":\"metrics\",\"at\":1,\"shard\":0,\"c\":[1,2]}".into()),
                        1 => lines.push(String::new()),
                        2 => lines.push("not json at all".into()),
                        3 => lines.push(line[..dice.below(line.len() as u64) as usize].to_string()),
                        _ => {}
                    }
                    lines.push(line);
                }
            }
            // A restored run re-exports from an instant at or after the
            // prefix's, or anywhere at all.
            at_floor += dice.below(40);
        }
        let mut text = String::new();
        for (i, line) in lines.iter().enumerate() {
            text.push_str(line);
            let last = i + 1 == lines.len();
            match dice.below(10) {
                _ if last && dice.percent(30) => {}
                0 | 1 => text.push_str("\r\n"),
                _ => text.push('\n'),
            }
        }
        if dice.percent(10) {
            text.push('\r');
        }
        (text, permuted_lines)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `read` gives exactly the records, in exactly the order, of the
        /// general parser over `str::lines` followed by a stable sort; and
        /// a key-permuted line is read by the general parser alone.
        #[test]
        fn read_matches_the_parse_and_stable_sort_reference(seed in any::<u64>()) {
            let (text, permuted_lines) = messy_stream(&mut Dice(seed));
            prop_assert_eq!(read(&text), reference_read(&text), "{}", text);
            for line in &permuted_lines {
                prop_assert_eq!(parse_canonical(line.as_bytes(), 0), None);
                prop_assert!(parse_line(line).is_some());
            }
        }
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
            prop_assert_eq!(parse_canonical(line.as_bytes(), 0).map(|(r, _)| r), parsed);
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

        /// The table's portable key equates and orders records exactly as
        /// the hand-written key it replaced. (`FluidAgg` keys `(agg, path,
        /// rate_bps)` where the old key packed `agg << 32 | path`; both
        /// fields are `u32`, so the order is the same.) Twins that differ
        /// only in what the key masks out make equal keys common.
        #[test]
        fn portable_key_matches_the_reference(
            drawn in collection::vec(record_strategy(), 1..24),
            twins in collection::vec((0usize..24, any::<u64>(), any::<u16>()), 0..12),
        ) {
            let mut recs: Vec<TraceRecord> = drawn.into_iter().map(|(r, _)| r).collect();
            for (i, wall_ns, shard) in twins {
                let r = recs[i % recs.len()];
                recs.push(TraceRecord { wall_ns, shard, ..r });
            }
            for a in &recs {
                for b in &recs {
                    let new = a.portable_key().cmp(&b.portable_key());
                    let old = oracle::portable_key(a).cmp(&oracle::portable_key(b));
                    prop_assert_eq!(new, old, "{:?} vs {:?}", a, b);
                }
            }
        }

        /// A line cut at any byte — what a crash mid-write leaves behind —
        /// is never a record.
        #[test]
        fn every_truncation_is_rejected((r, seq) in record_strategy()) {
            let line = render_line(&r, seq);
            for cut in 0..line.len() {
                prop_assert_eq!(parse_line(&line[..cut]), None, "cut at {}: {}", cut, &line[..cut]);
                prop_assert_eq!(parse_canonical(&line.as_bytes()[..cut], 0), None);
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
