//! Whole-simulation snapshots: versioned wire format and replay helpers.
//!
//! A snapshot captures the complete dynamic state of a run at a simulated
//! instant `T` — every flow, bundle, queued packet, pending event and
//! statistics accumulator — such that restoring it and running to the end
//! produces a [`crate::stats::SimStats`] digest **bit-identical** to the
//! uninterrupted run. Snapshots are *partition-independent*: the bytes
//! written at time `T` are the same whether the run used one thread or any
//! sharded configuration, and a snapshot may be restored into a different
//! shard count than the one that wrote it.
//!
//! # Wire format (version 3)
//!
//! All integers are little-endian; variable structures use the repo's
//! vendored `serde::binary` codec (`u64` length prefixes, `u8` enum tags).
//!
//! ```text
//! magic        [u8; 8]   = b"BNDLSNAP"
//! version      u32       = 3
//! at           u64       simulated time T in nanoseconds
//! fingerprint  u64       FNV-1a over the result-affecting config + workload
//! residue      WorkerResidue   merged run-wide accumulators (fcts, counters)
//! direct       direct-traffic slice (flows, pings, pending LP_DIRECT events)
//! bundles      u64 count, then one bundle section per bundle, ascending index
//! net          one path section per bottleneck path, ascending global id
//! ```
//!
//! Version 3 (PR 10) makes the net slice *path-major*: instead of one
//! `NetCore` blob (global event sequence, balancer state, one fault
//! cursor), the slice is the concatenation of per-path sections — key
//! stream, queue state, fault cursor/counters and the path's pending net
//! events — written in ascending global path id. Because each path's
//! section is produced by whichever net shard owns the path and paths are
//! written in global order, the bytes are invariant under the net-shard
//! count, exactly as the worker slices are invariant under the worker
//! count. The load balancer no longer appears at all: it is stateless
//! (a pure hash of the packet identity) as of PR 10.
//!
//! When [`SimulationConfig::cross_traffic`] is set, each path section
//! carries a fluid sub-section (the path's fluid LP sequence, its
//! per-aggregate fluid state and the fluid-collapse monitor edge flags for
//! aggregates pinned to the path) between the fault state and the pending
//! net events. The section's presence is keyed by the config — which the
//! fingerprint covers — so packet-only snapshots keep the exact layout
//! above.
//!
//! Version 2 (PR 9) appended a one-byte presence flag to the direct slice
//! and to every bundle section: `1` is followed by the in-flight
//! observability state (sampled flow spans mid-lifecycle + health-monitor
//! readings) so flow tracing and watchdogs survive checkpoint/restore;
//! `0` means none. The flag is `0` whenever tracing is off, and the whole
//! section is excluded from the fingerprint — like `obs` itself, it never
//! affects simulation results.
//!
//! The fingerprint covers only fields that change simulation *results*
//! (durations, rates, topology, workload, fault plan). Observability level,
//! shard count, balance policy and the checkpoint cadence are deliberately
//! excluded so a snapshot can be replayed with tracing enabled or restored
//! into a different partitioning.
//!
//! Anything host-dependent (pointers, hash-map iteration order, thread ids)
//! is never written: collections are serialized in canonical orders (flow
//! id, event key, scheduler traversal order), which is what makes the bytes
//! portable and partition-invariant.
//!
//! # Who writes, who reads
//!
//! Both walks of the layout above live here, once each, and both hosts go
//! through them. **Writing**: every worker core contributes one
//! [`WorkerPart`] (`WorkerCore::save_part`), every net core its
//! [`PathSection`]s (`NetCore::save_sections`), and [`assemble`] lays the
//! parts out in the canonical order whatever the partitioning was — the
//! single-threaded host hands it one part and one section list, the
//! sharded host one per thread. A host's [`Writer`] keeps what lasts from
//! one checkpoint to the next: the cadence, the fingerprint, the size
//! hint. **Reading**: [`restore_into`] pours the same layout into whatever
//! cores a [`RestoreHost`] names.
//!
//! A bundle's section is written by `WorkerCore::save_bundle` and read by
//! `WorkerCore::load_bundle` and nowhere else — and those two are also how
//! the sharded host migrates a bundle between workers (save, drop, load), so
//! a checkpoint, a restore and a migration move one bundle through the same
//! bytes.

use bundler_types::{Duration, Nanos, PacketArena};
use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::event::EventQueue;
use crate::runtime::{NetCore, WorkerCore, WorkerResidue};
use crate::sim::SimulationConfig;
use crate::workload::FlowSpec;

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"BNDLSNAP";

/// Current snapshot format version. Bump this (and the format notes in
/// `ARCHITECTURE.md`) whenever the byte layout changes; the golden-format
/// test fails loudly when an accidental layout change sneaks in.
pub const VERSION: u32 = 3;

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`VERSION`].
    BadVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The snapshot was taken under a different config or workload.
    FingerprintMismatch {
        /// Fingerprint expected for the restoring config/workload.
        expected: u64,
        /// Fingerprint found in the header.
        found: u64,
    },
    /// The payload failed to decode.
    Corrupt(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a bundler snapshot (bad magic)"),
            SnapshotError::BadVersion { found } => write!(
                f,
                "snapshot format version {found} is not supported (expected {VERSION})"
            ),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot was taken under a different config/workload \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
            SnapshotError::Corrupt(msg) => write!(f, "snapshot payload corrupt: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

#[cfg(test)]
thread_local! {
    /// [`fingerprint`] calls made on this thread: the hosts' tests assert
    /// a simulation hashes its workload at most once.
    pub(crate) static FINGERPRINT_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Fingerprint of the result-affecting parts of a config + workload.
///
/// Built from the `Debug` rendering of exactly the fields that change what
/// the simulation computes. Excludes the fields that only change how a run
/// is hosted or observed so that replay-with-tracing and
/// restore-into-different-shard-count both accept the snapshot. The config
/// is destructured without a rest pattern: a field added to
/// [`SimulationConfig`] does not compile until it is put on one side.
///
/// The rendering is linear in the workload (about 0.5 µs per flow), and
/// config and workload are immutable once a host is built: the hosts call
/// this at most once per simulation and keep the value.
pub fn fingerprint(config: &SimulationConfig, workload: &[FlowSpec]) -> u64 {
    #[cfg(test)]
    FINGERPRINT_CALLS.with(|calls| calls.set(calls.get() + 1));
    let SimulationConfig {
        duration,
        bottleneck_rate,
        rtt,
        buffer_pkts,
        num_paths,
        path_delay_spread,
        packet_spraying,
        in_network_fq,
        bundles,
        multi_bundle,
        sample_interval,
        faults,
        cross_traffic,
        shards: _,
        balance: _,
        net_shards: _,
        wire_envelopes: _,
        obs: _,
        checkpoint_every: _,
        flow_trace: _,
        stream: _,
    } = config;
    let mut s = format!(
        "{duration:?}|{bottleneck_rate:?}|{rtt:?}|{buffer_pkts:?}|{num_paths:?}|\
         {path_delay_spread:?}|{packet_spraying:?}|{in_network_fq:?}|{bundles:?}|\
         {multi_bundle:?}|{sample_interval:?}|{faults:?}|{workload:?}",
    );
    // Appended (rather than a 14th slot) only when the fluid tier is on, so
    // fingerprints of packet-only configs are unchanged from before the
    // tier existed. The fluid snapshot section is likewise conditional on
    // this field, so the fingerprint pins whether the section is present.
    if let Some(ct) = cross_traffic {
        use std::fmt::Write;
        let _ = write!(s, "|{ct:?}");
    }
    fnv1a64(s.as_bytes())
}

fn write_header(out: &mut Vec<u8>, at: Nanos, fp: u64) {
    out.extend_from_slice(&MAGIC);
    VERSION.encode(out);
    at.encode(out);
    fp.encode(out);
}

/// `(path global id, serialized section)` — one bottleneck path's slice of
/// a snapshot, as written by the net core that owns the path.
pub type PathSection = (usize, Vec<u8>);

/// One worker core's serialized partition of a snapshot
/// (`WorkerCore::save_part`).
pub struct WorkerPart {
    /// The worker's run-wide accumulators (fcts, counters, agent stats).
    pub residue: WorkerResidue,
    /// The direct-traffic slice — present exactly on the worker that owns
    /// the direct LP.
    pub direct: Option<Vec<u8>>,
    /// `(bundle index, section)` for every bundle the worker owned when
    /// the part was taken.
    pub bundles: Vec<(usize, Vec<u8>)>,
}

/// Appends a whole snapshot stamped `at` to `out` in the canonical wire
/// format: header, merged residue, the direct slice, bundle sections in
/// ascending index, then one section per path in ascending global id. The
/// bytes depend on the state alone — not on how many workers or net cores
/// the parts came from, nor on which held what. Panics unless the parts
/// cover every bundle, the direct slice and every path exactly once.
pub fn assemble(
    config: &SimulationConfig,
    at: Nanos,
    fp: u64,
    parts: impl IntoIterator<Item = WorkerPart>,
    mut sections: Vec<PathSection>,
    out: &mut Vec<u8>,
) {
    let mut residue = WorkerResidue::default();
    let mut direct: Option<Vec<u8>> = None;
    let mut bundles: Vec<(usize, Vec<u8>)> = Vec::with_capacity(config.n_bundles());
    for part in parts {
        residue.merge(part.residue);
        if let Some(d) = part.direct {
            assert!(direct.is_none(), "two workers serialized the direct slice");
            direct = Some(d);
        }
        bundles.extend(part.bundles);
    }
    write_header(out, at, fp);
    residue.encode(out);
    out.extend_from_slice(&direct.expect("shard 0 serializes the direct slice"));
    bundles.sort_by_key(|&(b, _)| b);
    (config.n_bundles() as u64).encode(out);
    for (i, (b, bytes)) in bundles.iter().enumerate() {
        assert_eq!(i, *b, "bundle {b} was checkpointed by no worker, or by two");
        out.extend_from_slice(bytes);
    }
    sections.sort_by_key(|&(gid, _)| gid);
    assert_eq!(
        sections.len(),
        config.num_paths.max(1),
        "every bottleneck path deposits exactly one checkpoint section"
    );
    for (i, (gid, bytes)) in sections.iter().enumerate() {
        assert_eq!(i, *gid, "path {gid} checkpointed by no net core, or by two");
        out.extend_from_slice(bytes);
    }
}

/// What a host keeps from one checkpoint to the next: when the next one is
/// due, the fingerprint every header carries, and how big the last blob
/// was.
#[derive(Debug)]
pub struct Writer {
    /// [`fingerprint`] of the host's config and workload, which never
    /// change once the host exists: known after a restore (the header was
    /// checked against it), otherwise computed by the first checkpoint, so
    /// a run that takes none never hashes.
    fingerprint: Option<u64>,
    /// `(interval, next target)` in nanoseconds, if there is a cadence.
    cadence: Option<(u64, Nanos)>,
    /// Length of the previous blob, the size hint for the next one's
    /// buffer (successive snapshots of one run differ little).
    last_len: usize,
}

/// The first multiple of `every` strictly after `t`.
fn next_multiple(every: u64, t: Nanos) -> Nanos {
    Nanos((t.as_nanos() / every + 1) * every)
}

impl Writer {
    /// The writer of a host whose run begins at `start` and checkpoints
    /// `every` so often ([`SimulationConfig::checkpoint_every`]): the first
    /// target is the first multiple strictly after `start`, so a restored
    /// run does not re-write the checkpoint it was restored from.
    /// `fingerprint` is the restored snapshot's, `None` for a fresh run.
    pub fn new(every: Option<Duration>, start: Nanos, fingerprint: Option<u64>) -> Self {
        let every = every.map(|iv| iv.as_nanos()).filter(|&iv| iv > 0);
        Writer {
            fingerprint,
            cadence: every.map(|iv| (iv, next_multiple(iv, start))),
            last_len: 0,
        }
    }

    /// The instant the next checkpoint of a collecting run is due at (the
    /// single-threaded host stamps it exactly there, the sharded host at
    /// its first window start at or past it); `None` without a cadence.
    pub fn due(&self) -> Option<Nanos> {
        self.cadence.map(|(_, next)| next)
    }

    /// [`assemble`]s the checkpoint stamped `at` and moves the cadence to
    /// the first multiple after it. Every core flushed its records below
    /// `at` when it saved its part; the stream's file is flushed here, so
    /// a crash after this checkpoint is handed out leaves the export a
    /// complete prefix of the restored continuation.
    pub fn write(
        &mut self,
        config: &SimulationConfig,
        workload: &[FlowSpec],
        at: Nanos,
        parts: impl IntoIterator<Item = WorkerPart>,
        sections: Vec<PathSection>,
    ) -> Vec<u8> {
        let fp = *self
            .fingerprint
            .get_or_insert_with(|| fingerprint(config, workload));
        let mut blob = Vec::with_capacity(self.last_len);
        assemble(config, at, fp, parts, sections, &mut blob);
        self.last_len = blob.len();
        if let Some((iv, next)) = &mut self.cadence {
            *next = next_multiple(*iv, at);
        }
        if let Some(stream) = &config.stream {
            stream.flush_io();
        }
        blob
    }
}

fn corrupt(e: DecodeError) -> SnapshotError {
    SnapshotError::Corrupt(e.to_string())
}

/// Checks the magic and version and returns the snapshot's timestamp,
/// leaving the reader at the fingerprint.
fn read_stamp(r: &mut Reader<'_>) -> Result<Nanos, SnapshotError> {
    let magic = r.take(MAGIC.len(), "snapshot magic").map_err(corrupt)?;
    if magic != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::decode(r).map_err(corrupt)?;
    if version != VERSION {
        return Err(SnapshotError::BadVersion { found: version });
    }
    Nanos::decode(r).map_err(corrupt)
}

/// Validates the header and returns the snapshot's timestamp, leaving the
/// reader positioned at the start of the payload.
pub fn read_header(r: &mut Reader<'_>, expected_fp: u64) -> Result<Nanos, SnapshotError> {
    let at = read_stamp(r)?;
    let found = u64::decode(r).map_err(corrupt)?;
    if found != expected_fp {
        return Err(SnapshotError::FingerprintMismatch {
            expected: expected_fp,
            found,
        });
    }
    Ok(at)
}

/// Reads only the timestamp out of a snapshot header without checking the
/// fingerprint — useful for listing checkpoints.
pub fn peek_at(bytes: &[u8]) -> Result<Nanos, SnapshotError> {
    read_stamp(&mut Reader::new(bytes))
}

/// Where a snapshot's parts land. The hosts differ only in this: the
/// single-threaded host answers every call with its one worker, net core,
/// queue and arena; the sharded host picks the worker the balancer assigned
/// the bundle to and the net shard that owns the path.
pub trait RestoreHost {
    /// The worker core that takes bundle `bundle` — for `None`, the direct
    /// LP and the run-wide residue — with its queue and arena.
    fn worker(
        &mut self,
        bundle: Option<usize>,
    ) -> (&mut WorkerCore, &mut EventQueue, &mut PacketArena);

    /// The net core that owns path `gid`, with its queue and arena.
    fn net(&mut self, gid: usize) -> (&mut NetCore, &mut EventQueue, &mut PacketArena);
}

/// Pours a snapshot into freshly built, empty cores (workers that own no
/// bundle, nothing scheduled) and returns the instant it was taken at.
/// `fp` is [`fingerprint`] of the restoring `config` and workload. The one
/// walk of the wire format both hosts restore through: header, residue,
/// direct slice, bundle sections in ascending index, one section per path in
/// ascending global id, nothing after. Bytes that do not decode to that
/// return [`SnapshotError::Corrupt`]; the cores are then half-filled and
/// must be dropped.
pub fn restore_into(
    config: &SimulationConfig,
    bytes: &[u8],
    fp: u64,
    host: &mut impl RestoreHost,
) -> Result<Nanos, SnapshotError> {
    let r = &mut Reader::new(bytes);
    let at = read_header(r, fp)?;
    let residue = WorkerResidue::decode(r).map_err(corrupt)?;
    let (core, queue, arena) = host.worker(None);
    core.apply_residue(residue);
    core.load_direct_state(queue, arena, r).map_err(corrupt)?;
    let n_bundles = config.n_bundles();
    let count = usize::decode(r).map_err(corrupt)?;
    if count != n_bundles {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot has {count} bundles, config defines {n_bundles}"
        )));
    }
    for b in 0..n_bundles {
        let (core, queue, arena) = host.worker(Some(b));
        core.load_bundle(b, queue, arena, r, at)
            .map_err(|e| SnapshotError::Corrupt(format!("bundle {b}: {e}")))?;
    }
    for gid in 0..config.num_paths.max(1) {
        let (net, queue, arena) = host.net(gid);
        net.load_path_section(gid, queue, arena, r)
            .map_err(corrupt)?;
    }
    if !r.is_empty() {
        return Err(SnapshotError::Corrupt(
            "trailing bytes after snapshot payload".into(),
        ));
    }
    Ok(at)
}

/// Restores the last checkpoint at or before `t` and re-runs the tail of
/// the simulation with full observability — the replay half of the
/// "replay harness": pair it with `bundler_obs::trace::first_divergence`
/// to zoom in on the first event where two runs disagree.
///
/// `checkpoints` is the `(time, bytes)` list produced by
/// [`crate::sim::Simulation::run_collecting`] (or the sharded equivalent).
/// Returns the replayed report together with the timestamp of the
/// checkpoint used.
pub fn replay_at(
    config: &SimulationConfig,
    workload: &[FlowSpec],
    checkpoints: &[(Nanos, Vec<u8>)],
    t: Nanos,
) -> Result<(Nanos, crate::stats::SimReport), SnapshotError> {
    let ckpt = checkpoints
        .iter()
        .filter(|(at, _)| *at <= t)
        .max_by_key(|(at, _)| *at)
        .ok_or_else(|| SnapshotError::Corrupt(format!("no checkpoint at or before {t:?}")))?;
    let mut replay_config = config.clone();
    replay_config.obs = bundler_obs::ObsLevel::Full;
    let sim = crate::sim::Simulation::restore(replay_config, workload.to_vec(), &ckpt.1)?;
    Ok((ckpt.0, sim.run()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_observability_and_partitioning() {
        let base = SimulationConfig::default();
        let wl = vec![FlowSpec::bundled(1, 500_000, Nanos::ZERO, 0)];
        let fp = fingerprint(&base, &wl);

        // Every field that only changes how the run is hosted or observed.
        type Flip = fn(&mut SimulationConfig);
        let flips: [(&str, Flip); 8] = [
            ("shards", |c| c.shards = 4),
            ("balance", |c| c.balance = crate::sim::ShardBalance::Rotate),
            ("net_shards", |c| c.net_shards = 2),
            ("wire_envelopes", |c| c.wire_envelopes = true),
            ("obs", |c| c.obs = bundler_obs::ObsLevel::Full),
            ("checkpoint_every", |c| {
                c.checkpoint_every = Some(bundler_types::Duration::from_millis(500))
            }),
            ("flow_trace", |c| {
                c.flow_trace = Some(bundler_obs::FlowTrace::default())
            }),
            ("stream", |c| {
                c.stream = Some(bundler_obs::StreamSink::to_shared_vec().0)
            }),
        ];
        for (field, flip) in flips {
            let mut flipped = base.clone();
            flip(&mut flipped);
            assert_eq!(fp, fingerprint(&flipped, &wl), "{field} must not change fp");
        }

        let mut faster = base.clone();
        faster.bottleneck_rate = bundler_types::Rate::from_mbps_f64(123.0);
        assert_ne!(fp, fingerprint(&faster, &wl), "rate must change fp");
    }

    #[test]
    fn header_round_trips_and_rejects_garbage() {
        let mut buf = Vec::new();
        write_header(&mut buf, Nanos::from_millis(250), 0xdead_beef);
        let mut r = Reader::new(&buf);
        let at = read_header(&mut r, 0xdead_beef).expect("valid header");
        assert_eq!(at, Nanos::from_millis(250));
        assert_eq!(peek_at(&buf).unwrap(), Nanos::from_millis(250));

        let mut r = Reader::new(&buf);
        match read_header(&mut r, 0x1234) {
            Err(SnapshotError::FingerprintMismatch { .. }) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }

        let mut bad = buf.clone();
        bad[0] = b'X';
        let mut r = Reader::new(&bad);
        assert_eq!(
            read_header(&mut r, 0xdead_beef),
            Err(SnapshotError::BadMagic)
        );

        let mut wrong_ver = Vec::new();
        wrong_ver.extend_from_slice(&MAGIC);
        99u32.encode(&mut wrong_ver);
        Nanos::ZERO.encode(&mut wrong_ver);
        0u64.encode(&mut wrong_ver);
        let mut r = Reader::new(&wrong_ver);
        assert_eq!(
            read_header(&mut r, 0),
            Err(SnapshotError::BadVersion { found: 99 })
        );
    }

    /// A five-bundle, two-path world and hand-made parts for it: bundle
    /// `b`'s section is `b + 1` bytes of `b`, its worker's residue carries
    /// one completed flow and `b + 1` events for it, and the i-th bundle of
    /// `order` is dealt to worker `i % workers`.
    fn world() -> SimulationConfig {
        SimulationConfig {
            bundles: vec![crate::edge::BundleMode::StatusQuo; 5],
            num_paths: 2,
            ..Default::default()
        }
    }

    fn parts(workers: usize, order: [usize; 5]) -> Vec<WorkerPart> {
        let mut parts: Vec<WorkerPart> = (0..workers)
            .map(|w| WorkerPart {
                residue: WorkerResidue::default(),
                direct: (w == 0).then(|| b"direct".to_vec()),
                bundles: Vec::new(),
            })
            .collect();
        for (i, b) in order.into_iter().enumerate() {
            let part = &mut parts[i % workers];
            part.bundles.push((b, vec![b as u8; b + 1]));
            part.residue.events_processed += b as u64 + 1;
            part.residue.fcts.push((
                Nanos::from_millis(10 + b as u64),
                crate::event::EventKey::new(crate::runtime::bundle_lp(b), 1),
                crate::stats::FctRecord {
                    size_bytes: 1000 * b as u64,
                    start: Nanos::ZERO,
                    fct: Duration::from_millis(10 + b as u64),
                    unloaded_fct: Duration::from_millis(5),
                    bundle: Some(b),
                },
            ));
            part.residue.fcts.sort_by_key(|&(t, k, _)| (t, k));
        }
        parts
    }

    fn sections() -> Vec<PathSection> {
        vec![(0, vec![0xa0; 3]), (1, vec![0xa1; 3])]
    }

    fn assembled(parts: Vec<WorkerPart>, sections: Vec<PathSection>) -> Vec<u8> {
        let mut out = Vec::new();
        assemble(
            &world(),
            Nanos::from_millis(500),
            7,
            parts,
            sections,
            &mut out,
        );
        out
    }

    #[test]
    fn assemble_is_blind_to_how_the_parts_were_dealt() {
        let solo = assembled(parts(1, [0, 1, 2, 3, 4]), sections());
        let mut r = Reader::new(&solo);
        assert_eq!(read_header(&mut r, 7), Ok(Nanos::from_millis(500)));
        assert!(solo.ends_with(&[0xa0, 0xa0, 0xa0, 0xa1, 0xa1, 0xa1]));
        for (workers, order) in [
            (1, [4, 2, 0, 3, 1]),
            (2, [0, 1, 2, 3, 4]),
            (2, [4, 3, 2, 1, 0]),
            (3, [3, 0, 4, 1, 2]),
            (3, [2, 4, 1, 0, 3]),
        ] {
            let mut paths = sections();
            paths.reverse();
            assert!(
                assembled(parts(workers, order), paths) == solo,
                "{workers} workers, bundles dealt {order:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "was checkpointed by no worker, or by two")]
    fn assemble_rejects_a_bundle_no_worker_deposited() {
        let mut parts = parts(2, [0, 1, 2, 3, 4]);
        parts[1].bundles.retain(|&(b, _)| b != 3);
        assembled(parts, sections());
    }

    #[test]
    #[should_panic(expected = "was checkpointed by no worker, or by two")]
    fn assemble_rejects_a_bundle_two_workers_deposited() {
        let mut parts = parts(2, [0, 1, 2, 3, 4]);
        parts[0].bundles.push((3, vec![3; 4]));
        assembled(parts, sections());
    }

    #[test]
    #[should_panic(expected = "two workers serialized the direct slice")]
    fn assemble_rejects_a_second_direct_slice() {
        let mut parts = parts(2, [0, 1, 2, 3, 4]);
        parts[1].direct = Some(b"direct".to_vec());
        assembled(parts, sections());
    }

    #[test]
    #[should_panic(expected = "every bottleneck path deposits exactly one checkpoint section")]
    fn assemble_rejects_a_missing_path_section() {
        let mut paths = sections();
        paths.pop();
        assembled(parts(2, [0, 1, 2, 3, 4]), paths);
    }

    #[test]
    fn the_writer_keeps_the_cadence_strictly_ahead_of_the_last_checkpoint() {
        let every = Some(Duration::from_millis(500));
        assert_eq!(Writer::new(None, Nanos::ZERO, None).due(), None);
        let zero = Some(Duration::ZERO);
        assert_eq!(Writer::new(zero, Nanos::ZERO, None).due(), None);
        let due = Writer::new(every, Nanos::ZERO, None).due();
        assert_eq!(due, Some(Nanos::from_millis(500)));
        // A run restored from the 1 s checkpoint does not re-take it.
        let mut w = Writer::new(every, Nanos::from_secs(1), Some(7));
        assert_eq!(w.due(), Some(Nanos::from_millis(1500)));
        // The sharded host stamps past the target; the next target is the
        // first multiple after the stamp, not after the old target.
        let at = Nanos::from_millis(2010);
        w.write(&world(), &[], at, parts(1, [0, 1, 2, 3, 4]), sections());
        assert_eq!(w.due(), Some(Nanos::from_millis(2500)));
    }
}
