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
//! bundles      u64 count, then one BundleParcel per bundle, ascending index
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
//! and to every `BundleParcel`: `1` is followed by the in-flight
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

use bundler_types::{Nanos, PacketArena};
use serde::binary::{Decode, DecodeError, Encode, Reader};

use crate::event::EventQueue;
use crate::runtime::{BundleParcel, NetCore, WorkerCore, WorkerResidue};
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

/// Writes the snapshot header. Exposed for the sharded host, which
/// assembles the same wire format from per-shard parts.
pub fn write_header(out: &mut Vec<u8>, at: Nanos, fp: u64) {
    out.extend_from_slice(&MAGIC);
    VERSION.encode(out);
    at.encode(out);
    fp.encode(out);
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
/// direct slice, bundle parcels in ascending index, one section per path in
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
        let mut parcel = BundleParcel::from_state(config, r).map_err(corrupt)?;
        if parcel.bundle() != b {
            return Err(SnapshotError::Corrupt(format!(
                "bundle parcels out of order: found {} at position {b}",
                parcel.bundle()
            )));
        }
        if !parcel.packets_pair_up() {
            return Err(SnapshotError::Corrupt(format!(
                "bundle {b} carries a different number of packets than its events and queue name"
            )));
        }
        let (core, queue, arena) = host.worker(Some(b));
        core.adopt_bundle(parcel, queue, arena, at)
            .map_err(|e| SnapshotError::Corrupt(format!("bundle {b} does not install: {e}")))?;
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
}
