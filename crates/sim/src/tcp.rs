//! Endhost transport model: TCP-like senders and receivers, plus the
//! closed-loop UDP request/response ("ping") application used by the
//! real-Internet experiments.
//!
//! The senders implement the pieces that matter to Bundler's evaluation:
//! window-limited transmission governed by a pluggable [`WindowCc`]
//! congestion controller (Cubic by default), cumulative ACKs, duplicate-ACK
//! fast retransmit, retransmission timeouts with exponential backoff, and
//! RTT estimation. Endhosts are completely unaware of Bundler — exactly the
//! deployment model of the paper.
//!
//! Senders allocate their packets directly into the simulation's
//! [`PacketArena`] and report them as [`PacketId`]s through a caller-owned
//! scratch buffer, so the steady-state send path performs no allocation.

use std::collections::{BTreeMap, VecDeque};

use bundler_cc::{AckEvent, EndhostAlg, LossEvent, WindowCc};
use bundler_types::{
    Duration, FlowId, FlowKey, Nanos, Packet, PacketArena, PacketId, TrafficClass,
};

/// Maximum segment size used by the simulated endhosts (bytes of payload).
pub const MSS: u64 = 1460;

/// Initial retransmission timeout.
const INITIAL_RTO: Duration = Duration::from_millis(1000);
/// Lower bound on the RTO (Linux uses 200 ms).
const MIN_RTO: Duration = Duration::from_millis(200);
/// Upper bound on the RTO after backoff.
const MAX_RTO: Duration = Duration::from_secs(30);

#[derive(Debug, Clone, Copy)]
struct Segment {
    seq: u64,
    len: u32,
    sent_at: Nanos,
    retransmitted: bool,
}

serde::layout!(value Segment { seq, len, sent_at, retransmitted });

/// The in-flight segment window, ordered by sequence number.
///
/// New segments are only ever appended with strictly increasing sequence
/// numbers and cumulative ACKs only ever remove a prefix, so a `VecDeque`
/// stays sorted for free: O(1) push/pop at the ends and a binary search for
/// the SACK-repair scan's resume point, where the previous `BTreeMap`
/// paid pointer-chasing node traversals on every ACK.
#[derive(Debug, Default)]
struct InflightWindow {
    segs: VecDeque<Segment>,
}

serde::layout!(value InflightWindow { segs });

impl InflightWindow {
    fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    fn len(&self) -> usize {
        self.segs.len()
    }

    fn front_mut(&mut self) -> Option<&mut Segment> {
        self.segs.front_mut()
    }

    fn pop_front(&mut self) -> Option<Segment> {
        self.segs.pop_front()
    }

    fn front(&self) -> Option<&Segment> {
        self.segs.front()
    }

    /// Appends a segment; `seq` must exceed every queued sequence number.
    fn push(&mut self, seg: Segment) {
        debug_assert!(self.segs.back().is_none_or(|b| b.seq < seg.seq));
        self.segs.push_back(seg);
    }

    /// Index of the first segment with sequence `>= seq`.
    fn position_at_or_after(&self, seq: u64) -> usize {
        self.segs.partition_point(|s| s.seq < seq)
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut Segment> {
        let i = self.position_at_or_after(seq);
        self.segs.get_mut(i).filter(|s| s.seq == seq)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut Segment> {
        self.segs.iter_mut()
    }

    /// Iterates segments with sequence in `[from, to)`.
    fn range(&self, from: u64, to: u64) -> impl Iterator<Item = &Segment> {
        self.segs
            .iter()
            .skip(self.position_at_or_after(from))
            .take_while(move |s| s.seq < to)
    }
}

/// A TCP-like sender for one application flow.
pub struct TcpSender {
    /// Flow identifier.
    pub id: FlowId,
    /// Five-tuple of the forward direction.
    pub key: FlowKey,
    /// Operator traffic class stamped on every packet.
    pub class: TrafficClass,
    /// Bytes the application wants delivered (`u64::MAX` = backlogged).
    pub size_bytes: u64,
    /// Time the flow started.
    pub started: Nanos,
    /// Time the last byte was acknowledged, if the flow has finished.
    pub completed: Option<Nanos>,

    /// The algorithm the `cc` box was built from, kept so checkpoints can
    /// rebuild an identical controller before loading its dynamic state.
    alg: EndhostAlg,
    cc: Box<dyn WindowCc>,
    next_seq: u64,
    snd_una: u64,
    inflight: InflightWindow,
    bytes_in_flight: u64,
    dup_acks: u32,
    recovery_point: Option<u64>,
    /// Highest byte known to have reached the receiver (cumulative ACK or
    /// out-of-order data the receiver has buffered). Plays the role of SACK
    /// information for loss detection.
    highest_sacked: u64,
    /// Low-water mark of the SACK-repair scan: every segment below it has
    /// already been examined (and repaired if eligible) in the current
    /// recovery episode, so each ACK resumes the scan instead of rewalking
    /// the whole in-flight map. Reset on RTO, which clears the
    /// `retransmitted` marks the scan keys off.
    repair_next: u64,
    srtt: Option<Duration>,
    rttvar: Duration,
    min_rtt: Duration,
    rto: Duration,
    rto_backoff: u32,
    last_activity: Nanos,
    ip_id_counter: u16,
    /// Counters.
    pub packets_sent: u64,
    /// Retransmitted packets.
    pub retransmits: u64,
}

impl std::fmt::Debug for TcpSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpSender")
            .field("id", &self.id)
            .field("size", &self.size_bytes)
            .field("snd_una", &self.snd_una)
            .field("cwnd", &self.cc.cwnd())
            .field("done", &self.completed.is_some())
            .finish()
    }
}

impl TcpSender {
    /// Creates a sender for a flow of `size_bytes` using the given endhost
    /// congestion-control algorithm.
    pub fn new(
        id: FlowId,
        key: FlowKey,
        size_bytes: u64,
        alg: EndhostAlg,
        class: TrafficClass,
        now: Nanos,
    ) -> Self {
        TcpSender {
            id,
            key,
            class,
            size_bytes,
            started: now,
            completed: None,
            alg,
            cc: alg.build(MSS),
            next_seq: 0,
            snd_una: 0,
            inflight: InflightWindow::default(),
            bytes_in_flight: 0,
            dup_acks: 0,
            recovery_point: None,
            highest_sacked: 0,
            repair_next: 0,
            srtt: None,
            rttvar: Duration::ZERO,
            min_rtt: Duration::MAX,
            rto: INITIAL_RTO,
            rto_backoff: 0,
            last_activity: now,
            // Spread IP-ID sequences across flows so epoch hashes differ
            // between flows even at the same per-flow packet index.
            ip_id_counter: (id.0.wrapping_mul(0x9e37) & 0xffff) as u16,
            packets_sent: 0,
            retransmits: 0,
        }
    }

    /// True once every byte has been acknowledged.
    pub fn is_complete(&self) -> bool {
        self.completed.is_some()
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cc.cwnd()
    }

    /// Bytes currently unacknowledged.
    pub fn bytes_in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    /// The sender's smoothed RTT estimate, if any ACKs carried a sample.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// The current retransmission timeout.
    pub fn rto(&self) -> Duration {
        self.rto
    }

    /// Time of the most recent send or ACK, used by the RTO timer.
    pub fn last_activity(&self) -> Nanos {
        self.last_activity
    }

    fn remaining(&self) -> u64 {
        self.size_bytes.saturating_sub(self.next_seq)
    }

    fn build_packet(&mut self, seq: u64, len: u32, now: Nanos, retransmit: bool) -> Packet {
        self.ip_id_counter = self.ip_id_counter.wrapping_add(1);
        self.packets_sent += 1;
        if retransmit {
            self.retransmits += 1;
        }
        let mut p = Packet::data(self.id, self.key, seq, len, now)
            .with_ip_id(self.ip_id_counter)
            .with_class(self.class);
        if retransmit {
            p = p.retransmitted();
        }
        p
    }

    /// Sends as much new data as the congestion window allows, inserting
    /// the packets into `arena` and appending their ids to `out`.
    pub fn maybe_send(&mut self, now: Nanos, arena: &mut PacketArena, out: &mut Vec<PacketId>) {
        let cwnd = self.cc.cwnd();
        while self.remaining() > 0 {
            let len = self.remaining().min(MSS) as u32;
            if self.bytes_in_flight > 0 && self.bytes_in_flight + len as u64 > cwnd {
                break;
            }
            let seq = self.next_seq;
            self.next_seq += len as u64;
            self.inflight.push(Segment {
                seq,
                len,
                sent_at: now,
                retransmitted: false,
            });
            self.bytes_in_flight += len as u64;
            self.last_activity = now;
            let pkt = self.build_packet(seq, len, now, false);
            out.push(arena.insert(pkt));
            if self.bytes_in_flight >= cwnd {
                break;
            }
        }
    }

    fn retransmit_first_unacked(&mut self, now: Nanos) -> Option<Packet> {
        let seg = self.inflight.front_mut()?;
        seg.retransmitted = true;
        seg.sent_at = now;
        let (seq, len) = (seg.seq, seg.len);
        self.last_activity = now;
        Some(self.build_packet(seq, len, now, true))
    }

    /// Processes a cumulative ACK for byte `ack_seq`, appending any packets
    /// to transmit (retransmissions and newly allowed data) to `out`.
    /// Equivalent to [`TcpSender::on_ack_sack`] with no
    /// selective-acknowledgement information.
    pub fn on_ack(
        &mut self,
        ack_seq: u64,
        now: Nanos,
        arena: &mut PacketArena,
        out: &mut Vec<PacketId>,
    ) {
        self.on_ack_sack(ack_seq, ack_seq, now, arena, out)
    }

    /// Processes a cumulative ACK for byte `ack_seq`, where the receiver is
    /// additionally known to have buffered data up to `highest_received`
    /// (SACK-style information). Segments more than three segments below
    /// `highest_received` that are still unacknowledged are treated as lost
    /// and retransmitted, which is what lets the sender recover from large
    /// burst losses without waiting out one RTO per segment.
    pub fn on_ack_sack(
        &mut self,
        ack_seq: u64,
        highest_received: u64,
        now: Nanos,
        arena: &mut PacketArena,
        out: &mut Vec<PacketId>,
    ) {
        if self.completed.is_some() {
            return;
        }
        self.last_activity = now;
        self.highest_sacked = self.highest_sacked.max(highest_received).max(ack_seq);
        if ack_seq > self.snd_una {
            let newly_acked = ack_seq - self.snd_una;
            // Remove covered segments, picking up an RTT sample from a
            // never-retransmitted segment (Karn's algorithm). Segments are
            // sorted and non-overlapping, so covered ones form a prefix.
            let mut rtt_sample = None;
            while let Some(seg) = self.inflight.front() {
                if seg.seq + seg.len as u64 > ack_seq {
                    break;
                }
                let seg = self.inflight.pop_front().expect("front exists");
                self.bytes_in_flight = self.bytes_in_flight.saturating_sub(seg.len as u64);
                if !seg.retransmitted {
                    rtt_sample = Some(now.saturating_since(seg.sent_at));
                }
            }
            self.snd_una = ack_seq;
            self.dup_acks = 0;
            self.rto_backoff = 0;
            if let Some(rtt) = rtt_sample {
                self.update_rtt(rtt);
            }
            if let Some(point) = self.recovery_point {
                if ack_seq >= point {
                    self.recovery_point = None;
                }
            }
            self.cc.on_ack(&AckEvent {
                now,
                acked_bytes: newly_acked,
                rtt_sample,
                min_rtt: if self.min_rtt == Duration::MAX {
                    Duration::ZERO
                } else {
                    self.min_rtt
                },
                inflight_bytes: self.bytes_in_flight,
            });
            if self.snd_una >= self.size_bytes {
                self.completed = Some(now);
                return;
            }
            self.maybe_send(now, arena, out);
        } else if !self.inflight.is_empty() {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recovery_point.is_none() {
                self.recovery_point = Some(self.next_seq);
                self.cc.on_loss(&LossEvent {
                    now,
                    lost_bytes: MSS,
                    is_timeout: false,
                });
                if let Some(p) = self.retransmit_first_unacked(now) {
                    out.push(arena.insert(p));
                }
            }
        }

        // SACK-style burst-loss repair: any unacknowledged segment more than
        // three segments below the highest data the receiver is known to
        // hold is presumed lost. Repair a few per ACK so recovery stays
        // ACK-clocked rather than dumping the whole hole at once.
        //
        // The scan resumes from `repair_next` rather than rewalking the
        // whole in-flight map on every ACK: everything below it was already
        // examined this episode (and either repaired then or found already
        // retransmitted — a mark only an RTO clears, which also resets the
        // low-water mark). With large windows this turns recovery from
        // O(window) per ACK into O(window) per episode.
        if self.completed.is_none() && !self.inflight.is_empty() {
            let threshold = self.highest_sacked.saturating_sub(3 * MSS);
            if threshold > self.snd_una {
                let start = self.repair_next.max(self.snd_una);
                let mut candidates = [0u64; 3];
                let mut n = 0;
                let mut scanned_to = threshold;
                for seg in self.inflight.range(start, threshold) {
                    if seg.seq + seg.len as u64 > threshold {
                        scanned_to = seg.seq;
                        break;
                    }
                    if !seg.retransmitted {
                        candidates[n] = seg.seq;
                        n += 1;
                        if n == 3 {
                            scanned_to = seg.seq + seg.len as u64;
                            break;
                        }
                    }
                }
                self.repair_next = self.repair_next.max(scanned_to);
                if n > 0 && self.recovery_point.is_none() {
                    self.recovery_point = Some(self.next_seq);
                    self.cc.on_loss(&LossEvent {
                        now,
                        lost_bytes: MSS,
                        is_timeout: false,
                    });
                }
                for &seq in &candidates[..n] {
                    if let Some(seg) = self.inflight.get_mut(seq) {
                        seg.retransmitted = true;
                        seg.sent_at = now;
                        let len = seg.len;
                        let pkt = self.build_packet(seq, len, now, true);
                        out.push(arena.insert(pkt));
                    }
                }
            }
        }
    }

    fn update_rtt(&mut self, rtt: Duration) {
        self.min_rtt = self.min_rtt.min(rtt);
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = Duration(rtt.as_nanos() / 2);
            }
            Some(srtt) => {
                let delta = if rtt > srtt { rtt - srtt } else { srtt - rtt };
                self.rttvar = Duration((self.rttvar.as_nanos() * 3 + delta.as_nanos()) / 4);
                self.srtt = Some(Duration((srtt.as_nanos() * 7 + rtt.as_nanos()) / 8));
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar * 4).max(MIN_RTO).min(MAX_RTO);
    }

    /// Periodic retransmission-timeout check. Returns the time at which the
    /// next check should run (if any data is outstanding), appending any
    /// packets to transmit now to `out`.
    pub fn on_rto_check(
        &mut self,
        now: Nanos,
        arena: &mut PacketArena,
        out: &mut Vec<PacketId>,
    ) -> Option<Nanos> {
        if self.completed.is_some() || self.inflight.is_empty() {
            return None;
        }
        let effective_rto = self.rto * (1u64 << self.rto_backoff.min(5));
        let deadline = self.last_activity + effective_rto;
        if now >= deadline {
            // Timeout: back off, collapse the window and retransmit. All
            // outstanding segments are presumed lost again, so clear their
            // "already retransmitted" marks — the SACK-repair path will
            // resend them ACK-clocked as the retransmissions are
            // acknowledged (go-back-N driven by slow start).
            self.rto_backoff = (self.rto_backoff + 1).min(6);
            self.dup_acks = 0;
            self.recovery_point = None;
            // Clearing the marks re-arms the SACK-repair scan from the
            // bottom of the window.
            self.repair_next = 0;
            for seg in self.inflight.iter_mut() {
                seg.retransmitted = false;
            }
            self.cc.on_loss(&LossEvent {
                now,
                lost_bytes: MSS,
                is_timeout: true,
            });
            if let Some(p) = self.retransmit_first_unacked(now) {
                out.push(arena.insert(p));
            }
            Some(now + (self.rto * (1u64 << self.rto_backoff.min(5))).min(MAX_RTO))
        } else {
            Some(deadline)
        }
    }
}

// The whole sender, identity and configuration included, so a checkpoint
// rebuilds it without consulting the workload table: the identity decodes
// first, builds a sender (and its controller from `alg`), and the rest loads
// into that.
serde::layout!(value TcpSender {
    id, key, class, size_bytes, alg;
    new TcpSender::new(id, key, size_bytes, alg, class, Nanos::ZERO);
    started, completed, next_seq, snd_una, inflight, bytes_in_flight, dup_acks, recovery_point,
    highest_sacked, repair_next, srtt, rttvar, min_rtt, rto, rto_backoff, last_activity,
    ip_id_counter, packets_sent, retransmits, cc,
});

/// Receiver-side reassembly state for one flow: produces cumulative ACKs.
#[derive(Debug, Default)]
pub struct TcpReceiver {
    recv_next: u64,
    out_of_order: BTreeMap<u64, u32>,
    /// Total payload bytes received (including duplicates).
    pub bytes_received: u64,
}

impl TcpReceiver {
    /// Creates an empty receiver.
    pub fn new() -> Self {
        Self::default()
    }

    /// The next byte the receiver expects (the cumulative ACK value).
    pub fn recv_next(&self) -> u64 {
        self.recv_next
    }

    /// The highest byte the receiver holds, counting out-of-order buffered
    /// data: the information a SACK-capable receiver would report.
    ///
    /// One sender cuts its segments at fixed boundaries (a retransmission
    /// repeats the original's `seq` and `len`), so buffered segments never
    /// overlap and the one that starts last also ends last: the last key
    /// answers for the whole map, where a scan of it paid O(buffered
    /// segments) on every data packet after a burst loss.
    pub fn highest_received(&self) -> u64 {
        let ooo_max = self
            .out_of_order
            .last_key_value()
            .map_or(0, |(&seq, &len)| seq + len as u64);
        self.recv_next.max(ooo_max)
    }

    /// Processes an arriving data segment and returns the cumulative ACK to
    /// send back.
    pub fn on_data(&mut self, seq: u64, len: u32) -> u64 {
        self.bytes_received += len as u64;
        if seq <= self.recv_next {
            // In-order (or duplicate/overlapping) data.
            self.recv_next = self.recv_next.max(seq + len as u64);
            // Drain any now-contiguous buffered segments.
            while let Some((&s, &l)) = self.out_of_order.iter().next() {
                if s <= self.recv_next {
                    self.recv_next = self.recv_next.max(s + l as u64);
                    self.out_of_order.remove(&s);
                } else {
                    break;
                }
            }
        } else {
            self.out_of_order.insert(seq, len);
        }
        self.recv_next
    }
}

serde::layout!(value TcpReceiver { recv_next, out_of_order, bytes_received });

/// A closed-loop request/response client: it keeps exactly one small request
/// outstanding and records the response latency of each exchange. This
/// models the 40-byte UDP request/response loops of the paper's §8
/// experiments.
#[derive(Debug)]
pub struct PingClient {
    /// Flow identifier.
    pub id: FlowId,
    /// Five-tuple of the request direction.
    pub key: FlowKey,
    /// Request (and response) payload size in bytes.
    pub payload: u32,
    /// Completed request-response RTT samples.
    pub rtts: Vec<Duration>,
    outstanding: Option<(u64, Nanos)>,
    seq: u64,
    ip_id: u16,
}

impl PingClient {
    /// Creates a ping client.
    pub fn new(id: FlowId, key: FlowKey, payload: u32) -> Self {
        PingClient {
            id,
            key,
            payload,
            rtts: Vec::new(),
            outstanding: None,
            seq: 0,
            ip_id: (id.0.wrapping_mul(0x5bd1) & 0xffff) as u16,
        }
    }

    /// Issues the next request if none is outstanding.
    pub fn maybe_request(&mut self, now: Nanos, arena: &mut PacketArena) -> Option<PacketId> {
        if self.outstanding.is_some() {
            return None;
        }
        self.seq += 1;
        self.ip_id = self.ip_id.wrapping_add(1);
        self.outstanding = Some((self.seq, now));
        let mut key = self.key;
        key.protocol = bundler_types::Protocol::Udp;
        let pkt = Packet::data(self.id, key, self.seq, self.payload, now)
            .with_ip_id(self.ip_id)
            .with_class(TrafficClass::HIGH);
        Some(arena.insert(pkt))
    }

    /// Processes the response to request `seq`, recording its RTT, and
    /// issues the next request.
    pub fn on_response(
        &mut self,
        seq: u64,
        now: Nanos,
        arena: &mut PacketArena,
    ) -> Option<PacketId> {
        match self.outstanding {
            Some((out_seq, sent_at)) if out_seq == seq => {
                self.rtts.push(now.saturating_since(sent_at));
                self.outstanding = None;
                self.maybe_request(now, arena)
            }
            _ => None,
        }
    }

    /// Completed round trips so far.
    pub fn completed(&self) -> usize {
        self.rtts.len()
    }
}

serde::layout!(value PingClient { id, key, payload, rtts, outstanding, seq, ip_id });

impl TcpSender {
    /// Test-only detailed state dump.
    #[doc(hidden)]
    pub fn debug_detail(&self, receiver: &TcpReceiver) -> String {
        format!(
            "snd_una={} next_seq={} inflight_first={:?} inflight_n={} dup_acks={} recovery={:?} highest_sacked={} recv_next={} rto_backoff={} last_activity={}",
            self.snd_una,
            self.next_seq,
            self.inflight.front().map(|s| s.seq),
            self.inflight.len(),
            self.dup_acks,
            self.recovery_point,
            self.highest_sacked,
            receiver.recv_next(),
            self.rto_backoff,
            self.last_activity,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bundler_types::flow::ipv4;
    use serde::binary::{decode_all, encode_to_vec};

    fn key() -> FlowKey {
        FlowKey::tcp(ipv4(10, 0, 0, 1), 40_000, ipv4(10, 1, 0, 1), 80)
    }

    fn sender(size: u64) -> TcpSender {
        TcpSender::new(
            FlowId(1),
            key(),
            size,
            EndhostAlg::Cubic,
            TrafficClass::BEST_EFFORT,
            Nanos::ZERO,
        )
    }

    fn send(s: &mut TcpSender, a: &mut PacketArena, now: Nanos) -> Vec<PacketId> {
        let mut out = Vec::new();
        s.maybe_send(now, a, &mut out);
        out
    }

    fn ack(s: &mut TcpSender, a: &mut PacketArena, seq: u64, now: Nanos) -> Vec<PacketId> {
        let mut out = Vec::new();
        s.on_ack(seq, now, a, &mut out);
        out
    }

    #[test]
    fn initial_window_limits_first_burst() {
        let mut a = PacketArena::new();
        let mut s = sender(1_000_000);
        let pkts = send(&mut s, &mut a, Nanos::ZERO);
        // Cubic starts with a 10-packet initial window.
        assert_eq!(pkts.len(), 10);
        assert_eq!(s.bytes_in_flight(), 10 * MSS);
        // No more until ACKs arrive.
        assert!(send(&mut s, &mut a, Nanos::from_millis(1)).is_empty());
    }

    #[test]
    fn short_flow_completes_after_acks() {
        let mut a = PacketArena::new();
        let mut s = sender(3000);
        let pkts = send(&mut s, &mut a, Nanos::ZERO);
        assert_eq!(pkts.len(), 3, "3000 bytes = 3 segments");
        assert!(!s.is_complete());
        ack(&mut s, &mut a, 3000, Nanos::from_millis(50));
        assert!(s.is_complete());
        assert_eq!(s.completed, Some(Nanos::from_millis(50)));
    }

    #[test]
    fn window_grows_and_more_data_flows() {
        let mut a = PacketArena::new();
        let mut s = sender(10_000_000);
        let first = send(&mut s, &mut a, Nanos::ZERO);
        let mut acked = 0;
        let mut sent = first.len();
        // ACK everything we have sent, one RTT later, a few times.
        for round in 1..=5u64 {
            acked += sent as u64 * MSS;
            let more = ack(
                &mut s,
                &mut a,
                acked.min(10_000_000),
                Nanos::from_millis(round * 50),
            );
            sent = more.len();
            assert!(sent > 0, "window should keep the flow sending");
        }
        assert!(s.cwnd() > 10 * MSS, "cwnd should have grown: {}", s.cwnd());
        assert!(s.srtt().is_some());
    }

    #[test]
    fn triple_duplicate_ack_triggers_one_fast_retransmit() {
        let mut a = PacketArena::new();
        let mut s = sender(1_000_000);
        let pkts = send(&mut s, &mut a, Nanos::ZERO);
        assert!(pkts.len() >= 4);
        // First segment is lost; receiver keeps acking 0... wait, receiver
        // acks the highest contiguous byte, which is 0 until seg 0 arrives.
        // Duplicate ACKs for byte 0:
        let r1 = ack(&mut s, &mut a, 0, Nanos::from_millis(51));
        let r2 = ack(&mut s, &mut a, 0, Nanos::from_millis(52));
        assert!(r1.is_empty() && r2.is_empty());
        let r3 = ack(&mut s, &mut a, 0, Nanos::from_millis(53));
        assert_eq!(r3.len(), 1, "third duplicate ACK triggers fast retransmit");
        assert!(a[r3[0]].retransmit);
        assert_eq!(a[r3[0]].seq, 0);
        // Further dup ACKs do not retransmit again.
        let r4 = ack(&mut s, &mut a, 0, Nanos::from_millis(54));
        assert!(r4.is_empty());
        assert_eq!(s.retransmits, 1);
    }

    #[test]
    fn rto_fires_and_backs_off() {
        let mut a = PacketArena::new();
        let mut s = sender(100_000);
        send(&mut s, &mut a, Nanos::ZERO);
        let cwnd_before = s.cwnd();
        // First check before the timeout: nothing happens.
        let mut pkts = Vec::new();
        let next = s.on_rto_check(Nanos::from_millis(100), &mut a, &mut pkts);
        assert!(pkts.is_empty());
        let deadline = next.unwrap();
        // At the deadline the sender times out and retransmits.
        let mut pkts2 = Vec::new();
        let next2 = s.on_rto_check(deadline, &mut a, &mut pkts2);
        assert_eq!(pkts2.len(), 1);
        assert!(a[pkts2[0]].retransmit);
        assert!(s.cwnd() < cwnd_before, "timeout collapses the window");
        // The next deadline is further away (exponential backoff).
        assert!(next2.unwrap().saturating_since(deadline) >= s.rto());
    }

    #[test]
    fn rto_check_idle_flow_returns_none() {
        let mut a = PacketArena::new();
        let mut s = sender(1000);
        send(&mut s, &mut a, Nanos::ZERO);
        ack(&mut s, &mut a, 1000, Nanos::from_millis(10));
        assert!(s.is_complete());
        let mut pkts = Vec::new();
        let next = s.on_rto_check(Nanos::from_millis(500), &mut a, &mut pkts);
        assert!(next.is_none() && pkts.is_empty());
    }

    #[test]
    fn backlogged_flow_never_completes() {
        let mut a = PacketArena::new();
        let mut s = sender(u64::MAX);
        // Acknowledge everything outstanding each round; the flow must keep
        // producing data forever and grow its window.
        let mut sent_pkts = send(&mut s, &mut a, Nanos::ZERO).len() as u64;
        // Only a handful of rounds: the window doubles every round (no
        // losses), so long loops would ask for absurdly large bursts.
        for round in 1..=8u64 {
            let acked = sent_pkts * MSS;
            let more = ack(&mut s, &mut a, acked, Nanos::from_millis(round * 50));
            sent_pkts += more.len() as u64;
            sent_pkts += send(&mut s, &mut a, Nanos::from_millis(round * 50)).len() as u64;
        }
        assert!(!s.is_complete());
        assert!(s.packets_sent > 100, "packets_sent = {}", s.packets_sent);
    }

    #[test]
    fn packets_get_distinct_ip_ids() {
        let mut a = PacketArena::new();
        let mut s = sender(100_000);
        let pkts = send(&mut s, &mut a, Nanos::ZERO);
        let mut ids: Vec<u16> = pkts.iter().map(|&p| a[p].ip_id).collect();
        ids.dedup();
        assert_eq!(
            ids.len(),
            pkts.len(),
            "consecutive packets must have distinct IP IDs"
        );
    }

    #[test]
    fn receiver_reassembles_out_of_order_data() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_data(0, 1000), 1000);
        // A gap: segment at 2000 arrives before 1000.
        assert_eq!(
            r.on_data(2000, 1000),
            1000,
            "cumulative ACK stays at the gap"
        );
        assert_eq!(r.on_data(1000, 1000), 3000, "gap filled, ACK jumps");
        // Duplicate data does not regress.
        assert_eq!(r.on_data(0, 1000), 3000);
        assert_eq!(r.bytes_received, 4000);
    }

    #[test]
    fn ping_client_round_trips() {
        let mut a = PacketArena::new();
        let mut p = PingClient::new(FlowId(9), key(), 40);
        let req = p.maybe_request(Nanos::ZERO, &mut a).unwrap();
        assert_eq!(a[req].payload, 40);
        // Second request refused while one is outstanding.
        assert!(p.maybe_request(Nanos::from_millis(1), &mut a).is_none());
        let req_seq = a[req].seq;
        let next = p.on_response(req_seq, Nanos::from_millis(30), &mut a);
        assert!(next.is_some(), "next request issued immediately");
        assert_eq!(p.completed(), 1);
        assert_eq!(p.rtts[0], Duration::from_millis(30));
        // Response to a stale sequence number is ignored.
        assert!(p.on_response(999, Nanos::from_millis(40), &mut a).is_none());
    }

    proptest::proptest! {
        /// `highest_received` answers from the last buffered segment; the
        /// oracle is the scan of the whole out-of-order map it replaced.
        /// Segments are cut the way a sender cuts them — MSS-sized with a
        /// short tail — and arrive in any interleaving of in-order,
        /// out-of-order, duplicate and retransmitted copies.
        #[test]
        fn highest_received_matches_a_scan_of_the_buffered_segments(
            full in 1u64..40,
            tail in 0u32..MSS as u32,
            arrivals in proptest::collection::vec((0u8..3, 0usize..64), 1..200),
        ) {
            let mut segs: Vec<(u64, u32)> = (0..full).map(|i| (i * MSS, MSS as u32)).collect();
            if tail > 0 {
                segs.push((full * MSS, tail));
            }
            let scan = |r: &TcpReceiver| {
                let ooo_max = r.out_of_order.iter().map(|(&seq, &len)| seq + len as u64).max();
                r.recv_next.max(ooo_max.unwrap_or(0))
            };
            let mut r = TcpReceiver::new();
            for (kind, pick) in arrivals {
                // One arrival in three is the segment the receiver waits
                // for, so holes also close and the buffer drains.
                let next = (r.recv_next / MSS) as usize;
                let i = if kind == 0 && next < segs.len() { next } else { pick % segs.len() };
                let (seq, len) = segs[i];
                r.on_data(seq, len);
                proptest::prop_assert_eq!(r.highest_received(), scan(&r));
                let bytes = encode_to_vec(&r);
                let back: TcpReceiver = decode_all(&bytes).expect("round trip");
                proptest::prop_assert_eq!(back.highest_received(), scan(&r));
            }
        }
    }
}
