//! Congestion-signal estimation from congestion ACKs (§4.5 of the paper).
//!
//! The sendbox records every epoch boundary packet it forwards
//! ([`BoundaryRecord`]): its hash, send time and the cumulative bytes sent.
//! When the matching [`CongestionAck`] arrives, the engine produces an
//! [`EpochSample`] containing the RTT (ACK arrival time minus send time) and
//! the send/receive rates over the interval since the previously
//! acknowledged boundary. Samples are averaged over a sliding window of
//! roughly one RTT before being handed to the congestion controller, which
//! also makes the measurements resilient to reordering between the boxes.
//!
//! The engine is deliberately tolerant of imperfect feedback:
//!
//! * a lost boundary packet or lost ACK simply stretches the next epoch;
//! * an ACK for a boundary the sendbox never recorded (possible right after
//!   an epoch-size change, when the receivebox samples a superset) is
//!   ignored;
//! * an ACK for an *older* boundary than one already acknowledged is counted
//!   as out-of-order — the signal the multipath detector (§5.2) consumes.

use std::collections::VecDeque;

use bundler_cc::Measurement;
use bundler_types::{Duration, Nanos, Rate};

use crate::epoch::BoundaryRecord;
use crate::feedback::CongestionAck;

/// Whether a congestion ACK arrived in send order or not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOrdering {
    /// The acknowledged boundary was sent after the previously acknowledged
    /// one.
    InOrder,
    /// The acknowledged boundary was sent before the previously acknowledged
    /// one (it overtook it on another path, or its ACK was delayed).
    OutOfOrder,
}

/// Outcome of processing one congestion ACK.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AckOutcome {
    /// The ACK matched a recorded boundary and produced a sample.
    Sample {
        /// The sample produced.
        sample: EpochSample,
        /// Ordering classification for the multipath detector.
        ordering: AckOrdering,
    },
    /// The ACK did not match any outstanding boundary (e.g. the receivebox
    /// is sampling with a smaller epoch size after an update); it is
    /// ignored.
    Unmatched,
}

/// One epoch's worth of congestion signals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSample {
    /// Time the ACK arrived at the sendbox.
    pub at: Nanos,
    /// Round-trip time: ACK arrival minus boundary send time.
    pub rtt: Duration,
    /// Send rate over the epoch (None for the very first sample, which has
    /// no predecessor to difference against).
    pub send_rate: Option<Rate>,
    /// Receive rate over the epoch.
    pub recv_rate: Option<Rate>,
    /// Bytes newly acknowledged as received in this epoch.
    pub acked_bytes: u64,
}

serde::layout!(value EpochSample { at, rtt, send_rate, recv_rate, acked_bytes });

/// Counters describing measurement-plane health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeasurementStats {
    /// Boundary packets recorded by the sendbox.
    pub boundaries_recorded: u64,
    /// Congestion ACKs that matched a recorded boundary.
    pub acks_matched: u64,
    /// Congestion ACKs that matched no recorded boundary.
    pub acks_unmatched: u64,
    /// Matched ACKs classified as in-order.
    pub in_order: u64,
    /// Matched ACKs classified as out-of-order.
    pub out_of_order: u64,
    /// Boundary records dropped because they were never acknowledged.
    pub records_expired: u64,
}

serde::layout!(value MeasurementStats {
    boundaries_recorded, acks_matched, acks_unmatched, in_order, out_of_order, records_expired,
});

/// The sendbox-side measurement engine.
#[derive(Debug)]
pub struct MeasurementEngine {
    /// Outstanding boundary records, in send order.
    outstanding: VecDeque<BoundaryRecord>,
    /// Most recently acknowledged boundary's send-side state.
    last_acked_send: Option<BoundaryRecord>,
    /// Most recently acknowledged boundary's receive-side state
    /// (cumulative bytes received, receivebox timestamp).
    last_acked_recv: Option<(u64, Nanos)>,
    /// Send time of the most recently acknowledged boundary, used for
    /// ordering classification.
    last_acked_sent_at: Option<Nanos>,
    /// Completed samples, newest at the back.
    samples: VecDeque<EpochSample>,
    /// Minimum RTT ever observed for this bundle.
    min_rtt: Option<Duration>,
    /// Time the most recent ACK arrived.
    last_ack_at: Option<Nanos>,
    /// Maximum number of outstanding boundary records kept.
    max_outstanding: usize,
    /// Window over which samples are averaged for the controller.
    window: Duration,
    stats: MeasurementStats,
}

/// The running sums [`MeasurementEngine::measurement`] averages, folded in
/// one pass over the samples. Each float sum starts from `-0.0` and adds in
/// sample order, exactly as `Iterator::sum` does, so the averages are the
/// same bits as summing collected lists.
struct Window {
    n: usize,
    rtt_s: f64,
    /// `(count, sum)` of the samples' send and receive rates, bits/sec.
    send: (usize, f64),
    recv: (usize, f64),
    acked_bytes: u64,
}

impl Default for Window {
    fn default() -> Self {
        Window {
            n: 0,
            rtt_s: -0.0,
            send: (0, -0.0),
            recv: (0, -0.0),
            acked_bytes: 0,
        }
    }
}

impl Window {
    fn add(&mut self, s: &EpochSample) {
        self.n += 1;
        self.rtt_s += s.rtt.as_secs_f64();
        if let Some(r) = s.send_rate {
            self.send = (self.send.0 + 1, self.send.1 + r.as_bps() as f64);
        }
        if let Some(r) = s.recv_rate {
            self.recv = (self.recv.0 + 1, self.recv.1 + r.as_bps() as f64);
        }
        self.acked_bytes += s.acked_bytes;
    }
}

impl Default for MeasurementEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MeasurementEngine {
    /// Creates an engine with a 1-second default averaging window (it is
    /// re-clamped to ~1 RTT as soon as an RTT estimate exists).
    pub fn new() -> Self {
        MeasurementEngine {
            outstanding: VecDeque::new(),
            last_acked_send: None,
            last_acked_recv: None,
            last_acked_sent_at: None,
            samples: VecDeque::new(),
            min_rtt: None,
            last_ack_at: None,
            max_outstanding: 1024,
            window: Duration::from_secs(1),
            stats: MeasurementStats::default(),
        }
    }

    /// Records that the sendbox forwarded an epoch boundary packet.
    pub fn record_boundary(&mut self, record: BoundaryRecord) {
        self.stats.boundaries_recorded += 1;
        self.outstanding.push_back(record);
        while self.outstanding.len() > self.max_outstanding {
            self.outstanding.pop_front();
            self.stats.records_expired += 1;
        }
    }

    /// Processes a congestion ACK that arrived at the sendbox at `now`.
    pub fn on_congestion_ack(&mut self, ack: &CongestionAck, now: Nanos) -> AckOutcome {
        self.last_ack_at = Some(now);
        // Find the matching outstanding record (linear scan: only a handful
        // of boundaries are ever outstanding).
        let pos = match self
            .outstanding
            .iter()
            .position(|r| r.hash == ack.packet_hash)
        {
            Some(p) => p,
            None => {
                self.stats.acks_unmatched += 1;
                return AckOutcome::Unmatched;
            }
        };
        let record = self
            .outstanding
            .remove(pos)
            .expect("position came from scan");
        self.stats.acks_matched += 1;

        let rtt = now.saturating_since(record.sent_at);
        self.min_rtt = Some(match self.min_rtt {
            Some(m) => m.min(rtt),
            None => rtt,
        });

        // Ordering: an ACK for a boundary sent before the previously
        // acknowledged one indicates reordering between the boxes.
        let ordering = match self.last_acked_sent_at {
            Some(prev) if record.sent_at < prev => AckOrdering::OutOfOrder,
            _ => AckOrdering::InOrder,
        };
        match ordering {
            AckOrdering::InOrder => self.stats.in_order += 1,
            AckOrdering::OutOfOrder => self.stats.out_of_order += 1,
        }

        // Rates are differences against the previous acknowledged boundary.
        let send_rate = self.last_acked_send.and_then(|prev| {
            let dbytes = record.bytes_sent.checked_sub(prev.bytes_sent)?;
            let dt = record.sent_at.checked_since(prev.sent_at)?;
            if dt.is_zero() {
                None
            } else {
                Some(Rate::from_bytes_over(dbytes, dt))
            }
        });
        let (recv_rate, acked_bytes) = match self.last_acked_recv {
            Some((prev_bytes, prev_t)) => {
                let dbytes = ack.bytes_received.saturating_sub(prev_bytes);
                let dt = ack.observed_at.checked_since(prev_t);
                let rate = match dt {
                    Some(dt) if !dt.is_zero() => Some(Rate::from_bytes_over(dbytes, dt)),
                    _ => None,
                };
                (rate, dbytes)
            }
            None => (None, 0),
        };

        // Only advance the "previous boundary" pointers for in-order ACKs so
        // an out-of-order ACK cannot produce negative intervals.
        if ordering == AckOrdering::InOrder {
            self.last_acked_send = Some(record);
            self.last_acked_recv = Some((ack.bytes_received, ack.observed_at));
            self.last_acked_sent_at = Some(record.sent_at);
        }

        let sample = EpochSample {
            at: now,
            rtt,
            send_rate,
            recv_rate,
            acked_bytes,
        };
        self.samples.push_back(sample);
        // Bound memory: keep at most a few hundred samples.
        while self.samples.len() > 512 {
            self.samples.pop_front();
        }
        AckOutcome::Sample { sample, ordering }
    }

    /// Minimum RTT observed so far.
    pub fn min_rtt(&self) -> Option<Duration> {
        self.min_rtt
    }

    /// Time the most recent congestion ACK arrived, if any.
    pub fn last_ack_at(&self) -> Option<Nanos> {
        self.last_ack_at
    }

    /// Number of boundary records awaiting acknowledgement.
    pub fn outstanding_boundaries(&self) -> usize {
        self.outstanding.len()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> MeasurementStats {
        self.stats
    }

    /// Fraction of matched ACKs that were out-of-order (the §5.2 signal).
    pub fn out_of_order_fraction(&self) -> f64 {
        let total = self.stats.in_order + self.stats.out_of_order;
        if total == 0 {
            0.0
        } else {
            self.stats.out_of_order as f64 / total as f64
        }
    }

    /// Aggregates the samples from the last ~RTT into a [`Measurement`] for
    /// the congestion controller. Returns `None` until at least one complete
    /// sample (with rates) exists.
    pub fn measurement(&mut self, now: Nanos) -> Option<Measurement> {
        let min_rtt = self.min_rtt?;
        // Average over a window of one smoothed RTT (at least one control
        // interval, at most the default window).
        let window = Duration::from_secs_f64(min_rtt.as_secs_f64().max(0.01)).min(self.window);
        // Drop samples that fell out of the window.
        while let Some(front) = self.samples.front() {
            if now.saturating_since(front.at) > self.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
        let mut agg = Window::default();
        for s in self.samples.iter() {
            if now.saturating_since(s.at) <= window {
                agg.add(s);
            }
        }
        if agg.n == 0 {
            // Fall back to the most recent sample so the controller is not
            // starved on long-RTT paths.
            agg.add(self.samples.back()?);
        }

        let rtt = Duration::from_secs_f64(agg.rtt_s / agg.n as f64);
        if agg.recv.0 == 0 && agg.send.0 == 0 {
            return None;
        }
        let mean = |(n, sum): (usize, f64)| Rate::from_bps((sum / n as f64) as u64);
        let send_rate = if agg.send.0 == 0 {
            Rate::ZERO
        } else {
            mean(agg.send)
        };
        let recv_rate = if agg.recv.0 == 0 {
            send_rate
        } else {
            mean(agg.recv)
        };
        let acked_bytes = agg.acked_bytes;

        Some(Measurement {
            now,
            rtt,
            min_rtt,
            send_rate,
            recv_rate,
            acked_bytes,
            lost_samples: 0,
        })
    }
}

// Everything but the construction-time constants `max_outstanding` and
// `window`.
serde::layout!(state MeasurementEngine {
    outstanding, last_acked_send, last_acked_recv, last_acked_sent_at, samples, min_rtt,
    last_ack_at, stats,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::BundleId;

    fn record(hash: u64, sent_ms: u64, bytes_sent: u64) -> BoundaryRecord {
        BoundaryRecord {
            hash,
            sent_at: Nanos::from_millis(sent_ms),
            bytes_sent,
            packets_sent: bytes_sent / 1500,
        }
    }

    fn ack(hash: u64, bytes_received: u64, observed_ms: u64) -> CongestionAck {
        CongestionAck {
            bundle: BundleId(0),
            packet_hash: hash,
            bytes_received,
            packets_received: bytes_received / 1500,
            observed_at: Nanos::from_millis(observed_ms),
        }
    }

    #[test]
    fn rtt_is_ack_arrival_minus_send_time() {
        let mut eng = MeasurementEngine::new();
        eng.record_boundary(record(42, 100, 150_000));
        let outcome = eng.on_congestion_ack(&ack(42, 150_000, 125), Nanos::from_millis(150));
        match outcome {
            AckOutcome::Sample { sample, ordering } => {
                assert_eq!(sample.rtt, Duration::from_millis(50));
                assert_eq!(ordering, AckOrdering::InOrder);
                assert_eq!(sample.send_rate, None, "first sample has no rate");
            }
            _ => panic!("expected a sample"),
        }
        assert_eq!(eng.min_rtt(), Some(Duration::from_millis(50)));
    }

    #[test]
    fn rates_are_differences_between_epochs() {
        let mut eng = MeasurementEngine::new();
        // Two boundaries 100 ms apart; 1.2 MB sent between them.
        eng.record_boundary(record(1, 0, 1_000_000));
        eng.record_boundary(record(2, 100, 2_200_000));
        eng.on_congestion_ack(&ack(1, 1_000_000, 50), Nanos::from_millis(50));
        let outcome = eng.on_congestion_ack(&ack(2, 2_200_000, 150), Nanos::from_millis(150));
        match outcome {
            AckOutcome::Sample { sample, .. } => {
                // 1.2 MB over 100 ms = 96 Mbit/s, both directions.
                assert_eq!(sample.send_rate, Some(Rate::from_mbps(96)));
                assert_eq!(sample.recv_rate, Some(Rate::from_mbps(96)));
                assert_eq!(sample.acked_bytes, 1_200_000);
            }
            _ => panic!("expected sample"),
        }
    }

    #[test]
    fn lost_boundary_stretches_the_epoch() {
        let mut eng = MeasurementEngine::new();
        eng.record_boundary(record(1, 0, 1_000_000));
        eng.record_boundary(record(2, 100, 2_000_000));
        eng.record_boundary(record(3, 200, 3_000_000));
        eng.on_congestion_ack(&ack(1, 1_000_000, 50), Nanos::from_millis(50));
        // The ACK for boundary 2 never arrives (lost). Boundary 3's ACK
        // computes rates over the 200 ms interval since boundary 1.
        let outcome = eng.on_congestion_ack(&ack(3, 3_000_000, 250), Nanos::from_millis(250));
        match outcome {
            AckOutcome::Sample { sample, .. } => {
                assert_eq!(sample.send_rate, Some(Rate::from_mbps(80)));
                assert_eq!(sample.acked_bytes, 2_000_000);
            }
            _ => panic!("expected sample"),
        }
        // Boundary 2's record is still outstanding (harmless) until evicted.
        assert_eq!(eng.outstanding_boundaries(), 1);
    }

    #[test]
    fn unmatched_ack_is_ignored() {
        let mut eng = MeasurementEngine::new();
        eng.record_boundary(record(1, 0, 1000));
        let outcome = eng.on_congestion_ack(&ack(999, 500, 10), Nanos::from_millis(20));
        assert_eq!(outcome, AckOutcome::Unmatched);
        assert_eq!(eng.stats().acks_unmatched, 1);
        assert_eq!(eng.outstanding_boundaries(), 1);
    }

    #[test]
    fn out_of_order_acks_are_classified() {
        let mut eng = MeasurementEngine::new();
        eng.record_boundary(record(1, 0, 1_000_000));
        eng.record_boundary(record(2, 100, 2_000_000));
        // Boundary 2's ACK arrives first (it took a faster path).
        eng.on_congestion_ack(&ack(2, 2_000_000, 130), Nanos::from_millis(160));
        // Boundary 1's ACK arrives later: out of order.
        let outcome = eng.on_congestion_ack(&ack(1, 1_000_000, 140), Nanos::from_millis(170));
        match outcome {
            AckOutcome::Sample { ordering, .. } => assert_eq!(ordering, AckOrdering::OutOfOrder),
            _ => panic!("expected sample"),
        }
        assert_eq!(eng.stats().out_of_order, 1);
        assert_eq!(eng.stats().in_order, 1);
        assert!((eng.out_of_order_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn min_rtt_tracks_the_smallest_sample() {
        let mut eng = MeasurementEngine::new();
        eng.record_boundary(record(1, 0, 1000));
        eng.record_boundary(record(2, 10, 2000));
        eng.on_congestion_ack(&ack(1, 1000, 60), Nanos::from_millis(80));
        eng.on_congestion_ack(&ack(2, 2000, 62), Nanos::from_millis(70));
        assert_eq!(eng.min_rtt(), Some(Duration::from_millis(60)));
    }

    #[test]
    fn measurement_aggregates_recent_samples() {
        let mut eng = MeasurementEngine::new();
        let mut bytes = 0u64;
        for i in 0..10u64 {
            bytes += 120_000;
            eng.record_boundary(record(i, i * 10, bytes));
        }
        let mut rbytes = 0u64;
        for i in 0..10u64 {
            rbytes += 120_000;
            eng.on_congestion_ack(
                &ack(i, rbytes, i * 10 + 50),
                Nanos::from_millis(i * 10 + 50),
            );
        }
        let m = eng
            .measurement(Nanos::from_millis(145))
            .expect("measurement available");
        assert_eq!(m.min_rtt, Duration::from_millis(50));
        assert!((m.rtt.as_millis_f64() - 50.0).abs() < 1.0);
        // 120 KB per 10 ms = 96 Mbit/s.
        assert!((m.send_rate.as_mbps_f64() - 96.0).abs() < 2.0);
        assert!((m.recv_rate.as_mbps_f64() - 96.0).abs() < 2.0);
    }

    #[test]
    fn no_measurement_before_any_ack() {
        let mut eng = MeasurementEngine::new();
        assert!(eng.measurement(Nanos::from_millis(100)).is_none());
        eng.record_boundary(record(1, 0, 1000));
        assert!(eng.measurement(Nanos::from_millis(100)).is_none());
    }

    #[test]
    fn outstanding_records_are_bounded() {
        let mut eng = MeasurementEngine::new();
        for i in 0..5000u64 {
            eng.record_boundary(record(i, i, i * 1000));
        }
        assert!(eng.outstanding_boundaries() <= 1024);
        assert!(eng.stats().records_expired > 0);
    }
}
