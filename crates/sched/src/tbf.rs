//! Token bucket filter (TBF) rate limiting with a pluggable inner scheduler.
//!
//! The paper's prototype patches the Linux TBF qdisc in two ways:
//!
//! 1. the `inner_qdisc` can be any traffic controller (SFQ, FQ-CoDel, ...)
//!    rather than only a FIFO, and
//! 2. the token bucket is *not* instantaneously refilled when the rate is
//!    updated, so Bundler's frequent rate updates do not cause bursts.
//!
//! [`TokenBucket`] is the refill/consume logic; [`Tbf`] combines it with an
//! inner [`Scheduler`] and answers "may I transmit now, and if not, when?" —
//! exactly what the simulator's sendbox node and a real pacer need.

use bundler_types::{Duration, Nanos, PacketArena, PacketId, Rate};

use crate::{Enqueued, SchedStats, Scheduler};

/// A byte-granularity token bucket.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate: Rate,
    burst_bytes: f64,
    tokens: f64,
    last_refill: Nanos,
}

impl TokenBucket {
    /// Creates a token bucket with the given rate and burst allowance.
    pub fn new(rate: Rate, burst_bytes: u64, now: Nanos) -> Self {
        TokenBucket {
            rate,
            burst_bytes: burst_bytes as f64,
            tokens: burst_bytes as f64,
            last_refill: now,
        }
    }

    /// Current configured rate.
    pub fn rate(&self) -> Rate {
        self.rate
    }

    /// Currently available tokens, in bytes.
    pub fn available(&self) -> f64 {
        self.tokens
    }

    /// Updates the rate. Tokens accumulated so far are preserved (the paper
    /// disables TBF's instantaneous re-fill on rate change so that frequent
    /// rate updates from the congestion controller do not cause bursts).
    pub fn set_rate(&mut self, rate: Rate, now: Nanos) {
        self.refill(now);
        self.rate = rate;
    }

    fn refill(&mut self, now: Nanos) {
        let elapsed = now.saturating_since(self.last_refill);
        if !elapsed.is_zero() {
            self.tokens = (self.tokens + self.rate.as_bytes_per_sec() * elapsed.as_secs_f64())
                .min(self.burst_bytes);
            self.last_refill = now;
        }
    }

    /// Attempts to consume `bytes` tokens at time `now`.
    ///
    /// A sub-byte epsilon of slack is allowed so that a caller sleeping for
    /// exactly [`TokenBucket::time_until_available`] is never left one
    /// floating-point rounding error short of a token.
    pub fn try_consume(&mut self, bytes: u64, now: Nanos) -> bool {
        self.refill(now);
        if self.tokens + 1e-6 >= bytes as f64 {
            self.tokens -= bytes as f64;
            true
        } else {
            false
        }
    }

    /// Time from `now` until `bytes` tokens will be available, or
    /// [`Duration::MAX`] if the rate is zero and the deficit cannot be met.
    pub fn time_until_available(&mut self, bytes: u64, now: Nanos) -> Duration {
        self.refill(now);
        let deficit = bytes as f64 - self.tokens;
        if deficit <= 0.0 {
            return Duration::ZERO;
        }
        if self.rate.is_zero() {
            return Duration::MAX;
        }
        Duration::from_secs_f64(deficit / self.rate.as_bytes_per_sec())
    }
}

/// Token bucket filter qdisc: a [`TokenBucket`] gating an inner scheduler.
pub struct Tbf {
    bucket: TokenBucket,
    inner: Box<dyn Scheduler>,
}

impl std::fmt::Debug for Tbf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tbf")
            .field("rate", &self.bucket.rate())
            .field("inner", &self.inner.name())
            .field("queued", &self.inner.len_packets())
            .finish()
    }
}

impl Tbf {
    /// Creates a TBF with the given rate, burst and inner scheduler.
    pub fn new(rate: Rate, burst_bytes: u64, inner: Box<dyn Scheduler>, now: Nanos) -> Self {
        Tbf {
            bucket: TokenBucket::new(rate, burst_bytes, now),
            inner,
        }
    }

    /// Updates the shaping rate (tokens are preserved; see [`TokenBucket::set_rate`]).
    pub fn set_rate(&mut self, rate: Rate, now: Nanos) {
        self.bucket.set_rate(rate, now);
    }

    /// Current shaping rate.
    pub fn rate(&self) -> Rate {
        self.bucket.rate()
    }

    /// Offers a packet to the inner scheduler.
    pub fn enqueue(&mut self, pkt: PacketId, arena: &mut PacketArena, now: Nanos) -> Enqueued {
        self.inner.enqueue(pkt, arena, now)
    }

    /// Attempts to release the next packet, consuming tokens. Returns
    /// `Release::Packet` if a packet was released, `Release::Wait(d)` if the
    /// head packet must wait `d` for tokens, or `Release::Empty` if the inner
    /// scheduler has nothing queued.
    pub fn try_dequeue(&mut self, arena: &mut PacketArena, now: Nanos) -> Release {
        if self.inner.is_empty() {
            return Release::Empty;
        }
        // The Scheduler trait has no peek (not every qdisc can cheaply name
        // the packet it would pick next), so the head packet's size is
        // unknown until it is dequeued. Gate on an estimate instead — one
        // MTU, or the whole backlog if that is smaller — and correct the
        // token balance by the real size once the packet is out.
        let pkt_estimate = 1514u64.min(self.inner.len_bytes().max(1));
        if self.bucket.try_consume(pkt_estimate, now) {
            match self.inner.dequeue(arena, now) {
                Some(pkt) => {
                    // Adjust for the difference between the estimate and the
                    // real size so long-run rate is exact.
                    let actual = arena[pkt].size as u64;
                    if actual > pkt_estimate {
                        self.bucket.tokens -= (actual - pkt_estimate) as f64;
                    } else {
                        self.bucket.tokens = (self.bucket.tokens + (pkt_estimate - actual) as f64)
                            .min(self.bucket.burst_bytes);
                    }
                    Release::Packet(pkt)
                }
                None => Release::Empty,
            }
        } else {
            let wait = self.bucket.time_until_available(pkt_estimate, now);
            Release::Wait(wait)
        }
    }

    /// Inner-scheduler occupancy in packets.
    pub fn len_packets(&self) -> usize {
        self.inner.len_packets()
    }

    /// Inner-scheduler occupancy in bytes.
    pub fn len_bytes(&self) -> u64 {
        self.inner.len_bytes()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Inner scheduler lifetime counters.
    pub fn stats(&self) -> SchedStats {
        self.inner.stats()
    }

    /// Enables or disables the inner scheduler's observability export
    /// (see [`Scheduler::set_obs`]).
    pub fn set_obs(&mut self, on: bool) {
        self.inner.set_obs(on);
    }

    /// Takes the inner scheduler's observability export, if recording was
    /// enabled (see [`Scheduler::take_obs`]).
    pub fn take_obs(&mut self) -> Option<bundler_obs::SchedObs> {
        self.inner.take_obs()
    }

    /// Visits every queued packet id (see
    /// [`Scheduler::for_each_pkt_mut`]): the hook that lets a sendbox
    /// datapath be saved with its queued packets and loaded into another
    /// packet arena with its queue state — scheduler structure, deficits,
    /// CoDel state, token balance — intact.
    pub fn for_each_pkt_mut(&mut self, f: &mut dyn FnMut(&mut bundler_types::PacketId)) {
        self.inner.for_each_pkt_mut(f);
    }
}

serde::layout!(value TokenBucket { rate, burst_bytes, tokens, last_refill });

// The token balance and the inner scheduler's queues; the inner policy and
// its configuration are rebuilt before a restore loads this.
serde::layout!(state Tbf { bucket, inner });

/// Result of [`Tbf::try_dequeue`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Release {
    /// A packet was released and its bytes charged against the bucket.
    /// Ownership of the id passes to the caller.
    Packet(PacketId),
    /// The head of the queue must wait this long for tokens.
    Wait(Duration),
    /// Nothing is queued.
    Empty,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fifo::DropTailFifo;
    use bundler_types::{flow::ipv4, FlowId, FlowKey, Packet};

    fn pkt(size: u32) -> Packet {
        Packet::data(
            FlowId(0),
            FlowKey::tcp(ipv4(10, 0, 0, 1), 1000, ipv4(10, 0, 1, 1), 80),
            0,
            size,
            Nanos::ZERO,
        )
    }

    #[test]
    fn token_bucket_accumulates_and_caps() {
        let mut tb = TokenBucket::new(Rate::from_mbps(8), 3000, Nanos::ZERO);
        assert!(tb.try_consume(3000, Nanos::ZERO));
        assert!(!tb.try_consume(1, Nanos::ZERO));
        // 8 Mbit/s = 1000 bytes per ms.
        assert!(tb.try_consume(1000, Nanos::from_millis(1)));
        // After a long idle period tokens cap at the burst size.
        assert!(!tb.try_consume(3001, Nanos::from_secs(10)));
        assert!(tb.try_consume(3000, Nanos::from_secs(10)));
    }

    #[test]
    fn time_until_available_is_exact() {
        let mut tb = TokenBucket::new(Rate::from_mbps(8), 1000, Nanos::ZERO);
        assert!(tb.try_consume(1000, Nanos::ZERO));
        // Need 1000 bytes at 1000 bytes/ms -> 1 ms.
        let wait = tb.time_until_available(1000, Nanos::ZERO);
        assert_eq!(wait, Duration::from_millis(1));
        assert_eq!(tb.time_until_available(0, Nanos::ZERO), Duration::ZERO);
    }

    #[test]
    fn zero_rate_never_becomes_available() {
        let mut tb = TokenBucket::new(Rate::ZERO, 100, Nanos::ZERO);
        assert!(tb.try_consume(100, Nanos::ZERO));
        assert_eq!(
            tb.time_until_available(1, Nanos::from_secs(100)),
            Duration::MAX
        );
    }

    #[test]
    fn rate_update_preserves_tokens() {
        let mut tb = TokenBucket::new(Rate::from_mbps(8), 10_000, Nanos::ZERO);
        assert!(tb.try_consume(10_000, Nanos::ZERO));
        // At t=1ms we have ~1000 tokens. Updating the rate must not refill
        // the bucket to the full burst.
        tb.set_rate(Rate::from_mbps(80), Nanos::from_millis(1));
        assert!(
            tb.available() < 1100.0,
            "tokens {} should not jump to burst",
            tb.available()
        );
    }

    #[test]
    fn tbf_enforces_long_run_rate() {
        // 12 Mbit/s, 1500-byte packets -> 1 packet per ms.
        let mut arena = PacketArena::new();
        let inner = Box::new(DropTailFifo::with_packet_capacity(1000));
        let mut tbf = Tbf::new(Rate::from_mbps(12), 1514, inner, Nanos::ZERO);
        for _ in 0..100 {
            let id = arena.insert(pkt(1460));
            tbf.enqueue(id, &mut arena, Nanos::ZERO);
        }
        let mut now = Nanos::ZERO;
        let mut released = 0;
        let horizon = Nanos::from_millis(50);
        while now < horizon {
            match tbf.try_dequeue(&mut arena, now) {
                Release::Packet(id) => {
                    arena.free(id);
                    released += 1;
                }
                Release::Wait(d) => now += d.max(Duration::from_micros(1)),
                Release::Empty => break,
            }
        }
        // 50 ms at 1 pkt/ms plus the initial burst packet.
        assert!(
            (45..=55).contains(&released),
            "released {released} packets in 50ms"
        );
    }

    #[test]
    fn tbf_rate_update_applies() {
        let inner = Box::new(DropTailFifo::with_packet_capacity(1000));
        let mut tbf = Tbf::new(Rate::from_mbps(12), 1514, inner, Nanos::ZERO);
        assert_eq!(tbf.rate(), Rate::from_mbps(12));
        tbf.set_rate(Rate::from_mbps(48), Nanos::from_millis(1));
        assert_eq!(tbf.rate(), Rate::from_mbps(48));
    }

    #[test]
    fn tbf_empty_reports_empty() {
        let mut arena = PacketArena::new();
        let inner = Box::new(DropTailFifo::with_packet_capacity(1000));
        let mut tbf = Tbf::new(Rate::from_mbps(12), 1514, inner, Nanos::ZERO);
        assert!(matches!(
            tbf.try_dequeue(&mut arena, Nanos::ZERO),
            Release::Empty
        ));
        assert!(tbf.is_empty());
    }
}
