//! Layer kernels: each drives one layer's public API with an operation
//! stream shaped by the workload and reports ns per operation.
//!
//! The shape — how many flows are alive at once, how deep queues stand, how
//! far apart packets are — is taken from the workload's generated worlds
//! ([`Shape::of`]), not from constants, so a kernel answers "what does this
//! layer cost per operation *on this workload's mix*". Every figure is the
//! fastest batch seen (the same one-sided-noise argument as for host time).

use std::hint::black_box;
use std::time::Instant;

use bundler_agent::{AgentConfig, SiteAgent};
use bundler_cc::copa::{Copa, CopaConfig};
use bundler_cc::cubic::Cubic;
use bundler_cc::nimbus::{Nimbus, NimbusConfig};
use bundler_cc::{AckEvent, BundleCc, EndhostAlg, Measurement, WindowCc};
use bundler_core::epoch::{epoch_hash, is_boundary};
use bundler_core::feedback::BundleId;
use bundler_core::{BundlerConfig, CalendarQueue, Receivebox, Sendbox};
use bundler_obs::stream::render_line;
use bundler_obs::{CounterId, HistId, MetricsShard, ObsLevel, ShardObs, TraceKind, TraceRecord};
use bundler_sched::tbf::{Release, TokenBucket};
use bundler_sched::{Enqueued, Policy};
use bundler_shard::wire::{self, WireDir};
use bundler_sim::edge::Bundle;
use bundler_sim::event::{Event, EventKey, EventQueue};
use bundler_sim::fluid::{FluidAggregate, FluidCrossTraffic, FluidState};
use bundler_sim::path::BottleneckPath;
use bundler_sim::scenario::many_sites::ManySitesScenario;
use bundler_sim::tcp::{TcpReceiver, TcpSender};
use bundler_sim::Simulation;
use bundler_types::{
    Duration, FlowId, FlowKey, Nanos, Packet, PacketArena, PacketId, Rate, TrafficClass,
};

use crate::measure::splitmix64;
use crate::workloads::World;

/// Operations per pass of the calibration loop.
pub const CALIB_OPS: u64 = 1 << 20;

/// ns per operation of a fixed splitmix64-over-64-slots loop that touches no
/// repository code: the cross-host normaliser. Fastest pass within `seconds`.
pub fn calib_ns(seconds: f64) -> f64 {
    let mut slots = [0u64; 64];
    fastest(seconds, CALIB_OPS, || {
        let mut state = 0x5eed_u64;
        for i in 0..CALIB_OPS {
            let v = splitmix64(&mut state);
            let slot = &mut slots[(v & 63) as usize];
            *slot = slot.wrapping_add(v ^ i);
        }
        black_box(&mut slots);
    })
}

/// Runs `batch` (which performs `ops` operations) until `seconds` have
/// passed, at least once, and returns the fastest batch's ns per operation.
fn fastest(seconds: f64, ops: u64, mut batch: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as f64 / ops as f64);
        if start.elapsed().as_secs_f64() >= seconds {
            return best;
        }
    }
}

/// Operations per timed batch of a kernel: long enough (≈ 1 ms and up) that
/// the two clock reads vanish, short enough that many batches fit.
const BATCH: u64 = 20_000;

/// What a workload's generated worlds look like to one layer.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Flows alive at once (Little's law over the request stream, plus the
    /// backlogged flows).
    pub flows: usize,
    /// Bandwidth-delay product in MTU packets: how deep queues stand.
    pub queue_pkts: usize,
    /// Serialization time of one MTU packet at the bottleneck: how far
    /// apart consecutive packet timestamps are.
    pub pkt_gap: Duration,
    pub rtt: Duration,
    pub rate: Rate,
    pub bundles: usize,
    /// Five-tuples of sampled flows, as the simulator assigns them.
    pub keys: Vec<FlowKey>,
    /// Sizes of sampled finite flows, bytes.
    pub sizes: Vec<u64>,
    /// Fluid aggregates per bottleneck path (0 when the tier is off).
    pub fluid_aggregates: usize,
}

impl Shape {
    pub fn of(worlds: &[World]) -> Shape {
        let first = &worlds[0];
        let cfg = &first.cfg;
        let finite: Vec<_> = worlds
            .iter()
            .flat_map(|w| w.flows.iter())
            .filter(|f| !f.is_backlogged())
            .collect();
        let step = (finite.len() / 4096).max(1);
        let sampled: Vec<_> = finite.iter().step_by(step).collect();
        let sizes: Vec<u64> = sampled.iter().map(|f| f.size_bytes).collect();
        assert!(!sizes.is_empty(), "every workload generates finite flows");
        let keys: Vec<FlowKey> = sampled
            .iter()
            .map(|f| Simulation::flow_key(f.id.0, f.origin))
            .collect();
        // Little's law per world: arrival rate × unloaded completion time.
        let mean_size = sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64;
        let service = cfg.rtt.as_secs_f64() + mean_size * 8.0 / cfg.bottleneck_rate.as_bps() as f64;
        let span = first
            .flows
            .iter()
            .map(|f| f.start.as_nanos())
            .max()
            .unwrap_or(0) as f64
            * 1e-9;
        let arrivals = first.flows.iter().filter(|f| !f.is_backlogged()).count() as f64;
        let backlogged = first.flows.iter().filter(|f| f.is_backlogged()).count();
        let alive = (arrivals / span.max(1e-3) * service).ceil() as usize + backlogged;
        Shape {
            flows: alive.clamp(1, 4096),
            queue_pkts: ((cfg.bdp_bytes() / 1500) as usize).clamp(8, 8192),
            pkt_gap: cfg.bottleneck_rate.transmit_time(1500),
            rtt: cfg.rtt,
            rate: cfg.bottleneck_rate,
            bundles: cfg.n_bundles().max(1),
            keys,
            sizes,
            fluid_aggregates: cfg
                .cross_traffic
                .as_ref()
                .map_or(0, |c| c.aggregates.len() / cfg.num_paths.max(1)),
        }
    }

    fn key(&self, i: u64) -> FlowKey {
        self.keys[(i % self.keys.len() as u64) as usize]
    }

    fn size(&self, i: u64) -> u64 {
        self.sizes[(i % self.sizes.len() as u64) as usize].max(1)
    }

    fn data(&self, i: u64, now: Nanos) -> Packet {
        Packet::data(
            FlowId(i % self.flows as u64),
            self.key(i),
            i * 1460,
            1460,
            now,
        )
        .with_ip_id(i as u16)
    }
}

/// A kernel: the workload's shape and a time budget in, ns per op out.
type Kernel = fn(&Shape, f64) -> f64;

/// Every kernel by metric name, each run for `seconds`.
pub fn run_all(shape: &Shape, seconds: f64) -> Vec<(&'static str, f64)> {
    let kernels: [(&'static str, Kernel); 26] = [
        ("core.wheel.sched_pop_ns", wheel),
        ("sim.event.sched_pop_ns", event_queue),
        ("types.arena.insert_free_ns", arena),
        ("sim.tcp.send_ack_ns", tcp),
        ("sim.path.enq_tx_ns", path),
        ("sim.edge.enq_release_ns", edge),
        ("sched.sfq.enq_deq_ns", |s, t| scheduler(Policy::Sfq, s, t)),
        ("sched.fifo.enq_deq_ns", |s, t| {
            scheduler(Policy::Fifo, s, t)
        }),
        ("sched.fq_codel.enq_deq_ns", |s, t| {
            scheduler(Policy::FqCodel, s, t)
        }),
        ("sched.tbf.consume_ns", token_bucket),
        ("core.epoch.hash_ns", epoch),
        ("core.sendbox.fwd_ns", sendbox_forward),
        ("core.sendbox.ack_tick_ns", sendbox_ack_tick),
        ("cc.copa.measure_ns", |s, t| {
            bundle_cc(&mut Copa::new(CopaConfig::default(), s.rate), s, t)
        }),
        ("cc.nimbus.measure_ns", |s, t| {
            bundle_cc(&mut Nimbus::new(NimbusConfig::default(), s.rate), s, t)
        }),
        ("cc.cubic.ack_ns", cubic),
        ("agent.classify_ns", classify),
        ("agent.tick_ns", agent_tick),
        ("sim.fluid.update_ns", fluid),
        ("shard.mailbox.send_drain_ns", mailbox),
        ("shard.wire.encode_ns", wire_encode),
        ("shard.wire.decode_ns", wire_decode),
        ("obs.metrics.record_ns", obs_metrics),
        ("obs.trace.push_ns", obs_trace),
        ("obs.stream.render_ns", obs_render),
        ("host.calib_ns", |_, t| calib_ns(t)),
    ];
    kernels
        .into_iter()
        .map(|(name, kernel)| (name, kernel(shape, seconds)))
        .collect()
}

/// Pending entries an event queue holds on this workload: per live flow one
/// packet in flight and one timer, per bundle a tick and a release.
fn pending_events(shape: &Shape) -> usize {
    2 * shape.flows + 2 * shape.bundles
}

/// One op: pop the earliest entry and schedule it again between one packet
/// gap and one RTT later (`CalendarQueue` alone, `u64` payloads).
fn wheel(shape: &Shape, seconds: f64) -> f64 {
    let mut q: CalendarQueue<u64> = CalendarQueue::new(Duration(1 << 13));
    let mut rng = 1u64;
    let (gap, rtt) = (shape.pkt_gap.as_nanos().max(1), shape.rtt.as_nanos().max(2));
    for i in 0..pending_events(shape) as u64 {
        q.schedule_keyed(Nanos(splitmix64(&mut rng) % rtt), i, i);
    }
    let mut seq = pending_events(shape) as u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            let (at, item) = q.pop().expect("the queue never drains");
            seq += 1;
            let later = gap + splitmix64(&mut rng) % (rtt - gap.min(rtt - 1));
            q.schedule_keyed(at + Duration(later), seq, black_box(item));
        }
    })
}

/// One op: one event popped through `pop_run` and one scheduled, with real
/// `Event`s under canonical `(lp, seq)` keys, one LP per bundle plus net.
fn event_queue(shape: &Shape, seconds: f64) -> f64 {
    let mut q = EventQueue::new();
    let mut rng = 2u64;
    let (gap, rtt) = (shape.pkt_gap.as_nanos().max(1), shape.rtt.as_nanos().max(2));
    let lps = shape.bundles as u64 + 1;
    let mut seqs = vec![0u64; lps as usize];
    let mut key = |lp: u64| {
        seqs[lp as usize] += 1;
        EventKey::new(lp as u16, seqs[lp as usize])
    };
    let event = |i: u64| match i % 4 {
        0 => Event::ArriveBottleneck {
            pkt: PacketId::from_index(i as u32),
        },
        1 => Event::ArriveDestination {
            pkt: PacketId::from_index(i as u32),
        },
        2 => Event::ArriveSource {
            pkt: PacketId::from_index(i as u32),
        },
        _ => Event::PathDequeue { path: 0 },
    };
    for i in 0..pending_events(shape) as u64 {
        q.schedule(Nanos(splitmix64(&mut rng) % rtt), key(i % lps), event(i));
    }
    let mut run = Vec::with_capacity(64);
    let mut i = 0u64;
    fastest(seconds, BATCH, || {
        let mut done = 0;
        while done < BATCH {
            done += q.pop_run(&mut run) as u64;
            for &(at, k, e) in &run {
                i += 1;
                let later = gap + splitmix64(&mut rng) % (rtt - gap.min(rtt - 1));
                q.schedule(at + Duration(later), key(k.lp() as u64), black_box(e));
            }
        }
        black_box(i);
    })
}

/// One op: insert a packet and free the oldest, with a BDP's worth live.
fn arena(shape: &Shape, seconds: f64) -> f64 {
    let mut arena = PacketArena::with_capacity(1024);
    let live = shape.queue_pkts + shape.flows;
    let mut ring: Vec<PacketId> = (0..live as u64)
        .map(|i| arena.insert(shape.data(i, Nanos::ZERO)))
        .collect();
    let mut i = live as u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            i += 1;
            let slot = (i % live as u64) as usize;
            arena.free(ring[slot]);
            ring[slot] = arena.insert(black_box(shape.data(i, Nanos(i))));
        }
    })
}

/// One op: one data packet through an endhost pair — `maybe_send`, the
/// receiver's `on_data`, the sender's `on_ack` (Cubic inside) — round-robin
/// over as many flows as the workload keeps alive, sizes from its requests.
fn tcp(shape: &Shape, seconds: f64) -> f64 {
    let mut arena = PacketArena::with_capacity(1024);
    let mut next_flow = 0u64;
    let mut open = |now: Nanos| {
        next_flow += 1;
        let sender = TcpSender::new(
            FlowId(next_flow),
            shape.key(next_flow),
            shape.size(next_flow),
            EndhostAlg::Cubic,
            TrafficClass::BEST_EFFORT,
            now,
        );
        (sender, TcpReceiver::new())
    };
    let mut pairs: Vec<_> = (0..shape.flows).map(|_| open(Nanos::ZERO)).collect();
    let mut out: Vec<PacketId> = Vec::with_capacity(64);
    let mut acks: Vec<u64> = Vec::with_capacity(64);
    let mut now = Nanos::ZERO;
    let mut turn = 0usize;
    fastest(seconds, BATCH, || {
        let mut sent = 0u64;
        while sent < BATCH {
            turn = (turn + 1) % pairs.len();
            let (sender, receiver) = &mut pairs[turn];
            now += shape.pkt_gap;
            sender.maybe_send(now, &mut arena, &mut out);
            sent += out.len() as u64;
            acks.clear();
            for id in out.drain(..) {
                let pkt = arena.remove(id);
                acks.push(receiver.on_data(pkt.seq, pkt.payload));
            }
            now += shape.rtt;
            for &ack in &acks {
                sender.on_ack(ack, now, &mut arena, &mut out);
                for id in out.drain(..) {
                    let pkt = arena.remove(id);
                    receiver.on_data(pkt.seq, pkt.payload);
                }
            }
            // A flow that sent nothing is stalled for good; replace it too,
            // so every turn makes progress.
            if sender.is_complete() || acks.is_empty() {
                sent += u64::from(acks.is_empty());
                pairs[turn] = open(now);
            }
        }
    })
}

/// One op: a packet offered to the bottleneck's drop-tail queue and one
/// transmitted, the queue standing at half a BDP, the clock advancing one
/// serialization time per op.
fn path(shape: &Shape, seconds: f64) -> f64 {
    let mut arena = PacketArena::with_capacity(1024);
    let mut path = BottleneckPath::drop_tail(
        shape.rate,
        Duration(shape.rtt.as_nanos() / 2),
        2 * shape.queue_pkts,
    );
    let mut i = 0u64;
    for _ in 0..shape.queue_pkts / 2 {
        i += 1;
        let id = arena.insert(shape.data(i, Nanos::ZERO));
        path.enqueue(id, &mut arena, Nanos::ZERO);
    }
    let mut now = Nanos::ZERO;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            i += 1;
            let id = arena.insert(shape.data(i, now));
            path.enqueue(id, &mut arena, now);
            now = now.max(path.busy_until());
            if let Some((pkt, _, done)) = path.try_transmit(&mut arena, now) {
                arena.free(black_box(pkt));
                now = done;
            }
        }
    })
}

/// One op: a packet through the sendbox datapath — `Bundle::enqueue` (SFQ
/// behind the token bucket) and `Bundle::try_release`, which also notifies
/// the control plane — paced at the bottleneck rate.
fn edge(shape: &Shape, seconds: f64) -> f64 {
    let mut arena = PacketArena::with_capacity(1024);
    let config = BundlerConfig {
        initial_rate: shape.rate,
        ..Default::default()
    };
    let mut bundle = Bundle::new(0, config, Nanos::ZERO).expect("default config is valid");
    let mut now = Nanos::ZERO;
    let mut i = 0u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            i += 1;
            let id = arena.insert(shape.data(i, now));
            bundle.enqueue(id, &mut arena, now);
            loop {
                match bundle.try_release(&mut arena, now) {
                    Release::Packet(pkt) => {
                        arena.free(black_box(pkt));
                        break;
                    }
                    // A sub-nanosecond deficit rounds to a zero wait.
                    Release::Wait(d) => now += d.max(Duration(1)),
                    Release::Empty => break,
                }
            }
        }
    })
}

/// One op: enqueue one packet and dequeue one, the queue standing at half a
/// BDP over as many flows as the workload keeps alive.
fn scheduler(policy: Policy, shape: &Shape, seconds: f64) -> f64 {
    let mut arena = PacketArena::with_capacity(1024);
    let mut sched = policy.build(2 * shape.queue_pkts);
    let mut i = 0u64;
    let mut now = Nanos::ZERO;
    let mut offer =
        |sched: &mut Box<dyn bundler_sched::Scheduler>, arena: &mut PacketArena, now: Nanos| {
            i += 1;
            let id = arena.insert(shape.data(i, now));
            if let Enqueued::Dropped(victim) = sched.enqueue(id, arena, now) {
                arena.free(victim);
            }
        };
    for _ in 0..shape.queue_pkts / 2 {
        offer(&mut sched, &mut arena, now);
    }
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            now += shape.pkt_gap;
            offer(&mut sched, &mut arena, now);
            if let Some(pkt) = sched.dequeue(&mut arena, now) {
                arena.free(black_box(pkt));
            }
        }
    })
}

/// One op: `TokenBucket::try_consume` of one MTU, one packet gap apart.
fn token_bucket(shape: &Shape, seconds: f64) -> f64 {
    let mut bucket = TokenBucket::new(shape.rate, 3 * 1514, Nanos::ZERO);
    let mut now = Nanos::ZERO;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            now += shape.pkt_gap;
            black_box(bucket.try_consume(black_box(1500), now));
        }
    })
}

/// One op: the epoch hash of a packet header and the boundary test.
fn epoch(shape: &Shape, seconds: f64) -> f64 {
    let mut pkt = shape.data(1, Nanos::ZERO);
    fastest(seconds, BATCH, || {
        for i in 0..BATCH {
            pkt.ip_id = i as u16;
            black_box(is_boundary(epoch_hash(black_box(&pkt)), 64));
        }
    })
}

/// One op: `Sendbox::on_packet_forwarded` for one released packet.
fn sendbox_forward(shape: &Shape, seconds: f64) -> f64 {
    let mut sendbox =
        Sendbox::new(BundleId(0), BundlerConfig::default()).expect("default config is valid");
    let mut now = Nanos::ZERO;
    let mut i = 0u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            i += 1;
            now += shape.pkt_gap;
            black_box(sendbox.on_packet_forwarded(&shape.data(i, now), now));
        }
    })
}

/// One op: the control-plane work of one control interval — the congestion
/// ACKs that came back for that interval's boundary packets, then
/// `Sendbox::on_tick` (measurement window, mode machine, bundle CC). The
/// packets are forwarded at one bundle's share of the bottleneck rate
/// outside the timed section; `core.sendbox.fwd_ns` prices those.
fn sendbox_ack_tick(shape: &Shape, seconds: f64) -> f64 {
    let config = BundlerConfig::default();
    let mut sendbox = Sendbox::new(BundleId(0), config).expect("default config is valid");
    let mut receivebox = Receivebox::new(BundleId(0), config.initial_epoch_size);
    let bundle_gap = Duration(shape.pkt_gap.as_nanos().max(1) * shape.bundles as u64);
    let per_tick = (config.control_interval.as_nanos() / bundle_gap.as_nanos()).clamp(1, 4096);
    let ticks = (BATCH / per_tick).clamp(64, 2048);
    let mut acks = Vec::with_capacity(per_tick as usize);
    let mut now = Nanos::ZERO;
    let mut i = 0u64;
    let start = Instant::now();
    let mut best = f64::INFINITY;
    loop {
        let mut timed = std::time::Duration::ZERO;
        for _ in 0..ticks {
            acks.clear();
            for _ in 0..per_tick {
                i += 1;
                now += bundle_gap;
                let pkt = shape.data(i, now);
                sendbox.on_packet_forwarded(&pkt, now);
                acks.extend(receivebox.on_packet(&pkt, now + Duration(shape.rtt.0 / 2)));
            }
            let t = Instant::now();
            for ack in &acks {
                sendbox.on_congestion_ack(ack, now + shape.rtt);
            }
            let out = sendbox.on_tick(0, now + shape.rtt);
            timed += t.elapsed();
            if let Some(update) = out.epoch_update {
                receivebox.on_epoch_update(&update);
            }
            black_box(out.rate);
        }
        best = best.min(timed.as_nanos() as f64 / ticks as f64);
        if start.elapsed().as_secs_f64() >= seconds {
            return best;
        }
    }
}

/// One op: `BundleCc::on_measurement` on a stream whose RTT breathes around
/// the workload's base RTT and whose rates sit at its bottleneck rate.
fn bundle_cc(cc: &mut dyn BundleCc, shape: &Shape, seconds: f64) -> f64 {
    let mut now = Nanos::ZERO;
    let mut rng = 3u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            now += Duration::from_millis(10);
            let queueing = splitmix64(&mut rng) % (shape.rtt.as_nanos() / 4 + 1);
            let m = Measurement {
                now,
                rtt: shape.rtt + Duration(queueing),
                min_rtt: shape.rtt,
                send_rate: shape.rate,
                recv_rate: shape.rate.mul_f64(0.95),
                acked_bytes: shape.rate.bytes_over(Duration::from_millis(10)),
                lost_samples: 0,
            };
            black_box(cc.on_measurement(black_box(&m)));
        }
    })
}

/// One op: `Cubic::on_ack` for one MSS acknowledged one packet gap later.
fn cubic(shape: &Shape, seconds: f64) -> f64 {
    let mut cc = Cubic::new(1460);
    let mut now = Nanos::ZERO;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            now += shape.pkt_gap;
            cc.on_ack(black_box(&AckEvent {
                now,
                acked_bytes: 1460,
                rtt_sample: Some(shape.rtt),
                min_rtt: shape.rtt,
                inflight_bytes: cc.cwnd(),
            }));
        }
        black_box(cc.cwnd());
    })
}

fn agent_of(shape: &Shape) -> SiteAgent {
    let mut agent = SiteAgent::new(AgentConfig::default());
    for site in 0..shape.bundles {
        agent
            .add_bundle(
                &[ManySitesScenario::site_prefix(site)],
                BundlerConfig::default(),
                Nanos::ZERO,
            )
            .expect("one /24 per site never collides");
    }
    agent
}

/// One op: `SiteAgent::classify_packet` (longest-prefix match over one /24
/// per bundle) for the workload's own five-tuples.
fn classify(shape: &Shape, seconds: f64) -> f64 {
    let mut agent = agent_of(shape);
    let pkts: Vec<Packet> = (0..shape.keys.len() as u64)
        .map(|i| shape.data(i, Nanos::ZERO))
        .collect();
    fastest(seconds, BATCH, || {
        for i in 0..BATCH as usize {
            black_box(agent.classify_packet(&pkts[i % pkts.len()]));
        }
    })
}

/// One op: one bundle's control tick through `SiteAgent::advance` (timer
/// wheel pop, `on_tick`, re-arm), all bundles due each control interval.
fn agent_tick(shape: &Shape, seconds: f64) -> f64 {
    let mut agent = agent_of(shape);
    let interval = BundlerConfig::default().control_interval;
    let advances = (BATCH / shape.bundles as u64).max(8);
    let mut now = Nanos::ZERO;
    fastest(seconds, advances * shape.bundles as u64, || {
        for _ in 0..advances {
            now += interval;
            black_box(agent.advance(now, |_| 0).len());
        }
    })
}

/// One op: one `FluidState::update_path` step over the workload's
/// aggregates per path (three when the workload has no fluid tier, so the
/// kernel still reports a cost).
fn fluid(shape: &Shape, seconds: f64) -> f64 {
    let aggregates = (0..shape.fluid_aggregates.max(3))
        .map(|i| FluidAggregate::new(4 + i as u64, shape.rtt))
        .collect();
    let config = FluidCrossTraffic::new(aggregates).with_update_interval(Duration::from_millis(5));
    let mut state = FluidState::new(&config, 1, 2 * shape.queue_pkts);
    let mut path = BottleneckPath::drop_tail(
        shape.rate,
        Duration(shape.rtt.as_nanos() / 2),
        2 * shape.queue_pkts,
    );
    let mut now = Nanos::ZERO;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            now += config.update_interval;
            state.update_path(now, 0, black_box(&mut path));
        }
    })
}

/// The envelope a mailbox carries, as the sharded driver's `ToNet`.
type Envelope = (Nanos, EventKey, Packet);

/// Envelopes per window: what crosses the bottleneck in one lookahead (half
/// an RTT) at the workload's rate.
fn window_msgs(shape: &Shape) -> u64 {
    (shape.rtt.as_nanos() / 2 / shape.pkt_gap.as_nanos().max(1)).clamp(8, 4096)
}

/// One op: one envelope sent and drained, a window's worth at a time.
fn mailbox(shape: &Shape, seconds: f64) -> f64 {
    let per_window = window_msgs(shape);
    let (mut tx, mut rx) = bundler_shard::mailbox::channel::<Envelope>(4096);
    let mut inbox: Vec<Envelope> = Vec::with_capacity(per_window as usize);
    let windows = (BATCH / per_window).max(4);
    let mut i = 0u64;
    fastest(seconds, windows * per_window, || {
        for _ in 0..windows {
            for _ in 0..per_window {
                i += 1;
                tx.send((Nanos(i), EventKey::new(1, i), shape.data(i, Nanos(i))));
            }
            rx.drain_into(&mut inbox);
            black_box(inbox.len());
            inbox.clear();
        }
    })
}

/// One op: one envelope encoded to the `NETENV` wire format.
fn wire_encode(shape: &Shape, seconds: f64) -> f64 {
    let mut buf = Vec::with_capacity(256);
    let mut i = 0u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            i += 1;
            buf.clear();
            wire::encode(
                WireDir::ToNet,
                Nanos(i),
                EventKey::new(1, i),
                &shape.data(i, Nanos(i)),
                &mut buf,
            );
            black_box(buf.len());
        }
    })
}

/// One op: one `NETENV` frame decoded.
fn wire_decode(shape: &Shape, seconds: f64) -> f64 {
    let frames: Vec<Vec<u8>> = (0..64u64)
        .map(|i| {
            let mut buf = Vec::new();
            wire::encode(
                WireDir::Delivery,
                Nanos(i),
                EventKey::new(0, i),
                &shape.data(i, Nanos(i)),
                &mut buf,
            );
            buf
        })
        .collect();
    fastest(seconds, BATCH, || {
        for i in 0..BATCH as usize {
            black_box(wire::decode(&frames[i % frames.len()]).expect("own frames decode"));
        }
    })
}

/// One op: one counter add and one histogram observation.
fn obs_metrics(_: &Shape, seconds: f64) -> f64 {
    let mut metrics = MetricsShard::default();
    let mut rng = 4u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            metrics.add(CounterId::SendboxEnqueued, 1);
            metrics.observe(HistId::SendboxSojournNs, splitmix64(&mut rng) >> 40);
        }
        black_box(metrics.counter(CounterId::SendboxEnqueued));
    })
}

fn dequeue_record(i: u64) -> TraceKind {
    TraceKind::Dequeue {
        bundle: (i % 48) as u32,
        sojourn_ns: i * 37,
    }
}

/// One op: `ShardObs::record` at full observability (wall stamp + ring
/// push), the ring cleared as a barrier flush would.
fn obs_trace(_: &Shape, seconds: f64) -> f64 {
    let mut obs = ShardObs::new(ObsLevel::Full, 0);
    let mut i = 0u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            i += 1;
            obs.record(Nanos(i), dequeue_record(i));
        }
        black_box(obs.ring.len());
        obs.ring.clear_pending();
    })
}

/// One op: one trace record rendered as a line of the streaming protocol.
fn obs_render(_: &Shape, seconds: f64) -> f64 {
    let mut i = 0u64;
    fastest(seconds, BATCH, || {
        for _ in 0..BATCH {
            i += 1;
            let rec = TraceRecord {
                at: Nanos(i),
                wall_ns: i,
                shard: 0,
                kind: dequeue_record(i),
            };
            black_box(render_line(&rec, i).len());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, Features, Size, Workload};

    #[test]
    fn shape_comes_from_the_generated_worlds() {
        let fct = Shape::of(&[generate(Workload::FctSfq, Size::Smoke, 0, Features::OFF)]);
        let hot = Shape::of(&[generate(Workload::HotSolo, Size::Smoke, 0, Features::OFF)]);
        let metro = Shape::of(&[generate(Workload::MetroCkpt, Size::Smoke, 0, Features::OFF)]);
        assert_eq!((fct.bundles, hot.bundles, metro.bundles), (1, 6, 3));
        assert!(
            hot.flows > fct.flows.min(6),
            "backlogged flows count as alive"
        );
        assert_eq!(fct.fluid_aggregates, 0);
        assert!(metro.fluid_aggregates > 0);
        assert_eq!(fct.pkt_gap, Rate::from_mbps(96).transmit_time(1500));
        assert!(!fct.keys.is_empty() && fct.keys.len() == fct.sizes.len());
    }

    #[test]
    fn every_kernel_reports_a_positive_finite_cost() {
        let shape = Shape::of(&[generate(Workload::HotSolo, Size::Smoke, 0, Features::OFF)]);
        for (name, ns) in run_all(&shape, 0.0) {
            assert!(ns.is_finite() && ns > 0.0, "{name}: {ns}");
        }
    }
}
