//! Property-based tests over the core data structures and invariants.

use bundler::agent::PrefixClassifier;
use bundler::cc::nimbus::CrossTrafficVerdict;
use bundler::cc::EndhostAlg;
use bundler::core::epoch::{epoch_hash, is_boundary, target_epoch_size, MAX_EPOCH_SIZE};
use bundler::core::feedback::{BundleId, CongestionAck, EpochSizeUpdate};
use bundler::core::modes::Mode;
use bundler::core::wheel::{BinaryHeapQueue, CalendarQueue};
use bundler::sched::Policy;
use bundler::sim::stats::quantile;
use bundler::sim::workload::{FlowSizeDist, Origin};
use bundler::types::{
    flow::ipv4, Duration, FlowId, FlowKey, IpPrefix, Nanos, Packet, PacketArena, PacketKind,
    Protocol, Rate,
};
use proptest::prelude::*;
use serde::binary::{decode_all, encode_to_vec, Decode, Encode, Reader};

fn arb_packet() -> impl Strategy<Value = Packet> {
    (any::<u16>(), any::<u16>(), 1u32..1460, any::<u64>(), 0u8..4).prop_map(
        |(ip_id, dst_port, payload, flow, class)| {
            let key = FlowKey::tcp(
                ipv4(10, 0, (flow % 200) as u8, 1),
                (1000 + flow % 40_000) as u16,
                ipv4(10, 1, (flow % 100) as u8, 1),
                dst_port.max(1),
            );
            Packet::data(FlowId(flow), key, 0, payload, Nanos::ZERO)
                .with_ip_id(ip_id)
                .with_class(bundler::types::TrafficClass(class))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Epoch boundaries sampled at a larger power-of-two epoch size are
    /// always a subset of those sampled at a smaller one — the property that
    /// makes epoch-size updates loss-tolerant (§4.5).
    #[test]
    fn epoch_boundaries_nest(pkt in arb_packet(), shift_small in 0u32..6, extra in 1u32..6) {
        let small = 1u32 << shift_small;
        let large = small << extra;
        let h = epoch_hash(&pkt);
        if is_boundary(h, large) {
            prop_assert!(is_boundary(h, small));
        }
    }

    /// The computed epoch size is always a power of two within bounds.
    #[test]
    fn epoch_size_is_power_of_two(rtt_ms in 1u64..400, rate_mbps in 1u64..1000) {
        let (rtt, rate) = (Duration::from_millis(rtt_ms), Rate::from_mbps(rate_mbps));
        let n = target_epoch_size(rtt, rate, 1500);
        prop_assert!(n.is_power_of_two());
        prop_assert!((1..=MAX_EPOCH_SIZE).contains(&n));
    }

    /// Congestion ACKs and epoch updates survive the `serde::layout!`
    /// round trip the simulator's feedback events take, and every strict
    /// prefix of their bytes is refused.
    #[test]
    fn feedback_round_trips(
        bundle in any::<u32>(),
        hash in any::<u64>(),
        bytes in any::<u64>(),
        pkts in any::<u64>(),
        t in any::<u64>(),
        epoch_shift in 0u32..15,
    ) {
        let ack = CongestionAck {
            bundle: BundleId(bundle),
            packet_hash: hash,
            bytes_received: bytes,
            packets_received: pkts,
            observed_at: Nanos(t),
        };
        let upd = EpochSizeUpdate { bundle: BundleId(bundle), epoch_size: 1 << epoch_shift };
        assert_layout_round_trips(&ack);
        assert_layout_round_trips(&upd);
    }

    /// Every scheduler conserves packets: whatever is enqueued is either
    /// dropped (reported and freed) or eventually dequeued, byte counters
    /// stay consistent, and no arena slot leaks.
    #[test]
    fn schedulers_conserve_packets(pkts in proptest::collection::vec(arb_packet(), 1..120)) {
        for &policy in Policy::all() {
            let mut arena = PacketArena::new();
            let mut s = policy.build(64);
            let mut accepted = 0u64;
            let mut dropped = 0u64;
            for p in &pkts {
                let id = arena.insert(p.clone());
                match s.enqueue(id, &mut arena, Nanos::ZERO) {
                    bundler::sched::Enqueued::Dropped(victim) => {
                        arena.free(victim);
                        dropped += 1;
                    }
                    bundler::sched::Enqueued::Queued => accepted += 1,
                }
            }
            // Note: a drop may evict a previously accepted packet (e.g. SFQ
            // drops from the longest queue), so compare totals, not order.
            let mut dequeued = 0u64;
            while let Some(id) = s.dequeue(&mut arena, Nanos::from_millis(1)) {
                arena.free(id);
                dequeued += 1;
            }
            prop_assert_eq!(accepted + dropped, pkts.len() as u64);
            prop_assert_eq!(dequeued + dropped, pkts.len() as u64, "policy {}", policy);
            prop_assert_eq!(s.len_packets(), 0);
            prop_assert_eq!(s.len_bytes(), 0);
            prop_assert_eq!(arena.live(), 0, "policy {} leaked arena slots", policy);
        }
    }

    /// The calendar-queue event engine pops in exactly the order of the
    /// reference binary heap, including same-timestamp ties (which must
    /// resolve by schedule sequence) and interleaved schedule/pop traces —
    /// the determinism the whole simulator is built on.
    #[test]
    fn calendar_queue_matches_binary_heap(
        ops in proptest::collection::vec((0u64..3u64, 0u64..50_000u64), 1..500),
    ) {
        let mut cal: CalendarQueue<u32> = CalendarQueue::new(Duration::from_micros(1));
        let mut heap: BinaryHeapQueue<u32> = BinaryHeapQueue::new();
        for (i, &(kind, t)) in ops.iter().enumerate() {
            if kind == 0 {
                prop_assert_eq!(cal.pop(), heap.pop(), "pop divergence at op {}", i);
            } else {
                // Coarse timestamp grid (multiples of 256 ns over a small
                // range) so same-timestamp ties are common; kind 2 schedules
                // "in the past" to exercise the clamp-to-now path.
                let at = if kind == 2 {
                    Nanos(heap.now().as_nanos() / 2)
                } else {
                    Nanos(heap.now().as_nanos() + (t % 700) * 256)
                };
                cal.schedule(at, i as u32);
                heap.schedule(at, i as u32);
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            prop_assert_eq!(a, b, "drain divergence");
            if a.is_none() {
                break;
            }
        }
    }

    /// The flow-size distribution's quantile function is monotone and its
    /// samples respect the declared CDF point at 10 KB.
    #[test]
    fn flow_size_quantiles_are_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let dist = FlowSizeDist::caida_like();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(dist.quantile(lo) <= dist.quantile(hi));
    }

    /// quantile() is bounded by the min and max of its inputs.
    #[test]
    fn quantile_is_bounded(mut values in proptest::collection::vec(0.0f64..1e6, 1..200), q in 0.0f64..1.0) {
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let result = quantile(&mut values, q).unwrap();
        prop_assert!(result >= min - 1e-9 && result <= max + 1e-9);
    }

    /// The site agent's longest-prefix-match classifier agrees with a naive
    /// linear scan over random prefix tables and random lookup keys.
    #[test]
    fn classifier_agrees_with_linear_scan(
        entries in proptest::collection::vec((any::<u32>(), 0u8..33), 1..40),
        probes in proptest::collection::vec(any::<u32>(), 1..60),
    ) {
        // Build both representations with identical replace-on-duplicate
        // semantics (two raw entries can canonicalize to the same prefix).
        let mut table = PrefixClassifier::new();
        let mut naive: Vec<(IpPrefix, usize)> = Vec::new();
        for (i, &(addr, len)) in entries.iter().enumerate() {
            let p = IpPrefix::new(addr, len).expect("len < 33 by construction");
            table.insert(p, i);
            naive.retain(|&(q, _)| q != p);
            naive.push((p, i));
        }
        prop_assert_eq!(table.len(), naive.len());

        // Probe random addresses plus, for every installed prefix, an
        // address inside it (so exact and covering matches are exercised
        // even when the random probes miss everything).
        let derived: Vec<u32> =
            naive.iter().map(|&(p, _)| p.addr() | (!p.netmask() & 0x5aa5_a55a)).collect();
        for &addr in probes.iter().chain(&derived) {
            // Reference: scan everything, keep the longest match. At most
            // one prefix per length can contain a given address, so the
            // maximum is unique.
            let expect = naive
                .iter()
                .filter(|&&(p, _)| p.contains(addr))
                .max_by_key(|&&(p, _)| p.len())
                .map(|&(_, v)| v);
            prop_assert_eq!(table.lookup(addr).copied(), expect, "addr {:#010x}", addr);
            let key = FlowKey::tcp(ipv4(10, 0, 0, 1), 4000, addr, 443);
            prop_assert_eq!(table.classify(&key).copied(), expect);
        }
    }
}

/// `v` decodes from its own encoding to itself, consuming every byte, and
/// decoding any strict prefix of that encoding fails.
fn assert_layout_round_trips<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = encode_to_vec(v);
    assert_eq!(&decode_all::<T>(&bytes).expect("decode"), v);
    for cut in 0..bytes.len() {
        assert!(decode_all::<T>(&bytes[..cut]).is_err(), "prefix {cut}");
    }
}

/// Feeds `T`'s decoder every first byte, each followed by the same payload:
/// exactly the tags in `tags` decode, and what they decode re-encodes to
/// exactly the bytes it consumed; every other tag — a retired one included
/// — is refused as unknown, by name.
fn assert_tags_are_total<T: Encode + Decode>(tags: &[u8]) {
    let name = std::any::type_name::<T>().rsplit("::").next().unwrap();
    let mut decoded = Vec::new();
    for tag in 0..=u8::MAX {
        let bytes = [tag, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a, 0x5a];
        let mut r = Reader::new(&bytes);
        match T::decode(&mut r) {
            Ok(v) => {
                assert_eq!(encode_to_vec(&v), bytes[..r.position()], "{name} tag {tag}");
                decoded.push(tag);
            }
            Err(e) => assert_eq!(e.what, format!("unknown {name} tag")),
        }
    }
    assert_eq!(decoded, tags, "{name} rows");
}

#[test]
fn enum_decoders_are_total_over_the_tag_byte() {
    assert_tags_are_total::<Protocol>(&[0, 1]);
    assert_tags_are_total::<PacketKind>(&[0, 1]);
    assert_tags_are_total::<Mode>(&[0, 1, 2]);
    assert_tags_are_total::<CrossTrafficVerdict>(&[0, 1]);
    assert_tags_are_total::<Origin>(&[0, 1]);
    // Tag 3 (TCP Vegas) is retired.
    assert_tags_are_total::<EndhostAlg>(&[0, 1, 2, 4]);
}
