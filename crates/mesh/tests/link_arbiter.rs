//! Property tests for the link arbiter: a link carries one packet at a
//! time, every packet is delivered, and `LinkFree` events are spent only
//! on packets that actually waited for a link.
//!
//! Schedules are drawn on a lattice where serialization, router delay and
//! injection times are all multiples of one quantum, so packets keep
//! reaching links at the very instant those links free — the same-instant
//! hand-off the arbiter must get right — in both priority classes.

use commsense_des::{EventQueue, Time};
use commsense_mesh::{
    Endpoint, LinkOverlap, NetConfig, NetEvent, NetRecording, Network, Packet, PacketClass,
    Priority, TopoSpec,
};
use proptest::prelude::*;

/// The lattice quantum in picoseconds: one router delay, one ejection
/// slot, and the serialization time of an 8-byte packet.
const Q: u64 = 8_000;

/// A 4×2 mesh whose every timing is a multiple of [`Q`].
fn lattice_cfg() -> NetConfig {
    NetConfig {
        topo: TopoSpec::mesh(4, 2),
        ps_per_byte: Q / 8,
        router_delay_ps: Q,
        eject_delay_ps: Q,
    }
}

/// What one drained run observed.
struct Outcome {
    /// Tags of packets delivered to compute nodes.
    delivered: Vec<u64>,
    /// `LinkFree` events the network scheduled and handled.
    link_frees: u64,
    /// The network's own count of hops started on a busy link.
    overlaps: u64,
    first_overlap: Option<LinkOverlap>,
    recording: NetRecording,
}

/// Injects `packets` (each at its time, in order) into a recording network,
/// then drives it to quiescence, counting `LinkFree` events.
fn run(net: &mut Network, packets: &[(Time, Packet)]) -> Outcome {
    net.enable_recording(usize::MAX);
    let mut q = EventQueue::new();
    for (t, pkt) in packets {
        net.inject(*t, pkt.clone(), &mut |t2, e| q.schedule(t2, e));
    }
    let mut delivered = Vec::new();
    let mut link_frees = 0;
    while let Some((t, ev)) = q.pop() {
        if matches!(ev, NetEvent::LinkFree { .. }) {
            link_frees += 1;
        }
        let mut sched = Vec::new();
        if let Some(d) = net.handle(t, ev, &mut |t2, e2| sched.push((t2, e2))) {
            delivered.push(d.packet.tag);
        }
        for (t2, e2) in sched {
            q.schedule(t2, e2);
        }
    }
    Outcome {
        delivered,
        link_frees,
        overlaps: net.link_overlaps(),
        first_overlap: net.first_link_overlap(),
        recording: net.take_recording().expect("recording enabled"),
    }
}

/// Asserts that no two hop intervals on any link overlap, straight from
/// the recorded hops (independently of the network's own overlap count).
fn assert_links_exclusive(rec: &NetRecording) {
    let mut hops = rec.hops.clone();
    hops.sort_by_key(|h| (h.link, h.start));
    for w in hops.windows(2) {
        if w[0].link == w[1].link {
            assert!(
                w[1].start >= w[0].end,
                "link {} double-booked: hop [{}, {}) overlaps [{}, {})",
                w[0].link,
                w[1].start,
                w[1].end,
                w[0].start,
                w[0].end
            );
        }
    }
}

/// Builds a packet from a drawn `(src, dst, size, hi)` tuple: `src == 8`
/// is a west-edge I/O source (which bypasses the injection port), any
/// other value a compute node.
fn packet(tag: u64, src: usize, dst: usize, size: u32, hi: bool) -> Packet {
    let bytes = 8 * size;
    let pkt = if src == 8 {
        let row = (dst % 2) as u16;
        Packet::cross_traffic(Endpoint::IoWest(row), Endpoint::IoEast(row), bytes)
    } else {
        let dst = if dst == src { (dst + 1) % 8 } else { dst };
        Packet::protocol(
            Endpoint::node(src),
            Endpoint::node(dst),
            bytes,
            PacketClass::Data,
            tag,
        )
    };
    pkt.with_priority(if hi { Priority::High } else { Priority::Low })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Contended lattice schedules in both priority classes: links stay
    /// exclusive, every packet is delivered once, and exactly one
    /// `LinkFree` fires per hop that queued.
    #[test]
    fn contended_schedules_keep_links_exclusive(
        draws in proptest::collection::vec(
            ((0u64..6, 0u8..2), 0usize..9, 0usize..8, 1u32..4),
            1..48,
        )
    ) {
        let mut packets: Vec<(Time, Packet)> = draws
            .iter()
            .enumerate()
            .map(|(tag, &((slot, hi), src, dst, size))| {
                (Time::from_ps(slot * Q), packet(tag as u64, src, dst, size, hi == 1))
            })
            .collect();
        // Injection is in time order; same-slot packets keep draw order.
        packets.sort_by_key(|&(t, _)| t);
        let mut net = Network::new(lattice_cfg());
        let out = run(&mut net, &packets);

        assert_links_exclusive(&out.recording);
        prop_assert_eq!(out.overlaps, 0);

        let mut want: Vec<u64> = packets
            .iter()
            .filter(|(_, p)| p.class != PacketClass::CrossTraffic)
            .map(|(_, p)| p.tag)
            .collect();
        want.sort_unstable();
        let mut got = out.delivered.clone();
        got.sort_unstable();
        prop_assert_eq!(got, want, "every node packet delivered exactly once");
        prop_assert_eq!(net.stats().packets_delivered, packets.len() as u64);
        prop_assert_eq!(net.in_flight(), 0);

        let hops = out.recording.hops.len() as u64;
        let queued = net.stats().queued_hops;
        prop_assert!(queued <= hops);
        prop_assert_eq!(out.link_frees, queued, "one LinkFree per queued hop, no more");
    }

    /// Packets spaced far enough apart never meet on a link: no hop queues
    /// and not a single `LinkFree` is scheduled.
    #[test]
    fn uncontended_schedules_schedule_no_link_free(
        draws in proptest::collection::vec(((0usize..9, 0u8..2), 0usize..8, 1u32..4), 1..24)
    ) {
        let packets: Vec<(Time, Packet)> = draws
            .iter()
            .enumerate()
            .map(|(i, &((src, hi), dst, size))| {
                (Time::from_ps(i as u64 * 100 * Q), packet(i as u64, src, dst, size, hi == 1))
            })
            .collect();
        let mut net = Network::new(lattice_cfg());
        let out = run(&mut net, &packets);
        prop_assert_eq!(out.link_frees, 0);
        prop_assert_eq!(net.stats().queued_hops, 0);
        prop_assert!(!out.recording.hops.is_empty());
        prop_assert_eq!(net.stats().packets_delivered, packets.len() as u64);
    }
}

/// Three one-quantum packets on the same west-edge row: A takes the first
/// link at 0 and B queues behind it; C reaches the link at the instant it
/// frees, and its arrival event runs before the LinkFree that B waits on.
fn same_instant_race() -> Vec<(Time, Packet)> {
    let pkt = || Packet::cross_traffic(Endpoint::IoWest(0), Endpoint::IoEast(0), 8);
    vec![
        (Time::ZERO, pkt()),
        (Time::ZERO, pkt()),
        (Time::from_ps(Q), pkt()),
    ]
}

#[test]
fn arrival_at_busy_until_queues_behind_waiters() {
    let mut net = Network::new(lattice_cfg());
    let out = run(&mut net, &same_instant_race());
    assert_links_exclusive(&out.recording);
    assert_eq!(out.overlaps, 0);
    // The first link carries A, B, C back to back in arrival order.
    let first = out.recording.hops[0].link;
    let starts: Vec<(u32, Time)> = out
        .recording
        .hops
        .iter()
        .filter(|h| h.link == first)
        .map(|h| (h.packet, h.start))
        .collect();
    assert_eq!(
        starts,
        [
            (0, Time::ZERO),
            (1, Time::from_ps(Q)),
            (2, Time::from_ps(2 * Q))
        ]
    );
    assert_eq!(out.link_frees, net.stats().queued_hops);
}

#[test]
fn rearmed_race_double_books_the_link() {
    // With the seeded mutation, C takes the link at its arrival and the
    // pending LinkFree starts B on it too: the overlap the machine's
    // link-exclusivity check must catch.
    let mut net = Network::new(lattice_cfg());
    net.fault_ignore_link_waiters();
    let out = run(&mut net, &same_instant_race());
    assert_eq!(out.overlaps, 1);
    let o = out.first_overlap.expect("overlap recorded");
    assert_eq!(o.start, Time::from_ps(Q));
    assert_eq!(o.busy_until, Time::from_ps(2 * Q));
    assert_eq!(out.delivered.len(), 0, "cross-traffic is absorbed off-edge");
}
