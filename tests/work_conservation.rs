//! Work conservation and packet conservation across every scheduling
//! policy, standalone and hierarchical: a PFQ server never idles while
//! packets are queued, transmits every packet exactly once, and preserves
//! per-flow FIFO order.
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use hpfq::core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq::obs::jsonl::parse_trace;
use hpfq::obs::{replay, InvariantObserver, JsonlObserver};
use hpfq::sim::{CbrSource, Network, Route, SimCommand, TraceSource};
use std::collections::BTreeMap;

fn two_level(kind: SchedulerKind) -> (Hierarchy<MixedScheduler>, Vec<NodeId>) {
    let mut bld = Hierarchy::builder(1e6, move |r| kind.build(r));
    let root = bld.root();
    let a = bld.add_internal(root, 0.6).unwrap();
    let b = bld.add_internal(root, 0.4).unwrap();
    let leaves = vec![
        bld.add_leaf(a, 0.5).unwrap(),
        bld.add_leaf(a, 0.5).unwrap(),
        bld.add_leaf(b, 0.25).unwrap(),
        bld.add_leaf(b, 0.75).unwrap(),
    ];
    (bld.build(), leaves)
}

#[test]
fn saturated_link_transmits_at_capacity_under_every_policy() {
    for kind in SchedulerKind::ALL {
        let (h, leaves) = two_level(kind);
        let mut sim = Network::single_link(h);
        for (i, &leaf) in leaves.iter().enumerate() {
            let flow = i as u32;
            sim.add_route(
                flow,
                CbrSource::new(flow, 500, 0.5e6, 0.0, 100.0), // 4x oversubscribed
                Route::open_loop(leaf),
            );
        }
        sim.run(10.0);
        // 10 s at 1 Mbit/s = 1.25e6 bytes; allow sub-packet slack at both
        // ends.
        assert!(
            sim.stats.total_bytes >= 1_248_000,
            "{}: only {} bytes in 10 s",
            kind.name(),
            sim.stats.total_bytes
        );
    }
}

#[test]
fn every_packet_transmitted_exactly_once_and_in_flow_order() {
    for kind in SchedulerKind::ALL {
        let (h, leaves) = two_level(kind);
        let mut sim = Network::single_link(h);
        let mut expected = 0usize;
        for (i, &leaf) in leaves.iter().enumerate() {
            let flow = i as u32;
            sim.stats.trace_flow(flow);
            // A finite trace: bursts + trailing trickle.
            let mut entries: Vec<(f64, u32)> = Vec::new();
            for k in 0..30 {
                entries.push((0.01 * f64::from(i as u32), 400 + 10 * (k % 5)));
            }
            for k in 0..20 {
                entries.push((1.0 + 0.05 * k as f64, 600));
            }
            expected += entries.len();
            sim.add_route(
                flow,
                TraceSource::new(flow, entries),
                Route::open_loop(leaf),
            );
        }
        sim.run(1000.0);
        let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
        let mut total = 0usize;
        for flow in 0..leaves.len() as u32 {
            let trace = sim.stats.trace(flow);
            total += trace.len();
            let mut last_id = None;
            for rec in trace {
                assert_eq!(rec.flow, flow);
                *seen.entry(rec.id).or_insert(0) += 1;
                // FIFO within the flow: ids (sequence numbers) increase.
                if let Some(prev) = last_id {
                    assert!(rec.id > prev, "{}: flow {flow} reordered", kind.name());
                }
                last_id = Some(rec.id);
                // Causality: service after arrival, non-negative delay.
                assert!(rec.start >= rec.arrival - 1e-12);
                assert!(rec.end > rec.start);
            }
        }
        assert_eq!(total, expected, "{}: packet count mismatch", kind.name());
        assert!(
            seen.values().all(|&c| c == 1),
            "{}: duplicate ids",
            kind.name()
        );
    }
}

/// The link serializes transmissions: service intervals never overlap.
/// The same run is watched by an [`InvariantObserver`], whose online
/// work-conservation check complements the throughput test above.
#[test]
fn transmissions_do_not_overlap() {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld =
        Hierarchy::builder_with_observer(1e6, move |r| kind.build(r), InvariantObserver::new());
    let root = bld.root();
    let a = bld.add_internal(root, 0.6).unwrap();
    let b = bld.add_internal(root, 0.4).unwrap();
    let leaves = [
        bld.add_leaf(a, 0.5).unwrap(),
        bld.add_leaf(a, 0.5).unwrap(),
        bld.add_leaf(b, 0.25).unwrap(),
        bld.add_leaf(b, 0.75).unwrap(),
    ];
    let mut sim = Network::single_link(bld.build());
    for (i, &leaf) in leaves.iter().enumerate() {
        let flow = i as u32;
        sim.stats.trace_flow(flow);
        sim.add_route(
            flow,
            CbrSource::new(flow, 700, 0.4e6, 0.0, 5.0),
            Route::open_loop(leaf),
        );
    }
    sim.run(20.0);
    let mut intervals: Vec<(f64, f64)> = (0..leaves.len() as u32)
        .flat_map(|f| sim.stats.trace(f).iter().map(|r| (r.start, r.end)))
        .collect();
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for w in intervals.windows(2) {
        assert!(w[1].0 >= w[0].1 - 1e-9, "overlapping transmissions: {w:?}");
    }
    let inv = sim.observer_of(0);
    assert!(inv.events_checked > 0);
    assert!(inv.is_clean(), "{}", inv.summary());
}

/// A link that is down owes no start: packets that arrive during an
/// outage are served from the instant the link comes back up. Two
/// 12.8 kb/s CBR flows share a 64 kb/s WF²Q+ root whose link is down from
/// 0.5 s to 1.0 s, so the arrivals at 0.625 s wait for the `link_up`. The
/// checker replaying the run's JSONL trace reaches the online verdict.
#[test]
fn an_outage_owes_no_start_until_the_link_is_up() {
    const RATE: f64 = 64e3;
    let kind = SchedulerKind::Wf2qPlus;
    let sinks = (InvariantObserver::new(), JsonlObserver::new(Vec::new()));
    let mut bld = Hierarchy::builder_with_observer(RATE, move |r| kind.build(r), sinks);
    let root = bld.root();
    let leaves = [
        bld.add_leaf(root, 0.5).unwrap(),
        bld.add_leaf(root, 0.5).unwrap(),
    ];
    let mut sim = Network::single_link(bld.build());
    for (flow, leaf) in (0..).zip(leaves) {
        sim.add_route(
            flow,
            CbrSource::new(flow, 1000, 12.8e3, 0.0, 2.0),
            Route::open_loop(leaf),
        );
    }
    sim.schedule_command(0.5, SimCommand::SetLinkRate { link: 0, bps: 0.0 });
    sim.schedule_command(1.0, SimCommand::SetLinkRate { link: 0, bps: RATE });
    sim.run(10.0);
    sim.verify_conservation().unwrap();
    assert_eq!(sim.stats.total_packets, 8);

    let (online, jsonl) = sim.into_observers().remove(0);
    assert!(online.is_clean(), "{}", online.summary());
    let (events, skipped) = parse_trace(&String::from_utf8(jsonl.into_inner()).unwrap());
    assert_eq!(skipped, 0);
    let mut replayed = InvariantObserver::new();
    for ev in &events {
        replay(&mut replayed, ev);
    }
    assert_eq!(replayed.summary(), online.summary());
}

/// Removing a flow purges its queue behind the offered head, so the link
/// owes nothing for the purged packets. Flow 0 offers 2 Mb/s to a 1 Mb/s
/// link until its removal at 0.5 s purges 62 queued packets; flow 1's one
/// packet at 5 s finds the link idle and empty.
#[test]
fn a_purged_queue_owes_no_start() {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld =
        Hierarchy::builder_with_observer(1e6, move |r| kind.build(r), InvariantObserver::new());
    let root = bld.root();
    let leaves = [
        bld.add_leaf(root, 0.5).unwrap(),
        bld.add_leaf(root, 0.5).unwrap(),
    ];
    let mut sim = Network::single_link(bld.build());
    sim.add_route(
        0,
        CbrSource::new(0, 1000, 2e6, 0.0, 1.0),
        Route::open_loop(leaves[0]),
    );
    sim.add_route(
        1,
        TraceSource::new(1, vec![(5.0, 1000)]),
        Route::open_loop(leaves[1]),
    );
    sim.schedule_command(0.5, SimCommand::RemoveFlow(0));
    sim.run(10.0);
    sim.verify_conservation().unwrap();
    assert_eq!(sim.stats.flow(0).purged_packets, 62);
    assert_eq!(sim.stats.flow(1).packets, 1);
    let inv = sim.observer_of(0);
    assert!(inv.is_clean(), "{}", inv.summary());
}
