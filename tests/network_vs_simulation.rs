//! The multi-link [`Network`] against the single-link `Simulation` facade
//! it replaced, plus multi-hop conservation and trace-based per-hop delay
//! recovery.
//!
//! The golden test pins the fold: a depth-1 network assembled by hand
//! (`add_link` + `Route::single`) replays, **byte-for-byte**, what the
//! `Simulation` front-end produced at the last commit that had it
//! (66967db) — same merged JSONL trace, same statistics, held here as
//! FNV-1a digests — on a reduced Fig. 3 workload with an outage command
//! and a finite buffer in the mix.

use hpfq::analysis::{path_records_from_trace, per_link_records_from_trace};
use hpfq::core::{Hierarchy, MixedScheduler, NodeId, Packet, SchedulerKind};
use hpfq::obs::jsonl::parse_trace;
use hpfq::obs::{EscalationPolicy, JsonlObserver, Observer, SharedBuf, TraceEvent};
use hpfq::sim::{
    CbrSource, FaultInjector, Hop, Network, PacketTrainSource, PacketVerdict, PeriodicOnOffSource,
    PoissonSource, Route, SimCommand,
};

const LINK: f64 = 45e6;
const PKT: u32 = 8192;

/// Digest of the merged JSONL trace of the `Simulation` run (834 588
/// bytes, 7 632 lines).
const SIMULATION_TRACE_FNV1A: u64 = 0x3c91_c15b_ba62_50ff;
/// Digest of the `Simulation` run's statistics, rendered as the golden
/// test renders them.
const SIMULATION_STATS_FNV1A: u64 = 0x3f1a_c23a_3759_fc7f;

/// A reduced Fig. 3 hierarchy: N-R → {N-2 → {N-1 → {RT-1, BE-1}, PS-6,
/// CS-6}, PS-1, CS-1}. Returns the hierarchy and the five leaves in the
/// order `[rt1, be1, ps1, cs1, ps6]`.
fn fig3ish<O: Observer>(obs: O) -> (Hierarchy<MixedScheduler, O>, Vec<NodeId>) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld =
        Hierarchy::<MixedScheduler, O>::builder_with_observer(LINK, move |r| kind.build(r), obs);
    let root = bld.root();
    let n2 = bld.add_internal(root, 0.5).unwrap();
    let n1 = bld.add_internal(n2, 0.494).unwrap();
    let rt1 = bld.add_leaf(n1, 0.81).unwrap();
    let be1 = bld.add_leaf(n1, 0.19).unwrap();
    let ps1 = bld.add_leaf(root, 0.05).unwrap();
    let cs1 = bld.add_leaf(root, 0.05).unwrap();
    let ps6 = bld.add_leaf(n2, 0.0506).unwrap();
    (bld.build(), vec![rt1, be1, ps1, cs1, ps6])
}

/// The scenario's sources as `(flow, source, buffer, delivery_delay)`
/// attachment calls against a generic attach closure.
fn attach_sources(
    mut attach: impl FnMut(u32, Box<dyn hpfq::sim::Source>, usize, Option<u64>, f64),
) {
    // leaf indices into the `fig3ish` leaf vec.
    attach(
        1,
        Box::new(PeriodicOnOffSource::new(
            1,
            PKT,
            9e6,
            0.025,
            0.100,
            0.200,
            f64::INFINITY,
        )),
        0,
        None,
        0.0,
    );
    // BE-1 floods through a finite buffer so drop accounting is exercised.
    attach(
        2,
        Box::new(CbrSource::new(2, PKT, 12e6, 0.0, f64::INFINITY)),
        1,
        Some(3 * u64::from(PKT)),
        0.0,
    );
    attach(
        11,
        Box::new(PoissonSource::new(11, PKT, 2.25e6, 0.0, f64::INFINITY, 7)),
        2,
        None,
        0.001,
    );
    attach(
        31,
        Box::new(PacketTrainSource::new(
            31,
            PKT,
            7,
            f64::from(PKT) * 8.0 / LINK,
            0.193,
            0.05,
            f64::INFINITY,
        )),
        3,
        None,
        0.0,
    );
    attach(
        16,
        Box::new(PoissonSource::new(16, PKT, 1.14e6, 0.0, f64::INFINITY, 9)),
        4,
        None,
        0.0,
    );
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn depth1_network_replays_simulation_byte_for_byte() {
    // A hand-assembled one-link Network.
    let buf = SharedBuf::new();
    let (h, leaves) = fig3ish(JsonlObserver::new(buf.clone()));
    let mut net: Network<MixedScheduler, _> = Network::new();
    let link = net.add_link(h);
    assert_eq!(link, 0);
    net.stats.trace_flow(1);
    attach_sources(|flow, src, leaf, buffer_bytes, delivery_delay| {
        net.add_route(
            flow,
            src,
            Route::single(leaves[leaf], buffer_bytes, delivery_delay),
        );
    });
    // A 30 ms outage mid-run exercises the epoch/credit machinery.
    net.schedule_command(0.9, SimCommand::SetLinkRate(0.0));
    net.schedule_command(0.93, SimCommand::SetLinkRate(LINK));
    net.run(2.0);
    net.verify_conservation().unwrap();

    // Statistics agree exactly with the `Simulation` run: the per-packet
    // trace of flow 1, the five flows' aggregates and the link ledger as
    // one digest of their `Debug` rendering (`f64` prints round-trip).
    assert_eq!(net.stats.total_bytes, 4_759_552);
    assert_eq!(net.stats.total_packets, 581);
    assert_eq!(net.stats.last_departure, 1.9989326222222226);
    let flows: Vec<_> = [1, 2, 11, 31, 16]
        .iter()
        .map(|&f| net.stats.flow(f))
        .collect();
    let stats = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}",
        net.stats.total_bytes,
        net.stats.total_packets,
        net.stats.last_departure,
        net.stats.trace(1),
        flows,
        net.link_ledger(0)
    );
    assert_eq!(stats.len(), 9107);
    assert_eq!(fnv1a(stats.as_bytes()), SIMULATION_STATS_FNV1A);

    // The merged JSONL trace is byte-identical and non-trivial.
    let a = buf.contents();
    assert!(a.lines().count() > 1000, "trace too small to be meaningful");
    assert_eq!(
        (a.len(), fnv1a(a.as_bytes())),
        (834_588, SIMULATION_TRACE_FNV1A),
        "depth-1 Network diverged from Simulation"
    );
    let (events, skipped) = parse_trace(&a);
    assert_eq!(skipped, 0);
    // Drops happened (finite BE-1 buffer) and the outage faults are there.
    assert!(events
        .iter()
        .any(|e| matches!(e, TraceEvent::Drop(d) if d.pkt.flow == 2)));
    assert!(events.iter().any(|e| matches!(e, TraceEvent::Fault(_))));
}

/// A 3-link tandem for flow 0 with single-hop cross traffic on every
/// link. Middle link gets a tight downstream buffer, so packets already
/// accepted at ingress are purged mid-path — the case the per-link
/// ledgers must keep balanced.
fn tandem() -> (Network<MixedScheduler>, u32) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler> = Network::new();
    let mut hops = Vec::new();
    let mut cross = Vec::new();
    for li in 0..3usize {
        let mut bld = Hierarchy::<MixedScheduler>::builder(10e6, move |r| kind.build(r));
        let root = bld.root();
        // The middle link undersizes the tandem flow's share (2 Mbit/s
        // guaranteed vs 4 Mbit/s arriving) so its tight buffer overflows.
        let phi = if li == 1 { 0.2 } else { 0.5 };
        let tandem_leaf = bld.add_leaf(root, phi).unwrap();
        let cross_leaf = bld.add_leaf(root, 1.0 - phi).unwrap();
        let link = net.add_link(bld.build());
        assert_eq!(link, li);
        hops.push(Hop {
            link,
            leaf: tandem_leaf,
            // The middle hop's buffer is barely two packets deep.
            buffer_bytes: if li == 1 {
                Some(2 * u64::from(PKT))
            } else {
                None
            },
            prop_delay: 0.002,
        });
        cross.push((link, cross_leaf));
    }
    net.add_route(0, CbrSource::new(0, PKT, 4e6, 0.0, 5.0), Route::new(hops));
    for (link, leaf) in cross {
        let flow = 100 + link as u32;
        net.add_route(
            flow,
            // Cross traffic saturates each link so the tandem flow queues.
            CbrSource::new(flow, PKT, 8e6, 0.0, 5.0),
            Route::new(vec![Hop {
                link,
                leaf,
                buffer_bytes: Some(16 * u64::from(PKT)),
                prop_delay: 0.0,
            }]),
        );
    }
    (net, 0)
}

#[test]
fn multi_hop_tandem_conserves_bytes_per_link() {
    let (mut net, flow) = tandem();
    net.run(8.0);
    net.verify_conservation().unwrap();
    // The tandem flow made it through all three hops.
    assert!(net.stats.flow(flow).packets > 100);
    // The middle link's tight buffer dropped mid-path packets; those are
    // stats-level purges (the packet was accepted at ingress but never
    // entered link 1's hierarchy, so link 1's ledger is untouched).
    assert!(
        net.stats.flow(flow).purged_bytes > 0,
        "{:?}",
        net.stats.flow(flow)
    );
    // Every link's ledger still balances (verify_conservation checked
    // in == out + purged + queued; spot-check out > 0 too).
    for link in 0..3 {
        let l = net.link_ledger(link);
        assert!(l.bytes_out > 0, "link {link} never transmitted");
        assert!(l.packets_in >= l.packets_out);
    }
    // Churn mid-path: removing the tandem flow purges its queues at every
    // hop and conservation still holds.
    let (mut net, flow) = tandem();
    net.schedule_command(2.0, SimCommand::RemoveFlow(flow));
    net.run(8.0);
    net.verify_conservation().unwrap();
    assert!(net.stats.flow(flow).purged_bytes > 0);
}

#[test]
fn merged_trace_recovers_per_hop_and_end_to_end_delay() {
    let kind = SchedulerKind::Wf2qPlus;
    let buf = SharedBuf::new();
    let mut net: Network<MixedScheduler, JsonlObserver<SharedBuf>> = Network::new();
    let mut hops = Vec::new();
    let prop = [0.003, 0.001, 0.0];
    for (li, &hop_prop) in prop.iter().enumerate() {
        let mut bld = Hierarchy::<MixedScheduler, _>::builder_with_observer(
            10e6,
            move |r| kind.build(r),
            JsonlObserver::new(buf.clone()),
        );
        let root = bld.root();
        let leaf = bld.add_leaf(root, 0.5).unwrap();
        let cross_leaf = bld.add_leaf(root, 0.5).unwrap();
        let link = net.add_link(bld.build());
        hops.push(Hop {
            link,
            leaf,
            buffer_bytes: None,
            prop_delay: hop_prop,
        });
        net.add_route(
            100 + li as u32,
            CbrSource::new(100 + li as u32, PKT, 6e6, 0.0, 2.0),
            Route::new(vec![Hop {
                link,
                leaf: cross_leaf,
                buffer_bytes: None,
                prop_delay: 0.0,
            }]),
        );
    }
    net.stats.trace_flow(0);
    net.add_route(0, CbrSource::new(0, PKT, 3e6, 0.0, 2.0), Route::new(hops));
    net.run(4.0);
    net.verify_conservation().unwrap();

    let (events, skipped) = parse_trace(&buf.contents());
    assert_eq!(skipped, 0);
    let (by_link, anomalies) = per_link_records_from_trace(&events);
    assert_eq!(anomalies.unmatched_ends, 0);
    assert_eq!(by_link.len(), 3, "all three links appear in one trace");

    let (paths, _) = path_records_from_trace(&events);
    let tandem_paths: Vec<_> = paths.iter().filter(|p| p.flow == 0).collect();
    assert!(tandem_paths.len() > 80, "{} paths", tandem_paths.len());
    for p in &tandem_paths {
        assert_eq!(
            p.hops.iter().map(|&(l, _)| l).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "traversal order"
        );
        // End-to-end = hop delays + inter-hop propagation (final-hop
        // propagation is delivery, outside the trace).
        let resid = p.end_to_end()
            - (p.hop_delay(0) + p.hop_delay(1) + p.hop_delay(2))
            - (prop[0] + prop[1]);
        assert!(resid.abs() < 1e-9, "residual {resid}");
        // Each hop's delay includes at least its transmission time.
        for i in 0..3 {
            assert!(p.hop_delay(i) >= f64::from(PKT) * 8.0 / 10e6 - 1e-9);
        }
    }
    // The network's own service records (written at the last hop) agree
    // with the trace's last-hop view.
    let recs = net.stats.trace(0);
    assert_eq!(recs.len(), tandem_paths.len());
    for (rec, path) in recs.iter().zip(&tandem_paths) {
        assert_eq!(rec.id, path.id);
        assert!((rec.end - path.hops[2].1.end).abs() < 1e-12);
    }
}

/// Corrupts every packet of one flow into an invalid (zero-length) packet
/// at network ingress.
struct CorruptFlow(u32);

impl FaultInjector for CorruptFlow {
    fn on_packet(&mut self, _now: f64, pkt: &mut Packet) -> PacketVerdict {
        if pkt.flow == self.0 {
            pkt.len_bytes = 0;
            PacketVerdict::Corrupted
        } else {
            PacketVerdict::Pass
        }
    }
}

#[test]
fn faults_escalate_to_quarantine_at_every_hop() {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler> = Network::new();
    let mut hops = Vec::new();
    for _ in 0..2 {
        let mut bld = Hierarchy::<MixedScheduler>::builder(10e6, move |r| kind.build(r));
        let root = bld.root();
        let leaf = bld.add_leaf(root, 0.6).unwrap();
        let other = bld.add_leaf(root, 0.4).unwrap();
        let link = net.add_link(bld.build());
        hops.push(Hop {
            link,
            leaf,
            buffer_bytes: None,
            prop_delay: 0.001,
        });
        net.add_route(
            50 + link as u32,
            CbrSource::new(50 + link as u32, 1000, 5e6, 0.0, 3.0),
            Route::new(vec![Hop {
                link,
                leaf: other,
                buffer_bytes: None,
                prop_delay: 0.0,
            }]),
        );
    }
    net.add_route(
        7,
        CbrSource::new(7, 1000, 2e6, 0.0, 3.0),
        Route::new(hops.clone()),
    );
    net.set_fault_injector(CorruptFlow(7));
    net.set_escalation_policy(EscalationPolicy::standard());
    net.run(5.0);
    assert!(net.escalation().is_quarantined(7));
    assert!(!net.is_halted(), "standard policy quarantines, not halts");
    // The quarantined flow's leaves are detached at BOTH hops.
    for hop in &hops {
        assert!(net.link_server(hop.link).is_detached(hop.leaf));
    }
    // Invalid packets never made it to the byte ledger as accepted, and
    // the network still balances.
    net.verify_conservation().unwrap();
    assert_eq!(net.stats.flow(7).accepted_packets, 0);
    // Healthy cross traffic was unaffected.
    for link in 0..2u32 {
        assert!(net.stats.flow(50 + link).packets > 500);
    }
}

/// A hop with no propagation delay hands each finished packet to the next
/// link at the instant it leaves the first: two links in tandem joined
/// that way, each saturated by its own cross flow, run to the horizon and
/// conserve bytes at every link.
#[test]
fn zero_propagation_delay_between_hops_runs_and_conserves_bytes() {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler> = Network::new();
    let mut hops = Vec::new();
    for _ in 0..2 {
        let mut bld = Hierarchy::<MixedScheduler>::builder(10e6, move |r| kind.build(r));
        let root = bld.root();
        let leaf = bld.add_leaf(root, 0.5).unwrap();
        let cross_leaf = bld.add_leaf(root, 0.5).unwrap();
        let link = net.add_link(bld.build());
        hops.push(Hop {
            link,
            leaf,
            buffer_bytes: None,
            prop_delay: 0.0,
        });
        let flow = 100 + link as u32;
        net.add_route(
            flow,
            CbrSource::new(flow, PKT, 8e6, 0.0, 2.0),
            Route::new(vec![Hop {
                link,
                leaf: cross_leaf,
                buffer_bytes: None,
                prop_delay: 0.0,
            }]),
        );
    }
    net.add_route(0, CbrSource::new(0, PKT, 4e6, 0.0, 2.0), Route::new(hops));
    net.run(4.0);
    net.verify_conservation().unwrap();
    assert!(net.stats.flow(0).packets > 100, "the tandem flow ran");
    for link in 0..2 {
        let l = net.link_ledger(link);
        assert!(l.packets_out > 0 && l.packets_in == l.packets_out, "{l:?}");
    }
}
