//! Single-link [`Network`](crate::Network) unit tests: one hierarchy, one
//! link, driven through [`Network::single_link`](crate::Network::single_link).

mod tests {
    use crate::network::{FaultInjector, Network, PacketVerdict, Route, SimCommand};
    use crate::source::{CbrSource, GreedyLbSource, Source, SourceOutput};
    use hpfq_core::{Hierarchy, MixedScheduler, Packet, SchedulerKind};
    use hpfq_obs::EscalationPolicy;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn server(rate: f64) -> Hierarchy<MixedScheduler> {
        Hierarchy::builder(rate, |r| SchedulerKind::Wf2qPlus.build(r)).build()
    }

    #[test]
    fn source_slot_is_seventy_two_bytes() {
        // The boxed source, a route with its one hop inline, the flow id,
        // the slot of the flow's statistics and three flags: what a wake,
        // an arrival and a completion read of a flow sits in one place,
        // and reaches the flow's counters without a lookup.
        assert_eq!(std::mem::size_of::<Route>(), 40);
        assert_eq!(std::mem::size_of::<crate::network::SourceSlot>(), 72);
    }

    /// Two equal CBR flows at half the link rate each: no queueing beyond
    /// one packet, all traffic delivered.
    #[test]
    fn two_cbr_flows_fit() {
        let mut h = server(16_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Network::single_link(h);
        sim.add_route(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 100.0),
            Route::open_loop(a),
        );
        sim.add_route(
            1,
            CbrSource::new(1, 1000, 8000.0, 0.0, 100.0),
            Route::open_loop(b),
        );
        sim.run(10.0);
        let fa = sim.stats.flow(0);
        let fb = sim.stats.flow(1);
        assert!(fa.packets >= 9 && fb.packets >= 9, "{fa:?} {fb:?}");
        // Each packet takes 0.5 s on the wire; worst-case head-of-line wait
        // is one competing packet.
        assert!(fa.delay_max <= 1.0 + 1e-9, "{}", fa.delay_max);
        assert!(fb.delay_max <= 1.0 + 1e-9);
        sim.verify_conservation().unwrap();
    }

    /// A greedy leaky-bucket flow against a backlogged competitor respects
    /// the WF²Q+ delay bound σ/r_i + L_max/r (Theorem 4(3)).
    #[test]
    fn delay_bound_holds_depth_one() {
        let rate = 80_000.0;
        let mut h = server(rate);
        let root = h.root();
        let a = h.add_leaf(root, 0.25).unwrap(); // r_a = 20 kbit/s
        let b = h.add_leaf(root, 0.75).unwrap();
        let mut sim = Network::single_link(h);
        // sigma = 5 packets of 1000 bytes, rho = r_a.
        sim.add_route(
            0,
            GreedyLbSource::new(0, 1000, 5000, 20_000.0, 0.0, 50.0),
            Route::open_loop(a),
        );
        // Competitor saturates its share.
        sim.add_route(
            1,
            CbrSource::new(1, 1000, 70_000.0, 0.0, 50.0),
            Route::open_loop(b),
        );
        sim.stats.trace_flow(0);
        sim.run(60.0);
        let sigma_bits = 5000.0 * 8.0;
        let bound = sigma_bits / 20_000.0 + 8000.0 / rate;
        for rec in sim.stats.trace(0) {
            assert!(
                rec.delay() <= bound + 1e-9,
                "packet {} delayed {} > bound {}",
                rec.id,
                rec.delay(),
                bound
            );
        }
        assert!(sim.stats.flow(0).packets > 100);
        sim.verify_conservation().unwrap();
    }

    /// Drop-tail buffers drop exactly the overflow.
    #[test]
    fn buffer_drops() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Network::single_link(h);
        // Burst of 10 packets into a 3-packet buffer; service drains one
        // per second.
        sim.add_route(
            0,
            GreedyLbSource::new(0, 1000, 10_000, 1.0, 0.0, 0.5),
            Route::single(a, Some(3000), 0.0),
        );
        sim.run(100.0);
        let f = sim.stats.flow(0);
        assert_eq!(f.packets, 3);
        assert_eq!(f.drops, 7);
        sim.verify_conservation().unwrap();
    }

    /// Open-loop traffic takes no event-arena slot at all: the only queued
    /// events are the wakes, which are timers held in the heap entry
    /// itself, so a long run leaves the arena empty however many packets
    /// it serves.
    #[test]
    fn event_arena_stays_bounded() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Network::single_link(h);
        sim.add_route(
            0,
            CbrSource::new(0, 500, 6000.0, 0.0, 1e9),
            Route::open_loop(a),
        );
        sim.add_route(
            1,
            CbrSource::new(1, 500, 6000.0, 0.0, 1e9),
            Route::open_loop(b),
        );
        sim.run(500.0);
        // ~1500 packets served; one wake per live source is outstanding:
        // the link's completion is held in the link, and open-loop sources
        // ask for no `Deliver`.
        assert!(sim.stats.total_packets > 900, "{}", sim.stats.total_packets);
        assert_eq!(
            sim.event_arena_len(),
            0,
            "wakes took event-arena slots over {} packets",
            sim.stats.total_packets
        );
        assert!(sim.outstanding_events() <= 2);
        sim.verify_conservation().unwrap();
    }

    /// Work conservation: link is never idle while traffic is queued —
    /// verified by total throughput equal to capacity over a saturated
    /// window.
    #[test]
    fn work_conserving_throughput() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Network::single_link(h);
        // Both flows offer 1.5x their share: link saturated.
        sim.add_route(
            0,
            CbrSource::new(0, 500, 6000.0, 0.0, 1000.0),
            Route::open_loop(a),
        );
        sim.add_route(
            1,
            CbrSource::new(1, 500, 6000.0, 0.0, 1000.0),
            Route::open_loop(b),
        );
        sim.run(100.0);
        // 100 s at 8 kbit/s = 100_000 bytes, minus sub-packet slack.
        assert!(
            sim.stats.total_bytes >= 99_000,
            "{} bytes",
            sim.stats.total_bytes
        );
        // Fair split.
        let ra = sim.stats.flow(0).bytes as f64;
        let rb = sim.stats.flow(1).bytes as f64;
        assert!((ra / rb - 1.0).abs() < 0.02, "{ra} vs {rb}");
        sim.verify_conservation().unwrap();
    }

    /// A link outage suspends the in-flight packet and resumes it with its
    /// already-sent bits credited; every offered packet is still served.
    #[test]
    fn outage_suspends_and_resumes_inflight() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Network::single_link(h);
        // 1000-byte packets at exactly link rate: one per second, t=0..9.
        sim.add_route(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 10.0),
            Route::open_loop(a),
        );
        // Outage from 2.5 s to 4.5 s: the packet in service (started at
        // 2.0) is half-sent; it must finish 0.5 s after recovery.
        sim.schedule_command(2.5, SimCommand::SetLinkRate(0.0));
        sim.schedule_command(4.5, SimCommand::SetLinkRate(8000.0));
        sim.run(30.0);
        assert_eq!(sim.stats.flow(0).packets, 10);
        // 10 s of work + 2 s outage.
        assert!(
            (sim.stats.last_departure - 12.0).abs() < 1e-9,
            "{}",
            sim.stats.last_departure
        );
        assert!(sim.command_errors.is_empty(), "{:?}", sim.command_errors);
        sim.verify_conservation().unwrap();
    }

    /// A mid-transmission rate change rescales the in-flight packet's
    /// completion: the link's one pending completion is overwritten.
    #[test]
    fn rate_change_mid_packet_rescales_completion() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Network::single_link(h);
        // One isolated packet at t=0 (1 s at 8 kbit/s).
        sim.add_route(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 0.5),
            Route::open_loop(a),
        );
        // At 0.5 s (half sent) the link halves: remaining 4000 bits at
        // 4 kbit/s take 1 s more -> completes at 1.5 s.
        sim.schedule_command(0.5, SimCommand::SetLinkRate(4_000.0));
        sim.run(10.0);
        assert_eq!(sim.stats.flow(0).packets, 1);
        assert!(
            (sim.stats.last_departure - 1.5).abs() < 1e-9,
            "{}",
            sim.stats.last_departure
        );
        sim.verify_conservation().unwrap();
    }

    /// Flow churn via commands: a flow joins mid-run, competes, and leaves
    /// with its backlog purged and accounted.
    #[test]
    fn churn_commands_add_and_remove_flows() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Network::single_link(h);
        // Flow 0 saturates the link alone.
        sim.add_route(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 30.0),
            Route::open_loop(a),
        );
        // Flow 1 joins at t=5 offering its full share, leaves at t=15
        // while backlogged (it offered 8 kbit/s but was served 4 kbit/s).
        sim.schedule_command(
            5.0,
            SimCommand::AddFlow {
                parent: root,
                phi: 0.5,
                flow: 1,
                source: Box::new(CbrSource::new(1, 1000, 8000.0, 5.0, 15.0)),
                buffer_bytes: None,
                delivery_delay: 0.0,
            },
        );
        sim.schedule_command(15.0, SimCommand::RemoveFlow(1));
        sim.run(40.0);
        assert!(sim.command_errors.is_empty(), "{:?}", sim.command_errors);
        let f1 = sim.stats.flow(1);
        assert!(f1.packets > 0, "joined flow was never served");
        assert!(
            f1.purged_packets > 0,
            "backlogged leaver should have purged packets: {f1:?}"
        );
        // Flow 0 is whole: everything it offered was eventually served.
        let f0 = sim.stats.flow(0);
        assert_eq!(f0.offered_packets, f0.packets);
        sim.verify_conservation().unwrap();
    }

    /// One packet a second, stamped alternately with `own` and `other`;
    /// counts its deliveries in `delivered`.
    struct TwoFaced {
        own: u32,
        other: u32,
        sent: u64,
        until: f64,
        delivered: Arc<AtomicU64>,
    }

    impl Source for TwoFaced {
        fn start(&mut self) -> SourceOutput {
            SourceOutput::wake_at(0.0)
        }

        fn on_wake(&mut self, now: f64) -> SourceOutput {
            if now >= self.until {
                return SourceOutput::none();
            }
            let flow = if self.sent.is_multiple_of(2) {
                self.own
            } else {
                self.other
            };
            self.sent += 1;
            let id = u64::from(self.own) << 32 | self.sent;
            SourceOutput::packet_and_wake(Packet::new(id, flow, 500, now), now + 1.0)
        }

        fn on_delivered(&mut self, _now: f64, _pkt: &Packet) -> SourceOutput {
            self.delivered.fetch_add(1, Ordering::Relaxed);
            SourceOutput::none()
        }
    }

    /// "Flow ids are the source's responsibility": a source may stamp a
    /// packet with an id it was not registered under. Statistics key on
    /// the packet's id, not the slot's — whatever slot hint the records go
    /// through — so both ids are accounted and the books balance, whether
    /// the foreign id is nobody's or another source's.
    #[test]
    fn packets_stamped_with_a_foreign_flow_id_are_accounted_under_it() {
        for foreign in [99, 2] {
            let mut h = server(80_000.0);
            let root = h.root();
            let a = h.add_leaf(root, 0.5).unwrap();
            let b = h.add_leaf(root, 0.5).unwrap();
            let mut sim = Network::single_link(h);
            let two_faced = TwoFaced {
                own: 1,
                other: foreign,
                sent: 0,
                until: 10.0,
                delivered: Arc::default(),
            };
            sim.add_route(1, two_faced, Route::open_loop(a));
            sim.add_route(
                2,
                CbrSource::new(2, 500, 4000.0, 0.25, 10.0),
                Route::open_loop(b),
            );
            sim.run(5.5);
            sim.verify_conservation().unwrap();
            sim.run(30.0);
            let cbr = if foreign == 2 { 10 } else { 0 };
            let own = sim.stats.flow(1);
            assert_eq!((own.offered_packets, own.packets, own.bytes), (5, 5, 2500));
            let other = sim.stats.flow(foreign);
            assert_eq!(
                (other.offered_packets, other.accepted_packets, other.packets),
                (5 + cbr, 5 + cbr, 5 + cbr),
                "foreign id {foreign}"
            );
            let mut flows = vec![1, 2, foreign];
            flows.dedup();
            assert_eq!(sim.stats.flows(), flows);
            assert_eq!(sim.stats.total_packets, 20);
            sim.verify_conservation().unwrap();
        }
    }

    /// Two routes registered under one flow id: the later registration
    /// owns the id, so it is the later source that hears of every delivery
    /// — its own packets' and the earlier source's.
    #[test]
    fn later_of_two_routes_under_one_flow_id_receives_the_deliveries() {
        let mut h = server(80_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Network::single_link(h);
        let (first, second) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        for (own, leaf, delivered) in [(7, a, &first), (8, b, &second)] {
            let source = TwoFaced {
                own,
                other: own,
                sent: 0,
                until: 4.0,
                delivered: Arc::clone(delivered),
            };
            // Registered under 5, whatever it stamps.
            sim.add_route(5, source, Route::single(leaf, None, 0.01));
        }
        // A packet stamped 5 is routed by the later registration.
        let stamped = TwoFaced {
            own: 5,
            other: 5,
            sent: 0,
            until: 4.0,
            delivered: Arc::default(),
        };
        sim.add_route(6, stamped, Route::open_loop(a));
        sim.run(20.0);
        // Flows 7 and 8 have no owner: served, never delivered.
        assert_eq!(sim.stats.flow(7).packets + sim.stats.flow(8).packets, 8);
        assert_eq!(sim.stats.flow(5).packets, 4);
        assert_eq!(
            (
                first.load(Ordering::Relaxed),
                second.load(Ordering::Relaxed)
            ),
            (0, 4)
        );
        sim.verify_conservation().unwrap();
    }

    /// An injector that corrupts every packet of one flow in flight.
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

    /// Corrupted packets strike their flow; at the third strike the flow is
    /// quarantined while the healthy flow keeps its service. Nothing
    /// panics and conservation holds throughout.
    #[test]
    fn corrupting_flow_is_quarantined_after_three_strikes() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 0.5).unwrap();
        let b = h.add_leaf(root, 0.5).unwrap();
        let mut sim = Network::single_link(h);
        sim.add_route(
            0,
            CbrSource::new(0, 1000, 6000.0, 0.0, 20.0),
            Route::open_loop(a),
        );
        sim.add_route(
            1,
            CbrSource::new(1, 1000, 6000.0, 0.0, 20.0),
            Route::open_loop(b),
        );
        sim.set_fault_injector(CorruptFlow(1));
        sim.set_escalation_policy(EscalationPolicy::standard());
        sim.run(30.0);
        assert!(sim.escalation().is_quarantined(1));
        assert!(!sim.is_halted());
        let f1 = sim.stats.flow(1);
        assert_eq!(f1.packets, 0, "no corrupted packet may be served");
        assert_eq!(f1.fault_drops, 3, "struck out after three invalid packets");
        let f0 = sim.stats.flow(0);
        assert_eq!(f0.offered_packets, f0.packets);
        sim.verify_conservation().unwrap();
    }

    /// Under the strict policy a single invalid packet halts the run —
    /// cleanly, with accounting still balanced.
    #[test]
    fn strict_policy_halts_on_first_invalid_packet() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Network::single_link(h);
        sim.add_route(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 20.0),
            Route::open_loop(a),
        );
        sim.set_fault_injector(CorruptFlow(0));
        sim.set_escalation_policy(EscalationPolicy::strict());
        sim.run(30.0);
        assert!(sim.is_halted());
        assert_eq!(sim.stats.flow(0).fault_drops, 1);
        sim.verify_conservation().unwrap();
    }

    /// An injector dropping every other packet of every flow.
    struct DropAlternate(u64);

    impl FaultInjector for DropAlternate {
        fn on_packet(&mut self, _now: f64, _pkt: &mut Packet) -> PacketVerdict {
            self.0 += 1;
            if self.0.is_multiple_of(2) {
                PacketVerdict::Drop
            } else {
                PacketVerdict::Pass
            }
        }
    }

    /// Injected drops are accounted separately from buffer drops and keep
    /// the books balanced.
    #[test]
    fn injected_drops_are_accounted() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Network::single_link(h);
        sim.add_route(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 10.0),
            Route::open_loop(a),
        );
        sim.set_fault_injector(DropAlternate(0));
        sim.run(30.0);
        let f = sim.stats.flow(0);
        assert_eq!(f.offered_packets, 10);
        assert_eq!(f.fault_drops, 5);
        assert_eq!(f.packets, 5);
        assert_eq!(f.drops, 0);
        sim.verify_conservation().unwrap();
    }

    /// A rate change landing at the exact instant the in-flight packet
    /// completes: the command fires first (its tie-break class is lower),
    /// finds no bits left and re-times the completion to the same instant
    /// — which must then fire exactly once.
    #[test]
    fn rate_change_at_the_completion_instant_completes_once() {
        let mut h = server(8_000.0);
        let root = h.root();
        let a = h.add_leaf(root, 1.0).unwrap();
        let mut sim = Network::single_link(h);
        sim.stats.trace_flow(0);
        // Two 1000-byte packets, at t=0 and t=1; each takes 1 s at 8 kbit/s.
        sim.add_route(
            0,
            CbrSource::new(0, 1000, 8000.0, 0.0, 1.5),
            Route::open_loop(a),
        );
        sim.schedule_command(1.0, SimCommand::SetLinkRate(4_000.0));
        sim.run(10.0);
        let ends: Vec<f64> = sim.stats.trace(0).iter().map(|r| r.end).collect();
        // The second packet is sent wholly at the halved rate.
        assert_eq!(ends, vec![1.0, 3.0]);
        assert_eq!(sim.outstanding_events(), 0);
        sim.verify_conservation().unwrap();
    }

    /// A run stopped during an outage holds a suspended transmission — bits
    /// credited, no completion pending — and no queued event stands in for
    /// it; continued from there it finishes exactly as a run straight
    /// through does. (The name dates from when the stop was a snapshot and
    /// the continuation a restore into a fresh network.)
    #[test]
    fn snapshot_during_an_outage_resumes_the_suspended_packet() {
        let build = || {
            let mut h = server(8_000.0);
            let root = h.root();
            let a = h.add_leaf(root, 1.0).unwrap();
            let mut sim = Network::single_link(h);
            sim.add_route(
                0,
                CbrSource::new(0, 1000, 8000.0, 0.0, 10.0),
                Route::open_loop(a),
            );
            sim.schedule_command(2.5, SimCommand::SetLinkRate(0.0));
            sim.schedule_command(4.5, SimCommand::SetLinkRate(8000.0));
            sim
        };
        let mut sim = build();
        sim.run(3.0);
        // Mid-outage: the source's wake and the recovery command.
        assert_eq!(sim.outstanding_events(), 2);
        assert_eq!(
            sim.link_ledger(0).packets_out,
            2,
            "third packet still on the wire"
        );

        let mut straight = build();
        for sim in [&mut sim, &mut straight] {
            sim.run(30.0);
            assert_eq!(sim.stats.flow(0).packets, 10);
            assert_eq!(sim.stats.last_departure, 12.0);
            assert_eq!(sim.outstanding_events(), 0);
            sim.verify_conservation().unwrap();
        }
        assert_eq!(sim.stats.flow(0), straight.stats.flow(0));
        assert_eq!(sim.link_ledger(0), straight.link_ledger(0));
    }
}
