//! Epoch-machinery edge cases for `Network::run_parallel`.
//!
//! The conservative-epoch scheme has two boundary conditions worth
//! pinning explicitly rather than leaving to the byte-identity sweep:
//!
//! * a **zero-propagation-delay** inter-shard hop leaves no conservative
//!   lookahead window at all — the run must *fall back* to sequential
//!   execution (and terminate!), not deadlock in zero-width epochs;
//! * a flow **quarantined mid-epoch** whose route continues on a remote
//!   shard: the strike happens on the ingress shard, but the downstream
//!   leaf detachment must reach the other shard as an ordinary
//!   cross-shard `Detach` event and produce the same final state a
//!   sequential run reaches.

use hpfq::core::{Hierarchy, MixedScheduler, NodeId, Packet, SchedulerKind};
use hpfq::obs::EscalationPolicy;
use hpfq::sim::{CbrSource, FallbackReason, Hop, Network, Route, SimCommand, Source, SourceOutput};

const PKT: u32 = 8192;

/// Builds a two-link tandem: flow 0 crosses both links with `prop_delay`
/// between them, one saturating cross flow per link. Returns the network
/// and the tandem flow's hops.
fn two_link_tandem(prop_delay: f64) -> (Network<MixedScheduler>, Vec<Hop>) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler> = Network::new();
    let mut hops = Vec::new();
    for _ in 0..2usize {
        let mut bld = Hierarchy::<MixedScheduler>::builder(10e6, move |r| kind.build(r));
        let root = bld.root();
        let leaf = bld.add_leaf(root, 0.5).unwrap();
        let cross_leaf = bld.add_leaf(root, 0.5).unwrap();
        let link = net.add_link(bld.build());
        hops.push(Hop {
            link,
            leaf,
            buffer_bytes: None,
            prop_delay,
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
    net.add_route(
        0,
        CbrSource::new(0, PKT, 4e6, 0.0, 2.0),
        Route::new(hops.clone()),
    );
    (net, hops)
}

#[test]
fn zero_prop_delay_hop_falls_back_instead_of_deadlocking() {
    // Sequential reference.
    let (mut seq, _) = two_link_tandem(0.0);
    seq.run(4.0);
    seq.verify_conservation().unwrap();

    // Parallel request: links 0 and 1 land on different shards, the
    // tandem route crosses them with zero propagation delay, so the
    // conservative window is empty. The only sound answer is sequential
    // fallback — this call returning at all is half the assertion.
    let (mut par, _) = two_link_tandem(0.0);
    let report = par.run_parallel(4.0, 2);
    assert_eq!(report.fallback, Some(FallbackReason::ZeroLookahead));
    assert_eq!(report.shards, 1);
    par.verify_conservation().unwrap();

    for flow in [0u32, 100, 101] {
        assert_eq!(seq.stats.flow(flow), par.stats.flow(flow), "flow {flow}");
    }
    for link in 0..2 {
        assert_eq!(seq.link_ledger(link), par.link_ledger(link), "link {link}");
    }
    assert!(par.stats.flow(0).packets > 100, "tandem flow actually ran");
}

/// Sends valid CBR packets until `bad_after`, then emits only invalid
/// (zero-length) packets. Those fail `Packet::validate` at admission and
/// strike the flow — no fault injector needed (an injector would force
/// `run_parallel` into sequential fallback, defeating the test).
#[derive(Debug)]
struct SourGrapes {
    flow: u32,
    interval: f64,
    seq: u64,
    bad_after: u64,
    stop: f64,
}

impl SourGrapes {
    fn new(flow: u32, rate_bps: f64, bad_after: u64, stop: f64) -> Self {
        SourGrapes {
            flow,
            interval: f64::from(PKT) * 8.0 / rate_bps,
            seq: 0,
            bad_after,
            stop,
        }
    }
}

impl Source for SourGrapes {
    fn start(&mut self) -> SourceOutput {
        SourceOutput::wake_at(0.0)
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        if now >= self.stop {
            return SourceOutput::none();
        }
        self.seq += 1;
        let id = (u64::from(self.flow) << 40) | self.seq;
        let pkt = if self.seq > self.bad_after {
            // Built by literal: `Packet::new` debug-asserts against zero
            // length, and producing exactly that malformed packet is this
            // source's whole job.
            Packet {
                id,
                flow: self.flow,
                len_bytes: 0,
                birth: now,
                arrival: now,
            }
        } else {
            Packet::new(id, self.flow, PKT, now)
        };
        SourceOutput::packet_and_wake(pkt, now + self.interval)
    }

    fn label(&self) -> String {
        format!("sour-grapes-{}", self.flow)
    }
}

/// Two links, each on its own shard; flow 7 routes across both. Returns
/// the network and flow 7's per-hop leaves.
fn quarantine_scenario() -> (Network<MixedScheduler>, Vec<(usize, NodeId)>) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler> = Network::new();
    let mut hops = Vec::new();
    let mut leaves = Vec::new();
    for _ in 0..2usize {
        let mut bld = Hierarchy::<MixedScheduler>::builder(10e6, move |r| kind.build(r));
        let root = bld.root();
        let leaf = bld.add_leaf(root, 0.4).unwrap();
        let cross_leaf = bld.add_leaf(root, 0.6).unwrap();
        let link = net.add_link(bld.build());
        hops.push(Hop {
            link,
            leaf,
            buffer_bytes: None,
            prop_delay: 0.002,
        });
        leaves.push((link, leaf));
        let flow = 50 + link as u32;
        net.add_route(
            flow,
            CbrSource::new(flow, 1000, 5e6, 0.0, 3.0),
            Route::new(vec![Hop {
                link,
                leaf: cross_leaf,
                buffer_bytes: None,
                prop_delay: 0.0,
            }]),
        );
    }
    // 20 good packets (~0.66 s), then garbage: the third invalid packet
    // trips the standard ladder mid-run, while flow 7 still has packets
    // queued at (and in flight toward) the remote shard's hop.
    net.add_route(
        7,
        SourGrapes::new(7, 2e6, 20, 3.0),
        Route::new(hops.clone()),
    );
    net.set_escalation_policy(EscalationPolicy::standard());
    // Keep some churn in the same window so the quarantine's cross-shard
    // Detach shares epochs with other boundary traffic.
    net.schedule_command(1.5, SimCommand::RemoveFlow(50));
    (net, leaves)
}

#[test]
fn remote_shard_quarantine_detaches_both_hops_and_matches_sequential() {
    let (mut seq, _) = quarantine_scenario();
    seq.run(5.0);
    seq.verify_conservation().unwrap();
    assert!(
        seq.escalation().is_quarantined(7),
        "scenario must quarantine"
    );

    let (mut par, leaves) = quarantine_scenario();
    let report = par.run_parallel(5.0, 2);
    assert_eq!(
        report.fallback, None,
        "standard policy never halts; must shard"
    );
    assert_eq!(report.shards, 2);
    assert!(report.epochs > 0);
    par.verify_conservation().unwrap();

    // The ladder's verdict reached both shards.
    assert!(par.escalation().is_quarantined(7));
    assert_eq!(par.escalation().strikes(7), seq.escalation().strikes(7));
    assert!(!par.is_halted());
    // The flow's leaf is detached at the ingress shard AND the remote one.
    for &(link, leaf) in &leaves {
        assert!(
            par.link_server(link).is_detached(leaf),
            "leaf on link {link} still attached after remote quarantine"
        );
    }
    // Final state is exactly the sequential one.
    for flow in [7u32, 50, 51] {
        assert_eq!(seq.stats.flow(flow), par.stats.flow(flow), "flow {flow}");
    }
    for link in 0..2 {
        assert_eq!(seq.link_ledger(link), par.link_ledger(link), "link {link}");
    }
    // The strikes came from admission-validation drops.
    assert!(
        par.stats.flow(7).fault_drops >= 3,
        "strikes came from drops"
    );
}
