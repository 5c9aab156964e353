//! Differential oracle for delivery elision.
//!
//! A source whose [`Source::wants_delivery`] is `false` gets no `Deliver`
//! event scheduled for its packets. That is only sound if the elided event
//! was a no-op: the same scenario with every open-loop source wrapped in a
//! pass-through that keeps the trait's default (`true`) — so every
//! delivery *is* scheduled and fired — must leave byte-identical merged
//! traces, statistics, service records and ledgers, run straight through
//! or stopped and continued. And for a source that does want its
//! deliveries, removal must still cut them off.
//!
//! The same oracle covers how a source is held: a network stores a
//! [`CbrSource`] or [`PoissonSource`] by value and any other source boxed,
//! and the scenario with every built-in source attached as a
//! `Box<dyn Source>` must leave what it leaves with them attached directly.
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use std::cell::Cell;
use std::rc::Rc;

use hpfq::core::{Hierarchy, MixedScheduler, Packet, SchedulerKind};
use hpfq::obs::jsonl::merge_traces;
use hpfq::obs::JsonlObserver;
use hpfq::sim::{
    CbrSource, FlowStats, Hop, LinkLedger, Network, PoissonSource, Route, ServiceRecord,
    SimCommand, Source, SourceOutput,
};

const PKT: u32 = 8192;
const RATE: f64 = 10e6;
/// Propagation between hops.
const PROP: f64 = 0.002;
/// Propagation from a multi-hop route's last hop to its destination: long
/// enough that some delivery is always in flight.
const LAST_PROP: f64 = 0.05;
const HORIZON: f64 = 6.0;

type Obs = JsonlObserver<Vec<u8>>;
type Net = Network<MixedScheduler, Obs>;

/// Forwards everything to `S` but keeps the default `wants_delivery`.
struct Loud<S>(S);

impl<S: Source> Source for Loud<S> {
    fn start(&mut self) -> SourceOutput {
        self.0.start()
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        self.0.on_wake(now)
    }

    fn label(&self) -> String {
        self.0.label()
    }
}

/// Counts its deliveries and remembers the latest one's time.
struct Counting {
    inner: CbrSource,
    probe: Rc<Cell<(u64, f64)>>,
}

impl Source for Counting {
    fn start(&mut self) -> SourceOutput {
        self.inner.start()
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        self.inner.on_wake(now)
    }

    fn on_delivered(&mut self, now: f64, _pkt: &Packet) -> SourceOutput {
        let (delivered, latest) = self.probe.get();
        self.probe.set((delivered + 1, latest.max(now)));
        SourceOutput::none()
    }
}

/// One of the scenario's sources, as built: a network holds either kind
/// by value when it is attached directly.
enum Builtin {
    Cbr(CbrSource),
    Poisson(PoissonSource),
}

impl Builtin {
    /// Attaches the source itself, by value.
    fn attach(self, net: &mut Net, flow: u32, route: Route) {
        match self {
            Builtin::Cbr(s) => net.add_route(flow, s, route),
            Builtin::Poisson(s) => net.add_route(flow, s, route),
        };
    }

    fn boxed(self) -> Box<dyn Source> {
        match self {
            Builtin::Cbr(s) => Box::new(s),
            Builtin::Poisson(s) => Box::new(s),
        }
    }
}

/// How a scenario attaches (and possibly wraps) each of its sources.
type Attach<'a> = dyn FnMut(&mut Net, u32, Builtin, Route) + 'a;

/// Three links in tandem. Flow 0 crosses all three, flow 1 crosses links
/// 0 → 1, and each link carries Poisson or CBR cross traffic. An outage and
/// two removals are in the mix.
fn tandem(attach: &mut Attach) -> Net {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Net = Network::new();
    let mut long = Vec::new();
    let mut short = Vec::new();
    let mut cross = Vec::new();
    for li in 0..3usize {
        let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
            RATE,
            move |r| kind.build(r),
            JsonlObserver::new(Vec::new()),
        );
        let root = bld.root();
        let hop = |leaf, prop_delay| Hop {
            link: li,
            leaf,
            buffer_bytes: Some(8 * u64::from(PKT)),
            prop_delay,
        };
        let last = |at: usize| if li == at { LAST_PROP } else { PROP };
        long.push(hop(bld.add_leaf(root, 0.3).unwrap(), last(2)));
        if li < 2 {
            short.push(hop(bld.add_leaf(root, 0.2).unwrap(), last(1)));
        }
        cross.push(hop(bld.add_leaf(root, 0.5).unwrap(), PROP));
        assert_eq!(net.add_link(bld.build()), li);
    }
    net.stats.trace_flow(0);
    net.stats.trace_flow(1);
    attach(
        &mut net,
        0,
        Builtin::Cbr(CbrSource::new(0, PKT, 3e6, 0.0, 5.0)),
        Route::new(long),
    );
    attach(
        &mut net,
        1,
        Builtin::Poisson(PoissonSource::new(1, PKT, 2e6, 0.0, 5.0, 11)),
        Route::new(short),
    );
    for (li, hop) in cross.into_iter().enumerate() {
        let flow = 100 + li as u32;
        let src = if li == 1 {
            Builtin::Cbr(CbrSource::new(flow, PKT, 7e6, 0.0, 5.0))
        } else {
            Builtin::Poisson(PoissonSource::new(flow, PKT, 6e6, 0.0, 5.0, 20 + li as u64))
        };
        attach(&mut net, flow, src, Route::new(vec![hop]));
    }
    net.schedule_command(1.0, SimCommand::SetLinkRate { link: 1, bps: 0.0 });
    net.schedule_command(1.05, SimCommand::SetLinkRate { link: 1, bps: RATE });
    net.schedule_command(2.0, SimCommand::RemoveFlow(101));
    net.schedule_command(3.0, SimCommand::RemoveFlow(1));
    net
}

fn bare() -> Net {
    tandem(&mut |net, flow, src, route| src.attach(net, flow, route))
}

/// [`bare`] with every source boxed: none is held by value.
fn boxed() -> Net {
    tandem(&mut |net, flow, src, route| {
        net.add_route(flow, src.boxed(), route);
    })
}

fn loud() -> Net {
    tandem(&mut |net, flow, src, route| {
        net.add_route(flow, Loud(src.boxed()), route);
    })
}

const FLOWS: &[u32] = &[0, 1, 100, 101, 102];

/// Everything a finished run leaves behind.
#[derive(Debug, PartialEq)]
struct Artifacts {
    flows: Vec<(u32, FlowStats)>,
    records: Vec<(u32, Vec<ServiceRecord>)>,
    totals: (u64, u64, f64),
    ledgers: Vec<LinkLedger>,
    merged: String,
}

fn artifacts(net: Net) -> Artifacts {
    net.verify_conservation().unwrap();
    let flows = FLOWS.iter().map(|&f| (f, net.stats.flow(f))).collect();
    let records = [0, 1]
        .iter()
        .map(|&f| (f, net.stats.trace(f).to_vec()))
        .collect();
    let totals = (
        net.stats.total_bytes,
        net.stats.total_packets,
        net.stats.last_departure,
    );
    let ledgers = (0..net.link_count()).map(|l| net.link_ledger(l)).collect();
    let bufs: Vec<String> = net
        .into_observers()
        .into_iter()
        .map(|o| String::from_utf8(o.into_inner()).unwrap())
        .collect();
    Artifacts {
        flows,
        records,
        totals,
        ledgers,
        merged: merge_traces(&bufs),
    }
}

fn assert_same(a: &Artifacts, b: &Artifacts, label: &str) {
    assert_eq!(a.flows, b.flows, "{label}: per-flow stats");
    assert_eq!(a.records, b.records, "{label}: service records");
    assert_eq!(a.totals, b.totals, "{label}: totals");
    assert_eq!(a.ledgers, b.ledgers, "{label}: link ledgers");
    for (i, (x, y)) in a.merged.lines().zip(b.merged.lines()).enumerate() {
        assert_eq!(x, y, "{label}: traces diverge at merged line {i}");
    }
    assert_eq!(a.merged.len(), b.merged.len(), "{label}: trace length");
}

#[test]
fn elided_deliveries_change_nothing_in_any_execution_mode() {
    let mut quiet = bare();
    quiet.run(HORIZON);
    // With every source open-loop, nothing is ever in flight to a source:
    // what remains queued is at most one wake per source.
    assert!(quiet.outstanding_events() <= FLOWS.len());
    let mut noisy = loud();
    noisy.run(HORIZON);
    let mut held_boxed = boxed();
    held_boxed.run(HORIZON);
    let (quiet, noisy) = (artifacts(quiet), artifacts(noisy));
    let held_boxed = artifacts(held_boxed);
    assert!(quiet.merged.lines().count() > 1000, "trace too small");
    assert_same(&quiet, &noisy, "run");
    // Holding a built-in source by value is unobservable too.
    assert_same(&quiet, &held_boxed, "boxed");
}

/// A run stopped and continued — at instants bracketing the outage and both
/// removals — leaves what the straight run leaves, with deliveries elided
/// or scheduled.
#[test]
fn elided_deliveries_change_nothing_across_a_stop_and_continue() {
    let mut whole = bare();
    whole.run(HORIZON);
    let golden = artifacts(whole);
    for t in [0.5, 1.02, 2.5, 3.5] {
        for (build, label) in [(bare as fn() -> Net, "bare"), (loud, "loud")] {
            let mut net = build();
            net.run(t);
            net.run(HORIZON);
            assert_same(
                &golden,
                &artifacts(net),
                &format!("{label} stopped at t={t}"),
            );
        }
    }
}

/// A source that *does* want its deliveries stops receiving them the
/// moment its flow is removed (flow 1 at 3 s, two hops; flow 0 at 4 s,
/// three hops) — although packets already past the first hop are still
/// served downstream.
#[test]
fn removed_flows_get_no_further_deliveries() {
    const REMOVED_AT: f64 = 3.0;
    const LONG_REMOVED_AT: f64 = 4.0;
    let probes: Vec<Rc<Cell<(u64, f64)>>> = (0..2).map(|_| Rc::default()).collect();
    let mut net = tandem(&mut |net, flow, src, route| match flow {
        0 | 1 => {
            let probe = probes[flow as usize].clone();
            let rate = if flow == 0 { 3e6 } else { 2e6 };
            let inner = CbrSource::new(flow, PKT, rate, 0.0, 5.0);
            net.add_route(flow, Counting { inner, probe }, route);
        }
        _ => src.attach(net, flow, route),
    });
    net.schedule_command(LONG_REMOVED_AT, SimCommand::RemoveFlow(0));
    net.run(HORIZON);
    net.verify_conservation().unwrap();
    for (flow, cut) in [(1u32, REMOVED_AT), (0, LONG_REMOVED_AT)] {
        let records = net.stats.trace(flow);
        // Delivered: served at the last hop and landed before the cut (a
        // delivery at the cut itself loses the tie to the command).
        let expected = records.iter().filter(|r| r.end + LAST_PROP < cut).count() as u64;
        let (delivered, latest) = probes[flow as usize].get();
        assert!(expected > 50, "flow {flow}: scenario too small");
        assert_eq!(delivered, expected, "flow {flow}");
        assert!(latest < cut);
        // ... while service at the last hop went on past the cut: the
        // discarded deliveries were real.
        assert!(
            records.iter().any(|r| r.end + LAST_PROP > cut),
            "flow {flow}: nothing was in flight at the cut"
        );
    }
}
