//! Differential oracle for delivery elision.
//!
//! A source whose [`Source::wants_delivery`] is `false` gets no `Deliver`
//! event scheduled for its packets. That is only sound if the elided event
//! was a no-op: the same scenario with every open-loop source wrapped in a
//! pass-through that keeps the trait's default (`true`) — so every
//! delivery *is* scheduled, fired, and routed across shards — must leave
//! byte-identical merged traces, statistics, service records and ledgers,
//! in every execution mode. And for a source that does want its
//! deliveries, removal or quarantine must still cut them off where the
//! flow's liveness is authoritative: on the shard owning the source.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hpfq::core::{Hierarchy, MixedScheduler, Packet, SchedulerKind};
use hpfq::obs::jsonl::merge_traces;
use hpfq::obs::snap::{SnapError, Value};
use hpfq::obs::{EscalationPolicy, JsonlObserver};
use hpfq::sim::{
    CbrSource, FlowStats, Hop, LinkLedger, Network, PoissonSource, Route, ServiceRecord,
    SimCommand, Source, SourceOutput,
};

const PKT: u32 = 8192;
const RATE: f64 = 10e6;
/// Propagation between hops (the sharded runs' lookahead).
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

    fn save_state(&self) -> Result<Value, SnapError> {
        self.0.save_state()
    }
}

/// Counts its deliveries and remembers the latest one.
struct Counting {
    inner: CbrSource,
    delivered: Arc<AtomicU64>,
    /// `f64` bits of the latest delivery time (non-negative floats order
    /// like their bit patterns).
    latest: Arc<AtomicU64>,
}

impl Source for Counting {
    fn start(&mut self) -> SourceOutput {
        self.inner.start()
    }

    fn on_wake(&mut self, now: f64) -> SourceOutput {
        self.inner.on_wake(now)
    }

    fn on_delivered(&mut self, now: f64, _pkt: &Packet) -> SourceOutput {
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.latest.fetch_max(now.to_bits(), Ordering::Relaxed);
        SourceOutput::none()
    }

    fn save_state(&self) -> Result<Value, SnapError> {
        self.inner.save_state()
    }
}

/// How a scenario attaches (and possibly wraps) each of its sources.
type Attach<'a> = dyn FnMut(&mut Net, u32, Box<dyn Source>, Route) + 'a;

/// Three links in tandem. Flow 0 crosses all three, flow 1 crosses links
/// 0 → 1 (so under two round-robin shards its last hop and its source
/// live on different shards and every delivery is a cross-shard message),
/// and each link carries Poisson or CBR cross traffic. An outage and two
/// removals are in the mix.
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
        Box::new(CbrSource::new(0, PKT, 3e6, 0.0, 5.0)),
        Route::new(long),
    );
    attach(
        &mut net,
        1,
        Box::new(PoissonSource::new(1, PKT, 2e6, 0.0, 5.0, 11)),
        Route::new(short),
    );
    for (li, hop) in cross.into_iter().enumerate() {
        let flow = 100 + li as u32;
        let src: Box<dyn Source> = if li == 1 {
            Box::new(CbrSource::new(flow, PKT, 7e6, 0.0, 5.0))
        } else {
            Box::new(PoissonSource::new(flow, PKT, 6e6, 0.0, 5.0, 20 + li as u64))
        };
        attach(&mut net, flow, src, Route::new(vec![hop]));
    }
    net.schedule_command(1.0, SimCommand::SetLinkRateOn { link: 1, bps: 0.0 });
    net.schedule_command(1.05, SimCommand::SetLinkRateOn { link: 1, bps: RATE });
    net.schedule_command(2.0, SimCommand::RemoveFlow(101));
    net.schedule_command(3.0, SimCommand::RemoveFlow(1));
    net
}

fn bare() -> Net {
    tandem(&mut |net, flow, src, route| {
        net.add_route(flow, src, route);
    })
}

fn loud() -> Net {
    tandem(&mut |net, flow, src, route| {
        net.add_route(flow, Loud(src), route);
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
    let both_orders = [vec![0, 1], vec![1, 0]];
    type Mode<'a> = (&'a str, Box<dyn Fn(&mut Net) + 'a>);
    let modes: Vec<Mode> = vec![
        ("sequential", Box::new(|n| n.run(HORIZON))),
        (
            "run_parallel(2)",
            Box::new(|n| {
                let report = n.run_parallel(HORIZON, 2);
                assert_eq!(report.fallback, None, "must genuinely shard");
            }),
        ),
        (
            "run_permuted(2)",
            Box::new(|n| {
                let report = n.run_permuted(HORIZON, 2, &both_orders);
                assert_eq!(report.fallback, None, "must genuinely shard");
            }),
        ),
    ];
    let mut golden = None;
    for (label, drive) in &modes {
        let mut quiet = bare();
        drive(&mut quiet);
        // With every source open-loop, nothing is ever in flight to a
        // source: what remains queued is at most one wake per source.
        assert!(quiet.outstanding_events() <= FLOWS.len(), "{label}");
        let mut noisy = loud();
        drive(&mut noisy);
        let (quiet, noisy) = (artifacts(quiet), artifacts(noisy));
        assert!(quiet.merged.lines().count() > 1000, "trace too small");
        assert_same(&quiet, &noisy, label);
        // Every mode is also the sequential run.
        assert_same(golden.get_or_insert(quiet), &noisy, label);
    }
}

#[test]
fn elided_deliveries_change_nothing_across_snapshot_and_resume() {
    let mut whole = bare();
    whole.run(HORIZON);
    let golden = artifacts(whole);
    // Checkpoints bracketing the outage and both removals.
    for t in [0.5, 1.02, 2.5, 3.5] {
        let mut tails = Vec::new();
        for wrapped in [false, true] {
            let build = if wrapped { loud } else { bare };
            let mut first = build();
            first.run(t);
            let snap = first.snapshot().unwrap();
            // The flag is checkpointed state: a rebuilt source cannot be
            // asked again on a shard that does not hold it.
            let wants: Vec<bool> = snap
                .get("sources")
                .unwrap()
                .items()
                .unwrap()
                .iter()
                .map(|s| s.get("wants_delivery").unwrap().as_bool().unwrap())
                .collect();
            assert_eq!(wants, vec![wrapped; FLOWS.len()]);
            let mut resumed = build();
            resumed.restore(&snap).unwrap();
            resumed.run(HORIZON);
            tails.push(artifacts(resumed));
        }
        assert_same(&tails[0], &tails[1], &format!("resume from t={t}"));
        // A resumed network's trace is the tail only; everything else is
        // the uninterrupted run's.
        assert_eq!(golden.flows, tails[0].flows, "t={t}");
        assert_eq!(golden.records, tails[0].records, "t={t}");
        assert_eq!(golden.ledgers, tails[0].ledgers, "t={t}");
        assert!(golden.merged.ends_with(&tails[0].merged), "t={t}");
    }
}

/// A source that *does* want its deliveries stops receiving them the
/// moment its flow is removed (flow 1, by command) or quarantined (flow 0,
/// by strikes at a segment boundary) — although packets already past the
/// first hop are still served downstream, and although, sharded, the last
/// hop runs on a different shard from the one that knows the flow is dead.
#[test]
fn removed_and_quarantined_flows_get_no_further_deliveries() {
    const REMOVED_AT: f64 = 3.0;
    const QUARANTINED_AT: f64 = 4.0;
    let run = |sharded: bool| {
        let probes: Vec<(Arc<AtomicU64>, Arc<AtomicU64>)> = (0..2)
            .map(|_| (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))))
            .collect();
        let mut net = tandem(&mut |net, flow, src, route| match flow {
            0 | 1 => {
                let (delivered, latest) = probes[flow as usize].clone();
                let rate = if flow == 0 { 3e6 } else { 2e6 };
                let inner = CbrSource::new(flow, PKT, rate, 0.0, 5.0);
                net.add_route(
                    flow,
                    Counting {
                        inner,
                        delivered,
                        latest,
                    },
                    route,
                );
            }
            _ => {
                net.add_route(flow, src, route);
            }
        });
        net.set_escalation_policy(EscalationPolicy {
            quarantine_after: 1,
            halt_after: u32::MAX,
        });
        let drive = |net: &mut Net, until: f64| {
            if sharded {
                assert_eq!(net.run_parallel(until, 2).fallback, None);
            } else {
                net.run(until);
            }
        };
        drive(&mut net, QUARANTINED_AT);
        net.strike(0);
        drive(&mut net, HORIZON);
        net.verify_conservation().unwrap();
        for (flow, cut) in [(1u32, REMOVED_AT), (0, QUARANTINED_AT)] {
            let records = net.stats.trace(flow);
            // Delivered: served at the last hop and landed before the cut
            // (a delivery at the cut itself loses the tie to the command).
            let expected = records.iter().filter(|r| r.end + LAST_PROP < cut).count() as u64;
            let (delivered, latest) = &probes[flow as usize];
            assert!(expected > 50, "flow {flow}: scenario too small");
            assert_eq!(delivered.load(Ordering::Relaxed), expected, "flow {flow}");
            assert!(f64::from_bits(latest.load(Ordering::Relaxed)) < cut);
            // ... while service at the last hop went on past the cut: the
            // discarded deliveries were real.
            assert!(
                records.iter().any(|r| r.end + LAST_PROP > cut),
                "flow {flow}: nothing was in flight at the cut"
            );
        }
        (
            probes[0].0.load(Ordering::Relaxed),
            probes[1].0.load(Ordering::Relaxed),
        )
    };
    assert_eq!(run(false), run(true));
}
