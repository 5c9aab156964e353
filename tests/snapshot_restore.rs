//! A run stopped and continued is the run straight through.
//!
//! `Network::run(horizon)` may be called any number of times with growing
//! horizons; between calls the caller may attach sources or schedule
//! commands. These tests pin
//!
//! ```text
//! run(0..T)  ≡  run(0..t) → run(t..T)
//! ```
//!
//! on per-flow statistics, service records, link ledgers, and the JSONL
//! trace — the bytes written before the stop are the straight trace's
//! prefix and the bytes written after it are the rest — on the reduced
//! Fig. 3 single-link workload (outage + finite buffer) and a 3-link
//! tandem with cross traffic, a mid-run outage, and flow churn. They also
//! pin what a running network refuses: sources, routes and commands that
//! name what it lacks, refused without touching the run.
//!
//! The suite's name and several test names date from when the stop was a
//! checkpoint and the continuation a restore; the properties they pinned
//! on the run path are the ones kept here.

use std::panic::{catch_unwind, AssertUnwindSafe};

use hpfq::core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq::obs::jsonl::merge_traces;
use hpfq::obs::{JsonlObserver, SharedBuf};
use hpfq::sim::{
    CbrSource, FlowStats, Hop, LinkLedger, Network, PacketTrainSource, PeriodicOnOffSource,
    PoissonSource, Route, ServiceRecord, SimCommand,
};

const LINK: f64 = 45e6;
const PKT: u32 = 8192;

type Obs = JsonlObserver<SharedBuf>;
type Net = Network<MixedScheduler, Obs>;

/// A network and the trace buffer of each of its links, readable mid-run.
struct Traced {
    net: Net,
    bufs: Vec<SharedBuf>,
}

impl Traced {
    fn new() -> Self {
        Traced {
            net: Network::new(),
            bufs: Vec::new(),
        }
    }

    /// A one-link tree builder whose observer writes to a new buffer.
    fn builder(&mut self, rate: f64) -> hpfq::core::HierarchyBuilder<MixedScheduler, Obs> {
        let buf = SharedBuf::new();
        self.bufs.push(buf.clone());
        let kind = SchedulerKind::Wf2qPlus;
        Hierarchy::builder_with_observer(rate, move |r| kind.build(r), JsonlObserver::new(buf))
    }

    /// Each link's trace so far.
    fn traces(&self) -> Vec<String> {
        self.bufs.iter().map(SharedBuf::contents).collect()
    }
}

/// The reduced Fig. 3 workload on one link: N-R → {N-2 → {N-1 → {RT-1,
/// BE-1}, PS-6}, PS-1, CS-1}, five sources, a 30 ms outage, one finite
/// buffer. Mirrors `network_vs_simulation::fig3ish`.
fn fig3_net() -> Traced {
    let mut t = Traced::new();
    let mut bld = t.builder(LINK);
    let root = bld.root();
    let n2 = bld.add_internal(root, 0.5).unwrap();
    let n1 = bld.add_internal(n2, 0.494).unwrap();
    let rt1 = bld.add_leaf(n1, 0.81).unwrap();
    let be1 = bld.add_leaf(n1, 0.19).unwrap();
    let ps1 = bld.add_leaf(root, 0.05).unwrap();
    let cs1 = bld.add_leaf(root, 0.05).unwrap();
    let ps6 = bld.add_leaf(n2, 0.0506).unwrap();
    let net = &mut t.net;
    net.add_link(bld.build());
    net.stats.trace_flow(1);
    net.add_route(
        1,
        PeriodicOnOffSource::new(1, PKT, 9e6, 0.025, 0.100, 0.200, f64::INFINITY),
        Route::single(rt1, None, 0.0),
    );
    net.add_route(
        2,
        CbrSource::new(2, PKT, 12e6, 0.0, f64::INFINITY),
        Route::single(be1, Some(3 * u64::from(PKT)), 0.0),
    );
    net.add_route(
        11,
        PoissonSource::new(11, PKT, 2.25e6, 0.0, f64::INFINITY, 7),
        Route::single(ps1, None, 0.001),
    );
    net.add_route(
        31,
        PacketTrainSource::new(
            31,
            PKT,
            7,
            f64::from(PKT) * 8.0 / LINK,
            0.193,
            0.05,
            f64::INFINITY,
        ),
        Route::single(cs1, None, 0.0),
    );
    net.add_route(
        16,
        PoissonSource::new(16, PKT, 1.14e6, 0.0, f64::INFINITY, 9),
        Route::single(ps6, None, 0.0),
    );
    net.schedule_command(0.9, SimCommand::SetLinkRate(0.0));
    net.schedule_command(0.93, SimCommand::SetLinkRate(LINK));
    t
}

/// A 3-hop tandem (flow 0) with saturating single-hop cross traffic on
/// every link, a tight mid-path buffer, a mid-run outage on the middle
/// link, and churn: one cross flow leaves early, the tandem flow itself
/// is removed mid-path late in the run (its downstream detachments ride
/// `Detach` events behind the packets already on the wire).
fn tandem_net() -> Traced {
    let mut t = Traced::new();
    let mut hops = Vec::new();
    for li in 0..3usize {
        // A 10 Mb/s root over the tandem flow's leaf (share 0.2 on the
        // middle link, 0.5 elsewhere) and the cross flow's.
        let mut bld = t.builder(10e6);
        let root = bld.root();
        let phi = if li == 1 { 0.2 } else { 0.5 };
        let tandem_leaf = bld.add_leaf(root, phi).unwrap();
        let cross_leaf = bld.add_leaf(root, 1.0 - phi).unwrap();
        let link = t.net.add_link(bld.build());
        assert_eq!(link, li);
        hops.push(Hop {
            link,
            leaf: tandem_leaf,
            buffer_bytes: (li == 1).then_some(2 * u64::from(PKT)),
            prop_delay: 0.002,
        });
        let flow = 100 + link as u32;
        t.net.add_route(
            flow,
            CbrSource::new(flow, PKT, 8e6, 0.0, 5.0),
            Route::new(vec![Hop {
                link,
                leaf: cross_leaf,
                buffer_bytes: Some(16 * u64::from(PKT)),
                prop_delay: 0.0,
            }]),
        );
    }
    let net = &mut t.net;
    net.stats.trace_flow(0);
    net.add_route(0, CbrSource::new(0, PKT, 4e6, 0.0, 5.0), Route::new(hops));
    // 50 ms outage on the middle link mid-run.
    net.schedule_command(1.0, SimCommand::SetLinkRateOn { link: 1, bps: 0.0 });
    net.schedule_command(1.05, SimCommand::SetLinkRateOn { link: 1, bps: 10e6 });
    // Churn: a cross flow leaves, then the tandem flow is torn down
    // mid-path while packets are still in flight between hops.
    net.schedule_command(2.0, SimCommand::RemoveFlow(101));
    net.schedule_command(3.0, SimCommand::RemoveFlow(0));
    t
}

/// Everything a finished run leaves behind that the tests compare.
#[derive(Debug, PartialEq)]
struct RunArtifacts {
    flows: Vec<(u32, FlowStats)>,
    records: Vec<(u32, Vec<ServiceRecord>)>,
    total_bytes: u64,
    total_packets: u64,
    last_departure: f64,
    ledgers: Vec<LinkLedger>,
    /// Per-link raw trace buffers (pre-merge, for prefix comparisons).
    bufs: Vec<String>,
    merged: String,
}

fn artifacts(t: &Traced, flows: &[u32], traced: &[u32]) -> RunArtifacts {
    let net = &t.net;
    net.verify_conservation().unwrap();
    let bufs = t.traces();
    RunArtifacts {
        flows: flows.iter().map(|&f| (f, net.stats.flow(f))).collect(),
        records: traced
            .iter()
            .map(|&f| (f, net.stats.trace(f).to_vec()))
            .collect(),
        total_bytes: net.stats.total_bytes,
        total_packets: net.stats.total_packets,
        last_departure: net.stats.last_departure,
        ledgers: (0..net.link_count()).map(|l| net.link_ledger(l)).collect(),
        merged: merge_traces(&bufs),
        bufs,
    }
}

fn assert_artifacts_match(golden: &RunArtifacts, got: &RunArtifacts, label: &str) {
    assert_eq!(golden.flows, got.flows, "{label}: per-flow stats diverged");
    assert_eq!(golden.records, got.records, "{label}: service records");
    assert_eq!(golden.total_bytes, got.total_bytes, "{label}: total bytes");
    assert_eq!(golden.total_packets, got.total_packets, "{label}: packets");
    assert_eq!(
        golden.last_departure, got.last_departure,
        "{label}: last departure"
    );
    assert_eq!(golden.ledgers, got.ledgers, "{label}: link ledgers");
    if golden.merged != got.merged {
        for (i, (a, b)) in golden.merged.lines().zip(got.merged.lines()).enumerate() {
            assert_eq!(a, b, "{label}: traces diverge at merged line {i}");
        }
        panic!(
            "{label}: trace lengths diverge ({} vs {} lines)",
            golden.merged.lines().count(),
            got.merged.lines().count()
        );
    }
}

/// Runs `build()` to `stop`, checks each link's trace so far is a prefix
/// of the golden's, runs on to `end` and checks the whole run matches.
fn assert_stop_and_continue(
    build: fn() -> Traced,
    golden: &RunArtifacts,
    stop: f64,
    end: f64,
    flows: &[u32],
    traced: &[u32],
) {
    let mut t = build();
    t.net.run(stop);
    for (i, (g, c)) in golden.bufs.iter().zip(t.traces()).enumerate() {
        assert!(
            g.starts_with(&c),
            "stop at {stop}: link {i}'s trace is not the straight trace's prefix"
        );
    }
    t.net.run(end);
    let got = artifacts(&t, flows, traced);
    assert_artifacts_match(golden, &got, &format!("stop at {stop}"));
}

const FIG3_FLOWS: &[u32] = &[1, 2, 11, 31, 16];
const TANDEM_FLOWS: &[u32] = &[0, 100, 101, 102];

fn fig3_golden() -> RunArtifacts {
    let mut seq = fig3_net();
    seq.net.run(2.0);
    artifacts(&seq, FIG3_FLOWS, &[1])
}

/// Stopping mid-run — just past the outage window, queues still draining
/// — and asking again for the same horizon changes nothing; two identical
/// runs stopped at the same instant have written the same bytes; and the
/// stopped run continues as the straight run.
#[test]
fn fig3_snapshot_is_observationally_a_noop_and_byte_deterministic() {
    let golden = fig3_golden();
    let mut t = fig3_net();
    t.net.run(1.0);
    let at_stop = (t.traces(), t.net.now(), t.net.outstanding_events());
    t.net.run(1.0);
    assert_eq!(
        (t.traces(), t.net.now(), t.net.outstanding_events()),
        at_stop,
        "a second run to the same horizon moved the network"
    );
    let mut twin = fig3_net();
    twin.net.run(1.0);
    assert_eq!(
        twin.traces(),
        at_stop.0,
        "identical runs wrote different bytes"
    );

    t.net.run(2.0);
    let cont = artifacts(&t, FIG3_FLOWS, &[1]);
    assert_artifacts_match(&golden, &cont, "fig3 stop+continue");
}

/// Stops before, at both edges of, inside and after the outage: each
/// continuation replays the straight run byte for byte.
#[test]
fn fig3_rollback_and_resume_replay_byte_identically() {
    let golden = fig3_golden();
    assert!(golden.merged.lines().count() > 1000, "trace too small");
    for stop in [0.5, 0.9, 0.915, 0.93, 1.0, 1.5] {
        assert_stop_and_continue(fig3_net, &golden, stop, 2.0, FIG3_FLOWS, &[1]);
    }
}

/// Stops bracketing the outage and both churn events, on the tandem.
#[test]
fn tandem_rollback_and_resume_replay_byte_identically() {
    let mut seq = tandem_net();
    seq.net.run(8.0);
    let golden = artifacts(&seq, TANDEM_FLOWS, &[0]);
    assert!(golden.merged.lines().count() > 1000, "trace too small");
    // Non-trivial scenario: churn purged bytes mid-path.
    let tandem = golden.flows.iter().find(|&&(f, _)| f == 0).unwrap();
    assert!(tandem.1.purged_bytes > 0, "{:?}", tandem.1);
    for stop in [0.5, 1.02, 2.5, 3.5] {
        assert_stop_and_continue(tandem_net, &golden, stop, 8.0, TANDEM_FLOWS, &[0]);
    }
}

/// One link, three leaves, one CBR source attached (flow 1 on the first
/// leaf); the other two leaves are returned for sources attached later.
fn late_attach_net() -> (Network<MixedScheduler>, [NodeId; 2]) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld = Hierarchy::<MixedScheduler>::builder(10e6, move |r| kind.build(r));
    let root = bld.root();
    let first = bld.add_leaf(root, 0.4).unwrap();
    let late = [
        bld.add_leaf(root, 0.3).unwrap(),
        bld.add_leaf(root, 0.3).unwrap(),
    ];
    let mut net = Network::single_link(bld.build());
    net.add_route(
        1,
        CbrSource::new(1, PKT, 2e6, 0.0, f64::INFINITY),
        Route::single(first, None, 0.0),
    );
    (net, late)
}

/// `Network::run` starts each source exactly once: it keeps a cursor past
/// the slots it has already started rather than probing every slot per
/// segment. A CBR source started twice offers twice the packets, and one
/// never started offers none — the offered counts are the witness.
#[test]
fn sources_attached_between_segments_or_after_restore_start_exactly_once() {
    let late_cbr = |flow, start| CbrSource::new(flow, PKT, 2e6, start, f64::INFINITY);
    let offered =
        |net: &Network<MixedScheduler>| [1, 2, 3].map(|f| net.stats.flow(f).offered_packets);
    // Reference: every source attached before the one and only run.
    let (mut all, late) = late_attach_net();
    all.add_route(2, late_cbr(2, 0.1), Route::single(late[0], None, 0.0));
    all.add_route(3, late_cbr(3, 0.2), Route::single(late[1], None, 0.0));
    all.run(0.5);
    let want = offered(&all);
    assert!(want.iter().all(|&n| n > 5), "workload too small: {want:?}");

    // Segmented: flows 2 and 3 are attached between `run` calls, and
    // further segments follow each attach.
    let (mut net, late) = late_attach_net();
    net.run(0.1);
    net.add_route(2, late_cbr(2, 0.1), Route::single(late[0], None, 0.0));
    net.run(0.15);
    net.run(0.2);
    net.add_route(3, late_cbr(3, 0.2), Route::single(late[1], None, 0.0));
    net.run(0.3);
    net.run(0.5);
    assert_eq!(offered(&net), want, "segmented run");
}

/// Whatever names a flow, link or node the network lacks is refused, and
/// the run goes on exactly as the unharmed one: a command naming an
/// unknown flow, link or parent lands in `command_errors`, and a route
/// with a hop on an unknown link, or at a node that is no leaf of its
/// link, is refused by `add_route` before it touches the network.
#[test]
fn snapshot_naming_an_unknown_source_or_hop_is_refused_not_run() {
    let mut golden = tandem_net();
    golden.net.run(5.5);
    assert!(golden.net.command_errors.is_empty());
    let golden = artifacts(&golden, TANDEM_FLOWS, &[0]);

    let mut t = tandem_net();
    t.net.run(1.5);
    let commands = [
        SimCommand::RemoveFlow(9999),
        SimCommand::SetLinkRateOn { link: 3, bps: 1e6 },
        SimCommand::AddFlow {
            parent: NodeId(99),
            phi: 0.1,
            flow: 77,
            source: Box::new(CbrSource::new(77, PKT, 1e6, 1.6, 5.0)),
            buffer_bytes: None,
            delivery_delay: 0.0,
        },
    ];
    let refused = commands.len();
    for cmd in commands {
        t.net.schedule_command(1.6, cmd);
    }
    let root = t.net.link_server(0).root();
    for (what, route) in [
        ("unknown link", Route::new(vec![hop(3, root, 0.0)])),
        ("non-leaf hop", Route::new(vec![hop(0, root, 0.0)])),
    ] {
        assert_refused(what, || {
            t.net
                .add_route(77, CbrSource::new(77, PKT, 1e6, 1.6, 5.0), route)
        });
    }
    t.net.run(5.5);
    assert_eq!(
        t.net.command_errors.len(),
        refused,
        "{:?}",
        t.net.command_errors
    );
    assert_eq!(t.net.stats.flow(77).offered_packets, 0);
    assert_artifacts_match(
        &golden,
        &artifacts(&t, TANDEM_FLOWS, &[0]),
        "after refusals",
    );
}

/// A source or route its constructor refuses never reaches a network: a
/// zero, negative or NaN packet interval (one that would keep `run` from
/// ever returning), an empty burst, a route with no hop, with a link
/// visited twice, or with a delay no link can take. The network the
/// refused parts were built for runs on as the unharmed one.
#[test]
fn sources_and_routes_a_constructor_would_refuse_are_refused() {
    let golden = fig3_golden();
    let mut t = fig3_net();
    t.net.run(0.5);
    let sources = [
        ("cbr at rate 0", (5, PKT, 0.0)),
        ("cbr at rate -1", (5, PKT, -1.0)),
        ("cbr at NaN rate", (5, PKT, f64::NAN)),
        ("empty cbr packets", (5, 0, 1e6)),
    ];
    for (what, (flow, len, rate)) in sources {
        assert_refused(what, || CbrSource::new(flow, len, rate, 0.0, 1.0));
    }
    assert_refused("poisson at rate 0", || {
        PoissonSource::new(5, PKT, 0.0, 0.0, 1.0, 1)
    });
    assert_refused("on-off at NaN peak", || {
        PeriodicOnOffSource::new(5, PKT, f64::NAN, 0.025, 0.1, 0.0, 1.0)
    });
    assert_refused("empty train", || {
        PacketTrainSource::new(5, PKT, 0, 1e-3, 0.1, 0.0, 1.0)
    });
    let leaf = NodeId(1);
    let routes = [
        ("route with no hop", Vec::new()),
        (
            "route visiting link 0 twice",
            vec![hop(0, leaf, 0.0), hop(0, leaf, 0.0)],
        ),
        ("NaN delay", vec![hop(0, leaf, f64::NAN)]),
        ("negative delay", vec![hop(0, leaf, -1.0)]),
        ("infinite delay", vec![hop(0, leaf, f64::INFINITY)]),
    ];
    for (what, hops) in routes {
        assert_refused(what, || Route::new(hops));
    }
    t.net.run(2.0);
    assert_artifacts_match(&golden, &artifacts(&t, FIG3_FLOWS, &[1]), "after refusals");
}

/// Asserts that `build` panics: its constructor refused what it was given.
fn assert_refused<T>(what: &str, build: impl FnOnce() -> T) {
    assert!(
        catch_unwind(AssertUnwindSafe(build)).is_err(),
        "{what}: accepted"
    );
}

/// A hop on `link` at `leaf`, unbounded, with propagation delay `d`.
fn hop(link: usize, leaf: NodeId, d: f64) -> Hop {
    Hop {
        link,
        leaf,
        buffer_bytes: None,
        prop_delay: d,
    }
}

/// A flow id registered twice is owned by the later slot, in a stopped
/// and continued run as in a straight one: removing the flow detaches the
/// later slot's leaf, and the earlier slot sends on.
#[test]
fn shadowed_registration_round_trips_through_a_snapshot() {
    let build = || {
        let mut t = Traced::new();
        let mut bld = t.builder(LINK);
        let root = bld.root();
        let leaves = [0.5, 0.25, 0.25].map(|phi| bld.add_leaf(root, phi).unwrap());
        t.net.add_link(bld.build());
        for (flow, leaf) in [(7, leaves[0]), (9, leaves[1]), (7, leaves[2])] {
            t.net.add_route(
                flow,
                CbrSource::new(flow, PKT, 8e6, 0.0, 5.0),
                Route::open_loop(leaf),
            );
        }
        t.net.schedule_command(1.0, SimCommand::RemoveFlow(7));
        (t, leaves)
    };
    let (mut straight, leaves) = build();
    straight.net.run(2.0);
    let (mut stopped, _) = build();
    for stop in [0.5, 1.0, 1.5, 2.0] {
        stopped.net.run(stop);
    }
    for t in [&straight, &stopped] {
        let server = t.net.link_server(0);
        assert!(server.is_detached(leaves[2]), "the later slot owns flow 7");
        assert!(!server.is_detached(leaves[0]));
        assert!(
            t.net.stats.flow(7).last_departure > 1.9,
            "the earlier slot sends on"
        );
    }
    assert_artifacts_match(
        &artifacts(&straight, &[7, 9], &[]),
        &artifacts(&stopped, &[7, 9], &[]),
        "stopped and continued",
    );
}
