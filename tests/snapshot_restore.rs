//! Mid-run checkpoint/restore byte-identity oracle.
//!
//! `Network::snapshot()` / `Network::restore()` promise
//!
//! ```text
//! run(0..T)  ≡  run(0..t) → snapshot → restore → run(t..T)
//! ```
//!
//! on per-flow statistics, service records, link ledgers, and the JSONL
//! trace. These tests pin that promise on the two reference scenarios the
//! parallel-determinism oracle uses — the reduced Fig. 3 single-link
//! workload (outage + finite buffer) and a 3-link tandem with cross
//! traffic, a mid-run outage, and flow churn — in three restore modes:
//!
//! * **no-op**: snapshotting mid-run and simply continuing must not
//!   perturb the run (the queue is drained and rebuilt during capture);
//! * **rollback**: restoring an earlier snapshot into the *same* network
//!   after it ran further must rewind everything — including the trace,
//!   whose post-checkpoint lines are truncated — and replay identically;
//! * **resume**: restoring into a freshly built network must continue
//!   identically, with the trace picking up exactly at the checkpoint's
//!   byte offset (the prefix lives in the snapshot's origin).
//!
//! Serialized snapshots are byte-deterministic: equal runs checkpointed at
//! the same instant produce equal bytes, and a text round-trip through
//! `snap::parse` preserves them.

use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::merge_traces;
use hpfq::obs::snap::{self, Value};
use hpfq::obs::JsonlObserver;
use hpfq::sim::{
    CbrSource, FlowStats, Hop, LinkLedger, Network, PacketTrainSource, PeriodicOnOffSource,
    PoissonSource, Route, ServiceRecord, SimCommand,
};

const LINK: f64 = 45e6;
const PKT: u32 = 8192;

type Obs = JsonlObserver<Vec<u8>>;

fn sink() -> Obs {
    JsonlObserver::new(Vec::new())
}

/// Everything a finished run leaves behind that the oracle compares.
#[derive(Debug, PartialEq)]
struct RunArtifacts {
    flows: Vec<(u32, FlowStats)>,
    records: Vec<(u32, Vec<ServiceRecord>)>,
    total_bytes: u64,
    total_packets: u64,
    last_departure: f64,
    ledgers: Vec<LinkLedger>,
    /// Per-link raw trace buffers (pre-merge, for tail comparisons).
    bufs: Vec<String>,
    merged: String,
}

fn artifacts(net: Network<MixedScheduler, Obs>, flows: &[u32], traced: &[u32]) -> RunArtifacts {
    net.verify_conservation().unwrap();
    let flows = flows.iter().map(|&f| (f, net.stats.flow(f))).collect();
    let records = traced
        .iter()
        .map(|&f| (f, net.stats.trace(f).to_vec()))
        .collect();
    let total_bytes = net.stats.total_bytes;
    let total_packets = net.stats.total_packets;
    let last_departure = net.stats.last_departure;
    let ledgers = (0..net.link_count()).map(|l| net.link_ledger(l)).collect();
    let bufs: Vec<String> = net
        .into_observers()
        .into_iter()
        .map(|o| String::from_utf8(o.into_inner()).unwrap())
        .collect();
    let merged = merge_traces(&bufs);
    RunArtifacts {
        flows,
        records,
        total_bytes,
        total_packets,
        last_departure,
        ledgers,
        bufs,
        merged,
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

/// The trace byte offset of link `i` recorded inside a snapshot (the
/// observer mark `[pos, write_errors]`).
fn trace_offset(snapshot: &Value, link: usize) -> usize {
    snapshot.get("links").unwrap().items().unwrap()[link]
        .get("obs")
        .unwrap()
        .items()
        .unwrap()[0]
        .as_usize()
        .unwrap()
}

/// Stats/records/ledgers must match in full; each per-link trace must be
/// exactly the golden trace's tail past the checkpoint's byte offset (a
/// resumed network never saw the prefix).
fn assert_resumed_match(golden: &RunArtifacts, got: &RunArtifacts, snapshot: &Value, label: &str) {
    assert_eq!(golden.flows, got.flows, "{label}: per-flow stats diverged");
    assert_eq!(golden.records, got.records, "{label}: service records");
    assert_eq!(golden.ledgers, got.ledgers, "{label}: link ledgers");
    assert_eq!(golden.bufs.len(), got.bufs.len(), "{label}: link count");
    for (i, (g, c)) in golden.bufs.iter().zip(&got.bufs).enumerate() {
        let cut = trace_offset(snapshot, i);
        assert!(
            cut <= g.len(),
            "{label}: link {i} checkpoint offset {cut} beyond golden trace"
        );
        assert_eq!(
            &g[cut..],
            c.as_str(),
            "{label}: link {i} resumed trace is not the golden tail"
        );
    }
}

/// The reduced Fig. 3 workload on one link (mirrors
/// `parallel_determinism::fig3_net`): five sources, a 30 ms outage, one
/// finite buffer.
fn fig3_net() -> Network<MixedScheduler, Obs> {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
        LINK,
        move |r| kind.build(r),
        sink(),
    );
    let root = bld.root();
    let n2 = bld.add_internal(root, 0.5).unwrap();
    let n1 = bld.add_internal(n2, 0.494).unwrap();
    let rt1 = bld.add_leaf(n1, 0.81).unwrap();
    let be1 = bld.add_leaf(n1, 0.19).unwrap();
    let ps1 = bld.add_leaf(root, 0.05).unwrap();
    let cs1 = bld.add_leaf(root, 0.05).unwrap();
    let ps6 = bld.add_leaf(n2, 0.0506).unwrap();

    let mut net: Network<MixedScheduler, Obs> = Network::new();
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
    net
}

/// The 3-link tandem with cross traffic, mid-run outage on the middle
/// link, and churn (mirrors `parallel_determinism::tandem_net`).
fn tandem_net() -> Network<MixedScheduler, Obs> {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler, Obs> = Network::new();
    let mut hops = Vec::new();
    for li in 0..3usize {
        let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
            10e6,
            move |r| kind.build(r),
            sink(),
        );
        let root = bld.root();
        let phi = if li == 1 { 0.2 } else { 0.5 };
        let tandem_leaf = bld.add_leaf(root, phi).unwrap();
        let cross_leaf = bld.add_leaf(root, 1.0 - phi).unwrap();
        let link = net.add_link(bld.build());
        assert_eq!(link, li);
        hops.push(Hop {
            link,
            leaf: tandem_leaf,
            buffer_bytes: if li == 1 {
                Some(2 * u64::from(PKT))
            } else {
                None
            },
            prop_delay: 0.002,
        });
        let flow = 100 + link as u32;
        net.add_route(
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
    net.stats.trace_flow(0);
    net.add_route(0, CbrSource::new(0, PKT, 4e6, 0.0, 5.0), Route::new(hops));
    net.schedule_command(1.0, SimCommand::SetLinkRateOn { link: 1, bps: 0.0 });
    net.schedule_command(1.05, SimCommand::SetLinkRateOn { link: 1, bps: 10e6 });
    net.schedule_command(2.0, SimCommand::RemoveFlow(101));
    net.schedule_command(3.0, SimCommand::RemoveFlow(0));
    net
}

const FIG3_FLOWS: &[u32] = &[1, 2, 11, 31, 16];
const TANDEM_FLOWS: &[u32] = &[0, 100, 101, 102];

#[test]
fn fig3_snapshot_is_observationally_a_noop_and_byte_deterministic() {
    let mut seq = fig3_net();
    seq.run(2.0);
    let golden = artifacts(seq, FIG3_FLOWS, &[1]);

    // Snapshot mid-run (just past the outage window, queues still
    // draining), twice in a row, and from an independent identical run:
    // all captures must be byte-identical and perturb nothing.
    let mut net = fig3_net();
    net.run(1.0);
    let snap_a = net.snapshot().unwrap();
    let snap_b = net.snapshot().unwrap();
    assert_eq!(
        snap_a.to_bytes(),
        snap_b.to_bytes(),
        "re-capture at the same instant changed bytes"
    );
    let mut twin = fig3_net();
    twin.run(1.0);
    assert_eq!(
        twin.snapshot().unwrap().to_bytes(),
        snap_a.to_bytes(),
        "identical runs captured different bytes"
    );
    // Text round-trip preserves the tree.
    let reparsed = snap::parse(&snap_a.to_text()).unwrap();
    assert_eq!(reparsed.to_bytes(), snap_a.to_bytes());

    net.run(2.0);
    let cont = artifacts(net, FIG3_FLOWS, &[1]);
    assert_artifacts_match(&golden, &cont, "fig3 snapshot+continue");
}

#[test]
fn fig3_rollback_and_resume_replay_byte_identically() {
    let mut seq = fig3_net();
    seq.run(2.0);
    let golden = artifacts(seq, FIG3_FLOWS, &[1]);
    assert!(golden.merged.lines().count() > 1000, "trace too small");

    let mut net = fig3_net();
    net.run(1.0);
    let snap = net.snapshot().unwrap();

    // Rollback: run to completion, then rewind the same network to the
    // checkpoint — trace tail truncated — and replay.
    net.run(2.0);
    net.restore(&snap).unwrap();
    net.run(2.0);
    let rolled = artifacts(net, FIG3_FLOWS, &[1]);
    assert_artifacts_match(&golden, &rolled, "fig3 rollback");

    // Resume: restore into a freshly built topology and run the tail.
    let mut fresh = fig3_net();
    fresh.restore(&snap).unwrap();
    fresh.run(2.0);
    let resumed = artifacts(fresh, FIG3_FLOWS, &[1]);
    assert_resumed_match(&golden, &resumed, &snap, "fig3 resume");
}

#[test]
fn tandem_rollback_and_resume_replay_byte_identically() {
    let mut seq = tandem_net();
    seq.run(8.0);
    let golden = artifacts(seq, TANDEM_FLOWS, &[0]);
    assert!(golden.merged.lines().count() > 1000, "trace too small");
    // Non-trivial scenario: churn purged bytes mid-path.
    let tandem = golden.flows.iter().find(|&&(f, _)| f == 0).unwrap();
    assert!(tandem.1.purged_bytes > 0, "{:?}", tandem.1);

    // Checkpoint instants bracketing the outage and both churn events.
    for t in [0.5, 1.02, 2.5, 3.5] {
        let mut net = tandem_net();
        net.run(t);
        let snap = net.snapshot().unwrap();

        net.run(8.0);
        net.restore(&snap).unwrap();
        net.run(8.0);
        let rolled = artifacts(net, TANDEM_FLOWS, &[0]);
        assert_artifacts_match(&golden, &rolled, &format!("tandem rollback t={t}"));

        let mut fresh = tandem_net();
        fresh.restore(&snap).unwrap();
        fresh.run(8.0);
        let resumed = artifacts(fresh, TANDEM_FLOWS, &[0]);
        assert_resumed_match(&golden, &resumed, &snap, &format!("tandem resume t={t}"));
    }
}

#[test]
fn tandem_resume_runs_parallel_byte_identically() {
    let mut seq = tandem_net();
    seq.run(8.0);
    let golden = artifacts(seq, TANDEM_FLOWS, &[0]);

    // Restore a mid-run checkpoint into a fresh network and finish the
    // run *sharded*: the parallel tail must still be the golden tail.
    for n in [1usize, 2, 4] {
        let mut net = tandem_net();
        net.run(2.5);
        let snap = net.snapshot().unwrap();

        let mut fresh = tandem_net();
        fresh.restore(&snap).unwrap();
        fresh.run_parallel(8.0, n);
        let resumed = artifacts(fresh, TANDEM_FLOWS, &[0]);
        assert_resumed_match(&golden, &resumed, &snap, &format!("tandem parallel n={n}"));
    }
}

/// A checkpoint written by an earlier format (version 1 kept link
/// completions in the event list, version 2 carried a per-link `train`
/// list) is refused with a typed error naming both versions — never
/// misread, never a panic.
#[test]
fn older_format_snapshot_is_refused_with_a_typed_error() {
    let mut net = tandem_net();
    net.run(1.5);
    let snap = net.snapshot().unwrap();
    let current = hpfq::sim::SNAPSHOT_VERSION;
    assert_eq!(snap.get("v").unwrap().as_u64().unwrap(), current);
    for version in 1..current {
        let older = Value::Map(
            snap.entries()
                .unwrap()
                .iter()
                .map(|(k, v)| match k.as_str() {
                    "v" => (k.clone(), Value::U64(version)),
                    _ => (k.clone(), v.clone()),
                })
                .collect(),
        );
        let err = tandem_net().restore(&older).unwrap_err();
        assert!(
            err.what.contains(&format!("version {version}"))
                && err.what.contains(&format!("expected {current}")),
            "{err:?}"
        );
    }
    // The same bytes under the current version restore fine.
    tandem_net().restore(&snap).unwrap();
}

/// One link, three leaves, one CBR source attached (flow 1 on the first
/// leaf); the other two leaves are returned for sources attached later.
fn late_attach_net() -> (Network<MixedScheduler, Obs>, [hpfq::core::NodeId; 2]) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
        10e6,
        move |r| kind.build(r),
        sink(),
    );
    let root = bld.root();
    let first = bld.add_leaf(root, 0.4).unwrap();
    let late = [
        bld.add_leaf(root, 0.3).unwrap(),
        bld.add_leaf(root, 0.3).unwrap(),
    ];
    let mut net: Network<MixedScheduler, Obs> = Network::new();
    net.add_link(bld.build());
    net.add_route(
        1,
        CbrSource::new(1, PKT, 2e6, 0.0, f64::INFINITY),
        Route::single(first, None, 0.0),
    );
    (net, late)
}

fn late_cbr(flow: u32, start: f64) -> CbrSource {
    CbrSource::new(flow, PKT, 2e6, start, f64::INFINITY)
}

/// `Network::run` starts each source exactly once: it keeps a cursor past
/// the slots it has already started rather than probing every slot per
/// segment, so whatever rewrites the slots (a restore) must reset it. A
/// CBR source started twice offers twice the packets, and one never
/// started offers none — the offered counts are the witness.
#[test]
fn sources_attached_between_segments_or_after_restore_start_exactly_once() {
    let offered =
        |net: &Network<MixedScheduler, Obs>| [1, 2, 3].map(|f| net.stats.flow(f).offered_packets);
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
    let snap = net.snapshot().unwrap();
    net.add_route(2, late_cbr(2, 0.1), Route::single(late[0], None, 0.0));
    net.run(0.15);
    net.run(0.2);
    net.add_route(3, late_cbr(3, 0.2), Route::single(late[1], None, 0.0));
    net.run(0.3);
    net.run(0.5);
    assert_eq!(offered(&net), want, "segmented run");

    // Rollback: the same network returns to the one-source checkpoint
    // (its cursor stood past three slots), then re-attaches and re-runs.
    net.restore(&snap).unwrap();
    net.add_route(2, late_cbr(2, 0.1), Route::single(late[0], None, 0.0));
    net.add_route(3, late_cbr(3, 0.2), Route::single(late[1], None, 0.0));
    net.run(0.5);
    assert_eq!(offered(&net), want, "rollback then attach");

    // Resume: a fresh network takes the checkpoint (flow 1 arrives
    // already started) and gains the other two afterwards.
    let (mut fresh, late) = late_attach_net();
    fresh.restore(&snap).unwrap();
    fresh.add_route(2, late_cbr(2, 0.1), Route::single(late[0], None, 0.0));
    fresh.run(0.15);
    fresh.add_route(3, late_cbr(3, 0.2), Route::single(late[1], None, 0.0));
    fresh.run(0.5);
    assert_eq!(offered(&fresh), want, "resume then attach");
}

/// `snap` with the value under `key` replaced.
fn with_entry(snap: &Value, key: &str, value: Value) -> Value {
    Value::Map(
        snap.entries()
            .unwrap()
            .iter()
            .map(|(k, v)| (k.clone(), if k == key { value.clone() } else { v.clone() }))
            .collect(),
    )
}

/// A snapshot is untrusted: a queued event or flow-owner entry that names
/// a source or hop the snapshot's own tables lack, or a time no run could
/// have queued, is a typed error at `restore` — it used to restore `Ok`
/// and panic the next `run` with an index out of bounds — and the refused
/// restore leaves the network exactly as it was.
#[test]
fn snapshot_naming_an_unknown_source_or_hop_is_refused_not_run() {
    use hpfq::core::Packet;

    // The reported case first: one source, a first event `["wake", 9999]`.
    let one_source = || {
        let kind = SchedulerKind::Wf2qPlus;
        let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
            LINK,
            move |r| kind.build(r),
            sink(),
        );
        let root = bld.root();
        let leaf = bld.add_leaf(root, 1.0).unwrap();
        let mut net = Network::single_link(bld.build());
        net.add_route(
            7,
            CbrSource::new(7, PKT, 8e6, 0.0, 5.0),
            Route::open_loop(leaf),
        );
        net
    };
    let wake = |i: u64| Value::List(vec![Value::Str("wake".into()), Value::U64(i)]);
    let mut net = one_source();
    net.run(0.1);
    let snap = net.snapshot().unwrap();
    let mut events = snap.get("events").unwrap().items().unwrap().to_vec();
    assert_eq!(events.len(), 1, "the source's one pending wake");
    let t = events[0].items().unwrap()[0].clone();
    events[0] = Value::List(vec![t, Value::U64(1 << 56 | 9999), wake(9999)]);
    let err = one_source()
        .restore(&with_entry(&snap, "events", Value::List(events)))
        .unwrap_err();
    assert!(err.what.contains("source 9999"), "{err:?}");

    // One doctored field per case, on the tandem: four sources, source 3
    // (flow 0) on a three-hop route, the others on one hop.
    let mut net = tandem_net();
    net.run(1.5);
    let snap = net.snapshot().unwrap();
    let bytes = snap.to_bytes();
    let events = snap.get("events").unwrap().items().unwrap().to_vec();
    let pkt = Packet::new(77, 0, PKT, 1.4).save();
    let event = |t: f64, minor: u64, body: Vec<Value>| {
        Value::List(vec![Value::F64(t), Value::U64(minor), Value::List(body)])
    };
    let tagged = |tag: &str, rest: Vec<Value>| {
        let mut body = vec![Value::Str(tag.into())];
        body.extend(rest);
        body
    };
    let churn = Value::List(vec![Value::Str("churn".into())]);
    let cases: Vec<(&str, Value)> = vec![
        (
            "source 4",
            event(1.6, 1 << 56 | 4, tagged("wake", vec![Value::U64(4)])),
        ),
        (
            "source 4",
            event(
                1.6,
                3 << 56 | 77,
                tagged("arrive", vec![Value::U64(4), Value::U64(0), pkt.clone()]),
            ),
        ),
        (
            "hop 3 of source 3",
            event(
                1.6,
                3 << 56 | 77,
                tagged("arrive", vec![Value::U64(3), Value::U64(3), pkt.clone()]),
            ),
        ),
        (
            "hop 1 of source 0",
            event(
                1.6,
                3 << 56 | 77,
                tagged("arrive", vec![Value::U64(0), Value::U64(1), pkt.clone()]),
            ),
        ),
        (
            "source 9",
            event(
                1.6,
                4 << 56 | 77,
                tagged("deliver", vec![Value::U64(9), pkt.clone()]),
            ),
        ),
        (
            "source 4",
            event(
                1.6,
                5 << 56 | 4 << 16,
                tagged("detach", vec![Value::U64(4), Value::U64(0), churn.clone()]),
            ),
        ),
        (
            "hop 5 of source 3",
            event(
                1.6,
                5 << 56 | 3 << 16 | 5,
                tagged("detach", vec![Value::U64(3), Value::U64(5), churn]),
            ),
        ),
        (
            "not a finite time",
            event(f64::NAN, 1 << 56, tagged("wake", vec![Value::U64(0)])),
        ),
        (
            "not a finite time",
            event(f64::INFINITY, 1 << 56, tagged("wake", vec![Value::U64(0)])),
        ),
        (
            "after the clock",
            event(1.25, 1 << 56, tagged("wake", vec![Value::U64(0)])),
        ),
        (
            "does not match its content",
            event(1.6, 1 << 56 | 1, tagged("wake", vec![Value::U64(0)])),
        ),
    ];
    // The legitimate forms of the doctored events are accepted.
    let mut fine = events.clone();
    fine.push(event(
        1.6,
        3 << 56 | 77,
        tagged("arrive", vec![Value::U64(3), Value::U64(2), pkt]),
    ));
    tandem_net()
        .restore(&with_entry(&snap, "events", Value::List(fine)))
        .unwrap();
    for (want, doctored) in cases {
        // First in the list, as in the report: nothing may be scheduled
        // before the refusal.
        let mut hostile = vec![doctored];
        hostile.extend(events.iter().cloned());
        let err = net
            .restore(&with_entry(&snap, "events", Value::List(hostile)))
            .unwrap_err();
        assert!(err.what.contains(want), "{want}: {err:?}");
        assert_eq!(
            net.snapshot().unwrap().to_bytes(),
            bytes,
            "{want}: network touched"
        );
    }
    let mut owners = snap.get("flow_owner").unwrap().items().unwrap().to_vec();
    owners[0] = Value::List(vec![Value::U64(0), Value::U64(4)]);
    let err = net
        .restore(&with_entry(&snap, "flow_owner", Value::List(owners)))
        .unwrap_err();
    assert!(
        err.what.contains("flow-owner entry names source 4"),
        "{err:?}"
    );
    assert_eq!(net.snapshot().unwrap().to_bytes(), bytes);
    // Untouched means it still runs to the end like the unharmed run.
    net.run(5.5);
    let mut golden = tandem_net();
    golden.run(5.5);
    assert_artifacts_match(
        &artifacts(golden, TANDEM_FLOWS, &[0]),
        &artifacts(net, TANDEM_FLOWS, &[0]),
        "after refused restores",
    );
}

/// The flow-owner list is redundant with the source table — each flow id is
/// owned by the last slot registered under it — and `restore` holds the
/// snapshot to that: a list that points a flow at another flow's source,
/// names a flow twice, leaves one out or is out of order used to restore
/// `Ok` and hand the flow's completions and deliveries to the wrong
/// source. Each is a typed refusal that leaves the network as it was.
#[test]
fn flow_owner_list_that_disagrees_with_the_source_table_is_refused() {
    let mut net = tandem_net();
    net.run(1.5);
    let snap = net.snapshot().unwrap();
    let bytes = snap.to_bytes();
    let owners = snap.get("flow_owner").unwrap().items().unwrap().to_vec();
    let pair = |flow: u64, idx: u64| Value::List(vec![Value::U64(flow), Value::U64(idx)]);
    // Source 3 carries flow 0; sources 0..3 the cross flows 100..103.
    assert_eq!(
        owners,
        vec![pair(0, 3), pair(100, 0), pair(101, 1), pair(102, 2)]
    );
    let doctored = |at: usize, entry: Value| {
        let mut list = owners.clone();
        list[at] = entry;
        list
    };
    let swapped = {
        let mut list = owners.clone();
        list.swap(1, 2);
        list
    };
    let cases: Vec<(&str, Vec<Value>)> = vec![
        // Flow 100's completions routed over flow 101's source.
        ("entry 1 is flow 100 → source 1", doctored(1, pair(100, 1))),
        // A flow no source carries, pointed at a real slot.
        ("entry 1 is flow 7 → source 0", doctored(1, pair(7, 0))),
        // Two entries for one flow.
        ("entry 2 is flow 100 → source 1", doctored(2, pair(100, 1))),
        ("entry 4 is flow 102 → source 2", {
            let mut list = owners.clone();
            list.push(pair(102, 2));
            list
        }),
        // A flow left out.
        ("entry 3 is nothing", owners[..3].to_vec()),
        ("entry 0 is flow 100 → source 0", owners[1..].to_vec()),
        // Not in flow order: no `snapshot` writes that.
        ("entry 1 is flow 101 → source 1", swapped),
    ];
    for (want, list) in cases {
        let err = net
            .restore(&with_entry(&snap, "flow_owner", Value::List(list)))
            .unwrap_err();
        assert!(err.what.contains(want), "{want}: {err:?}");
        assert_eq!(
            net.snapshot().unwrap().to_bytes(),
            bytes,
            "{want}: network touched"
        );
    }
    // The honest list restores.
    net.run(1.7);
    net.restore(&snap).unwrap();
    assert_eq!(net.snapshot().unwrap().to_bytes(), bytes);
}

/// A flow id registered twice is owned by the later slot, in the snapshot
/// as in the run, and the earlier slot's absence from the owner list is
/// what `restore` expects.
#[test]
fn shadowed_registration_round_trips_through_a_snapshot() {
    let build = || {
        let kind = SchedulerKind::Wf2qPlus;
        let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
            LINK,
            move |r| kind.build(r),
            sink(),
        );
        let root = bld.root();
        let leaves = [0.5, 0.25, 0.25].map(|phi| bld.add_leaf(root, phi).unwrap());
        let mut net = Network::single_link(bld.build());
        for (flow, leaf) in [(7, leaves[0]), (9, leaves[1]), (7, leaves[2])] {
            net.add_route(
                flow,
                CbrSource::new(flow, PKT, 8e6, 0.0, 5.0),
                Route::open_loop(leaf),
            );
        }
        net
    };
    let mut net = build();
    net.run(0.5);
    let snap = net.snapshot().unwrap();
    let pair = |flow: u64, idx: u64| Value::List(vec![Value::U64(flow), Value::U64(idx)]);
    assert_eq!(
        snap.get("flow_owner").unwrap().items().unwrap(),
        [pair(7, 2), pair(9, 1)]
    );
    // The shadowed slot claimed back: refused.
    let err = net
        .restore(&with_entry(
            &snap,
            "flow_owner",
            Value::List(vec![pair(7, 0), pair(9, 1)]),
        ))
        .unwrap_err();
    assert!(
        err.what
            .contains("the source table gives flow 7 → source 2"),
        "{err:?}"
    );
    assert_eq!(net.snapshot().unwrap().to_bytes(), snap.to_bytes());
    // Rollback gives the same bytes back; a resume runs on as the
    // original does.
    net.run(1.0);
    net.restore(&snap).unwrap();
    assert_eq!(net.snapshot().unwrap().to_bytes(), snap.to_bytes());
    let mut resumed = build();
    resumed.restore(&snap).unwrap();
    net.run(2.0);
    resumed.run(2.0);
    assert_eq!(
        resumed.snapshot().unwrap().get("flow_owner").unwrap(),
        snap.get("flow_owner").unwrap()
    );
    for flow in [7, 9] {
        assert!(net.stats.flow(flow).packets > 0);
        assert_eq!(
            net.stats.flow(flow),
            resumed.stats.flow(flow),
            "flow {flow}"
        );
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `Hierarchy::save_state` of the tree below, serialized, as written by
/// the commit before the node table was split into leaf and internal
/// arrays (PR 19). The encoding is per `NodeId` in creation order and
/// must not notice how the nodes are stored.
const HIERARCHY_SNAPSHOT_LEN: usize = 4321;
const HIERARCHY_SNAPSHOT_FNV1A: u64 = 0xe8d5_7f5f_1b87_5e43;

/// A depth-3 tree caught mid-run: leaves and classes created interleaved,
/// a packet in flight, a second backlogged subtree, an idle leaf, one leaf
/// draining towards removal and one added by churn after the build.
#[test]
fn hierarchy_snapshot_encoding_is_unchanged() {
    use hpfq::core::Packet;
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld = Hierarchy::builder(10e6, move |r| kind.build(r));
    let root = bld.root();
    let a = bld.add_internal(root, 0.6).unwrap();
    let l0 = bld.add_leaf(root, 0.2).unwrap();
    let a1 = bld
        .add_internal_with(a, 0.5, SchedulerKind::Wfq.build(3e6))
        .unwrap();
    let l1 = bld.add_leaf(a, 0.5).unwrap();
    let l2 = bld.add_leaf(a1, 0.75).unwrap();
    let l3 = bld.add_leaf(a1, 0.25).unwrap();
    let mut h = bld.build();
    let mut id = 0u64;
    let mut offer = |h: &mut Hierarchy<MixedScheduler>, leaf, flow: u32, len: u32, t: f64| {
        id += 1;
        h.try_enqueue(leaf, Packet::new(id, flow, len, t)).unwrap();
    };
    for round in 0..3 {
        let t = f64::from(round) * 1e-4;
        offer(&mut h, l2, 2, 1500, t);
        offer(&mut h, l1, 1, 400, t);
        offer(&mut h, l3, 3, 900, t);
    }
    let mut now = 3e-4;
    for _ in 0..3 {
        let p = h.start_transmission_at(now).unwrap();
        now += p.bits() / 10e6;
        h.complete_transmission_at(now);
    }
    // Churn: a leaf joins, a backlogged one is removed and drains its head.
    let l4 = h.add_leaf(root, 0.1).unwrap();
    offer(&mut h, l4, 4, 64, now);
    assert_eq!(h.remove_leaf(l3).unwrap().len(), 2);
    assert!(h.is_detached(l3) && h.leaf_queue_len(l3) == 1);
    assert!(h.start_transmission_at(now).is_some());
    assert_eq!(h.leaf_queue_len(l0), 0);

    let bytes = h.save_state().to_bytes();
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (HIERARCHY_SNAPSHOT_LEN, HIERARCHY_SNAPSHOT_FNV1A),
        "hierarchy snapshot encoding moved: {:#x}",
        fnv1a(&bytes)
    );
}
