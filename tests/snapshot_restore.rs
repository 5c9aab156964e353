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

mod common;

use common::{fig3_net, replaced, sink, tandem_net, Obs, LINK, PKT};
use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::merge_traces;
use hpfq::obs::snap::{self, Value};
use hpfq::sim::{CbrSource, FlowStats, LinkLedger, Network, Route, ServiceRecord};

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

/// A snapshot is untrusted: a queued event that names a source or hop the
/// snapshot's own tables lack, or a time no run could have queued, is a
/// typed error at `restore` — it used to restore `Ok` and panic the next
/// `run` with an index out of bounds — and the refused restore leaves the
/// network exactly as it was.
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
    events[0] = Value::List(vec![t, wake(9999)]);
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
    let event = |t: f64, body: Vec<Value>| Value::List(vec![Value::F64(t), Value::List(body)]);
    let tagged = |tag: &str, rest: Vec<Value>| {
        let mut body = vec![Value::Str(tag.into())];
        body.extend(rest);
        body
    };
    let churn = Value::List(vec![Value::Str("churn".into())]);
    let cases: Vec<(&str, Value)> = vec![
        ("source 4", event(1.6, tagged("wake", vec![Value::U64(4)]))),
        (
            "source 4",
            event(
                1.6,
                tagged("arrive", vec![Value::U64(4), Value::U64(0), pkt.clone()]),
            ),
        ),
        (
            "hop 3 of source 3",
            event(
                1.6,
                tagged("arrive", vec![Value::U64(3), Value::U64(3), pkt.clone()]),
            ),
        ),
        (
            "hop 1 of source 0",
            event(
                1.6,
                tagged("arrive", vec![Value::U64(0), Value::U64(1), pkt.clone()]),
            ),
        ),
        (
            "source 9",
            event(1.6, tagged("deliver", vec![Value::U64(9), pkt.clone()])),
        ),
        (
            "source 4",
            event(
                1.6,
                tagged("detach", vec![Value::U64(4), Value::U64(0), churn.clone()]),
            ),
        ),
        (
            "hop 5 of source 3",
            event(
                1.6,
                tagged("detach", vec![Value::U64(3), Value::U64(5), churn]),
            ),
        ),
        (
            "not a finite time",
            event(f64::NAN, tagged("wake", vec![Value::U64(0)])),
        ),
        (
            "not a finite time",
            event(f64::INFINITY, tagged("wake", vec![Value::U64(0)])),
        ),
        (
            "after the clock",
            event(1.25, tagged("wake", vec![Value::U64(0)])),
        ),
    ];
    // The legitimate forms of the doctored events are accepted.
    let mut fine = events.clone();
    fine.push(event(
        1.6,
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

/// A source or route a constructor would refuse is refused in a snapshot
/// too, and the network is left as it was. A zero, negative or NaN packet
/// interval used to restore `Ok` and then keep `run` from ever returning;
/// a hop on a link the network lacks, or at a node that is no leaf of its
/// link, used to restore `Ok` and panic at the first arrival.
#[test]
fn sources_and_routes_a_constructor_would_refuse_are_refused() {
    // Sources: on-off (flow 1), CBR (2), Poisson (11), train (31), Poisson (16).
    let mut net = fig3_net();
    net.run(0.5);
    let snap = net.snapshot().unwrap();
    let bytes = snap.to_bytes();
    let cases = [
        ("sources.1.src.interval", Value::F64(0.0)),
        ("sources.1.src.interval", Value::F64(-1.0)),
        ("sources.0.src.interval", Value::F64(f64::NAN)),
        ("sources.2.src.mean_interval", Value::F64(0.0)),
        ("sources.1.route.0.0", Value::U64(1)),
        ("sources.1.route.0.1", Value::U64(0)),
        ("sources.1.route.0.1", Value::U64(99)),
    ];
    for (path, value) in cases {
        let bad = replaced(&snap, path, value);
        assert!(fig3_net().restore(&bad).is_err(), "{path}: accepted");
        assert!(net.restore(&bad).is_err(), "{path}: accepted");
        assert_eq!(net.snapshot().unwrap().to_bytes(), bytes, "{path}");
    }
}

/// A flow id registered twice is owned by the later slot, after a
/// restore as in the run: `restore` rebuilds the owner index from the
/// source table in slot order, as `add_route` built it.
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
    // Rollback gives the same bytes back; a resume runs on as the
    // original does.
    net.run(1.0);
    net.restore(&snap).unwrap();
    assert_eq!(net.snapshot().unwrap().to_bytes(), snap.to_bytes());
    let mut resumed = build();
    resumed.restore(&snap).unwrap();
    net.run(2.0);
    resumed.run(2.0);
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

/// `Hierarchy::save_state` of the tree below, serialized. The encoding is
/// per `NodeId` in creation order and must not notice how the nodes are
/// stored. These are the format-v3 bytes (4 321, FNV-1a
/// `0xe8d5_7f5f_1b87_5e43`, unchanged since before the node table was
/// split into leaf and internal arrays) with exactly the keys format v4
/// rebuilds instead of storing — seven `inv_rate`s and eight
/// `fifo_bytes` — taken out.
const HIERARCHY_SNAPSHOT_LEN: usize = 3982;
const HIERARCHY_SNAPSHOT_FNV1A: u64 = 0x104c_59b3_2556_afa1;

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
