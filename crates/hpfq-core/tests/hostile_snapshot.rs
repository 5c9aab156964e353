//! A snapshot is untrusted input: `Hierarchy::load_state` must refuse one
//! that does not describe a tree it can serve — logical heads, queues, or a
//! scheduler's own state — with a typed error, and leave the tree as it
//! was, instead of accepting it and panicking or spinning at a later
//! dispatch. `tests/hostile_snapshots.rs` at the workspace root runs the
//! same property over mutated real snapshots; these are the directed cases.

use hpfq_core::{Hierarchy, MixedScheduler, NodeId, Packet, SchedulerKind};
use hpfq_obs::snap::Value;

/// root(0) → class(1) → leaves a(2), b(3); leaf c(4) under the root.
fn tree() -> (Hierarchy<MixedScheduler>, [NodeId; 3]) {
    let mut b = Hierarchy::builder(1e6, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = b.root();
    let class = b.add_internal(root, 0.5).unwrap();
    let leaves = [
        b.add_leaf(class, 0.5).unwrap(),
        b.add_leaf(class, 0.5).unwrap(),
        b.add_leaf(root, 0.5).unwrap(),
    ];
    (b.build(), leaves)
}

/// The tree with one packet queued at `a` and one at `c`: the class offers
/// `a`'s, the root one of the two.
fn backlogged() -> Hierarchy<MixedScheduler> {
    let (mut h, [a, _, c]) = tree();
    h.enqueue(a, Packet::new(1, 0, 100, 0.0));
    h.enqueue(c, Packet::new(2, 2, 100, 0.0));
    h
}

/// Map `v` with `key` replaced by `value`.
fn with_key(v: &Value, key: &str, value: Value) -> Value {
    Value::Map(
        v.entries()
            .unwrap()
            .iter()
            .map(|(k, old)| {
                (
                    k.clone(),
                    if k == key { value.clone() } else { old.clone() },
                )
            })
            .collect(),
    )
}

/// What an edit puts in place of the value it finds.
type Edit<'a> = &'a dyn Fn(&Value) -> Value;

/// `v` with the value at the dotted `path` — map keys, and list indices
/// as numbers — replaced by `f` of it.
fn replaced(v: &Value, path: &str, f: Edit) -> Value {
    if path.is_empty() {
        return f(v);
    }
    let (first, rest) = path.split_once('.').unwrap_or((path, ""));
    let at = |k: &str, x: &Value| {
        if k == first {
            replaced(x, rest, f)
        } else {
            x.clone()
        }
    };
    match v {
        Value::Map(pairs) => Value::Map(pairs.iter().map(|(k, x)| (k.clone(), at(k, x))).collect()),
        Value::List(items) => Value::List(
            items
                .iter()
                .enumerate()
                .map(|(i, x)| at(&i.to_string(), x))
                .collect(),
        ),
        _ => panic!("no '{first}' in {v:?}"),
    }
}

/// A tree of one `kind` root over three leaves.
fn three_leaves(kind: SchedulerKind) -> (Hierarchy<MixedScheduler>, [NodeId; 3]) {
    let mut b = Hierarchy::builder(1e6, move |r| kind.build(r));
    let root = b.root();
    let leaves = [0.4, 0.3, 0.3].map(|phi| b.add_leaf(root, phi).unwrap());
    (b.build(), leaves)
}

/// [`three_leaves`] with a 100-byte packet queued at each leaf: the root
/// serves one and queues the other two.
fn three_backlogged(kind: SchedulerKind) -> Hierarchy<MixedScheduler> {
    let (mut h, leaves) = three_leaves(kind);
    for (i, &leaf) in leaves.iter().enumerate() {
        h.enqueue(leaf, Packet::new(i as u64, i as u32, 100, 0.0));
    }
    h
}

/// Each edit of the root scheduler's state — a path below
/// `nodes.0.sched.state` and what to put there — is refused, onto a fresh
/// tree and onto the running one, which still serves its three packets.
fn refused_root_edits(kind: SchedulerKind, edits: &[(&str, Edit)]) {
    let snap = three_backlogged(kind).save_state();
    for (path, f) in edits {
        let bad = replaced(&snap, &format!("nodes.0.sched.state.{path}"), *f);
        let what = format!("{} {path}", kind.name());
        assert!(
            three_leaves(kind).0.load_state(&bad).is_err(),
            "{what}: accepted"
        );
        let mut live = three_backlogged(kind);
        assert!(live.load_state(&bad).is_err(), "{what}: accepted");
        assert_eq!(std::iter::from_fn(|| live.dequeue()).count(), 3, "{what}");
    }
}

/// A `MONOTONE_RANKS` program's queue is popped as a ring: open ranks in
/// increasing order are all it can see. A DRR queue with one rank negated
/// (out of order) or gated behind an eligibility key used to load `Ok` and
/// panic at the next dispatch ("queue is non-empty").
#[test]
fn monotone_queue_out_of_order_or_gated_is_refused() {
    refused_root_edits(
        SchedulerKind::Drr,
        &[
            ("queue.1.primary", &|v| Value::F64(-v.as_f64().unwrap())),
            ("queue.0.elig", &|_| Value::F64(0.0)),
        ],
    );
}

/// A `MONOTONE_RANKS` program's sequence counter is the rank of its next
/// offer, which must land behind everything queued. A FIFO or DRR counter
/// at or below the last queued rank used to load `Ok` and trip the ring's
/// order assertion at the next offer.
#[test]
fn monotone_counter_at_or_below_a_queued_rank_is_refused() {
    for kind in [SchedulerKind::Fifo, SchedulerKind::Drr] {
        refused_root_edits(
            kind,
            &[
                ("program.next", &|v| Value::F64(v.as_f64().unwrap() - 1.0)),
                ("program.next", &|_| Value::F64(0.0)),
            ],
        );
    }
}

/// A WFQ node's GPS clock must have one session per session of its table,
/// with finite tags: a clock one session short used to load `Ok` and index
/// out of bounds at the next dispatch, and a NaN tag panicked inside the
/// load itself.
#[test]
fn gps_clock_of_the_wrong_size_or_with_a_nan_tag_is_refused() {
    refused_root_edits(
        SchedulerKind::Wfq,
        &[
            ("program.clock.sessions", &|v| {
                Value::List(v.items().unwrap()[1..].to_vec())
            }),
            ("program.clock.sessions.0.last_finish", &|_| {
                Value::F64(f64::NAN)
            }),
            ("program.clock.v", &|_| Value::F64(f64::INFINITY)),
        ],
    );
}

/// A DRR deficit that is not finite, or so far below zero that the ring
/// would rotate for ages before the session sends, used to load `Ok` and
/// make the next dispatch spin.
#[test]
fn drr_deficit_that_would_spin_the_ring_is_refused() {
    refused_root_edits(
        SchedulerKind::Drr,
        &[
            ("program.slots.1.deficit", &|_| Value::F64(f64::NAN)),
            ("program.slots.1.deficit", &|_| Value::F64(-1e300)),
        ],
    );
}

/// A scheduler's session serves its child at the child's share. A round
/// robin session's quantum is rebuilt from its share, and one far below
/// the child's would overflow the round counter at the next dispatch.
#[test]
fn session_share_that_is_not_the_childs_is_refused() {
    for kind in [
        SchedulerKind::Rr,
        SchedulerKind::Drr,
        SchedulerKind::Wf2qPlus,
    ] {
        refused_root_edits(kind, &[("sessions.0.phi", &|_| Value::F64(1e-157))]);
    }
}

/// `snap` with `key` of node `node` replaced by `value`.
fn doctored(snap: &Value, node: usize, key: &str, value: Value) -> Value {
    let mut nodes = snap.get("nodes").unwrap().items().unwrap().to_vec();
    nodes[node] = with_key(&nodes[node], key, value);
    with_key(snap, "nodes", Value::List(nodes))
}

#[test]
fn doctored_heads_are_refused_and_the_tree_keeps_serving() {
    let snap = backlogged().save_state();
    let bits = Value::F64(800.0);
    let head = |leaf: u64| Value::List(vec![Value::U64(leaf), bits.clone()]);
    let cases = [
        ("head names an unknown node", 0, "head", head(1_000_000)),
        ("head names an internal node", 1, "head", head(1)),
        ("a leaf's head is another leaf", 2, "head", head(4)),
        (
            "active_child is someone else's child",
            1,
            "active_child",
            Value::U64(4),
        ),
        (
            "active_child is an unknown node",
            1,
            "active_child",
            Value::U64(1_000_000),
        ),
        (
            "a head without an active child",
            1,
            "active_child",
            Value::Null,
        ),
        ("head names a leaf that offers nothing", 0, "head", head(3)),
    ];
    for (what, node, key, value) in cases {
        let bad = doctored(&snap, node, key, value);
        // Onto a freshly rebuilt tree (resume) ...
        let (mut fresh, [a, ..]) = tree();
        assert!(fresh.load_state(&bad).is_err(), "{what}: accepted");
        fresh.enqueue(a, Packet::new(9, 0, 100, 0.0));
        assert_eq!(fresh.dequeue().map(|p| p.id), Some(9), "{what}");
        // ... and onto the running one (rollback): refused, and the queue
        // it held is still served.
        let mut live = backlogged();
        assert!(live.load_state(&bad).is_err(), "{what}: accepted");
        let mut served: Vec<u64> = std::iter::from_fn(|| live.dequeue())
            .map(|p| p.id)
            .collect();
        served.sort_unstable();
        assert_eq!(served, [1, 2], "{what}");
        assert!(live.is_idle(), "{what}");
    }
    // The undoctored snapshot still loads, and serves the same two packets.
    let (mut fresh, _) = tree();
    fresh.load_state(&snap).unwrap();
    assert_eq!(std::iter::from_fn(|| fresh.dequeue()).count(), 2);
}

/// What the next completion would trip over is checked too: an offered
/// head with nothing queued behind it, a transmission in progress with no
/// path to complete.
#[test]
fn doctored_queue_accounting_is_refused() {
    let snap = backlogged().save_state();
    let mut live = backlogged();
    for bad in [
        doctored(&snap, 2, "fifo", Value::List(Vec::new())),
        with_key(&tree().0.save_state(), "transmitting", Value::Bool(true)),
    ] {
        assert!(live.load_state(&bad).is_err());
    }
    assert_eq!(std::iter::from_fn(|| live.dequeue()).count(), 2);
}

/// A scheduler's session table must describe its node: one session per
/// child, backlogged exactly for the children that offer a head. A record
/// dropped or appended, or a session marked backlogged behind a child with
/// nothing queued, is refused — where it used to load and panic the next
/// `enqueue` or `dequeue` — and the tree keeps serving.
#[test]
fn doctored_session_tables_are_refused_and_the_tree_keeps_serving() {
    let one_at_a = || {
        let (mut h, [a, ..]) = tree();
        h.enqueue(a, Packet::new(1, 0, 100, 0.0));
        h
    };
    let snap = one_at_a().save_state();
    // The root serves the class (session 0, in service) and `c` (session 1,
    // idle); its queue is empty while the class is in service.
    let sched = snap.get("nodes").unwrap().items().unwrap()[0]
        .get("sched")
        .unwrap()
        .clone();
    let state = sched.get("state").unwrap().clone();
    let sessions = state.get("sessions").unwrap().items().unwrap().to_vec();
    let backlogged = |record: &Value| with_key(record, "backlogged", Value::Bool(true));
    let queued = |id: u64| {
        Value::map(vec![
            ("id", Value::U64(id)),
            ("elig", Value::F64(0.0)),
            ("primary", Value::F64(1e-4)),
            ("secondary", Value::F64(0.0)),
        ])
    };
    let cases = [
        (
            "the last session record dropped",
            vec![sessions[0].clone()],
            vec![],
        ),
        (
            "a backlogged session appended",
            vec![
                sessions[0].clone(),
                sessions[1].clone(),
                backlogged(&sessions[1]),
            ],
            vec![queued(2)],
        ),
        (
            "an idle child's session marked backlogged",
            vec![sessions[0].clone(), backlogged(&sessions[1])],
            vec![queued(1)],
        ),
    ];
    for (what, sessions, queue) in cases {
        let state = with_key(&state, "sessions", Value::List(sessions));
        let state = with_key(&state, "queue", Value::List(queue));
        let bad = doctored(&snap, 0, "sched", with_key(&sched, "state", state));
        // Onto a freshly rebuilt tree ...
        let (mut fresh, [a, _, c]) = tree();
        assert!(fresh.load_state(&bad).is_err(), "{what}: accepted");
        fresh.enqueue(c, Packet::new(9, 2, 100, 0.0));
        fresh.enqueue(a, Packet::new(8, 0, 100, 0.0));
        let mut served: Vec<u64> = std::iter::from_fn(|| fresh.dequeue())
            .map(|p| p.id)
            .collect();
        served.sort_unstable();
        assert_eq!(served, [8, 9], "{what}");
        // ... and onto the running one, which still serves its packet.
        let mut live = one_at_a();
        assert!(live.load_state(&bad).is_err(), "{what}: accepted");
        live.enqueue(c, Packet::new(9, 2, 100, 0.0));
        let mut served: Vec<u64> = std::iter::from_fn(|| live.dequeue())
            .map(|p| p.id)
            .collect();
        served.sort_unstable();
        assert_eq!(served, [1, 9], "{what}");
        assert!(live.is_idle(), "{what}");
    }
}
