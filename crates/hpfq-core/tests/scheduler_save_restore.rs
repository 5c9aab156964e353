//! Checkpoint/restore identity at the scheduler and hierarchy layer
//! (DESIGN.md §12): `save_state` → fresh construction → `load_state` must
//! reproduce the original's subsequent behaviour *bit-identically* — every
//! dispatch decision, every tag, and the next snapshot's serialized bytes.

use hpfq_core::{Hierarchy, MixedScheduler, NodeScheduler, Packet, SchedulerKind, SessionId};

/// A deterministic packet-length pattern with enough variety to exercise
/// tag arithmetic (primes keep lengths from aliasing into round numbers).
fn len_pattern(i: u64) -> f64 {
    [1000.0, 3000.0, 500.0, 7000.0, 1500.0, 11000.0][(i % 6) as usize]
}

/// Seeds the initial backlog and returns the driver's queue-depth ledger
/// (one entry per session; a positive entry means the session is offered).
fn init(sched: &mut MixedScheduler, n: usize, seed: u64) -> Vec<u64> {
    let queued: Vec<u64> = (0..n as u64).map(|i| 2 + (i + seed) % 4).collect();
    for (i, &q) in queued.iter().enumerate() {
        if q > 0 {
            sched.backlog(SessionId(i), len_pattern(i as u64 + seed), None);
        }
    }
    queued
}

/// Drives `sched` through steps `start..start + steps` of the deterministic
/// dispatch/requeue/churn schedule, recording every selection. `queued` is
/// the ledger from [`init`] (or a snapshot of it), mutated in place so runs
/// can be split and resumed at any step boundary.
fn drive(
    sched: &mut MixedScheduler,
    queued: &mut [u64],
    start: u64,
    steps: u64,
    seed: u64,
) -> Vec<(usize, f64, f64)> {
    let mut log = Vec::new();
    for step in start..start + steps {
        let Some(id) = sched.select_next() else {
            // Everyone drained: restart a new busy period deterministically.
            for (i, q) in queued.iter_mut().enumerate() {
                *q = 1 + (i as u64 + step) % 3;
                sched.backlog(SessionId(i), len_pattern(step + i as u64), None);
            }
            continue;
        };
        let tags = sched.tags(id);
        log.push((id.0, tags.0, tags.1));
        queued[id.0] -= 1;
        // Occasionally a fresh arrival lands on an idle session mid-run.
        let churn = (step * 7 + seed).is_multiple_of(11);
        if churn {
            for (i, q) in queued.iter_mut().enumerate() {
                if *q == 0 && SessionId(i) != id {
                    // Only re-backlog sessions that are idle (not in service).
                    *q = 2;
                    sched.backlog(SessionId(i), len_pattern(step + 1), None);
                    break;
                }
            }
        }
        let next = if queued[id.0] > 0 {
            Some(len_pattern(step + 2))
        } else {
            None
        };
        sched.requeue(id, next);
    }
    log
}

/// For every policy: run to a midpoint, snapshot, run the original to the
/// end; restore the snapshot into a freshly built scheduler and run that to
/// the end. Both continuations must match bit-for-bit, and re-saving the
/// restored scheduler must reproduce the snapshot bytes.
#[test]
fn every_policy_round_trips_mid_run() {
    const N: usize = 5;
    for kind in SchedulerKind::ALL {
        // Reference run, uninterrupted: 400 steps straight through.
        let mut whole = kind.build(1e6);
        for _ in 0..N {
            whole.add_session(1.0 / N as f64);
        }
        let mut whole_q = init(&mut whole, N, 3);
        let mut full_log = drive(&mut whole, &mut whole_q, 0, 200, 3);
        full_log.extend(drive(&mut whole, &mut whole_q, 200, 200, 3));

        // Interrupted run: same first half, snapshot, restore into a fresh
        // scheduler, same second half.
        let mut first = kind.build(1e6);
        for _ in 0..N {
            first.add_session(1.0 / N as f64);
        }
        let mut first_q = init(&mut first, N, 3);
        let mut log = drive(&mut first, &mut first_q, 0, 200, 3);
        let snap = first.save_state();
        let bytes = snap.to_bytes();

        let mut resumed = kind.build(1e6);
        for _ in 0..N {
            resumed.add_session(1.0 / N as f64);
        }
        resumed
            .load_state(&snap, N)
            .unwrap_or_else(|e| panic!("{}: load failed: {e}", kind.name()));
        assert_eq!(
            resumed.save_state().to_bytes(),
            bytes,
            "{}: save→load→save is not byte-stable",
            kind.name()
        );

        log.extend(drive(&mut resumed, &mut first_q, 200, 200, 3));
        assert_eq!(
            log,
            full_log,
            "{}: interrupted run diverges from the uninterrupted one",
            kind.name()
        );
    }
}

/// Restoring must also reproduce states captured *mid-service* (between
/// `select_next` and `requeue`) — the common case for a snapshot taken
/// while a packet is on the wire.
#[test]
fn round_trip_with_session_in_service() {
    for kind in SchedulerKind::ALL {
        let mut s = kind.build(1e6);
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(a, 1000.0, None);
        s.backlog(b, 3000.0, None);
        let sel = s.select_next().expect("a session is backlogged");
        let snap = s.save_state();

        let mut r = kind.build(1e6);
        r.add_session(0.5);
        r.add_session(0.5);
        r.load_state(&snap, 2).unwrap();
        assert_eq!(r.save_state().to_bytes(), snap.to_bytes());
        assert_eq!(r.backlogged(), s.backlogged());

        // Completing service must pick the same successor in both.
        s.requeue(sel, Some(500.0));
        r.requeue(sel, Some(500.0));
        let next_s = s.select_next();
        let next_r = r.select_next();
        assert_eq!(next_s, next_r, "{}: divergent successor", kind.name());
    }
}

fn pkt(id: u64, flow: u32, bytes: u32) -> Packet {
    Packet::new(id, flow, bytes, 0.0)
}

/// Hierarchy round trip across a mid-transmission boundary, including a
/// churn-added leaf that exists only in the snapshot (not in the freshly
/// rebuilt topology).
#[test]
fn hierarchy_round_trips_with_churn_leaf() {
    let build = || {
        let mut b = Hierarchy::builder(1e6, |r| SchedulerKind::Wf2qPlus.build(r));
        let root = b.root();
        let cls = b.add_internal(root, 0.5).unwrap();
        let l0 = b.add_leaf(cls, 0.5).unwrap();
        let l1 = b.add_leaf(cls, 0.5).unwrap();
        let l2 = b.add_leaf(root, 0.3).unwrap();
        (b.build(), l0, l1, l2)
    };

    let (mut h, l0, l1, l2) = build();
    // Mid-run churn: a fourth leaf attaches under the root.
    let l3 = h.add_leaf(h.root(), 0.2).unwrap();
    for i in 0..12u64 {
        h.enqueue(l0, pkt(i, 0, 125 + (i as u32 % 3) * 300));
        h.enqueue(l1, pkt(100 + i, 1, 1500));
        h.enqueue(l2, pkt(200 + i, 2, 625));
    }
    h.enqueue(l3, pkt(300, 3, 700));
    // Serve a few packets, then snapshot in the middle of a transmission.
    for _ in 0..5 {
        h.dequeue();
    }
    let started = h.start_transmission_at(0.5).expect("root offers a packet");
    let snap = h.save_state();
    let bytes = snap.to_bytes();

    // Restore onto the *fresh* topology (no l3 — it must be re-created).
    let (mut r, _, _, _) = build();
    r.load_state(&snap).expect("restore");
    assert_eq!(r.save_state().to_bytes(), bytes, "save→load→save unstable");
    assert!(r.is_transmitting());
    assert_eq!(r.node_count(), h.node_count());

    // Both must finish the in-flight packet and then serve identically.
    let p_h = h.complete_transmission_at(0.6);
    let p_r = r.complete_transmission_at(0.6);
    assert_eq!(p_h, p_r);
    assert_eq!(p_h.id, started.id);
    loop {
        let a = h.dequeue();
        let b = r.dequeue();
        assert_eq!(a, b, "post-restore service order diverged");
        if a.is_none() {
            break;
        }
    }
}

/// A snapshot whose topology disagrees with the rebuilt hierarchy must be
/// rejected, not silently mis-wired.
#[test]
fn hierarchy_restore_rejects_topology_mismatch() {
    let mut b = Hierarchy::builder(1e6, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = b.root();
    b.add_leaf(root, 0.5).unwrap();
    let h = b.build();
    let snap = h.save_state();

    // Rebuilt with an internal node where the snapshot has a leaf.
    let mut b2 = Hierarchy::builder(1e6, |r| SchedulerKind::Wf2qPlus.build(r));
    let root2 = b2.root();
    b2.add_internal(root2, 0.5).unwrap();
    let mut wrong = b2.build();
    assert!(wrong.load_state(&snap).is_err());
}
