//! Integration reproduction of the paper's Fig. 2: exact service orders of
//! WFQ, WF²Q and WF²Q+ on the 11-session example, cross-checked against
//! the GPS fluid finish times, all driven through the full `Hierarchy`
//! machinery (depth-1 tree = standalone server).
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use hpfq::core::{Hierarchy, Packet, SchedulerKind};
use hpfq::fluid::{Arrival, FluidSim, FluidTree};
use hpfq::obs::InvariantObserver;

/// Runs the Fig. 2 workload through a depth-1 hierarchy and returns the
/// session index of each transmitted packet. An [`InvariantObserver`]
/// rides along; any breach of the tag/virtual-time/SEFF invariants fails
/// the calling test.
fn order(kind: SchedulerKind) -> Vec<u32> {
    let mut h =
        Hierarchy::builder_with_observer(1.0, move |r| kind.build(r), InvariantObserver::new())
            .build();
    let root = h.root();
    let big = h.add_leaf(root, 0.5).unwrap();
    let mut small = Vec::new();
    for _ in 0..10 {
        small.push(h.add_leaf(root, 0.05).unwrap());
    }
    let mut id = 0;
    for _ in 0..11 {
        id += 1;
        h.enqueue(big, Packet::new(id, 0, 1, 0.0));
    }
    for (j, &leaf) in small.iter().enumerate() {
        id += 1;
        h.enqueue(leaf, Packet::new(id, 1 + j as u32, 1, 0.0));
    }
    let mut out = Vec::new();
    while let Some(p) = h.dequeue() {
        out.push(p.flow);
    }
    let inv = h.observer();
    assert!(inv.is_clean(), "{}: {}", kind.name(), inv.summary());
    out
}

#[test]
fn gps_fluid_finish_times_match_the_paper() {
    let mut tree = FluidTree::new();
    let big = tree.add_leaf(tree.root(), 0.5).unwrap();
    let mut small = Vec::new();
    for _ in 0..10 {
        small.push(tree.add_leaf(tree.root(), 0.05).unwrap());
    }
    let mut arr: Vec<Arrival> = (0..11)
        .map(|k| Arrival {
            time: 0.0,
            leaf: big,
            bits: 1.0,
            id: k,
        })
        .collect();
    for (j, &l) in small.iter().enumerate() {
        arr.push(Arrival {
            time: 0.0,
            leaf: l,
            bits: 1.0,
            id: 100 + j as u64,
        });
    }
    let gps = FluidSim::run(&tree, 1.0, &arr);
    // Paper §3.1: finish time 2k for p1^k (k=1..10), 21 for p1^11, 20 for
    // the single packets of sessions 2..11.
    for k in 0..10u64 {
        assert!((gps.finish_of(k).unwrap() - 2.0 * (k + 1) as f64).abs() < 1e-9);
    }
    assert!((gps.finish_of(10).unwrap() - 21.0).abs() < 1e-9);
    for j in 0..10u64 {
        assert!((gps.finish_of(100 + j).unwrap() - 20.0).abs() < 1e-9);
    }
}

#[test]
fn wfq_sends_the_burst_back_to_back() {
    let o = order(SchedulerKind::Wfq);
    assert_eq!(o.len(), 21);
    // Paper Fig. 2 middle timeline: p1^1..p1^10 back-to-back, then the ten
    // single packets, then p1^11.
    assert_eq!(&o[..10], &[0; 10]);
    let mut middle: Vec<u32> = o[10..20].to_vec();
    middle.sort_unstable();
    assert_eq!(middle, (1..=10).collect::<Vec<_>>());
    assert_eq!(o[20], 0);
}

#[test]
fn wf2q_interleaves() {
    let o = order(SchedulerKind::Wf2q);
    assert_eq!(o.len(), 21);
    for (slot, &s) in o.iter().enumerate() {
        if slot % 2 == 0 {
            assert_eq!(s, 0, "slot {slot}: {o:?}");
        } else {
            assert_ne!(s, 0, "slot {slot}: {o:?}");
        }
    }
}

#[test]
fn wf2q_plus_interleaves_identically_to_wf2q() {
    assert_eq!(order(SchedulerKind::Wf2qPlus), order(SchedulerKind::Wf2q));
}

/// The quantitative version of §3.1's "inaccuracy" discussion: over any
/// prefix of the schedule, WF²Q+'s cumulative service to session 1 stays
/// within one packet of the GPS share, while WFQ's deviates by ~N/2.
#[test]
fn service_discrepancy_vs_gps() {
    let measure = |kind: SchedulerKind| -> f64 {
        let o = order(kind);
        let mut served = 0.0_f64;
        let mut worst: f64 = 0.0;
        for (slot, &s) in o.iter().enumerate() {
            if s == 0 {
                served += 1.0;
            }
            let elapsed = (slot + 1) as f64;
            // GPS serves session 1 at exactly half the link until t=20.
            if elapsed <= 20.0 {
                worst = worst.max((served - 0.5 * elapsed).abs());
            }
        }
        worst
    };
    assert!(measure(SchedulerKind::Wf2qPlus) <= 1.0 + 1e-9);
    assert!(measure(SchedulerKind::Wf2q) <= 1.0 + 1e-9);
    assert!(measure(SchedulerKind::Wfq) >= 4.5);
}
