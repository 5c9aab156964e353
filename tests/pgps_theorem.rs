//! The Parekh–Gallager PGPS theorem as an end-to-end oracle: for any
//! arrival pattern, every packet departs a WFQ server no later than its
//! GPS fluid finish time plus one maximum packet transmission time
//! (paper §3.1: "the delay bound provided by WFQ is within one packet
//! transmission time of that provided by GPS"). WF²Q satisfies the same
//! per-packet bound; WF²Q+ does not track V_GPS per packet (see the
//! third test) but preserves the leaky-bucket delay bound.
//!
//! This cross-validates three subsystems at once: the fluid simulator,
//! the GPS virtual clock inside WFQ/WF²Q, and the DES driving them.
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use hpfq::core::{Hierarchy, SchedulerKind};
use hpfq::fluid::{Arrival, FluidSim, FluidTree};
use hpfq::sim::{Network, Route, SmallRng, TraceSource};

const LINK: f64 = 1e6;

/// One random trial: returns the largest (packet departure − GPS finish)
/// over all packets, in seconds.
fn worst_lag_vs_gps(kind: SchedulerKind, seed: u64) -> (f64, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nflows = rng.gen_range_usize(2, 7);
    let raw: Vec<f64> = (0..nflows).map(|_| rng.gen_range_f64(0.5, 3.0)).collect();
    let total: f64 = raw.iter().sum();

    // Random bursty arrivals with mixed packet sizes.
    let mut flows: Vec<Vec<(f64, u32)>> = Vec::new();
    let mut l_max = 0u32;
    for _ in 0..nflows {
        let mut entries = Vec::new();
        for _ in 0..rng.gen_range_u32(1, 5) {
            let t0 = rng.gen_range_f64(0.0, 1.0);
            for k in 0..rng.gen_range_u32(1, 15) {
                let len = rng.gen_range_u32(100, 1500);
                l_max = l_max.max(len);
                entries.push((t0 + k as f64 * 1e-5, len));
            }
        }
        entries.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        flows.push(entries);
    }

    // Fluid GPS run.
    let mut tree = FluidTree::new();
    let fleaves: Vec<_> = raw
        .iter()
        .map(|&w| tree.add_leaf(tree.root(), w / total).unwrap())
        .collect();
    let mut arr = Vec::new();
    for (i, entries) in flows.iter().enumerate() {
        for (k, &(t, len)) in entries.iter().enumerate() {
            arr.push(Arrival {
                time: t,
                leaf: fleaves[i],
                bits: f64::from(len) * 8.0,
                id: (i * 10_000 + k) as u64,
            });
        }
    }
    arr.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
    let fluid = FluidSim::run(&tree, LINK, &arr);

    // Packet run under `kind`.
    let mut h = Hierarchy::builder(LINK, move |r| kind.build(r)).build();
    let root = h.root();
    let leaves: Vec<_> = raw
        .iter()
        .map(|&w| h.add_leaf(root, w / total).unwrap())
        .collect();
    let mut sim = Network::single_link(h);
    for (i, entries) in flows.iter().enumerate() {
        let flow = i as u32;
        sim.stats.trace_flow(flow);
        sim.add_route(
            flow,
            TraceSource::new(flow, entries.clone()),
            Route::open_loop(leaves[i]),
        );
    }
    sim.run(1e6);

    // Pair packets positionally (both systems preserve per-flow FIFO).
    let mut worst = f64::NEG_INFINITY;
    for (i, entries) in flows.iter().enumerate() {
        let trace = sim.stats.trace(i as u32);
        assert_eq!(trace.len(), entries.len(), "flow {i} lost packets");
        for (k, rec) in trace.iter().enumerate() {
            let gps_finish = fluid
                .finish_of((i * 10_000 + k) as u64)
                .expect("fluid departed every packet");
            worst = worst.max(rec.end - gps_finish);
        }
    }
    (worst, f64::from(l_max) * 8.0 / LINK)
}

#[test]
fn wfq_departs_within_one_packet_of_gps() {
    for seed in 0..8 {
        let (worst, one_pkt) = worst_lag_vs_gps(SchedulerKind::Wfq, seed);
        assert!(
            worst <= one_pkt + 1e-9,
            "seed {seed}: WFQ lag {worst} > L_max/r {one_pkt}"
        );
    }
}

#[test]
fn wf2q_departs_within_one_packet_of_gps() {
    for seed in 0..8 {
        let (worst, one_pkt) = worst_lag_vs_gps(SchedulerKind::Wf2q, seed);
        assert!(
            worst <= one_pkt + 1e-9,
            "seed {seed}: WF2Q lag {worst} > L_max/r {one_pkt}"
        );
    }
}

#[test]
fn wf2q_plus_stays_within_a_few_packets_of_gps() {
    // Per-packet GPS finish-time tracking is specifically a property of
    // the V_GPS-driven policies: WF²Q+'s eq. 27 clock deliberately does
    // NOT emulate GPS (its slope floors at 1 where GPS's can exceed it),
    // trading exact per-packet tracking for O(log N)-per-call work while
    // preserving the Theorem-4 *delay bound* for leaky-bucket sessions
    // (verified in tests/delay_bounds.rs). Empirically the deviation on
    // these workloads stays within a small constant number of packets —
    // a sweep over 64 seeds peaks at 3.46 L_max/r — so assert a 5-packet
    // envelope: loose enough to be seed-stable, tight enough that a
    // regression breaking the clock outright still fails loudly.
    for seed in 0..8 {
        let (worst, one_pkt) = worst_lag_vs_gps(SchedulerKind::Wf2qPlus, seed);
        assert!(
            worst <= 5.0 * one_pkt + 1e-9,
            "seed {seed}: WF2Q+ lag {worst} > 5 L_max/r {one_pkt}"
        );
    }
}

/// Sanity on the oracle itself: a policy with no fairness (FIFO) violates
/// the one-packet bound on at least one of the random workloads — the
/// bound is not vacuous.
#[test]
fn fifo_violates_the_pgps_bound() {
    let mut violated = false;
    for seed in 0..8 {
        let (worst, one_pkt) = worst_lag_vs_gps(SchedulerKind::Fifo, seed);
        if worst > one_pkt + 1e-9 {
            violated = true;
            break;
        }
    }
    assert!(
        violated,
        "FIFO unexpectedly satisfied the PGPS bound on all seeds"
    );
}
