//! End-to-end accuracy of H-WF²Q+ against the ideal H-GPS fluid system:
//! for the same arrival pattern, every leaf's cumulative packet-system
//! service must stay within a few packets of its fluid service — the
//! hierarchical generalization of the one-packet-accuracy property that
//! motivates WF²Q+ (paper §3.3–3.4 and Theorem 4).
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use hpfq::core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq::fluid::{Arrival, FluidNodeId, FluidSim, FluidTree};
use hpfq::sim::{Network, Route, TraceSource};
use hpfq_analysis::service_curve_from_records;
use hpfq_sim::SmallRng;

const LINK: f64 = 1e6;
const PKT: u32 = 500; // 4000 bits

/// WF²Q+ as [`SchedulerKind::build`] ships it.
fn shipped(rate: f64) -> MixedScheduler {
    SchedulerKind::Wf2qPlus.build(rate)
}

struct Mirror {
    h: Hierarchy<MixedScheduler>,
    fluid: FluidTree,
    leaves: Vec<(NodeId, FluidNodeId)>,
}

/// Builds mirrored 2-level trees: `classes` internal nodes, each with
/// `per_class` leaves, shares perturbed by `rng`.
fn build(classes: usize, per_class: usize, rng: &mut SmallRng) -> Mirror {
    let mut bld = Hierarchy::builder(LINK, shipped);
    let mut fluid = FluidTree::new();
    let mut leaves = Vec::new();
    // Random class shares summing to 1.
    let raw: Vec<f64> = (0..classes).map(|_| rng.gen_range_f64(0.5, 2.0)).collect();
    let total: f64 = raw.iter().sum();
    for &w in &raw {
        let phi = w / total;
        let c = bld.add_internal(bld.root(), phi).unwrap();
        let fc = fluid.add_internal(fluid.root(), phi).unwrap();
        let raw_l: Vec<f64> = (0..per_class)
            .map(|_| rng.gen_range_f64(0.5, 2.0))
            .collect();
        let total_l: f64 = raw_l.iter().sum();
        for &wl in &raw_l {
            let phil = wl / total_l;
            leaves.push((
                bld.add_leaf(c, phil).unwrap(),
                fluid.add_leaf(fc, phil).unwrap(),
            ));
        }
    }
    Mirror {
        h: bld.build(),
        fluid,
        leaves,
    }
}

#[test]
fn packet_service_tracks_fluid_service() {
    let mut rng = SmallRng::seed_from_u64(2024);
    for trial in 0..5 {
        let mirror = build(3, 3, &mut rng);
        let nleaves = mirror.leaves.len();

        // Random bursty arrivals: each leaf gets bursts at random times.
        let mut arrivals_per_leaf: Vec<Vec<f64>> = vec![Vec::new(); nleaves];
        for arr in &mut arrivals_per_leaf {
            let bursts = rng.gen_range_u32(1, 5);
            for _ in 0..bursts {
                let t0 = rng.gen_range_f64(0.0, 2.0);
                let n = rng.gen_range_u32(1, 20);
                for k in 0..n {
                    arr.push(t0 + k as f64 * 1e-4);
                }
            }
            arr.sort_by(|a, b| a.partial_cmp(b).unwrap());
        }

        // Fluid run.
        let mut fluid_arr = Vec::new();
        for (i, times) in arrivals_per_leaf.iter().enumerate() {
            for (k, &t) in times.iter().enumerate() {
                fluid_arr.push(Arrival {
                    time: t,
                    leaf: mirror.leaves[i].1,
                    bits: f64::from(PKT) * 8.0,
                    id: (i * 1000 + k) as u64,
                });
            }
        }
        fluid_arr.sort_by(|a, b| a.time.partial_cmp(&b.time).unwrap());
        let fluid_res = FluidSim::run(&mirror.fluid, LINK, &fluid_arr);

        // Packet run.
        let mut sim = Network::single_link(mirror.h);
        for (i, times) in arrivals_per_leaf.iter().enumerate() {
            let flow = i as u32;
            sim.stats.trace_flow(flow);
            sim.add_route(
                flow,
                TraceSource::new(flow, times.iter().map(|&t| (t, PKT)).collect()),
                Route::open_loop(mirror.leaves[i].0),
            );
        }
        sim.run(1000.0);

        // Compare cumulative service curves on a time grid.
        let horizon = fluid_res.end_time;
        let pkt_bits = f64::from(PKT) * 8.0;
        // Tolerance: one packet of lead (SEFF) plus the Theorem-1 B-WFI
        // lag summed over two levels — comfortably under 4 packets here.
        let tol = 4.0 * pkt_bits;
        for (i, &(_, fleaf)) in mirror.leaves.iter().enumerate() {
            let curve = service_curve_from_records(sim.stats.trace(i as u32).iter());
            let fcurve = &fluid_res.service[fleaf.0];
            let mut t = 0.0;
            while t <= horizon {
                let dev = curve.value_at(t) - fcurve.value_at(t);
                assert!(
                    dev.abs() <= tol,
                    "trial {trial} leaf {i} t={t}: packet {} vs fluid {} (dev {dev})",
                    curve.value_at(t),
                    fcurve.value_at(t),
                );
                t += 0.01;
            }
            // Total service identical (both drain everything).
            assert!(
                (curve.total() - fcurve.total()).abs() < 1e-6,
                "trial {trial} leaf {i} totals differ"
            );
        }
    }
}

/// The hierarchical bandwidth-distribution property (paper eq. 9) on the
/// packet system: two backlogged sibling classes split their parent's
/// bandwidth by their shares even while an unrelated class floods.
#[test]
fn sibling_shares_respected_under_flooding() {
    let mut bld = Hierarchy::builder(LINK, shipped);
    let root = bld.root();
    let a = bld.add_internal(root, 0.5).unwrap();
    let b = bld.add_leaf(root, 0.5).unwrap();
    let a1 = bld.add_leaf(a, 0.7).unwrap();
    let a2 = bld.add_leaf(a, 0.3).unwrap();

    let mut sim = Network::single_link(bld.build());
    for flow in 0..3u32 {
        sim.stats.trace_flow(flow);
    }
    let deep: Vec<(f64, u32)> = (0..2000).map(|_| (0.0, PKT)).collect();
    sim.add_route(0, TraceSource::new(0, deep.clone()), Route::open_loop(a1));
    sim.add_route(1, TraceSource::new(1, deep.clone()), Route::open_loop(a2));
    sim.add_route(2, TraceSource::new(2, deep), Route::open_loop(b));
    sim.run(4.0);

    let bw = |flow: u32| hpfq_analysis::measures::bandwidth_over(sim.stats.trace(flow), 0.5, 3.5);
    assert!((bw(0) / LINK - 0.35).abs() < 0.01, "a1 {}", bw(0));
    assert!((bw(1) / LINK - 0.15).abs() < 0.01, "a2 {}", bw(1));
    assert!((bw(2) / LINK - 0.50).abs() < 0.01, "b {}", bw(2));
}
