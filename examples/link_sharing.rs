//! The paper's Fig. 1 motivating scenario: 11 agencies share a 45 Mbit/s
//! link; Agency A1 is guaranteed 50% and, inside it, best-effort traffic
//! must get at least 20% of A1's bandwidth so real-time traffic cannot
//! starve it.
//!
//! ```text
//! cargo run --release --example link_sharing
//! ```
//!
//! Demonstrates all three simultaneous goals of H-PFQ (paper §1): the
//! real-time class keeps its guarantee, best-effort is never starved, and
//! idle agencies' bandwidth is redistributed through the hierarchy.

use hpfq::core::{Hierarchy, SchedulerKind};
use hpfq::sim::{CbrSource, Network, Route};

const LINK: f64 = 45e6;
const PKT: u32 = 1500;

fn main() {
    let mut bld = Hierarchy::builder(LINK, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = bld.root();
    // Agency A1: 50%, with a real-time subclass (80% of A1) and a
    // best-effort subclass (20% of A1 — the anti-starvation floor).
    let a1 = bld.add_internal(root, 0.5).unwrap();
    let a1_rt = bld.add_leaf(a1, 0.8).unwrap();
    let a1_be = bld.add_leaf(a1, 0.2).unwrap();
    // Agencies A2..A11: 5% each.
    let mut others = Vec::new();
    for _ in 0..10 {
        others.push(bld.add_leaf(root, 0.05).unwrap());
    }

    let mut sim = Network::single_link(bld.build());
    for flow in 0..12u32 {
        sim.stats.trace_flow(flow);
    }
    // A1's real-time class sends hard at 30 Mbit/s (above its 18 Mbit/s
    // guarantee); best-effort floods too. Agencies 2..6 are active at
    // their shares; 7..11 are idle until t=2 s.
    sim.add_route(
        0,
        CbrSource::new(0, PKT, 30e6, 0.0, 10.0),
        Route::open_loop(a1_rt),
    );
    sim.add_route(
        1,
        CbrSource::new(1, PKT, 20e6, 0.0, 10.0),
        Route::open_loop(a1_be),
    );
    for (flow, &leaf) in (2u32..).zip(&others) {
        let start = if flow < 7 { 0.0 } else { 2.0 };
        sim.add_route(
            flow,
            CbrSource::new(flow, PKT, 5e6, start, 10.0),
            Route::open_loop(leaf),
        );
    }
    sim.run(4.0);

    let bw = |flow: u32, t0: f64, t1: f64| {
        hpfq::analysis::measures::bandwidth_over(sim.stats.trace(flow), t0, t1) / 1e6
    };
    println!("Fig. 1 link sharing under H-WF2Q+ (45 Mbit/s link), Mbit/s:\n");
    println!(
        "{:<22} {:>14} {:>14}",
        "class", "t in [1,2)s", "t in [3,4)s"
    );
    println!(
        "{:<22} {:>14.2} {:>14.2}",
        "A1 real-time (>=18)",
        bw(0, 1.0, 2.0),
        bw(0, 3.0, 4.0)
    );
    println!(
        "{:<22} {:>14.2} {:>14.2}",
        "A1 best-effort (>=4.5)",
        bw(1, 1.0, 2.0),
        bw(1, 3.0, 4.0)
    );
    let active_early: f64 = (2..7).map(|f| bw(f, 1.0, 2.0)).sum();
    let active_late: f64 = (2..12).map(|f| bw(f, 3.0, 4.0)).sum();
    println!(
        "{:<22} {:>14.2} {:>14}",
        "agencies 2-6 (sum)", active_early, "-"
    );
    println!(
        "{:<22} {:>14} {:>14.2}",
        "agencies 2-11 (sum)", "-", active_late
    );
    println!();
    println!("before t=2 s, five agencies are idle: their 25% flows back to A1");
    println!("(A1 above its 50% guarantee) yet best-effort keeps its 20% floor;");
    println!("after t=2 s all agencies are active and A1 returns to ~50%.");
}
