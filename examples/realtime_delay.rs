//! Real-time delay under H-WFQ vs H-WF²Q+ — a compact version of the
//! paper's §5.1 experiment (the full Fig. 3 scenario lives in
//! `cargo run -p hpfq-bench --bin fig4`).
//!
//! ```text
//! cargo run --release --example realtime_delay
//! ```
//!
//! A periodic real-time session shares its class with a backlogged
//! best-effort session while bursty cross traffic hits the link. H-WFQ
//! lets the class run ahead of its fluid schedule and then starves it —
//! delay spikes; H-WF²Q+ keeps every packet under the Corollary-2 bound.

use hpfq::analysis::corollary2_bound;
use hpfq::core::{Hierarchy, SchedulerKind};
use hpfq::sim::{CbrSource, Network, PacketTrainSource, PeriodicOnOffSource, Route};

const LINK: f64 = 10e6;
const PKT: u32 = 1500;

fn run(kind: SchedulerKind) -> (f64, f64, Vec<f64>) {
    let mut bld = Hierarchy::builder(LINK, move |r| kind.build(r));
    let root = bld.root();
    let class = bld.add_internal(root, 0.5).unwrap();
    let rt = bld.add_leaf(class, 0.5).unwrap(); // 2.5 Mbit/s guarantee
    let be = bld.add_leaf(class, 0.5).unwrap();
    let mut cross = Vec::new();
    for _ in 0..10 {
        cross.push(bld.add_leaf(root, 0.05).unwrap());
    }
    let rt_rate = bld.rate(rt);
    let class_rate = bld.rate(class);

    let mut sim = Network::single_link(bld.build());
    sim.stats.trace_flow(0);
    // RT: sparse packets into a usually-empty queue (the §3.1 victim
    // pattern), slightly offset from the cross-traffic period.
    sim.add_route(
        0,
        PeriodicOnOffSource::new(0, PKT, rt_rate, 0.005, 0.041, 0.013, f64::INFINITY),
        Route::open_loop(rt),
    );
    // BE floods the class, letting it run ahead of its fluid schedule
    // under H-WFQ.
    sim.add_route(
        1,
        CbrSource::new(1, PKT, LINK, 0.0, f64::INFINITY),
        Route::open_loop(be),
    );
    // Cross traffic: slow trains on each 5% session — queued packets with
    // far-future finish tags, the fuel for WFQ's run-ahead.
    for (flow, &leaf) in (2u32..).zip(&cross) {
        sim.add_route(
            flow,
            PacketTrainSource::new(
                flow,
                PKT,
                3,
                0.0012,
                0.067,
                0.067 * f64::from(flow - 2) / 10.0,
                f64::INFINITY,
            ),
            Route::open_loop(leaf),
        );
    }
    sim.run(20.0);
    let delays: Vec<f64> = sim.stats.trace(0).iter().map(|r| r.delay() * 1e3).collect();
    let max = delays.iter().cloned().fold(0.0, f64::max);
    let bound = corollary2_bound(
        f64::from(PKT) * 8.0,
        f64::from(PKT) * 8.0,
        &[rt_rate, class_rate],
    ) * 1e3;
    (max, bound, delays)
}

fn main() {
    println!("real-time packet delay, same workload, two hierarchies:\n");
    println!(
        "{:<8} {:>12} {:>12} {:>18}",
        "algo", "mean_ms", "max_ms", "corollary2_ms"
    );
    for kind in [
        SchedulerKind::Wfq,
        SchedulerKind::Scfq,
        SchedulerKind::Wf2qPlus,
    ] {
        let (max, bound, delays) = run(kind);
        let mean = delays.iter().sum::<f64>() / delays.len() as f64;
        let within = if max <= bound {
            "(within bound)"
        } else {
            "(EXCEEDS bound)"
        };
        println!(
            "{:<8} {mean:>12.2} {max:>12.2} {bound:>12.2} {within}",
            kind.name()
        );
    }
    println!("\nonly a small-WFI scheduler (WF2Q+) carries the paper's per-node");
    println!("guarantees into a hierarchy; H-WFQ's worst case degrades with the");
    println!("cross-traffic pattern while H-WF2Q+ stays under Corollary 2.");
}
