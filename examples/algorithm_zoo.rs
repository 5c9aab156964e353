//! Every one-level scheduler in the crate on one adversarial trace: the
//! Fig. 2 pattern generalized to mixed packet sizes, printing each
//! policy's service order, worst-case fairness and the newcomer delay.
//!
//! ```text
//! cargo run --example algorithm_zoo
//! ```

use hpfq::analysis::{empirical_bwfi, service_curve_from_records};
use hpfq::core::{Hierarchy, SchedulerKind};
use hpfq::sim::{Network, Route, TraceSource};

const LINK: f64 = 1e6;

/// Fig.-2-style duel: one 50% session bursts 21 packets; ten 5% sessions
/// hold one packet each; a latecomer (the measured "newcomer") arrives to
/// an empty queue mid-schedule.
fn run(kind: SchedulerKind) -> (f64, f64) {
    let mut h = Hierarchy::builder(LINK, move |r| kind.build(r)).build();
    let root = h.root();
    let big = h.add_leaf(root, 0.5).unwrap();
    let mut small = Vec::new();
    for _ in 0..9 {
        small.push(h.add_leaf(root, 0.05).unwrap());
    }
    let newcomer = h.add_leaf(root, 0.05).unwrap();

    let mut sim = Network::single_link(h);
    for flow in 0..12u32 {
        sim.stats.trace_flow(flow);
    }
    let pkt = 500u32; // 4 ms on the wire
    sim.add_route(
        0,
        TraceSource::new(0, vec![(0.0, pkt); 21]),
        Route::open_loop(big),
    );
    for (flow, &leaf) in (1u32..).zip(&small) {
        sim.add_route(
            flow,
            TraceSource::new(flow, vec![(0.0, pkt)]),
            Route::open_loop(leaf),
        );
    }
    // The newcomer arrives at 20 ms — right after WFQ-family schedulers
    // have let the big session run ahead.
    sim.add_route(
        11,
        TraceSource::new(11, vec![(0.020, pkt)]),
        Route::open_loop(newcomer),
    );
    sim.run(10.0);

    // Empirical B-WFI of the big session, in packets.
    let w_big = service_curve_from_records(sim.stats.trace(0).iter());
    let all: Vec<_> = (0..12u32)
        .flat_map(|f| sim.stats.trace(f).iter().copied())
        .collect();
    let w_srv = service_curve_from_records(all.iter());
    let arr = vec![(0.0, 21.0 * f64::from(pkt) * 8.0)];
    let wfi_pkts = empirical_bwfi(&arr, &w_big, &w_srv, 0.5) / (f64::from(pkt) * 8.0);

    // Newcomer delay in ms.
    let delay = sim.stats.trace(11)[0].delay() * 1e3;
    (wfi_pkts, delay)
}

fn main() {
    println!("one adversarial trace, every scheduler:\n");
    println!(
        "{:<8} {:>20} {:>20}",
        "algo", "big-session WFI (pkts)", "newcomer delay (ms)"
    );
    for kind in SchedulerKind::ALL {
        let (wfi, delay) = run(kind);
        println!("{:<8} {:>20.2} {:>20.2}", kind.name(), wfi, delay);
    }
    println!();
    println!("WF2Q/WF2Q+ bound the WFI by one packet (paper Theorems 3-4);");
    println!("WFQ/SCFQ/SFQ let the big session run ~N/2 packets ahead, which");
    println!("is exactly what a hierarchical server turns into delay spikes.");
}
