//! TCP flows under hierarchical link sharing: the scheduler, not TCP's
//! own dynamics, dictates each flow's bandwidth (paper §5.2 in miniature;
//! the full Fig. 8/9 experiment is `cargo run -p hpfq-bench --bin fig9`).
//!
//! ```text
//! cargo run --release --example tcp_sharing
//! ```
//!
//! Three greedy Reno connections with H-WF²Q+ shares 0.5 / 0.3 / 0.2,
//! plus an on/off CBR source that steals half the link for two seconds in
//! the middle — watch the TCPs shrink proportionally and recover.

use hpfq::core::{Hierarchy, SchedulerKind};
use hpfq::sim::{Network, Route, ScheduledOnOffSource};
use hpfq::tcp::{TcpConfig, TcpSource};

const LINK: f64 = 8e6;

fn main() {
    let mut bld = Hierarchy::builder(LINK, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = bld.root();
    let tcp_class = bld.add_internal(root, 0.5).unwrap();
    let burst_leaf = bld.add_leaf(root, 0.5).unwrap();
    let shares = [0.5, 0.3, 0.2];
    let tcp_leaves: Vec<_> = shares
        .iter()
        .map(|&s| bld.add_leaf(tcp_class, s).unwrap())
        .collect();

    let mut sim = Network::single_link(bld.build());
    for (flow, &leaf) in (0u32..).zip(&tcp_leaves) {
        sim.stats.trace_flow(flow);
        sim.add_route(
            flow,
            TcpSource::new(
                flow,
                TcpConfig {
                    mss_bytes: 1024,
                    ack_delay: 0.002,
                    ..TcpConfig::default()
                },
            ),
            Route::single(leaf, Some(8 * 1024), 0.002),
        );
    }
    // The on/off source claims its 50% share during [2, 4) s.
    sim.add_route(
        9,
        ScheduledOnOffSource::new(9, 1024, 3.9e6, vec![(2.0, 4.0)]),
        Route::single(burst_leaf, Some(16 * 1024), 0.0),
    );
    sim.run(6.0);

    println!("TCP bandwidth (Mbit/s) under H-WF2Q+ shares 0.5/0.3/0.2 of their class:\n");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "window", "tcp-0 (0.5)", "tcp-1 (0.3)", "tcp-2 (0.2)"
    );
    for (t0, t1) in [(1.0, 2.0), (2.5, 4.0), (4.5, 6.0)] {
        let bws: Vec<f64> = (0..3)
            .map(|f| hpfq::analysis::measures::bandwidth_over(sim.stats.trace(f), t0, t1) / 1e6)
            .collect();
        println!(
            "[{t0},{t1})s {:>12.2} {:>12.2} {:>12.2}",
            bws[0], bws[1], bws[2]
        );
    }
    println!();
    println!("with the burst idle the TCPs split the whole 8 Mbit/s 5:3:2;");
    println!("while it is active they split their class's 4 Mbit/s 5:3:2.");
}
