//! Regenerates Fig. 2: the service order of GPS (fluid), WFQ, WF²Q and
//! WF²Q+ on the 11-session example — session 1 (φ=0.5) sends 11
//! back-to-back unit packets at t=0, sessions 2..11 (φ=0.05) one each.
//!
//! Expected shape (paper Fig. 2): WFQ transmits session 1's first 10
//! packets back-to-back; WF²Q/WF²Q+ interleave session 1 with the other
//! sessions, never diverging from the GPS service by more than one packet.

use hpfq_analysis::CsvWriter;
use hpfq_bench::experiments::results_dir;
use hpfq_core::{Hierarchy, Packet, SchedulerKind};
use hpfq_fluid::{Arrival, FluidSim, FluidTree};

/// Builds the 11-session workload on a depth-1 hierarchy and returns the
/// session index served in each unit slot.
fn packet_order(kind: SchedulerKind) -> Vec<usize> {
    let mut h = Hierarchy::builder(1.0, move |r| kind.build(r)).build();
    let root = h.root();
    let mut leaves = Vec::new();
    leaves.push(h.add_leaf(root, 0.5).unwrap());
    for _ in 0..10 {
        leaves.push(h.add_leaf(root, 0.05).unwrap());
    }
    // Unit packets: all lengths equal, so the absolute size is irrelevant
    // to the service order.
    let mut id = 0;
    for _ in 0..11 {
        id += 1;
        h.enqueue(leaves[0], Packet::new(id, 0, 1, 0.0));
    }
    for (j, &leaf) in (0u32..).zip(&leaves).skip(1) {
        id += 1;
        h.enqueue(leaf, Packet::new(id, j, 1, 0.0));
    }
    let mut order = Vec::new();
    while let Some(p) = h.dequeue() {
        order.push(p.flow as usize);
    }
    order
}

fn main() {
    // GPS (fluid) finish times.
    let mut tree = FluidTree::new();
    let s0 = tree.add_leaf(tree.root(), 0.5).unwrap();
    let mut small = Vec::new();
    for _ in 0..10 {
        small.push(tree.add_leaf(tree.root(), 0.05).unwrap());
    }
    let mut arr = Vec::new();
    for k in 0..11 {
        arr.push(Arrival {
            time: 0.0,
            leaf: s0,
            bits: 1.0,
            id: k,
        });
    }
    for (j, &l) in small.iter().enumerate() {
        arr.push(Arrival {
            time: 0.0,
            leaf: l,
            bits: 1.0,
            id: 100 + j as u64,
        });
    }
    let gps = FluidSim::run(&tree, 1.0, &arr);

    println!("GPS fluid finish times: p1^k at 2k (k=1..10), p1^11 at 21, others at 20");
    for k in 0..11 {
        print!("{:.2} ", gps.finish_of(k).unwrap());
    }
    println!("| others: {:.2}", gps.finish_of(100).unwrap());
    println!();

    let dir = results_dir("fig2");
    let mut w = CsvWriter::create(dir.join("service_order.csv"), &["algo", "slot", "session"])
        .expect("csv");
    for kind in [
        SchedulerKind::Wfq,
        SchedulerKind::Wf2q,
        SchedulerKind::Wf2qPlus,
    ] {
        let order = packet_order(kind);
        println!("{:<6} serves sessions in slots 0..20:", kind.name());
        println!("  {:?}", order);
        let mut burst = 0usize;
        let mut run = 0usize;
        for &sess in &order {
            run = if sess == 0 { run + 1 } else { 0 };
            burst = burst.max(run);
        }
        println!("  longest session-1 run: {burst} packets\n");
        for (slot, &s) in order.iter().enumerate() {
            w.labeled_row(kind.name(), &[slot as f64, s as f64])
                .unwrap();
        }
    }
    w.finish().unwrap();
    println!("(paper Fig. 2: WFQ sends a 10-packet burst; WF2Q/WF2Q+ alternate)");
}
