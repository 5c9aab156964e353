//! Measured vs theoretical Worst-case Fair Index across schedulers and
//! session counts — the quantitative form of the paper's §3.1–§3.4
//! argument (WFQ/SCFQ/DRR WFIs grow with N; WF²Q/WF²Q+ stay at one
//! packet).
//!
//! Workload: the Fig. 2 pattern scaled to N — one session with φ=0.5
//! sending N+1 back-to-back packets at t=0, N sessions with φ=0.5/N
//! sending one packet each, repeated for a second round at a staggered
//! time so every session sees both "run ahead" and "catch up" phases.
//! The measured quantity is the worst empirical B-WFI (Definition 2)
//! over *all* sessions, normalized by each session's own entitled
//! packets; Theorem 4 predicts ≤ 1 packet for WF²Q+ regardless of N,
//! while WFQ's grows like N/2.

use hpfq_analysis::{empirical_bwfi, service_curve_from_records, CsvWriter};
use hpfq_bench::experiments::results_dir;
use hpfq_core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq_sim::{Network, Route, TraceSource};

const PKT: u32 = 125; // 1000 bits

fn measured_wfi_packets(kind: SchedulerKind, n: usize) -> f64 {
    let rate = 1000.0; // 1 packet per second
    let mut h: Hierarchy<MixedScheduler> = Hierarchy::builder(rate, move |r| kind.build(r)).build();
    let root = h.root();
    let big = h.add_leaf(root, 0.5).unwrap();
    let mut small = Vec::new();
    for _ in 0..n {
        small.push(h.add_leaf(root, 0.5 / n as f64).unwrap());
    }
    let mut sim = Network::single_link(h);
    let last_flow = u32::try_from(n).expect("a flow per small session fits u32");
    for flow in 0..=last_flow {
        sim.stats.trace_flow(flow);
    }
    let pkt_bits = f64::from(PKT) * 8.0;
    let round2 = 1.5 * (2 * n + 2) as f64; // mid-schedule second round
    let mut arrivals_per_flow: Vec<Vec<(f64, f64)>> = Vec::new();
    let mut big_trace = vec![(0.0, PKT); n + 1];
    big_trace.extend(vec![(round2, PKT); n + 1]);
    arrivals_per_flow.push(big_trace.iter().map(|&(t, _)| (t, pkt_bits)).collect());
    sim.add_route(0, TraceSource::new(0, big_trace), Route::open_loop(big));
    for (flow, &leaf) in (1u32..).zip(&small) {
        let entries = vec![(0.0, PKT), (round2, PKT)];
        arrivals_per_flow.push(entries.iter().map(|&(t, _)| (t, pkt_bits)).collect());
        sim.add_route(
            flow,
            TraceSource::new(flow, entries),
            Route::open_loop(leaf),
        );
    }
    sim.run(1e6);

    // Worst session WFI, in packets.
    let all: Vec<_> = (0..=last_flow)
        .flat_map(|fl| sim.stats.trace(fl).iter().copied())
        .collect();
    let w_server = service_curve_from_records(all.iter());
    let mut worst = 0.0_f64;
    for flow in 0..=last_flow {
        let w_i = service_curve_from_records(sim.stats.trace(flow).iter());
        let share = if flow == 0 { 0.5 } else { 0.5 / n as f64 };
        let wfi_bits = empirical_bwfi(&arrivals_per_flow[flow as usize], &w_i, &w_server, share);
        worst = worst.max(wfi_bits / pkt_bits);
    }
    worst
}

fn main() {
    let kinds = [
        SchedulerKind::Wf2qPlus,
        SchedulerKind::Wf2q,
        SchedulerKind::Wfq,
        SchedulerKind::Scfq,
        SchedulerKind::Sfq,
        SchedulerKind::Drr,
    ];
    let sizes = [4usize, 16, 64, 256];
    println!("Worst empirical B-WFI over all sessions (packets), Fig. 2 pattern at size N");
    print!("{:<8}", "algo");
    for n in sizes {
        print!(" {:>10}", format!("N={n}"));
    }
    println!(" {:>14}", "theory (WF2Q+)");

    let dir = results_dir("wfi_table");
    let mut w = CsvWriter::create(dir.join("wfi.csv"), &["algo", "n", "wfi_packets"]).unwrap();
    for kind in kinds {
        print!("{:<8}", kind.name());
        for n in sizes {
            let wfi = measured_wfi_packets(kind, n);
            print!(" {:>10.2}", wfi);
            w.labeled_row(kind.name(), &[n as f64, wfi]).unwrap();
        }
        if kind == SchedulerKind::Wf2qPlus {
            // Theorem 4: alpha = L_max (equal packet sizes) = 1 packet.
            print!(" {:>14}", "<= 1.00");
        }
        println!();
    }
    w.finish().unwrap();
    println!("\n(paper: WFQ WFI grows ~N/2; WF2Q/WF2Q+ stay at one packet)");
}
