//! End-to-end delay across a 3-hop tandem of links — the network-of-servers
//! story the single-link harness could never tell.
//!
//! ```text
//! cargo run --release --example tandem
//! ```
//!
//! A leaky-bucket session (σ = one packet, ρ = its guaranteed rate 2 Mbit/s)
//! crosses three 10 Mbit/s links, each saturated by 48 backlogged cross
//! sessions. For a rate-proportional server with a one-packet WFI — WF²Q+ —
//! the per-hop delay bound `σ/r_i + L_max/r` (Theorem 4) composes: with
//! σ = L the sum over hops equals the Parekh–Gallager tandem bound
//! `σ/r_i + (H−1)·L/r_i + Σ_h L_max/r_h`, so measured end-to-end delay must
//! sit under `Σ_h (σ/r_i + L_max/r_h)` plus propagation. SCFQ has no such
//! per-hop guarantee — its delay grows with the *number* of competing
//! sessions (`Σ_{j≠i} L_j/r` per hop) — and at every hop the tandem session
//! pays another round of the 48 cross sessions, blowing through the bound.

use hpfq::analysis::{path_records_from_trace, wf2q_plus_delay_bound};
use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::parse_trace;
use hpfq::obs::{JsonlObserver, SharedBuf};
use hpfq::sim::{CbrSource, GreedyLbSource, Hop, Network, Route};

const LINK: f64 = 10e6;
const PKT: u32 = 8192; // tandem-session packets (also L_max on every link)
const CROSS_PKT: u32 = 1500;
const HOPS: usize = 3;
const CROSS_PER_LINK: usize = 48;
const PHI_TANDEM: f64 = 0.2; // guaranteed 2 Mbit/s at every hop
const PROP: [f64; HOPS] = [0.001, 0.001, 0.0];

struct RunResult {
    mean_ms: f64,
    max_ms: f64,
    hop_max_ms: [f64; HOPS],
    paths: usize,
}

fn run(kind: SchedulerKind) -> RunResult {
    let buf = SharedBuf::new();
    let mut net: Network<MixedScheduler, JsonlObserver<SharedBuf>> = Network::new();
    let mut hops = Vec::new();
    for (li, &hop_prop) in PROP.iter().enumerate() {
        let mut bld = Hierarchy::<MixedScheduler, _>::builder_with_observer(
            LINK,
            move |r| kind.build(r),
            JsonlObserver::new(buf.clone()),
        );
        let root = bld.root();
        let leaf = bld.add_leaf(root, PHI_TANDEM).unwrap();
        let mut cross_leaves = Vec::new();
        for _ in 0..CROSS_PER_LINK {
            cross_leaves.push(
                bld.add_leaf(root, (1.0 - PHI_TANDEM) / CROSS_PER_LINK as f64)
                    .unwrap(),
            );
        }
        let link = net.add_link(bld.build());
        hops.push(Hop {
            link,
            leaf,
            buffer_bytes: None,
            prop_delay: hop_prop,
        });
        // Each cross session offers 2× its guaranteed share, so all 48 stay
        // backlogged for the whole run (finite buffers keep memory bounded;
        // single-hop drops don't affect the tandem measurement).
        for (ci, &cl) in cross_leaves.iter().enumerate() {
            let flow = u32::try_from(1000 + li * CROSS_PER_LINK + ci).expect("a few flow ids");
            let share_bps = (1.0 - PHI_TANDEM) * LINK / CROSS_PER_LINK as f64;
            net.add_route(
                flow,
                CbrSource::new(flow, CROSS_PKT, 2.0 * share_bps, 0.0, 2.5),
                Route::new(vec![Hop {
                    link,
                    leaf: cl,
                    buffer_bytes: Some(16 * u64::from(CROSS_PKT)),
                    prop_delay: 0.0,
                }]),
            );
        }
    }
    // The measured session starts once every link is saturated.
    let r_i = PHI_TANDEM * LINK;
    net.add_route(
        0,
        GreedyLbSource::new(0, PKT, PKT, r_i, 0.2, 2.2),
        Route::new(hops),
    );
    net.run(3.5);
    net.verify_conservation().unwrap();

    let (events, skipped) = parse_trace(&buf.contents());
    assert_eq!(skipped, 0, "trace must parse cleanly");
    let (paths, anomalies) = path_records_from_trace(&events);
    assert_eq!(anomalies.unmatched_ends, 0);
    let tandem: Vec<_> = paths
        .iter()
        .filter(|p| p.flow == 0 && p.hops.len() == HOPS)
        .collect();
    assert!(tandem.len() > 40, "only {} complete paths", tandem.len());

    let mut hop_max_ms = [0.0f64; HOPS];
    let mut max_ms = 0.0f64;
    let mut sum_ms = 0.0f64;
    for p in &tandem {
        let e2e = p.end_to_end() * 1e3;
        max_ms = max_ms.max(e2e);
        sum_ms += e2e;
        for (h, m) in hop_max_ms.iter_mut().enumerate() {
            *m = m.max(p.hop_delay(h) * 1e3);
        }
    }
    RunResult {
        mean_ms: sum_ms / tandem.len() as f64,
        max_ms,
        hop_max_ms,
        paths: tandem.len(),
    }
}

fn main() {
    // Composed bound: Σ_h (σ/r_i + L_max/r_h) + inter-hop propagation.
    // (The last hop's prop delay is delivery, outside the traced path.)
    let sigma_bits = f64::from(PKT) * 8.0;
    let l_max_bits = f64::from(PKT) * 8.0;
    let r_i = PHI_TANDEM * LINK;
    let per_hop = wf2q_plus_delay_bound(sigma_bits, r_i, l_max_bits, LINK);
    let bound_ms = (HOPS as f64 * per_hop + PROP[0] + PROP[1]) * 1e3;

    println!("3-hop tandem, 48 backlogged cross sessions per link:");
    println!(
        "  session: sigma = 1 pkt ({PKT} B), rho = r_i = {} Mbit/s on {} Mbit/s links",
        r_i / 1e6,
        LINK / 1e6
    );
    println!("  composed bound = 3 x (sigma/r_i + L_max/r) + prop = {bound_ms:.2} ms\n");
    println!(
        "{:<8} {:>8} {:>10} {:>10} {:>26} {:>10}",
        "algo", "paths", "mean_ms", "max_ms", "per-hop max (ms)", "bound"
    );
    for kind in [SchedulerKind::Wf2qPlus, SchedulerKind::Scfq] {
        let r = run(kind);
        let hops = format!(
            "[{:.1}, {:.1}, {:.1}]",
            r.hop_max_ms[0], r.hop_max_ms[1], r.hop_max_ms[2]
        );
        let verdict = if r.max_ms <= bound_ms {
            "within"
        } else {
            "EXCEEDS"
        };
        println!(
            "{:<8} {:>8} {:>10.2} {:>10.2} {:>26} {:>10}",
            kind.name(),
            r.paths,
            r.mean_ms,
            r.max_ms,
            hops,
            verdict
        );
        if kind == SchedulerKind::Wf2qPlus {
            assert!(
                r.max_ms <= bound_ms,
                "WF2Q+ tandem exceeded its composed bound: {} > {bound_ms}",
                r.max_ms
            );
        } else {
            assert!(
                r.max_ms > bound_ms,
                "SCFQ was expected to blow through the WF2Q+ bound ({} <= {bound_ms})",
                r.max_ms
            );
        }
    }
    println!("\nWF2Q+'s per-hop bound is independent of the session count, so it");
    println!("survives composition across the tandem; SCFQ's per-hop delay carries");
    println!("a sum over *all* competing sessions and pays it again at every hop.");
}
