//! Wall-clock scaling of `Network::run_parallel` against sequential
//! execution on a 4-link topology.
//!
//! Each link carries three heavy CBR cross flows (small packets, so the
//! event rate — not the byte rate — dominates), and two tandem flows
//! cross all four links with a 10 ms propagation delay, giving the
//! conservative scheme wide epochs. Every mode runs the *same* workload;
//! determinism means the parallel runs must reproduce the sequential
//! packet counts exactly, which this harness asserts before it reports a
//! single number.
//!
//! Reported metric: wall-clock nanoseconds per served packet, per mode
//! (`sequential`, `parallel2`, `parallel4`), plus the speedup on stdout.
//! The JSON meta records `host_cores`: on a single-core container the
//! parallel rows honestly show no speedup (the epoch barriers round-robin
//! on one CPU); multi-core CI runners produce the real curve.
//!
//! `--smoke` shortens the simulated horizon for CI; `--json <path>`
//! writes the machine-readable report.

use std::time::Instant;

use hpfq_bench::microbench::{json_path_from_args, write_json, BenchRecord, MetaValue, Profile};
use hpfq_core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq_sim::{CbrSource, Hop, Network, Route};

const LINKS: usize = 4;
const RATE: f64 = 100e6;
const PKT: u32 = 512;
const PROP: f64 = 0.010;

/// Builds the benchmark topology: `LINKS` links, three cross flows each,
/// two four-hop tandem flows in opposite directions.
fn build() -> Network<MixedScheduler> {
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler> = Network::new();
    let mut tandem_leaves = Vec::new();
    for li in 0..LINKS {
        let mut bld = Hierarchy::<MixedScheduler>::builder(RATE, move |r| kind.build(r));
        let root = bld.root();
        // Two tandem leaves + three cross leaves per link.
        let t_fwd = bld.add_leaf(root, 0.1).unwrap();
        let t_rev = bld.add_leaf(root, 0.1).unwrap();
        let crosses: Vec<_> = (0..3)
            .map(|_| bld.add_leaf(root, 0.8 / 3.0).unwrap())
            .collect();
        let link = net.add_link(bld.build());
        assert_eq!(link, li);
        tandem_leaves.push((t_fwd, t_rev));
        for (ci, leaf) in crosses.into_iter().enumerate() {
            let flow = 100 + (li * 3 + ci) as u32;
            net.add_route(
                flow,
                CbrSource::new(flow, PKT, 20e6, 0.0, f64::INFINITY),
                Route::new(vec![Hop {
                    link,
                    leaf,
                    buffer_bytes: Some(64 * u64::from(PKT)),
                    prop_delay: 0.0,
                }]),
            );
        }
    }
    let fwd: Vec<Hop> = (0..LINKS)
        .map(|li| Hop {
            link: li,
            leaf: tandem_leaves[li].0,
            buffer_bytes: None,
            prop_delay: PROP,
        })
        .collect();
    let rev: Vec<Hop> = (0..LINKS)
        .rev()
        .map(|li| Hop {
            link: li,
            leaf: tandem_leaves[li].1,
            buffer_bytes: None,
            prop_delay: PROP,
        })
        .collect();
    net.add_route(
        0,
        CbrSource::new(0, PKT, 5e6, 0.0, f64::INFINITY),
        Route::new(fwd),
    );
    net.add_route(
        1,
        CbrSource::new(1, PKT, 5e6, 0.0, f64::INFINITY),
        Route::new(rev),
    );
    net
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let profile = Profile::from_args(&args);
    let json = json_path_from_args(&args);
    let horizon = match profile {
        Profile::Full => 4.0,
        Profile::Smoke => 0.5,
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get() as u64);
    println!(
        "== parallel_scale ({} profile): {LINKS} links, horizon {horizon}s, {host_cores} host cores ==",
        profile.as_str()
    );

    let mut records = Vec::new();
    let mut seq_ns_per_pkt = 0.0;
    let mut seq_packets = 0u64;
    for (name, shards) in [("sequential", 1usize), ("parallel2", 2), ("parallel4", 4)] {
        let mut net = build();
        let t = Instant::now();
        if shards == 1 {
            net.run(horizon);
        } else {
            let report = net.run_parallel(horizon, shards);
            assert_eq!(report.fallback, None, "topology must genuinely shard");
            assert_eq!(report.shards, shards);
        }
        let wall = t.elapsed().as_secs_f64();
        net.verify_conservation().unwrap();
        let packets = net.stats.total_packets;
        assert!(packets > 0);
        if shards == 1 {
            seq_packets = packets;
            seq_ns_per_pkt = wall * 1e9 / packets as f64;
        } else {
            // Determinism is part of the contract being benchmarked.
            assert_eq!(packets, seq_packets, "{name} served a different schedule");
        }
        let ns_per_pkt = wall * 1e9 / packets as f64;
        println!(
            "net/{name:<12} {packets:>8} pkts  {ns_per_pkt:>10.1} ns/pkt  speedup {:.2}x",
            seq_ns_per_pkt / ns_per_pkt
        );
        records.push(BenchRecord {
            group: "net".into(),
            name: name.into(),
            size: shards,
            ns_per_op: ns_per_pkt,
        });
    }

    if let Some(path) = json {
        write_json(
            &path,
            &[
                ("profile", MetaValue::Str(profile.as_str())),
                ("links", MetaValue::U64(LINKS as u64)),
                ("host_cores", MetaValue::U64(host_cores)),
            ],
            &records,
        );
    }
}
