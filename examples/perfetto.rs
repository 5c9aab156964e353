//! Perfetto export end-to-end: run a 3-link tandem and write a
//! `trace.json` timeline openable in Perfetto — one track per link with
//! its transmissions, drops and faults, stamped in *simulation* time.
//!
//! ```text
//! cargo run --release --example perfetto [trace.json]
//! ```

use hpfq::core::{Hierarchy, MixedScheduler, SchedulerKind};
use hpfq::obs::jsonl::{merge_traces, parse_trace};
use hpfq::obs::{chrome_trace, JsonlObserver};
use hpfq::sim::{CbrSource, Hop, Network, Route};

const LINKS: usize = 3;
const RATE: f64 = 10e6;
const PKT: u32 = 1500;

type Obs = JsonlObserver<Vec<u8>>;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "/tmp/hpfq-trace.json".into());

    // 3-link tandem: flow 0 crosses every link with 2 ms propagation
    // delay; one saturating cross flow per link.
    let kind = SchedulerKind::Wf2qPlus;
    let mut net: Network<MixedScheduler, Obs> = Network::new();
    let mut hops = Vec::new();
    for li in 0..LINKS {
        let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
            RATE,
            move |r| kind.build(r),
            JsonlObserver::new(Vec::new()),
        );
        let root = bld.root();
        let tandem_leaf = bld.add_leaf(root, 0.4).expect("valid share");
        let cross_leaf = bld.add_leaf(root, 0.6).expect("valid share");
        let link = net.add_link(bld.build());
        assert_eq!(link, li);
        hops.push(Hop {
            link,
            leaf: tandem_leaf,
            buffer_bytes: None,
            prop_delay: 0.002,
        });
        let flow = 100 + link as u32;
        net.add_route(
            flow,
            CbrSource::new(flow, PKT, 6e6, 0.0, 2.0),
            Route::new(vec![Hop {
                link,
                leaf: cross_leaf,
                buffer_bytes: Some(16 * u64::from(PKT)),
                prop_delay: 0.0,
            }]),
        );
    }
    net.add_route(0, CbrSource::new(0, PKT, 3e6, 0.0, 2.0), Route::new(hops));

    net.run(3.0);
    net.verify_conservation().expect("conservation holds");
    println!("{} packets served", net.stats.total_packets);

    // Perfetto timeline: merge the per-link JSONL traces, parse them
    // back, and render tx slices in simulation time.
    let bufs: Vec<String> = net
        .into_observers()
        .into_iter()
        .map(|o| String::from_utf8(o.into_inner()).expect("utf8 trace"))
        .collect();
    let (events, skipped) = parse_trace(&merge_traces(&bufs));
    assert_eq!(skipped, 0, "trace had unparseable lines");
    let json = chrome_trace(&events);
    std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "{} trace events -> {} ({} bytes); open in https://ui.perfetto.dev",
        events.len(),
        path,
        json.len()
    );
}
