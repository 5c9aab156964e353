//! The two reference networks of the snapshot, parallel, crash-recovery
//! and hostile-snapshot suites, built once here: the reduced Fig. 3
//! workload on one link and the 3-link tandem with cross traffic.

// Each test crate uses its own subset of these builders.
#![allow(dead_code)]

use hpfq::core::{Hierarchy, MixedScheduler, NodeId, SchedulerKind};
use hpfq::obs::snap::Value;
use hpfq::obs::JsonlObserver;
use hpfq::sim::{
    CbrSource, Hop, Network, PacketTrainSource, PeriodicOnOffSource, PoissonSource, Route,
    SimCommand,
};

pub const LINK: f64 = 45e6;
pub const PKT: u32 = 8192;

pub type Obs = JsonlObserver<Vec<u8>>;

pub fn sink() -> Obs {
    JsonlObserver::new(Vec::new())
}

/// The reduced Fig. 3 tree on one link: N-R → {N-2 → {N-1 → {RT-1,
/// BE-1}, PS-6}, PS-1, CS-1}. Returns the leaves as `[RT-1, BE-1, PS-1,
/// CS-1, PS-6]`.
pub fn fig3_tree() -> (Hierarchy<MixedScheduler, Obs>, [NodeId; 5]) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
        LINK,
        move |r| kind.build(r),
        sink(),
    );
    let root = bld.root();
    let n2 = bld.add_internal(root, 0.5).unwrap();
    let n1 = bld.add_internal(n2, 0.494).unwrap();
    let rt1 = bld.add_leaf(n1, 0.81).unwrap();
    let be1 = bld.add_leaf(n1, 0.19).unwrap();
    let ps1 = bld.add_leaf(root, 0.05).unwrap();
    let cs1 = bld.add_leaf(root, 0.05).unwrap();
    let ps6 = bld.add_leaf(n2, 0.0506).unwrap();
    (bld.build(), [rt1, be1, ps1, cs1, ps6])
}

/// The reduced Fig. 3 workload on [`fig3_tree`]: five sources, a 30 ms
/// outage, one finite buffer. Mirrors `network_vs_simulation::fig3ish`.
pub fn fig3_net() -> Network<MixedScheduler, Obs> {
    let (tree, [rt1, be1, ps1, cs1, ps6]) = fig3_tree();
    let mut net: Network<MixedScheduler, Obs> = Network::new();
    net.add_link(tree);
    net.stats.trace_flow(1);
    net.add_route(
        1,
        PeriodicOnOffSource::new(1, PKT, 9e6, 0.025, 0.100, 0.200, f64::INFINITY),
        Route::single(rt1, None, 0.0),
    );
    net.add_route(
        2,
        CbrSource::new(2, PKT, 12e6, 0.0, f64::INFINITY),
        Route::single(be1, Some(3 * u64::from(PKT)), 0.0),
    );
    net.add_route(
        11,
        PoissonSource::new(11, PKT, 2.25e6, 0.0, f64::INFINITY, 7),
        Route::single(ps1, None, 0.001),
    );
    net.add_route(
        31,
        PacketTrainSource::new(
            31,
            PKT,
            7,
            f64::from(PKT) * 8.0 / LINK,
            0.193,
            0.05,
            f64::INFINITY,
        ),
        Route::single(cs1, None, 0.0),
    );
    net.add_route(
        16,
        PoissonSource::new(16, PKT, 1.14e6, 0.0, f64::INFINITY, 9),
        Route::single(ps6, None, 0.0),
    );
    net.schedule_command(0.9, SimCommand::SetLinkRate(0.0));
    net.schedule_command(0.93, SimCommand::SetLinkRate(LINK));
    net
}

/// Link `li` of the tandem: a 10 Mb/s root over the tandem flow's leaf
/// (share 0.2 on the middle link, 0.5 elsewhere) and the cross flow's.
/// Returns `(tree, tandem leaf, cross leaf)`.
pub fn tandem_link(li: usize) -> (Hierarchy<MixedScheduler, Obs>, NodeId, NodeId) {
    let kind = SchedulerKind::Wf2qPlus;
    let mut bld = Hierarchy::<MixedScheduler, Obs>::builder_with_observer(
        10e6,
        move |r| kind.build(r),
        sink(),
    );
    let root = bld.root();
    let phi = if li == 1 { 0.2 } else { 0.5 };
    let tandem_leaf = bld.add_leaf(root, phi).unwrap();
    let cross_leaf = bld.add_leaf(root, 1.0 - phi).unwrap();
    (bld.build(), tandem_leaf, cross_leaf)
}

/// A 3-hop tandem (flow 0) with saturating single-hop cross traffic on
/// every link, a tight mid-path buffer, a mid-run outage on the middle
/// link, and churn: one cross flow leaves early, the tandem flow itself
/// is removed mid-path late in the run (its downstream detachments ride
/// cross-shard `Detach` events under parallel execution).
pub fn tandem_net() -> Network<MixedScheduler, Obs> {
    let mut net: Network<MixedScheduler, Obs> = Network::new();
    let mut hops = Vec::new();
    for li in 0..3usize {
        let (tree, tandem_leaf, cross_leaf) = tandem_link(li);
        let link = net.add_link(tree);
        assert_eq!(link, li);
        hops.push(Hop {
            link,
            leaf: tandem_leaf,
            buffer_bytes: if li == 1 {
                Some(2 * u64::from(PKT))
            } else {
                None
            },
            prop_delay: 0.002,
        });
        let flow = 100 + link as u32;
        net.add_route(
            flow,
            CbrSource::new(flow, PKT, 8e6, 0.0, 5.0),
            Route::new(vec![Hop {
                link,
                leaf: cross_leaf,
                buffer_bytes: Some(16 * u64::from(PKT)),
                prop_delay: 0.0,
            }]),
        );
    }
    net.stats.trace_flow(0);
    net.add_route(0, CbrSource::new(0, PKT, 4e6, 0.0, 5.0), Route::new(hops));
    // 50 ms outage on the middle link mid-run.
    net.schedule_command(1.0, SimCommand::SetLinkRateOn { link: 1, bps: 0.0 });
    net.schedule_command(1.05, SimCommand::SetLinkRateOn { link: 1, bps: 10e6 });
    // Churn: a cross flow leaves, then the tandem flow is torn down
    // mid-path while packets are still in flight between hops.
    net.schedule_command(2.0, SimCommand::RemoveFlow(101));
    net.schedule_command(3.0, SimCommand::RemoveFlow(0));
    net
}

/// `v` with the value at the dotted `path` — map keys, and list indices
/// as numbers — replaced by `new`.
pub fn replaced(v: &Value, path: &str, new: Value) -> Value {
    if path.is_empty() {
        return new;
    }
    let (first, rest) = path.split_once('.').unwrap_or((path, ""));
    let at = |k: &str, x: &Value| {
        if k == first {
            replaced(x, rest, new.clone())
        } else {
            x.clone()
        }
    };
    match v {
        Value::Map(pairs) => Value::Map(pairs.iter().map(|(k, x)| (k.clone(), at(k, x))).collect()),
        Value::List(items) => Value::List(
            items
                .iter()
                .enumerate()
                .map(|(i, x)| at(&i.to_string(), x))
                .collect(),
        ),
        _ => panic!("no '{first}' in {v:?}"),
    }
}
