//! Heterogeneous trees (per-node policies via `MixedScheduler`) must
//! compose cleanly with the hierarchy.

use hpfq::core::{Hierarchy, MixedScheduler, Packet, SchedulerKind};

/// A heterogeneous tree: WF²Q+ at the link, FIFO inside a best-effort
/// class, DRR inside another. The link-level isolation must hold even
/// though the inner policies provide none.
#[test]
fn mixed_policy_tree_isolates_at_the_link_level() {
    let mut h: Hierarchy<MixedScheduler> =
        Hierarchy::builder(1e6, |r| SchedulerKind::Wf2qPlus.build(r)).build();
    let root = h.root();
    // Guaranteed class under WF²Q+.
    let guaranteed = h.add_leaf(root, 0.5).unwrap();
    // Best-effort class whose children are served FIFO.
    let be = h
        .add_internal_with(root, 0.3, SchedulerKind::Fifo.build(0.3 * 1e6))
        .unwrap();
    let be1 = h.add_leaf(be, 0.5).unwrap();
    let be2 = h.add_leaf(be, 0.5).unwrap();
    // Bulk class whose children are served DRR.
    let bulk = h
        .add_internal_with(root, 0.2, SchedulerKind::Drr.build(0.2 * 1e6))
        .unwrap();
    let bulk1 = h.add_leaf(bulk, 0.9).unwrap();
    let bulk2 = h.add_leaf(bulk, 0.1).unwrap();

    // Everyone floods with 500 packets of 1000 bits.
    let mut id = 0;
    for (flow, leaf) in [
        (0u32, guaranteed),
        (1, be1),
        (2, be2),
        (3, bulk1),
        (4, bulk2),
    ] {
        for _ in 0..500 {
            id += 1;
            h.enqueue(leaf, Packet::new(id, flow, 125, 0.0));
        }
    }
    // Serve 1000 packets; count per class.
    let mut counts = [0usize; 5];
    for _ in 0..1000 {
        let p = h.dequeue().unwrap();
        counts[p.flow as usize] += 1;
    }
    let g = counts[0] as f64;
    let be_total = (counts[1] + counts[2]) as f64;
    let bulk_total = (counts[3] + counts[4]) as f64;
    assert!((g / 1000.0 - 0.5).abs() < 0.02, "{counts:?}");
    assert!((be_total / 1000.0 - 0.3).abs() < 0.02, "{counts:?}");
    assert!((bulk_total / 1000.0 - 0.2).abs() < 0.02, "{counts:?}");
    // DRR honors its weights within the class.
    assert!(
        counts[3] > counts[4] * 5,
        "DRR 0.9/0.1 split not visible: {counts:?}"
    );
}
