//! Heterogeneous trees (per-node policies via `MixedScheduler`) must
//! compose cleanly with the hierarchy.

use hpfq::core::{Hierarchy, MixedScheduler, Packet, SchedulerKind};

/// A heterogeneous tree: WF²Q+ at the link, FIFO inside a best-effort
/// class, DRR inside another. The link-level isolation must hold even
/// though the inner policies provide none.
#[test]
fn mixed_policy_tree_isolates_at_the_link_level() {
    let mut b = Hierarchy::builder(1e6, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = b.root();
    // Guaranteed class under WF²Q+.
    let guaranteed = b.add_leaf(root, 0.5).unwrap();
    // Best-effort class whose children are served FIFO.
    let be = b
        .add_internal_with(root, 0.3, SchedulerKind::Fifo.build(0.3 * 1e6))
        .unwrap();
    let be1 = b.add_leaf(be, 0.5).unwrap();
    let be2 = b.add_leaf(be, 0.5).unwrap();
    // Bulk class whose children are served DRR.
    let bulk = b
        .add_internal_with(root, 0.2, SchedulerKind::Drr.build(0.2 * 1e6))
        .unwrap();
    let bulk1 = b.add_leaf(bulk, 0.9).unwrap();
    let bulk2 = b.add_leaf(bulk, 0.1).unwrap();
    let mut h: Hierarchy<MixedScheduler> = b.build();

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

/// A `MixedScheduler` that counts the arrival hints it is handed.
struct CountingHints {
    inner: MixedScheduler,
    hints: Hints,
}

type Hints = std::rc::Rc<std::cell::Cell<u64>>;

impl hpfq::core::NodeScheduler for CountingHints {
    fn rate_bps(&self) -> f64 {
        self.inner.rate_bps()
    }
    fn add_session(&mut self, phi: f64) -> hpfq::core::SessionId {
        self.inner.add_session(phi)
    }
    fn backlog(&mut self, id: hpfq::core::SessionId, head_bits: f64, ref_now: Option<f64>) {
        self.inner.backlog(id, head_bits, ref_now)
    }
    fn arrival_hint(&mut self, id: hpfq::core::SessionId, bits: f64, ref_now: Option<f64>) {
        self.hints.set(self.hints.get() + 1);
        self.inner.arrival_hint(id, bits, ref_now)
    }
    fn wants_arrival_hints(&self) -> bool {
        self.inner.wants_arrival_hints()
    }
    fn select_next(&mut self) -> Option<hpfq::core::SessionId> {
        self.inner.select_next()
    }
    fn requeue(&mut self, id: hpfq::core::SessionId, next_head_bits: Option<f64>) {
        self.inner.requeue(id, next_head_bits)
    }
    fn backlogged(&self) -> usize {
        self.inner.backlogged()
    }
    fn virtual_time(&self) -> f64 {
        self.inner.virtual_time()
    }
    fn phi(&self, id: hpfq::core::SessionId) -> f64 {
        self.inner.phi(id)
    }
    fn tags(&self, id: hpfq::core::SessionId) -> (f64, f64) {
        self.inner.tags(id)
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn set_is_root(&mut self, is_root: bool) {
        self.inner.set_is_root(is_root)
    }
}

/// The hierarchy skips the hint walk only when *no* scheduler in the tree
/// wants hints. One WFQ node two levels down a WF²Q+ tree must still be
/// told of every packet that joins an already-backlogged child of its —
/// that is what keeps its GPS emulation exact — while the same tree with
/// WF²Q+ in that position delivers no hint to anyone.
#[test]
fn a_wfq_node_deep_in_a_wf2q_plus_tree_still_gets_every_hint() {
    for deep_kind in [SchedulerKind::Wfq, SchedulerKind::Wf2qPlus] {
        let (above, deep) = (Hints::default(), Hints::default());
        let counted = |kind: SchedulerKind, rate: f64, hints: &Hints| CountingHints {
            inner: kind.build(rate),
            hints: Hints::clone(hints),
        };
        let for_root = Hints::clone(&above);
        let mut b =
            Hierarchy::builder(1e6, move |r| counted(SchedulerKind::Wf2qPlus, r, &for_root));
        let root = b.root();
        let other = b.add_leaf(root, 0.4).unwrap();
        let class = b
            .add_internal_with(root, 0.6, counted(SchedulerKind::Wf2qPlus, 0.6e6, &above))
            .unwrap();
        let sibling = b.add_leaf(class, 0.5).unwrap();
        let node = b
            .add_internal_with(class, 0.5, counted(deep_kind, 0.3e6, &deep))
            .unwrap();
        let under = [
            b.add_leaf(node, 0.5).unwrap(),
            b.add_leaf(node, 0.5).unwrap(),
        ];
        let mut h: Hierarchy<CountingHints> = b.build();

        // A fixed pseudo-random interleaving of arrivals and services.
        let leaves = [other, sibling, under[0], under[1]];
        let (mut id, mut x, mut owed) = (0u64, 12345u32, 0u64);
        for step in 0..2000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let now = f64::from(step) * 1e-3;
            let leaf = leaves[(x >> 16) as usize % leaves.len()];
            if (x >> 8) % 3 != 0 {
                // The deep node hears of this arrival by hint exactly when
                // the leaf's session there was already backlogged.
                if under.contains(&leaf) && h.leaf_queue_len(leaf) > 0 {
                    owed += 1;
                }
                id += 1;
                h.enqueue(leaf, Packet::new(id, 0, 125, now));
            } else if !h.is_transmitting() {
                h.start_transmission_at(now);
            } else {
                h.complete_transmission_at(now);
            }
        }
        assert!(owed > 100, "workload too small: {owed}");
        if deep_kind == SchedulerKind::Wfq {
            assert_eq!(deep.get(), owed, "the WFQ node missed hints");
            assert!(above.get() > 0, "the walk passes through the nodes above");
        } else {
            assert_eq!((deep.get(), above.get()), (0, 0), "nobody asked for hints");
        }
    }
}
