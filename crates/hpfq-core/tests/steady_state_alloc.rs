//! Proves the steady-state enqueue → dispatch → complete cycle of a
//! depth-3 WF²Q+ tree performs **zero heap allocations**.
//!
//! The hierarchy refactor moved every construction-time concern (the
//! scheduler factory) into `HierarchyBuilder` and gave `Hierarchy` a
//! reusable path scratch buffer, so once the tree and its FIFO capacities
//! are warmed up, serving traffic touches only preallocated storage. A
//! counting global allocator makes that claim checkable instead of
//! aspirational.
//!
//! The leaf queues are chains through one packet slab the hierarchy owns,
//! so "its FIFO capacities" is one number — [`Hierarchy::packet_slots`] —
//! and the second test holds it still over a long run of flow churn: the
//! slots of purged and departed packets go back on the slab's free chain.
//!
//! The allocation counter is per thread (a `const`-initialized
//! thread-local, which the allocator can read without allocating), so the
//! tests of this binary cannot disturb each other's counts.
#![allow(clippy::cast_possible_truncation, reason = "small test inputs")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hpfq_core::{Hierarchy, MixedScheduler, Packet, SchedulerKind};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|a| a.set(a.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn depth3_wf2qplus_steady_state_cycle_is_allocation_free() {
    // Depth-3 tree: root -> 2 classes -> 2 subclasses each -> 2 leaves
    // each (8 leaves).
    let mut b = Hierarchy::builder(8e6, |r| SchedulerKind::Wf2qPlus.build(r));
    let root = b.root();
    let mut leaves = Vec::new();
    for _ in 0..2 {
        let cls = b.add_internal(root, 0.5).unwrap();
        for _ in 0..2 {
            let sub = b.add_internal(cls, 0.5).unwrap();
            for _ in 0..2 {
                leaves.push(b.add_leaf(sub, 0.5).unwrap());
            }
        }
    }
    let mut h = b.build();

    let mut id = 0u64;
    let mut now = 0.0;
    let mut cycle = |h: &mut Hierarchy<MixedScheduler>, leaves: &[hpfq_core::NodeId]| {
        // One arrival per leaf, then drain one packet per leaf: the tree
        // stays busy and every FIFO oscillates around its warmed depth.
        for (i, &leaf) in leaves.iter().enumerate() {
            h.enqueue(leaf, Packet::new(id, i as u32, 125, now));
            id += 1;
        }
        for _ in 0..leaves.len() {
            assert!(h.start_transmission_at(now).is_some());
            now += 125.0 * 8.0 / 8e6;
            h.complete_transmission_at(now);
        }
    };

    // Warm-up: grows the packet slab, scheduler internals, and the path
    // scratch buffer to their steady-state capacity.
    for _ in 0..64 {
        cycle(&mut h, &leaves);
    }
    assert_eq!(h.packet_slots(), leaves.len());

    let before = allocations();
    for _ in 0..32 {
        cycle(&mut h, &leaves);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state enqueue/dispatch/complete cycle allocated"
    );
}

/// Flow churn: every round a leaf joins, queues a burst and is removed —
/// alternately while merely backlogged and while its head is on the wire.
/// The purged packets come back in arrival order, and their slots — like
/// those of every packet served — are reused: after the first rounds the
/// slab never grows again, and a serve cycle between removals allocates
/// nothing.
#[test]
fn long_churn_run_stops_growing_the_packet_slab() {
    const BURST: u64 = 6;
    let mut h = Hierarchy::builder(8e6, |r| SchedulerKind::Wf2qPlus.build(r)).build();
    let root = h.root();
    let stay: Vec<_> = (0..4).map(|_| h.add_leaf(root, 0.2).unwrap()).collect();
    let mut id = 0u64;
    let mut now = 0.0;
    let mut offer = |h: &mut Hierarchy<MixedScheduler>, leaf, flow: u32, now: f64| {
        id += 1;
        h.enqueue(leaf, Packet::new(id, flow, 125, now));
        id
    };
    let mut slots_after_warm_up = 0;
    for round in 0..if cfg!(miri) { 40 } else { 4000 } {
        let in_flight = round % 2 == 1;
        let joiner = h.add_leaf(root, 0.1).unwrap();
        // Whoever is offered first to the idle link is in flight.
        let first = if in_flight { joiner } else { stay[0] };
        offer(&mut h, first, 9, now);
        assert!(h.start_transmission_at(now).is_some());
        for &leaf in &stay {
            offer(&mut h, leaf, 1, now);
        }
        let burst: Vec<u64> = (0..BURST).map(|_| offer(&mut h, joiner, 2, now)).collect();
        // The joiner's head stays — its first packet, on the wire, or the
        // first of the burst, offered; everything behind it is purged.
        let behind_head = if in_flight { &burst[..] } else { &burst[1..] };
        let purged = h.remove_leaf(joiner).unwrap();
        let purged: Vec<u64> = purged.iter().map(|p| p.id).collect();
        assert_eq!(purged, behind_head, "round {round}");
        assert!(h.is_detached(joiner));
        assert_eq!(h.leaf_queue_len(joiner), 1);

        let before = allocations();
        loop {
            now += 125.0 * 8.0 / 8e6;
            h.complete_transmission_at(now);
            if h.start_transmission_at(now).is_none() {
                break;
            }
        }
        assert_eq!(h.leaf_queue_len(joiner), 0);
        assert!(
            (h.allocated_share(root) - 0.8).abs() < 1e-9,
            "round {round}"
        );
        if round == 8 {
            slots_after_warm_up = h.packet_slots();
        } else if round > 8 {
            assert_eq!(
                allocations() - before,
                0,
                "round {round}: serving allocated"
            );
            assert_eq!(
                h.packet_slots(),
                slots_after_warm_up,
                "round {round}: the packet slab grew"
            );
        }
    }
    // One in flight, one at each of the four that stay, the burst.
    assert_eq!(slots_after_warm_up as u64, 1 + 4 + BURST);
}
