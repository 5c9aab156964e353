//! Online invariant checking.
//!
//! [`InvariantObserver`] watches the live event stream and verifies the
//! properties the paper's correctness argument rests on:
//!
//! * **Tag ordering** — every dispatched head satisfies `S ≤ F`
//!   (eqs. 28–29 always add a positive `L/φ` to form `F`).
//! * **Virtual-time monotonicity** — a node's virtual time never decreases
//!   within a busy period (eq. 27 takes a max, then adds `L/r`); the state
//!   is cleared when a [`BusyResetEvent`] legitimately rewinds the clock.
//! * **SEFF eligibility** — for WF²Q+ nodes, the dispatched session was
//!   eligible: its start tag does not exceed the system virtual time used
//!   for the selection (recovered as `v_after − L/r` from eq. 27).
//! * **Work conservation** — a link that is up never sits idle while
//!   packets are queued: whenever a transmission completes with backlog
//!   remaining, a packet arrives at an idle server, or the link comes back
//!   up with backlog, the next `tx_start` carries the same timestamp.
//!
//! The checker reads the faults a run traces, so nothing is excused: a
//! `link_down` suspends the link's debt (a start already overdue is still
//! reported), a `link_up` owes a start if packets wait and none is in
//! flight, and a `flow_remove` cuts its leaf's queue (its last enqueue's
//! `queue_depth`, less completions) to the one head `remove_leaf` keeps.
//!
//! All state is kept **per link** (events carry a link id), so one checker
//! can ride a merged multi-link trace: node virtual times and the
//! work-conservation ledger of link 0 never bleed into link 1. Violations
//! are recorded (bounded, first [`InvariantObserver::MAX_STORED`] kept)
//! rather than panicked on, so a checker can ride along in benches and long
//! soak runs; tests assert [`InvariantObserver::is_clean`]. After warm-up
//! (every link, node and leaf seen once) the checker allocates only when
//! it stores a violation, so it is safe on the hot path.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{
    BacklogEvent, BusyResetEvent, DispatchEvent, DropEvent, EnqueueEvent, FaultEvent, FaultKind,
    TxEvent,
};
use crate::vtime;
use crate::Observer;

/// Which invariant a [`Violation`] breaches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// A dispatched head had `S > F`.
    TagOrder,
    /// A node's virtual time decreased without a busy-period reset.
    VirtualTimeMonotone,
    /// A WF²Q+ node dispatched an ineligible session (`S > V`).
    SeffEligibility,
    /// A link idled while packets were queued.
    WorkConservation,
}

impl fmt::Display for InvariantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InvariantKind::TagOrder => "tag-order (S <= F)",
            InvariantKind::VirtualTimeMonotone => "virtual-time monotonicity",
            InvariantKind::SeffEligibility => "SEFF eligibility (S <= V)",
            InvariantKind::WorkConservation => "work conservation",
        };
        f.write_str(s)
    }
}

/// One recorded invariant breach.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which invariant failed.
    pub kind: InvariantKind,
    /// Event time at which it was detected.
    pub time: f64,
    /// Link the breach occurred on.
    pub link: usize,
    /// Node the breach is attributed to (the dispatching node, or the root
    /// for work-conservation breaches).
    pub node: usize,
    /// Human-readable detail with the offending numbers.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[t={:.9}] link {} node {}: {} violated: {}",
            self.time, self.link, self.node, self.kind, self.detail
        )
    }
}

/// Per-node state the checker carries between events.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// Last virtual time observed on this node, if any this busy period.
    last_v: Option<f64>,
}

/// Per-link state: each link has its own hierarchy of nodes and its own
/// work-conservation ledger.
#[derive(Debug, Clone, Default)]
struct LinkState {
    /// Node state by node id, created on first sight: ids come from
    /// traces too, so none may size an allocation.
    nodes: BTreeMap<usize, NodeState>,
    /// Packets queued (in flight included) per leaf id.
    depth: BTreeMap<usize, usize>,
    /// The sum of `depth`.
    queued: usize,
    link_busy: bool,
    /// Between a `link_down` and the next `link_up`: an idle link owes
    /// no start.
    down: bool,
    /// When set, a `tx_start` at exactly this time is owed; any later
    /// event arriving first is an idle-while-backlogged breach.
    pending_start: Option<f64>,
}

impl LinkState {
    fn node_mut(&mut self, node: usize) -> &mut NodeState {
        self.nodes.entry(node).or_default()
    }

    /// Sets `leaf`'s queue to `depth` packets.
    fn set_depth(&mut self, leaf: usize, depth: usize) {
        let old = std::mem::replace(self.depth.entry(leaf).or_default(), depth);
        // Saturating: a hostile trace's depths may be anything.
        self.queued = self.queued.saturating_sub(old).saturating_add(depth);
    }
}

/// An [`Observer`] that checks scheduler invariants online.
///
/// Tolerances: comparisons use a relative-ish epsilon
/// ([`InvariantObserver::EPS`]) scaled by the magnitudes involved, since
/// the tags are accumulated `f64` sums.
#[derive(Debug, Clone, Default)]
pub struct InvariantObserver {
    /// Per-link state by link id, created on first sight.
    links: BTreeMap<usize, LinkState>,
    violations: Vec<Violation>,
    /// Total breaches seen, including ones beyond the storage bound.
    pub total_violations: u64,
    /// Events inspected.
    pub events_checked: u64,
}

impl InvariantObserver {
    /// Comparison tolerance at magnitude 1 — three orders looser than the
    /// schedulers' own [`vtime::EPS`], since a checker must not cry wolf
    /// on drift the arithmetic it watches legitimately accumulates.
    pub const EPS: f64 = 1000.0 * vtime::EPS;
    /// At most this many [`Violation`]s are stored (all are counted).
    pub const MAX_STORED: usize = 100;

    /// A fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` iff no invariant has been breached.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The stored violations (first [`Self::MAX_STORED`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// One-line summary, e.g. for test failure messages.
    pub fn summary(&self) -> String {
        if self.is_clean() {
            format!("clean: {} events checked", self.events_checked)
        } else {
            let first = self
                .violations
                .first()
                .map(|v| v.to_string())
                .unwrap_or_default();
            format!(
                "{} violations in {} events; first: {}",
                self.total_violations, self.events_checked, first
            )
        }
    }

    fn link_mut(&mut self, link: usize) -> &mut LinkState {
        self.links.entry(link).or_default()
    }

    /// Records a breach. `detail` is a closure so the message only
    /// allocates for violations that are actually stored — the clean path
    /// and the beyond-`MAX_STORED` path format nothing.
    fn push(
        &mut self,
        kind: InvariantKind,
        time: f64,
        link: usize,
        node: usize,
        detail: impl FnOnce() -> String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < Self::MAX_STORED {
            self.violations.push(Violation {
                kind,
                time,
                link,
                node,
                detail: detail(),
            });
        }
    }

    /// Any event on `link` at time `t` that is not the owed `tx_start`
    /// exposes an idle gap if it happens strictly later than the owed
    /// start.
    fn check_pending_start(&mut self, link: usize, t: f64) {
        let st = self.link_mut(link);
        if let Some(due) = st.pending_start {
            if vtime::exceeds_by(t, due, Self::EPS) {
                let queued = st.queued;
                // Re-arm at the later time so one gap yields one violation.
                st.pending_start = Some(t);
                self.push(InvariantKind::WorkConservation, t, link, 0, || {
                    format!(
                        "link idle with {queued} queued packet(s): tx_start owed at t={due}, \
                         next event at t={t}"
                    )
                });
            }
        }
    }
}

impl Observer for InvariantObserver {
    fn on_enqueue(&mut self, e: &EnqueueEvent) {
        self.events_checked += 1;
        self.check_pending_start(e.link, e.time);
        let st = self.link_mut(e.link);
        st.set_depth(e.leaf, e.queue_depth);
        if !st.link_busy && !st.down && st.pending_start.is_none() {
            // Packet arrived at an idle server: service must start now.
            st.pending_start = Some(e.time);
        }
    }

    fn on_drop(&mut self, e: &DropEvent) {
        self.events_checked += 1;
        self.check_pending_start(e.link, e.time);
    }

    fn on_dispatch(&mut self, e: &DispatchEvent) {
        self.events_checked += 1;

        // S <= F on the dispatched head.
        if vtime::exceeds_by(e.start_tag, e.finish_tag, Self::EPS) {
            self.push(InvariantKind::TagOrder, e.time, e.link, e.node, || {
                format!("S={} > F={}", e.start_tag, e.finish_tag)
            });
        }

        // V never decreases across the selection or between selections
        // within a busy period.
        if vtime::exceeds_by(e.v_before, e.v_after, Self::EPS) {
            self.push(
                InvariantKind::VirtualTimeMonotone,
                e.time,
                e.link,
                e.node,
                || {
                    format!(
                        "V stepped back across dispatch: {} -> {}",
                        e.v_before, e.v_after
                    )
                },
            );
        }
        let st = self.link_mut(e.link).node_mut(e.node);
        let prev = st.last_v;
        st.last_v = Some(e.v_after);
        if let Some(prev) = prev {
            if vtime::exceeds_by(prev, e.v_before, Self::EPS) {
                self.push(
                    InvariantKind::VirtualTimeMonotone,
                    e.time,
                    e.link,
                    e.node,
                    || {
                        format!(
                            "V decreased between dispatches without busy reset: {} -> {}",
                            prev, e.v_before
                        )
                    },
                );
            }
        }

        // SEFF: for WF²Q+, eq. 27 sets v_after = max(V, Smin) + L/r where
        // Smin is the eligibility threshold actually used, so the system
        // virtual time the winner was measured against is v_after - L/r,
        // and an eligible winner has S <= that threshold.
        if e.policy == "wf2q+" && e.node_rate > 0.0 {
            let thr = e.v_after - e.head_bits / e.node_rate;
            if vtime::exceeds_by(e.start_tag, thr, Self::EPS) {
                self.push(
                    InvariantKind::SeffEligibility,
                    e.time,
                    e.link,
                    e.node,
                    || format!("ineligible dispatch: S={} > V={thr}", e.start_tag),
                );
            }
        }
    }

    fn on_tx_start(&mut self, e: &TxEvent) {
        self.events_checked += 1;
        let st = self.link_mut(e.link);
        let late = st
            .pending_start
            .filter(|&due| vtime::exceeds_by(e.time, due, Self::EPS));
        st.pending_start = None;
        st.link_busy = true;
        if let Some(due) = late {
            self.push(InvariantKind::WorkConservation, e.time, e.link, 0, || {
                format!("tx_start late: owed at t={due}, started at t={}", e.time)
            });
        }
    }

    fn on_tx_complete(&mut self, e: &TxEvent) {
        self.events_checked += 1;
        let st = self.link_mut(e.link);
        st.link_busy = false;
        let depth = st.depth.get(&e.leaf).copied().unwrap_or_default();
        st.set_depth(e.leaf, depth.saturating_sub(1));
        st.pending_start = (st.queued > 0 && !st.down).then_some(e.time);
        if depth == 0 {
            self.push(InvariantKind::WorkConservation, e.time, e.link, 0, || {
                "tx_complete without matching enqueue".to_string()
            });
        }
    }

    fn on_node_backlog(&mut self, e: &BacklogEvent) {
        self.events_checked += 1;
        self.check_pending_start(e.link, e.time);
    }

    fn on_busy_reset(&mut self, e: &BusyResetEvent) {
        self.events_checked += 1;
        // Eq. 4: V is defined per busy period — the rewind is legitimate.
        self.link_mut(e.link).node_mut(e.node).last_v = None;
    }

    fn on_fault(&mut self, e: &FaultEvent) {
        self.events_checked += 1;
        self.check_pending_start(e.link, e.time);
        let st = self.link_mut(e.link);
        match e.kind {
            FaultKind::LinkDown => {
                st.down = true;
                st.pending_start = None;
            }
            FaultKind::LinkUp => {
                st.down = false;
                if st.queued > 0 && !st.link_busy {
                    st.pending_start = Some(e.time);
                }
            }
            // `remove_leaf` purges all but the leaf's offered head.
            FaultKind::FlowRemove => {
                let depth = st.depth.get(&e.node).copied().unwrap_or_default();
                st.set_depth(e.node, depth.min(1));
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PacketInfo;

    fn dispatch(v_before: f64, v_after: f64, s: f64, f: f64) -> DispatchEvent {
        dispatch_on(0, v_before, v_after, s, f)
    }

    fn dispatch_on(link: usize, v_before: f64, v_after: f64, s: f64, f: f64) -> DispatchEvent {
        DispatchEvent {
            time: 0.0,
            link,
            node: 0,
            session: 0,
            child: 1,
            start_tag: s,
            finish_tag: f,
            phi: 0.5,
            v_before,
            v_after,
            head_bits: 8000.0,
            node_rate: 8000.0,
            policy: "wf2q+",
        }
    }

    #[test]
    fn clean_dispatch_passes() {
        let mut inv = InvariantObserver::new();
        // v_after = max(V, Smin) + L/r = 0 + 1; S=0 eligible, F=2 > S.
        inv.on_dispatch(&dispatch(0.0, 1.0, 0.0, 2.0));
        assert!(inv.is_clean(), "{}", inv.summary());
    }

    #[test]
    fn tag_order_violation_is_caught() {
        let mut inv = InvariantObserver::new();
        inv.on_dispatch(&dispatch(0.0, 1.0, 3.0, 2.0));
        assert!(!inv.is_clean());
        assert!(inv
            .violations()
            .iter()
            .any(|v| v.kind == InvariantKind::TagOrder));
    }

    #[test]
    fn seff_ineligible_dispatch_is_caught() {
        let mut inv = InvariantObserver::new();
        // Threshold recovered as v_after - L/r = 1.0; S = 5.0 is not
        // eligible at V = 1.0.
        inv.on_dispatch(&dispatch(0.0, 2.0, 5.0, 6.0));
        assert!(inv
            .violations()
            .iter()
            .any(|v| v.kind == InvariantKind::SeffEligibility));
    }

    #[test]
    fn v_rewind_without_reset_is_caught_and_reset_clears_it() {
        let mut inv = InvariantObserver::new();
        inv.on_dispatch(&dispatch(0.0, 5.0, 0.0, 1.0));
        // Rewind with no busy reset: violation.
        inv.on_dispatch(&dispatch(1.0, 2.0, 1.0, 2.0));
        assert_eq!(inv.total_violations, 1);
        assert_eq!(inv.violations()[0].kind, InvariantKind::VirtualTimeMonotone);

        let mut inv2 = InvariantObserver::new();
        inv2.on_dispatch(&dispatch(0.0, 5.0, 0.0, 1.0));
        inv2.on_busy_reset(&BusyResetEvent {
            time: 1.0,
            link: 0,
            node: 0,
        });
        // Same rewind is fine after a reset.
        inv2.on_dispatch(&dispatch(0.0, 1.0, 0.0, 2.0));
        assert!(inv2.is_clean(), "{}", inv2.summary());
    }

    #[test]
    fn per_link_state_is_independent() {
        let mut inv = InvariantObserver::new();
        // Link 0 advances to V = 5; a dispatch on link 1 starting from
        // V = 0 is a fresh hierarchy, not a rewind.
        inv.on_dispatch(&dispatch_on(0, 0.0, 5.0, 0.0, 1.0));
        inv.on_dispatch(&dispatch_on(1, 0.0, 1.0, 0.0, 2.0));
        assert!(inv.is_clean(), "{}", inv.summary());

        // A genuine rewind on link 0 is still caught and attributed there.
        inv.on_dispatch(&dispatch_on(0, 1.0, 2.0, 1.0, 2.0));
        assert_eq!(inv.total_violations, 1);
        assert_eq!(inv.violations()[0].link, 0);
        assert_eq!(inv.violations()[0].kind, InvariantKind::VirtualTimeMonotone);
    }

    /// Link and node ids arrive from traces too: the largest are tracked
    /// like any other, and no id sizes an allocation.
    #[test]
    fn ids_from_a_trace_size_no_allocation() {
        let mut inv = InvariantObserver::new();
        let far = DispatchEvent {
            node: usize::MAX,
            ..dispatch_on(usize::MAX, 0.0, 5.0, 0.0, 1.0)
        };
        inv.on_dispatch(&far);
        inv.on_dispatch(&DispatchEvent {
            v_before: 1.0,
            v_after: 2.0,
            ..far
        });
        assert_eq!(inv.total_violations, 1);
        assert_eq!(inv.violations()[0].link, usize::MAX);
        assert_eq!(inv.violations()[0].kind, InvariantKind::VirtualTimeMonotone);
    }

    #[test]
    fn per_link_work_conservation_is_independent() {
        let pkt = PacketInfo {
            id: 1,
            flow: 0,
            len_bytes: 125,
            arrival: 0.0,
        };
        let mut inv = InvariantObserver::new();
        // Packet arrives at idle link 0 at t=0 — link 0 owes a tx_start.
        inv.on_enqueue(&EnqueueEvent {
            time: 0.0,
            link: 0,
            leaf: 1,
            pkt,
            queue_depth: 1,
            queue_bytes: 125,
        });
        // Link 1 serving its own traffic later must NOT discharge (or
        // trip) link 0's owed start.
        inv.on_tx_start(&TxEvent {
            time: 1.0,
            link: 1,
            leaf: 2,
            pkt,
        });
        assert!(inv.is_clean(), "{}", inv.summary());
        // Link 0's start finally arriving late is still caught.
        inv.on_tx_start(&TxEvent {
            time: 2.0,
            link: 0,
            leaf: 1,
            pkt,
        });
        assert_eq!(inv.total_violations, 1);
        assert_eq!(inv.violations()[0].link, 0);
        assert_eq!(inv.violations()[0].kind, InvariantKind::WorkConservation);
    }

    #[test]
    fn idle_link_with_backlog_is_caught() {
        let pkt = PacketInfo {
            id: 1,
            flow: 0,
            len_bytes: 125,
            arrival: 0.0,
        };
        let mut inv = InvariantObserver::new();
        inv.on_enqueue(&EnqueueEvent {
            time: 0.0,
            link: 0,
            leaf: 1,
            pkt,
            queue_depth: 1,
            queue_bytes: 125,
        });
        inv.on_tx_start(&TxEvent {
            time: 0.0,
            link: 0,
            leaf: 1,
            pkt,
        });
        inv.on_enqueue(&EnqueueEvent {
            time: 0.5,
            link: 0,
            leaf: 1,
            pkt: PacketInfo { id: 2, ..pkt },
            queue_depth: 2,
            queue_bytes: 250,
        });
        inv.on_tx_complete(&TxEvent {
            time: 1.0,
            link: 0,
            leaf: 1,
            pkt,
        });
        assert!(inv.is_clean(), "{}", inv.summary());
        // Backlog remains (packet 2), but the next start only comes at
        // t = 2.0: the link idled for a second.
        inv.on_tx_start(&TxEvent {
            time: 2.0,
            link: 0,
            leaf: 1,
            pkt: PacketInfo { id: 2, ..pkt },
        });
        assert!(!inv.is_clean());
        assert!(inv
            .violations()
            .iter()
            .any(|v| v.kind == InvariantKind::WorkConservation));
    }

    /// A `link_down` suspends the debt, but a start already overdue when
    /// it comes is still reported.
    #[test]
    fn a_start_overdue_at_link_down_is_still_reported() {
        let mut inv = InvariantObserver::new();
        inv.on_enqueue(&EnqueueEvent {
            time: 0.0,
            link: 0,
            leaf: 1,
            pkt: PacketInfo {
                id: 1,
                flow: 0,
                len_bytes: 125,
                arrival: 0.0,
            },
            queue_depth: 1,
            queue_bytes: 125,
        });
        inv.on_fault(&FaultEvent {
            time: 0.5,
            link: 0,
            kind: FaultKind::LinkDown,
            node: 0,
            flow: 0,
            value: 0.0,
        });
        assert_eq!(inv.total_violations, 1, "{}", inv.summary());
    }

    #[test]
    fn back_to_back_service_is_clean() {
        let pkt = PacketInfo {
            id: 1,
            flow: 0,
            len_bytes: 125,
            arrival: 0.0,
        };
        let mut inv = InvariantObserver::new();
        for id in 0..3u64 {
            inv.on_enqueue(&EnqueueEvent {
                time: 0.0,
                link: 0,
                leaf: 1,
                pkt: PacketInfo { id, ..pkt },
                queue_depth: id as usize + 1,
                queue_bytes: 125 * (id + 1),
            });
        }
        for id in 0..3u64 {
            let t0 = id as f64;
            inv.on_tx_start(&TxEvent {
                time: t0,
                link: 0,
                leaf: 1,
                pkt: PacketInfo { id, ..pkt },
            });
            inv.on_tx_complete(&TxEvent {
                time: t0 + 1.0,
                link: 0,
                leaf: 1,
                pkt: PacketInfo { id, ..pkt },
            });
        }
        assert!(inv.is_clean(), "{}", inv.summary());
    }

    #[test]
    fn violation_storage_is_bounded() {
        let mut inv = InvariantObserver::new();
        for _ in 0..(InvariantObserver::MAX_STORED + 50) {
            inv.on_dispatch(&dispatch(0.0, 1.0, 3.0, 2.0));
        }
        assert_eq!(inv.violations().len(), InvariantObserver::MAX_STORED);
        assert!(inv.total_violations > InvariantObserver::MAX_STORED as u64);
    }
}
