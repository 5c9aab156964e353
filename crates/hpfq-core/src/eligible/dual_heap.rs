//! Dual-heap eligible set: the structure used by production WF²Q+
//! implementations.
//!
//! Sessions whose start tag exceeds the highest threshold seen so far live
//! in a *pending* min-heap ordered by start tag; the rest live in a *ready*
//! min-heap ordered by finish tag. Each [`PifoBackend::pop_eligible`] call
//! first migrates every pending session whose start tag is within the
//! threshold, then pops the ready heap. Since virtual time (and hence the
//! thresholds) is monotone within a busy period, each session migrates at
//! most once per backlog episode, giving amortized O(log N) per operation.
//!
//! Both heaps are [`QuadHeap`]s — the implicit 4-ary heap the event queue
//! runs on — and every entry is self-contained: a pending entry carries
//! its finish tag along, so migration reads nothing but the entry it just
//! popped, and the set keeps no per-session array at all. A per-packet
//! operation therefore touches the heap levels it sifts through and
//! nothing else. A set of up to five members is one root plus one sibling
//! group, so the shallow nodes of a hierarchy pay a single four-way scan
//! per pop.
//!
//! Members are inserted under the PIFO rank model ([`crate::pifo`]):
//! [`PifoBackend::insert_ranked`] takes an optional eligibility key
//! (absent = immediately eligible, as in the un-gated policies
//! WFQ/SCFQ/SFQ/FIFO/DRR; a SEFF head passes its start tag) and a
//! `(primary, secondary)` rank pair ordered lexicographically with ties
//! broken by session id.
//!
//! Immediately-eligible inserts whose ranks arrive in nondecreasing order
//! append to a sorted *monotone tail* deque instead of the ready heap
//! (pops take the smaller of the two fronts). Ring disciplines — FIFO
//! offer order, DRR rotation — emit exactly such monotone sequence ranks,
//! so their steady-state cost stays O(1) per operation, as a `VecDeque`
//! ring's would. DRR's one out-of-order rank, the in-deficit continuation
//! that re-offers the minimum it was popped with, is the ready heap's only
//! entry and pops first (`pifo::tests::ring_policies_stay_off_the_heaps`).

use std::collections::VecDeque;

use hpfq_events::heap::QuadHeap;

use super::PifoBackend;
use crate::scheduler::SessionId;
use crate::{index_u32, vtime};

/// An eligible member: its `(key, secondary, id)` rank — the primary
/// (finish) rank first; the id tie-break reproduces the session-index
/// order of the paper's Fig. 2 timelines.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Ready {
    key: f64,
    secondary: f64,
    /// Session id, narrowed to keep the entry at 24 bytes (the driver
    /// registers sessions up front; more than `u32::MAX` of them would
    /// exhaust memory long before the narrowing matters).
    id: u32,
}

/// A gated member, ordered by `(start, secondary, id)`. It carries the
/// primary rank it will take in the ready heap, so migrating it needs no
/// lookup.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    start: f64,
    secondary: f64,
    finish: f64,
    id: u32,
}

/// Lexicographic `(key, secondary, id)` order on finite keys — what
/// `partial_cmp` on the tuple gives (`-0.0` and `0.0` tie and fall
/// through to the next field), spelled out so it inlines into the sift
/// loops. Exact by design: the tie-breaks fire only on identical tags
/// (Fig. 2 determinism), and a tolerance would reorder dispatch. Ids are
/// unique within a set, so the order is strict and total.
#[inline]
fn rank_lt(a: (f64, f64, u32), b: (f64, f64, u32)) -> bool {
    if a.0 != b.0 {
        a.0 < b.0
    } else if a.1 != b.1 {
        a.1 < b.1
    } else {
        a.2 < b.2
    }
}

#[inline]
fn ready_lt(a: &Ready, b: &Ready) -> bool {
    rank_lt((a.key, a.secondary, a.id), (b.key, b.secondary, b.id))
}

#[inline]
fn pending_lt(a: &Pending, b: &Pending) -> bool {
    rank_lt((a.start, a.secondary, a.id), (b.start, b.secondary, b.id))
}

/// See the [module documentation](self).
#[derive(Debug, Default, Clone)]
pub struct DualHeapEligibleSet {
    /// Min-heap on start tag of not-yet-eligible sessions.
    pending: QuadHeap<Pending>,
    /// Min-heap on finish tag of eligible sessions.
    ready: QuadHeap<Ready>,
    /// Sorted monotone tail of the eligible set: immediately-eligible
    /// inserts whose `(key, secondary, id)` rank is >= the current back
    /// land here in O(1). Pops compare this front against the ready heap's
    /// top, so the union still pops in global rank order.
    ready_tail: VecDeque<Ready>,
    /// Membership by session id, kept only to catch a double insert.
    #[cfg(debug_assertions)]
    member: Vec<bool>,
}

impl DualHeapEligibleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Debug builds: records `id` joining (`true`) or leaving the set, and
    /// panics on a double insert.
    #[inline]
    fn note_member(&mut self, id: usize, joins: bool) {
        #[cfg(debug_assertions)]
        {
            self.ensure_sessions(id + 1);
            assert!(
                !(joins && self.member[id]),
                "session {:?} inserted twice",
                SessionId(id)
            );
            self.member[id] = joins;
        }
        let _ = (id, joins);
    }

    /// `(pending, ready)` heap sizes, the sorted tail not counted.
    #[cfg(test)]
    pub(crate) fn heap_lens(&self) -> (usize, usize) {
        (self.pending.len(), self.ready.len())
    }

    /// Migrates every pending entry with `start <= thr` into `ready`.
    #[inline]
    fn migrate(&mut self, thr: f64) {
        while let Some(&top) = self.pending.peek() {
            // Exact: the threshold derives from the same tag arithmetic, and
            // blurring it would migrate sessions early and reorder dispatch.
            if vtime::exactly_lt(thr, top.start) {
                break;
            }
            self.pending.pop(pending_lt);
            let e = Ready {
                key: top.finish,
                secondary: top.secondary,
                id: top.id,
            };
            self.ready.push(e, ready_lt);
        }
    }
}

impl PifoBackend for DualHeapEligibleSet {
    fn backend_name(&self) -> &'static str {
        "dual-heap"
    }

    /// This set keeps nothing per session, so registering ids is free.
    #[inline]
    fn ensure_sessions(&mut self, n: usize) {
        debug_assert!(
            n <= u32::MAX as usize,
            "session id overflows entry narrowing"
        );
        #[cfg(debug_assertions)]
        if n > self.member.len() {
            self.member.resize(n, false);
        }
    }

    /// An immediately eligible member goes straight to the ready side. A
    /// SEFF head is the `(Some(start), finish, 0.0)` case. Gated inserts
    /// order the pending heap by `(eligibility, secondary, id)`; every
    /// in-tree gated rank carries a zero secondary, so that is the
    /// `(start, id)` order.
    ///
    /// This is the per-packet hot path of the PIFO substrate, so the rank
    /// validity checks (finite, not already a member) are debug assertions.
    #[inline]
    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64) {
        debug_assert!(
            primary.is_finite() && secondary.is_finite() && elig.is_none_or(f64::is_finite),
            "bad rank ({elig:?}, {primary}, {secondary}) for session {id:?}"
        );
        self.note_member(id.0, true);
        match elig {
            Some(start) => {
                let e = Pending {
                    start,
                    secondary,
                    finish: primary,
                    id: index_u32(id.0),
                };
                self.pending.push(e, pending_lt);
            }
            None => {
                let e = Ready {
                    key: primary,
                    secondary,
                    id: index_u32(id.0),
                };
                // Monotone tail: a rank >= the current back appends in
                // O(1); only out-of-order ranks pay the heap's O(log N).
                match self.ready_tail.back() {
                    Some(b) if ready_lt(&e, b) => self.ready.push(e, ready_lt),
                    _ => self.ready_tail.push_back(e),
                }
            }
        }
    }

    fn pop_min_ranked(&mut self) -> Option<SessionId> {
        // Admit everything: members inserted with an eligibility key still
        // participate (a custom rank program may mix gated and un-gated
        // ranks); for purely un-gated programs `pending` is empty and this
        // is a single peek.
        self.pop_eligible(f64::INFINITY)
    }

    #[inline]
    fn clamp_threshold(&mut self, v: f64) -> Option<f64> {
        // Any ready member has start <= some earlier threshold <= v
        // (thresholds are monotone within a busy period), so Smin <= v and
        // the clamp is v itself. Otherwise Smin is the pending minimum.
        if !self.ready.is_empty() || !self.ready_tail.is_empty() {
            Some(v)
        } else {
            self.pending.peek().map(|top| v.max(top.start))
        }
    }

    #[inline]
    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId> {
        self.migrate(thr);
        // The smaller of the two fronts. With the ready heap empty this is
        // the ring-discipline fast path (FIFO/DRR steady state): one deque
        // pop.
        let take_tail = match (self.ready.peek(), self.ready_tail.front()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(h), Some(t)) => ready_lt(t, h),
        };
        let top = if take_tail {
            self.ready_tail.pop_front()
        } else {
            self.ready.pop(ready_lt)
        }?;
        self.note_member(top.id as usize, false);
        Some(SessionId(top.id as usize))
    }

    /// Eligible members first, sorted by rank and saved *open* (they were
    /// already admitted, and thresholds are monotone within a busy period,
    /// so unconditional re-admission is behavior-identical), then gated
    /// members with their eligibility keys, in heap-array order. Replaying
    /// the list through [`PifoBackend::insert_ranked`] in order reproduces
    /// the structure — ring-discipline members re-form the pure monotone
    /// tail because they arrive open and sorted, and gated ones re-form the
    /// same array (see [`QuadHeap::iter`]).
    fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)> {
        let mut open: Vec<&Ready> = self.ready.iter().chain(&self.ready_tail).collect();
        #[expect(
            clippy::expect_used,
            reason = "program ranks and checked loads are finite"
        )]
        open.sort_by(|a, b| {
            (a.key, a.secondary, a.id)
                .partial_cmp(&(b.key, b.secondary, b.id))
                .expect("ranks must not be NaN")
        });
        let mut out: Vec<(SessionId, Option<f64>, f64, f64)> = open
            .iter()
            .map(|e| (SessionId(e.id as usize), None, e.key, e.secondary))
            .collect();
        out.extend(self.pending.iter().map(|e| {
            (
                SessionId(e.id as usize),
                Some(e.start),
                e.finish,
                e.secondary,
            )
        }));
        out
    }

    #[inline]
    fn members(&self) -> usize {
        self.pending.len() + self.ready.len() + self.ready_tail.len()
    }

    fn reset(&mut self) {
        #[cfg(debug_assertions)]
        {
            let open = self.ready.iter().chain(&self.ready_tail).map(|e| e.id);
            for id in self.pending.iter().map(|e| e.id).chain(open) {
                self.member[id as usize] = false;
            }
        }
        self.pending.clear();
        self.ready.clear();
        self.ready_tail.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Inserts a SEFF head: gated behind `start`, ranked by `finish`.
    fn seff(s: &mut DualHeapEligibleSet, id: usize, start: f64, finish: f64) {
        s.insert_ranked(SessionId(id), Some(start), finish, 0.0);
    }

    #[test]
    fn matches_module_example() {
        let mut s = DualHeapEligibleSet::new();
        seff(&mut s, 0, 2.0, 5.0);
        seff(&mut s, 1, 0.0, 9.0);
        seff(&mut s, 2, 0.5, 3.0);
        assert_eq!(s.clamp_threshold(1.0), Some(1.0));
        assert_eq!(s.pop_eligible(1.0), Some(SessionId(2)));
        assert_eq!(s.pop_eligible(1.0), Some(SessionId(1)));
        assert_eq!(s.pop_eligible(1.0), None);
        assert_eq!(s.clamp_threshold(1.0), Some(2.0));
        assert_eq!(s.pop_eligible(2.0), Some(SessionId(0)));
        assert_eq!(s.members(), 0);
    }

    #[test]
    fn reinsertion_after_pop() {
        let mut s = DualHeapEligibleSet::new();
        seff(&mut s, 4, 0.0, 1.0);
        assert_eq!(s.pop_eligible(0.0), Some(SessionId(4)));
        seff(&mut s, 4, 1.0, 2.0);
        assert_eq!(s.members(), 1);
        assert_eq!(s.pop_eligible(1.0), Some(SessionId(4)));
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut s = DualHeapEligibleSet::new();
        seff(&mut s, 0, 0.0, 1.0);
        s.reset();
        assert_eq!(s.members(), 0);
        assert_eq!(s.pop_eligible(10.0), None);
        seff(&mut s, 0, 5.0, 6.0);
        assert_eq!(s.clamp_threshold(0.0), Some(5.0));
        assert_eq!(s.pop_eligible(5.0), Some(SessionId(0)));
    }

    #[test]
    fn heap_entry_stays_small() {
        // Sift operations move the ordering key and the id, plus — in the
        // pending heap — the finish tag that spares migration a lookup.
        // Guard against fields creeping back in.
        assert_eq!(std::mem::size_of::<Ready>(), 24);
        assert_eq!(std::mem::size_of::<Pending>(), 32);
    }

    #[test]
    fn ranked_insert_orders_by_primary_then_secondary_then_id() {
        // SCFQ's order: (finish, start, id).
        let mut s = DualHeapEligibleSet::new();
        s.ensure_sessions(4);
        s.insert_ranked(SessionId(0), None, 4.0, 2.0);
        s.insert_ranked(SessionId(1), None, 4.0, 1.0);
        s.insert_ranked(SessionId(3), None, 4.0, 1.0);
        s.insert_ranked(SessionId(2), None, 3.0, 9.0);
        assert_eq!(s.pop_min_ranked(), Some(SessionId(2)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(1)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(3)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(0)));
        assert_eq!(s.pop_min_ranked(), None);
    }

    #[test]
    fn pop_min_ranked_admits_gated_members() {
        let mut s = DualHeapEligibleSet::new();
        s.ensure_sessions(2);
        s.insert_ranked(SessionId(0), Some(10.0), 12.0, 0.0);
        s.insert_ranked(SessionId(1), None, 15.0, 0.0);
        // Ungated pop ignores eligibility: session 0's smaller primary wins
        // even though its eligibility key is far in the future.
        assert_eq!(s.pop_min_ranked(), Some(SessionId(0)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(1)));
    }

    #[test]
    fn finish_ties_break_by_session_id() {
        let mut s = DualHeapEligibleSet::new();
        seff(&mut s, 3, 0.0, 4.0);
        seff(&mut s, 1, 0.0, 4.0);
        seff(&mut s, 2, 0.0, 4.0);
        assert_eq!(s.pop_eligible(0.0), Some(SessionId(1)));
        assert_eq!(s.pop_eligible(0.0), Some(SessionId(2)));
        assert_eq!(s.pop_eligible(0.0), Some(SessionId(3)));
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    #[cfg(debug_assertions)] // the double-insert check is a debug_assert
    fn double_insert_panics() {
        let mut s = DualHeapEligibleSet::new();
        seff(&mut s, 0, 0.0, 1.0);
        seff(&mut s, 0, 0.0, 2.0);
    }
}
