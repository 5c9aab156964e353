//! Dual-heap eligible set: the structure used by production WF²Q+
//! implementations.
//!
//! Sessions whose start tag exceeds the highest threshold seen so far live
//! in a *pending* min-heap ordered by start tag; the rest live in a *ready*
//! min-heap ordered by finish tag. Each [`EligibleSet::pop_min_finish`] call
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
//! [`EligibleSet::remove`] — a logical queue torn down, which no shipped
//! driver does per packet — is eager: it searches the three containers for
//! the id and re-sifts around the vacated position, so nothing stale is
//! ever left behind for the pop paths to skip.
//!
//! Besides the [`EligibleSet`] trait (start/finish tags, ties by session
//! id), the set exposes a generalized *ranked* interface for the PIFO
//! substrate ([`crate::pifo`]): [`PifoBackend::insert_ranked`]
//! takes an optional eligibility key (absent = immediately eligible, as in
//! the un-gated policies WFQ/SCFQ/SFQ/FIFO/DRR) and a `(primary,
//! secondary)` rank pair ordered lexicographically with ties broken by
//! session id — exactly the `tag_heap` order, so both legacy backing
//! structures collapse onto this one.
//!
//! Immediately-eligible inserts whose ranks arrive in nondecreasing order
//! append to a sorted *monotone tail* deque instead of the ready heap
//! (pops take the smaller of the two fronts). Ring disciplines — FIFO
//! offer order, DRR rotation — emit exactly such monotone sequence ranks,
//! so their steady-state cost stays O(1) per operation, matching the
//! `VecDeque` rings of the hand-rolled schedulers they replace.

use std::collections::VecDeque;

use hpfq_events::heap::QuadHeap;

use super::{EligibleSet, PifoBackend};
use crate::scheduler::SessionId;
use crate::vtime;

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

    /// Part of the [`PifoBackend`] contract; this set keeps nothing per
    /// session, so registering ids is free.
    pub(crate) fn ensure_sessions(&mut self, n: usize) {
        debug_assert!(
            n <= u32::MAX as usize,
            "session id overflows entry narrowing"
        );
        #[cfg(debug_assertions)]
        if n > self.member.len() {
            self.member.resize(n, false);
        }
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

    /// Inserts a member under the generalized PIFO rank model: an optional
    /// eligibility key (`None` = immediately eligible — the member goes
    /// straight to the ready heap, like a `tag_heap` push) and a
    /// lexicographic `(primary, secondary)` rank pair, ties by session id.
    ///
    /// [`EligibleSet::insert`] is the `(Some(start), finish, 0.0)` special
    /// case; the monotone-threshold contract of
    /// [`EligibleSet::pop_min_finish`] applies to eligibility keys exactly
    /// as it does to start tags. Gated inserts order the pending heap by
    /// `(eligibility, secondary, id)`; every in-tree gated rank carries a
    /// zero secondary, reproducing the legacy `(start, id)` order.
    ///
    /// This is the per-packet hot path of the PIFO substrate, so the rank
    /// validity checks (finite, not already a member) are debug assertions;
    /// the trait method keeps its release-mode tag assertion.
    #[inline]
    pub(crate) fn insert_ranked(
        &mut self,
        id: SessionId,
        elig: Option<f64>,
        primary: f64,
        secondary: f64,
    ) {
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
                    id: id.0 as u32,
                };
                self.pending.push(e, pending_lt);
            }
            None => {
                let e = Ready {
                    key: primary,
                    secondary,
                    id: id.0 as u32,
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

    /// Ring-discipline insert: the caller promises (via
    /// [`crate::pifo::RankProgram::MONOTONE_RANKS`]) that every rank is
    /// open and is either >= everything queued (a fresh sequence value —
    /// the common case, appended to the tail back) or <= everything queued
    /// (a re-offered front, e.g. DRR's in-deficit continuation — pushed
    /// back onto the tail front). Either way the tail stays sorted and the
    /// heaps stay empty, so [`Self::pop_monotone`] is a single deque pop.
    #[inline]
    pub(crate) fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        debug_assert!(
            primary.is_finite() && secondary.is_finite(),
            "bad rank ({primary}, {secondary}) for session {id:?}"
        );
        self.note_member(id.0, true);
        let e = Ready {
            key: primary,
            secondary,
            id: id.0 as u32,
        };
        match self.ready_tail.back() {
            Some(b) if ready_lt(&e, b) => {
                debug_assert!(
                    self.ready_tail.front().is_none_or(|f| !ready_lt(f, &e)),
                    "MONOTONE_RANKS violated: rank between the tail front and back"
                );
                self.ready_tail.push_front(e);
            }
            _ => self.ready_tail.push_back(e),
        }
    }

    /// Pop for `MONOTONE_RANKS` programs: the heaps are provably empty (no
    /// gated or out-of-order insert ever happened), so the minimum rank is
    /// the tail front — one deque pop, exactly a legacy ring.
    #[inline]
    pub(crate) fn pop_monotone(&mut self) -> Option<SessionId> {
        debug_assert!(
            self.pending.is_empty() && self.ready.is_empty(),
            "MONOTONE_RANKS program has heap entries"
        );
        let top = self.ready_tail.pop_front()?;
        self.note_member(top.id as usize, false);
        Some(SessionId(top.id as usize))
    }

    /// Pops the member with the minimum `(primary, secondary, id)` rank
    /// regardless of eligibility keys — the un-gated companion of
    /// [`EligibleSet::pop_min_finish`], used by rank programs whose
    /// [`crate::pifo::Threshold::All`] admits every member.
    pub(crate) fn pop_min_ranked(&mut self) -> Option<SessionId> {
        // Admit everything: members inserted with an eligibility key still
        // participate (a custom rank program may mix gated and un-gated
        // ranks); for purely un-gated programs `pending` is empty and this
        // is a single peek.
        EligibleSet::pop_min_finish(self, f64::INFINITY)
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

    /// Snapshot of the membership as re-insertable `(id, elig, primary,
    /// secondary)` ranks: eligible members first, sorted by rank and saved
    /// *open* (they were already admitted, and thresholds are monotone
    /// within a busy period, so unconditional re-admission is
    /// behavior-identical), then gated members with their eligibility
    /// keys, in heap-array order. Replaying the list through
    /// [`Self::insert_ranked`] in order reproduces the structure —
    /// ring-discipline members re-form the pure monotone tail because they
    /// arrive open and sorted, and gated ones re-form the same array (see
    /// [`QuadHeap::iter`]).
    pub(crate) fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)> {
        let mut open: Vec<&Ready> = self.ready.iter().chain(&self.ready_tail).collect();
        open.sort_by(|a, b| {
            (a.key, a.secondary, a.id)
                .partial_cmp(&(b.key, b.secondary, b.id))
                // lint:allow(L002): cold snapshot path; ranks are finite
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
}

impl EligibleSet for DualHeapEligibleSet {
    fn insert(&mut self, id: SessionId, start: f64, finish: f64) {
        assert!(
            start.is_finite() && finish.is_finite() && vtime::exactly_le(start, finish),
            "bad tags ({start}, {finish}) for session {id:?}"
        );
        self.insert_ranked(id, Some(start), finish, 0.0);
    }

    fn remove(&mut self, id: SessionId) {
        // Cold path: linear search, then re-sift around the hole.
        let found = |e: u32| e as usize == id.0;
        if let Some(pos) = self.ready_tail.iter().position(|e| found(e.id)) {
            self.ready_tail.remove(pos);
        } else if let Some(pos) = self.ready.iter().position(|e| found(e.id)) {
            self.ready.remove_at(pos, ready_lt);
        } else if let Some(pos) = self.pending.iter().position(|e| found(e.id)) {
            self.pending.remove_at(pos, pending_lt);
        } else {
            return;
        }
        self.note_member(id.0, false);
    }

    fn eligibility_threshold(&mut self, v: f64) -> Option<f64> {
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
    fn pop_min_finish(&mut self, thr: f64) -> Option<SessionId> {
        self.migrate(thr);
        // The smaller of the two fronts. With the ready heap empty this is
        // the ring-discipline fast path (FIFO/DRR steady state): one deque
        // pop, like the legacy rings.
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

    fn len(&self) -> usize {
        self.pending.len() + self.ready.len() + self.ready_tail.len()
    }

    fn clear(&mut self) {
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

/// The PIFO-backend view: straight delegation to the inherent ranked
/// interface (these methods *are* the trait's reference semantics).
impl PifoBackend for DualHeapEligibleSet {
    fn backend_name(&self) -> &'static str {
        "dual-heap"
    }

    #[inline]
    fn ensure_sessions(&mut self, n: usize) {
        DualHeapEligibleSet::ensure_sessions(self, n);
    }

    #[inline]
    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64) {
        DualHeapEligibleSet::insert_ranked(self, id, elig, primary, secondary);
    }

    #[inline]
    fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        DualHeapEligibleSet::push_monotone(self, id, primary, secondary);
    }

    #[inline]
    fn pop_monotone(&mut self) -> Option<SessionId> {
        DualHeapEligibleSet::pop_monotone(self)
    }

    #[inline]
    fn pop_min_ranked(&mut self) -> Option<SessionId> {
        DualHeapEligibleSet::pop_min_ranked(self)
    }

    #[inline]
    fn clamp_threshold(&mut self, v: f64) -> Option<f64> {
        EligibleSet::eligibility_threshold(self, v)
    }

    #[inline]
    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId> {
        EligibleSet::pop_min_finish(self, thr)
    }

    fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)> {
        DualHeapEligibleSet::members_in_order(self)
    }

    #[inline]
    fn members(&self) -> usize {
        EligibleSet::len(self)
    }

    fn reset(&mut self) {
        EligibleSet::clear(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_module_example() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(0), 2.0, 5.0);
        s.insert(SessionId(1), 0.0, 9.0);
        s.insert(SessionId(2), 0.5, 3.0);
        assert_eq!(s.eligibility_threshold(1.0), Some(1.0));
        assert_eq!(s.pop_min_finish(1.0), Some(SessionId(2)));
        assert_eq!(s.pop_min_finish(1.0), Some(SessionId(1)));
        assert_eq!(s.pop_min_finish(1.0), None);
        assert_eq!(s.eligibility_threshold(1.0), Some(2.0));
        assert_eq!(s.pop_min_finish(2.0), Some(SessionId(0)));
        assert!(s.is_empty());
    }

    #[test]
    fn reinsertion_after_pop() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(4), 0.0, 1.0);
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(4)));
        s.insert(SessionId(4), 1.0, 2.0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_min_finish(1.0), Some(SessionId(4)));
    }

    #[test]
    fn remove_is_eager_and_correct() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        s.insert(SessionId(1), 0.0, 2.0);
        s.remove(SessionId(0));
        assert_eq!(s.len(), 1);
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(1)));
        assert_eq!(s.pop_min_finish(0.0), None);
    }

    #[test]
    fn remove_finds_a_member_in_any_container() {
        // Ids 0..8 gated and still pending, 8..16 migrated into the ready
        // heap, 16..20 open and in rank order (the monotone tail).
        let build = || {
            let mut s = DualHeapEligibleSet::new();
            for i in 8..16 {
                s.insert(SessionId(i), 0.0, (40 - i) as f64);
            }
            s.migrate(0.0);
            for i in 0..8 {
                s.insert(SessionId(i), (10 - i) as f64, 50.0);
            }
            for i in 16..20 {
                s.insert_ranked(SessionId(i), None, i as f64, 0.0);
            }
            assert_eq!(
                (s.pending.len(), s.ready.len(), s.ready_tail.len()),
                (8, 8, 4)
            );
            s
        };
        let drain = |s: &mut DualHeapEligibleSet| -> Vec<usize> {
            std::iter::from_fn(|| s.pop_min_ranked())
                .map(|id| id.0)
                .collect()
        };
        let full = drain(&mut build());
        for gone in 0..20 {
            let mut s = build();
            s.remove(SessionId(gone));
            s.remove(SessionId(gone)); // absent now: a no-op
            assert_eq!(s.len(), 19);
            let want: Vec<usize> = full.iter().copied().filter(|&i| i != gone).collect();
            assert_eq!(drain(&mut s), want, "removed {gone}");
            // Nothing of the removed member is left behind.
            s.insert(SessionId(gone), 1.0, 2.0);
            assert_eq!(drain(&mut s), vec![gone]);
        }
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.pop_min_finish(10.0), None);
        s.insert(SessionId(0), 5.0, 6.0);
        assert_eq!(s.eligibility_threshold(0.0), Some(5.0));
        assert_eq!(s.pop_min_finish(5.0), Some(SessionId(0)));
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
        // SCFQ's tag_heap order: (finish, start, id).
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
        s.insert(SessionId(3), 0.0, 4.0);
        s.insert(SessionId(1), 0.0, 4.0);
        s.insert(SessionId(2), 0.0, 4.0);
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(1)));
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(2)));
        assert_eq!(s.pop_min_finish(0.0), Some(SessionId(3)));
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    #[cfg(debug_assertions)] // the double-insert check is a debug_assert
    fn double_insert_panics() {
        let mut s = DualHeapEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        s.insert(SessionId(0), 0.0, 2.0);
    }
}
