//! The PIFO-tree substrate: one programmable scheduler for every policy.
//!
//! Sivaraman et al., *Programmable Packet Scheduling at Line Rate*
//! (SIGCOMM 2016), observe that a large family of scheduling algorithms —
//! including all seven policies in this crate — reduce to a single
//! *push-in-first-out* (PIFO) priority structure plus a per-node *rank
//! program* that stamps each head packet with a rank on arrival. This
//! module is that reduction for the H-PFQ node schedulers:
//!
//! * [`PifoTree`] is a [`NodeScheduler`] implementing the driving contract
//!   (backlog / select / requeue / busy-period reset)
//!   exactly once, over the crate's one optimized priority structure — the
//!   dual-heap eligible set ([`DualHeapEligibleSet`]).
//! * [`RankProgram`] is the pluggable policy: it stamps ranks on backlog
//!   and continuation, chooses the eligibility [`Threshold`] per dispatch,
//!   advances its virtual clock in [`RankProgram::on_dispatch`], and resets
//!   at busy-period boundaries.
//!
//! The in-tree programs live in [`rank`]; the golden digests in
//! `tests/pifo_equivalence.rs` pin each one's dispatch order, tags and
//! virtual times bit for bit.
//!
//! ## The rank model
//!
//! A [`Rank`] is `(eligibility, primary, secondary)`. Members are served in
//! ascending `(primary, secondary, session id)` order among those whose
//! eligibility key has been reached; `eligibility: None` means immediately
//! eligible (the single-heap policies WFQ/SCFQ/SFQ and the round-robin
//! policies FIFO/DRR), while `Some(start)` gates the member behind the
//! monotone per-busy-period threshold exactly as WF²Q/WF²Q+ gate SEFF
//! selection on `S_i ≤ V`.
//!
//! Round-robin policies need one more hook: [`RankProgram::admit`] may
//! *rotate* a popped member to the back of the service order instead of
//! serving it (DRR's "head does not fit in the deficit" case), which is the
//! only loop in the driver.
//!
//! ## `ref_now` convention
//!
//! [`NodeScheduler::backlog`]'s `ref_now` convention — the hierarchy passes
//! `Some(real elapsed busy time)` only for the *root* server, `None` for
//! internal nodes — used to be restated as prose in every implementation.
//! The PIFO driver centralizes it: [`crate::Hierarchy`] marks every
//! non-root scheduler via [`NodeScheduler::set_is_root`], and [`PifoTree`]
//! debug-asserts that internal nodes never receive `Some`.

pub mod rank;

use crate::eligible::dual_heap::DualHeapEligibleSet;
use crate::eligible::PifoBackend;
use crate::scheduler::{NodeScheduler, SessionId, SessionTable};

/// A PIFO rank: where a head packet slots into the service order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rank {
    /// Eligibility key: `None` admits the member immediately; `Some(start)`
    /// hides it until the program's [`Threshold`] reaches `start` (the SEFF
    /// eligibility gate `S_i ≤ V`).
    pub elig: Option<f64>,
    /// Primary service key (e.g. the virtual finish tag); smaller first.
    pub primary: f64,
    /// Secondary key breaking primary ties (e.g. SCFQ's start tag); further
    /// ties go to the smaller session id, reproducing the paper's Fig. 2
    /// timelines.
    pub secondary: f64,
}

impl Rank {
    /// An immediately eligible rank (no SEFF gate).
    #[inline]
    pub fn open(primary: f64, secondary: f64) -> Self {
        Rank {
            elig: None,
            primary,
            secondary,
        }
    }

    /// A rank gated behind the eligibility key `elig` (SEFF policies pass
    /// the start tag here and the finish tag as the primary key).
    #[inline]
    pub fn gated(elig: f64, primary: f64) -> Self {
        Rank {
            elig: Some(elig),
            primary,
            secondary: 0.0,
        }
    }
}

/// How a rank program bounds eligibility for one dispatch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Threshold {
    /// Serve the globally minimum rank; eligibility keys are ignored.
    /// The policy for every un-gated program (WFQ, SCFQ, SFQ, FIFO, DRR).
    All,
    /// Serve the minimum rank among members eligible at
    /// `max(v, min start)` — eq. (27)'s max-over-min clamp, which always
    /// admits at least one member (WF²Q+).
    Clamped(f64),
    /// Serve the minimum rank among members eligible at exactly `v`; if
    /// none is ([`RankProgram::on_fallback`] is notified), fall back to the
    /// `Clamped` rule to stay work-conserving (WF²Q's head-only GPS
    /// emulation artifact).
    ExactWithFallback(f64),
}

/// Verdict of [`RankProgram::admit`] on a popped minimum-rank member.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Admission {
    /// Serve the member now.
    Serve,
    /// Do not serve: re-insert under the given rank and pop again (DRR's
    /// "head exceeds the deficit, rotate the ring" step). The program must
    /// guarantee the rotation sequence terminates (DRR's does: every
    /// revisit credits a positive quantum).
    Rotate(Rank),
}

/// A pluggable per-node scheduling policy for [`PifoTree`]: computes ranks
/// on backlog/continuation, chooses the per-dispatch eligibility
/// [`Threshold`], advances its virtual clock on dispatch, and resets at
/// busy-period boundaries.
///
/// The driver owns the [`SessionTable`] (shares, eq. (28)/(29) tags, head
/// lengths, backlog flags — one 48-byte record per session, so a dispatch
/// touches one place in it, not one per field) and the priority structure;
/// the program owns everything policy-specific (virtual clocks, GPS
/// emulation, deficit counters, …). `ref_time` arguments carry the driver's reference time
/// `T = W(0,t)/r`, advanced by `L/r` per dispatch and reset to zero at busy
/// period end — identical across all policies, which is why it lives in the
/// driver.
///
/// Programs defined *outside* this crate work exactly like the in-tree
/// ones; see `examples/custom_policy.rs`.
pub trait RankProgram {
    /// Whether [`RankProgram::arrival_hint`] does anything. The default is
    /// `true`; a program that keeps the default (ignoring) `arrival_hint`
    /// says `false`, and a hierarchy built only from such programs skips
    /// the per-arrival walk that delivers hints.
    const WANTS_HINTS: bool = true;

    /// The smallest share this program serves a session at.
    /// [`PifoTree::add_session`](NodeScheduler::add_session) asserts it, and
    /// [`crate::Hierarchy`] refuses such a child with
    /// [`crate::HpfqError::InvalidShare`]. The default bounds nothing.
    const MIN_SHARE: f64 = 0.0;

    /// Short policy name for reports ("wf2q+", "wfq", …).
    fn name(&self) -> &'static str;

    /// A session with share `phi` was registered. Programs keeping
    /// per-session state (GPS clocks, deficit slots, …) extend it here; the
    /// default keeps nothing.
    fn on_add_session(&mut self, phi: f64) {
        let _ = phi;
    }

    /// Session `id` transitions idle → backlogged with a head of
    /// `head_bits`. Stamp its tags (via [`SessionTable::stamp_new_backlog`]
    /// for virtual-time policies) and return the head's rank. `ref_now`
    /// follows the [`NodeScheduler::backlog`] convention — already
    /// validated by the driver — and `ref_time` is the driver's reference
    /// time.
    fn rank_backlog(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        head_bits: f64,
        ref_now: Option<f64>,
        ref_time: f64,
    ) -> Rank;

    /// A packet of `bits` joined already-backlogged session `id` behind its
    /// head (see [`NodeScheduler::arrival_hint`]). GPS-emulating policies
    /// record the exact eq. (28) base here; the default ignores it.
    fn arrival_hint(
        &mut self,
        id: SessionId,
        sessions: &SessionTable,
        bits: f64,
        ref_now: Option<f64>,
        ref_time: f64,
    ) {
        let _ = (id, sessions, bits, ref_now, ref_time);
    }

    /// Session `id` continues with a next head of `bits` after a dispatch
    /// (`S = F` continuation, eq. (28) first case, for virtual-time
    /// policies). Stamp its tags and return the new head's rank.
    fn rank_continuation(&mut self, id: SessionId, sessions: &mut SessionTable, bits: f64) -> Rank;

    /// Eligibility rule for the next dispatch, computed once per dispatch
    /// ([`Admission::Rotate`] rounds re-pop under the same rule); the
    /// default admits everything.
    fn threshold(&mut self, ref_time: f64) -> Threshold {
        let _ = ref_time;
        Threshold::All
    }

    /// Last word on the popped minimum-rank member; the default serves it.
    /// Round-robin programs apply their quantum accounting here.
    fn admit(&mut self, id: SessionId, sessions: &SessionTable) -> Admission {
        let _ = (id, sessions);
        Admission::Serve
    }

    /// [`Threshold::ExactWithFallback`] found no eligible member and the
    /// driver is falling back to the clamped rule. Diagnostic hook; the
    /// default ignores it.
    fn on_fallback(&mut self) {}

    /// Session `id` (head already accounted) was picked. `thr` is the
    /// eligibility threshold that admitted it (`+∞` under
    /// [`Threshold::All`]) and `dt = head_bits / rate` the head's service
    /// time; virtual-clock advance rules (RESTART-NODE line 12) go here.
    fn on_dispatch(&mut self, id: SessionId, sessions: &SessionTable, thr: f64, dt: f64) {
        let _ = (id, sessions, thr, dt);
    }

    /// Session `id` went idle (its dispatched head had no successor).
    fn on_idle(&mut self, id: SessionId) {
        let _ = id;
    }

    /// The server's busy period ended: every session is idle, the driver
    /// has zeroed its reference time and session tags. Reset virtual clocks
    /// and per-session policy state (paper eq. 4: virtual time is defined
    /// per busy period).
    fn on_busy_reset(&mut self);

    /// Current virtual time in reference-time seconds, given the driver's
    /// reference time. The default returns it as-is — correct for any
    /// policy without a virtual clock of its own (FIFO, DRR, priority, …).
    fn virtual_time(&self, ref_time: f64) -> f64 {
        ref_time
    }
}

/// A [`NodeScheduler`] driving any [`RankProgram`] over a [`PifoBackend`]
/// priority structure: the dual heap, unless a test or a benchmark names
/// its own (a reference PIFO, an instrumented wrapper). See the
/// [module documentation](self).
#[derive(Debug, Clone)]
pub struct PifoTree<P: RankProgram, Q: PifoBackend = DualHeapEligibleSet> {
    rate: f64,
    /// Flow table: one record per session (see [`SessionTable`]).
    sessions: SessionTable,
    queue: Q,
    /// Reference time `T = W(0,t)/r`, advanced by `L/r` per dispatch —
    /// identical across all seven policies, hence owned by the driver.
    t: f64,
    in_service: Option<SessionId>,
    backlogged: usize,
    /// Whether this scheduler serves the hierarchy root (the default for a
    /// standalone server); cleared by [`NodeScheduler::set_is_root`].
    is_root: bool,
    program: P,
}

impl<P: RankProgram> PifoTree<P> {
    /// Creates a PIFO-backed server of the given rate running `program`
    /// over the default dual-heap structure.
    pub fn new(rate_bps: f64, program: P) -> Self {
        Self::with_backend(rate_bps, program)
    }
}

impl<P: RankProgram, Q: PifoBackend> PifoTree<P, Q> {
    /// Creates a PIFO-backed server over the backend chosen by the `Q`
    /// type parameter ([`PifoTree::new`] pins the dual heap).
    pub fn with_backend(rate_bps: f64, program: P) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid rate {rate_bps}"
        );
        PifoTree {
            rate: rate_bps,
            sessions: SessionTable::new(),
            queue: Q::default(),
            t: 0.0,
            in_service: None,
            backlogged: 0,
            is_root: true,
            program,
        }
    }

    /// Current reference time.
    pub fn reference_time(&self) -> f64 {
        self.t
    }

    /// The rank program (for policy-specific diagnostics, e.g.
    /// [`rank::Wf2qRank::fallback_dispatches`]).
    pub fn program(&self) -> &P {
        &self.program
    }
}

impl<P: RankProgram, Q: PifoBackend> NodeScheduler for PifoTree<P, Q> {
    fn rate_bps(&self) -> f64 {
        self.rate
    }

    fn min_share(&self) -> f64 {
        P::MIN_SHARE
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        let id = self.sessions.push(phi, self.rate);
        assert!(
            phi >= P::MIN_SHARE,
            "session share {phi} is below the policy's minimum {}",
            P::MIN_SHARE
        );
        // A backend with per-session arrays pre-sizes them here, so its
        // per-packet insert path skips the growth check.
        self.queue.ensure_sessions(self.sessions.len());
        self.program.on_add_session(phi);
        id
    }

    #[inline]
    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>) {
        debug_assert!(
            self.is_root || ref_now.is_none(),
            "internal nodes must pass ref_now = None (only the root's \
             reference time coincides with real time, paper eq. 32)"
        );
        debug_assert!(
            !self.sessions.is_backlogged(id),
            "backlog() on a backlogged session"
        );
        let rank = self
            .program
            .rank_backlog(id, &mut self.sessions, head_bits, ref_now, self.t);
        self.sessions.note_head(id, head_bits, true);
        self.queue
            .insert_ranked(id, rank.elig, rank.primary, rank.secondary);
        self.backlogged += 1;
    }

    #[inline]
    fn arrival_hint(&mut self, id: SessionId, bits: f64, ref_now: Option<f64>) {
        debug_assert!(
            self.is_root || ref_now.is_none(),
            "internal nodes must pass ref_now = None"
        );
        debug_assert!(
            self.sessions.is_backlogged(id),
            "arrival_hint() on an idle session"
        );
        self.program
            .arrival_hint(id, &self.sessions, bits, ref_now, self.t);
    }

    fn wants_arrival_hints(&self) -> bool {
        P::WANTS_HINTS
    }

    #[inline]
    fn select_next(&mut self) -> Option<SessionId> {
        debug_assert!(
            self.in_service.is_none(),
            "select_next() while a session is in service"
        );
        // Every policy returns None from an empty queue without any other
        // state change. With no session in service, queue membership ==
        // backlogged sessions.
        if self.backlogged == 0 {
            return None;
        }
        // One eligibility rule per dispatch: rotation rounds re-pop under
        // the same rule (the in-tree rotator, DRR, is threshold-free).
        let rule = self.program.threshold(self.t);
        let (id, thr) = loop {
            let (id, thr) = match rule {
                Threshold::All => {
                    #[expect(clippy::expect_used, reason = "queue verified non-empty above")]
                    let id = self.queue.pop_min_ranked().expect("queue is non-empty");
                    (id, f64::INFINITY)
                }
                Threshold::Clamped(v) => {
                    #[expect(clippy::expect_used, reason = "queue verified non-empty above")]
                    let thr = self.queue.clamp_threshold(v).expect("queue is non-empty");
                    #[expect(clippy::expect_used, reason = "thr = max(V, Smin) admits Smin")]
                    let id = self
                        .queue
                        .pop_eligible(thr)
                        .expect("max(V, Smin) always admits at least one session");
                    (id, thr)
                }
                Threshold::ExactWithFallback(v) => match self.queue.pop_eligible(v) {
                    Some(id) => (id, v),
                    None => {
                        self.program.on_fallback();
                        #[expect(clippy::expect_used, reason = "queue verified non-empty above")]
                        let thr = self.queue.clamp_threshold(v).expect("queue is non-empty");
                        #[expect(clippy::expect_used, reason = "thr = max(V, Smin) admits Smin")]
                        let id = self
                            .queue
                            .pop_eligible(thr)
                            .expect("max(V, Smin) always admits at least one session");
                        (id, thr)
                    }
                },
            };
            match self.program.admit(id, &self.sessions) {
                Admission::Serve => break (id, thr),
                Admission::Rotate(rank) => {
                    self.queue
                        .insert_ranked(id, rank.elig, rank.primary, rank.secondary);
                }
            }
        };
        let dt = self.sessions.head_bits(id) / self.rate;
        self.program.on_dispatch(id, &self.sessions, thr, dt);
        // RESTART-NODE line 13.
        self.t += dt;
        self.in_service = Some(id);
        Some(id)
    }

    #[inline]
    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        debug_assert_eq!(
            self.in_service,
            Some(id),
            "requeue() must match the in-service session"
        );
        self.in_service = None;
        match next_head_bits {
            Some(bits) => {
                let rank = self.program.rank_continuation(id, &mut self.sessions, bits);
                self.sessions.note_head(id, bits, true);
                self.queue
                    .insert_ranked(id, rank.elig, rank.primary, rank.secondary);
            }
            None => {
                self.sessions.set_idle(id);
                self.program.on_idle(id);
                self.backlogged -= 1;
                if self.backlogged == 0 {
                    // Busy period over (paper eq. 4): restart the reference
                    // clock, session tags and the program's virtual clock.
                    self.t = 0.0;
                    self.queue.reset();
                    self.sessions.reset_tags();
                    self.program.on_busy_reset();
                }
            }
        }
    }

    fn backlogged(&self) -> usize {
        self.backlogged
    }

    fn virtual_time(&self) -> f64 {
        self.program.virtual_time(self.t)
    }

    fn phi(&self, id: SessionId) -> f64 {
        self.sessions.phi(id)
    }

    fn tags(&self, id: SessionId) -> (f64, f64) {
        (
            self.sessions.start(id).get(),
            self.sessions.finish(id).get(),
        )
    }

    fn name(&self) -> &'static str {
        self.program.name()
    }

    fn set_is_root(&mut self, is_root: bool) {
        self.is_root = is_root;
    }
}

#[cfg(test)]
mod tests {
    use super::rank::{DrrRank, FifoRank, Wf2qPlusRank, WfqRank};
    use super::*;

    /// The Fig. 2 scenario on the PIFO substrate running the WF²Q+ rank
    /// program: session 0 (φ=0.5) interleaves with ten φ=0.05 sessions.
    #[test]
    fn wf2q_plus_program_interleaves_fig2() {
        let mut s = PifoTree::new(1.0, Wf2qPlusRank::new());
        let s0 = s.add_session(0.5);
        for _ in 0..10 {
            s.add_session(0.05);
        }
        s.backlog(s0, 1.0, Some(0.0));
        for i in 1..=10 {
            s.backlog(SessionId(i), 1.0, Some(0.0));
        }
        let mut remaining = vec![11usize, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let mut order = Vec::new();
        while let Some(id) = s.select_next() {
            order.push(id.0);
            remaining[id.0] -= 1;
            s.requeue(id, if remaining[id.0] > 0 { Some(1.0) } else { None });
        }
        assert_eq!(order.len(), 21);
        for (slot, &id) in order.iter().enumerate() {
            if slot % 2 == 0 {
                assert_eq!(id, 0, "slot {slot}");
            } else {
                assert_ne!(id, 0, "slot {slot}");
            }
        }
    }

    /// The Fig. 2 pathology under the WFQ rank program: the burst goes
    /// back-to-back (no eligibility gate).
    #[test]
    fn wfq_program_bursts_fig2() {
        let mut s = PifoTree::new(1.0, WfqRank::new());
        let s0 = s.add_session(0.5);
        for _ in 0..10 {
            s.add_session(0.05);
        }
        s.backlog(s0, 1.0, Some(0.0));
        for i in 1..=10 {
            s.backlog(SessionId(i), 1.0, Some(0.0));
        }
        let mut remaining = vec![11usize, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let mut order = Vec::new();
        while let Some(id) = s.select_next() {
            order.push(id.0);
            remaining[id.0] -= 1;
            s.requeue(id, if remaining[id.0] > 0 { Some(1.0) } else { None });
        }
        assert_eq!(&order[..10], &[0; 10]);
        assert_eq!(order[20], 0);
    }

    #[test]
    fn busy_period_reset_restarts_clocks() {
        let mut s = PifoTree::new(2.0, Wf2qPlusRank::new());
        let a = s.add_session(0.25);
        s.backlog(a, 2.0, None);
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, None);
        assert_eq!(s.backlogged(), 0);
        assert_eq!(s.virtual_time(), 0.0);
        assert_eq!(s.reference_time(), 0.0);
        assert_eq!(s.select_next(), None);
        s.backlog(a, 2.0, None);
        assert_eq!(s.tags(a).0, 0.0);
    }

    /// DRR's rotate path through `Admission::Rotate`: small packets
    /// interleave while an oversized packet accumulates deficit.
    #[test]
    fn drr_program_rotates_oversized_heads() {
        let mut s = PifoTree::new(1.0, DrrRank::with_quantum_base(1.0));
        let a = s.add_session(0.5); // quantum 0.5 bits/turn
        let b = s.add_session(0.5);
        s.backlog(a, 2.0, None); // needs 4 turns of credit
        s.backlog(b, 0.5, None);
        assert_eq!(s.select_next(), Some(b));
        s.requeue(b, Some(0.5));
        assert_eq!(s.select_next(), Some(b));
        s.requeue(b, None);
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, None);
        assert_eq!(s.backlogged(), 0);
    }

    #[test]
    #[should_panic(expected = "below the policy's minimum")]
    fn round_robin_program_asserts_its_minimum_share() {
        PifoTree::new(1.0, DrrRank::new()).add_session(1e-157);
    }

    #[test]
    fn fifo_program_serves_in_offer_order() {
        let mut s = PifoTree::new(1.0, FifoRank::new());
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(b, 1.0, None);
        s.backlog(a, 1.0, None);
        assert_eq!(s.select_next(), Some(b));
        s.requeue(b, None);
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, Some(2.0));
        assert_eq!(s.select_next(), Some(a));
        s.requeue(a, None);
        assert_eq!(s.select_next(), None);
    }

    /// The ring policies keep the dual heap's O(1) ring cost: over 20 000
    /// dispatches to 64 sessions of mixed packet lengths, FIFO never puts
    /// an entry on either heap, and DRR puts at most one on the ready heap
    /// (its in-deficit continuation, which pops next). Returns the peak
    /// ready-heap size and how many dispatches repeated the session before.
    fn ring_heap_peak<P: RankProgram>(program: P) -> (usize, usize) {
        let mut s = PifoTree::new(1.0, program);
        let lens = [1_000.0, 8_000.0, 12_000.0, 24_000.0];
        let mut draw = 0x2545_f491_4f6c_dd1d_u64;
        let mut next_len = || {
            draw ^= draw << 13;
            draw ^= draw >> 7;
            draw ^= draw << 17;
            lens[(draw % 4) as usize]
        };
        for _ in 0..64 {
            let id = s.add_session(1.0 / 64.0);
            s.backlog(id, next_len(), None);
        }
        let (mut peak, mut repeats, mut last) = (0, 0, None);
        for _ in 0..20_000 {
            let id = s.select_next().unwrap();
            repeats += usize::from(last == Some(id));
            last = Some(id);
            let bits = next_len();
            // One dispatch in sixteen ends the backlog; the session returns
            // at once with a fresh head.
            if bits == 1_000.0 && next_len() == 1_000.0 {
                s.requeue(id, None);
                s.backlog(id, bits, None);
            } else {
                s.requeue(id, Some(bits));
            }
            let (pending, ready) = s.queue.heap_lens();
            assert_eq!(pending, 0, "{}: an open rank was gated", s.name());
            peak = peak.max(ready);
        }
        (peak, repeats)
    }

    #[test]
    fn ring_policies_stay_off_the_heaps() {
        assert_eq!(ring_heap_peak(FifoRank::new()).0, 0);
        let (peak, repeats) = ring_heap_peak(DrrRank::with_quantum_base(64.0 * 24_000.0));
        assert_eq!(peak, 1, "DRR's continuation is the one heap entry");
        assert!(repeats > 5_000, "only {repeats} in-deficit continuations");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "internal nodes must pass ref_now = None")]
    fn non_root_rejects_ref_now() {
        let mut s = PifoTree::new(1.0, Wf2qPlusRank::new());
        s.set_is_root(false);
        let a = s.add_session(0.5);
        s.backlog(a, 1.0, Some(0.0));
    }

    /// A tree that served a busy period to its end, then given a fresh
    /// tree's history, continues exactly as the fresh tree does: no tag,
    /// clock or queue state outlives the busy period.
    #[test]
    fn drained_tree_continues_like_a_fresh_one() {
        fn offer_two(s: &mut impl NodeScheduler) {
            s.backlog(SessionId(0), 1.0, Some(0.0));
            s.backlog(SessionId(1), 2.0, Some(0.0));
            let first = s.select_next().unwrap();
            s.requeue(first, Some(1.0));
        }
        let mut s = PifoTree::new(1.0, Wf2qPlusRank::new());
        let mut used = PifoTree::new(1.0, Wf2qPlusRank::new());
        for t in [&mut s, &mut used] {
            t.add_session(0.5);
            t.add_session(0.5);
        }
        offer_two(&mut s);
        used.backlog(SessionId(0), 3.0, Some(0.0));
        used.backlog(SessionId(1), 0.5, Some(0.0));
        let mut served = 0;
        while let Some(id) = used.select_next() {
            used.requeue(id, (served < 4).then_some(0.75));
            served += 1;
        }
        assert_eq!((served, used.backlogged()), (6, 0));
        offer_two(&mut used);

        for _ in 0..8 {
            let x = s.select_next();
            let y = used.select_next();
            assert_eq!(x, y);
            let (Some(x), Some(_)) = (x, y) else { break };
            assert_eq!(s.tags(x), used.tags(x));
            assert_eq!(s.virtual_time().to_bits(), used.virtual_time().to_bits());
            s.requeue(x, Some(1.0));
            used.requeue(x, Some(1.0));
        }
    }
}
