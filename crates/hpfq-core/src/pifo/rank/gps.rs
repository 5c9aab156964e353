//! WFQ (PGPS, paper §3.1) and WF²Q (§3.3) as one PIFO rank program.
//!
//! Both run the *exact* GPS virtual time of [`GpsClock`] — O(N) worst case
//! per advance, as the paper notes — and stamp the same eq. (28) tags; they
//! differ only in the packet-selection policy, the const parameter `SEFF`:
//!
//! * **SFF** (`SEFF = false`, [`WfqRank`]): every head is immediately
//!   eligible and ranked by its GPS virtual finish tag, ties by session id
//!   (the paper's Fig. 2 timeline). The threshold is [`Threshold::All`] and
//!   a dispatch does not touch the clock.
//! * **SEFF** (`SEFF = true`, [`Wf2qRank`]): heads are gated behind their
//!   start tags and each dispatch first advances the clock to its instant,
//!   then serves under [`Threshold::ExactWithFallback`] at `V_GPS` — only
//!   sessions whose head has started service in the GPS system compete,
//!   with the `max(V, Smin)` fallback keeping the policy work-conserving
//!   under the head-only GPS emulation (see [`GpsRank::fallback_dispatches`]).
//!
//! [`WfqRank`]: super::WfqRank
//! [`Wf2qRank`]: super::Wf2qRank

use std::collections::VecDeque;

use crate::gps_clock::GpsClock;
use crate::pifo::{Rank, RankProgram, Threshold};
use crate::scheduler::{SessionId, SessionTable};
use crate::VTime;

/// The GPS-clocked rank program: WFQ when `SEFF` is `false`, WF²Q when it
/// is `true` (see the [module documentation](self)).
#[derive(Debug, Clone, Default)]
pub struct GpsRank<const SEFF: bool> {
    clock: GpsClock,
    /// Per-session virtual start tags of queued-behind-the-head packets
    /// announced via `arrival_hint`, in arrival order: each is the exact
    /// `max(F_prev, V(a_k))` of eq. (28), consumed when the packet becomes
    /// the head.
    pending: Vec<VecDeque<VTime>>,
    /// Diagnostic: SEFF dispatches where no session satisfied
    /// `S_i ≤ V_GPS` and the `max(V, Smin)` fallback fired.
    fallback_dispatches: u64,
}

impl<const SEFF: bool> GpsRank<SEFF> {
    /// Creates the program (no per-session state yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Dispatches that needed the SEFF work-conservation fallback.
    /// Provably impossible with exact GPS tracking; zero in every paper
    /// scenario with the head-only emulation, as
    /// `gps::tests::fig2_interleaving` asserts. Always zero under SFF.
    pub fn fallback_dispatches(&self) -> u64 {
        self.fallback_dispatches
    }

    /// Largest number of GPS fluid departures a single virtual-clock
    /// advance has processed (see [`GpsClock::worst_sweep`]).
    pub fn worst_clock_sweep(&self) -> usize {
        self.clock.worst_sweep()
    }

    /// The head's rank from its freshly stamped tags.
    #[inline]
    fn rank(id: SessionId, sessions: &SessionTable) -> Rank {
        let (start, finish) = (sessions.start(id).get(), sessions.finish(id).get());
        if SEFF {
            Rank::gated(start, finish)
        } else {
            // Finish-tag ties break by session index (secondary held at 0),
            // matching the paper's Fig. 2 timeline where session 1's 10th
            // packet (GPS finish 20) precedes the small sessions' packets.
            Rank::open(finish, 0.0)
        }
    }
}

impl<const SEFF: bool> RankProgram for GpsRank<SEFF> {
    fn name(&self) -> &'static str {
        if SEFF {
            "wf2q"
        } else {
            "wfq"
        }
    }

    fn on_add_session(&mut self, phi: f64) {
        self.pending.push(VecDeque::new());
        let gps_id = self.clock.add_session(phi);
        debug_assert_eq!(gps_id, self.pending.len() - 1);
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        head_bits: f64,
        ref_now: Option<f64>,
        ref_time: f64,
    ) -> Rank {
        // Root servers pass the exact reference time of the arrival; it may
        // lag the dispatch-advanced clock, in which case advance_to clamps
        // (bounded one-packet skew, see GpsClock docs).
        let v = self.clock.advance_to(ref_now.unwrap_or(ref_time));
        debug_assert!(self.pending[id.0].is_empty());
        sessions.stamp_new_backlog(id, v, head_bits);
        self.clock.on_stamp(id.0, sessions.finish(id));
        Self::rank(id, sessions)
    }

    fn arrival_hint(
        &mut self,
        id: SessionId,
        sessions: &SessionTable,
        bits: f64,
        ref_now: Option<f64>,
        ref_time: f64,
    ) {
        let _ = self.clock.advance_to(ref_now.unwrap_or(ref_time));
        let base = self
            .clock
            .extend_backlog(id.0, bits * sessions.inv_rate(id));
        self.pending[id.0].push_back(base);
    }

    fn rank_continuation(&mut self, id: SessionId, sessions: &mut SessionTable, bits: f64) -> Rank {
        // If the next head was announced at its arrival, its exact eq. (28)
        // start base `max(F_prev, V(a_k))` was recorded then; otherwise
        // fall back to the continuation rule S = F.
        match self.pending[id.0].pop_front() {
            Some(b) => sessions.stamp_from_base(id, b, bits),
            None => sessions.stamp_continuation(id, bits),
        }
        self.clock.on_stamp(id.0, sessions.finish(id));
        Self::rank(id, sessions)
    }

    fn threshold(&mut self, ref_time: f64) -> Threshold {
        if !SEFF {
            // SFF never advances the clock at a dispatch: integrating the
            // GPS slope in two steps instead of one can move V's bits.
            return Threshold::All;
        }
        // SEFF at the exact GPS virtual time of the dispatch instant. The
        // one-tolerance nudge absorbs drift from the piecewise slope
        // integration (e.g. Σφ of ten 0.05-shares summing to 1+2ulp); it is
        // ~9 orders of magnitude below packet granularity.
        let v = self.clock.advance_to(ref_time);
        Threshold::ExactWithFallback(v.nudge_up().get())
    }

    fn on_fallback(&mut self) {
        // Head-only emulation artifact; the driver falls back to the WF²Q+
        // threshold to stay work-conserving.
        self.fallback_dispatches += 1;
    }

    fn on_idle(&mut self, id: SessionId) {
        // Bases of packets that will never be heads — a leaf removal purged
        // them from behind the head — go with the backlog they were for.
        self.pending[id.0].clear();
    }

    fn on_busy_reset(&mut self) {
        self.clock.reset();
        for p in &mut self.pending {
            debug_assert!(p.is_empty(), "pending stamps at busy-period end");
            p.clear();
        }
    }

    fn virtual_time(&self, _ref_time: f64) -> f64 {
        self.clock.virtual_time().get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pifo::rank::{Wf2qRank, WfqRank};
    use crate::pifo::PifoTree;
    use crate::scheduler::NodeScheduler;

    #[test]
    fn equal_weights_round_robin_like() {
        let mut s = PifoTree::new(1.0, WfqRank::new());
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(a, 1.0, None);
        s.backlog(b, 1.0, None);
        let mut counts = [0usize; 2];
        for _ in 0..100 {
            let id = s.select_next().unwrap();
            counts[id.0] += 1;
            s.requeue(id, Some(1.0));
        }
        assert_eq!(counts[0], 50);
        assert_eq!(counts[1], 50);
    }

    /// Fig. 2's set-up under WF²Q: session 0 (φ=0.5) with 11 unit packets
    /// and ten φ=0.05 sessions with one each, all backlogged at 0. Calls
    /// `each(elapsed, id)` per dispatch and returns the tree when drained.
    fn drain_fig2(mut each: impl FnMut(f64, usize)) -> PifoTree<Wf2qRank> {
        let mut s = PifoTree::new(1.0, Wf2qRank::new());
        let s0 = s.add_session(0.5);
        for _ in 0..10 {
            s.add_session(0.05);
        }
        s.backlog(s0, 1.0, Some(0.0));
        for i in 1..=10 {
            s.backlog(SessionId(i), 1.0, Some(0.0));
        }
        let mut remaining = vec![11usize, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        let mut elapsed = 0.0;
        while let Some(id) = s.select_next() {
            elapsed += 1.0;
            each(elapsed, id.0);
            remaining[id.0] -= 1;
            s.requeue(id, if remaining[id.0] > 0 { Some(1.0) } else { None });
        }
        s
    }

    /// Fig. 2 bottom timeline: WF²Q interleaves session 1 with the small
    /// sessions instead of sending its burst back-to-back.
    #[test]
    fn fig2_interleaving() {
        let mut order = Vec::new();
        let s = drain_fig2(|_, id| order.push(id));
        assert_eq!(order.len(), 21);
        for (slot, &id) in order.iter().enumerate() {
            if slot % 2 == 0 {
                assert_eq!(id, 0, "slot {slot}");
            } else {
                assert_ne!(id, 0, "slot {slot}");
            }
        }
        assert_eq!(s.program().fallback_dispatches(), 0);
    }

    /// During any interval, WF²Q's service to the big session differs from
    /// the GPS share (half the link) by less than one packet — the §3.3
    /// accuracy claim.
    #[test]
    fn service_tracks_gps_within_one_packet() {
        let mut served0 = 0.0_f64;
        drain_fig2(|elapsed, id| {
            if id == 0 {
                served0 += 1.0;
            }
            // GPS gives session 0 exactly half the link while all are
            // backlogged (first 20 slots).
            if elapsed <= 20.0 {
                assert!(
                    (served0 - 0.5 * elapsed).abs() < 1.0 + 1e-9,
                    "lag {} at t={elapsed}",
                    served0 - 0.5 * elapsed
                );
            }
        });
    }
}
