//! WF²Q (paper §3.3) as a PIFO rank program.
//!
//! The SEFF policy driven by the *exact* GPS virtual time: heads are gated
//! behind their start tags and the per-dispatch threshold is
//! [`Threshold::ExactWithFallback`] at `V_GPS` — only sessions whose head
//! has started service in the corresponding GPS system compete, with the
//! `max(V, Smin)` fallback keeping the policy work-conserving under the
//! head-only GPS emulation (see [`Wf2qRank::fallback_dispatches`]).

use std::collections::VecDeque;

use crate::gps_clock::GpsClock;
use crate::pifo::{Rank, RankProgram, Threshold};
use crate::scheduler::{SessionId, SessionTable};
use crate::vtime;

/// The WF²Q rank program.
#[derive(Debug, Clone, Default)]
pub struct Wf2qRank {
    clock: GpsClock,
    /// Exact eq. (28) start bases announced via `arrival_hint`, consumed as
    /// those packets become heads.
    pending: Vec<VecDeque<f64>>,
    /// Diagnostic: dispatches where no session satisfied `S_i ≤ V_GPS` and
    /// the `max(V, Smin)` fallback fired. Provably impossible with exact
    /// GPS tracking; stays zero in all paper scenarios with the head-only
    /// emulation (asserted in tests).
    fallback_dispatches: u64,
}

impl Wf2qRank {
    /// Creates the program (no per-session state yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Dispatches that needed the work-conservation fallback; zero in every
    /// paper scenario.
    pub fn fallback_dispatches(&self) -> u64 {
        self.fallback_dispatches
    }

    /// Largest number of GPS fluid departures a single virtual-clock
    /// advance has processed (see [`GpsClock::worst_sweep`]).
    pub fn worst_clock_sweep(&self) -> usize {
        self.clock.worst_sweep()
    }
}

impl RankProgram for Wf2qRank {
    fn name(&self) -> &'static str {
        "wf2q"
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
        Rank::gated(sessions.start(id), sessions.finish(id))
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
        match self.pending[id.0].pop_front() {
            Some(b) => sessions.stamp_from_base(id, b, bits),
            None => sessions.stamp_continuation(id, bits),
        }
        self.clock.on_stamp(id.0, sessions.finish(id));
        Rank::gated(sessions.start(id), sessions.finish(id))
    }

    fn threshold(&mut self, ref_time: f64) -> Threshold {
        // SEFF at the exact GPS virtual time of the dispatch instant. The
        // one-tolerance nudge absorbs drift from the piecewise slope
        // integration (e.g. Σφ of ten 0.05-shares summing to 1+2ulp); it is
        // ~9 orders of magnitude below packet granularity.
        let v = self.clock.advance_to(ref_time);
        Threshold::ExactWithFallback(vtime::nudge_up(v))
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
        self.clock.virtual_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pifo::PifoTree;
    use crate::scheduler::NodeScheduler;

    /// Fig. 2 bottom timeline: WF²Q interleaves session 1 with the small
    /// sessions instead of sending its burst back-to-back.
    #[test]
    fn fig2_interleaving() {
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
        assert_eq!(s.program().fallback_dispatches(), 0);
    }

    /// During any interval, WF²Q's service to the big session differs from
    /// the GPS share (half the link) by less than one packet — the §3.3
    /// accuracy claim.
    #[test]
    fn service_tracks_gps_within_one_packet() {
        let mut s = PifoTree::new(1.0, Wf2qRank::new());
        let s0 = s.add_session(0.5);
        for _ in 0..10 {
            s.add_session(0.05);
        }
        s.backlog(s0, 1.0, Some(0.0));
        for i in 1..=10 {
            s.backlog(SessionId(i), 1.0, Some(0.0));
        }
        let mut served0 = 0.0_f64;
        let mut elapsed = 0.0_f64;
        let mut remaining = vec![11usize, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1];
        while let Some(id) = s.select_next() {
            elapsed += 1.0;
            if id.0 == 0 {
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
            remaining[id.0] -= 1;
            s.requeue(id, if remaining[id.0] > 0 { Some(1.0) } else { None });
        }
    }
}
