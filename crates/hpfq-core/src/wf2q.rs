//! WF²Q — Worst-case Fair Weighted Fair Queueing (paper §3.3, ref. [2]).
//!
//! WF²Q is the SEFF policy driven by the *exact* GPS virtual time: when the
//! server picks a packet it considers only sessions whose head has started
//! service in the corresponding GPS system (`S_i ≤ V_GPS`) and takes the
//! smallest finish tag among them. It attains the optimal B-WFI of
//! Theorem 3 but inherits [`GpsClock`]'s O(N) worst-case virtual-time cost —
//! the complexity that WF²Q+ ([`crate::Wf2qPlus`]) removes.

use std::collections::VecDeque;

use hpfq_obs::snap::{SnapError, Value};

use crate::eligible::{dual_heap::DualHeapEligibleSet, EligibleSet};
use crate::gps_clock::GpsClock;
use crate::reference::{load_sessions, save_sessions, SessionState};
use crate::scheduler::{
    load_opt_id, load_pending, save_opt_id, save_pending, NodeScheduler, SessionId,
};
use crate::vtime;

/// The WF²Q scheduler (SEFF over the exact GPS virtual time).
#[derive(Debug, Clone)]
pub struct Wf2q {
    rate: f64,
    sessions: Vec<SessionState>,
    clock: GpsClock,
    set: DualHeapEligibleSet,
    /// Per-session virtual start tags of queued-behind-the-head packets
    /// announced via `arrival_hint`, in arrival order (exact eq. (28)
    /// bases, consumed as those packets become heads).
    pending: Vec<VecDeque<f64>>,
    t: f64,
    in_service: Option<SessionId>,
    backlogged: usize,
    /// Diagnostic: number of dispatches where no session satisfied
    /// `S_i ≤ V_GPS` and the `max(V, Smin)` fallback fired. With exact GPS
    /// tracking this is provably impossible; with the head-only emulation of
    /// [`GpsClock`] it stays zero in all paper scenarios (asserted in
    /// tests), but the fallback keeps the policy work-conserving regardless.
    fallback_dispatches: u64,
}

impl Wf2q {
    /// Creates a WF²Q server of the given rate.
    pub fn new(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid rate {rate_bps}"
        );
        Wf2q {
            rate: rate_bps,
            sessions: Vec::new(),
            clock: GpsClock::new(),
            set: DualHeapEligibleSet::new(),
            pending: Vec::new(),
            t: 0.0,
            in_service: None,
            backlogged: 0,
            fallback_dispatches: 0,
        }
    }

    /// Current reference time.
    pub fn reference_time(&self) -> f64 {
        self.t
    }

    /// Largest number of GPS fluid departures a single virtual-clock
    /// advance has processed (see [`GpsClock::worst_sweep`]).
    pub fn worst_clock_sweep(&self) -> usize {
        self.clock.worst_sweep()
    }

    /// Dispatches that needed the work-conservation fallback (see the field
    /// documentation); zero in every paper scenario.
    pub fn fallback_dispatches(&self) -> u64 {
        self.fallback_dispatches
    }

    fn reset(&mut self) {
        self.t = 0.0;
        self.clock.reset();
        self.set.clear();
        for p in &mut self.pending {
            debug_assert!(p.is_empty(), "pending stamps at busy-period end");
            p.clear();
        }
        for s in &mut self.sessions {
            s.reset();
        }
    }
}

impl NodeScheduler for Wf2q {
    fn rate_bps(&self) -> f64 {
        self.rate
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        self.sessions.push(SessionState::new(phi, self.rate));
        self.pending.push(VecDeque::new());
        let gps_id = self.clock.add_session(phi);
        debug_assert_eq!(gps_id, self.sessions.len() - 1);
        SessionId(self.sessions.len() - 1)
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>) {
        // Root servers pass the exact reference time of the arrival; it
        // may lag the dispatch-advanced clock, in which case advance_to
        // clamps (bounded one-packet skew, see GpsClock docs).
        let v = self.clock.advance_to(ref_now.unwrap_or(self.t));
        let s = &mut self.sessions[id.0];
        debug_assert!(!s.backlogged, "backlog() on a backlogged session");
        debug_assert!(self.pending[id.0].is_empty());
        s.stamp_new_backlog(v, head_bits);
        self.clock.on_stamp(id.0, s.finish);
        self.set.insert(id, s.start, s.finish);
        self.backlogged += 1;
    }

    fn arrival_hint(&mut self, id: SessionId, bits: f64, ref_now: Option<f64>) {
        let _ = self.clock.advance_to(ref_now.unwrap_or(self.t));
        let s = &self.sessions[id.0];
        debug_assert!(s.backlogged, "arrival_hint() on an idle session");
        let base = self.clock.extend_backlog(id.0, bits * s.inv_rate);
        self.pending[id.0].push_back(base);
    }

    fn select_next(&mut self) -> Option<SessionId> {
        debug_assert!(self.in_service.is_none());
        if self.set.is_empty() {
            return None;
        }
        // SEFF at the exact GPS virtual time of the dispatch instant. The
        // one-tolerance nudge absorbs drift from the piecewise slope
        // integration (e.g. Σφ of ten 0.05-shares summing to 1+2ulp, which
        // would otherwise leave V one ulp short of a start tag it has
        // mathematically reached); it is ~9 orders of magnitude below
        // packet granularity.
        let v = self.clock.advance_to(self.t);
        let v = vtime::nudge_up(v);
        let id = match self.set.pop_min_finish(v) {
            Some(id) => id,
            None => {
                // Head-only emulation artifact; fall back to the WF²Q+
                // threshold to stay work-conserving.
                self.fallback_dispatches += 1;
                // lint:allow(L002): is_empty() returned false above
                let thr = self.set.eligibility_threshold(v).expect("set is non-empty");
                self.set
                    .pop_min_finish(thr)
                    // lint:allow(L002): thr = max(V, Smin) admits the Smin session
                    .expect("threshold admits a session")
            }
        };
        let l = self.sessions[id.0].head_bits;
        self.t += l / self.rate;
        self.in_service = Some(id);
        Some(id)
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        debug_assert_eq!(self.in_service, Some(id));
        self.in_service = None;
        match next_head_bits {
            Some(bits) => {
                // Use the exact eq. (28) base recorded when this packet's
                // arrival was announced, falling back to the continuation
                // rule S = F for un-announced drivers.
                let base = self.pending[id.0].pop_front();
                let s = &mut self.sessions[id.0];
                match base {
                    Some(b) => {
                        s.start = s.finish.max(b);
                        s.finish = s.start + bits * s.inv_rate;
                        s.head_bits = bits;
                    }
                    None => s.stamp_continuation(bits),
                }
                self.clock.on_stamp(id.0, s.finish);
                self.set.insert(id, s.start, s.finish);
            }
            None => {
                self.sessions[id.0].backlogged = false;
                self.backlogged -= 1;
                if self.backlogged == 0 {
                    self.reset();
                }
            }
        }
    }

    fn backlogged(&self) -> usize {
        self.backlogged
    }

    fn virtual_time(&self) -> f64 {
        self.clock.virtual_time()
    }

    fn phi(&self, id: SessionId) -> f64 {
        self.sessions[id.0].phi
    }

    fn tags(&self, id: SessionId) -> (f64, f64) {
        let s = &self.sessions[id.0];
        (s.start, s.finish)
    }

    fn name(&self) -> &'static str {
        "wf2q"
    }

    fn save_state(&self) -> Value {
        Value::map(vec![
            ("rate", Value::F64(self.rate)),
            ("t", Value::F64(self.t)),
            ("in_service", save_opt_id(self.in_service)),
            ("sessions", save_sessions(&self.sessions)),
            ("pending", save_pending(&self.pending)),
            ("clock", self.clock.save_state()),
            ("fallback_dispatches", Value::U64(self.fallback_dispatches)),
        ])
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        let rate = state.get("rate")?.as_f64()?;
        if rate.to_bits() != self.rate.to_bits() {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "wf2q rate mismatch: snapshot {rate}, configured {}",
                    self.rate
                ),
            });
        }
        self.sessions = load_sessions(state.get("sessions")?)?;
        self.pending = load_pending(state.get("pending")?, self.sessions.len())?;
        self.clock.load_state(state.get("clock")?)?;
        self.t = state.get("t")?.as_f64()?;
        self.in_service = load_opt_id(state.get("in_service")?)?;
        self.fallback_dispatches = state.get("fallback_dispatches")?.as_u64()?;
        self.backlogged = self.sessions.iter().filter(|s| s.backlogged).count();
        self.set.clear();
        for (i, s) in self.sessions.iter().enumerate() {
            let id = SessionId(i);
            if s.backlogged && self.in_service != Some(id) {
                self.set.insert(id, s.start, s.finish);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fig. 2 bottom timeline: WF²Q interleaves session 1 with the small
    /// sessions instead of sending its burst back-to-back.
    #[test]
    fn fig2_interleaving() {
        let mut s = Wf2q::new(1.0);
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
        assert_eq!(s.fallback_dispatches(), 0);
    }

    /// During any interval, WF²Q's service to the big session differs from
    /// the GPS share (half the link) by less than one packet — the §3.3
    /// accuracy claim.
    #[test]
    fn service_tracks_gps_within_one_packet() {
        let mut s = Wf2q::new(1.0);
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
