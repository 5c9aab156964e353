//! WFQ — Weighted Fair Queueing / Packetized GPS (paper §3.1).
//!
//! WFQ applies the SFF policy ("Smallest virtual Finish time First"): when
//! the server picks the next packet it chooses, among **all** queued heads,
//! the one with the smallest GPS virtual finish tag — with no eligibility
//! check. Its delay bound is within one packet time of GPS, but its
//! Worst-case Fair Index grows linearly in the number of sessions (the
//! Fig. 2 burst), which is what makes H-WFQ's hierarchical delay bounds
//! loose (Theorem 2).
//!
//! Virtual time comes from the exact GPS emulation in [`GpsClock`] — O(N)
//! worst case per advance, as the paper notes.

use std::collections::VecDeque;

use hpfq_obs::snap::{SnapError, Value};

use crate::gps_clock::GpsClock;
use crate::reference::{load_sessions, save_sessions, SessionState};
use crate::scheduler::{
    load_opt_id, load_pending, save_opt_id, save_pending, NodeScheduler, SessionId,
};
use crate::tag_heap::TagHeap;

/// The WFQ (PGPS) scheduler.
#[derive(Debug, Clone)]
pub struct Wfq {
    rate: f64,
    sessions: Vec<SessionState>,
    clock: GpsClock,
    /// Backlogged sessions keyed by finish tag (ties by session index).
    heap: TagHeap,
    /// Per-session virtual start tags of queued-behind-the-head packets
    /// announced via `arrival_hint`, in arrival order: each is the exact
    /// `max(F_prev, V(a_k))` of eq. (28), consumed when the packet becomes
    /// the head.
    pending: Vec<VecDeque<f64>>,
    /// Reference time, advanced by `L/r` per dispatch.
    t: f64,
    in_service: Option<SessionId>,
    backlogged: usize,
}

impl Wfq {
    /// Creates a WFQ server of the given rate.
    pub fn new(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid rate {rate_bps}"
        );
        Wfq {
            rate: rate_bps,
            sessions: Vec::new(),
            clock: GpsClock::new(),
            heap: TagHeap::new(),
            pending: Vec::new(),
            t: 0.0,
            in_service: None,
            backlogged: 0,
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

    fn reset(&mut self) {
        self.t = 0.0;
        self.clock.reset();
        self.heap.clear();
        for p in &mut self.pending {
            debug_assert!(p.is_empty(), "pending stamps at busy-period end");
            p.clear();
        }
        for s in &mut self.sessions {
            s.reset();
        }
    }
}

impl NodeScheduler for Wfq {
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
        let v = self.clock.advance_to(ref_now.unwrap_or(self.t));
        let s = &mut self.sessions[id.0];
        debug_assert!(!s.backlogged, "backlog() on a backlogged session");
        debug_assert!(self.pending[id.0].is_empty());
        s.stamp_new_backlog(v, head_bits);
        self.clock.on_stamp(id.0, s.finish);
        // Finish-tag ties are broken by session index (secondary tag held
        // at 0), matching the paper's Fig. 2 timeline where session 1's
        // 10th packet (GPS finish 20) precedes the small sessions' packets
        // (also finish 20).
        self.heap.push(id, s.finish, 0.0);
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
        let (id, _, _) = self.heap.pop_min()?;
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
                // If the next head was announced at its arrival, its exact
                // eq. (28) start base `max(F_prev, V(a_k))` was recorded
                // then; otherwise fall back to the continuation rule S = F.
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
                self.heap.push(id, s.finish, 0.0);
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
        "wfq"
    }

    fn save_state(&self) -> Value {
        // The tag heap is rebuilt on load from the session table (membership
        // = backlogged and not in service, keys = the saved finish tags).
        Value::map(vec![
            ("rate", Value::F64(self.rate)),
            ("t", Value::F64(self.t)),
            ("in_service", save_opt_id(self.in_service)),
            ("sessions", save_sessions(&self.sessions)),
            ("pending", save_pending(&self.pending)),
            ("clock", self.clock.save_state()),
        ])
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        let rate = state.get("rate")?.as_f64()?;
        if rate.to_bits() != self.rate.to_bits() {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "wfq rate mismatch: snapshot {rate}, configured {}",
                    self.rate
                ),
            });
        }
        self.sessions = load_sessions(state.get("sessions")?)?;
        self.pending = load_pending(state.get("pending")?, self.sessions.len())?;
        self.clock.load_state(state.get("clock")?)?;
        self.t = state.get("t")?.as_f64()?;
        self.in_service = load_opt_id(state.get("in_service")?)?;
        self.backlogged = self.sessions.iter().filter(|s| s.backlogged).count();
        self.heap.clear();
        for (i, s) in self.sessions.iter().enumerate() {
            let id = SessionId(i);
            if s.backlogged && self.in_service != Some(id) {
                self.heap.push(id, s.finish, 0.0);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 2 pathology: WFQ serves session 1's first 10 packets
    /// back-to-back, then the 10 small sessions, then the 11th packet.
    #[test]
    fn fig2_burst() {
        let mut s = Wfq::new(1.0);
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
        // First 10 dispatches are all session 0: finish tags 2,4,...,20;
        // the 10th ties with the small sessions' tags (20) and goes to the
        // lower session index, exactly as in the paper's Fig. 2 timeline.
        assert_eq!(&order[..10], &[0; 10]);
        // Then the ten small sessions.
        let mut mid: Vec<usize> = order[10..20].to_vec();
        mid.sort_unstable();
        assert_eq!(mid, (1..=10).collect::<Vec<_>>());
        // And finally session 0's 11th packet.
        assert_eq!(order[20], 0);
    }

    #[test]
    fn equal_weights_round_robin_like() {
        let mut s = Wfq::new(1.0);
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
}
