//! SCFQ — Self-Clocked Fair Queueing (Golestani, INFOCOM '94; paper §6).
//!
//! SCFQ replaces the GPS virtual time with the finish tag of the packet
//! currently in service — O(1) to maintain — and serves smallest finish tag
//! first. The simplification costs accuracy: the virtual time can stall
//! (slope 0), so SCFQ's delay bound and WFI both grow with the number of
//! sessions (§3.4 discussion and ref. [10]); the `wfi_table` experiment
//! measures this against WF²Q+.

use hpfq_obs::snap::{SnapError, Value};

use crate::reference::{load_sessions, save_sessions, SessionState};
use crate::scheduler::{load_opt_id, save_opt_id, NodeScheduler, SessionId};
use crate::tag_heap::TagHeap;

/// The SCFQ scheduler.
#[derive(Debug, Clone)]
pub struct Scfq {
    rate: f64,
    sessions: Vec<SessionState>,
    heap: TagHeap,
    /// Virtual time = finish tag of the packet most recently dispatched.
    v: f64,
    t: f64,
    in_service: Option<SessionId>,
    backlogged: usize,
}

impl Scfq {
    /// Creates an SCFQ server of the given rate.
    pub fn new(rate_bps: f64) -> Self {
        assert!(
            rate_bps.is_finite() && rate_bps > 0.0,
            "invalid rate {rate_bps}"
        );
        Scfq {
            rate: rate_bps,
            sessions: Vec::new(),
            heap: TagHeap::new(),
            v: 0.0,
            t: 0.0,
            in_service: None,
            backlogged: 0,
        }
    }

    /// Current reference time.
    pub fn reference_time(&self) -> f64 {
        self.t
    }
}

impl NodeScheduler for Scfq {
    fn rate_bps(&self) -> f64 {
        self.rate
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        self.sessions.push(SessionState::new(phi, self.rate));
        SessionId(self.sessions.len() - 1)
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, _ref_now: Option<f64>) {
        let s = &mut self.sessions[id.0];
        debug_assert!(!s.backlogged);
        // F = max(V, F_prev) + L/r_i — Golestani's tag rule.
        s.stamp_new_backlog(self.v, head_bits);
        self.heap.push(id, s.finish, s.start);
        self.backlogged += 1;
    }

    fn select_next(&mut self) -> Option<SessionId> {
        debug_assert!(self.in_service.is_none());
        let (id, finish, _) = self.heap.pop_min()?;
        // Self-clocking: V jumps to the dispatched packet's finish tag.
        self.v = finish;
        self.t += self.sessions[id.0].head_bits / self.rate;
        self.in_service = Some(id);
        Some(id)
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        debug_assert_eq!(self.in_service, Some(id));
        self.in_service = None;
        match next_head_bits {
            Some(bits) => {
                let s = &mut self.sessions[id.0];
                s.stamp_continuation(bits);
                self.heap.push(id, s.finish, s.start);
            }
            None => {
                self.sessions[id.0].backlogged = false;
                self.backlogged -= 1;
                if self.backlogged == 0 {
                    self.v = 0.0;
                    self.t = 0.0;
                    self.heap.clear();
                    for s in &mut self.sessions {
                        s.reset();
                    }
                }
            }
        }
    }

    fn backlogged(&self) -> usize {
        self.backlogged
    }

    fn virtual_time(&self) -> f64 {
        self.v
    }

    fn phi(&self, id: SessionId) -> f64 {
        self.sessions[id.0].phi
    }

    fn tags(&self, id: SessionId) -> (f64, f64) {
        let s = &self.sessions[id.0];
        (s.start, s.finish)
    }

    fn name(&self) -> &'static str {
        "scfq"
    }

    fn save_state(&self) -> Value {
        Value::map(vec![
            ("rate", Value::F64(self.rate)),
            ("v", Value::F64(self.v)),
            ("t", Value::F64(self.t)),
            ("in_service", save_opt_id(self.in_service)),
            ("sessions", save_sessions(&self.sessions)),
        ])
    }

    fn load_state(&mut self, state: &Value) -> Result<(), SnapError> {
        let rate = state.get("rate")?.as_f64()?;
        if rate.to_bits() != self.rate.to_bits() {
            return Err(SnapError {
                at: 0,
                what: format!(
                    "scfq rate mismatch: snapshot {rate}, configured {}",
                    self.rate
                ),
            });
        }
        self.sessions = load_sessions(state.get("sessions")?)?;
        self.v = state.get("v")?.as_f64()?;
        self.t = state.get("t")?.as_f64()?;
        self.in_service = load_opt_id(state.get("in_service")?)?;
        self.backlogged = self.sessions.iter().filter(|s| s.backlogged).count();
        self.heap.clear();
        for (i, s) in self.sessions.iter().enumerate() {
            let id = SessionId(i);
            if s.backlogged && self.in_service != Some(id) {
                self.heap.push(id, s.finish, s.start);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_split() {
        let mut s = Scfq::new(1.0);
        let a = s.add_session(0.75);
        let b = s.add_session(0.25);
        s.backlog(a, 1.0, None);
        s.backlog(b, 1.0, None);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            let id = s.select_next().unwrap();
            counts[id.0] += 1;
            s.requeue(id, Some(1.0));
        }
        assert!((counts[0] as f64 - 300.0).abs() <= 2.0, "{counts:?}");
    }

    /// The SCFQ pathology: a session arriving to an idle queue inherits the
    /// in-service packet's finish tag as its floor, so after a long burst by
    /// one session the newcomer still starts immediately behind it — but the
    /// virtual time never runs ahead of served work as GPS's can.
    #[test]
    fn newcomer_tagged_from_in_service_packet() {
        let mut s = Scfq::new(1.0);
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(a, 1.0, None);
        let id = s.select_next().unwrap();
        assert_eq!(id, a);
        // V jumped to a's finish tag (2.0); b arrives during service.
        s.backlog(b, 1.0, None);
        assert_eq!(s.tags(b).0, 2.0);
        assert_eq!(s.tags(b).1, 4.0);
        s.requeue(id, None);
    }
}
