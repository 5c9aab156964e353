//! WF²Q+ (the paper's contribution, §3.4) as a PIFO rank program.
//!
//! SEFF driven by the low-complexity virtual time of eq. (27): heads are
//! gated behind their start tags, the per-dispatch threshold is
//! [`Threshold::Clamped`] at `V` (the `max(V, Smin)` clamp), and each
//! dispatch advances `V ← max(V, Smin) + L/r` (RESTART-NODE line 12 — the
//! reference-time advance of line 13 lives in the driver).

use crate::pifo::{Rank, RankProgram, Threshold};
use crate::scheduler::{SessionId, SessionTable};

/// The WF²Q+ rank program.
#[derive(Debug, Clone, Default)]
pub struct Wf2qPlusRank {
    /// Virtual time `V` of eq. (27), in reference-time seconds.
    v: f64,
}

impl Wf2qPlusRank {
    /// Creates the program with its virtual clock at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RankProgram for Wf2qPlusRank {
    // Keeps the default `arrival_hint`, which ignores the hint.
    const WANTS_HINTS: bool = false;

    fn name(&self) -> &'static str {
        "wf2q+"
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        head_bits: f64,
        ref_now: Option<f64>,
        ref_time: f64,
    ) -> Rank {
        // Eq. (27): V(t+tau) >= V(t) + tau. At dispatches V is advanced by
        // L/r (pre-advanced to the packet's completion), so a mid-packet
        // arrival's real reference time never exceeds the stored V; the
        // max() below is a no-op at the root and for internal nodes, but
        // implements the formula exactly.
        let v = match ref_now {
            Some(t) => self.v + (t - ref_time).max(0.0),
            None => self.v,
        };
        sessions.stamp_new_backlog(id, v, head_bits);
        Rank::gated(sessions.start(id), sessions.finish(id))
    }

    fn rank_continuation(&mut self, id: SessionId, sessions: &mut SessionTable, bits: f64) -> Rank {
        sessions.stamp_continuation(id, bits);
        Rank::gated(sessions.start(id), sessions.finish(id))
    }

    fn threshold(&mut self, _ref_time: f64) -> Threshold {
        // Eligibility threshold max(V, Smin) — eq. (27)'s max-over-min,
        // applied by the driver via the eligible set.
        Threshold::Clamped(self.v)
    }

    fn on_dispatch(&mut self, _id: SessionId, _sessions: &SessionTable, thr: f64, dt: f64) {
        // RESTART-NODE line 12: V = max(V, Smin) + L/r.
        self.v = thr + dt;
    }

    fn on_busy_reset(&mut self) {
        self.v = 0.0;
    }

    fn virtual_time(&self, _ref_time: f64) -> f64 {
        self.v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pifo::PifoTree;
    use crate::scheduler::NodeScheduler;

    /// A packet arriving to an idle session while others are backlogged is
    /// stamped with at least the minimum start among existing sessions
    /// (the "newly backlogged session" property of eq. 27).
    #[test]
    fn new_backlog_not_stamped_in_the_past() {
        let mut s = PifoTree::new(1.0, Wf2qPlusRank::new());
        let a = s.add_session(0.5);
        let b = s.add_session(0.5);
        s.backlog(a, 1.0, None);
        let sel = s.select_next().unwrap();
        assert_eq!(sel, a);
        s.requeue(a, Some(1.0));
        // V advanced to 1.0; b arrives now.
        s.backlog(b, 1.0, None);
        let (start_b, finish_b) = s.tags(b);
        assert!(start_b >= 1.0, "start {start_b} must be >= V");
        assert_eq!(finish_b, start_b + 2.0);
    }

    /// Weighted bandwidth split over a long backlog: shares 3:1.
    #[test]
    fn long_run_weighted_share() {
        let mut s = PifoTree::new(1.0, Wf2qPlusRank::new());
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
        assert!((counts[0] as f64 - 300.0).abs() <= 1.0, "{counts:?}");
        assert!((counts[1] as f64 - 100.0).abs() <= 1.0, "{counts:?}");
    }
}
