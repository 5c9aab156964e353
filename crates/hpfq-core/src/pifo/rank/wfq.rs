//! WFQ (PGPS, paper §3.1) as a PIFO rank program.
//!
//! The SFF policy: every head is immediately eligible and ranked by its GPS
//! virtual finish tag (ties by session id, matching the paper's Fig. 2
//! timeline). Virtual time comes from the exact GPS emulation in
//! [`GpsClock`] — O(N) worst case per advance, as the paper notes.

use std::collections::VecDeque;

use crate::gps_clock::GpsClock;
use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};

/// The WFQ rank program.
#[derive(Debug, Clone, Default)]
pub struct WfqRank {
    clock: GpsClock,
    /// Per-session virtual start tags of queued-behind-the-head packets
    /// announced via `arrival_hint`, in arrival order: each is the exact
    /// `max(F_prev, V(a_k))` of eq. (28), consumed when the packet becomes
    /// the head.
    pending: Vec<VecDeque<f64>>,
}

impl WfqRank {
    /// Creates the program (no per-session state yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Largest number of GPS fluid departures a single virtual-clock
    /// advance has processed (see [`GpsClock::worst_sweep`]).
    pub fn worst_clock_sweep(&self) -> usize {
        self.clock.worst_sweep()
    }
}

impl RankProgram for WfqRank {
    fn name(&self) -> &'static str {
        "wfq"
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
        let v = self.clock.advance_to(ref_now.unwrap_or(ref_time));
        debug_assert!(self.pending[id.0].is_empty());
        sessions.stamp_new_backlog(id, v, head_bits);
        self.clock.on_stamp(id.0, sessions.finish(id));
        // Finish-tag ties break by session index (secondary held at 0),
        // matching the paper's Fig. 2 timeline where session 1's 10th
        // packet (GPS finish 20) precedes the small sessions' packets.
        Rank::open(sessions.finish(id), 0.0)
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
        Rank::open(sessions.finish(id), 0.0)
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
}
