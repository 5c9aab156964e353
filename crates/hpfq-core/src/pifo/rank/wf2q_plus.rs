//! WF²Q+ (the paper's contribution, §3.4) as a PIFO rank program.
//!
//! SEFF driven by the low-complexity virtual time of eq. (27): heads are
//! gated behind their start tags, the per-dispatch threshold is
//! [`Threshold::Clamped`] at `V` (the `max(V, Smin)` clamp), and each
//! dispatch advances `V ← max(V, Smin) + L/r` (RESTART-NODE line 12 — the
//! reference-time advance of line 13 lives in the driver).

use hpfq_obs::snap::{SnapError, Value};

use crate::pifo::{Rank, RankProgram, Threshold};
use crate::scheduler::{SessionId, SessionTable};

/// The WF²Q+ rank program. Byte-identical to [`crate::reference::Wf2qPlus`].
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

    fn save_state(&self) -> Value {
        Value::map(vec![("v", Value::F64(self.v))])
    }

    fn load_state(&mut self, state: &Value, _sessions: &SessionTable) -> Result<(), SnapError> {
        self.v = state.get("v")?.as_f64()?;
        Ok(())
    }
}
