//! SCFQ (Golestani, INFOCOM '94; paper §6) as a PIFO rank program.
//!
//! Self-clocked: the virtual time is the finish tag of the packet most
//! recently dispatched — O(1) to maintain, no eligibility gate. Heads are
//! ranked `(finish, start)` with ties by session id, exactly the legacy
//! `tag_heap` order.

use hpfq_obs::snap::{SnapError, Value};

use crate::pifo::{Rank, RankProgram};
use crate::scheduler::{SessionId, SessionTable};

/// The SCFQ rank program. Byte-identical to [`crate::reference::Scfq`].
#[derive(Debug, Clone, Default)]
pub struct ScfqRank {
    /// Virtual time = finish tag of the packet most recently dispatched.
    v: f64,
}

impl ScfqRank {
    /// Creates the program with its virtual clock at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RankProgram for ScfqRank {
    // Keeps the default `arrival_hint`, which ignores the hint.
    const WANTS_HINTS: bool = false;

    fn name(&self) -> &'static str {
        "scfq"
    }

    fn rank_backlog(
        &mut self,
        id: SessionId,
        sessions: &mut SessionTable,
        head_bits: f64,
        _ref_now: Option<f64>,
        _ref_time: f64,
    ) -> Rank {
        // F = max(V, F_prev) + L/r_i — Golestani's tag rule. The
        // self-clocked virtual time ignores ref_now entirely.
        sessions.stamp_new_backlog(id, self.v, head_bits);
        Rank::open(sessions.finish(id), sessions.start(id))
    }

    fn rank_continuation(&mut self, id: SessionId, sessions: &mut SessionTable, bits: f64) -> Rank {
        sessions.stamp_continuation(id, bits);
        Rank::open(sessions.finish(id), sessions.start(id))
    }

    fn on_dispatch(&mut self, id: SessionId, sessions: &SessionTable, _thr: f64, _dt: f64) {
        // Self-clocking: V jumps to the dispatched packet's finish tag.
        self.v = sessions.finish(id);
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
