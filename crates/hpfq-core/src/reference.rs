//! The hand-rolled per-policy schedulers every rank program in
//! [`crate::pifo::rank`] was derived from, kept as the reference the
//! differential suites in `tests/pifo_equivalence.rs` compare
//! [`SchedulerKind::build`](crate::SchedulerKind::build) against: same
//! dispatch order, same tags, same virtual-time bits, same snapshots.
//!
//! Nothing else constructs these — not [`crate::MixedScheduler`], not the
//! simulator, the experiments or the examples — and nothing here is
//! re-exported at the crate root. (Overlapped round robin,
//! [`crate::pifo::rank::RrRank`], was written as a rank program and has no
//! reference.)
//!
//! The seven scheduler files are private modules of the crate root, not of
//! this one, so that their unit tests keep the names the test floor lists;
//! this module is their only public path.

use hpfq_obs::snap::{SnapError, Value};

pub use crate::drr::Drr;
pub use crate::fifo::Fifo;
pub use crate::scfq::Scfq;
pub use crate::sfq::Sfq;
pub use crate::wf2q::Wf2q;
pub use crate::wf2q_plus::Wf2qPlus;
pub use crate::wfq::Wfq;

/// Per-session bookkeeping shared by the reference virtual-time schedulers
/// (the AoS counterpart of [`crate::SessionTable`]).
///
/// Stores the share, the derived inverse guaranteed rate, the head tags
/// `(start, finish)` of eq. (28)/(29), and the backlog flag.
#[derive(Debug, Clone)]
pub struct SessionState {
    /// Guaranteed share of the parent server's rate.
    pub phi: f64,
    /// `1 / (phi * server_rate)` — seconds of virtual time per bit.
    pub inv_rate: f64,
    /// Virtual start tag of the head packet.
    pub start: f64,
    /// Virtual finish tag of the head packet.
    pub finish: f64,
    /// Length of the head packet in bits (valid while backlogged).
    pub head_bits: f64,
    /// Whether the session currently offers a head packet (or has one in
    /// service).
    pub backlogged: bool,
}

impl SessionState {
    /// Creates an idle session with share `phi` of a `server_rate` server.
    pub fn new(phi: f64, server_rate: f64) -> Self {
        assert!(
            phi.is_finite() && phi > 0.0,
            "session share must be a positive finite number, got {phi}"
        );
        assert!(
            server_rate.is_finite() && server_rate > 0.0,
            "server rate must be a positive finite number, got {server_rate}"
        );
        SessionState {
            phi,
            inv_rate: 1.0 / (phi * server_rate),
            start: 0.0,
            finish: 0.0,
            head_bits: 0.0,
            backlogged: false,
        }
    }

    /// Stamps tags for a head arriving to an idle session: `S = max(F, V)`,
    /// `F = S + L / r_i` (eq. 28 second case + eq. 29).
    pub fn stamp_new_backlog(&mut self, v: f64, head_bits: f64) {
        debug_assert!(head_bits.is_finite() && head_bits > 0.0);
        self.start = self.finish.max(v);
        self.finish = self.start + head_bits * self.inv_rate;
        self.head_bits = head_bits;
        self.backlogged = true;
    }

    /// Stamps tags for the next head of a continuously backlogged session:
    /// `S = F` (eq. 28 first case).
    pub fn stamp_continuation(&mut self, head_bits: f64) {
        debug_assert!(head_bits.is_finite() && head_bits > 0.0);
        self.start = self.finish;
        self.finish = self.start + head_bits * self.inv_rate;
        self.head_bits = head_bits;
    }

    /// Resets tags at a busy-period boundary.
    pub fn reset(&mut self) {
        self.start = 0.0;
        self.finish = 0.0;
        debug_assert!(!self.backlogged, "resetting a backlogged session");
    }

    /// Serializes for an epoch checkpoint. Every field is saved verbatim —
    /// in particular `inv_rate` is *not* recomputed from `phi` on load, so
    /// the restored tag arithmetic is bit-identical.
    fn save(&self) -> Value {
        Value::map(vec![
            ("phi", Value::F64(self.phi)),
            ("inv_rate", Value::F64(self.inv_rate)),
            ("start", Value::F64(self.start)),
            ("finish", Value::F64(self.finish)),
            ("head_bits", Value::F64(self.head_bits)),
            ("backlogged", Value::Bool(self.backlogged)),
        ])
    }

    /// Restores a session saved by [`SessionState::save`].
    fn load(v: &Value) -> Result<SessionState, SnapError> {
        Ok(SessionState {
            phi: v.get("phi")?.as_f64()?,
            inv_rate: v.get("inv_rate")?.as_f64()?,
            start: v.get("start")?.as_f64()?,
            finish: v.get("finish")?.as_f64()?,
            head_bits: v.get("head_bits")?.as_f64()?,
            backlogged: v.get("backlogged")?.as_bool()?,
        })
    }
}

/// Serializes a `Vec<SessionState>` session table.
pub(crate) fn save_sessions(sessions: &[SessionState]) -> Value {
    Value::List(sessions.iter().map(SessionState::save).collect())
}

/// Restores a session table saved by [`save_sessions`].
pub(crate) fn load_sessions(v: &Value) -> Result<Vec<SessionState>, SnapError> {
    v.items()?.iter().map(SessionState::load).collect()
}
