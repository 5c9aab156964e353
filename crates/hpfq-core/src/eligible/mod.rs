//! The eligible set for SEFF (Smallest Eligible virtual Finish time First)
//! schedulers, and the [`PifoBackend`] interface the PIFO driver reaches it
//! through.
//!
//! A SEFF scheduler (WF²Q, WF²Q+) must repeatedly answer: *among the
//! backlogged sessions whose virtual start time `S_i` is at most a threshold
//! `thr`, which has the smallest virtual finish time `F_i`?* — and it must
//! also know `Smin`, the smallest start time over **all** backlogged
//! sessions, to evaluate the `max(V, Smin)` operation of the paper's
//! eq. (27) / RESTART-NODE line 12.
//!
//! One structure answers both: [`dual_heap::DualHeapEligibleSet`] — a pair
//! of 4-ary heaps (pending sessions ordered by start time, eligible ones by
//! finish time, both on the `QuadHeap` the event queue uses); sessions
//! migrate as the virtual time advances. Amortized O(log N); this is the
//! structure used by production WF²Q+ implementations (e.g. dummynet) and
//! the one [`crate::SchedulerKind::build`] ships. A SEFF head is the
//! ranked insert `(Some(start), finish, 0.0)`.
//!
//! It is held to two oracles that share no code with it: an O(N)
//! brute-force set in `tests/proptest_invariants.rs`, and a sort-by-rank
//! PIFO in `tests/pifo_equivalence.rs`.

pub mod dual_heap;

use crate::scheduler::SessionId;

/// Backing priority structure for the PIFO driver ([`crate::pifo::PifoTree`]).
///
/// The *ranked* interface the driver uses, a trait so that something other
/// than the dual heap can sit under it: a reference PIFO in a test, an
/// instrumented wrapper in a benchmark. The semantic contract — rank
/// model, monotone thresholds within a busy period, id tie-breaks — is
/// documented on
/// [`dual_heap::DualHeapEligibleSet`] and applies verbatim to every
/// implementation: a session id is a member at most once, ranks are
/// finite, and within one busy period the thresholds passed to
/// [`PifoBackend::pop_eligible`] never decrease ([`PifoBackend::reset`]
/// starts the next one). All implementations must pop in the exact same
/// `(primary, secondary, id)` order: the PIFO equivalence suite drives them
/// on the same schedules and requires byte-identical dispatch sequences.
pub trait PifoBackend: std::fmt::Debug + Clone + Default {
    /// Short structure name for diagnostics.
    fn backend_name(&self) -> &'static str;

    /// Pre-sizes any per-session arrays for ids `< n` (the driver registers
    /// every session before scheduling starts). The dual heap keeps none.
    fn ensure_sessions(&mut self, n: usize);

    /// Inserts a member under the PIFO rank model: optional eligibility key
    /// (`None` = immediately eligible), lexicographic `(primary, secondary)`
    /// rank, ties by session id.
    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64);

    /// An open [`PifoBackend::insert_ranked`]. Nothing in the workspace
    /// calls it: it stays only because `benchmark/src/replay.rs` forwards
    /// it, and leaves with [`PifoBackend::ensure_sessions`] (ROADMAP item
    /// 6(b)).
    fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        self.insert_ranked(id, None, primary, secondary);
    }

    /// [`PifoBackend::pop_min_ranked`]; kept, like
    /// [`PifoBackend::push_monotone`], only for that forwarder.
    fn pop_monotone(&mut self) -> Option<SessionId> {
        self.pop_min_ranked()
    }

    /// Pops the minimum `(primary, secondary, id)` rank regardless of
    /// eligibility keys ([`Threshold::All`](crate::pifo::Threshold::All)).
    fn pop_min_ranked(&mut self) -> Option<SessionId>;

    /// `max(v, Smin)`, `Smin` the minimum eligibility key over all members —
    /// eq. (27)'s clamp. `None` if empty.
    fn clamp_threshold(&mut self, v: f64) -> Option<f64>;

    /// Pops the minimum `(primary, secondary, id)` rank among the members
    /// whose eligibility key is at most `thr`. `None` if none is.
    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId>;

    /// Live membership as re-insertable `(id, elig, primary, secondary)`
    /// ranks, replayable through [`PifoBackend::insert_ranked`], in a
    /// deterministic order. Nothing in the workspace calls it: it stays
    /// only because `benchmark/src/replay.rs` forwards it, and leaves with
    /// [`PifoBackend::ensure_sessions`] (ROADMAP item 6(b)).
    fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)>;

    /// Number of members.
    fn members(&self) -> usize;

    /// Removes all members and resets monotone state (new busy period).
    fn reset(&mut self);
}
