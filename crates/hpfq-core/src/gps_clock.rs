//! Exact GPS virtual time tracking — the `V_GPS(·)` of paper §2.1,
//! eqs. (4)–(5) — used by the WFQ and WF²Q policies.
//!
//! The clock integrates
//!
//! ```text
//! dV/dT = 1 / Σ_{i ∈ B_GPS(T)} φ_i
//! ```
//!
//! piecewise over *reference time* `T`, processing fluid departures (the
//! instants at which a session's GPS backlog empties, changing the slope)
//! one at a time. Between two consecutive packet events there may be up to
//! `N` fluid departures — this is precisely the O(N) worst case the paper
//! attributes to WFQ/WF²Q and the reason WF²Q+ replaces this clock with
//! eq. (27). The cost is measured in the `scheduler_ops` bench.
//!
//! ## Scope of the emulation
//!
//! The clock tracks, per session, the virtual finish tag of the latest
//! virtual work it knows about — its emulated fluid backlog horizon. Two
//! feeds maintain it:
//!
//! * [`GpsClock::on_stamp`] after every head stamping (eq. 28 keeps the
//!   emulated backlog contiguous, so the session leaves the GPS-backlogged
//!   set only when `V` passes its last stamped finish tag);
//! * [`GpsClock::extend_backlog`] when the driver announces a packet
//!   arriving *behind* the head (`NodeScheduler::arrival_hint`), which the
//!   hierarchy issues for every queued arrival.
//!
//! With arrival announcements the emulation is exact: a session
//! contributes to the slope sum until its whole queue has departed in GPS.
//! Driven head-only (no announcements), `V` can overtake a still-backlogged
//! session's head before the packet system re-stamps it, dropping the
//! session from the slope sum early — a bounded head-visibility artifact
//! that inflates `dV/dT`.
//!
//! While the GPS-backlogged set is empty but the packet system is still
//! draining, `V` advances at the minimum slope 1, preserving the paper's
//! "minimum slope property" (§3.4).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use hpfq_obs::snap::{refuse, SnapError, Value};

use crate::scheduler::is_share;
use crate::vtime;

/// A fluid-departure heap entry (min-heap by finish tag).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Departure {
    finish: f64,
    session: usize,
}

impl Eq for Departure {}

impl Ord for Departure {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.finish, other.session)
            .partial_cmp(&(self.finish, self.session))
            // lint:allow(L002): tags are sums of finite phi-scaled lengths
            .expect("finish tags must not be NaN")
    }
}

impl PartialOrd for Departure {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy)]
struct GpsSession {
    phi: f64,
    /// Finish tag of the latest stamped packet; the session's emulated GPS
    /// backlog empties when `V` reaches this value.
    last_finish: f64,
    /// Whether the session currently contributes to the slope sum.
    active: bool,
}

/// Piecewise-linear integrator of the GPS virtual time function.
#[derive(Debug, Clone, Default)]
pub struct GpsClock {
    sessions: Vec<GpsSession>,
    departures: BinaryHeap<Departure>,
    /// Current virtual time.
    v: f64,
    /// Reference time up to which `v` has been integrated.
    t: f64,
    /// Σ φ over GPS-backlogged sessions.
    active_phi: f64,
    active_count: usize,
    /// Largest number of fluid departures processed by a single
    /// [`GpsClock::advance_to`] call — the realized O(N) worst case.
    worst_sweep: usize,
}

impl GpsClock {
    /// Creates an idle clock with no sessions.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a session with share `phi`; returns its index.
    pub fn add_session(&mut self, phi: f64) -> usize {
        assert!(is_share(phi), "invalid share {phi}");
        self.sessions.push(GpsSession {
            phi,
            last_finish: 0.0,
            active: false,
        });
        self.sessions.len() - 1
    }

    /// Current virtual time without advancing.
    pub fn virtual_time(&self) -> f64 {
        self.v
    }

    /// Integrates `V` up to reference time `t_new` and returns it.
    ///
    /// A target at or before the already-integrated time returns the
    /// current value unchanged: under SEFF the dispatch path integrates to
    /// the dispatch boundary, so a mid-packet arrival's (earlier) real
    /// reference time is served from the boundary value — a bounded,
    /// sub-packet skew.
    pub fn advance_to(&mut self, t_new: f64) -> f64 {
        let mut dt = t_new - self.t;
        if dt <= 0.0 {
            return self.v;
        }
        self.t = t_new;
        let mut sweep = 0usize;
        loop {
            let Some(next) = self.peek_departure() else {
                // GPS-backlogged set empty: minimum slope 1.
                self.v += dt;
                self.worst_sweep = self.worst_sweep.max(sweep);
                return self.v;
            };
            debug_assert!(self.active_phi > 0.0);
            // Reference time needed to reach the next fluid departure.
            let need = ((next.finish - self.v) * self.active_phi).max(0.0);
            if need > dt {
                self.v += dt / self.active_phi;
                self.worst_sweep = self.worst_sweep.max(sweep);
                return self.v;
            }
            dt -= need;
            self.v = next.finish;
            self.departures.pop();
            self.deactivate(next.session);
            sweep += 1;
            if dt == 0.0 {
                self.worst_sweep = self.worst_sweep.max(sweep);
                return self.v;
            }
        }
    }

    /// Marks `session` GPS-backlogged through virtual time `finish` (the tag
    /// of its newly stamped head). Must be called after every stamping.
    ///
    /// A stamp already covered by the emulated backlog (because
    /// [`GpsClock::extend_backlog`] announced the packet at its arrival) is
    /// a no-op: the backlog horizon only ever extends.
    pub fn on_stamp(&mut self, session: usize, finish: f64) {
        let s = &mut self.sessions[session];
        // Exact: the horizon only extends on a strictly later stamp, and
        // both values come from the same per-session tag arithmetic.
        if s.active && vtime::exactly_le(finish, s.last_finish) {
            return;
        }
        debug_assert!(vtime::approx_ge(finish, s.last_finish) || !s.active);
        s.last_finish = finish;
        if !s.active {
            s.active = true;
            self.active_phi += s.phi;
            self.active_count += 1;
        }
        self.departures.push(Departure { finish, session });
    }

    /// Announces a packet needing `delta_v` of virtual service time
    /// (`L / (φ_i · r)`) arriving *behind* `session`'s current backlog.
    ///
    /// Extends the session's emulated fluid backlog so it keeps
    /// contributing to the slope sum until the *whole* queue — not just the
    /// stamped head — has departed in GPS. Without this the session would
    /// drop out of `B_GPS` as soon as `V` passed its head's finish tag,
    /// inflating `dV/dT` (the head-visibility artifact described in the
    /// module docs). Returns the packet's virtual start `max(V, tail)` —
    /// its exact GPS start under eq. (28) — for the caller to use when the
    /// packet later becomes the head.
    pub fn extend_backlog(&mut self, session: usize, delta_v: f64) -> f64 {
        debug_assert!(delta_v.is_finite() && delta_v > 0.0);
        let s = &mut self.sessions[session];
        let base = self.v.max(s.last_finish);
        let finish = base + delta_v;
        s.last_finish = finish;
        if !s.active {
            s.active = true;
            self.active_phi += s.phi;
            self.active_count += 1;
        }
        self.departures.push(Departure { finish, session });
        base
    }

    /// Resets the clock at a busy-period boundary.
    pub fn reset(&mut self) {
        self.v = 0.0;
        self.t = 0.0;
        self.departures.clear();
        self.active_phi = 0.0;
        self.active_count = 0;
        // worst_sweep intentionally survives: it is a lifetime diagnostic.
        for s in &mut self.sessions {
            s.last_finish = 0.0;
            s.active = false;
        }
    }

    /// Number of GPS-backlogged sessions.
    pub fn active_sessions(&self) -> usize {
        self.active_count
    }

    /// Largest number of fluid departures any single
    /// [`GpsClock::advance_to`] call has processed so far — the realized
    /// form of the O(N) worst case the paper attributes to `V_GPS`
    /// (survives [`GpsClock::reset`]).
    pub fn worst_sweep(&self) -> usize {
        self.worst_sweep
    }

    /// Serializes the clock for an epoch checkpoint. The departure heap is
    /// not stored: its live content is exactly one entry per active session
    /// at that session's `last_finish` (stale entries are skipped on peek),
    /// so [`GpsClock::load_state`] rebuilds it from the session table.
    /// `active_phi` is an *accumulated* float and is saved verbatim —
    /// recomputing it as a fresh Σφ could differ in the last ulp and shift
    /// a slope boundary.
    pub fn save_state(&self) -> Value {
        Value::map(vec![
            ("v", Value::F64(self.v)),
            ("t", Value::F64(self.t)),
            ("active_phi", Value::F64(self.active_phi)),
            ("worst_sweep", Value::U64(self.worst_sweep as u64)),
            (
                "sessions",
                Value::List(
                    self.sessions
                        .iter()
                        .map(|s| {
                            Value::map(vec![
                                ("phi", Value::F64(s.phi)),
                                ("last_finish", Value::F64(s.last_finish)),
                                ("active", Value::Bool(s.active)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Restores a clock saved by [`GpsClock::save_state`] for sessions of
    /// `shares`, which are what it registered. Refuses a clock of any other
    /// sessions, one that is not finite, and a slope sum that could reach
    /// zero while a session is active; a refusal leaves the clock as it
    /// was.
    pub fn load_state(&mut self, state: &Value, shares: &[f64]) -> Result<(), SnapError> {
        let mut loaded = GpsClock {
            v: state.get_finite("v")?,
            t: state.get_finite("t")?,
            active_phi: state.get_finite("active_phi")?,
            worst_sweep: state.get("worst_sweep")?.as_usize()?,
            ..GpsClock::default()
        };
        let mut sum = 0.0;
        for sv in state.get("sessions")?.items()? {
            let s = GpsSession {
                phi: sv.get("phi")?.as_f64()?,
                last_finish: sv.get_finite("last_finish")?,
                active: sv.get("active")?.as_bool()?,
            };
            let session = loaded.sessions.len();
            if shares.get(session).map(|phi| phi.to_bits()) != Some(s.phi.to_bits()) {
                return Err(refuse(format!("GPS session {session} has share {}", s.phi)));
            }
            if s.active {
                (loaded.active_count, sum) = (loaded.active_count + 1, sum + s.phi);
                let finish = s.last_finish;
                loaded.departures.push(Departure { finish, session });
            }
            loaded.sessions.push(s);
        }
        // Accumulated, so only close to the sum. `advance_to` divides by it
        // while any session is active, so it must stay positive as sessions
        // join and leave: its offset from the sum stays above minus the
        // smallest share.
        let phi_sum = loaded.active_phi;
        let smallest = shares.iter().copied().fold(f64::INFINITY, f64::min);
        if loaded.sessions.len() != shares.len() || phi_sum - sum <= -smallest {
            return Err(refuse(format!(
                "GPS clock of {} sessions for {}, slope sum {phi_sum} for active shares {sum}",
                loaded.sessions.len(),
                shares.len()
            )));
        }
        *self = loaded;
        Ok(())
    }

    fn deactivate(&mut self, session: usize) {
        let s = &mut self.sessions[session];
        debug_assert!(s.active);
        s.active = false;
        self.active_count -= 1;
        if self.active_count == 0 {
            self.active_phi = 0.0; // kill accumulated float drift
        } else {
            self.active_phi -= s.phi;
        }
    }

    /// Top of the departure heap after discarding stale entries (a session
    /// re-stamped with a later finish leaves its older entries behind).
    fn peek_departure(&mut self) -> Option<Departure> {
        while let Some(&top) = self.departures.peek() {
            let s = &self.sessions[top.session];
            if s.active && vtime::same_stamp(s.last_finish, top.finish) {
                return Some(top);
            }
            self.departures.pop();
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two equal-weight sessions, unit server rate in reference time.
    /// Session tags are expressed directly in virtual time.
    #[test]
    fn slope_follows_backlogged_set() {
        let mut c = GpsClock::new();
        let a = c.add_session(0.5);
        let b = c.add_session(0.5);
        // Both backlogged with fluid departures at V=2 each.
        c.on_stamp(a, 2.0);
        c.on_stamp(b, 2.0);
        // Slope 1/(0.5+0.5) = 1: after 1s of reference time, V = 1.
        assert!((c.advance_to(1.0) - 1.0).abs() < 1e-12);
        // Both depart at V=2 (reaching it costs 1 more ref-second); after
        // that the set is empty and the slope floors at 1: V = 2 + 1 = 3.
        assert!((c.advance_to(3.0) - 3.0).abs() < 1e-12);
        assert_eq!(c.active_sessions(), 0);
    }

    #[test]
    fn departure_changes_slope_mid_interval() {
        let mut c = GpsClock::new();
        let a = c.add_session(0.5);
        let _b = c.add_session(0.5);
        c.on_stamp(a, 1.0); // only session a backlogged
                            // Slope 1/0.5 = 2 until V reaches 1.0 (costs 0.5 ref-seconds),
                            // then empty-set slope 1 for the remaining 0.5: V = 1.5.
        assert!((c.advance_to(1.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn restamping_extends_backlog() {
        let mut c = GpsClock::new();
        let a = c.add_session(0.25);
        c.on_stamp(a, 1.0);
        c.on_stamp(a, 2.0); // head consumed, next head stamped: backlog extends
                            // Slope 1/0.25 = 4; V reaches 2.0 after 0.5 ref-seconds, then slope 1.
        assert!((c.advance_to(0.25) - 1.0).abs() < 1e-12);
        assert_eq!(c.active_sessions(), 1);
        assert!((c.advance_to(0.5) - 2.0).abs() < 1e-12);
        assert_eq!(c.active_sessions(), 0);
        assert!((c.advance_to(1.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_starts_fresh_busy_period() {
        let mut c = GpsClock::new();
        let a = c.add_session(1.0);
        c.on_stamp(a, 5.0);
        c.advance_to(2.0);
        c.reset();
        assert_eq!(c.virtual_time(), 0.0);
        assert_eq!(c.active_sessions(), 0);
        c.on_stamp(a, 1.0);
        assert!((c.advance_to(0.5) - 0.5).abs() < 1e-12);
    }

    /// A saved slope sum may drift from the active shares' sum by far more
    /// than rounding, but not so far below it that it could reach zero
    /// while a session is still active.
    #[test]
    fn slope_sum_is_refused_only_where_it_could_reach_zero() {
        let shares = [0.5, 0.3, 0.2];
        let mut c = GpsClock::new();
        for phi in shares {
            c.add_session(phi);
        }
        c.on_stamp(0, 1.0);
        c.on_stamp(1, 2.0);
        let with_slope_sum = |x: f64| {
            let Value::Map(mut pairs) = c.save_state() else {
                unreachable!("a clock saves a map")
            };
            pairs.iter_mut().find(|(k, _)| k == "active_phi").unwrap().1 = Value::F64(x);
            Value::Map(pairs)
        };
        for (x, ok) in [
            (0.8 + 1e-7, true),
            (0.61, true),
            (0.6, false),
            (-0.1, false),
        ] {
            let mut fresh = GpsClock::new();
            let loaded = fresh.load_state(&with_slope_sum(x), &shares);
            assert_eq!(loaded.is_ok(), ok, "slope sum {x}");
            if ok {
                // Both sessions depart in GPS with the slope sum positive.
                fresh.advance_to(10.0);
                assert_eq!(fresh.active_sessions(), 0);
            }
        }
    }
}
