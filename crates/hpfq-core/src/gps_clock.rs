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
//! eq. (27). `complexity_tail` counts the worst single sweep.
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

use crate::scheduler::is_share;
use crate::VTime;

/// A fluid-departure heap entry (min-heap by finish tag).
#[derive(Debug, Clone, Copy)]
struct Departure {
    finish: VTime,
    session: usize,
}

impl PartialEq for Departure {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Departure {}

impl Ord for Departure {
    /// Reversed `(finish, session)` order, with finish tags compared
    /// exactly: both come from the same per-session tag arithmetic.
    fn cmp(&self, other: &Self) -> Ordering {
        if other.finish.exactly_lt(self.finish) {
            Ordering::Less
        } else if self.finish.exactly_lt(other.finish) {
            Ordering::Greater
        } else {
            other.session.cmp(&self.session)
        }
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
    last_finish: VTime,
    /// Whether the session currently contributes to the slope sum.
    active: bool,
}

/// Piecewise-linear integrator of the GPS virtual time function.
#[derive(Debug, Clone, Default)]
pub struct GpsClock {
    sessions: Vec<GpsSession>,
    departures: BinaryHeap<Departure>,
    /// Current virtual time.
    v: VTime,
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
            last_finish: VTime::ZERO,
            active: false,
        });
        self.sessions.len() - 1
    }

    /// Current virtual time without advancing.
    pub fn virtual_time(&self) -> VTime {
        self.v
    }

    /// Integrates `V` up to reference time `t_new` and returns it.
    ///
    /// A target at or before the already-integrated time returns the
    /// current value unchanged: under SEFF the dispatch path integrates to
    /// the dispatch boundary, so a mid-packet arrival's (earlier) real
    /// reference time is served from the boundary value — a bounded,
    /// sub-packet skew.
    pub fn advance_to(&mut self, t_new: f64) -> VTime {
        let mut dt = t_new - self.t;
        if dt <= 0.0 {
            return self.v;
        }
        self.t = t_new;
        let mut sweep = 0usize;
        loop {
            let Some(next) = self.peek_departure() else {
                // GPS-backlogged set empty: minimum slope 1.
                self.v = self.v + dt;
                self.worst_sweep = self.worst_sweep.max(sweep);
                return self.v;
            };
            debug_assert!(self.active_phi > 0.0);
            // Reference time needed to reach the next fluid departure.
            let need = ((next.finish - self.v) * self.active_phi).max(0.0);
            if need > dt {
                self.v = self.v + dt / self.active_phi;
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
    pub fn on_stamp(&mut self, session: usize, finish: VTime) {
        let s = &mut self.sessions[session];
        // Exact: the horizon only extends on a strictly later stamp, and
        // both values come from the same per-session tag arithmetic.
        if s.active && finish.exactly_le(s.last_finish) {
            return;
        }
        debug_assert!(finish.approx_ge(s.last_finish) || !s.active);
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
    pub fn extend_backlog(&mut self, session: usize, delta_v: f64) -> VTime {
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
        self.v = VTime::ZERO;
        self.t = 0.0;
        self.departures.clear();
        self.active_phi = 0.0;
        self.active_count = 0;
        // worst_sweep intentionally survives: it is a lifetime diagnostic.
        for s in &mut self.sessions {
            s.last_finish = VTime::ZERO;
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
            if s.active && s.last_finish.same_stamp(top.finish) {
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
        c.on_stamp(a, VTime::new(2.0));
        c.on_stamp(b, VTime::new(2.0));
        // Slope 1/(0.5+0.5) = 1: after 1s of reference time, V = 1.
        assert!((c.advance_to(1.0).get() - 1.0).abs() < 1e-12);
        // Both depart at V=2 (reaching it costs 1 more ref-second); after
        // that the set is empty and the slope floors at 1: V = 2 + 1 = 3.
        assert!((c.advance_to(3.0).get() - 3.0).abs() < 1e-12);
        assert_eq!(c.active_sessions(), 0);
    }

    #[test]
    fn departure_changes_slope_mid_interval() {
        let mut c = GpsClock::new();
        let a = c.add_session(0.5);
        let _b = c.add_session(0.5);
        c.on_stamp(a, VTime::new(1.0)); // only session a backlogged
                                        // Slope 1/0.5 = 2 until V reaches 1.0 (costs 0.5 ref-seconds),
                                        // then empty-set slope 1 for the remaining 0.5: V = 1.5.
        assert!((c.advance_to(1.0).get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn restamping_extends_backlog() {
        let mut c = GpsClock::new();
        let a = c.add_session(0.25);
        c.on_stamp(a, VTime::new(1.0));
        c.on_stamp(a, VTime::new(2.0)); // head consumed, next head stamped: backlog extends
                                        // Slope 1/0.25 = 4; V reaches 2.0 after 0.5 ref-seconds, then slope 1.
        assert!((c.advance_to(0.25).get() - 1.0).abs() < 1e-12);
        assert_eq!(c.active_sessions(), 1);
        assert!((c.advance_to(0.5).get() - 2.0).abs() < 1e-12);
        assert_eq!(c.active_sessions(), 0);
        assert!((c.advance_to(1.5).get() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reset_starts_fresh_busy_period() {
        let mut c = GpsClock::new();
        let a = c.add_session(1.0);
        c.on_stamp(a, VTime::new(5.0));
        c.advance_to(2.0);
        c.reset();
        assert_eq!(c.virtual_time().get(), 0.0);
        assert_eq!(c.active_sessions(), 0);
        c.on_stamp(a, VTime::new(1.0));
        assert!((c.advance_to(0.5).get() - 0.5).abs() < 1e-12);
    }
}
