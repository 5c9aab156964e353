//! The [`NodeScheduler`] trait: a one-level PFQ server over logical child
//! queues, usable standalone or as a node of an H-PFQ [`crate::Hierarchy`].
//!
//! ## The contract
//!
//! A node scheduler serves a set of *sessions* (child logical queues). At
//! any instant a session is either **idle** (offers no packet) or
//! **backlogged** (offers exactly one *head* packet of known length; further
//! packets behind the head are invisible to the scheduler, exactly as in the
//! paper's per-node logical queues, §4.2).
//!
//! The driver (the hierarchy, or a link for a standalone server) calls:
//!
//! * [`NodeScheduler::backlog`] when a session transitions idle →
//!   backlogged. Virtual-time schedulers stamp the head with
//!   `S = max(F_prev, V)` per eq. (28), second case.
//! * [`NodeScheduler::select_next`] when the node may dispatch: the
//!   scheduler picks a session according to its policy, accounts the head as
//!   served (advancing its virtual/reference clocks per RESTART-NODE lines
//!   12–13), and returns the session. The session is *in service* until the
//!   matching `requeue`.
//! * [`NodeScheduler::requeue`] once the dispatched head has been consumed:
//!   `Some(len)` re-offers the session's next head (`S = F_prev`, eq. (28)
//!   first case); `None` marks the session idle.
//!
//! ## Busy periods
//!
//! Virtual time is defined per server busy period (paper eq. 4). When the
//! last session goes idle, implementations reset their virtual clock and all
//! session tags to zero; tags from a previous busy period must not penalise
//! (or favour) sessions in the next one.

/// Index of a session (child logical queue) within one scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub usize);

impl SessionId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// A one-level packet fair queueing server over logical child queues.
///
/// See the [module documentation](self) for the driving contract.
pub trait NodeScheduler {
    /// The configured output rate of this server in bits/s.
    fn rate_bps(&self) -> f64;

    /// Registers a new session with guaranteed share `phi` (fraction of this
    /// server's rate, `0 < phi <= 1`). The session starts idle.
    ///
    /// The caller is responsible for keeping the sum of shares at or below 1
    /// (the hierarchy enforces this); exceeding it voids the delay and WFI
    /// guarantees but the scheduler still operates.
    fn add_session(&mut self, phi: f64) -> SessionId;

    /// The smallest share [`NodeScheduler::add_session`] accepts; the
    /// default bounds nothing. [`crate::Hierarchy`] refuses a child below
    /// it with [`crate::HpfqError::InvalidShare`].
    fn min_share(&self) -> f64 {
        0.0
    }

    /// Session `id` transitions idle → backlogged with a head packet of
    /// `head_bits` bits.
    ///
    /// `ref_now` is the server's reference time at the arrival instant if
    /// the caller knows it — the hierarchy passes `Some(real elapsed busy
    /// time)` for the root server, where reference time coincides with
    /// real time (paper eq. 32), so arrivals between dispatches are
    /// stamped with the exact virtual time rather than the
    /// dispatch-quantized one. Internal nodes pass `None`: their reference
    /// time only advances at dispatches (pseudocode line 13), exactly as
    /// in the paper.
    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>);

    /// Announces a packet of `bits` bits arriving to an *already
    /// backlogged* session — it joins the session's queue behind the head
    /// and will be offered later through [`NodeScheduler::requeue`].
    ///
    /// `ref_now` follows the same convention as [`NodeScheduler::backlog`].
    /// Policies that emulate the reference GPS fluid system (WFQ, WF²Q) use
    /// the announcement to keep the emulated per-session backlog — and
    /// hence the virtual-time slope and eq. (28) stamps — exact instead of
    /// head-limited; self-clocked policies ignore it (the default).
    fn arrival_hint(&mut self, id: SessionId, bits: f64, ref_now: Option<f64>) {
        let _ = (id, bits, ref_now);
    }

    /// Whether this scheduler does anything with
    /// [`NodeScheduler::arrival_hint`]. A [`crate::Hierarchy`] in which no
    /// scheduler does skips the walk to the root that delivers the hints
    /// on every arrival to a backlogged leaf. The default is `true`, which
    /// is always correct; a policy that ignores hints says `false`.
    fn wants_arrival_hints(&self) -> bool {
        true
    }

    /// Picks the next session to serve per the policy and accounts its head
    /// packet as dispatched. Returns `None` iff no session is backlogged.
    ///
    /// The returned session stays *in service* — excluded from further
    /// selection — until [`NodeScheduler::requeue`] is called for it.
    fn select_next(&mut self) -> Option<SessionId>;

    /// Completes service of `id`'s dispatched head. `Some(len)` offers the
    /// session's next head packet of `len` bits; `None` marks it idle.
    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>);

    /// Number of sessions currently offering a packet (including one in
    /// service, if any).
    fn backlogged(&self) -> usize;

    /// Current value of the scheduler's virtual time function, in
    /// reference-time seconds. Round-robin schedulers that do not maintain a
    /// virtual clock return their served-work reference time instead.
    fn virtual_time(&self) -> f64;

    /// Guaranteed share of session `id`.
    fn phi(&self, id: SessionId) -> f64;

    /// Virtual start and finish tags of session `id`'s current head packet.
    /// Meaningful only while the session is backlogged; round-robin
    /// schedulers return `(0.0, 0.0)`.
    fn tags(&self, id: SessionId) -> (f64, f64);

    /// Short policy name for reports ("wf2q+", "wfq", …).
    fn name(&self) -> &'static str;

    /// Tells the scheduler whether it serves the hierarchy root. The
    /// hierarchy calls `set_is_root(false)` on every scheduler it attaches
    /// below the root, centralizing the `ref_now` convention of
    /// [`NodeScheduler::backlog`]: only root servers may receive
    /// `Some(ref_now)`, and [`crate::PifoTree`] debug-asserts it. The
    /// default is a no-op so standalone servers (which are their own root)
    /// and schedulers indifferent to the convention need not implement it.
    fn set_is_root(&mut self, is_root: bool) {
        let _ = is_root;
    }

    /// Does nothing and nothing in the workspace calls or overrides it:
    /// every scheduler selects one packet per dispatch. It stays only
    /// because `benchmark/src/replay.rs` overrides it, and leaves with
    /// [`crate::PifoBackend::ensure_sessions`] in the `benchmark` PR
    /// of ROADMAP item 1(b).
    fn set_dispatch_batch(&mut self, k: usize) {
        let _ = k;
    }
}

/// What [`SessionTable::push`] and the GPS clock accept as a share: a
/// positive finite number.
pub(crate) fn is_share(phi: f64) -> bool {
    phi.is_finite() && phi > 0.0
}

/// One session's record: everything the PIFO driver reads or writes for a
/// session on a dispatch, in 48 bytes (one cache line, or two adjacent
/// ones).
#[derive(Debug, Clone, Copy)]
struct SessionRecord {
    /// Guaranteed share of the parent server's rate.
    phi: f64,
    /// `1 / (phi * server_rate)` — seconds of virtual time per bit.
    inv_rate: f64,
    /// Virtual start tag of the head packet; meaningful only while
    /// `epoch` is the table's.
    start: f64,
    /// Virtual finish tag of the head packet; as `start`.
    finish: f64,
    /// Length of the head packet in bits (valid while backlogged).
    head_bits: f64,
    /// The table epoch (busy period) the tags were stamped in. A record
    /// from an earlier epoch reads as `(0, 0)`: that is how a busy-period
    /// reset zeroes every session's tags without visiting any.
    epoch: u32,
    /// Whether the session currently offers a head packet (or has one in
    /// service).
    backlogged: bool,
}

/// The session table: the per-session metadata the PIFO driver touches on
/// **every dispatch** — shares, derived inverse rates, the eq. (28)/(29)
/// head tags, head lengths, and backlog flags — as one `Vec` of 48-byte
/// records indexed by session id.
///
/// Access is random by session id (whichever session the eligible set
/// popped), never a sweep, and a dispatch uses most of a session's fields
/// together: stamping reads `finish` and `inv_rate` and writes `start`,
/// `finish` and `head_bits`. With a lane per field those were three to
/// five cache misses per stamp at a 128k-session node; a record is one
/// line, or two adjacent ones.
#[derive(Debug, Clone, Default)]
pub struct SessionTable {
    records: Vec<SessionRecord>,
    /// Current busy period, as stamped into records by the `stamp_*`
    /// functions. Bumped by [`SessionTable::reset_tags`].
    epoch: u32,
}

impl SessionTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered sessions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no session is registered.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Registers an idle session with share `phi` of a `server_rate`
    /// server and returns its id.
    pub fn push(&mut self, phi: f64, server_rate: f64) -> SessionId {
        assert!(
            is_share(phi),
            "session share must be a positive finite number, got {phi}"
        );
        assert!(
            server_rate.is_finite() && server_rate > 0.0,
            "server rate must be a positive finite number, got {server_rate}"
        );
        self.records.push(SessionRecord {
            phi,
            inv_rate: 1.0 / (phi * server_rate),
            start: 0.0,
            finish: 0.0,
            head_bits: 0.0,
            epoch: self.epoch,
            backlogged: false,
        });
        SessionId(self.records.len() - 1)
    }

    /// The session's guaranteed share.
    #[inline]
    pub fn phi(&self, id: SessionId) -> f64 {
        self.records[id.0].phi
    }

    /// Seconds of virtual time per bit at the session's guaranteed rate.
    #[inline]
    pub fn inv_rate(&self, id: SessionId) -> f64 {
        self.records[id.0].inv_rate
    }

    /// `(start, finish)` of record `r` as of the current epoch.
    #[inline]
    fn tags_of(&self, r: &SessionRecord) -> (f64, f64) {
        if r.epoch == self.epoch {
            (r.start, r.finish)
        } else {
            (0.0, 0.0)
        }
    }

    /// Virtual start tag of the session's head packet.
    #[inline]
    pub fn start(&self, id: SessionId) -> f64 {
        self.tags_of(&self.records[id.0]).0
    }

    /// Virtual finish tag of the session's head packet.
    #[inline]
    pub fn finish(&self, id: SessionId) -> f64 {
        self.tags_of(&self.records[id.0]).1
    }

    /// Length of the session's head packet in bits.
    #[inline]
    pub fn head_bits(&self, id: SessionId) -> f64 {
        self.records[id.0].head_bits
    }

    /// Whether the session currently offers a head packet.
    #[inline]
    pub fn is_backlogged(&self, id: SessionId) -> bool {
        self.records[id.0].backlogged
    }

    /// Stamps `S = max(F, base)` where given a base and `S = F` otherwise,
    /// then `F = S + L / r_i` (eq. 29), in the current epoch.
    #[inline]
    fn stamp(&mut self, id: SessionId, base: Option<f64>, head_bits: f64) -> &mut SessionRecord {
        debug_assert!(head_bits.is_finite() && head_bits > 0.0);
        let epoch = self.epoch;
        let r = &mut self.records[id.0];
        let prev_finish = if r.epoch == epoch { r.finish } else { 0.0 };
        r.start = base.map_or(prev_finish, |b| prev_finish.max(b));
        r.finish = r.start + head_bits * r.inv_rate;
        r.head_bits = head_bits;
        r.epoch = epoch;
        r
    }

    /// Stamps tags for a head arriving to an idle session: `S = max(F, V)`,
    /// `F = S + L / r_i` (eq. 28 second case + eq. 29).
    #[inline]
    pub fn stamp_new_backlog(&mut self, id: SessionId, v: f64, head_bits: f64) {
        self.stamp(id, Some(v), head_bits).backlogged = true;
    }

    /// Stamps tags for the next head of a continuously backlogged session:
    /// `S = F` (eq. 28 first case).
    #[inline]
    pub fn stamp_continuation(&mut self, id: SessionId, head_bits: f64) {
        self.stamp(id, None, head_bits);
    }

    /// Stamps the next head against an exact eq. (28) start base recorded
    /// at its arrival (the GPS-emulating policies' `arrival_hint` path):
    /// `S = max(F, base)`, `F = S + L / r_i`.
    #[inline]
    pub fn stamp_from_base(&mut self, id: SessionId, base: f64, head_bits: f64) {
        self.stamp(id, Some(base), head_bits);
    }

    /// Records the head length and backlog flag without touching tags (the
    /// driver's bookkeeping after a program ranked the head).
    #[inline]
    pub(crate) fn note_head(&mut self, id: SessionId, head_bits: f64, backlogged: bool) {
        let r = &mut self.records[id.0];
        r.head_bits = head_bits;
        r.backlogged = backlogged;
    }

    /// Marks the session idle (its dispatched head had no successor).
    #[inline]
    pub(crate) fn set_idle(&mut self, id: SessionId) {
        self.records[id.0].backlogged = false;
    }

    /// Resets every session's tags at a busy-period boundary, in O(1): the
    /// epoch moves on and every record stamped before reads as zero.
    pub(crate) fn reset_tags(&mut self) {
        debug_assert!(
            !self.records.iter().any(|r| r.backlogged),
            "resetting a backlogged session"
        );
        match self.epoch.checked_add(1) {
            Some(next) => self.epoch = next,
            None => {
                // Once per 2^32 busy periods: a record stamped in an epoch
                // about to be reused must not come back to life.
                for r in &mut self.records {
                    (r.start, r.finish, r.epoch) = (0.0, 0.0, 0);
                }
                self.epoch = 0;
            }
        }
    }
}
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_rules_follow_eq_28_29() {
        // phi = 0.5 of a 2 bit/s server => r_i = 1 bit/s.
        let mut t = SessionTable::new();
        let s = t.push(0.5, 2.0);
        t.stamp_new_backlog(s, 3.0, 4.0);
        assert_eq!(t.start(s), 3.0);
        assert_eq!(t.finish(s), 7.0);
        // Continuation: S = F.
        t.stamp_continuation(s, 2.0);
        assert_eq!(t.start(s), 7.0);
        assert_eq!(t.finish(s), 9.0);
        // Re-backlog with stale V: S = max(F, V) = F.
        t.set_idle(s);
        t.stamp_new_backlog(s, 1.0, 1.0);
        assert_eq!(t.start(s), 9.0);
        assert_eq!(t.finish(s), 10.0);
    }

    #[test]
    fn session_record_is_48_bytes() {
        // Five f64s plus an epoch and a flag sharing the last 8 bytes.
        assert_eq!(std::mem::size_of::<SessionRecord>(), 48);
    }

    #[test]
    fn reset_tags_zeroes_every_session_without_visiting_it() {
        let mut t = SessionTable::new();
        let a = t.push(0.5, 2.0);
        let b = t.push(0.5, 2.0);
        t.stamp_new_backlog(a, 3.0, 4.0);
        t.stamp_new_backlog(b, 1.0, 2.0);
        t.set_idle(a);
        t.set_idle(b);
        t.reset_tags();
        // Both read as zero (the record itself still holds the old tags).
        assert_eq!((t.start(a), t.finish(a)), (0.0, 0.0));
        assert_eq!(t.records[a.0].finish, 7.0);
        // The next stamp starts from F = 0, not from the stale tag...
        t.stamp_new_backlog(a, 0.5, 4.0);
        assert_eq!((t.start(a), t.finish(a)), (0.5, 4.5));
        // ...and b, untouched since the reset, still reads zero.
        assert_eq!((t.start(b), t.finish(b)), (0.0, 0.0));
        t.stamp_continuation(b, 2.0);
        assert_eq!((t.start(b), t.finish(b)), (0.0, 2.0));
    }

    #[test]
    fn epoch_wraparound_cannot_revive_stale_tags() {
        let mut t = SessionTable::new();
        let a = t.push(0.5, 2.0);
        let b = t.push(0.5, 2.0);
        // `a` is stamped in epoch 0 and then sleeps through 2^32 resets.
        t.stamp_new_backlog(a, 3.0, 4.0);
        t.set_idle(a);
        t.reset_tags();
        t.epoch = u32::MAX;
        t.stamp_new_backlog(b, 1.0, 2.0);
        t.set_idle(b);
        t.reset_tags();
        assert_eq!(t.epoch, 0);
        assert_eq!((t.start(a), t.finish(a)), (0.0, 0.0));
        assert_eq!((t.start(b), t.finish(b)), (0.0, 0.0));
    }

    #[test]
    #[should_panic(expected = "positive finite")]
    fn rejects_nonpositive_share() {
        let _ = SessionTable::new().push(0.0, 1.0);
    }
}
