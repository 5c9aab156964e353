//! The discrete-event core shared by every simulator front-end
//! (`hpfq-sim`'s packet network, `hpfq-fluid`'s fluid server, and the
//! chaos soak harness).
//!
//! Event storage, ordering, and clock discipline exist exactly once,
//! here:
//!
//! * **Deterministic ordering** — events fire in `(time, seq)` order, where
//!   `seq` is the scheduling sequence number. Ties in time therefore fire
//!   in the order they were scheduled (FIFO), which is what makes whole
//!   simulation traces byte-reproducible across runs and platforms.
//! * **Bounded memory** — events live in a slot arena; a fired slot goes
//!   onto a free list and is reused. Memory is bounded by the maximum
//!   number of *outstanding* events, not the total ever scheduled. A
//!   *timer* (below) takes no slot at all.
//! * **Monotone clock** — [`Engine`] owns `now` and only advances it by
//!   popping events. Scheduling into the past is clamped to `now` (and
//!   flagged in debug builds), so a buggy client degrades to "fires
//!   immediately" instead of corrupting the order.
//!
//! The crate is dependency-free and knows nothing about packets or
//! scheduling policies: `E` is whatever event enum the client defines.
//!
//! # Layout
//!
//! The queue is a [`heap::QuadHeap`] — an implicit 4-ary min-heap, shared
//! with `hpfq-core`'s eligible set — of 16-byte entries: the event time as
//! a `u64` that orders exactly as [`f64::total_cmp`] does (and converts
//! back bit for bit, which is what `peek_time`/`pop` return), and the
//! `u32` index of an arena slot. The slot holds the event together with
//! its `(minor, seq)`. Sifting compares time keys only; the arena is read
//! for a comparison just when two time keys are equal, so a queue whose
//! times are distinct — Poisson wakes, say — orders itself without
//! touching the events at all, and ties cost two extra loads each.
//!
//! A **timer** is an event that 32 bits describe completely — "wake source
//! *i*" — and whose minor key is a function of those bits. Its heap entry
//! carries the bits where an arena index would go, with a flag saying so,
//! and nothing else exists: no slot is written when it is scheduled and
//! none is read when it fires. A queue built by
//! [`EventQueue::with_timers`] is given the two plain functions that turn
//! the bits back into an `E` and into the minor key, so every pop and peek
//! returns ordinary events and keys whichever way an entry was stored. A
//! timer has no `seq`: two timers with bit-equal time and payload are the
//! same event, so no order between them can be observed, and against an
//! arena event with the same time and minor the timer fires first.
//!
//! # Minor keys
//!
//! [`EventQueue::schedule_keyed`] accepts a caller-supplied **minor key**
//! ordered between the time and the FIFO sequence: events fire in
//! `(time, minor, seq)` order. A client that derives the minor key from
//! event *content* (rather than scheduling order) gets a tie-break that is
//! a pure function of the event itself. Plain [`EventQueue::schedule`]
//! uses minor key 0, so single-keyed clients keep the original
//! `(time, seq)` FIFO semantics unchanged.
//!
//! [`Engine::advance_to`] moves the clock without popping, so schedules
//! made next are clamped against the new time.

#![forbid(unsafe_code)]
// The per-packet path runs here: a panic tears the whole run down, so
// every one outside tests is a reasoned `#[expect]` (DESIGN.md §8).
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

pub mod heap;

use heap::QuadHeap;

/// Maps a time to a `u64` that orders, as an unsigned integer, exactly as
/// [`f64::total_cmp`] orders the times: positive floats already sort by
/// their bit patterns and get the top bit set, negative ones sort in
/// reverse and get every bit flipped. [`key_time`] inverts it bit for bit,
/// `-0.0` and NaN payloads included.
#[inline]
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The time [`time_key`] mapped to `key`.
#[inline]
fn key_time(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// What the heap moves: the time key and the arena slot holding the rest —
/// or, for a timer, the payload that *is* the rest. 16 bytes, so the four
/// siblings of a sift level are 64 contiguous bytes.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: u64,
    /// Arena index, or the timer's payload.
    slot: u32,
    timer: bool,
}

/// How a queue reads a timer entry back: payload → event, payload → minor
/// key (see [`EventQueue::with_timers`]).
type TimerFns<E> = (fn(u32) -> E, fn(u32) -> u64);

/// One arena slot: the event and the part of its key that only decides
/// between bit-equal times.
#[derive(Debug)]
struct Slot<E> {
    minor: u64,
    seq: u64,
    /// `None` while the slot is on the free list.
    ev: Option<E>,
}

/// The firing order: time key, then — looked up only when two times are
/// bit-equal — the minor key, then scheduling sequence. `seq` is unique
/// among arena entries and starts at 1; a timer stands at sequence 0, ahead
/// of them, and two timers that tie that far are told apart by payload. So
/// this is a strict total order, but for two timers equal in time and
/// payload — which are the same event, whichever pops first.
#[inline]
fn fires_before<E>(
    arena: &[Slot<E>],
    timers: Option<TimerFns<E>>,
    a: &HeapEntry,
    b: &HeapEntry,
) -> bool {
    if a.key != b.key {
        return a.key < b.key;
    }
    tie_fires_before(arena, timers, a, b)
}

/// [`fires_before`] for bit-equal times. Out of line: distinct times are
/// the common case, and the sift loops that inline the comparison are
/// measurably slower with this body in them.
#[cold]
#[inline(never)]
fn tie_fires_before<E>(
    arena: &[Slot<E>],
    timers: Option<TimerFns<E>>,
    a: &HeapEntry,
    b: &HeapEntry,
) -> bool {
    let rank = |e: &HeapEntry| {
        if e.timer {
            ((timer_fns(timers).1)(e.slot), 0, e.slot)
        } else {
            let slot = &arena[e.slot as usize];
            (slot.minor, slot.seq, 0)
        }
    };
    rank(a) < rank(b)
}

/// The functions of a queue that holds a timer entry.
#[inline]
#[expect(
    clippy::expect_used,
    reason = "`schedule_timer` is the only writer of timer entries and refuses a queue built \
              without the functions"
)]
fn timer_fns<E>(timers: Option<TimerFns<E>>) -> TimerFns<E> {
    timers.expect("a timer entry in a queue built without timers")
}

/// A time-ordered event queue with FIFO tie-breaking and arena-backed
/// storage. The queue has no notion of "now" — pair it with [`Engine`]
/// for the usual clocked event loop, or drive it directly if the client
/// owns the clock (segmented runs, co-simulation).
#[derive(Debug, Default)]
pub struct EventQueue<E> {
    heap: QuadHeap<HeapEntry>,
    /// Event arena. Fired slots are pushed onto `free` and reused, so
    /// memory is bounded by the maximum number of *outstanding* arena
    /// events, not the total ever scheduled.
    arena: Vec<Slot<E>>,
    free: Vec<u32>,
    seq: u64,
    timers: Option<TimerFns<E>>,
}

impl<E> EventQueue<E> {
    /// An empty queue without timers: every event takes an arena slot.
    pub fn new() -> Self {
        EventQueue {
            heap: QuadHeap::new(),
            arena: Vec::new(),
            free: Vec::new(),
            seq: 0,
            timers: None,
        }
    }

    /// An empty queue that also takes **timers**
    /// ([`EventQueue::schedule_timer`]): events that a `u32` payload
    /// describes completely. `event` rebuilds the event a payload stands
    /// for and `minor` gives its minor key; both must be pure functions of
    /// the payload. A timer is held in its heap entry alone (see the crate
    /// docs, "Layout"), and pops and peeks return it as the ordinary event
    /// and key the two functions name.
    pub fn with_timers(event: fn(u32) -> E, minor: fn(u32) -> u64) -> Self {
        EventQueue {
            timers: Some((event, minor)),
            ..Self::new()
        }
    }

    /// Schedules `ev` at time `t` with minor key 0. Callers must pass
    /// finite times (debug-asserted); the `total_cmp` key ordering keeps
    /// the heap consistent even if a non-finite time slips through in
    /// release.
    pub fn schedule(&mut self, t: f64, ev: E) {
        self.schedule_keyed(t, 0, ev);
    }

    /// Schedules `ev` at time `t` with an explicit minor tie-break key.
    /// Events fire in `(t, minor, scheduling order)` order; clients that
    /// derive `minor` from event content get execution-order-independent
    /// tie-breaking (see the crate docs on minor keys).
    pub fn schedule_keyed(&mut self, t: f64, minor: u64, ev: E) {
        debug_assert!(t.is_finite(), "non-finite event time {t}");
        self.seq += 1;
        let filled = Slot {
            minor,
            seq: self.seq,
            ev: Some(ev),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                debug_assert!(
                    self.arena[slot as usize].ev.is_none(),
                    "free slot still occupied"
                );
                self.arena[slot as usize] = filled;
                slot
            }
            None => {
                #[expect(
                    clippy::expect_used,
                    reason = "2^32 outstanding events are > 100 GiB of arena; memory runs out \
                              long before the index does"
                )]
                let slot =
                    u32::try_from(self.arena.len()).expect("more than u32::MAX outstanding events");
                self.arena.push(filled);
                slot
            }
        };
        self.push(HeapEntry {
            key: time_key(t),
            slot,
            timer: false,
        });
    }

    /// Schedules the timer `payload` at time `t`. It fires as the event
    /// and under the minor key the queue's two functions give for
    /// `payload`; among events with that time and minor key it fires
    /// first.
    ///
    /// # Panics
    /// If the queue was not built by [`EventQueue::with_timers`].
    pub fn schedule_timer(&mut self, t: f64, payload: u32) {
        debug_assert!(t.is_finite(), "non-finite event time {t}");
        assert!(
            self.timers.is_some(),
            "schedule_timer on a queue built without timers"
        );
        self.push(HeapEntry {
            key: time_key(t),
            slot: payload,
            timer: true,
        });
    }

    fn push(&mut self, entry: HeapEntry) {
        let (arena, timers) = (&self.arena, self.timers);
        self.heap
            .push(entry, |a, b| fires_before(arena, timers, a, b));
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| key_time(e.key))
    }

    /// Time and minor key of the earliest pending event. The pair is the
    /// content-derived part of the firing order, so a client can compare
    /// the queue head against an event it holds outside the queue without
    /// popping.
    pub fn peek_key(&self) -> Option<(f64, u64)> {
        self.heap.peek().map(|e| {
            let minor = if e.timer {
                (timer_fns(self.timers).1)(e.slot)
            } else {
                self.arena[e.slot as usize].minor
            };
            (key_time(e.key), minor)
        })
    }

    /// Removes and returns the earliest event and its time. Ties fire in
    /// `(minor, scheduling order)` order.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.pop_entry().map(|(t, _, ev)| (t, ev))
    }

    /// Removes and returns the earliest event along with its time and
    /// minor key: [`EventQueue::pop`]'s body, and the tests' view of the
    /// minor keys.
    fn pop_entry(&mut self) -> Option<(f64, u64, E)> {
        loop {
            let (arena, timers) = (&self.arena, self.timers);
            let top = self.heap.pop(|a, b| fires_before(arena, timers, a, b))?;
            if top.timer {
                let (event, minor) = timer_fns(timers);
                return Some((key_time(top.key), minor(top.slot), event(top.slot)));
            }
            // Each heap entry owns its arena slot until fired; a vacated
            // slot (impossible today, tolerated for robustness) is skipped.
            let slot = &mut self.arena[top.slot as usize];
            if let Some(ev) = slot.ev.take() {
                self.free.push(top.slot);
                return Some((key_time(top.key), slot.minor, ev));
            }
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Outstanding (scheduled, unfired) events, timers included — exposed
    /// for capacity diagnostics and the arena-reuse tests.
    pub fn outstanding(&self) -> usize {
        self.heap.len()
    }

    /// Size of the event arena (high-water mark of outstanding events
    /// other than timers, which take no slot).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }
}

/// [`EventQueue`] plus the simulation clock: the standard event-loop
/// driver. Clients pump it themselves —
///
/// ```ignore
/// while let Some((t, ev)) = engine.pop_due(horizon) {
///     match ev { /* ... may call engine.schedule(...) ... */ }
/// }
/// ```
///
/// — so event handling can borrow the rest of the client's state freely.
#[derive(Debug, Default)]
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: f64,
}

impl<E> Engine<E> {
    /// An engine at time 0 with no events.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: 0.0,
        }
    }

    /// An engine at time 0 with no events, whose queue also takes timers
    /// (see [`EventQueue::with_timers`]).
    pub fn with_timers(event: fn(u32) -> E, minor: fn(u32) -> u64) -> Self {
        Engine {
            queue: EventQueue::with_timers(event, minor),
            now: 0.0,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedules `ev` at `max(t, now)`: the engine clock never runs
    /// backwards, so a request into the past fires immediately instead.
    /// Debug builds flag such requests beyond float-rounding slack.
    pub fn schedule(&mut self, t: f64, ev: E) {
        self.schedule_keyed(t, 0, ev);
    }

    /// [`Engine::schedule`] with an explicit minor tie-break key (see
    /// [`EventQueue::schedule_keyed`]).
    pub fn schedule_keyed(&mut self, t: f64, minor: u64, ev: E) {
        let t = self.clamp_to_now(t);
        self.queue.schedule_keyed(t, minor, ev);
    }

    /// Schedules the timer `payload` at `max(t, now)` (see
    /// [`EventQueue::schedule_timer`]).
    pub fn schedule_timer(&mut self, t: f64, payload: u32) {
        let t = self.clamp_to_now(t);
        self.queue.schedule_timer(t, payload);
    }

    /// `max(t, now)`, flagging in debug builds a `t` further in the past
    /// than float rounding explains.
    fn clamp_to_now(&self, t: f64) -> f64 {
        debug_assert!(
            // lint:allow(L003): hpfq-events is dependency-free by design and
            // cannot import `vtime::EPS`; this debug-only relative slack
            // guards the clock monotonicity assert, not a virtual-time compare
            t >= self.now - 1e-9 * self.now.abs().max(1.0),
            "scheduling into the past: {t} < {}",
            self.now
        );
        t.max(self.now)
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<f64> {
        self.queue.peek_time()
    }

    /// Time and minor key of the earliest pending event (see
    /// [`EventQueue::peek_key`]).
    pub fn peek_key(&self) -> Option<(f64, u64)> {
        self.queue.peek_key()
    }

    /// Pops the earliest event if it is due at or before `horizon`,
    /// advancing the clock to its time. Events strictly after the horizon
    /// stay queued, so a later call with a larger horizon continues
    /// cleanly (segmented runs).
    // Inlined so the due check runs in the caller's event loop and only an
    // actual pop calls out, to `pop_entry`.
    #[inline]
    pub fn pop_due(&mut self, horizon: f64) -> Option<(f64, E)> {
        if self.queue.peek_time()? > horizon {
            return None;
        }
        let (t, ev) = self.queue.pop()?;
        self.now = t;
        Some((t, ev))
    }

    /// Advances the clock to `t` without popping anything, so that
    /// `schedule` calls made next are clamped against `t`, not a stale
    /// clock. Moving backwards is a no-op (the clock stays monotone).
    pub fn advance_to(&mut self, t: f64) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Outstanding (scheduled, unfired) events, timers included.
    pub fn outstanding(&self) -> usize {
        self.queue.outstanding()
    }

    /// Size of the event arena (see [`EventQueue::arena_len`]).
    pub fn arena_len(&self) -> usize {
        self.queue.arena_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_fire_in_scheduling_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(1.0, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((1.0, i)));
        }
    }

    #[test]
    fn interleaved_ties_stay_fifo() {
        // Ties scheduled across pops must still respect scheduling order
        // among themselves.
        let mut q = EventQueue::new();
        q.schedule(1.0, 0);
        q.schedule(1.0, 1);
        assert_eq!(q.pop(), Some((1.0, 0)));
        q.schedule(1.0, 2);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0, 2)));
    }

    #[test]
    fn arena_reuses_fired_slots() {
        let mut q = EventQueue::new();
        for round in 0..1000 {
            q.schedule(round as f64, round);
            q.schedule(round as f64 + 0.5, round);
            assert_eq!(q.pop().map(|(_, e)| e), Some(round));
            assert_eq!(q.pop().map(|(_, e)| e), Some(round));
        }
        assert!(q.arena_len() <= 2, "arena grew to {}", q.arena_len());
        assert_eq!(q.outstanding(), 0);
    }

    #[test]
    fn engine_advances_clock_and_respects_horizon() {
        let mut e = Engine::new();
        e.schedule(1.0, "a");
        e.schedule(5.0, "b");
        assert_eq!(e.pop_due(2.0), Some((1.0, "a")));
        assert_eq!(e.now(), 1.0);
        // b is past the horizon: stays queued.
        assert_eq!(e.pop_due(2.0), None);
        assert_eq!(e.now(), 1.0);
        assert_eq!(e.outstanding(), 1);
        // A later segment picks it up.
        assert_eq!(e.pop_due(10.0), Some((5.0, "b")));
        assert_eq!(e.now(), 5.0);
        assert_eq!(e.pop_due(10.0), None);
        assert!(e.is_empty());
    }

    #[test]
    fn engine_clamps_past_times_to_now() {
        let mut e = Engine::new();
        e.schedule(2.0, "late");
        assert_eq!(e.pop_due(10.0), Some((2.0, "late")));
        // Requesting t=2.0 at now=2.0 (a zero-delay follow-up) is legal
        // and fires at now.
        e.schedule(2.0, "follow-up");
        assert_eq!(e.pop_due(10.0), Some((2.0, "follow-up")));
    }

    #[test]
    fn minor_keys_order_ties_before_seq() {
        let mut q = EventQueue::new();
        // Scheduled in an order deliberately different from the minor-key
        // order: ties in time must fire by minor key, then FIFO.
        q.schedule_keyed(1.0, 5, "e");
        q.schedule_keyed(1.0, 2, "b");
        q.schedule_keyed(1.0, 2, "c");
        q.schedule_keyed(1.0, 0, "a");
        q.schedule_keyed(0.5, 9, "first");
        assert_eq!(q.pop(), Some((0.5, "first")));
        assert_eq!(q.pop_entry(), Some((1.0, 0, "a")));
        assert_eq!(q.pop_entry(), Some((1.0, 2, "b")));
        assert_eq!(q.pop_entry(), Some((1.0, 2, "c")));
        assert_eq!(q.pop_entry(), Some((1.0, 5, "e")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn plain_schedule_keeps_fifo_semantics() {
        // schedule() is schedule_keyed(minor = 0): mixing it with keyed
        // events must keep plain events ahead of any positive minor key.
        let mut q = EventQueue::new();
        q.schedule_keyed(1.0, 7, "keyed");
        q.schedule(1.0, "plain1");
        q.schedule(1.0, "plain2");
        assert_eq!(q.pop(), Some((1.0, "plain1")));
        assert_eq!(q.pop(), Some((1.0, "plain2")));
        assert_eq!(q.pop(), Some((1.0, "keyed")));
    }

    #[test]
    fn advance_to_is_monotone_and_clamps_schedules() {
        let mut e = Engine::new();
        e.advance_to(5.0);
        assert_eq!(e.now(), 5.0);
        e.advance_to(3.0); // backwards: no-op
        assert_eq!(e.now(), 5.0);
        e.schedule(5.0, "at-now");
        assert_eq!(e.pop_due(10.0), Some((5.0, "at-now")));
    }

    #[test]
    fn peek_key_exposes_time_and_minor() {
        let mut e = Engine::new();
        assert_eq!(e.peek_key(), None);
        e.schedule_keyed(2.0, 7, "later");
        e.schedule_keyed(1.0, 4, "sooner");
        assert_eq!(e.peek_key(), Some((1.0, 4)));
        assert_eq!(e.pop_due(10.0), Some((1.0, "sooner")));
        assert_eq!(e.peek_key(), Some((2.0, 7)));
    }

    #[test]
    fn peek_matches_pop() {
        let mut e = Engine::new();
        e.schedule(0.25, 1u32);
        e.schedule(0.125, 2u32);
        assert_eq!(e.peek_time(), Some(0.125));
        assert_eq!(e.pop_due(f64::INFINITY), Some((0.125, 2)));
        assert_eq!(e.peek_time(), Some(0.25));
    }

    /// One time from every region of the `total_cmp` order short of the
    /// NaNs: infinities, subnormals, both zeros.
    const EDGE_TIMES: [f64; 16] = [
        f64::NEG_INFINITY,
        f64::MIN,
        -1.5,
        -f64::MIN_POSITIVE,
        -5e-324,
        -0.0,
        0.0,
        5e-324,
        1e-310,
        f64::MIN_POSITIVE,
        0.1,
        1.0,
        1.0 + f64::EPSILON,
        1e300,
        f64::MAX,
        f64::INFINITY,
    ];

    /// The crate is dependency-free, tests included: xorshift64.
    pub(crate) fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    #[test]
    fn time_key_is_strictly_monotone_and_inverts_exactly() {
        let mut times: Vec<f64> = EDGE_TIMES.to_vec();
        times.push(f64::NAN);
        times.push(-f64::NAN);
        times.push(f64::from_bits(0x7ff0_0000_0000_0001)); // signalling NaN
        let mut state = 0x1234_5678_9abc_def1;
        // All pairs are compared below; miri runs this interpreted.
        for _ in 0..if cfg!(miri) { 50 } else { 500 } {
            times.push(f64::from_bits(xorshift(&mut state)));
        }
        for &a in &times {
            assert_eq!(key_time(time_key(a)).to_bits(), a.to_bits(), "{a:e}");
            for &b in &times {
                assert_eq!(
                    time_key(a).cmp(&time_key(b)),
                    a.total_cmp(&b),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }

    #[test]
    fn queue_matches_sorted_oracle_on_ties_zeros_and_subnormals() {
        // The oracle is the documented order itself: sort by
        // (t.total_cmp, minor, seq). Times come from a small pool, so
        // bit-equal ties are the common case, and an event popped at `t`
        // is often re-scheduled at the same `t` with a later sequence.
        let mut state = 0x0dd_ba11;
        for round in 0..if cfg!(miri) { 4 } else { 100 } {
            let mut q = EventQueue::new();
            // (time, minor, seq); the event payload is its seq.
            let mut model: Vec<(f64, u64, u64)> = Vec::new();
            let mut seq = 0;
            let mut schedule = |q: &mut EventQueue<u64>, model: &mut Vec<_>, t: f64, minor| {
                seq += 1;
                q.schedule_keyed(t, minor, seq);
                model.push((t, minor, seq));
            };
            for _ in 0..300 {
                let r = xorshift(&mut state);
                if r % 5 < 3 || model.is_empty() {
                    let t = EDGE_TIMES[1 + (r >> 8) as usize % 14];
                    schedule(&mut q, &mut model, t, (r >> 16) % 3);
                } else {
                    model.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
                    let (t, minor, id) = model.remove(0);
                    assert_eq!(
                        q.peek_key().map(|(t, m)| (t.to_bits(), m)),
                        Some((t.to_bits(), minor)),
                        "round {round}"
                    );
                    let (pt, pminor, pid) = q.pop_entry().expect("model is non-empty");
                    assert_eq!((pt.to_bits(), pminor, pid), (t.to_bits(), minor, id));
                    if r & 1 == 0 {
                        // Re-schedule at the popped time: fires after every
                        // event already queued there with the same minor.
                        schedule(&mut q, &mut model, t, minor);
                    }
                }
                assert_eq!(q.outstanding(), model.len());
            }
            model.sort_by(|a, b| a.0.total_cmp(&b.0).then((a.1, a.2).cmp(&(b.1, b.2))));
            for (t, minor, id) in model {
                let (pt, pminor, pid) = q.pop_entry().expect("model is non-empty");
                assert_eq!((pt.to_bits(), pminor, pid), (t.to_bits(), minor, id));
            }
            assert!(q.is_empty());
        }
    }

    /// The timer functions of the tests below: a payload stands for the
    /// event `u64::MAX - payload` (no arena event below carries such an
    /// id), under a minor key from the same three-value pool the arena
    /// events draw theirs from, so `(time, minor)` ties between the two
    /// kinds, and between timers of different payloads, are common.
    fn timer_event(payload: u32) -> u64 {
        u64::MAX - u64::from(payload)
    }

    fn timer_minor(payload: u32) -> u64 {
        u64::from(payload % 3)
    }

    /// The documented order, as a sort: `(time, minor, seq)` with a timer
    /// at sequence 0. Two timers that still tie are ordered by payload,
    /// which only matters when the payloads — and so the events — differ.
    fn sort_model(model: &mut [(f64, u64, u64, u64)]) {
        model.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then((a.1, a.2).cmp(&(b.1, b.2)))
                .then(b.3.cmp(&a.3))
        });
    }

    #[test]
    fn timers_and_arena_events_interleave_in_the_documented_order() {
        let mut state = 0x7157_e125;
        for round in 0..if cfg!(miri) { 4 } else { 100 } {
            let mut q = EventQueue::with_timers(timer_event, timer_minor);
            // (time, minor, seq — 0 for a timer, event id).
            let mut model: Vec<(f64, u64, u64, u64)> = Vec::new();
            let mut seq = 0;
            let (mut timers, mut arena_high) = (0, 0);
            for _ in 0..300 {
                let r = xorshift(&mut state);
                let t = EDGE_TIMES[1 + (r >> 8) as usize % 14];
                match r % 5 {
                    0 | 1 => {
                        seq += 1;
                        let minor = (r >> 16) % 3;
                        q.schedule_keyed(t, minor, seq);
                        model.push((t, minor, seq, seq));
                    }
                    2 | 3 => {
                        // Eight payloads: the same timer is often queued
                        // twice at one time.
                        let payload = (r >> 16) as u32 % 8;
                        q.schedule_timer(t, payload);
                        model.push((t, timer_minor(payload), 0, timer_event(payload)));
                        timers += 1;
                    }
                    _ if model.is_empty() => {}
                    _ => {
                        sort_model(&mut model);
                        let (t, minor, seq, id) = model.remove(0);
                        timers -= usize::from(seq == 0);
                        assert_eq!(
                            q.peek_key().map(|(t, m)| (t.to_bits(), m)),
                            Some((t.to_bits(), minor)),
                            "round {round}"
                        );
                        let (pt, pminor, pid) = q.pop_entry().expect("model is non-empty");
                        assert_eq!((pt.to_bits(), pminor, pid), (t.to_bits(), minor, id));
                    }
                }
                assert_eq!(q.outstanding(), model.len());
                // The arena is the high-water mark of the other events.
                arena_high = arena_high.max(model.len() - timers);
                assert_eq!(q.arena_len(), arena_high);
            }
            sort_model(&mut model);
            for (t, minor, _, id) in model {
                let (pt, pminor, pid) = q.pop_entry().expect("model is non-empty");
                assert_eq!((pt.to_bits(), pminor, pid), (t.to_bits(), minor, id));
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn a_timer_fires_before_an_arena_event_with_its_time_and_minor() {
        let mut q = EventQueue::with_timers(timer_event, timer_minor);
        q.schedule_keyed(1.0, 1, 10);
        q.schedule_keyed(1.0, 2, 11);
        q.schedule_timer(1.0, 4); // minor 1: scheduled after 10, fires before
        q.schedule_timer(1.0, 7); // minor 1 too: after timer 4, by payload
        q.schedule_timer(1.0, 4); // the same event again
        q.schedule_keyed(1.0, 0, 12);
        assert_eq!(q.peek_key(), Some((1.0, 0)));
        let fired: Vec<_> = std::iter::from_fn(|| q.pop_entry()).collect();
        assert_eq!(
            fired,
            vec![
                (1.0, 0, 12),
                (1.0, 1, timer_event(4)),
                (1.0, 1, timer_event(4)),
                (1.0, 1, timer_event(7)),
                (1.0, 1, 10),
                (1.0, 2, 11),
            ]
        );
    }

    #[test]
    fn timers_take_no_arena_slot_and_are_counted_outstanding() {
        let mut e = Engine::with_timers(timer_event, timer_minor);
        for i in 0..100 {
            e.schedule_timer(f64::from(i), i);
        }
        assert_eq!((e.outstanding(), e.arena_len()), (100, 0));
        e.schedule(0.5, 1);
        assert_eq!((e.outstanding(), e.arena_len()), (101, 1));
        // A timer at the head: its key comes from the payload alone.
        assert_eq!(e.peek_key(), Some((0.0, 0)));
        assert_eq!(e.pop_due(0.25), Some((0.0, timer_event(0))));
        assert_eq!(e.pop_due(0.75), Some((0.5, 1)));
        assert_eq!(e.peek_key(), Some((1.0, timer_minor(1))));
        assert_eq!((e.outstanding(), e.arena_len()), (99, 1));
        // Like any event, a timer asked for in the past fires now.
        assert_eq!(e.pop_due(1.0), Some((1.0, timer_event(1))));
        e.schedule_timer(1.0, 50);
        assert_eq!(e.pop_due(1.0), Some((1.0, timer_event(50))));
    }

    #[test]
    fn drained_timers_and_events_reschedule_in_the_same_order() {
        // Pop every entry with its key, tell a timer from an arena event
        // by the event alone, schedule each back: the order is unchanged.
        let mut state = 0xd2a1_0000;
        let mut q = EventQueue::with_timers(timer_event, timer_minor);
        for i in 0..if cfg!(miri) { 40 } else { 400 } {
            let r = xorshift(&mut state);
            let t = EDGE_TIMES[6 + (r >> 8) as usize % 8];
            if r & 1 == 0 {
                q.schedule_timer(t, (r >> 16) as u32 % 16);
            } else {
                q.schedule_keyed(t, (r >> 16) % 3, i);
            }
        }
        let drain = |q: &mut EventQueue<u64>| std::iter::from_fn(|| q.pop_entry()).collect();
        let drained: Vec<(f64, u64, u64)> = drain(&mut q);
        assert!(q.is_empty());
        for &(t, minor, ev) in &drained {
            match u32::try_from(u64::MAX - ev) {
                Ok(payload) => {
                    assert_eq!(minor, timer_minor(payload));
                    q.schedule_timer(t, payload);
                }
                Err(_) => q.schedule_keyed(t, minor, ev),
            }
        }
        assert_eq!(drain(&mut q), drained);
    }

    #[test]
    #[should_panic(expected = "built without timers")]
    fn a_queue_without_timers_refuses_one() {
        EventQueue::<u64>::new().schedule_timer(0.0, 1);
    }

    #[test]
    fn heap_entry_is_sixteen_bytes() {
        // Four siblings of a sift level are 64 contiguous bytes; (minor,
        // seq) creeping back into the entry would make it 32 each.
        assert_eq!(std::mem::size_of::<HeapEntry>(), 16);
    }
}
