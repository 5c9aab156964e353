//! Hierarchical calendar-queue eligible set: amortized O(1) dispatch.
//!
//! The dual-heap set pays O(log N) per heap sift, and the scaling sweep in
//! `hpfq-bench` shows exactly that: dispatch cost grows with the log of the
//! flow count, dominated by cache-missing sift chains once the heaps spill
//! the last-level cache. This module replaces both heaps with *hierarchical
//! timing wheels* (Varghese & Lauck, SOSP 1987; Brown's calendar queues,
//! CACM 1988): tags are bucketed on a uniform grid, the monotone
//! per-busy-period threshold drives a cursor that rotates lazily through
//! the buckets, and each entry is touched a constant number of times
//! (once per wheel level) regardless of N.
//!
//! ## Structure
//!
//! Two wheels share one entry layout with the dual heap's 24-byte SoA
//! entries: a *pending* wheel keyed by eligibility (start) tag and a
//! *ready* wheel keyed by primary (finish) rank, plus the same physically
//! maintained sorted *monotone tail* deque for ring disciplines. Each wheel
//! maps a key to an integer tick `⌊(key − base)/width⌋` and stores the
//! entry in one of [`LEVELS`] levels of [`NB`] buckets each; level `l`
//! buckets are `NB^l` ticks wide, so the wheels cover `NB^LEVELS` ticks
//! (16.7M) beyond the cursor. Keys below the level-0 window land in an
//! *under* heap (rare: a rank below everything live), keys beyond the
//! horizon in an *over* heap; both degrade gracefully to exact heap
//! behavior and both trigger a deterministic rebuild when they accumulate.
//!
//! Because `⌊(key − base)/width⌋` is a monotone function of the key (IEEE
//! subtraction and division round monotonically), bucket order refines key
//! order exactly: the first non-empty bucket contains the minimum, and the
//! in-bucket scan compares full `(key, secondary, id)` triples with the
//! same exact comparisons as the dual heap. **Pops therefore leave in the
//! identical global order as the dual heap**, which is what lets the PIFO
//! equivalence suite drive the two backends in lockstep, bit for bit.
//!
//! ## Rotation, cascade, resize
//!
//! A pop scans level 0 from its cursor; when level 0 is exhausted, the
//! next non-empty level-`l` bucket *cascades* one level down (its span is
//! exactly the lower level's whole window), re-bucketing its entries at
//! finer granularity. Each entry cascades at most `LEVELS − 1` times, so
//! insert + pop cost is amortized O(1) with the width matched to the live
//! population. The width is re-fit deterministically — `span / live` at
//! every rebuild — and rebuilds trigger on population doubling/quartering
//! and on under/over overflow, all pure functions of the operation
//! sequence (no wall clock, no randomness: replay-stable).
//!
//! Removal is generation-lazy exactly like the dual heap: stale entries
//! are dropped when a bucket scan or cascade touches them. Snapshots
//! ([`PifoBackend::members_in_order`]) emit the live membership fully
//! sorted, so the serialized form is a deterministic function of the
//! membership alone — byte-stable across structurally different histories.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use super::{EligibleSet, PifoBackend};
use crate::scheduler::SessionId;
use crate::vtime;

/// Buckets per wheel level.
const NB: usize = 64;
/// Wheel levels; the horizon is `NB^LEVELS` ticks past the cursor.
const LEVELS: usize = 4;
/// `G[l] = NB^l`: tick granularity of level `l` (and `G[LEVELS]` = horizon).
const G: [i64; LEVELS + 1] = [1, 64, 4096, 262_144, 16_777_216];

/// Wheel entry — 24 bytes, ordered `(key, secondary, id)` exactly as the
/// dual heap orders its entries (inverted here for `BinaryHeap`), so the
/// under/over heaps and in-bucket scans pop in the same order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CalEntry {
    key: f64,
    secondary: f64,
    id: u32,
    generation: u32,
}

impl Eq for CalEntry {}

impl Ord for CalEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: smaller (key, secondary, id) is "greater" for the heap.
        let lhs = (other.key, other.secondary, other.id);
        let rhs = (self.key, self.secondary, self.id);
        lhs.partial_cmp(&rhs)
            // lint:allow(L002): insert paths assert finite keys — total order
            .expect("keys must not be NaN (asserted on insert)")
    }
}

impl PartialOrd for CalEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[inline]
fn rank_of(e: &CalEntry) -> (f64, f64, u32) {
    (e.key, e.secondary, e.id)
}

/// One wheel level: `NB` buckets of `G[l]` ticks each, covering the tick
/// window `[start, start + NB * G[l])`. Buckets before `cursor` are empty.
#[derive(Debug, Clone)]
struct Level {
    start: i64,
    cursor: usize,
    buckets: Vec<Vec<CalEntry>>,
}

impl Level {
    fn new() -> Self {
        Level {
            start: 0,
            cursor: 0,
            buckets: (0..NB).map(|_| Vec::new()).collect(),
        }
    }
}

/// Where [`Wheel::locate_min`] found the minimum.
#[derive(Debug, Clone, Copy)]
enum Loc {
    Under,
    /// Always level 0: higher levels cascade down before a pop.
    Bucket { bucket: usize, slot: usize },
}

/// One hierarchical timing wheel. The nesting invariant — level `l−1`'s
/// window is exactly level `l`'s next-uncascaded-bucket boundary,
/// `start[l−1] + NB·G[l−1] == start[l] + cursor[l]·G[l]` — holds at every
/// operation boundary, so the smallest-level placement rule below is total
/// and cross-bucket tick order refines exact key order.
#[derive(Debug, Clone)]
struct Wheel {
    levels: Vec<Level>,
    /// Keys below the level-0 window (tick < `levels[0].start`).
    under: BinaryHeap<CalEntry>,
    /// Keys at or beyond the horizon (tick >= `levels[LEVELS−1]` end).
    over: BinaryHeap<CalEntry>,
    /// Tick grid: tick(key) = floor((key − base) / width).
    base: f64,
    width: f64,
    /// False until the first insert (or after clear/empty-rebuild) — the
    /// grid is anchored at the first key seen.
    initialized: bool,
    /// Physical entries across all containers, including stale ones.
    count: usize,
    /// Stale (generation-mismatched) entries still parked somewhere.
    stale: usize,
    /// Live population the current width was fitted to.
    sized_for: usize,
    /// Level-0 bucket currently kept in descending rank order (minimum at
    /// the back, see [`Wheel::locate_min`]); `usize::MAX` when none is.
    sorted: usize,
}

impl Default for Wheel {
    fn default() -> Self {
        Wheel {
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            under: BinaryHeap::new(),
            over: BinaryHeap::new(),
            base: 0.0,
            width: 1.0,
            initialized: false,
            count: 0,
            stale: 0,
            sized_for: 1,
            sorted: usize::MAX,
        }
    }
}

impl Wheel {
    #[inline]
    fn live(&self) -> usize {
        self.count - self.stale
    }

    /// Anchors the tick grid at `key` (first insert of an epoch). The
    /// learned width is kept — across busy periods the population is
    /// usually similar, so the old fit is the best available guess.
    fn init_around(&mut self, key: f64) {
        self.base = key;
        for (l, lv) in self.levels.iter_mut().enumerate() {
            lv.start = 0;
            // Level l >= 1 coverage starts where level l−1's window ends:
            // bucket 0 (ticks [0, G[l])) is exactly the lower levels' span.
            lv.cursor = usize::from(l != 0);
        }
        self.sorted = usize::MAX;
        self.initialized = true;
    }

    /// Files an entry by tick; no counters, no triggers (rebuild reuses it).
    fn place(&mut self, e: CalEntry) {
        debug_assert!(self.initialized);
        let d = (e.key - self.base) / self.width;
        // lint:allow(L001): `start` is an integer bucket tick on the wheel
        // grid, not a virtual-time tag; tick routing must be exact
        if d < self.levels[0].start as f64 {
            self.under.push(e);
            return;
        }
        let horizon = self.levels[LEVELS - 1].start + G[LEVELS];
        if d >= horizon as f64 {
            self.over.push(e);
            return;
        }
        // d >= start[0] >= 0, so the cast truncation is a floor.
        let t = d as i64;
        for l in 0..LEVELS {
            let lv = &mut self.levels[l];
            // lint:allow(L001): integer tick-window comparison, not a
            // virtual-time ordering — the grid is exact by construction
            if t < lv.start + G[l + 1] {
                let idx = ((t - lv.start) / G[l]) as usize;
                debug_assert!(idx < NB);
                // Only level 0 can receive a tick behind its cursor (the
                // nesting invariant routes anything below a higher level's
                // cursor boundary to a lower level): roll the scan back.
                if l == 0 && idx < lv.cursor {
                    lv.cursor = idx;
                }
                debug_assert!(l == 0 || idx >= lv.cursor);
                if l == 0 && idx == self.sorted {
                    // Keep the active bucket's descending rank order so its
                    // back stays the minimum (inverted Ord: ascending sort).
                    let b = &mut lv.buckets[idx];
                    match b.binary_search(&e) {
                        Ok(p) | Err(p) => b.insert(p, e),
                    }
                } else {
                    lv.buckets[idx].push(e);
                }
                return;
            }
        }
        // lint:allow(L002): the level windows tile [start[0], horizon)
        // exactly (nesting invariant) and t < horizon was checked above
        unreachable!("tick below horizon must land in a level");
    }

    /// Inserts a live entry, re-fitting the grid when the population
    /// outgrew the width or the under heap shows the window is mis-anchored.
    fn insert(&mut self, e: CalEntry, generations: &[u32]) {
        if !self.initialized {
            self.init_around(e.key);
        }
        self.count += 1;
        self.place(e);
        if self.count > self.sized_for * 2 + NB || self.under.len() > NB.max(self.sized_for / 8) {
            self.rebuild(generations);
        }
    }

    /// Drops stale entries from bucket `(l, c)` in place.
    fn prune_bucket(&mut self, l: usize, c: usize, generations: &[u32]) {
        let mut i = 0;
        while i < self.levels[l].buckets[c].len() {
            let e = self.levels[l].buckets[c][i];
            if generations[e.id as usize] == e.generation {
                i += 1;
            } else {
                self.levels[l].buckets[c].swap_remove(i);
                self.count -= 1;
                self.stale -= 1;
            }
        }
    }

    /// Refills level `l − 1` by cascading the next non-empty bucket of
    /// level `l` (pulling level `l`'s own window forward from `l + 1`
    /// first if it is exhausted). Returns false when every level is dry.
    fn refill_from(&mut self, l: usize, generations: &[u32]) -> bool {
        if l >= LEVELS {
            return false;
        }
        loop {
            while self.levels[l].cursor < NB {
                let c = self.levels[l].cursor;
                self.prune_bucket(l, c, generations);
                if !self.levels[l].buckets[c].is_empty() {
                    break;
                }
                self.levels[l].cursor += 1;
            }
            if self.levels[l].cursor < NB {
                break;
            }
            if !self.refill_from(l + 1, generations) {
                return false;
            }
        }
        let b = self.levels[l].cursor;
        let entries = std::mem::take(&mut self.levels[l].buckets[b]);
        self.levels[l].cursor = b + 1;
        let new_start = self.levels[l].start + (b as i64) * G[l];
        debug_assert!(self.levels[l - 1].buckets.iter().all(Vec::is_empty));
        self.levels[l - 1].start = new_start;
        self.levels[l - 1].cursor = 0;
        if l == 1 {
            // Level 0 gets a fresh window: bucket indices are reused, so
            // the sorted marker would alias an unrelated bucket.
            self.sorted = usize::MAX;
        }
        for e in entries {
            // Same grid, same arithmetic as place(): deterministic re-bucket
            // at granularity G[l−1]; the bucket span is exactly the window.
            let t = ((e.key - self.base) / self.width) as i64;
            let idx = ((t - new_start) / G[l - 1]) as usize;
            debug_assert!(idx < NB);
            self.levels[l - 1].buckets[idx].push(e);
        }
        true
    }

    /// Finds the live global minimum by `(key, secondary, id)`, pruning
    /// stale entries and cascading/rotating as needed. Under < levels <
    /// over holds in *strict* key order (equal keys always share a tick and
    /// therefore a container), so the first populated region wins outright.
    fn locate_min(&mut self, generations: &[u32]) -> Option<(Loc, CalEntry)> {
        while let Some(top) = self.under.peek().copied() {
            if generations[top.id as usize] == top.generation {
                return Some((Loc::Under, top));
            }
            self.under.pop();
            self.count -= 1;
            self.stale -= 1;
        }
        if self.initialized {
            loop {
                while self.levels[0].cursor < NB {
                    let c = self.levels[0].cursor;
                    if self.sorted == c {
                        // Already in descending rank order: drop stale
                        // entries surfacing at the back (order-preserving),
                        // then the back is the live in-bucket minimum.
                        while let Some(e) = self.levels[0].buckets[c].last() {
                            if generations[e.id as usize] == e.generation {
                                break;
                            }
                            self.levels[0].buckets[c].pop();
                            self.count -= 1;
                            self.stale -= 1;
                        }
                    } else {
                        // First touch of this bucket: prune, then sort once
                        // so every subsequent pop is a Vec::pop. The
                        // inverted Ord puts the smallest (key, secondary,
                        // id) at the back; under an all-ties plateau (every
                        // live entry sharing one rank key, hence one
                        // bucket) this is what keeps pops amortized O(1)
                        // instead of a linear min scan per pop.
                        self.prune_bucket(0, c, generations);
                        self.levels[0].buckets[c].sort_unstable();
                        self.sorted = c;
                    }
                    let bucket = &self.levels[0].buckets[c];
                    if let Some(e) = bucket.last() {
                        let slot = bucket.len() - 1;
                        return Some((Loc::Bucket { bucket: c, slot }, *e));
                    }
                    self.levels[0].cursor += 1;
                }
                if !self.refill_from(1, generations) {
                    // Every level window is exhausted (and physically
                    // empty). Leaving the dead cursors in place would let a
                    // later insert file behind them and never be scanned, so
                    // re-anchor now: a rebuild pulls whatever the over heap
                    // still holds into fresh windows; with nothing left at
                    // all, just drop the anchor for the next insert.
                    if self.count == 0 {
                        self.initialized = false;
                        break;
                    }
                    self.rebuild(generations);
                    if !self.initialized {
                        break; // everything left was stale
                    }
                }
            }
        }
        // No live entries anywhere: the under scan drained to a live top or
        // empty, and the level scan above only gives up after re-anchoring
        // proved the wheel empty.
        debug_assert_eq!(self.count, 0);
        None
    }

    /// Removes the entry found by [`Wheel::locate_min`] (same op, no
    /// intervening mutation), shrinking the fit if the population cratered.
    fn take(&mut self, loc: Loc, generations: &[u32]) -> CalEntry {
        self.count -= 1;
        let e = match loc {
            Loc::Under => self
                .under
                .pop()
                // lint:allow(L002): locate_min just returned this top
                .expect("take(Under) without a located entry"),
            Loc::Bucket { bucket, slot } => self.levels[0].buckets[bucket].swap_remove(slot),
        };
        if self.sized_for > NB * 2 && self.live() * 4 < self.sized_for {
            self.rebuild(generations);
        }
        e
    }

    /// Re-fits the grid to the live population: base = min key, width =
    /// span / live (clamped so the horizon always covers the span), then
    /// re-files everything. O(live), amortized against the doubling /
    /// quartering / overflow triggers; a pure function of the op sequence.
    fn rebuild(&mut self, generations: &[u32]) {
        let mut entries: Vec<CalEntry> = Vec::with_capacity(self.live());
        let live = |e: &CalEntry| generations[e.id as usize] == e.generation;
        entries.extend(self.under.drain().filter(live));
        entries.extend(self.over.drain().filter(live));
        for lv in &mut self.levels {
            lv.start = 0;
            lv.cursor = 0;
            for b in &mut lv.buckets {
                entries.extend(b.drain(..).filter(live));
            }
        }
        self.count = entries.len();
        self.stale = 0;
        self.sized_for = entries.len().max(1);
        self.sorted = usize::MAX;
        if entries.is_empty() {
            self.initialized = false;
            return;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for e in &entries {
            lo = lo.min(e.key);
            hi = hi.max(e.key);
        }
        let span = hi - lo;
        // Fit one live entry per level-0 tick, but never let the span
        // outrun the horizon (entries past it would re-land in `over`).
        let denom = (entries.len() as f64).min((G[LEVELS] / 2) as f64);
        self.width = if span > 0.0 { span / denom } else { 1.0 };
        self.base = lo;
        self.init_around(lo);
        for e in entries {
            self.place(e);
        }
    }

    fn iter_live<'a>(
        &'a self,
        generations: &'a [u32],
    ) -> impl Iterator<Item = &'a CalEntry> + 'a {
        self.under
            .iter()
            .chain(self.over.iter())
            .chain(self.levels.iter().flat_map(|lv| lv.buckets.iter().flatten()))
            .filter(move |e| generations[e.id as usize] == e.generation)
    }

    fn clear(&mut self) {
        self.under.clear();
        self.over.clear();
        for lv in &mut self.levels {
            lv.start = 0;
            lv.cursor = 0;
            for b in &mut lv.buckets {
                b.clear();
            }
        }
        self.count = 0;
        self.stale = 0;
        self.sorted = usize::MAX;
        // Keep width and sized_for: the next busy period's population is
        // usually similar, and both are replay-deterministic either way.
        self.initialized = false;
    }
}

/// Membership state; tags live in the parallel SoA arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Absent,
    Pending,
    Ready,
}

/// See the [module documentation](self).
#[derive(Debug, Clone, Default)]
pub struct CalendarEligibleSet {
    /// Wheel keyed by eligibility (start) tag.
    pending: Wheel,
    /// Wheel keyed by primary (finish) rank.
    ready: Wheel,
    /// Sorted monotone tail, physically pruned — identical contract to the
    /// dual heap's.
    ready_tail: VecDeque<CalEntry>,
    /// SoA per-session bookkeeping, indexed by session id: membership
    /// state, start tag, finish tag, and the generation counter
    /// invalidating stale wheel entries.
    state: Vec<Slot>,
    starts: Vec<f64>,
    finishes: Vec<f64>,
    generations: Vec<u32>,
}

impl CalendarEligibleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, id: SessionId) {
        if id.0 >= self.state.len() {
            self.state.resize(id.0 + 1, Slot::Absent);
            self.starts.resize(id.0 + 1, 0.0);
            self.finishes.resize(id.0 + 1, 0.0);
            self.generations.resize(id.0 + 1, 0);
            debug_assert!(
                id.0 <= u32::MAX as usize,
                "session id overflows entry narrowing"
            );
        }
    }

    /// Migrates every pending entry whose eligibility key is within `thr`
    /// into the ready wheel (exact comparison, same as the dual heap).
    fn migrate(&mut self, thr: f64) {
        while let Some((loc, top)) = self.pending.locate_min(&self.generations) {
            if vtime::exactly_lt(thr, top.key) {
                break;
            }
            let e = self.pending.take(loc, &self.generations);
            let id = e.id as usize;
            debug_assert_eq!(self.state[id], Slot::Pending);
            debug_assert_eq!(self.starts[id], e.key);
            self.state[id] = Slot::Ready;
            self.ready.insert(
                CalEntry {
                    key: self.finishes[id],
                    secondary: e.secondary,
                    id: e.id,
                    generation: e.generation,
                },
                &self.generations,
            );
        }
    }

    fn ready_nonempty(&mut self) -> bool {
        !self.ready_tail.is_empty() || self.ready.locate_min(&self.generations).is_some()
    }
}

impl PifoBackend for CalendarEligibleSet {
    fn backend_name(&self) -> &'static str {
        "calendar"
    }

    #[inline]
    fn ensure_sessions(&mut self, n: usize) {
        if n > 0 {
            self.ensure(SessionId(n - 1));
        }
    }

    #[inline]
    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64) {
        debug_assert!(
            primary.is_finite() && secondary.is_finite() && elig.is_none_or(f64::is_finite),
            "bad rank ({elig:?}, {primary}, {secondary}) for session {id:?}"
        );
        debug_assert!(
            id.0 < self.state.len(),
            "session {id:?} not registered via ensure_sessions"
        );
        debug_assert_eq!(
            self.state[id.0],
            Slot::Absent,
            "session {id:?} inserted twice"
        );
        let generation = self.generations[id.0];
        match elig {
            Some(start) => {
                self.state[id.0] = Slot::Pending;
                self.starts[id.0] = start;
                self.finishes[id.0] = primary;
                self.pending.insert(
                    CalEntry {
                        key: start,
                        secondary,
                        id: id.0 as u32,
                        generation,
                    },
                    &self.generations,
                );
            }
            None => {
                self.state[id.0] = Slot::Ready;
                let e = CalEntry {
                    key: primary,
                    secondary,
                    id: id.0 as u32,
                    generation,
                };
                match self.ready_tail.back() {
                    Some(b) if rank_of(&e) < rank_of(b) => {
                        self.ready.insert(e, &self.generations);
                    }
                    _ => self.ready_tail.push_back(e),
                }
            }
        }
    }

    #[inline]
    fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        debug_assert!(
            primary.is_finite() && secondary.is_finite(),
            "bad rank ({primary}, {secondary}) for session {id:?}"
        );
        debug_assert!(
            id.0 < self.state.len(),
            "session {id:?} not registered via ensure_sessions"
        );
        debug_assert_eq!(
            self.state[id.0],
            Slot::Absent,
            "session {id:?} inserted twice"
        );
        let e = CalEntry {
            key: primary,
            secondary,
            id: id.0 as u32,
            generation: 0,
        };
        #[cfg(debug_assertions)]
        {
            self.state[id.0] = Slot::Ready;
        }
        match self.ready_tail.back() {
            Some(b) if rank_of(&e) < rank_of(b) => {
                debug_assert!(
                    self.ready_tail
                        .front()
                        .is_none_or(|f| rank_of(&e) <= rank_of(f)),
                    "MONOTONE_RANKS violated: rank between the tail front and back"
                );
                self.ready_tail.push_front(e);
            }
            _ => self.ready_tail.push_back(e),
        }
    }

    #[inline]
    fn pop_monotone(&mut self) -> Option<SessionId> {
        debug_assert!(
            self.pending.count == 0 && self.ready.count == 0,
            "MONOTONE_RANKS program has wheel entries"
        );
        let top = self.ready_tail.pop_front()?;
        debug_assert_eq!(self.state[top.id as usize], Slot::Ready);
        #[cfg(debug_assertions)]
        {
            self.state[top.id as usize] = Slot::Absent;
        }
        Some(SessionId(top.id as usize))
    }

    #[inline]
    fn pop_min_ranked(&mut self) -> Option<SessionId> {
        PifoBackend::pop_eligible(self, f64::INFINITY)
    }

    fn clamp_threshold(&mut self, v: f64) -> Option<f64> {
        if PifoBackend::members(self) == 0 {
            return None;
        }
        if self.ready_nonempty() {
            Some(v)
        } else {
            let smin = self
                .pending
                .locate_min(&self.generations)
                // lint:allow(L002): len() > 0 and ready is empty, so pending
                // holds at least one current-generation entry
                .expect("live members must be in a wheel")
                .1
                .key;
            Some(v.max(smin))
        }
    }

    #[inline]
    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId> {
        self.migrate(thr);
        // Ring-discipline fast path, identical to the dual heap's: the
        // ready wheel holds nothing live, so the tail front is the min.
        if self.ready.live() == 0 {
            let top = self.ready_tail.pop_front()?;
            debug_assert_eq!(self.state[top.id as usize], Slot::Ready);
            self.state[top.id as usize] = Slot::Absent;
            return Some(SessionId(top.id as usize));
        }
        let wheel_min = self.ready.locate_min(&self.generations);
        let take_tail = match (&wheel_min, self.ready_tail.front()) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some((_, w)), Some(t)) => rank_of(t) < rank_of(w),
        };
        let top = if take_tail {
            self.ready_tail.pop_front()
        } else {
            wheel_min.map(|(loc, _)| self.ready.take(loc, &self.generations))
        };
        let top = top?;
        debug_assert_eq!(self.state[top.id as usize], Slot::Ready);
        self.state[top.id as usize] = Slot::Absent;
        Some(SessionId(top.id as usize))
    }

    fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)> {
        // Fully sorted in both sections — the serialized form depends only
        // on the live membership, not on wheel/heap internals.
        let exact = |a: &(f64, f64, u32), b: &(f64, f64, u32)| {
            a.partial_cmp(b)
                // lint:allow(L002): cold snapshot path; ranks are finite
                .expect("ranks must not be NaN")
        };
        let mut open: Vec<&CalEntry> = self.ready.iter_live(&self.generations).collect();
        open.extend(self.ready_tail.iter());
        open.sort_by(|a, b| exact(&rank_of(a), &rank_of(b)));
        let mut out: Vec<(SessionId, Option<f64>, f64, f64)> = open
            .iter()
            .map(|e| (SessionId(e.id as usize), None, e.key, e.secondary))
            .collect();
        let mut gated: Vec<&CalEntry> = self.pending.iter_live(&self.generations).collect();
        gated.sort_by(|a, b| exact(&rank_of(a), &rank_of(b)));
        out.extend(gated.iter().map(|e| {
            (
                SessionId(e.id as usize),
                Some(e.key),
                self.finishes[e.id as usize],
                e.secondary,
            )
        }));
        out
    }

    #[inline]
    fn members(&self) -> usize {
        self.pending.live() + self.ready.live() + self.ready_tail.len()
    }

    fn reset(&mut self) {
        self.pending.clear();
        self.ready.clear();
        self.ready_tail.clear();
        self.state.fill(Slot::Absent);
        for g in &mut self.generations {
            *g += 1;
        }
    }
}

impl EligibleSet for CalendarEligibleSet {
    fn insert(&mut self, id: SessionId, start: f64, finish: f64) {
        assert!(
            start.is_finite() && finish.is_finite() && vtime::exactly_le(start, finish),
            "bad tags ({start}, {finish}) for session {id:?}"
        );
        self.ensure(id);
        PifoBackend::insert_ranked(self, id, Some(start), finish, 0.0);
    }

    fn remove(&mut self, id: SessionId) {
        self.ensure(id);
        if self.state[id.0] != Slot::Absent {
            let was = self.state[id.0];
            self.state[id.0] = Slot::Absent;
            self.generations[id.0] += 1;
            if let Some(pos) = self.ready_tail.iter().position(|e| e.id as usize == id.0) {
                self.ready_tail.remove(pos);
            } else if was == Slot::Pending {
                self.pending.stale += 1;
            } else {
                self.ready.stale += 1;
            }
        }
    }

    fn eligibility_threshold(&mut self, v: f64) -> Option<f64> {
        PifoBackend::clamp_threshold(self, v)
    }

    fn pop_min_finish(&mut self, thr: f64) -> Option<SessionId> {
        PifoBackend::pop_eligible(self, thr)
    }

    fn len(&self) -> usize {
        PifoBackend::members(self)
    }

    fn clear(&mut self) {
        PifoBackend::reset(self);
    }
}

#[cfg(test)]
mod tests {
    use super::super::BruteForceEligibleSet;
    use super::*;

    #[test]
    fn matches_module_example() {
        let mut s = CalendarEligibleSet::new();
        s.insert(SessionId(0), 2.0, 5.0);
        s.insert(SessionId(1), 0.0, 9.0);
        s.insert(SessionId(2), 0.5, 3.0);
        assert_eq!(EligibleSet::eligibility_threshold(&mut s, 1.0), Some(1.0));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 1.0), Some(SessionId(2)));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 1.0), Some(SessionId(1)));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 1.0), None);
        assert_eq!(EligibleSet::eligibility_threshold(&mut s, 1.0), Some(2.0));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 2.0), Some(SessionId(0)));
        assert!(EligibleSet::is_empty(&s));
    }

    #[test]
    fn reinsertion_after_pop() {
        let mut s = CalendarEligibleSet::new();
        s.insert(SessionId(4), 0.0, 1.0);
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 0.0), Some(SessionId(4)));
        s.insert(SessionId(4), 1.0, 2.0);
        assert_eq!(EligibleSet::len(&s), 1);
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 1.0), Some(SessionId(4)));
    }

    #[test]
    fn remove_is_lazy_but_correct() {
        let mut s = CalendarEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        s.insert(SessionId(1), 0.0, 2.0);
        EligibleSet::remove(&mut s, SessionId(0));
        assert_eq!(EligibleSet::len(&s), 1);
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 0.0), Some(SessionId(1)));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 0.0), None);
    }

    #[test]
    fn clear_invalidates_everything() {
        let mut s = CalendarEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        PifoBackend::reset(&mut s);
        assert!(EligibleSet::is_empty(&s));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 10.0), None);
        s.insert(SessionId(0), 5.0, 6.0);
        assert_eq!(EligibleSet::eligibility_threshold(&mut s, 0.0), Some(5.0));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 5.0), Some(SessionId(0)));
    }

    #[test]
    fn finish_ties_break_by_session_id() {
        let mut s = CalendarEligibleSet::new();
        s.insert(SessionId(3), 0.0, 4.0);
        s.insert(SessionId(1), 0.0, 4.0);
        s.insert(SessionId(2), 0.0, 4.0);
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 0.0), Some(SessionId(1)));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 0.0), Some(SessionId(2)));
        assert_eq!(EligibleSet::pop_min_finish(&mut s, 0.0), Some(SessionId(3)));
    }

    #[test]
    fn ranked_insert_orders_by_primary_then_secondary_then_id() {
        let mut s = CalendarEligibleSet::new();
        PifoBackend::ensure_sessions(&mut s, 4);
        PifoBackend::insert_ranked(&mut s, SessionId(0), None, 4.0, 2.0);
        PifoBackend::insert_ranked(&mut s, SessionId(1), None, 4.0, 1.0);
        PifoBackend::insert_ranked(&mut s, SessionId(3), None, 4.0, 1.0);
        PifoBackend::insert_ranked(&mut s, SessionId(2), None, 3.0, 9.0);
        assert_eq!(s.pop_min_ranked(), Some(SessionId(2)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(1)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(3)));
        assert_eq!(s.pop_min_ranked(), Some(SessionId(0)));
        assert_eq!(s.pop_min_ranked(), None);
    }

    #[test]
    fn under_window_inserts_pop_first() {
        // Fill enough spread-out members to move the window, then insert a
        // key below everything: it must still pop in exact order.
        let mut s = CalendarEligibleSet::new();
        for i in 0..200 {
            s.insert(SessionId(i), i as f64 * 10.0 + 1.0, i as f64 * 10.0 + 2.0);
        }
        for _ in 0..100 {
            EligibleSet::pop_min_finish(&mut s, f64::INFINITY);
        }
        s.insert(SessionId(500), 0.25, 0.5);
        assert_eq!(
            EligibleSet::pop_min_finish(&mut s, f64::INFINITY),
            Some(SessionId(500))
        );
    }

    #[test]
    fn wide_spread_triggers_rebuilds_and_stays_exact() {
        // Keys spanning ten orders of magnitude force over-heap spills and
        // width re-fits; pops must still come out in exact sorted order.
        let mut s = CalendarEligibleSet::new();
        let mut keys: Vec<(usize, f64)> = (0..300)
            .map(|i| (i, (i as f64 * 1.618_033).sin().abs() * 10f64.powi((i % 10) as i32)))
            .collect();
        for &(i, k) in &keys {
            s.insert(SessionId(i), k, k + 1.0);
        }
        keys.sort_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).unwrap());
        for &(i, _) in &keys {
            assert_eq!(
                EligibleSet::pop_min_finish(&mut s, f64::INFINITY),
                Some(SessionId(i))
            );
        }
        assert!(EligibleSet::is_empty(&s));
    }

    #[test]
    fn agrees_with_brute_force_on_scripted_churn() {
        // Deterministic LCG-driven churn: interleaved inserts, removes,
        // threshold queries, pops, and clears against the oracle.
        let mut cal = CalendarEligibleSet::new();
        let mut brute = BruteForceEligibleSet::default();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        let mut lcg = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (x >> 33) as f64 / (1u64 << 31) as f64
        };
        let mut present = [false; 64];
        let mut thr = 0.0_f64;
        for step in 0..4000 {
            let r = lcg();
            if step % 701 == 700 {
                EligibleSet::clear(&mut cal);
                brute.clear();
                present = [false; 64];
                thr = 0.0;
            } else if r < 0.5 {
                let id = (lcg() * 64.0) as usize % 64;
                if !present[id] {
                    let start = thr + (lcg() - 0.3) * 50.0;
                    let start = if start.is_finite() { start.max(0.0) } else { 0.0 };
                    let finish = start + lcg() * 100.0;
                    cal.insert(SessionId(id), start, finish);
                    brute.insert(SessionId(id), start, finish);
                    present[id] = true;
                }
            } else if r < 0.6 {
                let id = (lcg() * 64.0) as usize % 64;
                EligibleSet::remove(&mut cal, SessionId(id));
                brute.remove(SessionId(id));
                present[id] = false;
            } else if r < 0.7 {
                let v = thr + lcg();
                assert_eq!(
                    EligibleSet::eligibility_threshold(&mut cal, v),
                    brute.eligibility_threshold(v),
                    "step {step}"
                );
            } else {
                thr += lcg() * 10.0;
                let got = EligibleSet::pop_min_finish(&mut cal, thr);
                let want = brute.pop_min_finish(thr);
                assert_eq!(got, want, "step {step}");
                if let Some(id) = got {
                    present[id.0] = false;
                }
            }
            assert_eq!(EligibleSet::len(&cal), brute.len(), "step {step}");
        }
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    #[cfg(debug_assertions)]
    fn double_insert_panics() {
        let mut s = CalendarEligibleSet::new();
        s.insert(SessionId(0), 0.0, 1.0);
        s.insert(SessionId(0), 0.0, 2.0);
    }

    #[test]
    fn snapshot_order_is_membership_deterministic() {
        // Two structurally different histories with the same final live
        // membership must serialize identically.
        let mut a = CalendarEligibleSet::new();
        let mut b = CalendarEligibleSet::new();
        PifoBackend::ensure_sessions(&mut a, 40);
        PifoBackend::ensure_sessions(&mut b, 40);
        // a: ascending open inserts (all land on the monotone tail), then
        // pops and re-inserts scrambling tail vs wheel placement.
        for i in 0..40 {
            PifoBackend::insert_ranked(&mut a, SessionId(i), None, i as f64, 0.5);
        }
        for i in 0..10 {
            assert_eq!(a.pop_min_ranked(), Some(SessionId(i)));
        }
        for i in 0..10 {
            PifoBackend::insert_ranked(&mut a, SessionId(i), None, i as f64, 0.5);
        }
        // b: descending inserts — same membership, all in the wheel.
        for i in (0..40).rev() {
            PifoBackend::insert_ranked(&mut b, SessionId(i), None, i as f64, 0.5);
        }
        assert_eq!(a.members_in_order(), b.members_in_order());
    }
}
