//! The benchmark-side span tracer behind the per-layer ledger.
//!
//! Every call into a layer's public function is wrapped in a span: a name,
//! a start, an end, and the span it ran inside. Spans are aggregated in
//! memory to `(count, total ns)` per name; every [`RAW_EVERY`]th span is
//! also kept raw and written out when the run ends.
//!
//! A span's **self time** is its duration minus the part its child spans
//! cover. Reading the clock is not free at this grain — a span costs two
//! clock reads, comparable to the calls it wraps — so the cost of an empty
//! span is calibrated ([`calibrate`]) and taken out: the part *inside* the
//! span's own interval (`inner_ns`) from the span itself, the part outside
//! it (`outer_ns`) from the parent whose interval it falls in.
//!
//! Aggregates are kept per **slice** of the replayed window (the same cut
//! `bench` makes), so that repeated passes over the same log can be
//! combined slice by slice and name by name at their least disturbed
//! ([`Table::fastest_of`]) — the build host's slow episodes would otherwise
//! land in whichever layer happened to be replaying.
//!
//! Two clock reads per call are still a heavy hand on 20 ns calls, and the
//! calibration is itself a measurement. So each replay is also run with the
//! per-call spans switched off and one `*.unspanned` span per slice around
//! everything ([`set_per_call`]): that total is accurate, and the ledger
//! scales the per-call self times of the group to add up to it. The spans
//! decide how a group's time splits; the unspanned pass decides how much
//! there is to split.
//!
//! The tracer is thread-local because the wrappers that open spans
//! (`PifoBackend` requires `Default`) cannot be handed a reference.

use std::cell::RefCell;
use std::time::Instant;

use crate::measure::thread_cpu_ns;

/// One raw span in every this-many is kept.
pub const RAW_EVERY: u64 = 1024;

macro_rules! span_names {
    ($($variant:ident => $name:literal,)*) => {
        /// The span names, one per wrapped function.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Name { $($variant,)* }

        impl Name {
            pub const ALL: &'static [Name] = &[$(Name::$variant,)*];

            pub fn as_str(self) -> &'static str {
                match self { $(Name::$variant => $name,)* }
            }
        }
    };
}

span_names! {
    HierarchyEnqueue => "hierarchy.enqueue",
    HierarchyStart => "hierarchy.start",
    HierarchyComplete => "hierarchy.complete",
    PifoBacklog => "pifo.backlog",
    PifoSelect => "pifo.select",
    PifoRequeue => "pifo.requeue",
    EligibleInsert => "eligible.insert",
    EligibleThreshold => "eligible.threshold",
    EligiblePop => "eligible.pop",
    EventsPush => "events.push",
    EventsPop => "events.pop",
    SourceWake => "source.wake",
    StatsRecord => "stats.record",
    TcpWake => "tcp.wake",
    TcpDelivered => "tcp.on_delivered",
    SchedUnspanned => "sched.unspanned",
    EventsUnspanned => "events.unspanned",
    StatsUnspanned => "stats.unspanned",
    CalibOuter => "calib.outer",
    CalibEmpty => "calib.empty",
}

/// Aggregate of every closed span of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    /// Sum of span durations (end - start), children included.
    pub total_ns: u64,
    /// Sum of the durations of direct child spans.
    pub child_ns: u64,
    /// Number of direct child spans.
    pub children: u64,
    /// Number of spans opened anywhere inside (children, their children, ...).
    pub descendants: u64,
}

impl std::ops::AddAssign for Agg {
    fn add_assign(&mut self, o: Agg) {
        self.count += o.count;
        self.total_ns += o.total_ns;
        self.child_ns += o.child_ns;
        self.children += o.children;
        self.descendants += o.descendants;
    }
}

/// One pass's aggregates: an [`Agg`] per slice and span name.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    agg: Vec<Agg>,
    /// Sum of the eligible set's size at each `pop_eligible` (a count taken
    /// at the same boundary as the span, for `eligible.mean_members`).
    pub eligible_members_sum: u64,
}

impl Table {
    fn new(slices: usize) -> Table {
        Table {
            agg: vec![Agg::default(); slices * Name::ALL.len()],
            eligible_members_sum: 0,
        }
    }

    /// All slices of `name` added up.
    pub fn total(&self, name: Name) -> Agg {
        let mut sum = Agg::default();
        for a in self.agg.iter().skip(name as usize).step_by(Name::ALL.len()) {
            sum += *a;
        }
        sum
    }

    /// Combines passes over the same work: each (slice, name) cell from the
    /// pass in which it took least time. Every pass makes the same calls,
    /// so the cells differ only by what the host did to them.
    pub fn fastest_of(passes: &[Table]) -> Table {
        let first = passes.first().expect("at least one pass");
        let mut best = first.clone();
        for pass in &passes[1..] {
            for (b, a) in best.agg.iter_mut().zip(&pass.agg) {
                debug_assert_eq!(b.count, a.count, "passes made different calls");
                if a.total_ns < b.total_ns {
                    *b = *a;
                }
            }
        }
        best
    }
}

/// Calibrated cost of one empty span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overhead {
    /// Part that falls inside the span's own `[start, end]`.
    pub inner_ns: f64,
    /// Part that falls outside it, i.e. into the parent's interval.
    pub outer_ns: f64,
}

impl Agg {
    /// Mean duration of one span with its children, clock cost removed:
    /// the span's own inner part, and the whole cost of every span opened
    /// inside it.
    pub fn mean_ns(&self, oh: Overhead) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let clock =
            oh.inner_ns * self.count as f64 + (oh.inner_ns + oh.outer_ns) * self.descendants as f64;
        ((self.total_ns as f64 - clock) / self.count as f64).max(0.0)
    }

    /// Total self time: durations minus what direct children cover, minus
    /// the clock cost that landed in this span's own share of the interval
    /// (its inner part, and its direct children's outer parts).
    pub fn self_ns(&self, oh: Overhead) -> f64 {
        let raw = self.total_ns as f64 - self.child_ns as f64;
        (raw - oh.inner_ns * self.count as f64 - oh.outer_ns * self.children as f64).max(0.0)
    }
}

/// One span kept raw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawSpan {
    pub seq: u64,
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Sequence number and name of the enclosing span, if any.
    pub parent: Option<(u64, Name)>,
}

#[derive(Debug, Clone, Copy)]
struct Frame {
    seq: u64,
    name: Name,
    start_ns: u64,
    child_ns: u64,
    children: u64,
    descendants: u64,
}

/// Span aggregator. The timestamp-taking entry points are
/// [`enter`]/[`exit`]; `enter_at`/`exit_at` take explicit timestamps so the
/// arithmetic can be tested without a clock.
#[derive(Debug)]
pub struct Tracer {
    /// The slice spans are booked to; `None` switches recording off (the
    /// warm-up segment is replayed with tracing off).
    pub slice: Option<usize>,
    /// Whether [`enter`]/[`exit`] record; off for the unspanned passes,
    /// where only [`enter_unspanned`] does.
    per_call: bool,
    epoch: Instant,
    stack: Vec<Frame>,
    table: Table,
    raw: Vec<RawSpan>,
    seq: u64,
}

impl Tracer {
    /// A tracer booking into `slices` slices, recording off.
    pub fn new(slices: usize) -> Tracer {
        Tracer {
            slice: None,
            per_call: true,
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            table: Table::new(slices),
            raw: Vec::new(),
            seq: 0,
        }
    }

    pub fn enter_at(&mut self, name: Name, t_ns: u64) {
        self.seq += 1;
        self.stack.push(Frame {
            seq: self.seq,
            name,
            start_ns: t_ns,
            child_ns: 0,
            children: 0,
            descendants: 0,
        });
    }

    pub fn exit_at(&mut self, t_ns: u64) {
        let Some(f) = self.stack.pop() else {
            return;
        };
        let dur = t_ns.saturating_sub(f.start_ns);
        let cell = self.slice.unwrap_or(0) * Name::ALL.len() + f.name as usize;
        self.table.agg[cell] += Agg {
            count: 1,
            total_ns: dur,
            child_ns: f.child_ns,
            children: f.children,
            descendants: f.descendants,
        };
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += dur;
            p.children += 1;
            p.descendants += 1 + f.descendants;
            (p.seq, p.name)
        });
        if f.seq % RAW_EVERY == 0 {
            self.raw.push(RawSpan {
                seq: f.seq,
                name: f.name,
                start_ns: f.start_ns,
                end_ns: t_ns,
                parent,
            });
        }
    }

    /// Everything booked under `name` so far, all slices.
    pub fn agg(&self, name: Name) -> Agg {
        self.table.total(name)
    }

    pub fn raw(&self) -> &[RawSpan] {
        &self.raw
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::new(1));
}

/// Runs `f` on this thread's tracer.
pub fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    TRACER.with(|t| f(&mut t.borrow_mut()))
}

/// Starts afresh with `slices` slices, recording off.
pub fn reset(slices: usize) {
    with(|t| *t = Tracer::new(slices));
}

/// Books spans to `slice` from now on; `None` switches recording off.
pub fn set_slice(slice: Option<usize>) {
    with(|t| t.slice = slice);
}

/// Switches the per-call spans on or off (see the module docs).
pub fn set_per_call(on: bool) {
    with(|t| t.per_call = on);
}

/// Opens a span that records even while per-call spans are off: the one
/// span per slice of an unspanned pass. Closed by [`exit_unspanned`]. Timed
/// on the thread CPU clock, like the end-to-end figure these totals are set
/// against (per-call spans stay on the cheap wall clock; the fit to these
/// totals absorbs the difference).
pub fn enter_unspanned(name: Name) {
    with(|t| t.enter_at(name, thread_cpu_ns()));
}

/// Closes the span [`enter_unspanned`] opened.
pub fn exit_unspanned() {
    with(|t| t.exit_at(thread_cpu_ns()));
}

/// Ends a pass: hands over its aggregates and starts the next pass empty.
/// Raw spans stay with the tracer.
pub fn take_pass() -> Table {
    with(|t| {
        let slices = t.table.agg.len() / Name::ALL.len();
        std::mem::replace(&mut t.table, Table::new(slices))
    })
}

/// Opens a span (no-op while recording is off).
#[inline]
pub fn enter(name: Name) {
    enter_noting(name, 0);
}

/// [`enter`], first adding `eligible_members` to the pass's running sum in
/// the same tracer access — so the count costs the enclosing span nothing
/// the calibration does not already cover.
#[inline]
pub fn enter_noting(name: Name, eligible_members: u64) {
    with(|t| {
        if t.per_call && t.slice.is_some() {
            t.table.eligible_members_sum += eligible_members;
            // Clock read last, so the bookkeeping stays outside the span.
            t.enter_at(name, 0);
            let now = t.now_ns();
            if let Some(f) = t.stack.last_mut() {
                f.start_ns = now;
            }
        }
    });
}

/// Closes the innermost open span (no-op while recording is off).
#[inline]
pub fn exit() {
    with(|t| {
        if t.per_call && t.slice.is_some() {
            let now = t.now_ns();
            t.exit_at(now);
        }
    });
}

/// Runs `f` inside a span called `name`.
#[inline]
pub fn scope<R>(name: Name, f: impl FnOnce() -> R) -> R {
    enter(name);
    let r = f();
    exit();
    r
}

/// Measures the cost of an empty span: batches of them inside one outer
/// span each. Their mean duration is the inner part; the outer span's
/// duration per child, less that, is the outer part. The fastest batch
/// counts — the rest were measured through a slow episode of the host, and
/// the span aggregates they are subtracted from are fastest-of too.
pub fn calibrate() -> Overhead {
    const BATCHES: u64 = 50;
    const N: u64 = 20_000;
    let was = with(|t| (t.slice.replace(0), std::mem::replace(&mut t.per_call, true)));
    let read = || {
        with(|t| {
            (
                t.agg(Name::CalibEmpty).total_ns,
                t.agg(Name::CalibOuter).total_ns,
            )
        })
    };
    let (mut inner_ns, mut per_child) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..BATCHES {
        let before = read();
        enter(Name::CalibOuter);
        for _ in 0..N {
            enter(Name::CalibEmpty);
            exit();
        }
        exit();
        let after = read();
        inner_ns = inner_ns.min((after.0 - before.0) as f64 / N as f64);
        per_child = per_child.min((after.1 - before.1) as f64 / N as f64);
    }
    with(|t| (t.slice, t.per_call) = was);
    Overhead {
        inner_ns,
        outer_ns: (per_child - inner_ns).max(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// parent [0, 100] holding children [10, 30] and [40, 90]; the second
    /// child holds a grandchild [50, 60].
    fn nested() -> Tracer {
        let mut t = Tracer::new(1);
        t.enter_at(Name::HierarchyComplete, 0);
        t.enter_at(Name::PifoRequeue, 10);
        t.exit_at(30);
        t.enter_at(Name::PifoSelect, 40);
        t.enter_at(Name::EligiblePop, 50);
        t.exit_at(60);
        t.exit_at(90);
        t.exit_at(100);
        t
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let t = nested();
        let none = Overhead::default();
        let parent = t.agg(Name::HierarchyComplete);
        assert_eq!(
            (parent.total_ns, parent.child_ns, parent.children),
            (100, 70, 2)
        );
        assert_eq!(parent.descendants, 3);
        assert_eq!(parent.self_ns(none), 30.0);
        assert_eq!(parent.mean_ns(none), 100.0);
        // The grandchild is charged to its own parent only.
        let select = t.agg(Name::PifoSelect);
        assert_eq!(
            (select.total_ns, select.child_ns, select.children),
            (50, 10, 1)
        );
        assert_eq!(select.self_ns(none), 40.0);
        assert_eq!(t.agg(Name::PifoRequeue).self_ns(none), 20.0);
        assert_eq!(t.agg(Name::EligiblePop).self_ns(none), 10.0);
        // Self times partition the root span exactly.
        let sum: f64 = Name::ALL.iter().map(|&n| t.agg(n).self_ns(none)).sum();
        assert_eq!(sum, 100.0);
    }

    #[test]
    fn clock_cost_is_charged_where_it_lands() {
        let t = nested();
        let oh = Overhead {
            inner_ns: 2.0,
            outer_ns: 3.0,
        };
        // Parent: 30 raw, its own inner part (2) and two children's outer
        // parts (2 x 3) are clock cost.
        assert_eq!(t.agg(Name::HierarchyComplete).self_ns(oh), 30.0 - 2.0 - 6.0);
        // A leaf span only carries its own inner part.
        assert_eq!(t.agg(Name::EligiblePop).self_ns(oh), 8.0);
        // Inclusive mean: own inner part plus three whole descendants.
        assert_eq!(
            t.agg(Name::HierarchyComplete).mean_ns(oh),
            100.0 - 2.0 - 3.0 * 5.0
        );
        // Corrections never drive a self time negative.
        let huge = Overhead {
            inner_ns: 1e6,
            outer_ns: 0.0,
        };
        assert_eq!(t.agg(Name::EligiblePop).self_ns(huge), 0.0);
    }

    #[test]
    fn every_1024th_span_is_kept_raw_with_its_parent() {
        let mut t = Tracer::new(1);
        t.enter_at(Name::CalibOuter, 0);
        for i in 0..3000u64 {
            t.enter_at(Name::CalibEmpty, i * 10);
            t.exit_at(i * 10 + 5);
        }
        t.exit_at(40_000);
        // seq 1 is the outer span; 1024 and 2048 are sampled children.
        let seqs: Vec<u64> = t.raw().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![1024, 2048]);
        assert!(t
            .raw()
            .iter()
            .all(|r| r.parent == Some((1, Name::CalibOuter)) && r.end_ns - r.start_ns == 5));
    }

    #[test]
    fn passes_combine_cell_by_cell_at_their_fastest() {
        // Two slices; a slow episode hits slice 0 of the first pass and
        // slice 1 of the second.
        let pass = |durs: [u64; 2]| {
            let mut t = Tracer::new(2);
            for (slice, d) in durs.into_iter().enumerate() {
                t.slice = Some(slice);
                t.enter_at(Name::EventsPop, 0);
                t.exit_at(d);
            }
            t.table
        };
        let best = Table::fastest_of(&[pass([170, 100]), pass([101, 170])]);
        let a = best.total(Name::EventsPop);
        assert_eq!((a.count, a.total_ns), (2, 201));
        assert_eq!(best.total(Name::EventsPush), Agg::default());
    }

    #[test]
    fn unbalanced_exit_is_ignored() {
        let mut t = Tracer::new(1);
        t.exit_at(5);
        assert_eq!(t.agg(Name::CalibEmpty).count, 0);
    }

    #[test]
    fn calibration_measures_a_positive_cost() {
        let oh = calibrate();
        assert!(oh.inner_ns > 0.0 && oh.inner_ns < 10_000.0, "{oh:?}");
        assert!(oh.outer_ns >= 0.0 && oh.outer_ns < 10_000.0, "{oh:?}");
    }
}
