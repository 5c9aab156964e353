//! Capture and replay: where a packet's nanoseconds go.
//!
//! The traced run carries a [`LogObserver`] on every link, which logs each
//! enqueue, drop, transmission start and completion. That log is then
//! replayed, layer by layer, through each layer's own public functions with
//! a span around every call:
//!
//! * [`replay_hierarchy`] — a fresh `Hierarchy` per link driven through
//!   `try_enqueue` / `start_transmission_at` / `complete_transmission_at`.
//!   Its node schedulers are [`Spanned`] `PifoTree<Wf2qPlusRank, _>`s over a
//!   [`SpannedSet`] `DualHeapEligibleSet`, so one pass yields the nested
//!   spans hierarchy -> pifo -> eligible, and self time splits them.
//! * [`replay_events`] — `hpfq_events::Engine` fed the Wake / TxComplete /
//!   Arrive / Deliver sequence the log implies, with a payload the size of
//!   the engine's own event. This **models** the seed's event protocol (the
//!   engine's event type is private); it is not a capture of it.
//! * [`replay_sources`] — fresh sources woken at the logged times (TCP
//!   flows are driven by the logged deliveries and their own timers).
//! * [`replay_stats`] — a fresh `SimStats` fed the logged outcomes.
//!
//! Each replay also checks that it did the same work as the run it
//! replays: same packets in the same order. Without that the ledger would
//! be measuring something else.

use std::cell::RefCell;
use std::rc::Rc;

use hpfq_core::pifo::rank::Wf2qPlusRank;
use hpfq_core::{
    DualHeapEligibleSet, Hierarchy, NodeId, NodeScheduler, Packet, PifoBackend, PifoTree, SessionId,
};
use hpfq_events::Engine;
use hpfq_obs::{DropEvent, EnqueueEvent, NoopObserver, Observer, PacketInfo, TxEvent};
use hpfq_sim::{ServiceRecord, SimStats, Source};
use hpfq_tcp::TcpSource;

use crate::alloc;
use crate::span::{self, Name};
use crate::workloads::{hierarchy, source_of, Gen, Workload, SLICES};

/// What happened to a packet at a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Enqueue,
    Drop,
    TxStart,
    TxComplete,
}

/// One logged event: time, link, leaf and packet — plus, once
/// [`annotate`]d, where on its flow's route the link is (looked up once, so
/// the timed replay loops do not have to).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rec {
    pub time: f64,
    /// The packet's arrival stamp at this link.
    pub arrival: f64,
    pub id: u64,
    pub flow: u32,
    pub len: u32,
    pub leaf: u32,
    pub link: u8,
    pub kind: Kind,
    /// Position of `link` in the flow's route.
    pub hop: u8,
    /// `link` is the route's last hop.
    pub last: bool,
    /// The flow is a TCP connection.
    pub tcp: bool,
}

impl Rec {
    fn packet(&self) -> Packet {
        Packet {
            id: self.id,
            flow: self.flow,
            len_bytes: self.len,
            birth: self.arrival,
            arrival: self.arrival,
        }
    }

    /// The packet is being offered at (or dropped from) its first hop.
    fn ingress(&self) -> bool {
        self.hop == 0 && matches!(self.kind, Kind::Enqueue | Kind::Drop)
    }
}

/// Fills in each record's route position from the workload's routes.
pub fn annotate(w: &Workload, log: &mut [Rec]) {
    for r in log {
        let hops = w.hops_of(r.flow as usize);
        let hop = hops
            .iter()
            .position(|h| h.link == usize::from(r.link))
            .expect("a logged packet is on a link of its route");
        r.hop = hop as u8;
        r.last = hop + 1 == hops.len();
        r.tcp = matches!(w.flows[r.flow as usize].gen, Gen::Tcp);
    }
}

/// The log all of a network's link observers append to, in event order.
pub type Log = Rc<RefCell<Vec<Rec>>>;

/// Benchmark-side observer: appends to the shared [`Log`].
pub struct LogObserver(pub Log);

impl LogObserver {
    fn push(&mut self, kind: Kind, time: f64, link: usize, leaf: usize, p: &PacketInfo) {
        self.0.borrow_mut().push(Rec {
            time,
            arrival: p.arrival,
            id: p.id,
            flow: p.flow,
            len: p.len_bytes,
            leaf: leaf as u32,
            link: link as u8,
            kind,
            hop: 0,
            last: false,
            tcp: false,
        });
    }
}

impl Observer for LogObserver {
    fn on_enqueue(&mut self, e: &EnqueueEvent) {
        self.push(Kind::Enqueue, e.time, e.link, e.leaf, &e.pkt);
    }

    fn on_drop(&mut self, e: &DropEvent) {
        self.push(Kind::Drop, e.time, e.link, e.leaf, &e.pkt);
    }

    fn on_tx_start(&mut self, e: &TxEvent) {
        self.push(Kind::TxStart, e.time, e.link, e.leaf, &e.pkt);
    }

    fn on_tx_complete(&mut self, e: &TxEvent) {
        self.push(Kind::TxComplete, e.time, e.link, e.leaf, &e.pkt);
    }
}

/// A node scheduler with a span around `backlog` / `select_next` /
/// `requeue` — the three calls the hierarchy makes per packet.
#[derive(Debug)]
pub struct Spanned<S>(pub S);

impl<S: NodeScheduler> NodeScheduler for Spanned<S> {
    fn rate_bps(&self) -> f64 {
        self.0.rate_bps()
    }

    fn add_session(&mut self, phi: f64) -> SessionId {
        self.0.add_session(phi)
    }

    fn backlog(&mut self, id: SessionId, head_bits: f64, ref_now: Option<f64>) {
        span::scope(Name::PifoBacklog, || self.0.backlog(id, head_bits, ref_now));
    }

    fn arrival_hint(&mut self, id: SessionId, bits: f64, ref_now: Option<f64>) {
        self.0.arrival_hint(id, bits, ref_now);
    }

    fn select_next(&mut self) -> Option<SessionId> {
        span::scope(Name::PifoSelect, || self.0.select_next())
    }

    fn requeue(&mut self, id: SessionId, next_head_bits: Option<f64>) {
        span::scope(Name::PifoRequeue, || self.0.requeue(id, next_head_bits));
    }

    fn backlogged(&self) -> usize {
        self.0.backlogged()
    }

    fn virtual_time(&self) -> f64 {
        self.0.virtual_time()
    }

    fn phi(&self, id: SessionId) -> f64 {
        self.0.phi(id)
    }

    fn tags(&self, id: SessionId) -> (f64, f64) {
        self.0.tags(id)
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn set_is_root(&mut self, is_root: bool) {
        self.0.set_is_root(is_root);
    }

    fn set_dispatch_batch(&mut self, k: usize) {
        self.0.set_dispatch_batch(k);
    }
}

/// A PIFO backend with a span around the three calls WF2Q+ makes:
/// `insert_ranked`, `clamp_threshold`, `pop_eligible`.
#[derive(Debug, Clone, Default)]
pub struct SpannedSet<Q>(Q);

impl<Q: PifoBackend> PifoBackend for SpannedSet<Q> {
    fn backend_name(&self) -> &'static str {
        self.0.backend_name()
    }

    fn ensure_sessions(&mut self, n: usize) {
        self.0.ensure_sessions(n);
    }

    fn insert_ranked(&mut self, id: SessionId, elig: Option<f64>, primary: f64, secondary: f64) {
        span::scope(Name::EligibleInsert, || {
            self.0.insert_ranked(id, elig, primary, secondary)
        });
    }

    fn push_monotone(&mut self, id: SessionId, primary: f64, secondary: f64) {
        self.0.push_monotone(id, primary, secondary);
    }

    fn pop_monotone(&mut self) -> Option<SessionId> {
        self.0.pop_monotone()
    }

    fn pop_min_ranked(&mut self) -> Option<SessionId> {
        self.0.pop_min_ranked()
    }

    fn clamp_threshold(&mut self, v: f64) -> Option<f64> {
        span::scope(Name::EligibleThreshold, || self.0.clamp_threshold(v))
    }

    fn pop_eligible(&mut self, thr: f64) -> Option<SessionId> {
        span::enter_noting(Name::EligiblePop, self.0.members() as u64);
        let popped = self.0.pop_eligible(thr);
        span::exit();
        popped
    }

    fn members_in_order(&self) -> Vec<(SessionId, Option<f64>, f64, f64)> {
        self.0.members_in_order()
    }

    fn members(&self) -> usize {
        self.0.members()
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// The node scheduler of the replayed hierarchy.
pub type TracedScheduler = Spanned<PifoTree<Wf2qPlusRank, SpannedSet<DualHeapEligibleSet>>>;

/// Whether a replay did the same work as the run it replays.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fidelity {
    pub compared: u64,
    pub mismatches: u64,
    /// The first mismatch, for the failure message.
    pub first: Option<String>,
}

impl Fidelity {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.compared += 1;
        if !ok {
            self.mismatches += 1;
            self.first.get_or_insert_with(what);
        }
    }

    /// One line saying how far the replay was from the run.
    pub fn describe(&self, what: &str) -> String {
        format!(
            "{what}: {} of {} comparisons differ, first: {}",
            self.mismatches,
            self.compared,
            self.first.as_deref().unwrap_or("-")
        )
    }
}

/// How a replay is timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timing {
    /// A span around every call into the layer.
    PerCall,
    /// No per-call spans; one span of this name per window slice around
    /// the whole replay loop.
    Unspanned(Name),
}

impl Timing {
    fn of(per_call: bool, unspanned: Name) -> Timing {
        if per_call {
            Timing::PerCall
        } else {
            Timing::Unspanned(unspanned)
        }
    }
}

/// Books spans to the window slice the simulated clock is in: recording
/// is off through the warm-up segment, and from `t_on` each of the
/// window's [`SLICES`] slices gets its own aggregates.
struct Gate {
    t_on: f64,
    per_slice: f64,
    slice: Option<usize>,
    /// Simulated time at which the current slice ends; until then
    /// [`Gate::at`] is one comparison, cheap enough for the unspanned loops.
    until: f64,
    timing: Timing,
}

impl Gate {
    fn new(t_on: f64, window: f64, timing: Timing) -> Self {
        span::set_slice(None);
        span::set_per_call(timing == Timing::PerCall);
        Gate {
            t_on,
            per_slice: window / SLICES as f64,
            slice: None,
            until: t_on,
            timing,
        }
    }

    /// Moves to simulated time `t` (non-decreasing within a replay loop);
    /// says whether recording is on there.
    #[inline]
    fn at(&mut self, t: f64) -> bool {
        if t >= self.until {
            let slice = (((t - self.t_on) / self.per_slice) as usize).min(SLICES - 1);
            self.until = if slice + 1 < SLICES {
                self.t_on + (slice + 1) as f64 * self.per_slice
            } else {
                f64::INFINITY
            };
            self.move_to(Some(slice));
        }
        self.slice.is_some()
    }

    fn move_to(&mut self, slice: Option<usize>) {
        if let Timing::Unspanned(name) = self.timing {
            if self.slice.is_some() {
                span::exit_unspanned();
            }
            span::set_slice(slice);
            if slice.is_some() {
                span::enter_unspanned(name);
            }
        } else {
            span::set_slice(slice);
        }
        self.slice = slice;
    }
}

impl Drop for Gate {
    fn drop(&mut self) {
        self.move_to(None);
        span::set_per_call(true);
    }
}

/// Replays the log through a fresh hierarchy per link. The replayed
/// hierarchy must start and complete exactly the logged packets in the
/// logged order.
pub fn replay_hierarchy(
    w: &Workload,
    log: &[Rec],
    t_on: f64,
    window: f64,
    per_call: bool,
) -> Fidelity {
    let mut links: Vec<Hierarchy<TracedScheduler>> = w
        .links
        .iter()
        .map(|l| {
            hierarchy(
                l,
                |r| Spanned(PifoTree::with_backend(r, Wf2qPlusRank::new())),
                NoopObserver,
            )
        })
        .collect();
    let mut fid = Fidelity::default();
    let mut gate = Gate::new(t_on, window, Timing::of(per_call, Name::SchedUnspanned));
    for rec in log {
        gate.at(rec.time);
        let h = &mut links[usize::from(rec.link)];
        match rec.kind {
            Kind::Drop => {}
            Kind::Enqueue => {
                let pkt = rec.packet();
                let leaf = NodeId(rec.leaf as usize);
                let r = span::scope(Name::HierarchyEnqueue, || h.try_enqueue(leaf, pkt));
                fid.expect(r.is_ok(), || {
                    format!("enqueue of {:#x} refused: {r:?}", rec.id)
                });
            }
            Kind::TxStart => {
                let got = span::scope(Name::HierarchyStart, || h.start_transmission_at(rec.time));
                let got = got.map(|p| p.id);
                fid.expect(got == Some(rec.id), || {
                    format!(
                        "t={} link {}: logged start of {:#x}, replay started {got:x?}",
                        rec.time, rec.link, rec.id
                    )
                });
            }
            Kind::TxComplete => {
                // A replay that has already diverged may have nothing in
                // flight; completing would panic, so count it instead.
                let got = h.is_transmitting().then(|| {
                    span::scope(Name::HierarchyComplete, || {
                        h.complete_transmission_at(rec.time).id
                    })
                });
                fid.expect(got == Some(rec.id), || {
                    format!(
                        "t={} link {}: logged completion of {:#x}, replay completed {got:x?}",
                        rec.time, rec.link, rec.id
                    )
                });
            }
        }
    }
    fid
}

/// The modelled engine event: same variants and payload as the engine's
/// private `NetEvent` on the packet path (a `Packet` plus two words). Most
/// fields are never read back: they are there so the arena moves the bytes
/// the engine's does.
#[derive(Debug)]
#[allow(dead_code)]
enum Ev {
    Wake(usize),
    TxComplete { link: usize, epoch: u64 },
    Arrive { src: usize, hop: usize, pkt: Packet },
    Deliver(usize, Packet),
}

const _: () = assert!(std::mem::size_of::<Ev>() >= std::mem::size_of::<Packet>() + 16);

/// Content-derived tie-break key, as the engine computes it.
fn minor_of(ev: &Ev) -> u64 {
    let (class, content) = match ev {
        Ev::Wake(i) => (1u64, *i as u64),
        Ev::TxComplete { link, .. } => (2, *link as u64),
        Ev::Arrive { pkt, .. } => (3, pkt.id),
        Ev::Deliver(_, pkt) => (4, pkt.id),
    };
    (class << 56) | (content & ((1 << 56) - 1))
}

/// What the event replay saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EventsOutcome {
    /// High-water mark of outstanding events over the whole run.
    pub peak_outstanding: usize,
}

/// Drives `hpfq_events::Engine` with the event sequence the log implies:
/// one Wake per offered packet of an open-loop flow (pushed when the
/// previous one fires), one TxComplete per transmission start, one Arrive
/// or Deliver per completion, and for TCP one Wake per delivery (the ACK
/// timer; RTO timers, a few per second, are left out).
pub fn replay_events(
    w: &Workload,
    log: &[Rec],
    t_on: f64,
    window: f64,
    per_call: bool,
) -> EventsOutcome {
    let horizon = t_on + window;
    // Wake times per open-loop flow, flow-major: flow f's k-th offered
    // packet is at wake_at[first[f] + k].
    let n = w.flows.len();
    let is_tcp: Vec<bool> = w.flows.iter().map(|f| matches!(f.gen, Gen::Tcp)).collect();
    let offered = |r: &&Rec| r.ingress() && !r.tcp;
    let mut first = vec![0usize; n + 1];
    for r in log.iter().filter(offered) {
        first[r.flow as usize + 1] += 1;
    }
    for f in 0..n {
        first[f + 1] += first[f];
    }
    let mut fill = first.clone();
    let mut wake_at = vec![0.0f64; first[n]];
    for r in log.iter().filter(offered) {
        wake_at[fill[r.flow as usize]] = r.time;
        fill[r.flow as usize] += 1;
    }
    let mut next = first.clone();

    let mut eng: Engine<Ev> = Engine::new();
    let mut gate = Gate::new(t_on, window, Timing::of(per_call, Name::EventsUnspanned));
    let push = |eng: &mut Engine<Ev>, t: f64, ev: Ev| {
        let minor = minor_of(&ev);
        span::scope(Name::EventsPush, || eng.schedule_keyed(t, minor, ev));
    };
    for f in 0..n {
        if is_tcp[f] {
            push(&mut eng, 0.0, Ev::Wake(f));
        } else if next[f] < first[f + 1] {
            push(&mut eng, wake_at[next[f]], Ev::Wake(f));
            next[f] += 1;
        }
    }
    let mut cur = 0;
    loop {
        // Pushes the log attributes to handlers that have run by now.
        while cur < log.len() && log[cur].time <= eng.now() {
            let r = &log[cur];
            cur += 1;
            let link = usize::from(r.link);
            match r.kind {
                Kind::TxStart => {
                    let done = r.time + f64::from(r.len) * 8.0 / w.links[link].rate;
                    push(&mut eng, done, Ev::TxComplete { link, epoch: 0 });
                }
                Kind::TxComplete => {
                    let src = r.flow as usize;
                    let hop = usize::from(r.hop);
                    let at = r.time + w.hops_of(src)[hop].prop_delay;
                    let ev = if r.last {
                        Ev::Deliver(src, r.packet())
                    } else {
                        Ev::Arrive {
                            src,
                            hop: hop + 1,
                            pkt: r.packet(),
                        }
                    };
                    push(&mut eng, at, ev);
                }
                Kind::Enqueue | Kind::Drop => {}
            }
        }
        let Some((t, ev)) = span::scope(Name::EventsPop, || eng.pop_due(horizon)) else {
            match log.get(cur) {
                // Nothing queued but the log goes on: an event class this
                // model leaves out (a TCP retransmission timer) fired here.
                Some(r) if r.time <= horizon => eng.advance_to(r.time),
                _ => break,
            }
            continue;
        };
        // The slice moves on after the pop that crossed its boundary; one
        // event per slice lands a slice early, out of thousands.
        gate.at(t);
        match std::hint::black_box(ev) {
            Ev::Wake(f) if !is_tcp[f] && next[f] < first[f + 1] => {
                push(&mut eng, wake_at[next[f]], Ev::Wake(f));
                next[f] += 1;
            }
            Ev::Deliver(f, _) if is_tcp[f] => {
                push(&mut eng, t + w.tcp.ack_delay, Ev::Wake(f));
            }
            _ => {}
        }
    }
    EventsOutcome {
        peak_outstanding: eng.arena_len(),
    }
}

/// What the source replay saw, over the traced window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SourcesOutcome {
    /// `on_wake` calls on open-loop sources.
    pub wakes: u64,
    /// Allocations made inside those calls.
    pub wake_allocs: u64,
    pub fidelity: Fidelity,
}

/// Wakes fresh open-loop sources at the logged times and drives fresh TCP
/// sources with the logged deliveries; both must emit the logged packets.
/// Per-call spans only: around a replay loop these calls are too short for
/// an unspanned total to say anything about them.
pub fn replay_sources(w: &Workload, log: &[Rec], t_on: f64, window: f64) -> SourcesOutcome {
    let horizon = t_on + window;
    let mut out = SourcesOutcome::default();
    let mut gate = Gate::new(t_on, window, Timing::PerCall);
    let is_tcp = |f: usize| matches!(w.flows[f].gen, Gen::Tcp);

    let mut sources: Vec<Option<Box<dyn Source>>> = (0..w.flows.len())
        .map(|f| {
            (!is_tcp(f)).then(|| {
                let mut s = source_of(w, f);
                // `start` draws from the source's RNG (Poisson), so it must
                // run exactly once here as it did in the engine.
                let _ = s.start();
                s
            })
        })
        .collect();
    for r in log.iter().filter(|r| r.ingress()) {
        let Some(src) = sources[r.flow as usize].as_mut() else {
            continue;
        };
        let on = gate.at(r.time);
        let before = alloc::snapshot().count;
        let emitted = span::scope(Name::SourceWake, || src.on_wake(r.time));
        if on {
            out.wakes += 1;
            out.wake_allocs += alloc::snapshot().count - before;
        }
        let same = emitted.packets.len() == 1 && emitted.packets[0].id == r.id;
        out.fidelity.expect(same, || {
            let ids: Vec<u64> = emitted.packets.iter().map(|p| p.id).collect();
            format!(
                "flow {} woken at {}: logged {:#x}, source emitted {ids:x?}",
                r.flow, r.time, r.id
            )
        });
    }

    // TCP: the logged deliveries, plus whatever timers the sources set.
    enum TcpEv {
        Wake(usize),
        Deliver(usize, Packet),
    }
    let mut tcp: Vec<Option<TcpSource>> = (0..w.flows.len())
        .map(|f| is_tcp(f).then(|| TcpSource::new(f as u32, w.tcp)))
        .collect();
    if tcp.iter().all(Option::is_none) {
        return out;
    }
    // The clock starts over for this loop, so the gate does too.
    drop(gate);
    let mut gate = Gate::new(t_on, window, Timing::PerCall);
    let mut eng: Engine<TcpEv> = Engine::new();
    let mut expected: Vec<Vec<u64>> = vec![Vec::new(); w.flows.len()];
    for r in log.iter().filter(|r| r.tcp) {
        let f = r.flow as usize;
        if r.ingress() {
            expected[f].push(r.id);
        } else if r.kind == Kind::TxComplete && r.last {
            let at = r.time + w.hops_of(f)[usize::from(r.hop)].prop_delay;
            eng.schedule_keyed(at, (4 << 56) | r.id, TcpEv::Deliver(f, r.packet()));
        }
    }
    let mut emitted: Vec<Vec<u64>> = vec![Vec::new(); w.flows.len()];
    for (f, src) in tcp.iter_mut().enumerate() {
        if let Some(src) = src {
            for t in src.start().wakes {
                eng.schedule_keyed(t, (1 << 56) | f as u64, TcpEv::Wake(f));
            }
        }
    }
    while let Some((t, ev)) = eng.pop_due(horizon) {
        gate.at(t);
        let (f, output) = match ev {
            TcpEv::Wake(f) => {
                let src = tcp[f]
                    .as_mut()
                    .expect("wakes are scheduled for TCP flows only");
                (f, span::scope(Name::TcpWake, || src.on_wake(t)))
            }
            TcpEv::Deliver(f, pkt) => {
                let src = tcp[f]
                    .as_mut()
                    .expect("deliveries are scheduled for TCP flows only");
                (
                    f,
                    span::scope(Name::TcpDelivered, || src.on_delivered(t, &pkt)),
                )
            }
        };
        emitted[f].extend(output.packets.iter().map(|p| p.id));
        for wake in output.wakes {
            eng.schedule_keyed(wake, (1 << 56) | f as u64, TcpEv::Wake(f));
        }
    }
    for f in 0..w.flows.len() {
        if tcp[f].is_some() {
            out.fidelity.expect(emitted[f] == expected[f], || {
                let at = emitted[f]
                    .iter()
                    .zip(&expected[f])
                    .position(|(a, b)| a != b)
                    .unwrap_or(emitted[f].len().min(expected[f].len()));
                format!(
                    "tcp flow {f}: replay sent {} segments, log has {}; first difference at #{at}",
                    emitted[f].len(),
                    expected[f].len()
                )
            });
        }
    }
    out
}

/// Feeds a fresh `SimStats` the logged outcomes, one span per `record_*`
/// call, and returns it for comparison with the traced run's.
pub fn replay_stats(w: &Workload, log: &[Rec], t_on: f64, window: f64, per_call: bool) -> SimStats {
    let mut stats = SimStats::new();
    let mut gate = Gate::new(t_on, window, Timing::of(per_call, Name::StatsUnspanned));
    let mut tx_start = vec![0.0f64; w.links.len()];
    for r in log {
        gate.at(r.time);
        let pkt = r.packet();
        match r.kind {
            Kind::Enqueue if r.hop == 0 => {
                span::scope(Name::StatsRecord, || stats.record_arrival(&pkt));
                span::scope(Name::StatsRecord, || stats.record_accept(&pkt));
            }
            Kind::Drop if r.hop == 0 => {
                span::scope(Name::StatsRecord, || stats.record_arrival(&pkt));
                span::scope(Name::StatsRecord, || stats.record_drop(&pkt));
            }
            Kind::Drop => span::scope(Name::StatsRecord, || stats.record_purge(&pkt)),
            Kind::TxStart => tx_start[usize::from(r.link)] = r.time,
            Kind::TxComplete if r.last => {
                let rec = ServiceRecord {
                    id: r.id,
                    flow: r.flow,
                    len_bytes: r.len,
                    arrival: r.arrival,
                    start: tx_start[usize::from(r.link)],
                    end: r.time,
                };
                span::scope(Name::StatsRecord, || stats.record_service(rec));
            }
            Kind::Enqueue | Kind::TxComplete => {}
        }
    }
    stats
}

/// Counts taken straight from the log, over the traced window.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LogCounts {
    /// Packets offered at their first hop.
    pub offered: u64,
    /// Packets dropped at any hop's buffer.
    pub dropped: u64,
    /// Link-level transmissions completed.
    pub transmissions: u64,
    /// Packets that completed their last hop.
    pub delivered: u64,
    /// Sum over completed transmissions of the leaf's depth (number of
    /// scheduler nodes on its path).
    pub path_len_sum: u64,
    pub tcp_offered: u64,
    pub tcp_retransmits: u64,
    pub tcp_delivered: u64,
    pub tcp_delivered_new: u64,
}

pub fn count_log(w: &Workload, log: &[Rec], t_on: f64) -> LogCounts {
    const SEQ_MASK: u64 = 0xFF_FFFF_FFFF;
    let depth: Vec<Vec<u64>> = w
        .links
        .iter()
        .map(|l| {
            let mut d = vec![0u64; l.nodes.len() + 1];
            for (i, n) in l.nodes.iter().enumerate() {
                d[i + 1] = d[n.parent] + 1;
            }
            d
        })
        .collect();
    let mut c = LogCounts::default();
    // Per TCP flow: next never-sent segment, and which segments arrived.
    let mut next_seq = vec![0u64; w.flows.len()];
    let mut arrived: Vec<Vec<bool>> = vec![Vec::new(); w.flows.len()];
    for r in log {
        let on = r.time >= t_on;
        let f = r.flow as usize;
        let seq = r.id & SEQ_MASK;
        match r.kind {
            Kind::Enqueue | Kind::Drop => {
                if r.hop == 0 {
                    let again = r.tcp && seq < next_seq[f];
                    next_seq[f] = next_seq[f].max(seq + 1);
                    if on {
                        c.offered += 1;
                        c.tcp_offered += u64::from(r.tcp);
                        c.tcp_retransmits += u64::from(again);
                    }
                }
                if on && r.kind == Kind::Drop {
                    c.dropped += 1;
                }
            }
            Kind::TxStart => {}
            Kind::TxComplete => {
                let mut new = false;
                if r.tcp && r.last {
                    let seen = &mut arrived[f];
                    if seen.len() <= seq as usize {
                        seen.resize(seq as usize + 1, false);
                    }
                    new = !std::mem::replace(&mut seen[seq as usize], true);
                }
                if on {
                    c.transmissions += 1;
                    c.path_len_sum += depth[usize::from(r.link)][r.leaf as usize];
                    if r.last {
                        c.delivered += 1;
                        c.tcp_delivered += u64::from(r.tcp);
                        c.tcp_delivered_new += u64::from(new);
                    }
                }
            }
        }
    }
    c
}
